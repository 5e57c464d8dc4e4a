void fuzz51(int mpa[], int mrowa[][3], int minda[][3], int cdatb[], int cposb[], int coutb[], int n)
{
    int i, j, l, ccb;
    for (i = 0; i < n; i++) { mpa[i] = (i * 1 + 0) % n; }
    for (i = 0; i < n; i++) {
        for (j = 0; j < 3; j++) { mrowa[i][j] = mpa[i] + j; }
    }
    for (i = 0; i < n; i++) {
        for (j = 0; j < 3; j++) { minda[mpa[i]][j] = i + j; }
    }
    ccb = 0;
    for (i = 0; i < n; i++) {
        if (cdatb[i] > 16) {
            cposb[i] = ccb;
            ccb = ccb + 1;
        } else {
            cposb[i] = -1;
        }
    }
    for (i = 0; i < n; i++) {
        if (cposb[i] >= 0) { coutb[cposb[i]] = i; }
    }
}
