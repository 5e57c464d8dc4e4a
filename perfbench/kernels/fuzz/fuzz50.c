void fuzz50(int poffa[], int pdata[], int cdatb[], int cposb[], int coutb[], int mpc[], int mrowc[][4], int mindc[][4], int ma, int n)
{
    int i, j, l, ccb;
    for (i = 0; i < n; i++) { poffa[i] = i * ma + 0; }
    for (i = 0; i < n; i++) { pdata[poffa[i]] = i; }
    ccb = 0;
    for (i = 0; i < n; i++) {
        if (cdatb[i] > 39) {
            cposb[i] = ccb;
            ccb = ccb + 1;
        } else {
            cposb[i] = -1;
        }
    }
    for (i = 0; i < n; i++) {
        if (cposb[i] >= 0) { coutb[cposb[i]] = i; }
    }
    for (i = 0; i < n; i++) { mpc[i] = (i * 1 + 0) % n; }
    for (i = 0; i < n; i++) {
        for (j = 0; j < 4; j++) { mrowc[i][j] = mpc[i] + j; }
    }
    for (i = 0; i < n; i++) {
        for (j = 0; j < 4; j++) { mindc[mpc[i]][j] = i + j; }
    }
}
