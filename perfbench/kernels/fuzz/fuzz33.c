void fuzz33(int resa[], int srca[], int cdatb[], int cposb[], int coutb[], int shc[], int n)
{
    int i, j, l, ccb;
    for (i = 0; i < n; i++) { resa[i] = srca[i] * 2 + 2; }
    ccb = 0;
    for (i = 0; i < n; i++) {
        if (cdatb[i] > 25) {
            cposb[i] = ccb;
            ccb = ccb + 1;
        } else {
            cposb[i] = -1;
        }
    }
    for (i = 0; i < n; i++) {
        if (cposb[i] >= 0) { coutb[cposb[i]] = i; }
    }
    for (i = 0; i < n; i++) { shc[i + 2] = shc[i] + 1; }
}
