void fuzz4(int dsza[], int dptra[], int douta[], int dinpa[], int cdatb[], int cposb[], int coutb[], int goffc[], int gdatc[], int n)
{
    int i, j, l, ccb;
    for (i = 0; i < n; i++) { dsza[i] = i % 4; }
    dptra[0] = 0;
    for (i = 1; i < n + 1; i++) { dptra[i] = dptra[i-1] + dsza[i-1]; }
    for (i = 0; i < n; i++) {
        for (j = dptra[i]; j < dptra[i+1]; j++) {
            for (l = 0; l < 2; l++) {
                douta[j * 2 + l] = dinpa[j * 2 + l] + 1;
            }
        }
    }
    ccb = 0;
    for (i = 0; i < n; i++) {
        if (cdatb[i] > 23) {
            cposb[i] = ccb;
            ccb = ccb + 1;
        } else {
            cposb[i] = -1;
        }
    }
    for (i = 0; i < n; i++) {
        if (cposb[i] >= 0) { coutb[cposb[i]] = i; }
    }
    for (i = 0; i < n; i++) { goffc[i] = i * 2 + 2; }
    for (i = 0; i < n; i++) {
        if (i % 2 == 0) { gdatc[goffc[i]] = i; }
    }
}
