void fuzz7(int goffa[], int gdata[], int cdatb[], int cposb[], int coutb[], int shc[], int n)
{
    int i, j, l, ccb;
    for (i = 0; i < n; i++) { goffa[i] = i * 2 + 3; }
    for (i = 0; i < n; i++) {
        if (i % 2 == 0) { gdata[goffa[i]] = i; }
    }
    ccb = 0;
    for (i = 0; i < n; i++) {
        if (cdatb[i] > 11) {
            cposb[i] = ccb;
            ccb = ccb + 1;
        } else {
            cposb[i] = -1;
        }
    }
    for (i = 0; i < n; i++) {
        if (cposb[i] >= 0) { coutb[cposb[i]] = i; }
    }
    for (i = 0; i < n; i++) { shc[i + 1] = shc[i] + 1; }
}
