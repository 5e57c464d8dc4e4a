void fuzz31(int goffa[], int gdata[], int cdatb[], int cposb[], int coutb[], int n)
{
    int i, j, l, ccb;
    for (i = 0; i < n; i++) { goffa[i] = i * 2 + 2; }
    for (i = 0; i < n; i++) {
        if (i % 3 == 0) { gdata[goffa[i]] = i; }
    }
    ccb = 0;
    for (i = 0; i < n; i++) {
        if (cdatb[i] > 12) {
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
