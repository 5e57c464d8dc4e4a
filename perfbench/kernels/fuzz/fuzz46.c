void fuzz46(int keya[], int cnta[], int cdatb[], int cposb[], int coutb[], int n)
{
    int i, j, l, ccb;
    for (i = 0; i < n; i++) { keya[i] = i % 4; }
    for (i = 0; i < n; i++) { cnta[keya[i]] = cnta[keya[i]] + 1; }
    ccb = 0;
    for (i = 0; i < n; i++) {
        if (cdatb[i] > 18) {
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
