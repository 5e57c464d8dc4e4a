void fuzz8(int cdata[], int cposa[], int couta[], int mpb[], int mrowb[][4], int mindb[][4], int keyc[], int cntc[], int n)
{
    int i, j, l, cca;
    cca = 0;
    for (i = 0; i < n; i++) {
        if (cdata[i] > 29) {
            cposa[i] = cca;
            cca = cca + 1;
        } else {
            cposa[i] = -1;
        }
    }
    for (i = 0; i < n; i++) {
        if (cposa[i] >= 0) { couta[cposa[i]] = i; }
    }
    for (i = 0; i < n; i++) { mpb[i] = (i * 2 + 2) % n; }
    for (i = 0; i < n; i++) {
        for (j = 0; j < 4; j++) { mrowb[i][j] = mpb[i] + j; }
    }
    for (i = 0; i < n; i++) {
        for (j = 0; j < 4; j++) { mindb[mpb[i]][j] = i + j; }
    }
    for (i = 0; i < n; i++) { keyc[i] = i % 2; }
    for (i = 0; i < n; i++) { cntc[keyc[i]] = cntc[keyc[i]] + 1; }
}
