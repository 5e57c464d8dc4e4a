void fuzz41(int cdata[], int cposa[], int couta[], int mpb[], int mrowb[][2], int mindb[][2], int n)
{
    int i, j, l, cca;
    cca = 0;
    for (i = 0; i < n; i++) {
        if (cdata[i] > 31) {
            cposa[i] = cca;
            cca = cca + 1;
        } else {
            cposa[i] = -1;
        }
    }
    for (i = 0; i < n; i++) {
        if (cposa[i] >= 0) { couta[cposa[i]] = i; }
    }
    for (i = 0; i < n; i++) { mpb[i] = (i * 1 + 2) % n; }
    for (i = 0; i < n; i++) {
        for (j = 0; j < 2; j++) { mrowb[i][j] = mpb[i] + j; }
    }
    for (i = 0; i < n; i++) {
        for (j = 0; j < 2; j++) { mindb[mpb[i]][j] = i + j; }
    }
}
