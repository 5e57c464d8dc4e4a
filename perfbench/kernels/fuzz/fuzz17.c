void fuzz17(int poffa[], int pdata[], int mpb[], int mrowb[][3], int mindb[][3], int szc[], int ptrc[], int segc[], int inpc[], int ma, int n)
{
    int i, j, l;
    for (i = 0; i < n; i++) { poffa[i] = i * ma + 2; }
    for (i = 0; i < n; i++) { pdata[poffa[i]] = i; }
    for (i = 0; i < n; i++) { mpb[i] = (i * 1 + 0) % n; }
    for (i = 0; i < n; i++) {
        for (j = 0; j < 3; j++) { mrowb[i][j] = mpb[i] + j; }
    }
    for (i = 0; i < n; i++) {
        for (j = 0; j < 3; j++) { mindb[mpb[i]][j] = i + j; }
    }
    for (i = 0; i < n; i++) { szc[i] = i % 2; }
    ptrc[0] = 0;
    for (i = 1; i < n + 1; i++) { ptrc[i] = ptrc[i-1] + szc[i-1]; }
    for (i = 0; i < n; i++) {
        for (j = ptrc[i]; j < ptrc[i+1]; j++) {
            segc[j] = inpc[j] + 1;
        }
    }
}
