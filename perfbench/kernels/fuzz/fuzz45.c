void fuzz45(int goffa[], int gdata[], int mpb[], int mrowb[][3], int mindb[][3], int poffc[], int pdatc[], int mc, int n)
{
    int i, j, l;
    for (i = 0; i < n; i++) { goffa[i] = i * 2 + 2; }
    for (i = 0; i < n; i++) {
        if (i % 3 == 0) { gdata[goffa[i]] = i; }
    }
    for (i = 0; i < n; i++) { mpb[i] = (i * 2 + 1) % n; }
    for (i = 0; i < n; i++) {
        for (j = 0; j < 3; j++) { mrowb[i][j] = mpb[i] + j; }
    }
    for (i = 0; i < n; i++) {
        for (j = 0; j < 3; j++) { mindb[mpb[i]][j] = i + j; }
    }
    for (i = 0; i < n; i++) { poffc[i] = i * mc + 2; }
    for (i = 0; i < n; i++) { pdatc[poffc[i]] = i; }
}
