void fuzz12(int keya[], int cnta[], int mpb[], int mrowb[][2], int mindb[][2], int n)
{
    int i, j, l;
    for (i = 0; i < n; i++) { keya[i] = i % 2; }
    for (i = 0; i < n; i++) { cnta[keya[i]] = cnta[keya[i]] + 1; }
    for (i = 0; i < n; i++) { mpb[i] = (i * 1 + 0) % n; }
    for (i = 0; i < n; i++) {
        for (j = 0; j < 2; j++) { mrowb[i][j] = mpb[i] + j; }
    }
    for (i = 0; i < n; i++) {
        for (j = 0; j < 2; j++) { mindb[mpb[i]][j] = i + j; }
    }
}
