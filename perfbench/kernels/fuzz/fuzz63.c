void fuzz63(int goffa[], int gdata[], int mpb[], int mrowb[][3], int mindb[][3], int n)
{
    int i, j, l;
    for (i = 0; i < n; i++) { goffa[i] = i * 2 + 3; }
    for (i = 0; i < n; i++) {
        if (i % 2 == 0) { gdata[goffa[i]] = i; }
    }
    for (i = 0; i < n; i++) { mpb[i] = (i * 2 + 0) % n; }
    for (i = 0; i < n; i++) {
        for (j = 0; j < 3; j++) { mrowb[i][j] = mpb[i] + j; }
    }
    for (i = 0; i < n; i++) {
        for (j = 0; j < 3; j++) { mindb[mpb[i]][j] = i + j; }
    }
}
