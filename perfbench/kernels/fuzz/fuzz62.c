void fuzz62(int sha[], int mpb[], int mrowb[][4], int mindb[][4], int n)
{
    int i, j, l;
    for (i = 0; i < n; i++) { sha[i + 2] = sha[i] + 1; }
    for (i = 0; i < n; i++) { mpb[i] = (i * 1 + 0) % n; }
    for (i = 0; i < n; i++) {
        for (j = 0; j < 4; j++) { mrowb[i][j] = mpb[i] + j; }
    }
    for (i = 0; i < n; i++) {
        for (j = 0; j < 4; j++) { mindb[mpb[i]][j] = i + j; }
    }
}
