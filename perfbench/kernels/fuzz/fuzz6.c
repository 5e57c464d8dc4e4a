void fuzz6(int mpa[], int mrowa[][4], int minda[][4], int goffb[], int gdatb[], int n)
{
    int i, j, l;
    for (i = 0; i < n; i++) { mpa[i] = (i * 2 + 1) % n; }
    for (i = 0; i < n; i++) {
        for (j = 0; j < 4; j++) { mrowa[i][j] = mpa[i] + j; }
    }
    for (i = 0; i < n; i++) {
        for (j = 0; j < 4; j++) { minda[mpa[i]][j] = i + j; }
    }
    for (i = 0; i < n; i++) { goffb[i] = i * 2 + 1; }
    for (i = 0; i < n; i++) {
        if (i % 2 == 0) { gdatb[goffb[i]] = i; }
    }
}
