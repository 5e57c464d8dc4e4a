void fuzz29(int mpa[], int mrowa[][3], int minda[][3], int goffb[], int gdatb[], int offc[], int datac[], int n)
{
    int i, j, l;
    for (i = 0; i < n; i++) { mpa[i] = (i * 1 + 1) % n; }
    for (i = 0; i < n; i++) {
        for (j = 0; j < 3; j++) { mrowa[i][j] = mpa[i] + j; }
    }
    for (i = 0; i < n; i++) {
        for (j = 0; j < 3; j++) { minda[mpa[i]][j] = i + j; }
    }
    for (i = 0; i < n; i++) { goffb[i] = i * 2 + 0; }
    for (i = 0; i < n; i++) {
        if (i % 3 == 0) { gdatb[goffb[i]] = i; }
    }
    for (i = 0; i < n; i++) { offc[i] = i * 0 + 1; }
    for (i = 0; i < n; i++) { datac[offc[i]] = i; }
}
