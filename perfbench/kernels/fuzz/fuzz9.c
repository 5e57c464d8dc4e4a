void fuzz9(int mpa[], int mrowa[][2], int minda[][2], int dszb[], int dptrb[], int doutb[], int dinpb[], int n)
{
    int i, j, l;
    for (i = 0; i < n; i++) { mpa[i] = (i * 2 + 2) % n; }
    for (i = 0; i < n; i++) {
        for (j = 0; j < 2; j++) { mrowa[i][j] = mpa[i] + j; }
    }
    for (i = 0; i < n; i++) {
        for (j = 0; j < 2; j++) { minda[mpa[i]][j] = i + j; }
    }
    for (i = 0; i < n; i++) { dszb[i] = i % 4; }
    dptrb[0] = 0;
    for (i = 1; i < n + 1; i++) { dptrb[i] = dptrb[i-1] + dszb[i-1]; }
    for (i = 0; i < n; i++) {
        for (j = dptrb[i]; j < dptrb[i+1]; j++) {
            for (l = 0; l < 3; l++) {
                doutb[j * 3 + l] = dinpb[j * 3 + l] + 1;
            }
        }
    }
}
