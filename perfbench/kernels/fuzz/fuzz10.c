void fuzz10(int dsza[], int dptra[], int douta[], int dinpa[], int keyb[], int cntb[], int mpc[], int mrowc[][3], int mindc[][3], int n)
{
    int i, j, l;
    for (i = 0; i < n; i++) { dsza[i] = i % 3; }
    dptra[0] = 0;
    for (i = 1; i < n + 1; i++) { dptra[i] = dptra[i-1] + dsza[i-1]; }
    for (i = 0; i < n; i++) {
        for (j = dptra[i]; j < dptra[i+1]; j++) {
            for (l = 0; l < 2; l++) {
                douta[j * 2 + l] = dinpa[j * 2 + l] + 1;
            }
        }
    }
    for (i = 0; i < n; i++) { keyb[i] = i % 6; }
    for (i = 0; i < n; i++) { cntb[keyb[i]] = cntb[keyb[i]] + 1; }
    for (i = 0; i < n; i++) { mpc[i] = (i * 1 + 0) % n; }
    for (i = 0; i < n; i++) {
        for (j = 0; j < 3; j++) { mrowc[i][j] = mpc[i] + j; }
    }
    for (i = 0; i < n; i++) {
        for (j = 0; j < 3; j++) { mindc[mpc[i]][j] = i + j; }
    }
}
