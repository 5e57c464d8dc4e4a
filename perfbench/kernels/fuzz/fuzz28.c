void fuzz28(int dsza[], int dptra[], int douta[], int dinpa[], int keyb[], int cntb[], int n)
{
    int i, j, l;
    for (i = 0; i < n; i++) { dsza[i] = i % 4; }
    dptra[0] = 0;
    for (i = 1; i < n + 1; i++) { dptra[i] = dptra[i-1] + dsza[i-1]; }
    for (i = 0; i < n; i++) {
        for (j = dptra[i]; j < dptra[i+1]; j++) {
            for (l = 0; l < 3; l++) {
                douta[j * 3 + l] = dinpa[j * 3 + l] + 1;
            }
        }
    }
    for (i = 0; i < n; i++) { keyb[i] = i % 5; }
    for (i = 0; i < n; i++) { cntb[keyb[i]] = cntb[keyb[i]] + 1; }
}
