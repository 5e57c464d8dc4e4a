void fuzz15(int poffa[], int pdata[], int dszb[], int dptrb[], int doutb[], int dinpb[], int shc[], int ma, int n)
{
    int i, j, l;
    for (i = 0; i < n; i++) { poffa[i] = i * ma + 0; }
    for (i = 0; i < n; i++) { pdata[poffa[i]] = i; }
    for (i = 0; i < n; i++) { dszb[i] = i % 2; }
    dptrb[0] = 0;
    for (i = 1; i < n + 1; i++) { dptrb[i] = dptrb[i-1] + dszb[i-1]; }
    for (i = 0; i < n; i++) {
        for (j = dptrb[i]; j < dptrb[i+1]; j++) {
            for (l = 0; l < 2; l++) {
                doutb[j * 2 + l] = dinpb[j * 2 + l] + 1;
            }
        }
    }
    for (i = 0; i < n; i++) { shc[i + 2] = shc[i] + 1; }
}
