void fuzz52(int goffa[], int gdata[], int shb[], int keyc[], int cntc[], int n)
{
    int i, j, l;
    for (i = 0; i < n; i++) { goffa[i] = i * 2 + 3; }
    for (i = 0; i < n; i++) {
        if (i % 2 == 0) { gdata[goffa[i]] = i; }
    }
    for (i = 0; i < n; i++) { shb[i + 1] = shb[i] + 1; }
    for (i = 0; i < n; i++) { keyc[i] = i % 4; }
    for (i = 0; i < n; i++) { cntc[keyc[i]] = cntc[keyc[i]] + 1; }
}
