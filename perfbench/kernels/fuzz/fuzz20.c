void fuzz20(int cdata[], int cposa[], int couta[], int keyb[], int cntb[], int goffc[], int gdatc[], int n)
{
    int i, j, l, cca;
    cca = 0;
    for (i = 0; i < n; i++) {
        if (cdata[i] > 17) {
            cposa[i] = cca;
            cca = cca + 1;
        } else {
            cposa[i] = -1;
        }
    }
    for (i = 0; i < n; i++) {
        if (cposa[i] >= 0) { couta[cposa[i]] = i; }
    }
    for (i = 0; i < n; i++) { keyb[i] = i % 4; }
    for (i = 0; i < n; i++) { cntb[keyb[i]] = cntb[keyb[i]] + 1; }
    for (i = 0; i < n; i++) { goffc[i] = i * 2 + 0; }
    for (i = 0; i < n; i++) {
        if (i % 2 == 0) { gdatc[goffc[i]] = i; }
    }
}
