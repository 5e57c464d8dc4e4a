void fuzz16(int cdata[], int cposa[], int couta[], int goffb[], int gdatb[], int n)
{
    int i, j, l, cca;
    cca = 0;
    for (i = 0; i < n; i++) {
        if (cdata[i] > 33) {
            cposa[i] = cca;
            cca = cca + 1;
        } else {
            cposa[i] = -1;
        }
    }
    for (i = 0; i < n; i++) {
        if (cposa[i] >= 0) { couta[cposa[i]] = i; }
    }
    for (i = 0; i < n; i++) { goffb[i] = i * 2 + 0; }
    for (i = 0; i < n; i++) {
        if (i % 3 == 0) { gdatb[goffb[i]] = i; }
    }
}
