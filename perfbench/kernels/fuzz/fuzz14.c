void fuzz14(int cdata[], int cposa[], int couta[], int n)
{
    int i, j, l, cca;
    cca = 0;
    for (i = 0; i < n; i++) {
        if (cdata[i] > 29) {
            cposa[i] = cca;
            cca = cca + 1;
        } else {
            cposa[i] = -1;
        }
    }
    for (i = 0; i < n; i++) {
        if (cposa[i] >= 0) { couta[cposa[i]] = i; }
    }
}
