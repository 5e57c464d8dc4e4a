void fuzz25(int cdata[], int cposa[], int couta[], int szb[], int ptrb[], int segb[], int inpb[], int n)
{
    int i, j, l, cca;
    cca = 0;
    for (i = 0; i < n; i++) {
        if (cdata[i] > 16) {
            cposa[i] = cca;
            cca = cca + 1;
        } else {
            cposa[i] = -1;
        }
    }
    for (i = 0; i < n; i++) {
        if (cposa[i] >= 0) { couta[cposa[i]] = i; }
    }
    for (i = 0; i < n; i++) { szb[i] = i % 1; }
    ptrb[0] = 0;
    for (i = 1; i < n + 1; i++) { ptrb[i] = ptrb[i-1] + szb[i-1]; }
    for (i = 0; i < n; i++) {
        for (j = ptrb[i]; j < ptrb[i+1]; j++) {
            segb[j] = inpb[j] + 1;
        }
    }
}
