void fuzz13(int cdata[], int cposa[], int couta[], int dszb[], int dptrb[], int doutb[], int dinpb[], int poffc[], int pdatc[], int mc, int n)
{
    int i, j, l, cca;
    cca = 0;
    for (i = 0; i < n; i++) {
        if (cdata[i] > 38) {
            cposa[i] = cca;
            cca = cca + 1;
        } else {
            cposa[i] = -1;
        }
    }
    for (i = 0; i < n; i++) {
        if (cposa[i] >= 0) { couta[cposa[i]] = i; }
    }
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
    for (i = 0; i < n; i++) { poffc[i] = i * mc + 0; }
    for (i = 0; i < n; i++) { pdatc[poffc[i]] = i; }
}
