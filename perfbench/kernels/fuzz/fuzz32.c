void fuzz32(int sha[], int szb[], int ptrb[], int segb[], int inpb[], int dszc[], int dptrc[], int doutc[], int dinpc[], int n)
{
    int i, j, l;
    for (i = 0; i < n; i++) { sha[i + 1] = sha[i] + 1; }
    for (i = 0; i < n; i++) { szb[i] = i % 2; }
    ptrb[0] = 0;
    for (i = 1; i < n + 1; i++) { ptrb[i] = ptrb[i-1] + szb[i-1]; }
    for (i = 0; i < n; i++) {
        for (j = ptrb[i]; j < ptrb[i+1]; j++) {
            segb[j] = inpb[j] + 1;
        }
    }
    for (i = 0; i < n; i++) { dszc[i] = i % 4; }
    dptrc[0] = 0;
    for (i = 1; i < n + 1; i++) { dptrc[i] = dptrc[i-1] + dszc[i-1]; }
    for (i = 0; i < n; i++) {
        for (j = dptrc[i]; j < dptrc[i+1]; j++) {
            for (l = 0; l < 2; l++) {
                doutc[j * 2 + l] = dinpc[j * 2 + l] + 1;
            }
        }
    }
}
