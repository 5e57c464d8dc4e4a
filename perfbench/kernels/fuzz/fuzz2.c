void fuzz2(int keya[], int cnta[], int resb[], int srcb[], int szc[], int ptrc[], int segc[], int inpc[], int n)
{
    int i, j, l;
    for (i = 0; i < n; i++) { keya[i] = i % 4; }
    for (i = 0; i < n; i++) { cnta[keya[i]] = cnta[keya[i]] + 1; }
    for (i = 0; i < n; i++) { resb[i] = srcb[i] * 1 + 3; }
    for (i = 0; i < n; i++) { szc[i] = i % 3 - 1; }
    ptrc[0] = 0;
    for (i = 1; i < n + 1; i++) { ptrc[i] = ptrc[i-1] + szc[i-1]; }
    for (i = 0; i < n; i++) {
        for (j = ptrc[i]; j < ptrc[i+1]; j++) {
            segc[j + n] = inpc[j + n] + 1;
        }
    }
}
