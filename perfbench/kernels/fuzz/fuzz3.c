void fuzz3(int keya[], int cnta[], int szb[], int ptrb[], int segb[], int inpb[], int offc[], int datac[], int n)
{
    int i, j, l;
    for (i = 0; i < n; i++) { keya[i] = i % 6; }
    for (i = 0; i < n; i++) { cnta[keya[i]] = cnta[keya[i]] + 1; }
    for (i = 0; i < n; i++) { szb[i] = 0; }
    ptrb[0] = 0;
    for (i = 1; i < n + 1; i++) { ptrb[i] = ptrb[i-1] + szb[i-1]; }
    for (i = 0; i < n; i++) {
        for (j = ptrb[i]; j < ptrb[i+1]; j++) {
            segb[j] = inpb[j] + 1;
        }
    }
    for (i = 0; i < n; i++) { offc[i] = i * 1 + 1; }
    for (i = 0; i < n; i++) { datac[offc[i]] = i; }
}
