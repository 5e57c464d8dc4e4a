void fuzz26(int keya[], int cnta[], int idxb[], int gb[], int vb[], int goffc[], int gdatc[], int n)
{
    int i, j, l;
    for (i = 0; i < n; i++) { keya[i] = i % 3; }
    for (i = 0; i < n; i++) { cnta[keya[i]] = cnta[keya[i]] + 1; }
    for (i = 0; i < n; i++) { idxb[i] = (i * 3 + 3) % n; }
    for (i = 0; i < n; i++) { gb[i] = vb[idxb[i]] + 1; }
    for (i = 0; i < n; i++) { goffc[i] = i * 2 + 3; }
    for (i = 0; i < n; i++) {
        if (i % 2 == 0) { gdatc[goffc[i]] = i; }
    }
}
