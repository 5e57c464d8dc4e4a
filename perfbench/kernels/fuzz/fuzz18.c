void fuzz18(int keya[], int cnta[], int resb[], int srcb[], int poffc[], int pdatc[], int mc, int n)
{
    int i, j, l;
    for (i = 0; i < n; i++) { keya[i] = i % 3; }
    for (i = 0; i < n; i++) { cnta[keya[i]] = cnta[keya[i]] + 1; }
    for (i = 0; i < n; i++) { resb[i] = srcb[i] * 1 + 8; }
    for (i = 0; i < n; i++) { poffc[i] = i * mc + 2; }
    for (i = 0; i < n; i++) { pdatc[poffc[i]] = i; }
}
