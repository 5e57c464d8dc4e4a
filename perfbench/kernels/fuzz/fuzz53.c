void fuzz53(int sha[], int offb[], int datab[], int poffc[], int pdatc[], int mc, int n)
{
    int i, j, l;
    for (i = 0; i < n; i++) { sha[i + 2] = sha[i] + 1; }
    for (i = 0; i < n; i++) { offb[i] = i * 3 + 1; }
    for (i = 0; i < n; i++) { datab[offb[i]] = i; }
    for (i = 0; i < n; i++) { poffc[i] = i * mc + 0; }
    for (i = 0; i < n; i++) { pdatc[poffc[i]] = i; }
}
