void fuzz40(int poffa[], int pdata[], int offb[], int datab[], int ma, int n)
{
    int i, j, l;
    for (i = 0; i < n; i++) { poffa[i] = i * ma + 1; }
    for (i = 0; i < n; i++) { pdata[poffa[i]] = i; }
    for (i = 0; i < n; i++) { offb[i] = i * 3 + 0; }
    for (i = 0; i < n; i++) { datab[offb[i]] = i; }
}
