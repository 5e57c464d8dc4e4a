void fuzz57(int poffa[], int pdata[], int ma, int n)
{
    int i, j, l;
    for (i = 0; i < n; i++) { poffa[i] = i * ma + 2; }
    for (i = 0; i < n; i++) { pdata[poffa[i]] = i; }
}
