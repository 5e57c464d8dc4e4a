void fuzz58(int resa[], int srca[], int shb[], int n)
{
    int i, j, l;
    for (i = 0; i < n; i++) { resa[i] = srca[i] * 4 + 2; }
    for (i = 0; i < n; i++) { shb[i + 2] = shb[i] + 1; }
}
