void fuzz35(int resa[], int srca[], int n)
{
    int i, j, l;
    for (i = 0; i < n; i++) { resa[i] = srca[i] * 4 + 4; }
}
