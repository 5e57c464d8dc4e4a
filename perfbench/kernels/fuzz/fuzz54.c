void fuzz54(int keya[], int cnta[], int n)
{
    int i, j, l;
    for (i = 0; i < n; i++) { keya[i] = i % 3; }
    for (i = 0; i < n; i++) { cnta[keya[i]] = cnta[keya[i]] + 1; }
}
