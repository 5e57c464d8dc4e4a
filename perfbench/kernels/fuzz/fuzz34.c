void fuzz34(int offa[], int dataa[], int n)
{
    int i, j, l;
    for (i = 0; i < n; i++) { offa[i] = i * 0 + 3; }
    for (i = 0; i < n; i++) { dataa[offa[i]] = i; }
}
