
void gather(int idx[], int g[], int v[], int n)
{
    int i;
    for (i = 0; i < n; i++) { idx[i] = (i * 3 + 1) % n; }
    for (i = 0; i < n; i++) { g[i] = v[idx[i]] + 1; }
}
