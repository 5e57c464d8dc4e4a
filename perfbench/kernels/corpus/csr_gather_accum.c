
void csr_gather_accum(int p[], int q[], int comp[], int acc[][6], int x[], int n)
{
    int i, k;
    for (i = 0; i < n; i++) {
        comp[i] = q[p[i]];
    }
    for (i = 0; i < n; i++) {
        for (k = 0; k < 6; k++) {
            acc[comp[i]][k] = acc[comp[i]][k] + x[k] + i;
        }
    }
}
