
void inv_perm(int perm[], int inv[], int out[], int n)
{
    int i;
    for (i = 0; i < n; i++) {
        inv[perm[i]] = i;
    }
    for (i = 0; i < n; i++) {
        out[inv[i]] = i;
    }
}
