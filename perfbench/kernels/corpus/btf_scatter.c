
void btf_scatter(int perm[], int flag[], int n)
{
    int i;
    for (i = 0; i < n; i++) {
        flag[perm[i]] = 1;
    }
}
