
void lu_pivot(int perm[], int row_out[], int n)
{
    int i;
    for (i = 0; i < n; i++) {
        row_out[perm[i]] = i;
    }
}
