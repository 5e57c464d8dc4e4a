
void perm_row_scatter(int perm[], int inv[], int a[][8], int n)
{
    int i, j;
    for (i = 0; i < n; i++) {
        inv[perm[i]] = i;
    }
    for (i = 0; i < n; i++) {
        for (j = 0; j < 8; j++) {
            a[inv[i]][j] = i + j;
        }
    }
}
