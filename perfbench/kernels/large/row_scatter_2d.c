
void row_scatter(int mp[], int grid[][16], int n)
{
    int i, j;
    for (i = 0; i < n; i++) { mp[i] = n - 1 - i; }
    for (j = 0; j < 16; j++) {
        for (i = 0; i < n; i++) {
            grid[mp[i]][j] = i + j;
        }
    }
}
