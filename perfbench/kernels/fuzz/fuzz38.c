void fuzz38(int goffa[], int gdata[], int n)
{
    int i, j, l;
    for (i = 0; i < n; i++) { goffa[i] = i * 2 + 1; }
    for (i = 0; i < n; i++) {
        if (i % 2 == 0) { gdata[goffa[i]] = i; }
    }
}
