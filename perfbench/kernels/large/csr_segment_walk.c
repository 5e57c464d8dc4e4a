
void csr_walk(int sz[], int ptr[], int seg[], int inp[], int n)
{
    int i, j;
    for (i = 0; i < n; i++) { sz[i] = i % 4; }
    ptr[0] = 0;
    for (i = 1; i < n + 1; i++) { ptr[i] = ptr[i-1] + sz[i-1]; }
    for (i = 0; i < n; i++) {
        for (j = ptr[i]; j < ptr[i+1]; j++) {
            seg[j] = inp[j] + 1;
        }
    }
}
