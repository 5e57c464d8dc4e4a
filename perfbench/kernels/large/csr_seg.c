
void csr_seg(int ptr[], int seg[], int inp[], int n)
{
    int i, j;
    for (i = 0; i < n; i++) {
        for (j = ptr[i]; j < ptr[i+1]; j++) {
            seg[j] = inp[j] + 1;
        }
    }
}
