
void colamd_heads(int head[], int degree_lists[], int out[], int n_deg)
{
    int d, k;
    for (d = 0; d < n_deg; d++) {
        for (k = head[d]; k < head[d+1]; k++) {
            out[k] = degree_lists[k] - 1;
        }
    }
}
