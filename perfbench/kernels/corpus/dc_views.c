
void dc_views(int view_ptr[], int tuples[], int out[], int n_views)
{
    int v, t;
    for (v = 0; v < n_views; v++) {
        for (t = view_ptr[v]; t < view_ptr[v+1]; t++) {
            out[t] = tuples[t] + v;
        }
    }
}
