
void par_branch(int a[], int out[], int n)
{
    int i, t;
    for (i = 0; i < n; i++) { a[i] = (i * 7) % 13 - 6; }
    for (i = 0; i < n; i++) {
        if (a[i] > 0) {
            t = a[i] * 3;
        } else {
            t = 1 - a[i];
        }
        out[i] = t + i;
    }
}
