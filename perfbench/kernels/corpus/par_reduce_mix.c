
void par_reduce_mix(double a[], double s, double lo, double hi, int n)
{
    int i;
    double t;
    for (i = 0; i < n; i++) {
        t = a[i] * 2.0;
        s = s + t;
        lo = min(lo, t);
        hi = max(hi, t);
    }
}
