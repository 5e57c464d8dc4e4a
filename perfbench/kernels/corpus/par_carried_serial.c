
void par_carried_serial(double a[], double s, int n)
{
    int i;
    for (i = 0; i < n; i++) {
        a[i] = s * 0.5;
        s = a[i] + 1.0;
    }
}
