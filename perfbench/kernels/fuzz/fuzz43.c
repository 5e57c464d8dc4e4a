void fuzz43(int idxa[], int ga[], int va[], int shb[], int n)
{
    int i, j, l;
    for (i = 0; i < n; i++) { idxa[i] = (i * 3 + 0) % n; }
    for (i = 0; i < n; i++) { ga[i] = va[idxa[i]] + 1; }
    for (i = 0; i < n; i++) { shb[i + 1] = shb[i] + 1; }
}
