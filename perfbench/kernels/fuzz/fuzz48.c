void fuzz48(int idxa[], int ga[], int va[], int n)
{
    int i, j, l;
    for (i = 0; i < n; i++) { idxa[i] = (i * 2 + 2) % n; }
    for (i = 0; i < n; i++) { ga[i] = va[idxa[i]] + 1; }
}
