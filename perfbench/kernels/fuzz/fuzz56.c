void fuzz56(int idxa[], int ga[], int va[], int poffb[], int pdatb[], int mb, int n)
{
    int i, j, l;
    for (i = 0; i < n; i++) { idxa[i] = (i * 4 + 3) % n; }
    for (i = 0; i < n; i++) { ga[i] = va[idxa[i]] + 1; }
    for (i = 0; i < n; i++) { poffb[i] = i * mb + 1; }
    for (i = 0; i < n; i++) { pdatb[poffb[i]] = i; }
}
