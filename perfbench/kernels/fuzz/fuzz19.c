void fuzz19(int idxa[], int ga[], int va[], int resb[], int srcb[], int n)
{
    int i, j, l;
    for (i = 0; i < n; i++) { idxa[i] = (i * 2 + 1) % n; }
    for (i = 0; i < n; i++) { ga[i] = va[idxa[i]] + 1; }
    for (i = 0; i < n; i++) { resb[i] = srcb[i] * 4 + 0; }
}
