void fuzz36(int idxa[], int ga[], int va[], int szb[], int ptrb[], int segb[], int inpb[], int n)
{
    int i, j, l;
    for (i = 0; i < n; i++) { idxa[i] = (i * 2 + 3) % n; }
    for (i = 0; i < n; i++) { ga[i] = va[idxa[i]] + 1; }
    for (i = 0; i < n; i++) { szb[i] = i % 4; }
    ptrb[0] = 0;
    for (i = 1; i < n + 1; i++) { ptrb[i] = ptrb[i-1] + szb[i-1]; }
    for (i = 0; i < n; i++) {
        for (j = ptrb[i]; j < ptrb[i+1]; j++) {
            segb[j] = inpb[j] + 1;
        }
    }
}
