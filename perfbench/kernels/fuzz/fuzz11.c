void fuzz11(int sza[], int ptra[], int sega[], int inpa[], int n)
{
    int i, j, l;
    for (i = 0; i < n; i++) { sza[i] = i % 4; }
    ptra[0] = 0;
    for (i = 1; i < n + 1; i++) { ptra[i] = ptra[i-1] + sza[i-1]; }
    for (i = 0; i < n; i++) {
        for (j = ptra[i]; j < ptra[i+1]; j++) {
            sega[j] = inpa[j] + 1;
        }
    }
}
