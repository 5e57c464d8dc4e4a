
void fig4(double a[], int colidx[], int rowstr[], int nzloc[],
          double v[], int iv[], int nrows)
{
    int j, j1, j2, k, nza;
    for (j = 0; j < nrows; j++) {
        if (j > 0) {
            j1 = rowstr[j] - nzloc[j-1];
        } else {
            j1 = 0;
        }
        j2 = rowstr[j+1] - nzloc[j];
        nza = rowstr[j];
        for (k = j1; k < j2; k++) {
            a[k] = v[nza];
            colidx[k] = iv[nza];
            nza = nza + 1;
        }
    }
}
