
void fig3(int colidx[], int rowstr[], int lastrow, int firstrow, int firstcol)
{
    int j, k;
    for (j = 0; j < lastrow - firstrow + 1; j++) {
        for (k = rowstr[j]; k < rowstr[j+1]; k++) {
            colidx[k] = colidx[k] - firstcol;
        }
    }
}
