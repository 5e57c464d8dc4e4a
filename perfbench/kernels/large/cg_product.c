
void cg_product(int rowptr[], double value[], double vector[], double product[], int nrows)
{
    int i, j;
    for (i = 0; i < nrows; i++) {
        for (j = rowptr[i]; j < rowptr[i + 1]; j++) {
            product[j] = value[j] * vector[j];
        }
    }
}
