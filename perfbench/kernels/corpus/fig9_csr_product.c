
void fig9(int a[ROWLEN][COLUMNLEN], int ROWLEN, int COLUMNLEN,
          int rowsize[], int rowptr[], int column_number[], int value[],
          int vector[], int product_array[])
{
    int i, j, j1, count, index, ind;
    index = 0;
    ind = 0;
    for (i = 0; i < ROWLEN; i++) {
        count = 0;
        for (j = 0; j < COLUMNLEN; j++) {
            if (a[i][j] != 0) {
                count++;
                column_number[index++] = j;
                value[ind++] = a[i][j];
            }
        }
        rowsize[i] = count;
    }
    rowptr[0] = 0;
    for (i = 1; i < ROWLEN + 1; i++) {
        rowptr[i] = rowptr[i-1] + rowsize[i-1];
    }
    for (i = 0; i < ROWLEN + 1; i++) {
        if (i == 0) {
            j1 = i;
        } else {
            j1 = rowptr[i-1];
        }
        for (j = j1; j < rowptr[i]; j++) {
            product_array[j] = value[j] * vector[j];
        }
    }
}
