
void ft_indexmap(int xstart[], int indexmap[], int d1, int d2)
{
    int i, j;
    for (i = 0; i < d1; i++) {
        for (j = xstart[i]; j < xstart[i+1]; j++) {
            indexmap[j] = i;
        }
    }
}
