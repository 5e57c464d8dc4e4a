
void fig6(int r[], int p[], int Blk[], int nb)
{
    int b, k;
    for (b = 0; b < nb; b++) {
        for (k = r[b]; k < r[b+1]; k++) {
            Blk[p[k]] = b;
        }
    }
}
