
void histogram(int key[], int counts[], int n)
{
    int i;
    for (i = 0; i < n; i++) {
        counts[key[i]] = counts[key[i]] + 1;
    }
}
