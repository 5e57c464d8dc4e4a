
void scatter(int off[], int data[], int n)
{
    int i;
    for (i = 0; i < n; i++) { off[i] = i * 2 + 1; }
    for (i = 0; i < n; i++) { data[off[i]] = i; }
}
