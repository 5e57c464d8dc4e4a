
void strict_mono(int offsets[], int data[], int n)
{
    int i;
    for (i = 0; i < n; i++) {
        offsets[i] = i * 3 + 3;
    }
    for (i = 0; i < n; i++) {
        data[offsets[i]] = i;
    }
}
