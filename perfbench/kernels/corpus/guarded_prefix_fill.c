
void guarded_fill(int data[], int pos[], int out[], int n)
{
    int i, count;
    count = 0;
    for (i = 0; i < n; i++) {
        if (data[i] > 0) {
            pos[i] = count;
            count = count + 1;
        } else {
            pos[i] = -1;
        }
    }
    for (i = 0; i < n; i++) {
        if (pos[i] >= 0) {
            out[pos[i]] = i;
        }
    }
}
