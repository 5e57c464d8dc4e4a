
void blocked_counter_fill(int data[], int pos[], int blk[][4], int n)
{
    int i, j, count;
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
        for (j = 0; j < 4; j++) {
            if (pos[i] >= 0) {
                blk[pos[i]][j] = i + j;
            }
        }
    }
}
