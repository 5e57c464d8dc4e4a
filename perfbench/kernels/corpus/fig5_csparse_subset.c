
void fig5(int jmatch[], int imatch[], int m)
{
    int i;
    for (i = 0; i < m; i++) {
        if (jmatch[i] >= 0) {
            imatch[jmatch[i]] = i;
        }
    }
}
