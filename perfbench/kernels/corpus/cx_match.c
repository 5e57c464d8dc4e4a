
void cx_match(int cmatch[], int rmatch[], int m)
{
    int i;
    for (i = 0; i < m; i++) {
        if (cmatch[i] >= 0) {
            rmatch[cmatch[i]] = i;
        }
    }
}
