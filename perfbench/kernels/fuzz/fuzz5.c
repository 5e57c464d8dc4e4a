void fuzz5(int poffa[], int pdata[], int dszb[], int dptrb[], int doutb[], int dinpb[], int offc[], int datac[], int ma, int n)
{
    int i, j, l;
    for (i = 0; i < n; i++) { poffa[i] = i * ma + 1; }
    for (i = 0; i < n; i++) { pdata[poffa[i]] = i; }
    for (i = 0; i < n; i++) { dszb[i] = i % 2; }
    dptrb[0] = 0;
    for (i = 1; i < n + 1; i++) { dptrb[i] = dptrb[i-1] + dszb[i-1]; }
    for (i = 0; i < n; i++) {
        for (j = dptrb[i]; j < dptrb[i+1]; j++) {
            for (l = 0; l < 3; l++) {
                doutb[j * 3 + l] = dinpb[j * 3 + l] + 1;
            }
        }
    }
    for (i = 0; i < n; i++) { offc[i] = i * 0 + 1; }
    for (i = 0; i < n; i++) { datac[offc[i]] = i; }
}
