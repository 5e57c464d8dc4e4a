void fuzz1(int goffa[], int gdata[], int dszb[], int dptrb[], int doutb[], int dinpb[], int n)
{
    int i, j, l;
    for (i = 0; i < n; i++) { goffa[i] = i * 2 + 0; }
    for (i = 0; i < n; i++) {
        if (i % 2 == 0) { gdata[goffa[i]] = i; }
    }
    for (i = 0; i < n; i++) { dszb[i] = i % 4; }
    dptrb[0] = 0;
    for (i = 1; i < n + 1; i++) { dptrb[i] = dptrb[i-1] + dszb[i-1]; }
    for (i = 0; i < n; i++) {
        for (j = dptrb[i]; j < dptrb[i+1]; j++) {
            for (l = 0; l < 3; l++) {
                doutb[j * 3 + l] = dinpb[j * 3 + l] + 1;
            }
        }
    }
}
