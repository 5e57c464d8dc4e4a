void fuzz22(int sha[], int resb[], int srcb[], int keyc[], int cntc[], int n)
{
    int i, j, l;
    for (i = 0; i < n; i++) { sha[i + 1] = sha[i] + 1; }
    for (i = 0; i < n; i++) { resb[i] = srcb[i] * 3 + 0; }
    for (i = 0; i < n; i++) { keyc[i] = i % 4; }
    for (i = 0; i < n; i++) { cntc[keyc[i]] = cntc[keyc[i]] + 1; }
}
