void share7(int shr[], int offa[], int offb[], int srca[], int srcb[], int sa, int sb, int n)
{
    int i, j, l;
    for (i = 0; i < n; i++) { offa[i] = i * sa; }
    for (i = 0; i < n; i++) { shr[offa[i]] = srca[i] + 9; }
    for (i = 0; i < n; i++) { offb[i] = i * sb + 3 * n + 1; }
    for (i = 0; i < n; i++) { shr[offb[i]] = shr[offb[i]] + srcb[i] + 6; }
}
