
void fig7(int action[], int mt_to_id_old[], int front[], int tree[],
          int num_refine, int nelttemp, int ntemp)
{
    int index, miel, iel, nelt, i;
    for (index = 0; index < num_refine; index++) {
        miel = action[index];
        iel = mt_to_id_old[miel];
        nelt = nelttemp + (front[miel] - 1) * 7;
        for (i = 0; i < 7; i++) {
            tree[nelt + i] = ntemp + ((i + 1) % 8);
        }
    }
}
