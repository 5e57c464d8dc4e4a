
void fig2(int mt_to_id[], int id_to_mt[], int nelt)
{
    int miel, iel;
    for (miel = 0; miel < nelt; miel++) {
        iel = mt_to_id[miel];
        id_to_mt[iel] = miel;
    }
}
