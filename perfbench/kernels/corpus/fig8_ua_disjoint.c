
void fig8(int mt_to_id_old[], int mt_to_id[], int front[], int ich[],
          int ref_front_id[], int nelt)
{
    int miel, iel, ntemp, mielnew;
    for (miel = 0; miel < nelt; miel++) {
        iel = mt_to_id_old[miel];
        if (ich[iel] == 4) {
            ntemp = (front[miel] - 1) * 7;
            mielnew = miel + ntemp;
        } else {
            ntemp = front[miel] * 7;
            mielnew = miel + ntemp;
        }
        mt_to_id[mielnew] = iel;
        ref_front_id[iel] = nelt + ntemp;
    }
}
