
void is_bucket(int key_buff[], int bucket_ptrs[], int key_buff2[],
               int num_buckets)
{
    int i, k;
    for (i = 0; i < num_buckets; i++) {
        for (k = bucket_ptrs[i]; k < bucket_ptrs[i+1]; k++) {
            key_buff2[k] = key_buff[k] * 2;
        }
    }
}
