//! K-way merge of per-shard answers.
//!
//! Each shard returns its ids sorted and deduplicated (the [`Index1D`]
//! query contract); the facade merges the lists back into one sorted,
//! deduplicated answer — the same contract a single index would have
//! produced, so callers cannot tell a sharded database from a plain one.
//! The merge lives in `mobidx-core` (speed-banded indexes merge their
//! per-band answers with it too) and is re-exported here.
//!
//! [`Index1D`]: mobidx_core::Index1D

pub use mobidx_core::merge_sorted_ids;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_disjoint_lists() {
        let lists = vec![vec![1, 4, 9], vec![2, 3], vec![], vec![5]];
        assert_eq!(merge_sorted_ids(&lists), vec![1, 2, 3, 4, 5, 9]);
    }

    #[test]
    fn collapses_cross_list_duplicates() {
        let lists = vec![vec![1, 2, 7], vec![2, 7, 8], vec![7]];
        assert_eq!(merge_sorted_ids(&lists), vec![1, 2, 7, 8]);
    }

    #[test]
    fn degenerate_shapes() {
        assert!(merge_sorted_ids(&[]).is_empty());
        assert!(merge_sorted_ids(&[vec![], vec![]]).is_empty());
        assert_eq!(merge_sorted_ids(&[vec![3, 5]]), vec![3, 5]);
    }

    #[test]
    fn matches_sort_dedup_oracle() {
        // Deterministic pseudo-random split of 0..400 into 5 lists with
        // some overlap.
        let mut lists = vec![Vec::new(); 5];
        let mut z: u64 = 0xDEAD_BEEF;
        let mut all = Vec::new();
        for id in 0..400u64 {
            z = z.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let a = (z >> 33) as usize % 5;
            let b = (z >> 13) as usize % 5;
            lists[a].push(id);
            if a != b && z % 3 == 0 {
                lists[b].push(id); // overlap
            }
            all.push(id);
        }
        let merged = merge_sorted_ids(&lists);
        assert_eq!(merged, all);
    }
}
