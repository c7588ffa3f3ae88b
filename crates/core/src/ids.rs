//! Ordering result id lists: the sorted, deduplicated contract every
//! [`Index1D`](crate::Index1D) answer obeys.
//!
//! Two helpers, used by every method and by the serving tier:
//!
//! * [`sort_dedup_ids`] puts one unordered candidate list into the
//!   contract. An index leg collects ids in key order, so they arrive
//!   in hash order; ordering them is a sort over the whole answer.
//!   When the ids span a narrow range — the common case, ids are dense
//!   object numbers — an LSD radix sort does it in two or three linear
//!   passes instead of `n log n` comparisons.
//! * [`merge_sorted_ids`] combines lists already in the contract (one
//!   per shard, or one per speed band) without sorting again.

/// Bits per radix digit: 2,048 buckets, whose counters (8 KiB per
/// pass) stay in L1/L2 while a pass streams the ids.
const RADIX_BITS: u32 = 11;
const RADIX_MASK: u64 = (1 << RADIX_BITS) - 1;
const BUCKETS: usize = 1 << RADIX_BITS;

/// Lists shorter than this take `sort_unstable`: below it the radix
/// sort's fixed cost (zeroing 2,048 counters per pass, a prefix sum
/// over them, one scratch allocation) outweighs its linear passes.
///
/// `cargo bench -p mobidx-core --bench ids` with this cutoff set to 0
/// (dense ids, two passes; x86-64, 2 vCPUs; min of 200 runs): radix
/// sort-dedup vs `sort_unstable` + `dedup` is 4.2 vs 4.5 µs at 500
/// ids, 30 vs 77 µs at 5,000 and 535 vs 916 µs at 50,000. A finer sweep
/// of the same two paths puts the crossover near 450 ids (3.5 vs 3.4 µs
/// at 400, 4.4 vs 5.3 µs at 600), so a small-mix leg (≈ 500 ids) costs
/// about the same either way and every larger leg gains.
const RADIX_CUTOFF: usize = 512;

/// Sorts `ids` ascending and removes duplicates — exactly
/// `ids.sort_unstable(); ids.dedup();`, but in `O(n)` when the ids span
/// fewer than 2³³ values (LSD radix sort on `id - min`, 11-bit digits,
/// only as many passes as the span needs). Short lists and wide spans
/// fall back to `sort_unstable`.
pub fn sort_dedup_ids(ids: &mut Vec<u64>) {
    // u32 bucket counters bound the radix path's length.
    if (RADIX_CUTOFF..=u32::MAX as usize).contains(&ids.len()) {
        let (min, max) = ids
            .iter()
            .fold((u64::MAX, 0), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        let bits = u64::BITS - (max - min).leading_zeros();
        match bits.div_ceil(RADIX_BITS) {
            0 => ids.truncate(1), // every id equal
            1 => radix_sort::<1>(ids, min),
            2 => radix_sort::<2>(ids, min),
            3 => radix_sort::<3>(ids, min),
            // A span of 2³³ or more (hashed or random 64-bit ids) needs
            // up to six passes, where `sort_unstable` is as fast.
            _ => ids.sort_unstable(),
        }
    } else {
        ids.sort_unstable();
    }
    ids.dedup();
}

/// LSD radix sort of `ids` on the key `id - min`, whose significant
/// bits fit in `PASSES` digits. Passes whose digit is the same for
/// every id are skipped.
fn radix_sort<const PASSES: usize>(ids: &mut Vec<u64>, min: u64) {
    let n = ids.len();
    let digit =
        |x: u64, pass: usize| ((x - min) >> (pass as u32 * RADIX_BITS) & RADIX_MASK) as usize;
    // One read of the input fills every pass's histogram.
    let mut counts = [[0u32; BUCKETS]; PASSES];
    for &x in ids.iter() {
        for (pass, count) in counts.iter_mut().enumerate() {
            count[digit(x, pass)] += 1;
        }
    }
    let mut scratch = vec![0u64; n];
    let (mut src, mut dst) = (ids.as_mut_slice(), scratch.as_mut_slice());
    let mut in_scratch = false;
    for (pass, count) in counts.iter_mut().enumerate() {
        if count[digit(src[0], pass)] as usize == n {
            continue;
        }
        // Exclusive prefix sum: each bucket's first output slot.
        let mut next = 0;
        for c in count.iter_mut() {
            (*c, next) = (next, next + *c);
        }
        for &x in src.iter() {
            let d = digit(x, pass);
            dst[count[d] as usize] = x;
            count[d] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
        in_scratch = !in_scratch;
    }
    if in_scratch {
        *ids = scratch;
    }
}

/// Merges sorted, deduplicated id lists into one sorted, deduplicated
/// list. Duplicates *across* lists are collapsed (shard functions and
/// speed bands partition objects, so lists are normally disjoint — but
/// the merge does not rely on it).
#[must_use]
pub fn merge_sorted_ids(lists: &[Vec<u64>]) -> Vec<u64> {
    // Tournament of two-pointer merges: O(R log k) with a tight inner
    // loop, instead of a k-wide cursor scan per output element.
    let nonempty: Vec<&[u64]> = lists
        .iter()
        .filter(|l| !l.is_empty())
        .map(Vec::as_slice)
        .collect();
    if nonempty.is_empty() {
        return Vec::new();
    }
    let mut round: Vec<Vec<u64>> = nonempty
        .chunks(2)
        .map(|pair| match pair {
            [a, b] => merge_two(a, b),
            [a] => a.to_vec(),
            _ => unreachable!("chunks(2)"),
        })
        .collect();
    while round.len() > 1 {
        let mut next = Vec::with_capacity(round.len().div_ceil(2));
        let mut it = round.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => next.push(merge_two(&a, &b)),
                None => next.push(a),
            }
        }
        round = next;
    }
    round.pop().expect("one list left")
}

/// Branchless two-pointer merge of two sorted, deduplicated lists,
/// collapsing cross-list duplicates: each step emits the smaller head
/// and advances every cursor whose head it was, so the loop carries no
/// data-dependent branch for the predictor to miss on interleaved ids.
fn merge_two(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn oracle(mut ids: Vec<u64>) -> Vec<u64> {
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    fn sorted(mut ids: Vec<u64>) -> Vec<u64> {
        sort_dedup_ids(&mut ids);
        ids
    }

    #[test]
    fn sort_dedup_edge_shapes() {
        assert!(sorted(Vec::new()).is_empty());
        assert_eq!(sorted(vec![7]), vec![7]);
        // All equal, above the cutoff: zero radix passes.
        assert_eq!(sorted(vec![42; RADIX_CUTOFF * 3]), vec![42]);
        // Full u64 range, above the cutoff: the fallback.
        let wide: Vec<u64> = (0..RADIX_CUTOFF as u64 * 2)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .chain([0, u64::MAX, u64::MAX])
            .collect();
        assert_eq!(sorted(wide.clone()), oracle(wide));
        // Exactly 2^33 - 1 span (three passes) and 2^33 (the fallback).
        for top in [(1u64 << 33) - 1, 1 << 33] {
            let ids: Vec<u64> = (0..RADIX_CUTOFF as u64).rev().chain([top, 0]).collect();
            assert_eq!(sorted(ids.clone()), oracle(ids));
        }
    }

    /// Ids near `base`, spread over `span` values, `n` of them drawn
    /// from `seeds` (so a small `span` forces heavy duplication).
    fn ids_from(seeds: &[u64], base: u64, span: u64) -> Vec<u64> {
        seeds.iter().map(|s| base.wrapping_add(s % span)).collect()
    }

    proptest! {
        #[test]
        fn sort_dedup_matches_sort_unstable_dedup(
            // Sizes straddle the cutoff on both sides (and reach 0).
            seeds in proptest::collection::vec(any::<u64>(), 0..(RADIX_CUTOFF * 3)),
            shape in 0u8..6,
            offset in any::<u64>(),
        ) {
            let ids = match shape {
                // Heavy duplicates: a handful of distinct values.
                0 => ids_from(&seeds, 1_000, 7),
                // Dense object numbers from 0 (one or two passes).
                1 => ids_from(&seeds, 0, 100_000),
                // Dense ids at a large offset: the span, not the
                // magnitude, decides the passes.
                2 => ids_from(&seeds, offset | (1 << 63), 1 << 20),
                // A three-pass span.
                3 => ids_from(&seeds, offset >> 1, 1 << 33),
                // A dense cluster plus a few far outliers: most ids
                // share their high digits, but not all of them.
                4 => seeds
                    .iter()
                    .map(|s| if s % 16 == 0 { s >> 34 } else { s % 1_000 })
                    .collect(),
                // The full u64 range: takes the fallback.
                _ => seeds.clone(),
            };
            prop_assert_eq!(sorted(ids.clone()), oracle(ids));
        }

        #[test]
        fn sort_dedup_matches_at_the_cutoff(
            extra in 0usize..3,
            below in any::<bool>(),
            span in 1u64..1 << 34,
            seed in any::<u64>(),
        ) {
            let n = if below { RADIX_CUTOFF - 1 - extra } else { RADIX_CUTOFF + extra };
            let mut z = seed;
            let ids: Vec<u64> = (0..n)
                .map(|_| {
                    z = z.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                    (z >> 7) % span
                })
                .collect();
            prop_assert_eq!(sorted(ids.clone()), oracle(ids));
        }

        #[test]
        fn merge_matches_sort_dedup_oracle(
            k in prop_oneof![Just(1usize), Just(2), Just(3), Just(5)],
            raw in proptest::collection::vec((any::<u64>(), 0u8..8), 0..600),
            span in prop_oneof![Just(50u64), Just(5_000), Just(u64::MAX)],
        ) {
            // Each id lands in one list, and a second one for about a
            // quarter of them: overlapping lists, each sorted-deduped.
            let mut lists = vec![Vec::new(); k];
            let mut all = Vec::new();
            for (i, &(s, pick)) in raw.iter().enumerate() {
                let id = s % span;
                lists[i % k].push(id);
                if pick < 2 {
                    lists[(i + usize::from(pick) + 1) % k].push(id);
                }
                all.push(id);
            }
            let lists: Vec<Vec<u64>> = lists.into_iter().map(oracle).collect();
            prop_assert_eq!(merge_sorted_ids(&lists), oracle(all));
        }
    }
}
