//! Microbenchmarks of the answer-ordering helpers on the snapshot read
//! path, at a small-mix leg (500 ids), a large-mix leg (5k) and a
//! whole large-mix answer (50k):
//!
//! * **sort_dedup_ids** — one unordered leg answer into the sorted,
//!   deduplicated contract, next to the `sort_unstable` + `dedup` it
//!   replaced. `dense` ids are drawn from `0..20n` (object numbers, the
//!   radix path); `full` ids span the whole `u64` range (the fallback).
//! * **merge_sorted_ids** — two sorted per-shard legs of about `n/2`
//!   ids each, interleaved the way a hash shard function splits them.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mobidx_core::{merge_sorted_ids, sort_dedup_ids};

const SIZES: [usize; 3] = [500, 5_000, 50_000];

/// Inputs per shape, cycled through so the branch predictor cannot
/// learn one input's comparison sequence across iterations.
const INPUTS: u64 = 16;

/// `n` pseudo-random ids in hash order (splitmix64 from `seed`);
/// `dense` keeps them in `0..20n`.
fn ids(n: usize, dense: bool, seed: u64) -> Vec<u64> {
    let mut z = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ n as u64;
    (0..n)
        .map(|_| {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^= x >> 31;
            if dense {
                x % (20 * n as u64)
            } else {
                x
            }
        })
        .collect()
}

/// Every (size, shape name, dense?) combination.
fn shapes() -> impl Iterator<Item = (usize, &'static str, bool)> {
    SIZES
        .into_iter()
        .flat_map(|n| [(n, "dense", true), (n, "full", false)])
}

fn bench_sort_dedup(c: &mut Criterion) {
    let mut group = c.benchmark_group("ids/sort_dedup");
    for (n, shape, dense) in shapes() {
        let inputs: Vec<Vec<u64>> = (0..INPUTS).map(|s| ids(n, dense, s)).collect();
        let mut next = inputs.iter().cycle();
        group
            .sample_size(200)
            .bench_function(format!("sort_dedup_ids/{shape}/n={n}"), |b| {
                b.iter_batched(
                    || next.next().expect("cycle").clone(),
                    |mut v| {
                        sort_dedup_ids(&mut v);
                        v
                    },
                    BatchSize::SmallInput,
                );
            });
        group
            .sample_size(200)
            .bench_function(format!("sort_unstable+dedup/{shape}/n={n}"), |b| {
                b.iter_batched(
                    || next.next().expect("cycle").clone(),
                    |mut v| {
                        v.sort_unstable();
                        v.dedup();
                        v
                    },
                    BatchSize::SmallInput,
                );
            });
    }
    group.finish();
}

fn bench_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("ids/merge");
    for (n, shape, dense) in shapes() {
        let inputs: Vec<Vec<Vec<u64>>> = (0..INPUTS)
            .map(|s| {
                let mut legs = vec![Vec::new(); 2];
                for id in ids(n, dense, s) {
                    legs[usize::from(id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 63 == 1)].push(id);
                }
                for leg in &mut legs {
                    leg.sort_unstable();
                    leg.dedup();
                }
                legs
            })
            .collect();
        let mut next = inputs.iter().cycle();
        group
            .sample_size(200)
            .bench_function(format!("merge_sorted_ids/{shape}/n={n}"), |b| {
                b.iter(|| merge_sorted_ids(next.next().expect("cycle")));
            });
    }
    group.finish();
}

criterion_group!(benches, bench_sort_dedup, bench_merge);
criterion_main!(benches);
