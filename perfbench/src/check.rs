//! The output check: sampled query answers against the brute-force
//! oracle over the population at each answer's snapshot epoch.
//!
//! With one writer every `apply` publishes exactly one epoch, and the
//! initial load is the first apply, so epoch `e` is the load plus the
//! first `e − 1` update batches. The oracle replays the recorded batches
//! after the run, so checking costs no measured time.

use mobidx_workload::{brute_force_1d, MorQuery1D, Motion1D};

/// One sampled answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// The query.
    pub q: MorQuery1D,
    /// The snapshot epoch that answered it.
    pub epoch: u64,
    /// The answer (sorted ids).
    pub ids: Vec<u64>,
}

/// Checks every sample against the oracle. `initial[i]` must have id
/// `i`; `batches` are the update batches in the order they were applied.
/// Returns one line per wrong answer.
#[must_use]
pub fn verify(initial: &[Motion1D], batches: &[Vec<Motion1D>], samples: &[Sample]) -> Vec<String> {
    let mut order: Vec<&Sample> = samples.iter().collect();
    order.sort_by_key(|s| s.epoch);
    let mut population = initial.to_vec();
    let mut applied = 0usize;
    let mut wrong = Vec::new();
    for s in order {
        let Some(replay) = s.epoch.checked_sub(1).map(|e| e as usize) else {
            wrong.push(format!(
                "answer from epoch 0 (before the load) for {:?}",
                s.q
            ));
            continue;
        };
        if replay > batches.len() {
            wrong.push(format!(
                "answer from epoch {} but only {} batches were applied",
                s.epoch,
                batches.len()
            ));
            continue;
        }
        for batch in &batches[applied..replay] {
            for m in batch {
                population[m.id as usize] = *m;
            }
        }
        applied = replay;
        let want = brute_force_1d(&population, &s.q);
        if want != s.ids {
            wrong.push(format!(
                "epoch {} query {:?}: {} ids, oracle has {}",
                s.epoch,
                s.q,
                s.ids.len(),
                want.len()
            ));
        }
    }
    wrong
}

/// Keeps every `every`-th answer for the check.
#[derive(Debug)]
pub struct Sampler {
    every: u64,
    seen: u64,
    /// The samples kept.
    pub kept: Vec<Sample>,
}

impl Sampler {
    /// Keeps answers `0, every, 2·every, …`.
    #[must_use]
    pub fn new(every: u64) -> Sampler {
        Sampler {
            every: every.max(1),
            seen: 0,
            kept: Vec::new(),
        }
    }

    /// Offers one answer; `ids` is only materialised when kept.
    pub fn offer(&mut self, q: &MorQuery1D, epoch: u64, ids: impl FnOnce() -> Vec<u64>) {
        if self.seen.is_multiple_of(self.every) {
            self.kept.push(Sample {
                q: *q,
                epoch,
                ids: ids(),
            });
        }
        self.seen += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Gen, Mix};

    #[test]
    fn replays_batches_up_to_each_epoch() {
        let mut g = Gen::new(400, 3);
        let initial = g.initial();
        let batches = g.batches(6);
        let q = g.query(Mix::Large);
        let mut population = initial.clone();
        let mut samples = vec![Sample {
            q,
            epoch: 1,
            ids: brute_force_1d(&initial, &q),
        }];
        for (i, b) in batches.iter().enumerate() {
            for m in b {
                population[m.id as usize] = *m;
            }
            samples.push(Sample {
                q,
                epoch: i as u64 + 2,
                ids: brute_force_1d(&population, &q),
            });
        }
        assert!(verify(&initial, &batches, &samples).is_empty());
        // An answer stamped with the wrong epoch is caught as soon as
        // the batches in between changed it.
        let mut shifted = samples.clone();
        for s in &mut shifted {
            s.epoch = 1;
        }
        let changed = samples.iter().filter(|s| s.ids != samples[0].ids).count();
        assert_eq!(verify(&initial, &batches, &shifted).len(), changed);
    }
}
