//! Input generation: the paper's §5 world, cut into the benchmark's
//! 50-update batches and its two query mixes. Everything is drawn from
//! the seed before any timer starts.

use crate::BATCH;
use mobidx_workload::{paper, MorQuery1D, Motion1D, Simulator1D, WorkloadConfig};
use std::collections::VecDeque;

/// The paper's query mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// ≈1 % selectivity (`YQMAX = 10`, `TW = 20`).
    Small,
    /// ≈10 % selectivity (`YQMAX = 150`, `TW = 60`).
    Large,
}

/// A seeded source of update batches and queries.
#[derive(Debug)]
pub struct Gen {
    sim: Simulator1D,
    pending: VecDeque<Motion1D>,
}

impl Gen {
    /// The paper's world (terrain 1000, speeds in [0.16, 1.66], 200
    /// random motion updates per instant plus border reflections) with
    /// `n` objects.
    #[must_use]
    pub fn new(n: usize, seed: u64) -> Gen {
        Gen {
            sim: Simulator1D::new(WorkloadConfig {
                n,
                seed,
                ..WorkloadConfig::default()
            }),
            pending: VecDeque::new(),
        }
    }

    /// The population at `t = 0` (object `i` has id `i`).
    #[must_use]
    pub fn initial(&self) -> Vec<Motion1D> {
        self.sim.objects().to_vec()
    }

    /// The next [`BATCH`] motion updates, in the order the world issues
    /// them (a batch may span two instants).
    pub fn batch(&mut self) -> Vec<Motion1D> {
        while self.pending.len() < BATCH {
            self.pending
                .extend(self.sim.step().into_iter().map(|u| u.new));
        }
        self.pending.drain(..BATCH).collect()
    }

    /// `k` consecutive batches.
    pub fn batches(&mut self, k: usize) -> Vec<Vec<Motion1D>> {
        (0..k).map(|_| self.batch()).collect()
    }

    /// A query of `mix` starting at the world's current time.
    pub fn query(&mut self, mix: Mix) -> MorQuery1D {
        match mix {
            Mix::Small => self.sim.gen_query(paper::YQMAX_SMALL, paper::TW_SMALL),
            Mix::Large => self.sim.gen_query(paper::YQMAX_LARGE, paper::TW_LARGE),
        }
    }

    /// `k` queries of `mix`.
    pub fn queries(&mut self, mix: Mix, k: usize) -> Vec<MorQuery1D> {
        (0..k).map(|_| self.query(mix)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let mut a = Gen::new(500, 9);
        let mut b = Gen::new(500, 9);
        assert_eq!(a.initial(), b.initial());
        assert_eq!(a.batches(5), b.batches(5));
        assert_eq!(a.queries(Mix::Large, 5), b.queries(Mix::Large, 5));
        let mut c = Gen::new(500, 10);
        assert_ne!(a.batches(5), c.batches(5));
    }
}
