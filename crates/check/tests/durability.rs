//! Crash-matrix recovery tests for the durable B+-tree.
//!
//! A fixed, seeded op script (inserts, removes, and a commit every few
//! ops) is replayed against a fresh durable store once per crash
//! point: the store is killed at the `k`-th journal append for *every*
//! `k` inside the script's write budget, and — in a second sweep — at
//! the `k`-th page access. After each crash the directory is reopened
//! fault-free and the recovered tree must be exactly the last sealed
//! commit window: uncommitted work forgotten, committed work intact.
//! A third sweep replays the script under seeded torn-write plans
//! (partial frames physically land) and checks the same contract.

use mobidx_bptree::{BPlusTree, TreeConfig};
use mobidx_check::SplitMix;
use mobidx_pager::{DurableFaultStore, FaultPlan, FileBackend, FsyncPolicy};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Ops in the script. Small enough that a full crash-point sweep
/// stays fast, large enough for several multi-page commit windows.
const OPS: usize = 48;
/// A commit window seals every this-many ops.
const COMMIT_EVERY: usize = 7;
/// Key domain (duplicate-prone, like the harness's bptree runs).
const KEYS: u64 = 32;
/// RNG seed for the script — the same for every crash point, so the
/// only varying input across the matrix is where the store dies.
const SCRIPT_SEED: u64 = 11;

fn small_cfg() -> TreeConfig {
    TreeConfig {
        leaf_cap: 4,
        branch_cap: 4,
        buffer_pages: 4,
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("mobidx-check-matrix-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// What one scripted run left behind: the last sealed window's
/// contents, the op at which the store died (`None` = ran clean), the
/// total journal records the run appended, and the physical page I/Os
/// (miss reads + write-backs) it performed.
struct ScriptOutcome {
    committed: BTreeSet<(u64, u64)>,
    crashed_at: Option<usize>,
    wal_records: u64,
    page_ios: u64,
}

/// Replays the script on a fresh store in `dir` under the given fault
/// plans. The first surfaced fault ends the run — that is the crash
/// the sweep then recovers from.
fn run_script(dir: &Path, page_plan: FaultPlan, wal_plan: FaultPlan) -> ScriptOutcome {
    let (backend, image) =
        DurableFaultStore::open(dir, FsyncPolicy::Never, page_plan, wal_plan).expect("open dir");
    let mut committed: BTreeSet<(u64, u64)> = BTreeSet::new();
    let Some(mut tree) = BPlusTree::open_durable(small_cfg(), Box::new(backend), &image) else {
        // The plan killed the store inside the very first allocation.
        return ScriptOutcome {
            committed,
            crashed_at: Some(0),
            wal_records: 0,
            page_ios: 0,
        };
    };
    let mut rng = SplitMix::new(SCRIPT_SEED);
    let mut pending: BTreeSet<(u64, u64)> = BTreeSet::new();
    let mut next_val = 0u64;
    let mut crashed_at = None;
    for op in 0..OPS {
        let crashed = if rng.below(3) < 2 || pending.is_empty() {
            let key = rng.below(KEYS);
            let val = next_val;
            next_val += 1;
            match tree.try_insert(key, val) {
                Ok(()) => {
                    pending.insert((key, val));
                    false
                }
                Err(_) => true,
            }
        } else {
            let n = rng.below(pending.len() as u64) as usize;
            let &(key, val) = pending.iter().nth(n).expect("indexed entry");
            match tree.try_remove(key, val) {
                Ok(removed) => {
                    assert!(removed, "oracle-present pair absent on remove");
                    pending.remove(&(key, val));
                    false
                }
                Err(_) => true,
            }
        };
        if crashed {
            crashed_at = Some(op);
            break;
        }
        if op % COMMIT_EVERY == COMMIT_EVERY - 1 {
            match tree.try_commit() {
                Ok(()) => committed = pending.clone(),
                Err(_) => {
                    crashed_at = Some(op);
                    break;
                }
            }
        }
    }
    let stats = tree.stats();
    ScriptOutcome {
        committed,
        crashed_at,
        wal_records: stats.wal_records(),
        page_ios: stats.reads() + stats.writes(),
    }
}

/// Reopens `dir` fault-free and returns the recovered tree's full
/// contents, sorted.
fn recovered_contents(dir: &Path) -> Vec<(u64, u64)> {
    let (backend, image) = FileBackend::open(dir, FsyncPolicy::Never).expect("reopen dir");
    let mut tree =
        BPlusTree::open_durable(small_cfg(), Box::new(backend), &image).expect("image decodes");
    let mut v = tree
        .try_range(0, KEYS - 1)
        .expect("FileBackend never faults");
    v.sort_unstable();
    v
}

fn assert_recovers_committed(dir: &Path, outcome: &ScriptOutcome, what: &str) {
    let got = recovered_contents(dir);
    let want: Vec<(u64, u64)> = outcome.committed.iter().copied().collect();
    assert_eq!(
        got, want,
        "{what}: recovered contents differ from the last sealed window \
         (crashed_at={:?})",
        outcome.crashed_at
    );
}

/// The clean script's I/O budgets: journal records appended and
/// physical page I/Os performed by a fault-free run. The crash sweeps
/// cover every index in them. `tag` names the caller's own directory,
/// so sweeps running in parallel never wipe each other's store.
fn clean_budgets(tag: &str) -> (u64, u64) {
    let dir = tmp_dir(&format!("budget-{tag}"));
    let outcome = run_script(&dir, FaultPlan::none(0), FaultPlan::none(0));
    assert_eq!(outcome.crashed_at, None, "clean run must not crash");
    assert!(
        outcome.wal_records > OPS as u64 / COMMIT_EVERY as u64,
        "windows journal pages, not just commit records"
    );
    assert_recovers_committed(&dir, &outcome, "clean run");
    std::fs::remove_dir_all(&dir).unwrap();
    (outcome.wal_records, outcome.page_ios)
}

/// Crash at every journal-append index the script can reach:
/// `crash_after_writes(k)` serves `k` appends and kills the next, so
/// k = 0 .. budget dies mid-commit-window at every append the clean
/// run performs, and k = budget, budget+1 must run clean.
#[test]
fn crash_at_every_wal_append_recovers_last_committed_window() {
    let (budget, _) = clean_budgets("wal");
    let mut crash_ops = BTreeSet::new();
    for k in 0..budget + 2 {
        let dir = tmp_dir(&format!("wal-{k}"));
        let outcome = run_script(
            &dir,
            FaultPlan::none(7),
            FaultPlan::crash_after_writes(7, k),
        );
        if k < budget {
            let at = outcome
                .crashed_at
                .unwrap_or_else(|| panic!("append {} of {budget} did not crash the run", k + 1));
            crash_ops.insert(at);
        } else {
            assert_eq!(
                outcome.crashed_at, None,
                "crash point {k} is past the write budget {budget}"
            );
        }
        assert_recovers_committed(&dir, &outcome, &format!("wal crash after {k} appends"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
    assert!(
        crash_ops.len() > 3,
        "the sweep must hit crashes inside several distinct windows, got {crash_ops:?}"
    );
}

/// Crash at every physical page-I/O index: the store dies on a miss
/// read or write-back (before the window ever reaches the log)
/// instead of mid-append.
#[test]
fn crash_at_every_page_io_recovers_last_committed_window() {
    let (_, budget) = clean_budgets("page");
    assert!(budget > 4, "script too small to exercise page I/O crashes");
    let mut crashed = 0u64;
    for k in 0..budget + 2 {
        let dir = tmp_dir(&format!("page-{k}"));
        let outcome = run_script(&dir, FaultPlan::crash_after(13, k), FaultPlan::none(13));
        if outcome.crashed_at.is_some() {
            crashed += 1;
        }
        assert_recovers_committed(&dir, &outcome, &format!("page crash after {k} I/Os"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
    assert!(
        crashed >= budget,
        "page-I/O sweep crashed only {crashed} of {budget} in-budget runs"
    );
}

/// Seeded torn-write plans: a prefix of some journal frame physically
/// lands before the store dies, and recovery must discard exactly the
/// torn tail.
#[test]
fn torn_wal_appends_recover_last_committed_window_across_seeds() {
    let mut crashed = 0u32;
    for seed in 0..24 {
        let dir = tmp_dir(&format!("torn-{seed}"));
        let torn_plan = FaultPlan {
            torn_per_mille: 120,
            ..FaultPlan::none(seed)
        };
        let outcome = run_script(&dir, FaultPlan::none(seed), torn_plan);
        if outcome.crashed_at.is_some() {
            crashed += 1;
        }
        assert_recovers_committed(&dir, &outcome, &format!("torn plan seed {seed}"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
    assert!(crashed > 8, "torn sweep crashed only {crashed} of 24 runs");
}
