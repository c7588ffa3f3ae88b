//! The traced run's per-layer breakdown.
//!
//! The benchmark's own code wraps each call into a layer's public
//! function in an [`OpenSpan`] (name, start, end, parent; one `req` id
//! per request). The database does its per-shard work on its own
//! threads, out of reach of a caller's span, so the per-shard layer
//! times come from a [`Replica`]: one standalone [`DualBPlusIndex`] per
//! shard, fed the same `IdHashShard` routing and the same batches, that
//! repeats each worker's sequence (`batch_update` → `commit_group` →
//! `freeze`) and answers each query leg with `FrozenIndex1D::search`.
//! The routing and the op order are deterministic, so each replica's
//! tree layout matches its live shard's.
//!
//! Spans are kept in memory and written at the end through
//! [`mobidx_obs::json::chrome_trace`] (loadable by Perfetto).

use crate::{median, percentile, Metric, LAYER_METRICS, SHARDS};
use mobidx_core::method::dual_bplus::{DualBPlusConfig, DualBPlusIndex};
use mobidx_core::{FrozenIndex1D, FrozenReadStats, Index1D, IoTotals};
use mobidx_obs::{OpenSpan, Span};
use mobidx_pager::{FileBackend, FsyncPolicy};
use mobidx_serve::{IdHashShard, ShardFn};
use mobidx_workload::{MorQuery1D, Motion1D};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Request trees kept for the trace file; metrics use every request.
const TRACE_TREES: usize = 4096;

/// The in-memory span store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_req: AtomicU64,
    trees: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_req: AtomicU64::new(0),
            trees: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Opens the root span of one request on lane `lane`.
    #[must_use]
    pub fn root(&self, name: &str, lane: u64, lane_name: &str) -> OpenSpan {
        let mut root = OpenSpan::begin(name, self.epoch);
        root.set_attr("req", self.next_req.fetch_add(1, Ordering::Relaxed));
        root.set_attr("lane", lane);
        root.set_attr("lane_name", lane_name);
        root
    }

    /// Runs `f` inside a child span of `parent`; returns its result and
    /// duration in nanoseconds.
    pub fn child<T>(
        &self,
        parent: &mut OpenSpan,
        name: impl Into<String>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let span = OpenSpan::begin(name, self.epoch);
        let r = f();
        let span = span.finish();
        let nanos = span.duration_nanos as f64;
        parent.push(span);
        (r, nanos)
    }

    /// Closes a request tree and keeps it for the trace file.
    pub fn keep(&self, root: OpenSpan) {
        let span = root.finish();
        let mut trees = self.trees.lock().expect("trace store");
        if trees.len() < TRACE_TREES {
            trees.push(span);
        }
    }

    /// Writes the kept trees as a Chrome trace.
    ///
    /// # Errors
    /// Filesystem errors.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let trees = self.trees.lock().expect("trace store");
        std::fs::write(path, mobidx_obs::json::chrome_trace(trees.iter()).render())
    }
}

/// One index per shard, kept in step with the live database.
pub struct Replica {
    shards: Vec<DualBPlusIndex>,
    /// Current motion of every object (id = index).
    table: Vec<Motion1D>,
    views: Vec<Arc<dyn FrozenIndex1D>>,
}

/// Per-shard times of one replica apply, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardTimes {
    /// `batch_update`.
    pub batch_update: f64,
    /// `commit_group`.
    pub commit: f64,
    /// `freeze`.
    pub freeze: f64,
}

impl Replica {
    /// Builds the replica of a freshly loaded database holding `initial`
    /// (`initial[i]` has id `i`). With `durable`, every store is armed
    /// with a [`FileBackend`] under `durable/s<shard>/store<k>` first.
    ///
    /// # Errors
    /// Store directories that cannot be opened, or a rejected commit.
    pub fn new(initial: &[Motion1D], durable: Option<&Path>) -> Result<Replica, String> {
        let mut shards = Vec::with_capacity(SHARDS);
        for s in 0..SHARDS {
            let mut index = DualBPlusIndex::new(DualBPlusConfig::default());
            if let Some(root) = durable {
                arm(&mut index, &root.join(format!("s{s}")))?;
            }
            shards.push(index);
        }
        let mut replica = Replica {
            shards,
            table: initial.to_vec(),
            views: Vec::new(),
        };
        let mut inserts: Vec<Vec<Motion1D>> = vec![Vec::new(); SHARDS];
        for m in initial {
            inserts[IdHashShard.shard_of(m, SHARDS)].push(*m);
        }
        for (index, mut ins) in replica.shards.iter_mut().zip(inserts) {
            mobidx_core::sort_by_dual_locality(&mut ins);
            index.batch_update(&[], &ins);
            index
                .commit_group()
                .map_err(|(store, e)| format!("{store}: {e}"))?;
            replica
                .views
                .push(Arc::from(index.freeze().ok_or("dual-B+ must freeze")?));
        }
        Ok(replica)
    }

    /// Applies `batches` as one group per shard, the way a worker
    /// applies the ops it drained: net per object, sort by dual
    /// locality, `batch_update`, `commit_group`, `freeze`. Each step of
    /// each shard is a child span of `parent`.
    ///
    /// # Errors
    /// A rejected commit window or a removal that missed.
    pub fn apply(
        &mut self,
        batches: &[Vec<Motion1D>],
        tracer: &Tracer,
        parent: &mut OpenSpan,
    ) -> Result<Vec<ShardTimes>, String> {
        // Per shard: id → (record before the group, record after it).
        let mut net: Vec<HashMap<u64, (Motion1D, Motion1D)>> = vec![HashMap::new(); SHARDS];
        for m in batches.iter().flatten() {
            let old = self.table[m.id as usize];
            net[IdHashShard.shard_of(m, SHARDS)]
                .entry(m.id)
                .or_insert((old, *m))
                .1 = *m;
            self.table[m.id as usize] = *m;
        }
        let mut times = Vec::new();
        for (s, group) in net.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let (mut removes, mut inserts): (Vec<Motion1D>, Vec<Motion1D>) =
                group.into_values().unzip();
            mobidx_core::sort_by_dual_locality(&mut removes);
            mobidx_core::sort_by_dual_locality(&mut inserts);
            let index = &mut self.shards[s];
            let mut t = ShardTimes::default();
            let (removed, ns) = tracer.child(parent, format!("s{s}/core.batch_update"), || {
                index.batch_update(&removes, &inserts)
            });
            t.batch_update = ns;
            if removed != removes.len() {
                return Err(format!("replica shard {s} lost objects"));
            }
            let (committed, ns) = tracer.child(parent, format!("s{s}/core.commit_group"), || {
                index.commit_group()
            });
            t.commit = ns;
            committed.map_err(|(store, e)| format!("replica {store}: {e}"))?;
            let (view, ns) = tracer.child(parent, format!("s{s}/core.freeze"), || index.freeze());
            t.freeze = ns;
            self.views[s] = Arc::from(view.ok_or("dual-B+ must freeze")?);
            times.push(t);
        }
        Ok(times)
    }

    /// The current frozen view of every shard.
    #[must_use]
    pub fn views(&self) -> Vec<Arc<dyn FrozenIndex1D>> {
        self.views.clone()
    }
}

/// Arms every store of `index` with a fresh [`FileBackend`] under
/// `root/store<k>` (`FsyncPolicy::OnCommit`); returns the directories.
///
/// # Errors
/// A directory that cannot be opened or already holds a store.
pub fn arm(index: &mut DualBPlusIndex, root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut dirs = Vec::new();
    let mut failure = None;
    index.set_backends(&mut || {
        let dir = root.join(format!("store{}", dirs.len()));
        let opened = FileBackend::open(&dir, FsyncPolicy::OnCommit);
        dirs.push(dir);
        match opened {
            Ok((backend, image)) => {
                if !image.is_empty() {
                    failure.get_or_insert_with(|| "store directory was not fresh".to_owned());
                }
                Box::new(backend)
            }
            Err(e) => {
                failure.get_or_insert_with(|| e.to_string());
                Box::new(mobidx_pager::MemBackend)
            }
        }
    });
    failure.map_or(Ok(dirs), Err)
}

/// Answers `q` leg by leg on `views` (one child span per leg), then
/// merges the legs with the serving tier's k-way merge.
pub fn traced_legs(
    views: &[Arc<dyn FrozenIndex1D>],
    q: &MorQuery1D,
    tracer: &Tracer,
    parent: &mut OpenSpan,
    acc: &mut LayerSamples,
) -> Vec<u64> {
    let mut lists = Vec::with_capacity(views.len());
    let mut slowest = 0f64;
    let mut stats = FrozenReadStats::default();
    for (s, view) in views.iter().enumerate() {
        let mut buf = Vec::new();
        let (st, ns) = tracer.child(parent, format!("s{s}/core.frozen_search"), || {
            view.search(q, &mut buf)
        });
        acc.frozen_search_us.push(ns / 1e3);
        slowest = slowest.max(ns);
        stats = stats.merge(st);
        lists.push(buf);
    }
    let (merged, merge_ns) = tracer.child(parent, "serve.merge", || {
        mobidx_serve::merge::merge_sorted_ids(&lists)
    });
    acc.merge_us.push(merge_ns / 1e3);
    acc.blocking_read_ns.push(slowest + merge_ns);
    acc.candidates += stats.candidates;
    acc.pages += stats.pages;
    acc.results += merged.len() as u64;
    acc.queries += 1;
    merged
}

/// Raw samples of the traced window, merged across threads.
#[derive(Debug, Clone, Default)]
pub struct LayerSamples {
    /// Time inside `ShardedDb::query`, µs.
    pub serve_query_us: Vec<f64>,
    /// Time inside `ShardedDb::apply`, ms.
    pub serve_apply_ms: Vec<f64>,
    /// Replica merge time per query, µs.
    pub merge_us: Vec<f64>,
    /// Per query: slowest leg + merge, ns (pairs with `serve_query_us`).
    pub blocking_read_ns: Vec<f64>,
    /// Per apply: slowest shard's update + commit + freeze, ns (pairs
    /// with `serve_apply_ms`).
    pub blocking_write_ns: Vec<f64>,
    /// Per leg `FrozenIndex1D::search`, µs.
    pub frozen_search_us: Vec<f64>,
    /// Per shard `batch_update`, ms.
    pub batch_update_ms: Vec<f64>,
    /// Per shard `freeze`, µs.
    pub freeze_us: Vec<f64>,
    /// Per shard `commit_group`, ms.
    pub commit_group_ms: Vec<f64>,
    /// `ServeSampler::prometheus()`, ms.
    pub scrape_ms: Vec<f64>,
    /// Σ candidates over every leg.
    pub candidates: u64,
    /// Σ merged results.
    pub results: u64,
    /// Σ frozen pages visited.
    pub pages: u64,
    /// Queries traced.
    pub queries: u64,
}

impl LayerSamples {
    /// Records one traced apply's replica times (`serve_ns` is the live
    /// apply's duration).
    pub fn record_apply(&mut self, serve_ns: f64, shards: &[ShardTimes]) {
        self.serve_apply_ms.push(serve_ns / 1e6);
        let mut slowest = 0f64;
        for t in shards {
            self.batch_update_ms.push(t.batch_update / 1e6);
            self.commit_group_ms.push(t.commit / 1e6);
            self.freeze_us.push(t.freeze / 1e3);
            slowest = slowest.max(t.batch_update + t.commit + t.freeze);
        }
        self.blocking_write_ns.push(slowest);
    }

    /// Appends another thread's samples.
    pub fn absorb(&mut self, other: LayerSamples) {
        self.serve_query_us.extend(other.serve_query_us);
        self.serve_apply_ms.extend(other.serve_apply_ms);
        self.merge_us.extend(other.merge_us);
        self.blocking_read_ns.extend(other.blocking_read_ns);
        self.blocking_write_ns.extend(other.blocking_write_ns);
        self.frozen_search_us.extend(other.frozen_search_us);
        self.batch_update_ms.extend(other.batch_update_ms);
        self.freeze_us.extend(other.freeze_us);
        self.commit_group_ms.extend(other.commit_group_ms);
        self.scrape_ms.extend(other.scrape_ms);
        self.candidates += other.candidates;
        self.results += other.results;
        self.pages += other.pages;
        self.queries += other.queries;
    }
}

/// Database counters read at a window's edges.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Summed I/O totals of every store.
    pub io: IoTotals,
    /// WAL bytes appended by every store.
    pub wal_bytes: u64,
    /// Σ `applied_ops` over shards.
    pub applied_ops: u64,
    /// Σ `applied_batches` over shards.
    pub applied_batches: u64,
    /// Read-pool legs submitted.
    pub submitted: u64,
    /// Read-pool legs stolen by the submitting thread.
    pub stolen: u64,
}

impl Counters {
    /// Reads the counters of `db`.
    ///
    /// # Errors
    /// A shard that does not answer.
    pub fn read(db: &mobidx_serve::ShardedDb<DualBPlusIndex>) -> Result<Counters, String> {
        let health = db.health();
        let mut wal_bytes = 0;
        for s in 0..db.shards() {
            wal_bytes += db
                .with_shard(s, |index| {
                    let mut bytes = 0;
                    index.for_each_stats(&mut |st| bytes += st.wal_bytes());
                    bytes
                })
                .map_err(|e| e.to_string())?;
        }
        Ok(Counters {
            io: db.io_totals().map_err(|e| e.to_string())?,
            wal_bytes,
            applied_ops: health.shards.iter().map(|s| s.applied_ops).sum(),
            applied_batches: health.shards.iter().map(|s| s.applied_batches).sum(),
            submitted: health.read_pool.submitted,
            stolen: health.read_pool.stolen,
        })
    }
}

/// The window-level quantities a traced run measures besides spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Window {
    /// Counters at the traced window's start.
    pub before: Counters,
    /// Counters at its end.
    pub after: Counters,
    /// Its length, in seconds.
    pub seconds: f64,
    /// Updates committed in it.
    pub updates: u64,
    /// `apply` calls in it.
    pub commits: u64,
    /// Sampler ticks in it.
    pub sampler_ticks: u64,
    /// Store recovery time after the run (durable workload only).
    pub recovery_s: f64,
    /// How far the open-loop generator fell behind, ms.
    pub gen_late_max_ms: f64,
    /// p50 time inside the primary call (`query` for the read
    /// workloads, `apply` for `ingest-durable`) in the untraced window,
    /// in the unit of `serve.query_p50_us` or `serve.apply_p50_ms`.
    pub untraced_p50: f64,
    /// Whether the primary call is `apply`.
    pub apply_primary: bool,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Assembles the per-layer metrics, in [`LAYER_METRICS`] order.
#[must_use]
pub fn metrics(s: &LayerSamples, w: &Window) -> Vec<Metric> {
    let d = w.after.io.delta_since(w.before.io);
    let pair_residual = |outer: &[f64], outer_scale: f64, inner_ns: &[f64], out_scale: f64| {
        let r: Vec<f64> = outer
            .iter()
            .zip(inner_ns)
            .map(|(o, i)| (o * outer_scale - i) / out_scale)
            .collect();
        median(&r)
    };
    let updates = w.updates as f64;
    let commits = w.commits as f64;
    let values = [
        median(&s.serve_query_us),
        percentile(&s.serve_query_us, 0.99),
        median(&s.serve_apply_ms),
        percentile(&s.serve_apply_ms, 0.99),
        median(&s.merge_us),
        pair_residual(&s.serve_query_us, 1e3, &s.blocking_read_ns, 1e3),
        pair_residual(&s.serve_apply_ms, 1e6, &s.blocking_write_ns, 1e6),
        ratio(
            (w.after.applied_ops - w.before.applied_ops) as f64,
            (w.after.applied_batches - w.before.applied_batches) as f64,
        ),
        ratio(
            (w.after.stolen - w.before.stolen) as f64,
            (w.after.submitted - w.before.submitted) as f64,
        ),
        median(&s.frozen_search_us),
        ratio(s.candidates as f64, s.results as f64),
        ratio(s.pages as f64, s.queries as f64),
        median(&s.batch_update_ms),
        median(&s.freeze_us),
        median(&s.commit_group_ms),
        ratio(d.ios() as f64, updates),
        d.hit_rate(),
        ratio(d.wal_fsyncs as f64, commits),
        ratio(d.wal_records as f64, commits),
        ratio((w.after.wal_bytes - w.before.wal_bytes) as f64, updates),
        w.recovery_s,
        median(&s.scrape_ms),
        ratio(w.sampler_ticks as f64, w.seconds),
        w.gen_late_max_ms,
        {
            let traced = if w.apply_primary {
                median(&s.serve_apply_ms)
            } else {
                median(&s.serve_query_us)
            };
            ratio(traced - w.untraced_p50, w.untraced_p50)
        },
    ];
    LAYER_METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect()
}
