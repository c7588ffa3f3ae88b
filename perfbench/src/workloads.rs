//! The three workloads. Each generates its inputs from the seed, sets
//! up [`Params::setup_reps`] databases (timing each, keeping the last),
//! runs its measured window, checks sampled answers against the oracle,
//! and reports either the end-to-end or the per-layer metrics.
//!
//! A traced run splits the window: the first 40 % runs untraced (the
//! baseline of `bench.trace_overhead_frac`), the replica then catches up
//! on it untimed, and the remaining 60 % runs traced. Counter deltas
//! cover the traced part only.

use crate::check::{self, Sampler};
use crate::gen::{Gen, Mix};
use crate::layers::{self, Counters, LayerSamples, Replica, Tracer, Window};
use crate::{
    median, peak_rss_mib, percentile, Metric, Outcome, Params, BATCH, E2E_METRICS, PAGE_BYTES,
    READ_THREADS, SHARDS,
};
use mobidx_core::method::dual_bplus::{DualBPlusConfig, DualBPlusIndex};
use mobidx_core::{FrozenIndex1D, QueryOutput, QueryRequest};
use mobidx_obs::OpenSpan;
use mobidx_pager::{FileBackend, FsyncPolicy};
use mobidx_serve::{Batch, IdHashShard, SamplerConfig, ServeConfig, ServeSampler, ShardedDb};
use mobidx_workload::{MorQuery1D, Motion1D};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

type Db = ShardedDb<DualBPlusIndex>;
type Views = Vec<Arc<dyn FrozenIndex1D>>;
/// The replica's latest views and the epoch they match, shared by the
/// traced writer and readers.
type Board = Mutex<(u64, Views)>;

/// `track-mixed`: one 50-update batch every 12.5 ms (the paper's 200
/// updates per instant at 20 instants/s = 4,000 updates/s).
const UPDATE_PERIOD_NS: u64 = 12_500_000;
/// `track-mixed`: small-mix queries per batch period (400 queries/s).
const QUERIES_PER_BATCH: usize = 5;
/// `track-mixed`: the writer scrapes Prometheus text once per second.
const SCRAPE_EVERY: usize = 80;
/// Warm-up batches (`track-mixed`, `ingest-durable`).
const WARM_BATCHES: usize = 80;
/// Warm-up queries (`query-scan`).
const WARM_QUERIES: usize = 200;
/// `ingest-durable`: checked queries against the final state.
const FINAL_PROBES: usize = 100;
/// Share of a traced run's window that runs untraced.
const UNTRACED_SHARE: f64 = 0.4;

fn new_db() -> Db {
    ShardedDb::new(
        ServeConfig {
            shards: SHARDS,
            read_threads: READ_THREADS,
            ..ServeConfig::default()
        },
        Box::new(IdHashShard),
        |_, _| DualBPlusIndex::new(DualBPlusConfig::default()),
    )
}

fn to_batch(motions: &[Motion1D]) -> Batch {
    let mut b = Batch::new();
    for m in motions {
        b.update(*m);
    }
    b
}

fn load(db: &Db, initial: &[Motion1D]) -> Result<(), String> {
    let mut b = Batch::new();
    for m in initial {
        b.insert(*m);
    }
    db.apply(&b).map_err(|e| format!("load: {e}"))
}

/// Runs `setup` `reps` times (dropping each database before building
/// the next) and returns the last result with the median time.
fn set_up<T>(
    reps: usize,
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..reps.max(1) {
        drop(last.take());
        let start = Instant::now();
        let t = setup(rep)?;
        times.push(start.elapsed().as_secs_f64());
        last = Some(t);
    }
    Ok((last.expect("at least one rep"), median(&times)))
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A directory removed when dropped — on success, on a failed check and
/// on unwinding — so repeated runs neither leak disk nor replay an old
/// WAL.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create(parent: &Path, tag: &str) -> Result<ScratchDir, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let dir = parent.join(format!("{tag}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The traced side of one operation: the span store and the replica
/// views it searches.
#[derive(Clone, Copy)]
struct QueryTrace<'a> {
    tracer: &'a Tracer,
    board: &'a Board,
}

/// Answers one query; a traced query also runs the replica legs and
/// cross-checks them when the replica sits at the answer's epoch.
fn query_op(
    db: &Db,
    q: &MorQuery1D,
    trace: Option<QueryTrace<'_>>,
    acc: &mut LayerSamples,
    lane: u64,
) -> Result<QueryOutput, String> {
    let Some(t) = trace else {
        return db.query(&QueryRequest::new(q)).map_err(|e| e.to_string());
    };
    let mut root = t.tracer.root("query", lane, "reader");
    let (out, ns) = t
        .tracer
        .child(&mut root, "serve.query", || db.query(&QueryRequest::new(q)));
    let out = out.map_err(|e| e.to_string())?;
    acc.serve_query_us.push(ns / 1e3);
    let (epoch, views) = t.board.lock().expect("replica board").clone();
    let merged = layers::traced_legs(&views, q, t.tracer, &mut root, acc);
    t.tracer.keep(root);
    if out.epoch == Some(epoch) && merged != out.ids {
        return Err(format!(
            "replica disagrees with the database at epoch {epoch}"
        ));
    }
    Ok(out)
}

/// Applies one batch; a traced apply also runs it on the replica and
/// publishes the replica's views for the readers.
fn apply_op(
    db: &Db,
    batch: &Batch,
    motions: &[Vec<Motion1D>],
    trace: Option<(&Tracer, &mut Replica, &Board)>,
    acc: &mut LayerSamples,
) -> Result<(), String> {
    let Some((tracer, replica, board)) = trace else {
        return db.apply(batch).map_err(|e| e.to_string());
    };
    let mut root = tracer.root("apply", 1, "writer");
    let (r, ns) = tracer.child(&mut root, "serve.apply", || db.apply(batch));
    r.map_err(|e| e.to_string())?;
    let times = replica.apply(motions, tracer, &mut root)?;
    acc.record_apply(ns, &times);
    tracer.keep(root);
    *board.lock().expect("replica board") = (db.snapshot_epoch(), replica.views());
    Ok(())
}

/// Latencies and counts of one loop.
#[derive(Debug, Default)]
struct Loop {
    /// Per-operation latency (failures as +∞); an open loop counts it
    /// from when the operation was due.
    lat: Vec<f64>,
    /// Time inside each successful call, in the unit of `lat`.
    call: Vec<f64>,
    /// From the loop's start to its last completion, seconds.
    elapsed: f64,
    /// Operations that succeeded.
    done: usize,
    failed: u64,
    notes: Vec<String>,
    /// Furthest an open loop fell behind its schedule, ms.
    late_max_ms: f64,
}

impl Loop {
    fn record(&mut self, r: Result<(), String>, lat: f64, call: f64) {
        match r {
            Ok(()) => {
                self.lat.push(lat);
                self.call.push(call);
                self.done += 1;
            }
            Err(e) => {
                self.lat.push(f64::INFINITY);
                self.failed += 1;
                self.notes.push(e);
            }
        }
    }

    fn absorb_into(self, out: &mut Outcome) {
        out.attempted += self.lat.len() as u64;
        out.failed += self.failed;
        out.notes.extend(self.notes);
    }

    fn rate(&self, per_op: f64) -> f64 {
        self.done as f64 * per_op / self.elapsed.max(1e-9)
    }
}

/// When a closed loop stops.
#[derive(Debug, Clone, Copy)]
enum Stop {
    After(Duration),
    Count(usize),
}

impl Stop {
    fn reached(self, started: Instant, done: usize) -> bool {
        match self {
            Stop::After(d) => started.elapsed() >= d,
            Stop::Count(n) => done >= n,
        }
    }
}

/// Closed-loop queries, cycling through `queries` from `*next`.
fn closed_queries(
    db: &Db,
    queries: &[MorQuery1D],
    next: &mut usize,
    stop: Stop,
    samples: &mut Sampler,
    trace: Option<QueryTrace<'_>>,
    acc: &mut LayerSamples,
) -> Loop {
    let mut lp = Loop::default();
    let started = Instant::now();
    while !stop.reached(started, lp.lat.len()) {
        let q = &queries[*next % queries.len()];
        *next += 1;
        let t = Instant::now();
        let r = query_op(db, q, trace, acc, 2);
        let lat = t.elapsed().as_secs_f64() * 1e6;
        lp.record(
            r.map(|out| samples.offer(q, out.epoch.unwrap_or(0), || out.ids)),
            lat,
            lat,
        );
    }
    lp.elapsed = started.elapsed().as_secs_f64();
    lp
}

/// Closed-loop batches from `batches[*next..]`; stops early when they
/// run out or an apply fails.
#[allow(clippy::too_many_arguments)]
fn closed_writes(
    db: &Db,
    batches: &[Batch],
    motions: &[Vec<Motion1D>],
    next: &mut usize,
    stop: Stop,
    mut trace: Option<(&Tracer, &mut Replica, &Board)>,
    acc: &mut LayerSamples,
) -> Loop {
    let mut lp = Loop::default();
    let started = Instant::now();
    while !stop.reached(started, lp.lat.len()) {
        if *next >= batches.len() {
            lp.notes
                .push(format!("ran out of pre-generated batches after {}", *next));
            break;
        }
        let i = *next;
        let t = Instant::now();
        let r = apply_op(
            db,
            &batches[i],
            &motions[i..=i],
            trace
                .as_mut()
                .map(|(tr, rep, board)| (*tr, &mut **rep, *board)),
            acc,
        );
        let failed = r.is_err();
        let lat = ms(t.elapsed());
        lp.record(r, lat, lat);
        if failed {
            break;
        }
        *next += 1;
    }
    lp.elapsed = started.elapsed().as_secs_f64();
    lp
}

/// The open-loop window of `track-mixed`: a writer thread applying
/// `batches` on a 12.5 ms schedule (scraping the sampler's Prometheus
/// text once per second) and a reader thread issuing `queries` on a
/// 2.5 ms schedule. Latency counts from when each operation was due.
#[allow(clippy::too_many_arguments)]
fn open_window(
    db: &Db,
    sampler: &ServeSampler,
    batches: &[Batch],
    motions: &[Vec<Motion1D>],
    queries: &[MorQuery1D],
    samples: &mut Sampler,
    trace: Option<(&Tracer, &mut Replica)>,
    acc: &mut LayerSamples,
) -> (Loop, Loop) {
    let (tracer, mut replica) = match trace {
        Some((t, r)) => (Some(t), Some(r)),
        None => (None, None),
    };
    let board = Mutex::new((
        db.snapshot_epoch(),
        replica.as_ref().map(|r| r.views()).unwrap_or_default(),
    ));
    let query_period_ns = UPDATE_PERIOD_NS / QUERIES_PER_BATCH as u64;
    let t0 = Instant::now() + Duration::from_millis(2);
    let (writer, reader) = std::thread::scope(|s| {
        let board = &board;
        let writer = s.spawn(move || {
            let mut lp = Loop::default();
            let mut acc = LayerSamples::default();
            let mut last = t0;
            for (i, batch) in batches.iter().enumerate() {
                let due = t0 + Duration::from_nanos(UPDATE_PERIOD_NS * i as u64);
                sleep_until(due);
                let start = Instant::now();
                lp.late_max_ms = lp.late_max_ms.max(ms(start - due));
                let r = apply_op(
                    db,
                    batch,
                    &motions[i..=i],
                    tracer
                        .zip(replica.as_deref_mut())
                        .map(|(t, r)| (t, r, board)),
                    &mut acc,
                );
                last = Instant::now();
                let failed = r.is_err();
                lp.record(r, ms(last - due), ms(last - start));
                if failed {
                    break;
                }
                if (i + 1) % SCRAPE_EVERY == 0 {
                    let t = Instant::now();
                    let text = sampler.prometheus();
                    acc.scrape_ms.push(ms(t.elapsed()));
                    std::hint::black_box(text);
                }
            }
            lp.elapsed = (last - t0).as_secs_f64();
            (lp, acc)
        });
        let reader = s.spawn(move || {
            let mut lp = Loop::default();
            let mut acc = LayerSamples::default();
            let mut last = t0;
            let trace = tracer.map(|tracer| QueryTrace { tracer, board });
            for (k, q) in queries.iter().enumerate() {
                let due = t0 + Duration::from_nanos(query_period_ns * k as u64);
                sleep_until(due);
                let start = Instant::now();
                lp.late_max_ms = lp.late_max_ms.max(ms(start - due));
                let r = query_op(db, q, trace, &mut acc, 2);
                last = Instant::now();
                lp.record(
                    r.map(|out| samples.offer(q, out.epoch.unwrap_or(0), || out.ids)),
                    (last - due).as_secs_f64() * 1e6,
                    (last - start).as_secs_f64() * 1e6,
                );
            }
            lp.elapsed = (last - t0).as_secs_f64();
            (lp, acc)
        });
        (
            writer.join().expect("writer thread"),
            reader.join().expect("reader thread"),
        )
    });
    acc.absorb(writer.1);
    acc.absorb(reader.1);
    (writer.0, reader.0)
}

/// Sets the end-to-end metrics, in [`E2E_METRICS`] order, and notes
/// each latency tail with its sample count.
fn e2e(
    out: &mut Outcome,
    setup_s: f64,
    queries: &Loop,
    updates: &Loop,
    pages: u64,
    n: usize,
    rss_mib: f64,
) {
    let values = [
        setup_s,
        median(&queries.lat),
        queries.rate(1.0),
        median(&updates.lat),
        updates.rate(BATCH as f64),
        pages as f64 * PAGE_BYTES / n as f64,
        rss_mib,
    ];
    out.metrics = E2E_METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect();
    for (name, unit, lat) in [
        ("query_p99_us", "us", &queries.lat),
        ("update_p99_ms", "ms", &updates.lat),
    ] {
        out.notes.push(format!(
            "{name} {:.3} {unit} (not gated; n={}, p90 {:.3}, p99.9 {:.3}, max {:.3})",
            percentile(lat, 0.99),
            lat.len(),
            percentile(lat, 0.9),
            percentile(lat, 0.999),
            percentile(lat, 1.0),
        ));
    }
}

/// Runs a workload body, turning an early error into a failed outcome.
fn guarded(body: impl FnOnce(&mut Outcome) -> Result<(), String>) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = body(&mut out) {
        out.fail(e);
    }
    out
}

/// Checks the sampled answers against the oracle.
fn check_samples(
    out: &mut Outcome,
    initial: &[Motion1D],
    applied: &[Vec<Motion1D>],
    samples: &Sampler,
) {
    for wrong in check::verify(initial, applied, &samples.kept) {
        out.fail(wrong);
    }
    out.notes.push(format!(
        "checked {} sampled answers against the oracle",
        samples.kept.len()
    ));
}

fn write_trace(out: &mut Outcome, p: &Params, tracer: &Tracer) {
    if let Some(path) = &p.trace_out {
        match tracer.write(path) {
            Ok(()) => out
                .notes
                .push(format!("trace written to {}", path.display())),
            Err(e) => out.fail(format!("writing {}: {e}", path.display())),
        }
    }
}

/// A replica caught up with `initial` and then `warm` batch by batch.
fn warm_replica(
    initial: &[Motion1D],
    warm: &[Vec<Motion1D>],
    durable: Option<&Path>,
    tracer: &Tracer,
) -> Result<Replica, String> {
    let mut replica = Replica::new(initial, durable)?;
    for b in warm {
        replica.apply(
            std::slice::from_ref(b),
            tracer,
            &mut OpenSpan::begin("warm", Instant::now()),
        )?;
    }
    Ok(replica)
}

/// The live tracking service (see the crate docs).
pub fn track_mixed(p: &Params) -> Outcome {
    guarded(|out| {
        let batches_in_window = (p.seconds * 1e9 / UPDATE_PERIOD_NS as f64).ceil() as usize;
        let total = WARM_BATCHES + batches_in_window;
        let mut g = Gen::new(p.n, p.seed);
        let initial = g.initial();
        let mut motions = Vec::with_capacity(total);
        let mut queries = Vec::with_capacity(total * QUERIES_PER_BATCH);
        for _ in 0..total {
            motions.push(g.batch());
            queries.extend(g.queries(Mix::Small, QUERIES_PER_BATCH));
        }
        let batches: Vec<Batch> = motions.iter().map(|m| to_batch(m)).collect();
        let warm_q = WARM_BATCHES * QUERIES_PER_BATCH;

        let (db, setup_s) = set_up(p.setup_reps, |_| {
            let db = new_db();
            load(&db, &initial)?;
            for (i, b) in batches[..WARM_BATCHES].iter().enumerate() {
                db.apply(b).map_err(|e| format!("warm-up: {e}"))?;
                for q in &queries[i * QUERIES_PER_BATCH..(i + 1) * QUERIES_PER_BATCH] {
                    db.query(&QueryRequest::new(q))
                        .map_err(|e| format!("warm-up: {e}"))?;
                }
            }
            Ok(db)
        })?;
        let mut applied = WARM_BATCHES;
        let mut samples = Sampler::new(40);
        let mut acc = LayerSamples::default();
        let (b_win, m_win, q_win) = (
            &batches[WARM_BATCHES..],
            &motions[WARM_BATCHES..],
            &queries[warm_q..],
        );
        if p.trace {
            let tracer = Tracer::default();
            let mut replica = warm_replica(&initial, &motions[..WARM_BATCHES], None, &tracer)?;
            let split = (b_win.len() as f64 * UNTRACED_SHARE) as usize;
            let q_split = split * QUERIES_PER_BATCH;
            let sampler = db.start_sampler(SamplerConfig::default());
            let mut untraced = LayerSamples::default();
            let (wa, ra) = open_window(
                &db,
                &sampler,
                &b_win[..split],
                &m_win[..split],
                &q_win[..q_split],
                &mut samples,
                None,
                &mut untraced,
            );
            applied += wa.done;
            let untraced_p50 = median(&ra.call);
            let late_a = wa.late_max_ms.max(ra.late_max_ms);
            wa.absorb_into(out);
            ra.absorb_into(out);
            replica.apply(
                &m_win[..split],
                &tracer,
                &mut OpenSpan::begin("catch-up", Instant::now()),
            )?;
            let before = Counters::read(&db)?;
            let ticks = sampler.ticks();
            let started = Instant::now();
            let (wb, rb) = open_window(
                &db,
                &sampler,
                &b_win[split..],
                &m_win[split..],
                &q_win[q_split..],
                &mut samples,
                Some((&tracer, &mut replica)),
                &mut acc,
            );
            let seconds = started.elapsed().as_secs_f64();
            let window = Window {
                before,
                after: Counters::read(&db)?,
                seconds,
                updates: (wb.done * BATCH) as u64,
                commits: wb.done as u64,
                sampler_ticks: sampler.ticks() - ticks,
                recovery_s: 0.0,
                gen_late_max_ms: late_a.max(wb.late_max_ms).max(rb.late_max_ms),
                untraced_p50,
                apply_primary: false,
            };
            applied += wb.done;
            wb.absorb_into(out);
            rb.absorb_into(out);
            out.metrics = layers::metrics(&acc, &window);
            write_trace(out, p, &tracer);
        } else {
            let sampler = db.start_sampler(SamplerConfig::default());
            let (w, r) = open_window(
                &db,
                &sampler,
                b_win,
                m_win,
                q_win,
                &mut samples,
                None,
                &mut acc,
            );
            applied += w.done;
            let pages = db.io_totals().map_err(|e| e.to_string())?.pages;
            e2e(out, setup_s, &r, &w, pages, p.n, peak_rss_mib());
            out.notes.push(format!(
                "generator fell behind by at most {:.3} ms",
                w.late_max_ms.max(r.late_max_ms)
            ));
            w.absorb_into(out);
            r.absorb_into(out);
        }
        check_samples(out, &initial, &motions[..applied], &samples);
        Ok(())
    })
}

/// Closed-loop large-mix queries over a static population.
pub fn query_scan(p: &Params) -> Outcome {
    guarded(|out| {
        let mut g = Gen::new(p.n, p.seed);
        let initial = g.initial();
        let warm = g.queries(Mix::Large, WARM_QUERIES);
        let queries = g.queries(Mix::Large, (p.seconds * 4000.0).ceil() as usize + 1);
        let motions = g.batches(p.probe_batches);
        let batches: Vec<Batch> = motions.iter().map(|m| to_batch(m)).collect();

        let (db, setup_s) = set_up(p.setup_reps, |_| {
            let db = new_db();
            load(&db, &initial)?;
            for q in &warm {
                db.query(&QueryRequest::new(q))
                    .map_err(|e| format!("warm-up: {e}"))?;
            }
            Ok(db)
        })?;
        let mut samples = Sampler::new(500);
        let mut acc = LayerSamples::default();
        let mut next_q = 0usize;
        let mut applied = 0usize;
        if p.trace {
            let tracer = Tracer::default();
            let board = Mutex::new((db.snapshot_epoch(), Replica::new(&initial, None)?.views()));
            let a = closed_queries(
                &db,
                &queries,
                &mut next_q,
                Stop::After(Duration::from_secs_f64(p.seconds * UNTRACED_SHARE)),
                &mut samples,
                None,
                &mut LayerSamples::default(),
            );
            let before = Counters::read(&db)?;
            let b = closed_queries(
                &db,
                &queries,
                &mut next_q,
                Stop::After(Duration::from_secs_f64(p.seconds * (1.0 - UNTRACED_SHARE))),
                &mut samples,
                Some(QueryTrace {
                    tracer: &tracer,
                    board: &board,
                }),
                &mut acc,
            );
            let window = Window {
                before,
                after: Counters::read(&db)?,
                seconds: b.elapsed,
                untraced_p50: median(&a.call),
                ..Window::default()
            };
            a.absorb_into(out);
            b.absorb_into(out);
            out.metrics = layers::metrics(&acc, &window);
            write_trace(out, p, &tracer);
        } else {
            let reads = closed_queries(
                &db,
                &queries,
                &mut next_q,
                Stop::After(Duration::from_secs_f64(p.seconds)),
                &mut samples,
                None,
                &mut acc,
            );
            // Write probe: the window has no writes, so the update
            // metrics come from a closed-loop phase after it.
            let writes = closed_writes(
                &db,
                &batches,
                &motions,
                &mut applied,
                Stop::Count(p.probe_batches),
                None,
                &mut acc,
            );
            let pages = db.io_totals().map_err(|e| e.to_string())?.pages;
            e2e(out, setup_s, &reads, &writes, pages, p.n, peak_rss_mib());
            reads.absorb_into(out);
            writes.absorb_into(out);
        }
        check_samples(out, &initial, &motions[..applied], &samples);
        Ok(())
    })
}

/// Arms every store of every shard of `db` with a fresh
/// [`FileBackend`] under `root/s<shard>/store<k>`.
fn arm_db(db: &Db, root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut dirs = Vec::new();
    for s in 0..db.shards() {
        let shard_root = root.join(format!("s{s}"));
        dirs.extend(
            db.with_shard(s, move |index| layers::arm(index, &shard_root))
                .map_err(|e| e.to_string())??,
        );
    }
    Ok(dirs)
}

/// Closed-loop durable commits.
pub fn ingest_durable(p: &Params) -> Outcome {
    guarded(|out| {
        // Generous: a commit costs ≈16 ms with 26 fsyncs on a 2-vCPU
        // cloud VM; the loop reports it if it ever runs dry.
        let cap = WARM_BATCHES + (p.seconds * 150.0).ceil() as usize;
        let mut g = Gen::new(p.n, p.seed);
        let initial = g.initial();
        let motions = g.batches(cap);
        let probes = g.queries(Mix::Small, p.probe_queries);
        let batches: Vec<Batch> = motions.iter().map(|m| to_batch(m)).collect();

        let run_dir = ScratchDir::create(&p.scratch, "ingest")?;
        let ((db, stores), setup_s) = set_up(p.setup_reps, |rep| {
            if rep > 0 {
                let _ = std::fs::remove_dir_all(run_dir.0.join(format!("rep{}", rep - 1)));
            }
            let db = new_db();
            let stores = arm_db(&db, &run_dir.0.join(format!("rep{rep}")))?;
            load(&db, &initial)?;
            for b in &batches[..WARM_BATCHES] {
                db.apply(b).map_err(|e| format!("warm-up: {e}"))?;
            }
            Ok((db, stores))
        })?;
        let mut next = WARM_BATCHES;
        let mut next_q = 0;
        let mut samples = Sampler::new(40);
        let (reads, writes, window) = if p.trace {
            let tracer = Tracer::default();
            let mut acc = LayerSamples::default();
            let mut replica = warm_replica(
                &initial,
                &motions[..WARM_BATCHES],
                Some(&run_dir.0.join("replica")),
                &tracer,
            )?;
            let a = closed_writes(
                &db,
                &batches,
                &motions,
                &mut next,
                Stop::After(Duration::from_secs_f64(p.seconds * UNTRACED_SHARE)),
                None,
                &mut LayerSamples::default(),
            );
            replica.apply(
                &motions[WARM_BATCHES..next],
                &tracer,
                &mut OpenSpan::begin("catch-up", Instant::now()),
            )?;
            let before = Counters::read(&db)?;
            let from = next;
            let board = Mutex::new((0, Views::new()));
            let b = closed_writes(
                &db,
                &batches,
                &motions,
                &mut next,
                Stop::After(Duration::from_secs_f64(p.seconds * (1.0 - UNTRACED_SHARE))),
                Some((&tracer, &mut replica, &board)),
                &mut acc,
            );
            let window = Window {
                before,
                after: Counters::read(&db)?,
                seconds: b.elapsed,
                updates: ((next - from) * BATCH) as u64,
                commits: (next - from) as u64,
                untraced_p50: median(&a.call),
                apply_primary: true,
                ..Window::default()
            };
            a.absorb_into(out);
            b.absorb_into(out);
            write_trace(out, p, &tracer);
            (Loop::default(), Loop::default(), Some((window, acc)))
        } else {
            // Read probe: the window has no reads, so the query metrics
            // come from a closed-loop phase on the warmed state before
            // it, while no fsync traffic is in flight.
            let reads = closed_queries(
                &db,
                &probes,
                &mut next_q,
                Stop::Count(p.probe_queries),
                &mut samples,
                None,
                &mut LayerSamples::default(),
            );
            let writes = closed_writes(
                &db,
                &batches,
                &motions,
                &mut next,
                Stop::After(Duration::from_secs_f64(p.seconds)),
                None,
                &mut LayerSamples::default(),
            );
            (reads, writes, None)
        };
        // The final state answers probe queries for the output check.
        let mut final_samples = Sampler::new(1);
        closed_queries(
            &db,
            &probes,
            &mut next_q,
            Stop::Count(FINAL_PROBES),
            &mut final_samples,
            None,
            &mut LayerSamples::default(),
        )
        .absorb_into(out);
        samples.kept.extend(final_samples.kept);
        let pages = db.io_totals().map_err(|e| e.to_string())?.pages;
        // The serving run ends here; the restart check below reads whole
        // logs into memory and is not part of it.
        let rss_mib = peak_rss_mib();
        drop(db);
        // Restart: every store reopened from its own directory must
        // recover exactly the live pages the database last reported.
        let started = Instant::now();
        let mut recovered = 0u64;
        for dir in &stores {
            let (_, image) = FileBackend::open(dir, FsyncPolicy::OnCommit)
                .map_err(|e| format!("reopen {}: {e}", dir.display()))?;
            recovered += image.live_pages() as u64;
        }
        let recovery_s = started.elapsed().as_secs_f64();
        out.attempted += 1;
        if recovered != pages {
            out.fail(format!(
                "recovered {recovered} live pages, the database had {pages}"
            ));
        }
        out.notes.push(format!(
            "recovered {recovered} live pages from {} stores in {recovery_s:.3} s",
            stores.len()
        ));
        match window {
            Some((mut w, acc)) => {
                w.recovery_s = recovery_s;
                out.metrics = layers::metrics(&acc, &w);
            }
            None => e2e(out, setup_s, &reads, &writes, pages, p.n, rss_mib),
        }
        writes.absorb_into(out);
        reads.absorb_into(out);
        check_samples(out, &initial, &motions[..next], &samples);
        Ok(())
    })
}
