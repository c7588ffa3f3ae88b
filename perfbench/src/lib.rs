//! The serving benchmark: what a client of
//! `ShardedDb<DualBPlusIndex>` sees on the paper's §5 workload, and a
//! traced per-layer breakdown of it.
//!
//! Deployment: `DualBPlusConfig::default()` (c = 6, 13 B+-trees per
//! shard, the paper's 4-page buffer pool per tree) behind `IdHashShard`,
//! with [`SHARDS`] shards and [`READ_THREADS`] read-pool helper. The
//! load comes from `Simulator1D` with the paper's parameters; every
//! query and update batch is generated from the seed before any timer
//! starts. Page I/O is reported as counts; no workload sleeps per page.
//!
//! Workloads (see [`Workload`]):
//! * `track-mixed` — the live tracking service: open-loop 50-update
//!   batches at 4,000 updates/s beside open-loop small-mix queries at
//!   400/s, with the telemetry sampler running.
//! * `query-scan` — closed-loop large-mix queries over a static
//!   population; the write path does no work in its measured window.
//! * `ingest-durable` — closed-loop 50-update commits on `FileBackend`
//!   stores under `FsyncPolicy::OnCommit`.
//!
//! Every end-to-end metric exists in every workload: a workload whose
//! measured window lacks an operation type measures it in a short
//! closed-loop probe outside the window (`query-scan` probes writes after
//! it, `ingest-durable` probes reads before it, while no fsync is in
//! flight). A traced run (`trace = true`) reports the per-layer metrics
//! instead; see [`layers`].

pub mod check;
pub mod gen;
pub mod layers;
mod workloads;

use std::path::PathBuf;

/// Shards (= worker threads) of the database under test.
pub const SHARDS: usize = 2;
/// Snapshot read-pool helper threads.
pub const READ_THREADS: usize = 1;
/// Updates per `apply` batch.
pub const BATCH: usize = 50;
/// Bytes per page (the paper's 4 KiB pages).
pub const PAGE_BYTES: f64 = 4096.0;

/// The end-to-end metrics, in report order: `(name, unit)`. Every
/// untraced run reports each of them. The p99 latencies are printed
/// beside them but not reported here: across runs of different seeds on
/// a shared two-core host their spread exceeds any usable bound (it
/// reached 0.5–0.9 of the median), so a gate on them would reject on
/// noise. The traced run keeps `serve.query_p99_us` and
/// `serve.apply_p99_ms`.
pub const E2E_METRICS: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("query_p50_us", "us"),
    ("query_per_s", "1/s"),
    ("update_p50_ms", "ms"),
    ("update_per_s", "1/s"),
    ("bytes_per_object", "B"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics of a traced run, in report order.
pub const LAYER_METRICS: [(&str, &str); 25] = [
    ("serve.query_p50_us", "us"),
    ("serve.query_p99_us", "us"),
    ("serve.apply_p50_ms", "ms"),
    ("serve.apply_p99_ms", "ms"),
    ("serve.merge_us", "us"),
    ("serve.query_residual_us", "us"),
    ("serve.apply_residual_ms", "ms"),
    ("serve.group_ops_mean", "count"),
    ("serve.readpool_stolen_frac", "ratio"),
    ("core.frozen_search_us", "us"),
    ("core.candidates_per_result", "ratio"),
    ("core.pages_per_query", "count"),
    ("core.batch_update_ms", "ms"),
    ("core.freeze_us", "us"),
    ("core.commit_group_ms", "ms"),
    ("pager.ios_per_update", "count"),
    ("pager.hit_rate", "ratio"),
    ("pager.fsyncs_per_commit", "count"),
    ("pager.wal_records_per_commit", "count"),
    ("pager.wal_bytes_per_update", "B"),
    ("pager.recovery_s", "s"),
    ("obs.scrape_ms", "ms"),
    ("obs.sampler_ticks_per_s", "1/s"),
    ("bench.gen_late_max_ms", "ms"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop updates and small-mix queries sharing the two cores.
    TrackMixed,
    /// Closed-loop large-mix queries over a static population.
    QueryScan,
    /// Closed-loop durable commits.
    IngestDurable,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::TrackMixed,
        Workload::QueryScan,
        Workload::IngestDurable,
    ];

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrackMixed => "track-mixed",
            Workload::QueryScan => "query-scan",
            Workload::IngestDurable => "ingest-durable",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// What one run does.
#[derive(Debug, Clone)]
pub struct Params {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window, in seconds.
    pub seconds: f64,
    /// Report the per-layer metrics of a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Objects in the population.
    pub n: usize,
    /// Queries in `ingest-durable`'s closed-loop read probe.
    pub probe_queries: usize,
    /// Batches in `query-scan`'s closed-loop write probe.
    pub probe_batches: usize,
    /// Set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
    /// Directory under which `ingest-durable` creates (and removes) a
    /// fresh directory for its stores.
    pub scratch: PathBuf,
    /// Where a traced run writes its Chrome trace (`None`: not written).
    pub trace_out: Option<PathBuf>,
}

impl Params {
    /// The benchmark's full scale: the paper's N = 100,000 objects.
    #[must_use]
    pub fn full(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Params {
        Params {
            workload,
            seed,
            seconds,
            trace,
            n: 100_000,
            probe_queries: 40_000,
            probe_batches: 5_000,
            setup_reps: 5,
            scratch: PathBuf::from(".bench_tmp"),
            trace_out: trace.then(|| {
                PathBuf::from(format!(
                    ".bench_out/trace-{}-seed{seed}.json",
                    workload.name()
                ))
            }),
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (one of [`E2E_METRICS`] or [`LAYER_METRICS`]).
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// The result of one run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (queries and batches of every timed phase).
    pub attempted: u64,
    /// Operations that failed or answered wrongly, plus failed checks.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// Human-readable findings (mismatches, errors).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every operation succeeded and every check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// `failed / attempted`.
    #[must_use]
    pub fn error_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Records a failure.
    pub fn fail(&mut self, note: impl Into<String>) {
        self.failed += 1;
        self.notes.push(note.into());
    }

    /// The one-line JSON result.
    #[must_use]
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no infinity; a failed run (which is reported
                // as incorrect anyway) saturates.
                let v = if m.value.is_finite() {
                    m.value
                } else {
                    f64::MAX.copysign(m.value)
                };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs one workload.
#[must_use]
pub fn run(p: &Params) -> Outcome {
    let mut out = match p.workload {
        Workload::TrackMixed => workloads::track_mixed(p),
        Workload::QueryScan => workloads::query_scan(p),
        Workload::IngestDurable => workloads::ingest_durable(p),
    };
    let expected: &[(&str, &str)] = if p.trace {
        &LAYER_METRICS
    } else {
        &E2E_METRICS
    };
    let got: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
    if got != expected {
        out.fail(format!("metric set {got:?} differs from {expected:?}"));
    }
    out
}

/// Nearest-rank percentile (`q` in `(0, 1]`); 0 for no samples.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// The median of `samples` (0 for none).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The process's peak resident set (`VmHWM`), in MiB; 0 where
/// `/proc/self/status` does not exist.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
