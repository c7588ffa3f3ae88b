//! Self-test of the benchmark at a tiny scale: every workload completes
//! in both modes and reports every named metric as a finite value with
//! its unit, the metric lists agree with `BENCHMARK.json`, the durable
//! workload leaves no store directory behind, and the output check
//! rejects a corrupted answer.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use mobidx_core::method::dual_bplus::{DualBPlusConfig, DualBPlusIndex};
use mobidx_core::QueryRequest;
use mobidx_obs::json::Value;
use mobidx_perfbench::check::{verify, Sample};
use mobidx_perfbench::gen::{Gen, Mix};
use mobidx_perfbench::{run, Params, Workload, E2E_METRICS, LAYER_METRICS};
use mobidx_serve::{Batch, IdHashShard, ServeConfig, ShardedDb};
use std::path::PathBuf;

fn tiny(workload: Workload, trace: bool) -> Params {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-selftest");
    Params {
        workload,
        seed: 11,
        seconds: 0.3,
        trace,
        n: 2_000,
        probe_queries: 50,
        probe_batches: 50,
        setup_reps: 2,
        scratch: root.join(format!("scratch-{}-{}", workload.name(), u8::from(trace))),
        trace_out: trace.then(|| root.join(format!("trace-{}.json", workload.name()))),
    }
}

fn names(list: &Value, key: &str) -> Vec<(String, String)> {
    list.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn metric_lists_match_benchmark_json() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside perfbench/");
    let spec = Value::parse(&text).expect("BENCHMARK.json parses");
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    };
    assert_eq!(names(&spec, "end_to_end"), own(&E2E_METRICS));
    assert_eq!(names(&spec, "per_layer"), own(&LAYER_METRICS));
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn every_workload_reports_every_metric() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let p = tiny(workload, trace);
            let out = run(&p);
            let what = format!("{} trace={trace}: {:?}", workload.name(), out.notes);
            assert!(out.correct(), "{what}");
            assert!(out.attempted > 0, "{what}");
            let expected: &[(&str, &str)] = if trace { &LAYER_METRICS } else { &E2E_METRICS };
            let got: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(got, expected, "{what}");
            for m in &out.metrics {
                assert!(m.value.is_finite(), "{what}: {} = {}", m.name, m.value);
            }
            if !trace {
                // The end-to-end metrics are never zero.
                for m in &out.metrics {
                    assert!(m.value > 0.0, "{what}: {} = {}", m.name, m.value);
                }
            }
            let line = Value::parse(&out.to_json()).expect("result line is JSON");
            assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
            if let Some(trace_file) = &p.trace_out {
                let text = std::fs::read_to_string(trace_file).expect("trace written");
                let events = Value::parse(&text).expect("trace is JSON");
                assert!(
                    events
                        .get("traceEvents")
                        .and_then(Value::as_array)
                        .is_some_and(|e| !e.is_empty()),
                    "{what}: empty trace"
                );
            }
            // Durable stores live in a per-run directory that is gone
            // after the run.
            let left = std::fs::read_dir(&p.scratch).map_or(0, Iterator::count);
            assert_eq!(left, 0, "{what}: scratch directory not cleaned up");
        }
    }
}

#[test]
fn output_check_rejects_a_corrupted_answer() {
    let mut g = Gen::new(3_000, 5);
    let initial = g.initial();
    let batches = g.batches(4);
    let db = ShardedDb::new(
        ServeConfig {
            shards: 2,
            read_threads: 1,
            ..ServeConfig::default()
        },
        Box::new(IdHashShard),
        |_, _| DualBPlusIndex::new(DualBPlusConfig::default()),
    );
    let mut load = Batch::new();
    for m in &initial {
        load.insert(*m);
    }
    db.apply(&load).unwrap();
    for b in &batches {
        let mut batch = Batch::new();
        for m in b {
            batch.update(*m);
        }
        db.apply(&batch).unwrap();
    }
    let samples: Vec<Sample> = g
        .queries(Mix::Large, 8)
        .into_iter()
        .map(|q| {
            let out = db.query(&QueryRequest::new(&q)).unwrap();
            Sample {
                q,
                epoch: out.epoch.expect("snapshot read"),
                ids: out.into_ids(),
            }
        })
        .collect();
    assert!(samples.iter().all(|s| s.epoch == 5));
    assert!(samples.iter().any(|s| !s.ids.is_empty()));
    assert_eq!(verify(&initial, &batches, &samples), Vec::<String>::new());

    // One id dropped from one answer.
    let mut dropped = samples.clone();
    let victim = dropped.iter_mut().find(|s| !s.ids.is_empty()).unwrap();
    victim.ids.pop();
    assert_eq!(verify(&initial, &batches, &dropped).len(), 1);

    // One foreign id added to another.
    let mut added = samples.clone();
    added[0].ids.push(u64::MAX);
    assert_eq!(verify(&initial, &batches, &added).len(), 1);

    // An answer claiming an epoch the log never reached.
    let mut future = samples;
    future[1].epoch = 99;
    assert_eq!(verify(&initial, &batches, &future).len(), 1);
}
