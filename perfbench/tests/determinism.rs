//! The benchmark's own checks: fixed inputs per seed, identical work
//! counters and answers for a repeated seed, and `BENCHMARK.json` in
//! step with the metric catalog.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::bench::{run, Config, Limit, Outcome};
use perfbench::catalog::{END_TO_END, PER_LAYER};
use perfbench::workload::{spec, SPECS};
use std::path::{Path, PathBuf};

fn work_dir(tag: &str) -> PathBuf {
    let d = Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag);
    std::fs::create_dir_all(&d).expect("create test work dir");
    d
}

fn run_ops(name: &str, seed: u64, ops: u64, trace: bool) -> Outcome {
    let out = run(&Config {
        spec: spec(name).expect("known workload"),
        seed,
        limit: Limit::Ops(ops),
        trace,
        work_dir: work_dir(&format!("{name}-{seed}-{trace}")),
    })
    .expect("run completes");
    assert_eq!(out.failed, 0, "{name} seed {seed}: {:?}", out.failures);
    out
}

/// Operations per test run: enough writes for at least one checkpoint
/// (1 in 16 / 4 / 4 operations write; a checkpoint every 128 / 64 / 32
/// writes), so checkpoint bytes and the planner feedback stored in the
/// segment are part of what must repeat.
fn ops_for(name: &str) -> u64 {
    match name {
        "ppi_flwr" => 2600,
        "er_subgraph" => 360,
        _ => 200,
    }
}

#[test]
fn one_seed_repeats_exactly_and_another_seed_differs() {
    for w in &SPECS {
        let n = ops_for(w.name);
        let a = run_ops(w.name, 7, n, true);
        let b = run_ops(w.name, 7, n, true);
        assert_eq!(a.input_digest, b.input_digest, "{}", w.name);
        assert_eq!(a.answer_digest, b.answer_digest, "{}", w.name);
        assert!(
            a.counters["checkpoints"] > 0,
            "{}: a checkpoint ran",
            w.name
        );
        assert_eq!(a.counters, b.counters, "{}", w.name);
        for key in [
            "retrieve.candidates",
            "refine.bipartite_checks",
            "search.steps",
            "storage.wal.appends",
            "storage.checkpoint_bytes",
        ] {
            assert!(
                a.counters.get(key).copied().unwrap_or(0) > 0,
                "{}: {key} counted",
                w.name
            );
        }
        let c = run_ops(w.name, 8, n, true);
        assert_ne!(a.input_digest, c.input_digest, "{}", w.name);
        assert_ne!(a.answer_digest, c.answer_digest, "{}", w.name);
    }
}

#[test]
fn runs_report_every_catalogued_metric_in_order() {
    let untraced = run_ops("er_subgraph", 3, 300, false);
    let names: Vec<&str> = untraced.metrics.iter().map(|m| m.name).collect();
    let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(names, want);
    let traced = run_ops("er_subgraph", 3, 300, true);
    let names: Vec<&str> = traced.metrics.iter().map(|m| m.name).collect();
    let want: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(names, want);
}

/// `BENCHMARK.json` lists the same metrics, units and directions, and the
/// same workloads, as the catalog (checked textually: no JSON parser).
#[test]
fn benchmark_json_matches_catalog() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json present");
    let compact: String = text.split_whitespace().collect();
    for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!(
            "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"",
            m.name, m.unit, m.better
        );
        assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in &SPECS {
        let why: String = w.why.split_whitespace().collect();
        let entry = format!("{{\"name\":\"{}\",\"why\":\"{why}\"}}", w.name);
        assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let entries = compact.matches("{\"name\":").count();
    assert_eq!(entries, END_TO_END.len() + PER_LAYER.len() + SPECS.len());
}
