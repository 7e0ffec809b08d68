//! Self-tests of the benchmark: seeded inputs repeat, every workload
//! recovers its planted truth at toy size, and every metric it prints is
//! declared in `BENCHMARK.json`.

use std::path::PathBuf;
use wk_perfbench::{gen, run, Options, Size, Workload, END_TO_END, PER_LAYER};

fn toy(workload: Workload, trace: bool) -> Options {
    let base = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "selftest-{}-{}",
        workload.name(),
        trace
    ));
    Options {
        workload,
        seed: 11,
        seconds: 0.0,
        trace,
        size: Size::toy(),
        work: base.join("work"),
        trace_dir: base.join("trace"),
    }
}

fn names(metrics: &wk_perfbench::measure::Metrics) -> Vec<&str> {
    metrics.0.iter().map(|(n, _, _)| n.as_str()).collect()
}

#[test]
fn same_seed_same_corpus_digest() {
    let digest = |seed| gen::digest(gen::corpus(seed, 200, 256).iter().map(|m| &m.n));
    assert_eq!(digest(5), digest(5));
    assert_ne!(digest(5), digest(6));
}

#[test]
fn generated_corpus_shares_only_planted_primes() {
    let corpus = gen::corpus(3, 300, 256);
    let planted = corpus.iter().filter(|m| m.planted.is_some()).count();
    assert_eq!(planted, gen::planted_count(300));
    let moduli: Vec<_> = corpus.iter().map(|m| m.n.clone()).collect();
    let result = wk_batchgcd::batch_gcd(&moduli, 1);
    let expected: Vec<_> = corpus.iter().map(gen::expected_status).collect();
    assert_eq!(result.statuses, expected);
}

fn check_workload(workload: Workload) {
    for trace in [false, true] {
        let opts = toy(workload, trace);
        let trace_dir = opts.trace_dir.clone();
        let out = run(opts);
        assert!(
            out.checks.attempted > 0,
            "{} made no checks",
            workload.name()
        );
        assert_eq!(out.checks.failed, 0, "{} failed checks", workload.name());
        let declared: Vec<&str> = if trace { PER_LAYER } else { END_TO_END }
            .iter()
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(names(&out.metrics), declared);
        if trace {
            let spans = trace_dir.join(format!("{}-seed11.jsonl", workload.name()));
            let text = std::fs::read_to_string(spans).expect("span JSONL written");
            assert!(text.lines().count() > 3);
        }
    }
}

#[test]
fn scan_recovers_planted_truth() {
    check_workload(Workload::Scan1024);
}

#[test]
fn kset_recovers_planted_truth() {
    check_workload(Workload::Kset2048);
}

#[test]
fn daemon_recovers_planted_truth() {
    check_workload(Workload::DaemonMonth);
}

#[test]
fn study_recovers_planted_truth() {
    check_workload(Workload::Study);
}

/// The `"name"` values inside the JSON array that follows `key`.
fn declared(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start..];
    let end = body.find(']').expect("array closes");
    body[..end]
        .split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("name value").to_string())
        .collect()
}

#[test]
fn every_printed_metric_is_declared() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    let layer: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(declared(&json, "end_to_end"), e2e);
    assert_eq!(declared(&json, "per_layer"), layer);
    assert_eq!(declared(&json, "workloads"), workloads);
}
