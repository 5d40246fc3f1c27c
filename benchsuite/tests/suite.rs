//! End-to-end checks of the `suite` command at smoke scale: every
//! workload runs, passes its output checks, and emits exactly the metrics
//! `BENCHMARK.json` declares; traced runs leave spans whose children
//! account for their roots.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

use swa_serve::Json;

fn suite(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_suite"))
        .args(args)
        .output()
        .expect("suite runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// `name → unit` of one metric list of `BENCHMARK.json`.
fn declared(list: &str) -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = Json::parse(&text).expect("BENCHMARK.json is JSON");
    let Some(Json::Arr(items)) = doc.get(list) else {
        panic!("BENCHMARK.json has no {list} list");
    };
    items
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

/// The result lines (one per workload) of a run's stdout.
fn results(stdout: &str) -> Vec<Json> {
    stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .map(|l| Json::parse(l).expect("result line is JSON"))
        .collect()
}

fn check_results(stdout: &str, list: &str) {
    let want = declared(list);
    let lines = results(stdout);
    assert_eq!(lines.len(), 4, "one result per workload:\n{stdout}");
    for r in lines {
        assert_eq!(
            r.get("correct").and_then(Json::as_bool),
            Some(true),
            "{r:?}"
        );
        assert_eq!(r.get("failed").and_then(Json::as_u64), Some(0), "{r:?}");
        assert!(r.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
        let Some(Json::Obj(metrics)) = r.get("metrics") else {
            panic!("no metrics in {r:?}");
        };
        let got: BTreeMap<String, String> = metrics
            .iter()
            .map(|(name, m)| {
                assert!(
                    m.get("value")
                        .and_then(Json::as_f64)
                        .is_some_and(f64::is_finite),
                    "{name} is not a number"
                );
                let unit = m
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                (name.clone(), unit)
            })
            .collect();
        assert_eq!(got, want, "the {list} metrics, with their units");
    }
}

#[test]
fn smoke_runs_every_workload_with_every_end_to_end_metric() {
    let start = Instant::now();
    let (ok, stdout, stderr) = suite(&["--smoke", "--seed", "11"]);
    let elapsed = start.elapsed();
    assert!(ok, "smoke run failed:\n{stderr}");
    check_results(&stdout, "end_to_end");
    for workload in ["paper-scale", "design-loop", "serve-mix", "mc-table1"] {
        assert!(
            stdout.contains(&format!("{workload}/p50_ms ")),
            "{workload} prints its metrics as <workload>/<metric> lines"
        );
    }
    assert!(
        elapsed < Duration::from_secs(20),
        "smoke run took {elapsed:?}"
    );
}

/// Spans of one traced run: `(id, parent, start_ns, end_ns)`.
fn spans(workload: &str, seed: u64) -> Vec<(u64, u64, u64, u64)> {
    let path = repo_root()
        .join("target/bench")
        .join(format!("trace-{workload}-smoke-seed{seed}.jsonl"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        .lines()
        .map(|l| {
            let j = Json::parse(l).expect("span line is JSON");
            let n = |k: &str| j.get(k).and_then(Json::as_u64).expect("span field");
            (n("id"), n("parent"), n("start_ns"), n("end_ns"))
        })
        .collect()
}

#[test]
fn traced_smoke_emits_every_per_layer_metric_and_children_sum_to_roots() {
    let (ok, stdout, stderr) = suite(&["--smoke", "--seed", "12", "--trace", "1"]);
    assert!(ok, "traced smoke run failed:\n{stderr}");
    check_results(&stdout, "per_layer");

    // Where a root's children run one after another, they cover it.
    for workload in ["paper-scale", "design-loop"] {
        let spans = spans(workload, 12);
        let mut roots = 0;
        for &(id, _, start, end) in spans.iter().filter(|s| s.1 == 0) {
            let children: u64 = spans.iter().filter(|s| s.1 == id).map(|s| s.3 - s.2).sum();
            #[allow(clippy::cast_precision_loss)]
            let covered = children as f64 / (end - start).max(1) as f64;
            assert!(
                (0.95..=1.0).contains(&covered),
                "{workload}: children cover {:.1}% of root {id}",
                100.0 * covered
            );
            roots += 1;
        }
        assert!(roots > 0, "{workload} traced no roots");
    }
}
