//! Metric names, the run result, its fingerprint, and every rendering of
//! them: the `<workload>/<metric> <value> <unit>` lines, the one-line
//! JSON result the last stdout line carries, and the results file the
//! comparator reads.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use swa_core::obs::json_escape;

/// End-to-end metrics: `(name, unit, lower is better)`. Every workload
/// reports every one of them in an untraced run.
pub const END_TO_END: &[(&str, &str, bool)] = &[
    ("setup_s", "s", true),
    ("peak_rss_mb", "MB", true),
    ("p50_ms", "ms", true),
    ("tail_ms", "ms", true),
    ("ops_per_s", "1/s", false),
];

/// Per-layer metrics `(name, unit)`, reported by every workload in a
/// traced run (zero where the workload bypasses the layer). Shares are
/// each layer's self wall time over the traced operations' wall time.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("xmlio.share", "ratio"),
    ("ima.share", "ratio"),
    ("instance.share", "ratio"),
    ("bytecode.share", "ratio"),
    ("fastsim.share", "ratio"),
    ("analysis.share", "ratio"),
    ("analyzer.share", "ratio"),
    ("canon.share", "ratio"),
    ("cache.share", "ratio"),
    ("compose.share", "ratio"),
    ("ladder.share", "ratio"),
    ("checkpoint.share", "ratio"),
    ("batch.share", "ratio"),
    ("search.share", "ratio"),
    ("sweep.share", "ratio"),
    ("json.share", "ratio"),
    ("request.share", "ratio"),
    ("serve.share", "ratio"),
    ("mc.share", "ratio"),
    ("suite.share", "ratio"),
    ("xmlio.parse_ms", "ms"),
    ("ima.validate_ms", "ms"),
    ("instance.build_ms", "ms"),
    ("bytecode.compile_ms", "ms"),
    ("fastsim.run_ms", "ms"),
    ("analysis.extract_ms", "ms"),
    ("fastsim.steps", "count"),
    ("fastsim.steps_per_s", "1/s"),
    ("fastsim.wheel_wakeups", "count"),
    ("bytecode.ops", "count"),
    ("cache.lookups", "count"),
    ("cache.hit_rate", "ratio"),
    ("cache.bytes", "B"),
    ("compose.hits", "count"),
    ("compose.modules", "count"),
    ("ladder.evaluated", "count"),
    ("ladder.decide_rate", "ratio"),
    ("ladder.t0", "count"),
    ("ladder.t1", "count"),
    ("ladder.t2", "count"),
    ("checkpoint.lookups", "count"),
    ("checkpoint.hit_rate", "ratio"),
    ("checkpoint.full_hits", "count"),
    ("checkpoint.bytes", "B"),
    ("storage.bytes_appended", "B"),
    ("storage.disk_hits", "count"),
    ("storage.errors", "count"),
    ("batch.checks", "count"),
    ("batch.busy_frac", "ratio"),
    ("search.candidates", "count"),
    ("search.found_frac", "ratio"),
    ("sweep.probes", "count"),
    ("sweep.simulated", "count"),
    ("sweep.reuse_rate", "ratio"),
    ("sweep.memo_hits", "count"),
    ("sweep.ladder_hits", "count"),
    ("serve.analyses", "count"),
    ("serve.ladder_decided", "count"),
    ("serve.followers", "count"),
    ("serve.shed", "count"),
    ("serve.rejected", "count"),
    ("mc.states", "count"),
    ("mc.transitions", "count"),
    ("mc.states_per_s", "1/s"),
    ("mc.bytes_per_state", "B"),
    ("mc.par_speedup", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// The unit of a known metric.
#[must_use]
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|&(n, u, _)| (n, u))
        .chain(PER_LAYER.iter().copied())
        .find(|&(n, _)| n == name)
        .map(|(_, u)| u)
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit label.
    pub unit: String,
}

impl Metric {
    /// A metric whose unit comes from the tables above.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from the tables (a suite bug).
    #[must_use]
    pub fn known(name: &str, value: f64) -> Self {
        let unit = unit_of(name).unwrap_or_else(|| panic!("metric {name} is not declared"));
        Self::new(name, value, unit)
    }

    /// A metric with an explicit unit (informational metrics that only
    /// go to the results file).
    #[must_use]
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// What identifies a workload's inputs and environment: two results
/// compare only when their fingerprints are equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// `full` or `smoke`.
    pub scale: String,
    /// Measured seconds per run.
    pub seconds: u64,
    /// FNV-1a digest of the generated inputs.
    pub digest: u64,
    /// Available cores.
    pub nproc: usize,
    /// The worker pinning in force (`SWA_THREAD_MAPPING`, empty if unset).
    pub thread_mapping: String,
}

impl Fingerprint {
    /// The fingerprint of a run in this process's environment.
    #[must_use]
    pub fn current(workload: &str, seed: u64, smoke: bool, seconds: u64, digest: u64) -> Self {
        Self {
            workload: workload.to_string(),
            seed,
            scale: if smoke { "smoke" } else { "full" }.to_string(),
            seconds,
            digest,
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            thread_mapping: std::env::var("SWA_THREAD_MAPPING").unwrap_or_default(),
        }
    }

    /// JSON object form.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"seed\":\"{}\",\"scale\":\"{}\",\"seconds\":\"{}\",\"digest\":\"{:016x}\",\"nproc\":\"{}\",\"thread_mapping\":\"{}\"}}",
            json_escape(&self.workload),
            self.seed,
            self.scale,
            self.seconds,
            self.digest,
            self.nproc,
            json_escape(&self.thread_mapping)
        )
    }
}

/// The result of one workload run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check (or errored).
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
    /// The metrics the run reports (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Extra measurements kept in the results file only.
    pub info: Vec<Metric>,
    /// Digest of the generated inputs.
    pub digest: u64,
}

impl Outcome {
    /// Records a failed check.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(message);
        }
    }

    /// Records the result of a check that is one operation.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.fail(message());
        }
    }

    /// Whether every check passed and every value is a finite number.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self
                .metrics
                .iter()
                .chain(&self.info)
                .all(|m| m.value.is_finite())
    }

    /// The result line: the last line the suite prints to stdout.
    #[must_use]
    pub fn json_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics_json(&self.metrics)
        )
    }

    /// The results file body.
    #[must_use]
    pub fn results_json(&self, fingerprint: &Fingerprint, trace: bool) -> String {
        format!(
            "{{\"schema\":1,\"fingerprint\":{},\"trace\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{},\"info\":{}}}\n",
            fingerprint.to_json(),
            trace,
            self.correct(),
            self.attempted,
            self.failed,
            metrics_json(&self.metrics),
            metrics_json(&self.info)
        )
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{}` prints the shortest representation that round-trips, so
        // every measured digit survives.
        let value = if m.value.is_finite() {
            format!("{}", m.value)
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            json_escape(&m.name),
            json_escape(&m.unit)
        );
    }
    out.push('}');
    out
}

/// Where results, traces and temporary server state go: `target/bench` next to
/// the repository's other build output.
#[must_use]
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("target")
        .join("bench")
}

/// Peak resident set size of this process in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Current resident set size in bytes (`VmRSS`).
#[must_use]
pub fn current_rss_bytes() -> f64 {
    proc_status_kb("VmRSS:").map_or(f64::NAN, |kb| kb * 1024.0)
}

fn proc_status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        for n in names {
            assert!(n.len() <= 64 && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn result_line_carries_every_digit() {
        let outcome = Outcome {
            attempted: 3,
            metrics: vec![Metric::known("p50_ms", 1.234_567_890_123)],
            ..Outcome::default()
        };
        let line = outcome.json_line();
        assert!(line.contains("1.234567890123"), "{line}");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        let parsed = swa_serve::Json::parse(&line).expect("valid JSON");
        assert_eq!(
            parsed
                .get("metrics")
                .and_then(|m| m.get("p50_ms"))
                .and_then(|m| m.get("unit")),
            Some(&swa_serve::Json::Str("ms".into()))
        );
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
