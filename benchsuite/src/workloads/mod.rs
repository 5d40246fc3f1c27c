//! The four workloads and the harness they share: seeded set-up timed
//! several times, a time-bounded measuring loop, and the conversion of
//! samples and traces into the declared metrics.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use swa_core::{analyze_spanning, extract_system_trace, Analysis, SystemModel};
use swa_ima::Configuration;
use swa_xmlio::configuration_from_xml;

use crate::golden::Golden;
use crate::report::{peak_rss_mb, Metric, Outcome, PER_LAYER};
use crate::stats;
use crate::trace::Tracer;

pub mod design_loop;
pub mod mc_table1;
pub mod paper_scale;
pub mod serve_mix;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold analyses of Sect. 4-scale (12,500-job) configurations.
    PaperScale,
    /// The Sect. 4 scheduling-tool loop: search, validate, sweep.
    DesignLoop,
    /// A closed loop of two clients against the analysis server.
    ServeMix,
    /// Exhaustive model checking of the Table 1 configuration.
    McTable1,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperScale,
        Workload::DesignLoop,
        Workload::ServeMix,
        Workload::McTable1,
    ];

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperScale => "paper-scale",
            Workload::DesignLoop => "design-loop",
            Workload::ServeMix => "serve-mix",
            Workload::McTable1 => "mc-table1",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The tail percentile `tail_ms` reports. It is fixed per workload,
    /// chosen by the ten-samples-beyond rule for the workload's latency
    /// count (about 100 analyses; 48 design-problem medians; 200 request-slot
    /// medians), so a faster program never changes which percentile is
    /// compared. `mc-table1` makes a handful of explorations, too few
    /// for any percentile: its tail is the slowest one.
    #[must_use]
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::PaperScale | Workload::DesignLoop => 75.0,
            Workload::ServeMix => 95.0,
            Workload::McTable1 => 100.0,
        }
    }
}

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// About 1/20 of the full input sizes.
    pub smoke: bool,
    /// Write the golden digests instead of checking them.
    pub bless: bool,
}

impl RunArgs {
    /// `full` or `smoke`.
    #[must_use]
    pub fn scale(&self) -> &'static str {
        if self.smoke {
            "smoke"
        } else {
            "full"
        }
    }

    /// The measuring budget.
    #[must_use]
    pub fn budget(&self) -> Duration {
        Duration::from_secs(self.seconds.max(1))
    }

    /// Compares (or, under `--bless`, records) this run's digests.
    pub fn golden(&self, outcome: &mut Outcome, seed_key: &str, actual: BTreeMap<String, String>) {
        let mut golden = Golden::load(self.workload.name());
        if self.bless {
            if let Err(e) = golden.bless(self.scale(), seed_key, actual) {
                outcome.fail(format!("bless: {e}"));
            }
            return;
        }
        match golden.mismatches(self.scale(), seed_key, &actual) {
            None => eprintln!(
                "{}: golden digests not blessed for {} seed {seed_key}; self-consistency only",
                self.workload.name(),
                self.scale()
            ),
            Some(bad) => {
                for m in bad {
                    outcome.fail(format!("golden mismatch {m}"));
                }
            }
        }
    }
}

/// Runs one workload.
#[must_use]
pub fn run(args: &RunArgs) -> Outcome {
    match args.workload {
        Workload::PaperScale => paper_scale::run(args),
        Workload::DesignLoop => design_loop::run(args),
        Workload::ServeMix => serve_mix::run(args),
        Workload::McTable1 => mc_table1::run(args),
    }
}

/// Times `make` `reps` times and returns its first result with the
/// median set-up time. Every repetition must produce the same input
/// digest (generation is deterministic), else the run fails.
pub fn timed_setup<T>(reps: usize, outcome: &mut Outcome, make: impl Fn() -> (T, u64)) -> (T, f64) {
    let mut first: Option<T> = None;
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let (inputs, digest) = make();
        times.push(t0.elapsed().as_secs_f64());
        match &first {
            None => {
                outcome.digest = digest;
                first = Some(inputs);
            }
            Some(_) => {
                let expected = outcome.digest;
                outcome.check(digest == expected, || {
                    format!("set-up is not deterministic: digest {digest:016x} != {expected:016x}")
                });
            }
        }
    }
    (first.expect("at least one set-up"), stats::median(&times))
}

/// Latencies of a fixed list of operations repeated in rounds. Each
/// operation's latency is summarised by its median over the rounds, and
/// throughput by the median round, so a stretch of interference from
/// outside the process that hits a minority of rounds moves neither.
#[derive(Debug, Default)]
pub struct Rounds {
    /// Every latency (ms) of each operation, one per round it ran in.
    pub per_op: Vec<Vec<f64>>,
    /// Wall time of each complete round.
    pub walls: Vec<Duration>,
}

impl Rounds {
    /// Room for `ops` operations per round.
    #[must_use]
    pub fn new(ops: usize) -> Self {
        Self {
            per_op: vec![Vec::new(); ops],
            walls: Vec::new(),
        }
    }

    /// Every latency, in no particular order.
    #[must_use]
    pub fn all(&self) -> Vec<f64> {
        self.per_op.iter().flatten().copied().collect()
    }

    /// Each operation's median latency (operations that ran at least once).
    #[must_use]
    pub fn op_medians(&self) -> Vec<f64> {
        self.per_op
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| stats::median(v))
            .collect()
    }

    /// Mean of the per-operation medians (ms).
    #[must_use]
    pub fn mean_ms(&self) -> f64 {
        let m = self.op_medians();
        #[allow(clippy::cast_precision_loss)]
        let n = m.len().max(1) as f64;
        m.iter().sum::<f64>() / n
    }

    /// Operations per second of the median complete round.
    #[must_use]
    pub fn ops_per_s(&self) -> f64 {
        let walls: Vec<f64> = self.walls.iter().map(Duration::as_secs_f64).collect();
        #[allow(clippy::cast_precision_loss)]
        let ops = self.per_op.len() as f64;
        ops / stats::median(&walls)
    }
}

/// Runs `op(i)` for every operation `i < ops`, round after round, until
/// `budget` is spent; the first round always completes, and a later one
/// under way when the budget runs out is cut short. A round starts with
/// `op(0)`, where a stateful workload resets its state.
pub fn measure(budget: Duration, ops: usize, mut op: impl FnMut(usize)) -> Rounds {
    let start = Instant::now();
    let mut rounds = Rounds::new(ops);
    'rounds: loop {
        let t0 = Instant::now();
        for i in 0..ops {
            if !rounds.walls.is_empty() && start.elapsed() >= budget {
                break 'rounds;
            }
            let t = Instant::now();
            op(i);
            rounds.per_op[i].push(t.elapsed().as_secs_f64() * 1e3);
        }
        rounds.walls.push(t0.elapsed());
        if start.elapsed() >= budget {
            break;
        }
    }
    rounds
}

/// The end-to-end metrics of an untraced run: percentiles over
/// `latencies` (ms), throughput from the median round.
#[must_use]
pub fn end_to_end(
    workload: Workload,
    setup_s: f64,
    latencies: &[f64],
    rounds: &Rounds,
) -> Vec<Metric> {
    let p = workload.tail_percentile();
    let beyond = stats::beyond(latencies.len(), p);
    eprintln!(
        "{}: {} latencies over {} complete rounds; p{p} has {beyond} beyond it",
        workload.name(),
        latencies.len(),
        rounds.walls.len()
    );
    vec![
        Metric::known("setup_s", setup_s),
        Metric::known("peak_rss_mb", peak_rss_mb()),
        Metric::known("p50_ms", stats::percentile(latencies, 50.0)),
        Metric::known("tail_ms", stats::percentile(latencies, p)),
        Metric::known("ops_per_s", rounds.ops_per_s()),
    ]
}

/// Every per-layer metric of a traced run: layer shares and per-call
/// means from the tracer, the workload's own counts from `values`, zero
/// for layers the workload bypasses.
#[must_use]
pub fn per_layer(
    workload: Workload,
    tracer: &Arc<Tracer>,
    mut values: BTreeMap<&'static str, f64>,
    untraced: &Rounds,
    traced: &Rounds,
) -> Vec<Metric> {
    let (layers, total) = tracer.attribute();
    let known: f64 = layers.values().sum();
    eprintln!(
        "{}: traced wall {:.1} ms, layer self times sum to {:.1} ms;{}",
        workload.name(),
        total / 1e6,
        known / 1e6,
        crate::trace::render_layers(&layers, total)
    );
    for (name, _) in PER_LAYER {
        if let Some(layer) = name.strip_suffix(".share") {
            let v = layers.get(layer).copied().unwrap_or(0.0);
            values.insert(name, if total > 0.0 { v / total } else { 0.0 });
        }
    }
    for layer in layers.keys() {
        if !PER_LAYER
            .iter()
            .any(|(n, _)| n.strip_suffix(".share") == Some(layer.as_str()))
        {
            eprintln!(
                "{}: span layer {layer} has no share metric",
                workload.name()
            );
        }
    }
    for (metric, layer) in [
        ("xmlio.parse_ms", "xmlio"),
        ("ima.validate_ms", "ima"),
        ("instance.build_ms", "instance"),
        ("bytecode.compile_ms", "bytecode"),
        ("fastsim.run_ms", "fastsim"),
        ("analysis.extract_ms", "analysis"),
    ] {
        values
            .entry(metric)
            .or_insert_with(|| tracer.mean_ms(layer));
    }
    let sim_s = tracer.total("fastsim").as_secs_f64();
    let steps = values.get("fastsim.steps").copied().unwrap_or(0.0);
    values
        .entry("fastsim.steps_per_s")
        .or_insert_with(|| rate(steps, sim_s));
    values.insert(
        "trace.overhead_frac",
        traced.mean_ms() / untraced.mean_ms() - 1.0,
    );
    PER_LAYER
        .iter()
        .map(|&(name, _)| Metric::known(name, values.get(name).copied().unwrap_or(0.0)))
        .collect()
}

/// `hits / total`, 0 for no lookups.
#[must_use]
pub fn rate(hits: f64, total: f64) -> f64 {
    if total > 0.0 {
        hits / total
    } else {
        0.0
    }
}

/// Parses and validates one configuration.
pub(crate) fn parse_valid(xml: &str) -> Result<Configuration, String> {
    let config = configuration_from_xml(xml).map_err(|e| e.to_string())?;
    config
        .validate()
        .map_err(|e| format!("invalid configuration: {e:?}"))?;
    Ok(config)
}

/// What one stage-by-stage analysis produced.
pub(crate) struct Staged {
    pub analysis: Analysis,
    pub steps: u64,
    pub wheel_wakeups: u64,
    /// Bytecode instructions compiled.
    pub ops: usize,
}

/// The traced twin of `configuration_from_xml` + `validate` +
/// `Analyzer::run`: the same public stages, one span per layer.
pub(crate) fn analyze_staged(xml: &str, tracer: &Tracer) -> Result<Staged, String> {
    let config = tracer
        .span("xmlio", || configuration_from_xml(xml))
        .map_err(|e| e.to_string())?;
    tracer
        .span("ima", || config.validate())
        .map_err(|e| format!("invalid configuration: {e:?}"))?;
    let model = tracer
        .span("instance", || SystemModel::build_spanning(&config, 1))
        .map_err(|e| e.to_string())?;
    let ops = tracer.span("bytecode", || model.network().compiled().stats().ops);
    let run = tracer
        .span("fastsim", || model.simulator().run())
        .map_err(|e| e.to_string())?;
    let analysis = tracer.span("analysis", || {
        let trace = extract_system_trace(&model, &config, &run.trace);
        analyze_spanning(&config, &trace, 1)
    });
    let (steps, wheel_wakeups) = (run.steps, run.stats.wheel_wakeups);
    // Freeing the run's large structures is part of each layer's cost
    // (the untraced pipeline frees them inside the analysis call).
    tracer.span("fastsim:free", || drop(run));
    tracer.span("instance:free", || drop(model));
    Ok(Staged {
        analysis,
        steps,
        wheel_wakeups,
        ops,
    })
}

/// Writes the traced run's spans next to the results.
pub fn write_trace(args: &RunArgs, tracer: &Tracer, outcome: &mut Outcome) {
    let path = crate::report::results_dir().join(format!(
        "trace-{}-{}-seed{}.jsonl",
        args.workload.name(),
        args.scale(),
        args.seed
    ));
    match tracer.write_jsonl(&path) {
        Ok(()) => eprintln!(
            "{}: spans written to {}",
            args.workload.name(),
            path.display()
        ),
        Err(e) => outcome.fail(format!("writing {}: {e}", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Fingerprint;

    fn fingerprint(w: Workload, seed: u64) -> Fingerprint {
        let digest = match w {
            Workload::PaperScale => paper_scale::inputs(seed, true).1,
            Workload::DesignLoop => design_loop::inputs(seed, true).1,
            Workload::ServeMix => serve_mix::inputs(seed, true).1,
            Workload::McTable1 => mc_table1::inputs(seed, true).1,
        };
        Fingerprint::current(w.name(), seed, true, 1, digest)
    }

    #[test]
    fn the_seed_alone_determines_the_inputs() {
        for w in Workload::ALL {
            assert_eq!(fingerprint(w, 1), fingerprint(w, 1), "{}", w.name());
            assert_ne!(fingerprint(w, 1), fingerprint(w, 2), "{}", w.name());
            if w != Workload::McTable1 {
                assert_ne!(
                    fingerprint(w, 1).digest,
                    fingerprint(w, 2).digest,
                    "{}",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn declared_tails_follow_the_percentile_rule() {
        // The reference latency counts of a full-size run.
        for (w, n) in [
            (Workload::PaperScale, 80),
            (Workload::DesignLoop, 48),
            (Workload::ServeMix, 2 * serve_mix::PER_CLIENT),
        ] {
            assert_eq!(
                stats::tail_percentile(n),
                Some(w.tail_percentile()),
                "{}",
                w.name()
            );
        }
        // A handful of explorations leaves no percentile; the maximum stands in.
        assert_eq!(stats::tail_percentile(4), None);
        assert_eq!(Workload::McTable1.tail_percentile(), 100.0);
    }

    #[test]
    fn the_first_round_always_completes() {
        let rounds = measure(Duration::ZERO, 3, |_| {});
        assert_eq!(rounds.walls.len(), 1);
        assert!(rounds.per_op.iter().all(|v| v.len() == 1));
        assert!(rounds.ops_per_s() > 0.0);
    }
}
