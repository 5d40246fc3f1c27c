//! `design-loop`: the paper's Sect. 4 scheduling-tool loop. 48 seeded
//! design problems (~1,000 jobs; 500 with virtual links) from three
//! interleaved families — message-free FPPS, FPPS with virtual links, and
//! alternating FPNPS/EDF — are each visited twice, the second time after
//! a one-partition WCET edit. A visit reads the problem's XML, searches
//! for a configuration
//! (`search_with`, ladder `Full`, compositional, two workers), validates
//! the found configuration over two hyperperiods, and sweeps its WCET
//! breakdown (global and per task), all through one verdict cache and
//! one checkpoint store shared across the visits of a round. Rounds over
//! the same 48 visits repeat, each over fresh stores, until the budget is
//! spent; latencies are per-visit medians over the rounds.
//!
//! Chosen because it drives the whole resolver chain — canonical keys,
//! cache and composition probes, the verdict ladder, batch simulation
//! and checkpoint warm starts — so a cache, ladder or resolver change
//! shows here, and only here besides `serve-mix`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use swa_core::{
    Analyzer, CheckpointStore, LadderMode, MetricsRecorder, Recorder, ShardedCheckpointStore,
    ShardedVerdictCache, VerdictCache,
};
use swa_schedtool::{search_with, DesignProblem, SearchOptions};
use swa_sweep::{run_sweep, Axis, SweepEngine, SweepOptions};
use swa_xmlio::{configuration_from_xml, configuration_to_xml};

use super::{end_to_end, measure, per_layer, rate, write_trace, Rounds, RunArgs};
use crate::gen::{design_config, fnv1a, sub_seed, wcet_edit};
use crate::report::Outcome;
use crate::trace::{CaptureRecorder, TracedCache, TracedCheckpoints, Tracer};

/// Per-task sensitivity searches per sweep.
const SENSITIVITY_TASKS: usize = 2;
/// Store budgets: a base visit's entries survive until its edited
/// revisit, while the least recently used ones are evicted so memory
/// stays flat however many visits a run makes.
const CACHE_BYTES: usize = 16 << 20;
const CHECKPOINT_BYTES: usize = 32 << 20;

/// The stores and sinks one round shares across its visits.
struct Stores {
    cache: Arc<dyn VerdictCache>,
    checkpoints: Arc<dyn CheckpointStore>,
    search_recorder: Arc<dyn Recorder>,
    sweep_recorder: Arc<dyn Recorder>,
    /// The undecorated stores, for their footprint.
    plain: (Arc<ShardedVerdictCache>, Arc<ShardedCheckpointStore>),
}

impl Stores {
    /// Fresh stores; traced, they are decorated and the program's
    /// emissions go to the tracer instead of the guard's counters.
    fn new(tracer: Option<&Arc<Tracer>>, counters: &Counters) -> Self {
        let cache = Arc::new(ShardedVerdictCache::new(CACHE_BYTES));
        let checkpoints = Arc::new(ShardedCheckpointStore::new(CHECKPOINT_BYTES));
        match tracer {
            None => Self {
                cache: cache.clone(),
                checkpoints: checkpoints.clone(),
                search_recorder: counters.search.clone(),
                sweep_recorder: counters.sweep.clone(),
                plain: (cache, checkpoints),
            },
            Some(t) => Self {
                cache: Arc::new(TracedCache::new(cache.clone(), Arc::clone(t))),
                checkpoints: Arc::new(TracedCheckpoints::new(checkpoints.clone(), Arc::clone(t))),
                search_recorder: Arc::new(CaptureRecorder::new(Arc::clone(t))),
                sweep_recorder: Arc::new(CaptureRecorder::new(Arc::clone(t))),
                plain: (cache, checkpoints),
            },
        }
    }
}

/// The untraced run's counters, which the calibration guard reads.
struct Counters {
    search: Arc<MetricsRecorder>,
    sweep: Arc<MetricsRecorder>,
}

/// What one visit produced.
#[derive(Debug, Default)]
struct Visit {
    digest: String,
    candidates: usize,
    /// Candidates answered without a batch simulation (cache or ladder).
    known: usize,
    found: bool,
}

fn visit(xml: &str, stores: &Stores, tracer: Option<&Tracer>) -> Result<Visit, String> {
    let step = |name: &str, f: &mut dyn FnMut() -> Result<(), String>| match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    };
    let mut config = None;
    step("xmlio", &mut || {
        config = Some(configuration_from_xml(xml).map_err(|e| e.to_string())?);
        Ok(())
    })?;
    let config = config.expect("parsed");
    step("ima", &mut || {
        config
            .validate()
            .map_err(|e| format!("invalid problem: {e:?}"))
    })?;

    let problem = DesignProblem::from_configuration(&config);
    let analyzer = Analyzer::configure()
        .compositional(true)
        .cache(Arc::clone(&stores.cache))
        .checkpoints(Arc::clone(&stores.checkpoints))
        .recorder(Arc::clone(&stores.search_recorder));
    let options = SearchOptions {
        ladder: LadderMode::Full,
        parallelism: 2,
        ..SearchOptions::default()
    };
    let mut searched = None;
    step("search", &mut || {
        searched = Some(search_with(&problem, &options, &analyzer).map_err(|e| e.to_string())?);
        Ok(())
    })?;
    let searched = searched.expect("searched");
    let mut out = Visit {
        candidates: searched.iterations.len(),
        known: searched
            .iterations
            .iter()
            .filter(|r| r.check_time.is_zero())
            .count(),
        found: searched.found(),
        ..Visit::default()
    };
    let Some(found) = &searched.configuration else {
        out.digest = "none".to_string();
        return Ok(out);
    };

    let mut valid = false;
    step("analyzer", &mut || {
        valid = analyzer
            .clone()
            .horizon(2)
            .analyze(found)
            .map_err(|e| e.to_string())?
            .schedulable();
        Ok(())
    })?;

    let mut report = None;
    step("sweep", &mut || {
        let options = SweepOptions {
            compositional: true,
            ladder: LadderMode::Full,
            max_sensitivity_tasks: SENSITIVITY_TASKS,
            ..SweepOptions::default()
        };
        let mut engine = SweepEngine::new(found.clone(), options)
            .map_err(|e| e.to_string())?
            .cache(Arc::clone(&stores.cache))
            .checkpoints(Arc::clone(&stores.checkpoints))
            .recorder(Arc::clone(&stores.sweep_recorder));
        report = Some(
            run_sweep(&mut engine, Axis::WcetScale, true, |_| {}, || false)
                .map_err(|e| e.to_string())?,
        );
        Ok(())
    })?;
    let report = report.expect("swept");
    // Digesting the outputs is the suite's own work, charged to it.
    step("suite:digest", &mut || {
        out.digest = format!(
            "found={:016x};valid={valid};sweep={:016x}",
            fnv1a(configuration_to_xml(found).as_bytes()),
            fnv1a(report.render_json().as_bytes())
        );
        Ok(())
    })?;
    Ok(out)
}

/// The calibration guard: every verdict source must carry a real share
/// of candidate and probe verdicts, and most visits must find a
/// configuration. Returns the printed summary and any violation.
fn guard(counters: &Counters, visits: &[Visit], enforce: bool) -> (String, Option<String>) {
    let s = |name: &str| {
        #[allow(clippy::cast_precision_loss)]
        let v = counters.search.counter_value(name) as f64;
        v
    };
    let w = |name: &str| {
        #[allow(clippy::cast_precision_loss)]
        let v = counters.sweep.counter_value(name) as f64;
        v
    };
    #[allow(clippy::cast_precision_loss)]
    let known: f64 = visits.iter().map(|v| v.known as f64).sum();
    // Search candidates answered without simulation were either cache
    // hits or ladder decisions; the ladder's own count separates them.
    let search_reuse = (known - s("ladder.decided")).max(0.0);
    let sources = [
        (
            "reuse",
            search_reuse + w("sweep.cache_hits") + w("sweep.memo_hits"),
        ),
        // The sweep's domain edge is T0's demand-vs-window-supply test,
        // applied by the axis before the ladder ever sees the probe.
        (
            "t0",
            s("ladder.t0_unschedulable") + w("ladder.t0_unschedulable") + w("sweep.domain_edges"),
        ),
        (
            "t1+t2",
            s("ladder.t1_schedulable")
                + s("ladder.t2_schedulable")
                + w("ladder.t1_schedulable")
                + w("ladder.t2_schedulable"),
        ),
        ("simulation", s("batch.checks") + w("sweep.simulated")),
    ];
    let total: f64 = sources.iter().map(|(_, v)| v).sum();
    #[allow(clippy::cast_precision_loss)]
    let found = visits.iter().filter(|v| v.found).count() as f64 / visits.len().max(1) as f64;
    let mut summary = format!("verdict sources over {total} verdicts:");
    let mut violation = None;
    for (name, v) in sources {
        let share = rate(v, total);
        summary.push_str(&format!(" {name}={:.1}%", 100.0 * share));
        if enforce && share < 0.10 {
            violation = Some(format!(
                "verdict source {name} carries {:.1}% < 10%",
                100.0 * share
            ));
        }
    }
    summary.push_str(&format!("; found on {:.1}% of visits", 100.0 * found));
    if enforce && found < 0.5 {
        violation = Some(format!(
            "search found a configuration on {:.1}% < 50% of visits",
            100.0 * found
        ));
    }
    (summary, violation)
}

/// The measuring loop's inputs and what it has seen so far.
struct Loop {
    /// Base and edited problem of each design problem, interleaved.
    inputs: Vec<String>,
    /// Digest of each input's first visit; later visits must agree.
    digests: Vec<Option<String>>,
    visits: Vec<Visit>,
    /// Largest cache and checkpoint footprints at a round's end.
    store_bytes: (usize, usize),
}

impl Loop {
    /// Visits every input in order, round after round, each round over
    /// fresh stores, until `budget` is spent.
    fn phase(
        &mut self,
        budget: Duration,
        tracer: Option<&Arc<Tracer>>,
        counters: &Counters,
        outcome: &mut Outcome,
    ) -> Rounds {
        let mut stores = Stores::new(tracer, counters);
        let mut request = 0u64;
        // One operation is one design problem: its first visit and the
        // revisit after the edit.
        let rounds = measure(budget, self.inputs.len() / 2, |problem| {
            if problem == 0 {
                self.note_store_bytes(&stores);
                stores = Stores::new(tracer, counters);
            }
            for k in [2 * problem, 2 * problem + 1] {
                request += 1;
                let result = match tracer {
                    Some(tr) => tr.root(request, "suite", || {
                        visit(&self.inputs[k], &stores, Some(tr))
                    }),
                    None => visit(&self.inputs[k], &stores, None),
                };
                outcome.attempted += 1;
                match result {
                    Err(e) => outcome.fail(format!("visit {k}: {e}")),
                    Ok(v) => {
                        match &self.digests[k] {
                            None => self.digests[k] = Some(v.digest.clone()),
                            Some(first) => outcome.check(*first == v.digest, || {
                                format!("visit {k}: {first} then {}", v.digest)
                            }),
                        }
                        self.visits.push(v);
                    }
                }
            }
        });
        self.note_store_bytes(&stores);
        rounds
    }

    fn note_store_bytes(&mut self, stores: &Stores) {
        self.store_bytes = (
            self.store_bytes.0.max(stores.plain.0.stats().bytes),
            self.store_bytes.1.max(stores.plain.1.stats().bytes),
        );
    }

    /// Golden digests: one hash per complete block of ten visits, in
    /// input order.
    fn blocks(&self) -> BTreeMap<String, String> {
        self.digests
            .chunks(10)
            .enumerate()
            .filter(|(_, block)| block.iter().all(Option::is_some))
            .map(|(b, block)| {
                let joined: String = block.iter().flatten().map(String::as_str).collect();
                (
                    format!("visits{:03}-{:03}", 10 * b, 10 * b + block.len() - 1),
                    format!("{:016x}", fnv1a(joined.as_bytes())),
                )
            })
            .collect()
    }
}

/// The inputs of one seed — each problem's XML followed by its edited
/// revision — with their digest.
pub(crate) fn inputs(seed: u64, smoke: bool) -> (Vec<String>, u64) {
    let (problems, jobs) = if smoke { (6, 60) } else { (48, 1000) };
    let mut xmls = Vec::with_capacity(2 * problems);
    for i in 0..problems as u64 {
        let base = design_config(seed, i, jobs);
        let edited = wcet_edit(&base, sub_seed(seed, 300 + i));
        xmls.push(configuration_to_xml(&base));
        xmls.push(configuration_to_xml(&edited));
    }
    let digest = fnv1a(xmls.concat().as_bytes());
    (xmls, digest)
}

/// Runs the workload.
#[must_use]
pub fn run(args: &RunArgs) -> Outcome {
    let mut outcome = Outcome::default();
    let (inputs, setup_s) = super::timed_setup(3, &mut outcome, || inputs(args.seed, args.smoke));

    let counters = Counters {
        search: Arc::new(MetricsRecorder::new()),
        sweep: Arc::new(MetricsRecorder::new()),
    };
    let mut state = Loop {
        digests: vec![None; inputs.len()],
        inputs,
        visits: Vec::new(),
        store_bytes: (0, 0),
    };

    let untraced_budget = if args.trace {
        args.budget() / 2
    } else {
        args.budget()
    };
    let untraced = state.phase(untraced_budget, None, &counters, &mut outcome);
    let (summary, violation) = guard(&counters, &state.visits, !args.smoke);
    eprintln!("design-loop: {summary}");
    if let Some(v) = violation {
        outcome.fail(format!("calibration guard: {v}"));
    }

    if args.trace {
        let tracer = Arc::new(Tracer::new());
        let before = state.visits.len();
        let traced = state.phase(args.budget() / 2, Some(&tracer), &counters, &mut outcome);
        let traced_visits = &state.visits[before..];
        let t = |name: &str| tracer.counter(name);
        #[allow(clippy::cast_precision_loss)]
        let candidates: f64 = traced_visits.iter().map(|v| v.candidates as f64).sum();
        #[allow(clippy::cast_precision_loss)]
        let found = traced_visits.iter().filter(|v| v.found).count() as f64;
        #[allow(clippy::cast_precision_loss)]
        let values: BTreeMap<&'static str, f64> = [
            ("fastsim.steps", t("sim.steps")),
            (
                "fastsim.steps_per_s",
                rate(t("sim.steps"), t("recorded.simulate_ns") / 1e9),
            ),
            ("fastsim.wheel_wakeups", t("sim.wheel_wakeups")),
            (
                "bytecode.ops",
                rate(t("compile.ops"), t("recorded.compile")),
            ),
            ("cache.lookups", t("cache.lookups")),
            ("cache.hit_rate", rate(t("cache.hits"), t("cache.lookups"))),
            ("cache.bytes", state.store_bytes.0 as f64),
            ("compose.hits", t("compose.hits")),
            ("compose.modules", t("compose.modules")),
            ("ladder.evaluated", t("ladder.evaluated")),
            (
                "ladder.decide_rate",
                rate(t("ladder.decided"), t("ladder.evaluated")),
            ),
            ("ladder.t0", t("ladder.t0_unschedulable")),
            ("ladder.t1", t("ladder.t1_schedulable")),
            ("ladder.t2", t("ladder.t2_schedulable")),
            ("checkpoint.lookups", t("checkpoint.lookups")),
            (
                "checkpoint.hit_rate",
                rate(t("checkpoint.hits"), t("checkpoint.lookups")),
            ),
            ("checkpoint.full_hits", t("checkpoint.full_hits")),
            ("checkpoint.bytes", state.store_bytes.1 as f64),
            ("batch.checks", t("batch.checks")),
            ("batch.busy_frac", tracer.batch_busy_frac()),
            ("search.candidates", candidates),
            ("search.found_frac", rate(found, traced_visits.len() as f64)),
            ("sweep.probes", t("sweep.probes")),
            ("sweep.simulated", t("sweep.simulated")),
            (
                "sweep.reuse_rate",
                rate(t("sweep.probes") - t("sweep.simulated"), t("sweep.probes")),
            ),
            ("sweep.memo_hits", t("sweep.memo_hits")),
            ("sweep.ladder_hits", t("sweep.ladder_hits")),
        ]
        .into_iter()
        .collect();
        write_trace(args, &tracer, &mut outcome);
        outcome.metrics = per_layer(args.workload, &tracer, values, &untraced, &traced);
    } else {
        outcome.metrics = end_to_end(args.workload, setup_s, &untraced.op_medians(), &untraced);
    }

    args.golden(&mut outcome, &args.seed.to_string(), state.blocks());
    outcome
}
