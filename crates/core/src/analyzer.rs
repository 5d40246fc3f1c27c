//! The one-stop analysis entry point: a builder over the full pipeline
//! (configuration → model instance → trace → verdict), the parallel batch
//! engine of [`crate::batch`], and the compositional per-module analysis
//! of [`crate::compose`].
//!
//! Every other entry point in the workspace — the [`analyze_configuration`]
//! family, the CLI, the experiment binaries, the configuration search, the
//! analysis server — routes through this type, so behavior (metrics,
//! tie-breaking, topology handling, analysis span, caching) is defined in
//! exactly one place.
//!
//! There are two ways to hold an `Analyzer`:
//!
//! * **Bound** — [`Analyzer::new`] ties the builder to one configuration;
//!   [`run`](Analyzer::run) analyzes it.
//! * **Unbound** — [`Analyzer::configure`] carries settings only; hand it
//!   configurations later via [`analyze`](Analyzer::analyze) (one),
//!   [`analyze_all`](Analyzer::analyze_all) /
//!   [`first_schedulable`](Analyzer::first_schedulable) (a family on the
//!   batch engine), or pass it whole to
//!   [`swa_schedtool::search_with`](../../swa_schedtool/fn.search_with.html).
//!
//! Before simulating, callers ask the same settings what is already known:
//! [`lookup`](Analyzer::lookup) probes the verdict cache (composing
//! per-module entries when compositional) and
//! [`decide`](Analyzer::decide) runs the analytic
//! [`VerdictLadder`] where it applies. What to keep of a ladder decision
//! stays the caller's policy.
//!
//! [`analyze_configuration`]: crate::analyze_configuration
//!
//! ```
//! use swa_core::Analyzer;
//! use swa_ima::{
//!     Configuration, CoreRef, CoreType, CoreTypeId, Module, ModuleId, Partition, SchedulerKind,
//!     Task, Window,
//! };
//!
//! let config = Configuration {
//!     core_types: vec![CoreType::new("generic")],
//!     modules: vec![Module::homogeneous("M1", 1, CoreTypeId::from_raw(0))],
//!     partitions: vec![Partition::new(
//!         "P1",
//!         SchedulerKind::Fpps,
//!         vec![Task::new("t", 1, vec![10], 50)],
//!     )],
//!     binding: vec![CoreRef::new(ModuleId::from_raw(0), 0)],
//!     windows: vec![vec![Window::new(0, 50)]],
//!     messages: vec![],
//! };
//!
//! // Bound: analyze one configuration.
//! let report = Analyzer::new(&config).run()?;
//! assert!(report.schedulable());
//!
//! // Unbound: one settings carrier serving single and batch callers.
//! let analyzer = Analyzer::configure().parallelism(2);
//! assert!(analyzer.analyze(&config)?.schedulable());
//! let family = vec![config.clone(), config.clone()];
//! assert_eq!(analyzer.first_schedulable(&family)?.winner, Some(0));
//! # Ok::<(), swa_core::PipelineError>(())
//! ```

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use swa_ima::{Configuration, Topology};
use swa_nsa::{SimOutcome, Snapshot, TieBreak};

use crate::analysis::analyze_spanning;
use crate::batch::{run_batch, BatchMode, BatchOutcome};
use crate::cache::{CachedVerdict, VerdictCache};
use crate::canon::{canonical_config, canonicalize};
use crate::checkpoint::{Checkpoint, CheckpointStore};
use crate::compose::{
    compose_analysis, compositional_lookup, decompose, Decomposition, ModulePart,
};
use crate::error::PipelineError;
use crate::instance::SystemModel;
use crate::ladder::{LadderMode, VerdictLadder};
use crate::obs::{NoopRecorder, Recorder};
use crate::pipeline::{AnalysisReport, CompileMetrics, RunMetrics};
use crate::sysevents::{extract_system_trace, SysEvent, SystemTrace};

/// Builder-style entry point for analyzing configurations.
///
/// Defaults: canonical tie-break order, no network topology, a one
/// hyperperiod analysis span, no cache, no checkpoints, whole-configuration
/// (non-compositional) analysis.
#[derive(Clone)]
pub struct Analyzer<'a> {
    pub(crate) config: Option<&'a Configuration>,
    pub(crate) topology: Option<&'a Topology>,
    pub(crate) tie_break: TieBreak,
    pub(crate) hyperperiods: u32,
    pub(crate) recorder: Option<Arc<dyn Recorder>>,
    pub(crate) explain: bool,
    pub(crate) checkpoints: Option<Arc<dyn CheckpointStore>>,
    pub(crate) cache: Option<Arc<dyn VerdictCache>>,
    pub(crate) parallelism: usize,
    pub(crate) compositional: bool,
}

impl fmt::Debug for Analyzer<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Analyzer")
            .field("bound", &self.config.is_some())
            .field("tie_break", &self.tie_break)
            .field("hyperperiods", &self.hyperperiods)
            .field("recorder", &self.recorder.is_some())
            .field("explain", &self.explain)
            .field("checkpoints", &self.checkpoints.is_some())
            .field("cache", &self.cache.is_some())
            .field("parallelism", &self.parallelism)
            .field("compositional", &self.compositional)
            .finish_non_exhaustive()
    }
}

impl<'a> Analyzer<'a> {
    /// Starts an analysis of `config` with the default settings.
    #[must_use]
    pub fn new(config: &'a Configuration) -> Self {
        Self {
            config: Some(config),
            ..Analyzer::configure()
        }
    }

    /// Starts an *unbound* settings carrier: no configuration yet, hand
    /// them in later through [`analyze`](Self::analyze),
    /// [`analyze_all`](Self::analyze_all) or
    /// [`first_schedulable`](Self::first_schedulable). This is the one
    /// builder that serves single, batch and search callers alike.
    #[must_use]
    pub fn configure() -> Analyzer<'static> {
        Analyzer {
            config: None,
            topology: None,
            tie_break: TieBreak::Canonical,
            hyperperiods: 1,
            recorder: None,
            explain: false,
            checkpoints: None,
            cache: None,
            parallelism: 0,
            compositional: false,
        }
    }

    /// Attaches a checkpoint store: the run warm-starts from the latest
    /// stored snapshot of this configuration (simulating only the missing
    /// suffix — or nothing at all, if a checkpoint already covers the
    /// horizon) and checkpoints its own end state for later runs.
    ///
    /// Checkpoints are keyed by the configuration's canonical bytes, which
    /// do not cover a network topology, so the store is ignored when
    /// [`topology`](Self::topology) is set. Warm and cold runs produce
    /// byte-identical traces and verdicts (the simulator's snapshot/resume
    /// is exact); only the time spent simulating changes. Under
    /// [`compositional`](Self::compositional) analysis the store is probed
    /// and filled *per module*, so editing one partition leaves every
    /// other module's entries warm.
    #[must_use]
    pub fn checkpoints(mut self, store: Arc<dyn CheckpointStore>) -> Self {
        self.checkpoints = Some(store);
        self
    }

    /// Attaches a verdict cache the analyzer **inserts** results into:
    /// the whole-configuration key on every successful run, plus one key
    /// per module under [`compositional`](Self::compositional) analysis.
    /// The analyzer never serves a run *from* the cache (a run always
    /// produces a full [`AnalysisReport`]; a cached verdict has no trace) —
    /// callers probe first with [`lookup`](Self::lookup). Ignored when
    /// a [`topology`](Self::topology) is set, since cache keys do not
    /// cover topologies.
    #[must_use]
    pub fn cache(mut self, cache: Arc<dyn VerdictCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches an observability sink: per-phase spans, compile/step
    /// counters, and — if the recorder
    /// [`wants_events`](Recorder::wants_events) — every synchronization
    /// event of the simulation, rendered. The default (`None`) records
    /// nothing and adds no per-step cost.
    #[must_use]
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Requests failure forensics: if interpretation fails, the run is
    /// deterministically replayed to capture a structured
    /// [`Diagnosis`](swa_nsa::Diagnosis) of the stuck state, returned via
    /// [`PipelineError::Diagnosed`]. Off by default (the extra replay only
    /// happens on the error path, but the error type changes).
    #[must_use]
    pub fn explain(mut self, explain: bool) -> Self {
        self.explain = explain;
        self
    }

    /// Worker threads for batch analysis and the compositional per-module
    /// fan-out; `0` (the default) uses every available core. A single
    /// whole-configuration [`run`](Self::run) is unaffected.
    #[must_use]
    pub fn parallelism(mut self, workers: usize) -> Self {
        self.parallelism = workers;
        self
    }

    /// Requests compositional per-module analysis: the configuration is
    /// split along module boundaries ([`decompose`]), each module analyzed
    /// independently (fanned over the batch engine), and the verdicts
    /// composed — the whole configuration is schedulable iff every module
    /// is, and an unschedulable diagnosis names the failing modules.
    ///
    /// Soundness: decomposition only applies when modules are genuinely
    /// independent (no cross-module virtual links and matching per-module
    /// hyperperiods); anything else falls back to whole-configuration
    /// analysis transparently, as do runs with a topology, `explain`, or
    /// an event-streaming recorder (those are whole-run features).
    /// Verdicts are identical either way; what changes is *reuse*: the
    /// checkpoint store and verdict cache are keyed per module, so a
    /// near-duplicate configuration (one partition edited) stays warm for
    /// every unchanged module.
    #[must_use]
    pub fn compositional(mut self, compositional: bool) -> Self {
        self.compositional = compositional;
        self
    }

    /// Uses an explicit tie-break order among simultaneously enabled
    /// transitions (the determinism experiments; the analysis is invariant
    /// to it by the paper's Sect. 3 theorem).
    #[must_use]
    pub fn tie_break(mut self, tie_break: TieBreak) -> Self {
        self.tie_break = tie_break;
        self
    }

    /// Builds the model over a switched-network topology: routed messages
    /// become per-switch hop chains instead of single-jump virtual links.
    #[must_use]
    pub fn topology(mut self, topology: &'a Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// As [`topology`](Self::topology) with an optional reference (the
    /// common shape at call sites that parsed an XML file).
    #[must_use]
    pub fn topology_opt(mut self, topology: Option<&'a Topology>) -> Self {
        self.topology = topology;
        self
    }

    /// Extends the simulation horizon to `hyperperiods ≥ 1` repetitions of
    /// the window schedule (values below 1 are clamped to 1). One
    /// hyperperiod decides schedulability; longer horizons are for
    /// steady-state and periodicity studies.
    #[must_use]
    pub fn horizon(mut self, hyperperiods: u32) -> Self {
        self.hyperperiods = hyperperiods.max(1);
        self
    }

    /// The verdict the attached cache already holds for `config`, probed
    /// with this analyzer's horizon: the whole-configuration key, or —
    /// under [`compositional`](Self::compositional) analysis —
    /// [`compositional_lookup`], which also composes a verdict from
    /// per-module entries left behind by *other* configurations. `None`
    /// without a cache or with a [`topology`](Self::topology) (cache keys
    /// do not cover topologies, so [`run`](Self::run) never fills them
    /// there either).
    ///
    /// The entry may come from any caller sharing the cache; its
    /// [`decided_by`](CachedVerdict::decided_by) says whether it carries
    /// simulated job counts.
    #[must_use]
    pub fn lookup(&self, config: &Configuration) -> Option<Arc<CachedVerdict>> {
        let cache = self.cache.as_deref().filter(|_| self.topology.is_none())?;
        if self.compositional {
            compositional_lookup(cache, config, self.hyperperiods)
        } else {
            cache.lookup(&canonicalize(config, self.hyperperiods))
        }
    }

    /// An analytic decision for `config` from the [`VerdictLadder`] tiers
    /// selected by `mode`, without simulating. `None` when `mode` is
    /// [`LadderMode::Off`], when the horizon spans more than one
    /// hyperperiod (the tiers reason over one), when
    /// [`explain`](Self::explain) asks for the full run's forensics, or
    /// when no tier decides. The `ladder.*` counters go to the attached
    /// recorder.
    ///
    /// Nothing is inserted into the cache: ladder verdicts carry no
    /// job-level counts, so whether to keep them is the caller's policy.
    #[must_use]
    pub fn decide(&self, config: &Configuration, mode: LadderMode) -> Option<Arc<CachedVerdict>> {
        if self.hyperperiods != 1 || self.explain {
            return None;
        }
        let recorder = self.recorder.as_deref().unwrap_or(&NoopRecorder);
        let decision = VerdictLadder::new(mode).evaluate(config, recorder)?;
        Some(Arc::new(CachedVerdict::from_ladder(&decision, config)))
    }

    /// Analyzes one configuration with this analyzer's settings — the
    /// unbound counterpart of [`run`](Self::run).
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run).
    pub fn analyze(&self, config: &Configuration) -> Result<AnalysisReport, PipelineError> {
        Analyzer {
            config: Some(config),
            ..self.clone()
        }
        .run()
    }

    /// Checks a family of candidates on the batch engine until the first
    /// (lowest-index) schedulable one is certain, cancelling outstanding
    /// work beyond it. Deterministic regardless of
    /// [`parallelism`](Self::parallelism): the winner is exactly what a
    /// sequential scan would return.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run), for the same candidate a sequential loop
    /// would have failed on.
    pub fn first_schedulable(&self, configs: &[Configuration]) -> Result<BatchOutcome, PipelineError> {
        run_batch(configs, self, BatchMode::FirstSchedulable)
    }

    /// Checks every candidate in the family (no early cancellation) and
    /// reports all verdicts.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run), for the same candidate a sequential loop
    /// would have failed on.
    pub fn analyze_all(&self, configs: &[Configuration]) -> Result<BatchOutcome, PipelineError> {
        run_batch(configs, self, BatchMode::Exhaustive)
    }

    /// Runs the full pipeline: Algorithm 1 instance construction,
    /// deterministic interpretation, trace translation and the Sect. 2.1
    /// schedulability criterion. Under
    /// [`compositional`](Self::compositional) analysis the pipeline runs
    /// once per module and the reports are composed.
    ///
    /// # Panics
    ///
    /// Panics if no configuration is bound — build with
    /// [`Analyzer::new`], or use [`analyze`](Self::analyze) on an
    /// [`Analyzer::configure`] carrier.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Model`] for invalid configurations and
    /// [`PipelineError::Simulation`] if interpretation fails (a modeling
    /// bug, not an unschedulable configuration — unschedulable
    /// configurations produce `schedulable == false`, not errors).
    pub fn run(&self) -> Result<AnalysisReport, PipelineError> {
        let config = self.config.expect(
            "Analyzer has no configuration bound; use Analyzer::new(&config) or analyze(&config)",
        );
        let wants_events = self.recorder.as_ref().is_some_and(|r| r.wants_events());
        // Compositional analysis applies only where it is sound and
        // observationally equivalent: no topology (keys and decomposition
        // do not cover one), no forensics replay and no event streaming
        // (both are whole-run features).
        if self.compositional && self.topology.is_none() && !self.explain && !wants_events {
            if let Decomposition::Modules(parts) = decompose(config) {
                return self.run_compositional(config, &parts);
            }
        }
        self.run_whole(config)
    }

    /// The per-module analysis: fan the extracted sub-configurations over
    /// the batch engine (sharing this analyzer's checkpoint store and
    /// cache, so reuse is per module), then compose the reports.
    fn run_compositional(
        &self,
        config: &Configuration,
        parts: &[ModulePart],
    ) -> Result<AnalysisReport, PipelineError> {
        let configs: Vec<Configuration> = parts.iter().map(|p| p.sub.clone()).collect();
        let per_module = Analyzer {
            // Batch-level metrics would double-count the phases the
            // composed report already sums; the recorder sees the
            // composition once, below.
            recorder: None,
            compositional: false,
            ..self.clone()
        };
        let outcome = run_batch(&configs, &per_module, BatchMode::Exhaustive)?;

        let mut analyses = Vec::with_capacity(parts.len());
        let mut events: Vec<SysEvent> = Vec::new();
        let mut metrics = RunMetrics::default();
        for (part, result) in parts.iter().zip(&outcome.results) {
            let report = &result
                .as_ref()
                .expect("exhaustive mode evaluates every sub-configuration")
                .report;
            events.extend(report.trace.events.iter().map(|e| SysEvent {
                kind: e.kind,
                task: part.global_task(e.task),
                job: e.job,
                time: e.time,
            }));
            metrics.build += report.metrics.build;
            metrics.compile.time += report.metrics.compile.time;
            metrics.compile.programs += report.metrics.compile.programs;
            metrics.compile.ops += report.metrics.compile.ops;
            metrics.simulate += report.metrics.simulate;
            metrics.analyze += report.metrics.analyze;
            metrics.nsa_events += report.metrics.nsa_events;
            metrics.steps += report.metrics.steps;
            metrics.wheel_wakeups += report.metrics.wheel_wakeups;
            analyses.push(report.analysis.clone());
        }
        // Merge the module traces on the shared global timeline. The sort
        // is stable, so within a module (and within equal times, across
        // modules in module order) event order is preserved.
        events.sort_by_key(|e| e.time);

        let analysis = compose_analysis(parts, &analyses);
        if let Some(cache) = &self.cache {
            // The module keys were inserted by the sub-runs; the composed
            // whole-configuration entry makes an exact repeat a single
            // probe.
            cache.insert(
                &canonicalize(config, self.hyperperiods),
                Arc::new(CachedVerdict::from_analysis(&analysis)),
            );
        }
        if let Some(recorder) = &self.recorder {
            metrics.record_to(recorder.as_ref());
            recorder.counter("compose.modules", parts.len() as u64);
        }
        Ok(AnalysisReport {
            analysis,
            trace: SystemTrace { events },
            metrics,
        })
    }

    /// The whole-configuration pipeline (also the per-module pipeline: a
    /// compositional run reaches here once per extracted sub-configuration,
    /// through the batch engine).
    fn run_whole(&self, config: &Configuration) -> Result<AnalysisReport, PipelineError> {
        let t0 = Instant::now();
        let model =
            SystemModel::build_spanning_with_topology(config, self.topology, self.hyperperiods)?;
        let build = t0.elapsed();

        // A warm bytecode cache before the compile phase means this model
        // was compiled by an earlier pass — a cache hit worth counting.
        let cache_warm = model.network().is_compiled();

        // Force the lazy bytecode compilation outside the simulate phase so
        // the metrics separate one-time lowering cost from interpretation.
        let tc = Instant::now();
        let stats = model.network().compiled().stats();
        let compile = CompileMetrics {
            time: tc.elapsed(),
            programs: stats.programs,
            ops: stats.ops,
        };

        let sim = model.simulator().tie_break(self.tie_break.clone());
        let wants_events = self.recorder.as_ref().is_some_and(|r| r.wants_events());

        // Checkpoint warm-start: keyed by the configuration's canonical
        // bytes, which do not cover a topology, so the store only applies
        // to topology-free analyses.
        let store = self.checkpoints.as_ref().filter(|_| self.topology.is_none());
        let ckpt_key = store.map(|_| canonical_config(config));
        let resumed = match (store, &ckpt_key) {
            (Some(store), Some(key)) => store.lookup_latest(key, model.horizon()),
            _ => None,
        };
        let full_hit = resumed
            .as_ref()
            .is_some_and(|cp| cp.time() >= model.horizon());

        let cold_run = || {
            if wants_events {
                let recorder = self.recorder.clone().expect("wants_events implies recorder");
                let network = model.network();
                sim.run_with(move |e, _| recorder.event("sync", e.time, &e.render(network)))
            } else {
                sim.run()
            }
        };

        let t1 = Instant::now();
        let run_result = if let Some(cp) = &resumed {
            // An event-streaming recorder sees the full run either way:
            // the stored prefix is replayed to it before any live suffix.
            if wants_events {
                let recorder = self.recorder.as_ref().expect("wants_events implies recorder");
                let network = model.network();
                for e in cp.prefix.iter() {
                    recorder.event("sync", e.time, &e.render(network));
                }
            }
            if full_hit {
                // The checkpointed run already covers the horizon: the
                // outcome is reconstructed without simulating at all.
                Ok(SimOutcome {
                    trace: cp.prefix.clone(),
                    final_state: cp.snapshot.state.clone(),
                    steps: cp.snapshot.steps,
                    stop: cp.stop,
                    stats: cp.snapshot.stats,
                })
            } else {
                match sim.resume(&cp.snapshot) {
                    Ok(mut session) => {
                        let run = if wants_events {
                            let recorder =
                                self.recorder.clone().expect("wants_events implies recorder");
                            let network = model.network();
                            session.run_until_with(model.horizon(), move |e, _| {
                                recorder.event("sync", e.time, &e.render(network));
                            })
                        } else {
                            session.run_until(model.horizon())
                        };
                        // System-trace extraction is not prefix-compositional
                        // (job attribution carries state across events), so
                        // the stored prefix is stitched back onto the live
                        // suffix before translation.
                        run.map(|_| {
                            let mut outcome = session.into_outcome();
                            let mut trace = cp.prefix.clone();
                            trace.extend(outcome.trace);
                            outcome.trace = trace;
                            outcome
                        })
                    }
                    // A snapshot that does not fit this model (a stale or
                    // misused store) is unusable; run cold instead.
                    Err(_) => cold_run(),
                }
            }
        } else {
            cold_run()
        };
        let outcome = match run_result {
            Ok(outcome) => outcome,
            Err(error) => {
                if self.explain {
                    // The simulation is deterministic, so replaying it
                    // reproduces the identical stuck state, this time with
                    // forensics attached (the hot path stays untouched).
                    if let Err(explained) = sim.run_explained() {
                        return Err(explained.into());
                    }
                }
                return Err(error.into());
            }
        };
        let simulate = t1.elapsed();

        // Checkpoint the end state of every successful simulation (a full
        // hit re-inserting at the same time would only churn the LRU).
        if let (Some(store), Some(key)) = (store, &ckpt_key) {
            if !full_hit {
                store.insert(
                    key,
                    Arc::new(Checkpoint {
                        snapshot: Snapshot {
                            state: outcome.final_state.clone(),
                            steps: outcome.steps,
                            stats: outcome.stats,
                            trace_len: outcome.trace.len() as u64,
                        },
                        prefix: outcome.trace.clone(),
                        stop: outcome.stop,
                    }),
                );
            }
        }

        let t2 = Instant::now();
        let trace = extract_system_trace(&model, config, &outcome.trace);
        let analysis = analyze_spanning(config, &trace, self.hyperperiods);
        let analyze_time = t2.elapsed();

        // Record the verdict under the configuration's request key. On the
        // compositional path `config` here *is* a module's extracted
        // sub-configuration, so this one insert serves both layers.
        if self.topology.is_none() {
            if let Some(cache) = &self.cache {
                cache.insert(
                    &canonicalize(config, self.hyperperiods),
                    Arc::new(CachedVerdict::from_analysis(&analysis)),
                );
            }
        }

        let metrics = RunMetrics {
            build,
            compile,
            simulate,
            analyze: analyze_time,
            nsa_events: outcome.trace.len(),
            steps: outcome.steps,
            wheel_wakeups: outcome.stats.wheel_wakeups,
        };
        if let Some(recorder) = &self.recorder {
            metrics.record_to(recorder.as_ref());
            recorder.counter("bytecode.cache_hits", u64::from(cache_warm));
            // Whether anything expanded the templates into per-instance
            // automata (the bytecode path never needs them).
            recorder.counter(
                "instance.expanded",
                u64::from(model.network().is_materialized()),
            );
        }

        Ok(AnalysisReport {
            analysis,
            trace,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use std::io::{self, Write};
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    use swa_ima::{
        CoreRef, CoreType, CoreTypeId, Module, ModuleId, Partition, SchedulerKind, Task, Window,
    };

    use swa_nsa::EvalEngine;

    use super::*;
    use crate::obs::{JsonlSink, MetricsRecorder};

    fn config() -> Configuration {
        Configuration {
            core_types: vec![CoreType::new("ct")],
            modules: vec![Module::homogeneous("M", 1, CoreTypeId::from_raw(0))],
            partitions: vec![Partition::new(
                "P",
                SchedulerKind::Fpps,
                vec![Task::new("t", 1, vec![10], 50)],
            )],
            binding: vec![CoreRef::new(ModuleId::from_raw(0), 0)],
            windows: vec![vec![Window::new(0, 50)]],
            messages: vec![],
        }
    }

    /// Two independent modules, three partitions (P0, P2 on M0; P1 on M1),
    /// hyperperiod 200 everywhere. `wcet1` sizes P1's task so the M1
    /// module's schedulability is tunable.
    fn two_module_config(wcet1: i64) -> Configuration {
        Configuration {
            core_types: vec![CoreType::new("ct")],
            modules: vec![
                Module::homogeneous("M0", 1, CoreTypeId::from_raw(0)),
                Module::homogeneous("M1", 1, CoreTypeId::from_raw(0)),
            ],
            partitions: vec![
                Partition::new("P0", SchedulerKind::Fpps, vec![Task::new("a", 1, vec![10], 200)]),
                Partition::new("P1", SchedulerKind::Fpps, vec![Task::new("b", 1, vec![wcet1], 200)]),
                Partition::new("P2", SchedulerKind::Edf, vec![Task::new("c", 1, vec![5], 200)]),
            ],
            binding: vec![
                CoreRef::new(ModuleId::from_raw(0), 0),
                CoreRef::new(ModuleId::from_raw(1), 0),
                CoreRef::new(ModuleId::from_raw(0), 0),
            ],
            windows: vec![
                vec![Window::new(0, 60)],
                vec![Window::new(0, 40), Window::new(100, 130)],
                vec![Window::new(70, 95)],
            ],
            messages: vec![],
        }
    }

    #[test]
    fn recorder_captures_spans_and_counters() {
        let config = config();
        let recorder = Arc::new(MetricsRecorder::new());
        let report = Analyzer::new(&config)
            .recorder(recorder.clone())
            .run()
            .unwrap();
        assert!(report.schedulable());
        assert!(recorder.counter_value("sim.steps") > 0);
        assert_eq!(recorder.counter_value("sim.steps"), report.metrics.steps);
        assert!(recorder.counter_value("compile.programs") > 0);
        assert!(recorder.counter_value("sim.events") > 0);
        // A fresh model is always compiled cold.
        assert_eq!(recorder.counter_value("bytecode.cache_hits"), 0);
        assert!(recorder.span_total("simulate") > Duration::ZERO);
        assert_eq!(recorder.spans()["build"].count, 1);
    }

    #[test]
    fn the_bytecode_path_never_expands_the_templates() {
        let config = config();
        let recorder = Arc::new(MetricsRecorder::new());
        Analyzer::new(&config)
            .recorder(recorder.clone())
            .run()
            .unwrap();
        assert_eq!(recorder.counter_value("instance.expanded"), 0);

        // The counter is not vacuous: the AST walker reads the expanded
        // automata, so running it on a model materializes the network.
        let model = SystemModel::build(&config).unwrap();
        model.simulator().run().unwrap();
        assert!(!model.network().is_materialized());
        model.simulator().engine(EvalEngine::Ast).run().unwrap();
        assert!(model.network().is_materialized());
    }

    #[test]
    fn recorder_snapshot_matches_report_metrics() {
        let config = config();
        let recorder = Arc::new(MetricsRecorder::new());
        let report = Analyzer::new(&config)
            .recorder(recorder.clone())
            .run()
            .unwrap();
        let json = recorder.to_json();
        assert!(json.contains("\"sim.steps\""), "{json}");
        assert!(json.contains("\"simulate\""), "{json}");
        assert_eq!(
            recorder.counter_value("sim.events"),
            report.metrics.nsa_events as u64
        );
    }

    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<Vec<u8>>>);
    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn event_log_streams_every_synchronization() {
        let config = config();
        let buf = Shared::default();
        let sink = Arc::new(JsonlSink::to_writer(Box::new(buf.clone())));
        let report = Analyzer::new(&config).recorder(sink.clone()).run().unwrap();
        sink.flush().unwrap();

        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let events = text
            .lines()
            .filter(|l| l.contains("\"kind\": \"sync\""))
            .count();
        assert_eq!(events, report.metrics.nsa_events, "one line per event");
        assert!(
            text.lines().any(|l| l.contains("\"kind\": \"counter\"")),
            "metrics land in the same log:\n{text}"
        );
    }

    #[test]
    fn event_forwarding_does_not_change_the_verdict() {
        let config = config();
        let plain = Analyzer::new(&config).run().unwrap();
        let buf = Shared::default();
        let sink = Arc::new(JsonlSink::to_writer(Box::new(buf.clone())));
        let logged = Analyzer::new(&config).recorder(sink).run().unwrap();
        assert_eq!(plain.schedulable(), logged.schedulable());
        assert_eq!(plain.metrics.steps, logged.metrics.steps);
        assert_eq!(plain.metrics.nsa_events, logged.metrics.nsa_events);
    }

    #[test]
    fn explain_on_a_sound_model_is_a_no_op() {
        let config = config();
        let report = Analyzer::new(&config).explain(true).run().unwrap();
        assert!(report.schedulable());
    }

    #[test]
    #[should_panic(expected = "no configuration bound")]
    fn running_an_unbound_analyzer_panics() {
        let _ = Analyzer::configure().run();
    }

    #[test]
    fn unbound_analyzer_serves_single_and_batch_callers() {
        let config = config();
        let analyzer = Analyzer::configure().parallelism(2);
        assert!(analyzer.analyze(&config).unwrap().schedulable());

        let family = vec![config.clone(), config.clone(), config];
        let all = analyzer.analyze_all(&family).unwrap();
        assert_eq!(all.evaluated(), 3);
        let first = analyzer.first_schedulable(&family).unwrap();
        assert_eq!(first.winner, Some(0));
    }

    #[test]
    fn warm_start_matches_cold_run_exactly() {
        let config = config();
        let cold = Analyzer::new(&config).horizon(3).run().unwrap();

        let store = Arc::new(crate::ShardedCheckpointStore::new(1 << 20));
        // Seed the store with a shorter run of the same configuration.
        let seed = Analyzer::new(&config)
            .checkpoints(store.clone())
            .run()
            .unwrap();
        assert!(seed.schedulable());
        assert_eq!(store.stats().insertions, 1);

        // The longer run resumes the seed's checkpoint (partial hit) and
        // must reproduce the cold analysis verbatim.
        let warm = Analyzer::new(&config)
            .checkpoints(store.clone())
            .horizon(3)
            .run()
            .unwrap();
        assert_eq!(store.stats().hits, 1);
        assert_eq!(store.stats().full_hits, 0);
        assert_eq!(warm.schedulable(), cold.schedulable());
        assert_eq!(warm.trace, cold.trace);
        assert_eq!(warm.metrics.steps, cold.metrics.steps);
        assert_eq!(warm.metrics.nsa_events, cold.metrics.nsa_events);
        assert_eq!(warm.analysis, cold.analysis);

        // Repeating the same horizon is a full hit: no simulation at all,
        // still the identical report.
        let again = Analyzer::new(&config)
            .checkpoints(store.clone())
            .horizon(3)
            .run()
            .unwrap();
        assert_eq!(store.stats().full_hits, 1);
        assert_eq!(again.trace, cold.trace);
        assert_eq!(again.analysis, cold.analysis);
    }

    #[test]
    fn checkpoint_at_exactly_the_horizon_is_a_full_hit() {
        // Time-ladder boundary regression: a checkpoint stored at exactly
        // `max_time` must be served as a *full* hit (no simulation), not a
        // warm start.
        let config = config();
        let store = Arc::new(crate::ShardedCheckpointStore::new(1 << 20));
        let seeded = Analyzer::new(&config)
            .checkpoints(store.clone())
            .horizon(2)
            .run()
            .unwrap();
        assert_eq!(store.stats().insertions, 1);

        // Same horizon again: the stored checkpoint sits exactly at
        // `max_time`, and the boundary is inclusive.
        let replay = Analyzer::new(&config)
            .checkpoints(store.clone())
            .horizon(2)
            .run()
            .unwrap();
        let stats = store.stats();
        assert_eq!(stats.full_hits, 1, "exact-time hit is full");
        assert_eq!(stats.insertions, 1, "a full hit re-inserts nothing");
        assert_eq!(replay.trace, seeded.trace);
        assert_eq!(replay.analysis, seeded.analysis);
    }

    #[test]
    fn warm_start_replays_the_full_event_stream() {
        let config = config();
        let store = Arc::new(crate::ShardedCheckpointStore::new(1 << 20));
        Analyzer::new(&config)
            .checkpoints(store.clone())
            .run()
            .unwrap();

        let buf = Shared::default();
        let sink = Arc::new(JsonlSink::to_writer(Box::new(buf.clone())));
        let warm = Analyzer::new(&config)
            .checkpoints(store)
            .horizon(2)
            .recorder(sink.clone())
            .run()
            .unwrap();
        sink.flush().unwrap();

        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let events = text
            .lines()
            .filter(|l| l.contains("\"kind\": \"sync\""))
            .count();
        assert_eq!(
            events, warm.metrics.nsa_events,
            "replayed prefix + live suffix cover the whole run"
        );
    }

    #[test]
    fn checkpoints_are_ignored_under_a_topology() {
        use swa_ima::Topology;
        let config = config();
        let store = Arc::new(crate::ShardedCheckpointStore::new(1 << 20));
        let topology = Topology::default();
        Analyzer::new(&config)
            .topology(&topology)
            .checkpoints(store.clone())
            .run()
            .unwrap();
        let stats = store.stats();
        assert_eq!(stats.hits + stats.misses + stats.insertions, 0);
    }

    #[test]
    fn compositional_run_matches_the_whole_run() {
        for wcet1 in [20, 50] {
            let config = two_module_config(wcet1);
            let whole = Analyzer::new(&config).run().unwrap();
            let composed = Analyzer::new(&config).compositional(true).run().unwrap();
            assert_eq!(composed.analysis, whole.analysis, "wcet1={wcet1}");
            assert_eq!(composed.verdict_in(&config), whole.verdict_in(&config));
        }
    }

    #[test]
    fn compositional_diagnosis_names_the_failing_module() {
        // P1's task cannot fit its windows: M1 is the failing module.
        let config = two_module_config(100);
        let report = Analyzer::new(&config).compositional(true).run().unwrap();
        let verdict = report.verdict_in(&config);
        let diagnosis = verdict.diagnosis().expect("unschedulable");
        assert_eq!(diagnosis.failing_modules, vec!["M1".to_string()]);
    }

    #[test]
    fn compositional_run_fills_module_and_whole_cache_entries() {
        let config = two_module_config(20);
        let cache = Arc::new(crate::ShardedVerdictCache::new(1 << 20));
        let report = Analyzer::new(&config)
            .compositional(true)
            .cache(cache.clone() as Arc<dyn VerdictCache>)
            .run()
            .unwrap();
        // One entry per module plus the composed whole-configuration entry.
        assert_eq!(cache.stats().insertions, 3);

        // The whole entry answers an exact repeat...
        let whole = cache.lookup(&canonicalize(&config, 1)).expect("whole hit");
        assert_eq!(whole.schedulable, report.schedulable());
        // ...and the module entries answer per-module probes.
        for request in crate::canon::canonicalize_modules(&config, 1).unwrap() {
            assert!(cache.lookup(&request).is_some(), "module entry present");
        }
    }

    #[test]
    fn compositional_run_reuses_sibling_module_checkpoints() {
        let config = two_module_config(20);
        let store = Arc::new(crate::ShardedCheckpointStore::new(1 << 22));
        Analyzer::new(&config)
            .compositional(true)
            .checkpoints(store.clone())
            .run()
            .unwrap();
        assert_eq!(store.stats().insertions, 2, "one checkpoint per module");

        // Edit one module's partition: the other module's checkpoint stays
        // warm — a full hit, no simulation for it at all.
        let edited = two_module_config(25);
        Analyzer::new(&edited)
            .compositional(true)
            .checkpoints(store.clone())
            .run()
            .unwrap();
        let stats = store.stats();
        assert_eq!(stats.full_hits, 1, "unchanged module served from its checkpoint");
        assert_eq!(stats.insertions, 3, "only the edited module re-simulated");
    }

    #[test]
    fn compositional_falls_back_on_cross_module_messages() {
        use swa_ima::{Message, TaskRef};
        let mut config = two_module_config(20);
        config.messages = vec![Message::new(
            "m",
            TaskRef::new(swa_ima::PartitionId::from_raw(0), 0),
            TaskRef::new(swa_ima::PartitionId::from_raw(1), 0),
            3,
            5,
        )];
        let whole = Analyzer::new(&config).run().unwrap();
        let fallback = Analyzer::new(&config).compositional(true).run().unwrap();
        assert_eq!(fallback.analysis, whole.analysis);
        assert!(matches!(
            decompose(&config),
            Decomposition::Whole(crate::FallbackReason::CrossModuleMessage { .. })
        ));
    }

    #[test]
    fn lookup_and_decide_answer_only_where_they_may() {
        use crate::ladder::DecidedBy;
        use swa_ima::Topology;

        let light = config();
        let mut overloaded = config();
        overloaded.partitions[0].tasks[0].wcet = vec![30];
        overloaded.windows[0] = vec![Window::new(0, 20)];

        // lookup: a cache holding only the module entries of `config`
        // (left by analyzing its sub-configurations on their own), and
        // one holding only its whole key.
        let config = two_module_config(20);
        let Decomposition::Modules(parts) = decompose(&config) else {
            panic!("expected a decomposition");
        };
        let subs: Vec<Configuration> = parts.iter().map(|p| p.sub.clone()).collect();
        let modules = Arc::new(crate::ShardedVerdictCache::new(1 << 20));
        Analyzer::configure()
            .cache(modules.clone())
            .analyze_all(&subs)
            .unwrap();
        let whole = Arc::new(crate::ShardedVerdictCache::new(1 << 20));
        let report = Analyzer::new(&config).cache(whole.clone()).run().unwrap();
        let topology = Topology::default();
        // Rows run in order: the composed hit inserts the whole key back,
        // so the topology row shows the gate, not a miss.
        let lookups: [(&str, Analyzer<'_>, bool); 6] = [
            ("no cache", Analyzer::configure(), false),
            (
                "whole key absent",
                Analyzer::configure().cache(modules.clone()),
                false,
            ),
            (
                "composed hit",
                Analyzer::configure()
                    .cache(modules.clone())
                    .compositional(true),
                true,
            ),
            (
                "topology",
                Analyzer::configure()
                    .cache(modules.clone())
                    .compositional(true)
                    .topology(&topology),
                false,
            ),
            (
                "whole hit",
                Analyzer::configure().cache(whole.clone()),
                true,
            ),
            (
                "other horizon",
                Analyzer::configure().cache(whole.clone()).horizon(2),
                false,
            ),
        ];
        for (name, analyzer, hit) in lookups {
            let found = analyzer.lookup(&config);
            assert_eq!(found.is_some(), hit, "{name}");
            if let Some(v) = found {
                assert_eq!(*v, CachedVerdict::from_report(&report), "{name}");
            }
        }

        // decide: gated by mode, horizon and explain; T0 catches an
        // overload, T1 certifies the light configuration.
        let recorder = Arc::new(MetricsRecorder::new());
        let base = Analyzer::configure().recorder(recorder.clone());
        let decisions = [
            ("off", base.clone(), &light, LadderMode::Off, None),
            (
                "two hyperperiods",
                base.clone().horizon(2),
                &light,
                LadderMode::Full,
                None,
            ),
            (
                "explain",
                base.clone().explain(true),
                &light,
                LadderMode::Full,
                None,
            ),
            (
                "t0",
                base.clone(),
                &overloaded,
                LadderMode::Fast,
                Some(DecidedBy::Utilization),
            ),
            (
                "t1",
                base.clone(),
                &light,
                LadderMode::Fast,
                Some(DecidedBy::WindowRta),
            ),
        ];
        for (name, analyzer, config, mode, expected) in decisions {
            let decided = analyzer.decide(config, mode);
            assert_eq!(decided.as_ref().map(|v| v.decided_by), expected, "{name}");
            if let Some(v) = decided {
                assert_eq!(
                    v.schedulable,
                    expected == Some(DecidedBy::WindowRta),
                    "{name}"
                );
                assert_eq!((v.jobs, v.missed_jobs), (0, 0), "{name}");
            }
        }
        // Only the two ungated rows reached the ladder, through the
        // attached recorder.
        assert_eq!(recorder.counter_value("ladder.evaluated"), 2);
    }

    #[test]
    fn batch_recorder_receives_batch_metrics() {
        let configs = vec![config(), config()];
        let recorder = Arc::new(MetricsRecorder::new());
        let out = Analyzer::configure()
            .parallelism(2)
            .recorder(recorder.clone())
            .analyze_all(&configs)
            .unwrap();
        assert_eq!(out.evaluated(), 2);
        assert_eq!(recorder.counter_value("batch.checks"), 2);
        assert!(recorder.span_total("batch.wall") > Duration::ZERO);
        assert_eq!(recorder.counter_value("batch.worker.0.checks") + recorder.counter_value("batch.worker.1.checks"), 2);
    }

}
