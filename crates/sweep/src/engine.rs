//! The probe engine: scaled-configuration feasibility with tiered reuse.
//!
//! [`SweepEngine`] turns "is factor `f` along axis `a` feasible?" into the
//! cheapest available answer, in order:
//!
//! 1. **Quantization** — factors snap to a fixed grid (default 1/1024),
//!    so bisection midpoints that round to the same integer configuration
//!    collapse to the same probe.
//! 2. **Memo** — an in-sweep table keyed by `(axis, quantized factor)`.
//! 3. **Verdict cache** — the scaled configuration's canonical key (plus
//!    the compositional per-module keys when enabled), shared with every
//!    other caller of the [`Analyzer`].
//! 4. **Simulation** — the full pipeline, warm-started from the
//!    checkpoint ladder: checkpoint keys are canonical configuration
//!    bytes, so the *nearest already-simulated parameter point* is the
//!    one whose scaled configuration rounds to identical bytes (always
//!    true for re-probed factors and, under compositional analysis, for
//!    every module a per-task probe does not touch — those modules resume
//!    from full checkpoints without simulating).
//!
//! Every tier increments a `sweep.*` [`Recorder`] counter, so the reuse
//! rate `(probes − simulated) / probes` is measurable, not assumed.

use std::collections::HashMap;
use std::sync::Arc;

use swa_core::{chain_latency, Analyzer, CheckpointStore, NoopRecorder, Recorder, VerdictCache};
use swa_ima::{Configuration, TaskRef};

use crate::axis::Axis;
use crate::breakdown::{breakdown_search, BreakdownResult, SearchOptions, SearchStep};
use crate::error::SweepError;

/// Options of a sweep run (shared by the CLI and the serve endpoint — the
/// defaults must agree so both produce identical reports).
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Breakdown-search options (tolerance, probe budget, factor range).
    pub search: SearchOptions,
    /// Analysis span in hyperperiods.
    pub hyperperiods: u32,
    /// Compositional per-module analysis (per-module cache/checkpoint
    /// reuse; per-task probes then re-simulate only the touched module).
    pub compositional: bool,
    /// Gate every probe on end-to-end chain latency as well as
    /// schedulability.
    pub chains: bool,
    /// Upper bound on the worst chain latency; `None` only requires every
    /// chain instance to complete.
    pub chain_bound: Option<i64>,
    /// Denominator of the factor grid (factors snap to multiples of
    /// `1/quantum_den`).
    pub quantum_den: u32,
    /// Cap on the number of tasks probed by a per-task sensitivity pass.
    pub max_sensitivity_tasks: usize,
    /// Analytic probe tiering: run the verdict ladder
    /// (`swa_core::ladder`, tiers T0–T2) on each scaled configuration
    /// after the cache probe and before simulating. Ladder-decided
    /// probes come back as [`ProbeSource::Ladder`] without a
    /// simulation; soundness keeps the certified breakdown interval
    /// identical. Off by default. Chain-gated probes always simulate
    /// (latency needs the per-job trace), as do multi-hyperperiod
    /// sweeps.
    pub ladder: swa_core::LadderMode,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            search: SearchOptions::default(),
            hyperperiods: 1,
            compositional: false,
            chains: false,
            chain_bound: None,
            quantum_den: 1024,
            max_sensitivity_tasks: 256,
            ladder: swa_core::LadderMode::Off,
        }
    }
}

/// Where a probe's verdict came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeSource {
    /// A fresh simulation through the [`Analyzer`].
    Simulated,
    /// Served from the shared verdict cache.
    CacheHit,
    /// Served from this sweep's own memo table.
    Memo,
    /// Decided analytically by the verdict ladder
    /// ([`SweepOptions::ladder`]) without a simulation.
    Ladder,
    /// The factor lies outside the IMA parameter domain (typed boundary).
    DomainEdge,
}

/// One feasibility probe of the parameter space.
#[derive(Debug, Clone)]
pub struct Probe {
    /// The factor as requested by the search.
    pub requested: f64,
    /// The factor after grid quantization (what was actually evaluated).
    pub factor: f64,
    /// The gated verdict: schedulable *and* (when gating is on) chains ok.
    pub feasible: bool,
    /// The raw schedulability verdict.
    pub schedulable: bool,
    /// Chain-latency gate result, when chain gating ran.
    pub chains_ok: Option<bool>,
    /// Worst observed end-to-end latency across all gated chains.
    pub worst_chain_latency: Option<i64>,
    /// Which reuse tier answered.
    pub source: ProbeSource,
    /// The typed boundary that made the factor infeasible, if any.
    pub domain_edge: Option<String>,
}

/// Per-task sensitivity: the breakdown of scaling *one* task's WCET while
/// the rest of the system stays at the base point.
#[derive(Debug, Clone)]
pub struct TaskSensitivity {
    /// The probed task.
    pub task: TaskRef,
    /// Stable label (`<partition>/<task>`).
    pub label: String,
    /// The per-task breakdown search result.
    pub result: BreakdownResult,
}

impl TaskSensitivity {
    /// The task's WCET slack: how much further its WCET can scale before
    /// the system breaks (`breakdown − 1`), when a breakdown was found.
    #[must_use]
    pub fn slack(&self) -> Option<f64> {
        self.result.breakdown().map(|b| b - 1.0)
    }
}

/// The probe engine. Construct with [`SweepEngine::new`], attach shared
/// stores with the builder methods, then drive it through
/// [`breakdown`](Self::breakdown) / [`sensitivity`](Self::sensitivity) or
/// the [`run_sweep`](crate::run_sweep) orchestrator.
pub struct SweepEngine {
    base: Configuration,
    options: SweepOptions,
    /// Every probe's resolver: the options' horizon and compositional
    /// mode plus the attached stores and recorder.
    analyzer: Analyzer<'static>,
    recorder: Arc<dyn Recorder>,
    memo: HashMap<(Axis, u64), Probe>,
    chains: Vec<Vec<TaskRef>>,
}

impl SweepEngine {
    /// Creates an engine over a base configuration.
    ///
    /// # Errors
    ///
    /// [`SweepError::InvalidScaledConfig`] when the base configuration
    /// itself fails IMA validation (a sweep needs a valid origin).
    pub fn new(base: Configuration, options: SweepOptions) -> Result<Self, SweepError> {
        if let Err(errors) = base.validate() {
            let detail = errors
                .iter()
                .map(std::string::ToString::to_string)
                .collect::<Vec<_>>()
                .join("; ");
            return Err(SweepError::InvalidScaledConfig(detail));
        }
        let chains = derive_chains(&base);
        let recorder: Arc<dyn Recorder> = Arc::new(NoopRecorder);
        let analyzer = Analyzer::configure()
            .horizon(options.hyperperiods)
            .compositional(options.compositional)
            .recorder(recorder.clone());
        Ok(Self {
            base,
            options,
            analyzer,
            recorder,
            memo: HashMap::new(),
            chains,
        })
    }

    /// Attaches a verdict cache shared with other analyses.
    #[must_use]
    pub fn cache(mut self, cache: Arc<dyn VerdictCache>) -> Self {
        self.analyzer = self.analyzer.cache(cache);
        self
    }

    /// Attaches a checkpoint store for warm-started simulations.
    #[must_use]
    pub fn checkpoints(mut self, store: Arc<dyn CheckpointStore>) -> Self {
        self.analyzer = self.analyzer.checkpoints(store);
        self
    }

    /// Attaches an observability sink for the `sweep.*` counter family
    /// (and the probes' own analysis counters).
    #[must_use]
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.analyzer = self.analyzer.recorder(recorder.clone());
        self.recorder = recorder;
        self
    }

    /// The base configuration the sweep scales.
    #[must_use]
    pub fn base(&self) -> &Configuration {
        &self.base
    }

    /// The sweep options.
    #[must_use]
    pub fn options(&self) -> &SweepOptions {
        &self.options
    }

    /// The task chains derived from the base configuration's data-flow
    /// graph (maximal sender→receiver paths), used by chain gating.
    #[must_use]
    pub fn chains(&self) -> &[Vec<TaskRef>] {
        &self.chains
    }

    /// Snaps a factor to the engine's quantization grid.
    #[must_use]
    pub fn quantize(&self, factor: f64) -> f64 {
        let den = f64::from(self.options.quantum_den.max(1));
        let q = (factor * den).round() / den;
        if q > 0.0 {
            q
        } else {
            1.0 / den
        }
    }

    /// Evaluates one probe along `axis` at `factor`, through the reuse
    /// tiers described on the module.
    ///
    /// # Errors
    ///
    /// [`SweepError::Analysis`] when the underlying pipeline fails (a
    /// modeling bug). Domain-edge boundaries are *not* errors here: they
    /// come back as infeasible probes with
    /// [`ProbeSource::DomainEdge`].
    pub fn probe(&mut self, axis: Axis, factor: f64) -> Result<Probe, SweepError> {
        let quantized = self.quantize(factor);
        self.recorder.counter("sweep.probes", 1);

        let memo_key = (axis, quantized.to_bits());
        if let Some(hit) = self.memo.get(&memo_key) {
            self.recorder.counter("sweep.memo_hits", 1);
            let mut probe = hit.clone();
            probe.requested = factor;
            probe.source = ProbeSource::Memo;
            return Ok(probe);
        }

        let scaled = match axis.apply(&self.base, quantized) {
            Ok(scaled) => scaled,
            Err(e) if e.is_domain_edge() => {
                self.recorder.counter("sweep.domain_edges", 1);
                let probe = Probe {
                    requested: factor,
                    factor: quantized,
                    feasible: false,
                    schedulable: false,
                    chains_ok: None,
                    worst_chain_latency: None,
                    source: ProbeSource::DomainEdge,
                    domain_edge: Some(e.to_string()),
                };
                self.memo.insert(memo_key, probe.clone());
                return Ok(probe);
            }
            Err(e) => return Err(e),
        };

        // Chain gating needs the per-job analysis, which neither a cached
        // verdict nor a ladder decision carries — only ungated probes are
        // answered without simulating. Ladder decisions are sound, so the
        // breakdown interval the search certifies is unchanged.
        let gate_chains = self.options.chains && !self.chains.is_empty();
        if !gate_chains {
            let known = self
                .analyzer
                .lookup(&scaled)
                .map(|v| (v, ProbeSource::CacheHit, "sweep.cache_hits"))
                .or_else(|| {
                    self.analyzer
                        .decide(&scaled, self.options.ladder)
                        .map(|v| (v, ProbeSource::Ladder, "sweep.ladder_hits"))
                });
            if let Some((verdict, source, counter)) = known {
                self.recorder.counter(counter, 1);
                let probe = Probe {
                    requested: factor,
                    factor: quantized,
                    feasible: verdict.schedulable,
                    schedulable: verdict.schedulable,
                    chains_ok: None,
                    worst_chain_latency: None,
                    source,
                    domain_edge: None,
                };
                self.memo.insert(memo_key, probe.clone());
                return Ok(probe);
            }
        }

        self.recorder.counter("sweep.simulated", 1);
        let report = self.analyzer.analyze(&scaled)?;
        let schedulable = report.schedulable();

        let (chains_ok, worst_latency) = if gate_chains {
            let mut ok = true;
            let mut worst: Option<i64> = None;
            for chain in &self.chains {
                match chain_latency(&scaled, &report.analysis, chain) {
                    Ok(latency) => {
                        if !latency.all_complete() {
                            ok = false;
                        }
                        if let Some(w) = latency.worst() {
                            worst = Some(worst.map_or(w, |x| x.max(w)));
                            if self.options.chain_bound.is_some_and(|b| w > b) {
                                ok = false;
                            }
                        }
                    }
                    // Chains are derived from the base structure, which
                    // scaling never changes; an error here would be a
                    // modeling bug worth counting, not worth aborting.
                    Err(_) => self.recorder.counter("sweep.chain_errors", 1),
                }
            }
            (Some(ok), worst)
        } else {
            (None, None)
        };

        let probe = Probe {
            requested: factor,
            factor: quantized,
            feasible: schedulable && chains_ok.unwrap_or(true),
            schedulable,
            chains_ok,
            worst_chain_latency: worst_latency,
            source: ProbeSource::Simulated,
            domain_edge: None,
        };
        self.memo.insert(memo_key, probe.clone());
        Ok(probe)
    }

    /// Runs a certified breakdown search along `axis`. `on_step` observes
    /// every refinement step (for progressive output); `should_abort` is
    /// polled before each probe and turns the run into
    /// [`SweepError::Aborted`].
    ///
    /// Non-monotone axes (offset shift) automatically presample the
    /// factor range so feasible islands are not stepped over.
    ///
    /// # Errors
    ///
    /// [`SweepError::Aborted`] from the abort guard, or any probe error.
    pub fn breakdown(
        &mut self,
        axis: Axis,
        mut on_step: impl FnMut(&SearchStep),
        should_abort: impl Fn() -> bool,
    ) -> Result<BreakdownResult, SweepError> {
        let mut opts = self.options.search.clone();
        if !axis.is_monotone() && opts.presamples < 2 {
            opts.presamples = 8.min(opts.max_probes);
        }
        breakdown_search(
            &opts,
            |f| {
                if should_abort() {
                    return Err(SweepError::Aborted);
                }
                self.probe(axis, f).map(|p| p.feasible)
            },
            |step| on_step(step),
        )
    }

    /// Computes the per-task WCET sensitivity vector: one breakdown
    /// search per task (capped by
    /// [`max_sensitivity_tasks`](SweepOptions::max_sensitivity_tasks)),
    /// sharing this engine's memo, cache and checkpoint ladder — under
    /// compositional analysis each probe re-simulates only the module the
    /// task lives in.
    ///
    /// # Errors
    ///
    /// As [`breakdown`](Self::breakdown).
    pub fn sensitivity(
        &mut self,
        mut on_task: impl FnMut(&TaskSensitivity),
        should_abort: impl Fn() -> bool,
    ) -> Result<Vec<TaskSensitivity>, SweepError> {
        let tasks: Vec<(TaskRef, String)> = self
            .base
            .tasks()
            .map(|(tr, t)| {
                let pname = self
                    .base
                    .partition(tr.partition)
                    .map_or_else(|| tr.partition.to_string(), |p| p.name.clone());
                (tr, format!("{pname}/{}", t.name))
            })
            .take(self.options.max_sensitivity_tasks)
            .collect();
        let mut out = Vec::with_capacity(tasks.len());
        for (tr, label) in tasks {
            let result =
                self.breakdown(Axis::TaskWcetScale(tr), |_| {}, &should_abort)?;
            let entry = TaskSensitivity {
                task: tr,
                label,
                result,
            };
            on_task(&entry);
            out.push(entry);
        }
        Ok(out)
    }
}

/// Maximal sender→receiver paths of the data-flow graph: every task that
/// sends but never receives starts a chain; paths follow messages to
/// tasks that receive and never send onward, capped at 64 chains (the
/// DAG is validated acyclic, so the walk terminates).
fn derive_chains(config: &Configuration) -> Vec<Vec<TaskRef>> {
    const MAX_CHAINS: usize = 64;
    let mut receives: Vec<TaskRef> = Vec::new();
    let mut adj: HashMap<TaskRef, Vec<TaskRef>> = HashMap::new();
    for m in &config.messages {
        adj.entry(m.sender).or_default().push(m.receiver);
        receives.push(m.receiver);
    }
    for next in adj.values_mut() {
        next.sort();
        next.dedup();
    }
    let mut roots: Vec<TaskRef> = adj
        .keys()
        .filter(|t| !receives.contains(t))
        .copied()
        .collect();
    roots.sort();

    let mut chains: Vec<Vec<TaskRef>> = Vec::new();
    let mut stack: Vec<Vec<TaskRef>> = roots.into_iter().map(|r| vec![r]).collect();
    stack.reverse();
    while let Some(path) = stack.pop() {
        if chains.len() >= MAX_CHAINS {
            break;
        }
        let tail = *path.last().expect("paths are non-empty");
        match adj.get(&tail) {
            Some(next) if !next.is_empty() => {
                for &succ in next.iter().rev() {
                    if path.contains(&succ) {
                        continue; // defensive: validation already rejects cycles
                    }
                    let mut extended = path.clone();
                    extended.push(succ);
                    stack.push(extended);
                }
            }
            _ => {
                if path.len() >= 2 {
                    chains.push(path);
                }
            }
        }
    }
    chains
}

#[cfg(test)]
mod tests {
    use super::*;
    use swa_core::obs::MetricsRecorder;
    use swa_core::{ShardedCheckpointStore, ShardedVerdictCache};
    use swa_ima::{
        CoreRef, CoreType, CoreTypeId, Message, Module, ModuleId, Partition, PartitionId,
        SchedulerKind, Task, Window,
    };

    /// One partition, one task at 20% utilization: breakdown near 5.0
    /// modulo windowing effects.
    fn light_config() -> Configuration {
        Configuration {
            core_types: vec![CoreType::new("ct")],
            modules: vec![Module::homogeneous("M1", 1, CoreTypeId::from_raw(0))],
            partitions: vec![Partition::new(
                "P1",
                SchedulerKind::Fpps,
                vec![Task::new("t", 1, vec![10], 50)],
            )],
            binding: vec![CoreRef::new(ModuleId::from_raw(0), 0)],
            windows: vec![vec![Window::new(0, 50)]],
            messages: vec![],
        }
    }

    /// Two independent one-core modules, so compositional analysis
    /// decomposes them.
    fn two_module_config() -> Configuration {
        Configuration {
            core_types: vec![CoreType::new("ct")],
            modules: vec![
                Module::homogeneous("M1", 1, CoreTypeId::from_raw(0)),
                Module::homogeneous("M2", 1, CoreTypeId::from_raw(0)),
            ],
            partitions: vec![
                Partition::new("P1", SchedulerKind::Fpps, vec![Task::new("t", 1, vec![10], 50)]),
                Partition::new("P2", SchedulerKind::Fpps, vec![Task::new("u", 1, vec![15], 50)]),
            ],
            binding: vec![
                CoreRef::new(ModuleId::from_raw(0), 0),
                CoreRef::new(ModuleId::from_raw(1), 0),
            ],
            windows: vec![vec![Window::new(0, 50)], vec![Window::new(0, 50)]],
            messages: vec![],
        }
    }

    /// Two same-period tasks connected by a message (the chain fixture).
    fn chain_config() -> Configuration {
        Configuration {
            core_types: vec![CoreType::new("ct")],
            modules: vec![Module::homogeneous("M1", 2, CoreTypeId::from_raw(0))],
            partitions: vec![
                Partition::new(
                    "sense",
                    SchedulerKind::Fpps,
                    vec![Task::new("s", 1, vec![5], 50)],
                ),
                Partition::new(
                    "act",
                    SchedulerKind::Fpps,
                    vec![Task::new("a", 1, vec![4], 50)],
                ),
            ],
            binding: vec![
                CoreRef::new(ModuleId::from_raw(0), 0),
                CoreRef::new(ModuleId::from_raw(0), 1),
            ],
            windows: vec![vec![Window::new(0, 50)], vec![Window::new(0, 50)]],
            messages: vec![Message::new(
                "vl",
                TaskRef::new(PartitionId::from_raw(0), 0),
                TaskRef::new(PartitionId::from_raw(1), 0),
                1,
                6,
            )],
        }
    }

    #[test]
    fn breakdown_on_light_config_converges_above_one() {
        let mut engine = SweepEngine::new(light_config(), SweepOptions::default()).unwrap();
        let result = engine
            .breakdown(Axis::WcetScale, |_| {}, || false)
            .unwrap();
        let lo = result.breakdown().expect("base config is schedulable");
        assert!(lo >= 1.0, "breakdown {lo} must be at least the base point");
        assert!(result.certified(engine.options().search.tolerance));
        // The capacity ceiling: round(10·f) ≤ 50 requires f < 5.05 (a
        // factor of 5.049 still rounds to a WCET of exactly 50, which
        // fills — but does not overflow — the window).
        assert!(lo < 5.05, "breakdown {lo} cannot exceed capacity");
    }

    #[test]
    fn memo_and_counters_prove_reuse() {
        let recorder = Arc::new(MetricsRecorder::new());
        let mut engine = SweepEngine::new(light_config(), SweepOptions::default())
            .unwrap()
            .recorder(recorder.clone());
        engine.breakdown(Axis::WcetScale, |_| {}, || false).unwrap();
        let simulated_after_first = recorder.counter_value("sweep.simulated");
        assert!(simulated_after_first > 0);

        // The same search again: every probe lands in the memo.
        engine.breakdown(Axis::WcetScale, |_| {}, || false).unwrap();
        assert_eq!(
            recorder.counter_value("sweep.simulated"),
            simulated_after_first,
            "second identical search must not simulate"
        );
        assert!(recorder.counter_value("sweep.memo_hits") > 0);
        let probes = recorder.counter_value("sweep.probes");
        assert!(probes > simulated_after_first, "reuse rate must be > 0");
    }

    #[test]
    fn verdict_cache_serves_a_fresh_engine() {
        let sweep = |engine: &mut SweepEngine| {
            crate::run_sweep(engine, Axis::WcetScale, true, |_| {}, || false).unwrap()
        };
        let config = two_module_config();
        let cold = sweep(&mut SweepEngine::new(config.clone(), SweepOptions::default()).unwrap());

        let cache: Arc<dyn VerdictCache> = Arc::new(ShardedVerdictCache::new(1 << 22));
        let checkpoints: Arc<dyn CheckpointStore> = Arc::new(ShardedCheckpointStore::new(1 << 22));
        let shared = SweepOptions {
            compositional: true,
            ..SweepOptions::default()
        };
        let recorder = Arc::new(MetricsRecorder::new());
        let mut first = SweepEngine::new(config.clone(), shared.clone())
            .unwrap()
            .cache(cache.clone())
            .checkpoints(checkpoints.clone());
        sweep(&mut first);

        // A brand-new engine (empty memo) over the same base: the shared
        // verdict cache answers without simulating.
        let mut second = SweepEngine::new(config, shared)
            .unwrap()
            .cache(cache)
            .checkpoints(checkpoints)
            .recorder(recorder.clone());
        let warm = sweep(&mut second);
        assert_eq!(recorder.counter_value("sweep.simulated"), 0);
        assert!(recorder.counter_value("sweep.cache_hits") > 0);
        // The report carries only parameter-space facts, so the stores
        // change nothing in it.
        assert_eq!(warm.render_json(), cold.render_json());
    }

    #[test]
    fn ladder_tier_decides_probes_without_changing_the_breakdown() {
        let baseline = SweepEngine::new(light_config(), SweepOptions::default())
            .unwrap()
            .breakdown(Axis::WcetScale, |_| {}, || false)
            .unwrap();

        let recorder = Arc::new(MetricsRecorder::new());
        let mut laddered = SweepEngine::new(
            light_config(),
            SweepOptions {
                ladder: swa_core::LadderMode::Full,
                ..SweepOptions::default()
            },
        )
        .unwrap()
        .recorder(recorder.clone());
        let result = laddered.breakdown(Axis::WcetScale, |_| {}, || false).unwrap();

        assert_eq!(result.breakdown(), baseline.breakdown());
        assert_eq!(result.lo, baseline.lo);
        assert_eq!(result.hi, baseline.hi);
        assert!(
            recorder.counter_value("sweep.ladder_hits") > 0,
            "the analytic tier must decide some probes"
        );
        assert!(
            recorder.counter_value("sweep.simulated")
                < recorder.counter_value("sweep.probes"),
            "ladder hits count as reuse"
        );

        // A clear-cut single probe reports the ladder as its source.
        let probe = laddered.probe(Axis::WcetScale, 0.5).unwrap();
        assert!(probe.feasible);
        assert!(matches!(probe.source, ProbeSource::Ladder | ProbeSource::Memo));
    }

    #[test]
    fn domain_edges_count_as_infeasible_probes() {
        let recorder = Arc::new(MetricsRecorder::new());
        let mut engine = SweepEngine::new(light_config(), SweepOptions::default())
            .unwrap()
            .recorder(recorder.clone());
        // Factor 10 puts demand far beyond the window capacity.
        let probe = engine.probe(Axis::WcetScale, 10.0).unwrap();
        assert!(!probe.feasible);
        assert_eq!(probe.source, ProbeSource::DomainEdge);
        assert!(probe.domain_edge.is_some());
        assert_eq!(recorder.counter_value("sweep.domain_edges"), 1);
    }

    #[test]
    fn chain_gating_tightens_the_verdict() {
        let config = chain_config();
        // Ungated: comfortably schedulable at the base point.
        let mut plain = SweepEngine::new(config.clone(), SweepOptions::default()).unwrap();
        assert!(plain.probe(Axis::WcetScale, 1.0).unwrap().feasible);

        // Gated with an impossible latency bound: the same point fails.
        let mut gated = SweepEngine::new(
            config,
            SweepOptions {
                chains: true,
                chain_bound: Some(1),
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert_eq!(gated.chains().len(), 1);
        let probe = gated.probe(Axis::WcetScale, 1.0).unwrap();
        assert!(probe.schedulable, "still schedulable");
        assert_eq!(probe.chains_ok, Some(false), "latency gate fails");
        assert!(!probe.feasible, "gated verdict is infeasible");
        assert!(probe.worst_chain_latency.is_some());
    }

    #[test]
    fn sensitivity_covers_every_task() {
        let mut engine = SweepEngine::new(chain_config(), SweepOptions::default()).unwrap();
        let mut seen = Vec::new();
        let vector = engine
            .sensitivity(|t| seen.push(t.label.clone()), || false)
            .unwrap();
        assert_eq!(vector.len(), 2);
        assert_eq!(seen, vec!["sense/s".to_string(), "act/a".to_string()]);
        for entry in &vector {
            assert!(
                entry.slack().is_some_and(|s| s >= 0.0),
                "{}: base point must be feasible",
                entry.label
            );
        }
    }

    #[test]
    fn abort_guard_stops_the_sweep() {
        let mut engine = SweepEngine::new(light_config(), SweepOptions::default()).unwrap();
        let err = engine
            .breakdown(Axis::WcetScale, |_| {}, || true)
            .unwrap_err();
        assert!(matches!(err, SweepError::Aborted));
    }

    #[test]
    fn derive_chains_walks_maximal_paths() {
        let config = chain_config();
        let chains = derive_chains(&config);
        assert_eq!(
            chains,
            vec![vec![
                TaskRef::new(PartitionId::from_raw(0), 0),
                TaskRef::new(PartitionId::from_raw(1), 0),
            ]]
        );
        assert!(derive_chains(&light_config()).is_empty());
    }

    #[test]
    fn checkpoints_warm_start_probe_simulations() {
        let store: Arc<dyn CheckpointStore> = Arc::new(ShardedCheckpointStore::new(1 << 22));
        let mut engine = SweepEngine::new(light_config(), SweepOptions::default())
            .unwrap()
            .checkpoints(store.clone());
        engine.breakdown(Axis::WcetScale, |_| {}, || false).unwrap();
        // Every simulated probe checkpointed its end state.
        let stats = store.stats();
        assert!(stats.insertions > 0, "probes must fill the ladder");
    }
}
