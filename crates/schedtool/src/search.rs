//! The configuration-search loop: the paper's Sect. 4 integration, where a
//! scheduling tool repeatedly proposes candidate configurations, checks
//! each with the stopwatch-automata model, and keeps schedulable ones.
//!
//! The search here is the classic shape of IMA allocation tools (\[8\] of the
//! paper): bind partitions to cores by bin packing, synthesize a window
//! schedule, analyze; on deadline misses, widen the windows of the missing
//! partitions (iterative repair), occasionally re-binding the worst
//! offender to the least-loaded core.
//!
//! Candidate checking runs on the parallel batch engine
//! ([`swa_core::batch`]): every round the repair rule is unrolled into a
//! *speculative ladder* of [`SearchOptions::speculation`] candidates
//! (candidate `k` assumes the previously missing partitions keep missing
//! and widens their windows `k` times), and the whole ladder is checked
//! first-wins across [`SearchOptions::parallelism`] workers. Because the
//! engine's winner is deterministic (always the lowest candidate index),
//! the search finds the *same* configuration whatever the parallelism —
//! only faster.

use std::sync::Arc;
use std::time::Duration;

use swa_core::{Analyzer, CachedVerdict, DecidedBy, LadderMode, PipelineError, Verdict};
use swa_ima::{Configuration, CoreRef, PartitionId};
use swa_workload::{synthesize_windows, PartitionDemand};

use crate::binpack::first_fit_decreasing;
use crate::problem::DesignProblem;

/// Bin-packing utilization cap per core.
const UTILIZATION_CAP: f64 = 0.85;
/// Initial window over-provisioning factor.
const INITIAL_BOOST: f64 = 1.1;
/// Multiplier applied to a missing partition's boost each iteration.
const BOOST_STEP: f64 = 1.35;

/// Knobs of the search.
#[derive(Debug, Clone, Copy)]
pub struct SearchOptions {
    /// Give up after this many candidate evaluations.
    pub max_iterations: usize,
    /// Speculative candidates proposed per round (the batch the engine
    /// checks first-wins). The candidate sequence — and therefore the
    /// found configuration — depends on this, but *not* on `parallelism`.
    pub speculation: usize,
    /// Worker threads for candidate checking; `0` means one per core.
    pub parallelism: usize,
    /// Analytic pre-filtering of candidates through the
    /// [`VerdictLadder`](swa_core::VerdictLadder) (tiers T0 and T1, see
    /// `swa_core::ladder`). Decided candidates skip the simulation; the
    /// found configuration is unchanged because the ladder's tiers are
    /// sound and the deepest speculative rung — whose simulated
    /// diagnostics drive the repair rule — is never pre-filtered. Off by
    /// default.
    pub ladder: LadderMode,
}

impl Default for SearchOptions {
    fn default() -> Self {
        Self {
            max_iterations: 20,
            speculation: 4,
            parallelism: 0,
            ladder: LadderMode::Off,
        }
    }
}

/// One candidate evaluation.
#[derive(Debug, Clone)]
pub struct IterationRecord {
    /// 0-based iteration index.
    pub index: usize,
    /// The typed verdict for this candidate; an unschedulable diagnosis
    /// names the missing partitions and their modules.
    pub verdict: Verdict,
    /// The verdict for this candidate (the boolean shadow of
    /// [`verdict`](Self::verdict), kept for older callers).
    pub schedulable: bool,
    /// Number of missed jobs.
    pub missed_jobs: usize,
    /// Partitions that had at least one miss.
    pub missing_partitions: Vec<PartitionId>,
    /// Wall-clock time of the schedulability check (model construction +
    /// interpretation + analysis).
    pub check_time: Duration,
}

/// The result of a search.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// A schedulable configuration, if one was found.
    pub configuration: Option<Configuration>,
    /// Every candidate evaluated, in order.
    pub iterations: Vec<IterationRecord>,
}

impl SearchOutcome {
    /// Whether the search succeeded.
    #[must_use]
    pub fn found(&self) -> bool {
        self.configuration.is_some()
    }

    /// Total schedulability-checking time across iterations.
    #[must_use]
    pub fn total_check_time(&self) -> Duration {
        self.iterations.iter().map(|i| i.check_time).sum()
    }
}

/// Searches for a schedulable configuration of the problem.
///
/// The outcome is deterministic for a given problem and options —
/// [`SearchOptions::parallelism`] changes only how fast candidates are
/// checked, never which configuration is found.
///
/// # Errors
///
/// Propagates [`PipelineError`]s from candidate evaluation (structural
/// problems in the generated candidates indicate bugs, not unschedulable
/// workloads) and reports a schema-level problem when the problem has no
/// cores or an undefined hyperperiod.
pub fn search(
    problem: &DesignProblem,
    options: &SearchOptions,
) -> Result<SearchOutcome, PipelineError> {
    search_with(problem, options, &Analyzer::configure())
}

/// [`search`], with candidate checking configured by an [`Analyzer`] — the
/// one entry point behind every store combination.
///
/// The analyzer contributes its engine, tie-break order, checkpoint store,
/// verdict cache and [`compositional`](Analyzer::compositional) setting to
/// every candidate evaluation; batch parallelism comes from
/// [`SearchOptions::parallelism`] (the search's own knob). The stores
/// compose:
///
/// * the **verdict cache** short-circuits *exact repeats* before any model
///   is built — every ladder candidate is probed first with
///   [`Analyzer::lookup`]; known verdicts skip the batch engine entirely
///   (their [`IterationRecord::check_time`] is zero), and freshly evaluated
///   candidates are inserted for the next round — or the next search: the
///   window-synthesis quantization makes distinct rounds regenerate
///   identical configurations. Under compositional analysis the probe also
///   composes, so a candidate whose modules were each seen before — in
///   *different* earlier candidates — is answered without any simulation.
///   An entry some other caller took from the verdict ladder (it carries no
///   job counts) is only accepted where this search would accept a ladder
///   decision itself;
/// * the **checkpoint store** warm-starts the simulations that still have
///   to run — a revisited candidate resumes from its stored end state
///   instead of replaying from t = 0, per module when compositional, and a
///   later longer-horizon validation of the found configuration (see
///   [`Analyzer::checkpoints`]) picks up the checkpoints this search left
///   behind.
///
/// All of it is exact, so the found configuration — and every iteration
/// verdict — is identical whatever the analyzer settings: cached and
/// composed verdicts equal computed ones, and the first-wins winner rule
/// is applied to the merged (cached + evaluated) verdict sequence.
///
/// # Errors
///
/// Same contract as [`search`].
pub fn search_with(
    problem: &DesignProblem,
    options: &SearchOptions,
    analyzer: &Analyzer<'_>,
) -> Result<SearchOutcome, PipelineError> {
    let hyperperiod = problem.hyperperiod().ok_or_else(bad_problem)?;
    let frame = problem.min_period().ok_or_else(bad_problem)?;
    let mut packing = first_fit_decreasing(problem, UTILIZATION_CAP).ok_or_else(bad_problem)?;

    let mut boosts = vec![INITIAL_BOOST; problem.partitions.len()];
    // Which partitions the next repair escalates. Before any verdict the
    // best guess is "all of them"; afterwards, the ones that just missed.
    let mut predicted: Vec<PartitionId> = (0..problem.partitions.len())
        .map(|i| PartitionId::from_raw(u32::try_from(i).expect("partition count fits u32")))
        .collect();
    let mut iterations = Vec::new();
    let mut stuck_count = 0usize;
    let mut last_missed = usize::MAX;

    while iterations.len() < options.max_iterations {
        // Unroll the repair rule into a speculative ladder: candidate k
        // has the predicted-missing partitions widened k times.
        let budget = (options.max_iterations - iterations.len()).min(options.speculation.max(1));
        let mut candidates = Vec::with_capacity(budget);
        let mut ladder_boosts = Vec::with_capacity(budget);
        let mut rung = boosts.clone();
        for k in 0..budget {
            if k > 0 {
                for pid in &predicted {
                    rung[pid.index()] *= BOOST_STEP;
                }
            }
            let windows = synthesize(problem, &packing.binding, &rung, hyperperiod, frame);
            candidates.push(problem.candidate(packing.binding.clone(), windows));
            ladder_boosts.push(rung.clone());
        }

        // Resolve what can be known without simulating. The cache answers
        // candidates regenerated by the window quantization (and whole
        // re-runs of a search), also by composing per-module entries. The
        // ladder decides the rest, *except the deepest rung*: when no
        // winner emerges this round, the repair rule reads the deepest
        // rung's simulated diagnostics, and those must stay identical to
        // a ladder-off run. For the same reason a cached ladder verdict
        // (no job counts) counts only where a fresh one would. Ladder
        // verdicts are not inserted into the cache.
        let deepest = candidates.len() - 1;
        let known: Vec<Option<Arc<CachedVerdict>>> = candidates
            .iter()
            .enumerate()
            .map(|(k, candidate)| {
                let mode = if k < deepest {
                    options.ladder
                } else {
                    LadderMode::Off
                };
                analyzer
                    .lookup(candidate)
                    .filter(|v| mode != LadderMode::Off || v.decided_by == DecidedBy::Simulation)
                    .or_else(|| analyzer.decide(candidate, mode))
            })
            .collect();
        let cached_winner = known
            .iter()
            .position(|v| v.as_ref().is_some_and(|v| v.schedulable));

        // Evaluate only unknown candidates that could still win (indices
        // past a cached schedulable verdict can never be the first-wins
        // winner).
        let horizon = cached_winner.unwrap_or(candidates.len());
        let subset_idx: Vec<usize> = (0..horizon).filter(|&k| known[k].is_none()).collect();
        let subset: Vec<Configuration> =
            subset_idx.iter().map(|&k| candidates[k].clone()).collect();
        let batch = if subset.is_empty() {
            None
        } else {
            Some(
                analyzer
                    .clone()
                    .parallelism(options.parallelism)
                    .first_schedulable(&subset)?,
            )
        };
        let subset_winner = batch.as_ref().and_then(|b| b.winner).map(|w| subset_idx[w]);
        // Merged first-wins winner: the subset only covers indices below
        // any cached schedulable candidate, so the minimum is correct.
        let winner = match (cached_winner, subset_winner) {
            (Some(c), Some(s)) => Some(c.min(s)),
            (c, s) => c.or(s),
        };

        // Record the deterministic evaluated prefix (up to and including
        // the winner; everything, when there is none) from the merged
        // cached + evaluated verdicts.
        let record_of = |k: usize| -> IterationRecord {
            if let Some(v) = &known[k] {
                return IterationRecord {
                    index: 0,
                    verdict: v.verdict_in(&candidates[k]),
                    schedulable: v.schedulable,
                    missed_jobs: v.missed_jobs,
                    missing_partitions: v.missing_partitions.clone(),
                    check_time: Duration::ZERO,
                };
            }
            let pos = subset_idx
                .iter()
                .position(|&i| i == k)
                .expect("uncached prefix candidate was batched");
            let result = batch
                .as_ref()
                .and_then(|b| b.results[pos].as_ref())
                .expect("prefix is always evaluated");
            IterationRecord {
                index: 0,
                verdict: result.report.verdict_in(&candidates[k]),
                schedulable: result.report.schedulable(),
                missed_jobs: result.report.analysis.missed_jobs().count(),
                missing_partitions: missing_partitions(result.report.analysis.missed_jobs()),
                check_time: result.report.metrics.total(),
            }
        };
        let upto = winner.map_or(candidates.len(), |w| w + 1);
        for k in 0..upto {
            let mut record = record_of(k);
            record.index = iterations.len();
            iterations.push(record);
        }

        if let Some(w) = winner {
            return Ok(SearchOutcome {
                configuration: Some(candidates.swap_remove(w)),
                iterations,
            });
        }

        // Repair from the deepest rung's diagnostics: adopt its boosts,
        // widen the partitions that still missed there, and predict they
        // miss again.
        let deepest = record_of(deepest);
        let missed = deepest.missing_partitions;
        let missed_jobs = deepest.missed_jobs;
        boosts = ladder_boosts.pop().expect("nonempty ladder");
        for pid in &missed {
            boosts[pid.index()] *= BOOST_STEP;
        }
        if !missed.is_empty() {
            predicted = missed.clone();
        }

        // If misses stopped improving, re-bind the worst offender to the
        // least-loaded core.
        if missed_jobs >= last_missed {
            stuck_count += 1;
        } else {
            stuck_count = 0;
        }
        last_missed = missed_jobs;
        if stuck_count >= 2 {
            if let Some(&worst) = missed.first() {
                rebind_to_least_loaded(problem, &mut packing.binding, worst);
                boosts[worst.index()] = INITIAL_BOOST;
                stuck_count = 0;
            }
        }
    }

    Ok(SearchOutcome {
        configuration: None,
        iterations,
    })
}

/// Sorted, deduplicated partitions with at least one missed job.
fn missing_partitions<'a>(
    missed_jobs: impl Iterator<Item = &'a swa_core::JobOutcome>,
) -> Vec<PartitionId> {
    let mut ps: Vec<PartitionId> = missed_jobs.map(|j| j.task.partition).collect();
    ps.sort_unstable();
    ps.dedup();
    ps
}

fn bad_problem() -> PipelineError {
    PipelineError::Model(swa_core::ModelError::InvalidConfig(vec![
        swa_ima::ConfigError::NoModules,
    ]))
}

/// Builds per-partition window sets for a binding with per-partition
/// boosts.
fn synthesize(
    problem: &DesignProblem,
    binding: &[CoreRef],
    boosts: &[f64],
    hyperperiod: i64,
    frame: i64,
) -> Vec<Vec<swa_ima::Window>> {
    let mut windows: Vec<Vec<swa_ima::Window>> = vec![Vec::new(); problem.partitions.len()];
    // Group partitions per core, preserving partition order.
    let mut cores: Vec<CoreRef> = binding.to_vec();
    cores.sort_unstable();
    cores.dedup();
    for core in cores {
        let members: Vec<usize> = binding
            .iter()
            .enumerate()
            .filter(|(_, c)| **c == core)
            .map(|(i, _)| i)
            .collect();
        let core_type = core_type_of(problem, core);
        let demands: Vec<PartitionDemand> = members
            .iter()
            .map(|&i| PartitionDemand {
                utilization: problem.partitions[i].utilization_on(core_type) * boosts[i],
            })
            .collect();
        let sets = synthesize_windows(hyperperiod, frame, &demands, 1.0);
        for (&i, set) in members.iter().zip(sets) {
            windows[i] = set;
        }
    }
    windows
}

fn core_type_of(problem: &DesignProblem, core: CoreRef) -> swa_ima::CoreTypeId {
    problem.modules[core.module.index()].cores[core.core as usize].core_type
}

fn rebind_to_least_loaded(problem: &DesignProblem, binding: &mut [CoreRef], pid: PartitionId) {
    // Compute loads and pick the least-loaded core different from the
    // current one.
    let mut cores: Vec<CoreRef> = Vec::new();
    for (mi, m) in problem.modules.iter().enumerate() {
        for ci in 0..m.cores.len() {
            cores.push(CoreRef::new(
                swa_ima::ModuleId::from_raw(u32::try_from(mi).expect("module count fits u32")),
                u32::try_from(ci).expect("core count fits u32"),
            ));
        }
    }
    if cores.len() < 2 {
        return;
    }
    let load = |core: CoreRef| -> f64 {
        let ct = core_type_of(problem, core);
        binding
            .iter()
            .enumerate()
            .filter(|(_, c)| **c == core)
            .map(|(i, _)| problem.partitions[i].utilization_on(ct))
            .sum()
    };
    let current = binding[pid.index()];
    if let Some(best) = least_loaded(cores, current, load) {
        binding[pid.index()] = best;
    }
}

/// The least-loaded core other than `current`. Loads are ordered with
/// [`f64::total_cmp`], which gives NaN a fixed place above every number —
/// a NaN-scored candidate (a degenerate utilization like 0/0) can then
/// never win, and ties resolve to the first candidate in declaration
/// order, keeping the search deterministic. The previous
/// `partial_cmp(..).unwrap_or(Equal)` treated NaN as equal to everything,
/// which made the winner depend on candidate order around the NaN.
fn least_loaded(
    cores: Vec<CoreRef>,
    current: CoreRef,
    load: impl Fn(CoreRef) -> f64,
) -> Option<CoreRef> {
    cores
        .into_iter()
        .filter(|c| *c != current)
        .min_by(|a, b| load(*a).total_cmp(&load(*b)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use swa_core::{analyze_configuration, VerdictCache};
    use swa_ima::{CoreType, CoreTypeId, Module, Partition, SchedulerKind, Task};

    fn two_partition_problem(cores: usize) -> DesignProblem {
        DesignProblem {
            core_types: vec![CoreType::new("ct")],
            modules: vec![Module::homogeneous("M", cores, CoreTypeId::from_raw(0))],
            partitions: vec![
                Partition::new(
                    "control",
                    SchedulerKind::Fpps,
                    vec![
                        Task::new("law", 2, vec![10], 50),
                        Task::new("log", 1, vec![10], 100),
                    ],
                ),
                Partition::new(
                    "io",
                    SchedulerKind::Fpps,
                    vec![Task::new("poll", 1, vec![15], 100)],
                ),
            ],
            messages: vec![],
        }
    }

    #[test]
    fn least_loaded_is_nan_safe() {
        let c = |core: u32| CoreRef::new(swa_ima::ModuleId::from_raw(0), core);
        let cores = vec![c(0), c(1), c(2)];
        // Core 1's load is NaN (a degenerate utilization); it must lose to
        // the finite minimum instead of poisoning the comparison.
        let load = |core: CoreRef| -> f64 {
            match core.core {
                1 => f64::NAN,
                2 => 0.25,
                _ => 1.0,
            }
        };
        assert_eq!(least_loaded(cores.clone(), c(0), load), Some(c(2)));
        // Candidate order around the NaN must not change the winner.
        let reversed: Vec<CoreRef> = cores.iter().rev().copied().collect();
        assert_eq!(least_loaded(reversed, c(0), load), Some(c(2)));
        // All-NaN loads still give a deterministic (first) pick.
        assert_eq!(least_loaded(cores, c(2), |_| f64::NAN), Some(c(0)));
    }

    #[test]
    fn finds_schedulable_configuration_on_one_core() {
        let problem = two_partition_problem(1);
        let outcome = search(&problem, &SearchOptions::default()).unwrap();
        assert!(outcome.found(), "iterations: {:#?}", outcome.iterations);
        let config = outcome.configuration.unwrap();
        config.validate().unwrap();
        // Verify the found configuration really is schedulable.
        let report = analyze_configuration(&config).unwrap();
        assert!(report.schedulable());
    }

    #[test]
    fn finds_schedulable_configuration_on_two_cores() {
        let problem = two_partition_problem(2);
        let outcome = search(&problem, &SearchOptions::default()).unwrap();
        assert!(outcome.found());
        // With two cores the bin packer separates the partitions.
        let config = outcome.configuration.unwrap();
        assert_ne!(config.binding[0], config.binding[1]);
    }

    #[test]
    fn reports_failure_on_impossible_problem() {
        // Utilization 1.5 on a single core can never be schedulable.
        let problem = DesignProblem {
            core_types: vec![CoreType::new("ct")],
            modules: vec![Module::homogeneous("M", 1, CoreTypeId::from_raw(0))],
            partitions: vec![
                Partition::new(
                    "a",
                    SchedulerKind::Fpps,
                    vec![Task::new("t", 1, vec![80], 100)],
                ),
                Partition::new(
                    "b",
                    SchedulerKind::Fpps,
                    vec![Task::new("t", 1, vec![70], 100)],
                ),
            ],
            messages: vec![],
        };
        let outcome = search(
            &problem,
            &SearchOptions {
                max_iterations: 5,
                ..SearchOptions::default()
            },
        )
        .unwrap();
        assert!(!outcome.found());
        assert_eq!(outcome.iterations.len(), 5);
        assert!(outcome.iterations.iter().all(|i| !i.schedulable));
    }

    #[test]
    fn iteration_records_carry_diagnostics() {
        let problem = two_partition_problem(1);
        let outcome = search(&problem, &SearchOptions::default()).unwrap();
        let last = outcome.iterations.last().unwrap();
        assert!(last.schedulable);
        assert_eq!(last.missed_jobs, 0);
        assert!(outcome.total_check_time() > Duration::ZERO);
    }

    #[test]
    fn cached_search_finds_the_same_configuration() {
        let cache = Arc::new(swa_core::ShardedVerdictCache::new(1 << 22));
        for problem in [two_partition_problem(1), two_partition_problem(2)] {
            let baseline = search(&problem, &SearchOptions::default()).unwrap();
            let analyzer = Analyzer::configure().cache(cache.clone());
            let cached = search_with(&problem, &SearchOptions::default(), &analyzer).unwrap();
            assert_eq!(baseline.configuration, cached.configuration);
            assert_eq!(baseline.iterations.len(), cached.iterations.len());
            for (b, c) in baseline.iterations.iter().zip(&cached.iterations) {
                assert_eq!(b.schedulable, c.schedulable);
                assert_eq!(b.missed_jobs, c.missed_jobs);
                assert_eq!(b.missing_partitions, c.missing_partitions);
            }
        }
    }

    #[test]
    fn repeated_search_is_served_from_the_cache() {
        let problem = two_partition_problem(1);
        let options = SearchOptions::default();
        let cache = Arc::new(swa_core::ShardedVerdictCache::new(1 << 22));
        let analyzer = Analyzer::configure().cache(cache.clone());

        let first = search_with(&problem, &options, &analyzer).unwrap();
        let after_first = cache.stats();
        assert!(after_first.insertions > 0, "first run populates the cache");

        let second = search_with(&problem, &options, &analyzer).unwrap();
        let after_second = cache.stats();

        assert_eq!(first.configuration, second.configuration);
        assert_eq!(first.iterations.len(), second.iterations.len());
        // The second run re-simulated nothing: no new insertions, every
        // probed candidate was a hit, and the per-iteration check time is
        // the cache's O(1) zero.
        assert_eq!(after_second.insertions, after_first.insertions);
        assert!(after_second.hits > after_first.hits);
        assert!(second
            .iterations
            .iter()
            .all(|i| i.check_time == Duration::ZERO));
        assert!(second.total_check_time() == Duration::ZERO);
    }

    #[test]
    fn checkpointed_search_finds_the_same_configuration() {
        use swa_core::{CheckpointStore, ShardedCheckpointStore};

        for problem in [two_partition_problem(1), two_partition_problem(2)] {
            let baseline = search(&problem, &SearchOptions::default()).unwrap();
            let store = Arc::new(ShardedCheckpointStore::new(1 << 22));
            let analyzer =
                Analyzer::configure().checkpoints(store.clone() as Arc<dyn CheckpointStore>);
            let warm = search_with(&problem, &SearchOptions::default(), &analyzer).unwrap();
            assert_eq!(baseline.configuration, warm.configuration);
            assert_eq!(baseline.iterations.len(), warm.iterations.len());
            for (b, w) in baseline.iterations.iter().zip(&warm.iterations) {
                assert_eq!(b.schedulable, w.schedulable);
                assert_eq!(b.missed_jobs, w.missed_jobs);
                assert_eq!(b.missing_partitions, w.missing_partitions);
            }
            assert!(store.stats().insertions > 0, "candidates were checkpointed");

            // The found configuration's longer-horizon validation resumes
            // from the checkpoint the search left behind.
            if let Some(config) = &warm.configuration {
                let before = store.stats();
                let report = Analyzer::new(config)
                    .horizon(2)
                    .checkpoints(store.clone() as Arc<dyn CheckpointStore>)
                    .run()
                    .unwrap();
                assert!(report.schedulable());
                assert_eq!(store.stats().hits, before.hits + 1);
            }
        }
    }

    fn two_module_problem() -> DesignProblem {
        DesignProblem {
            core_types: vec![CoreType::new("ct")],
            modules: vec![
                Module::homogeneous("A", 1, CoreTypeId::from_raw(0)),
                Module::homogeneous("B", 1, CoreTypeId::from_raw(0)),
            ],
            partitions: vec![
                Partition::new(
                    "p0",
                    SchedulerKind::Fpps,
                    vec![Task::new("t", 1, vec![20], 100)],
                ),
                Partition::new(
                    "p1",
                    SchedulerKind::Fpps,
                    vec![Task::new("t", 1, vec![30], 100)],
                ),
                Partition::new(
                    "p2",
                    SchedulerKind::Fpps,
                    vec![Task::new("t", 1, vec![25], 100)],
                ),
            ],
            messages: vec![],
        }
    }

    #[test]
    fn compositional_search_finds_the_same_configuration() {
        for problem in [two_partition_problem(2), two_module_problem()] {
            let baseline = search(&problem, &SearchOptions::default()).unwrap();
            let cache = Arc::new(swa_core::ShardedVerdictCache::new(1 << 22));
            let store = Arc::new(swa_core::ShardedCheckpointStore::new(1 << 22));
            let analyzer = Analyzer::configure()
                .compositional(true)
                .cache(cache.clone())
                .checkpoints(store.clone());
            let composed = search_with(&problem, &SearchOptions::default(), &analyzer).unwrap();
            assert_eq!(baseline.configuration, composed.configuration);
            assert_eq!(baseline.iterations.len(), composed.iterations.len());
            for (b, c) in baseline.iterations.iter().zip(&composed.iterations) {
                assert_eq!(b.schedulable, c.schedulable);
                assert_eq!(b.missed_jobs, c.missed_jobs);
                assert_eq!(b.missing_partitions, c.missing_partitions);
            }
        }
    }

    #[test]
    fn iteration_verdicts_are_typed() {
        let problem = two_partition_problem(1);
        let outcome = search(&problem, &SearchOptions::default()).unwrap();
        for record in &outcome.iterations {
            assert_eq!(record.verdict.is_schedulable(), record.schedulable);
            if let Some(diagnosis) = record.verdict.diagnosis() {
                assert_eq!(diagnosis.missed_jobs, record.missed_jobs);
                assert_eq!(diagnosis.missing_partitions, record.missing_partitions);
            }
        }
    }

    #[test]
    fn ladder_prefilter_does_not_change_the_found_configuration() {
        for problem in [
            two_partition_problem(1),
            two_partition_problem(2),
            two_module_problem(),
        ] {
            let baseline = search(&problem, &SearchOptions::default()).unwrap();
            let laddered = search(
                &problem,
                &SearchOptions {
                    ladder: LadderMode::Full,
                    ..SearchOptions::default()
                },
            )
            .unwrap();
            assert_eq!(
                laddered.configuration, baseline.configuration,
                "the ladder must not change the found configuration"
            );
            assert_eq!(laddered.iterations.len(), baseline.iterations.len());
            for (l, b) in laddered.iterations.iter().zip(&baseline.iterations) {
                assert_eq!(l.schedulable, b.schedulable);
            }
        }
    }

    #[test]
    fn ladder_prefilter_skips_simulations_on_impossible_problems() {
        // Utilization 1.5 on one core: T0 decides every non-deepest rung
        // without simulating it, and the outcome still reports failure on
        // every iteration.
        let problem = DesignProblem {
            core_types: vec![CoreType::new("ct")],
            modules: vec![Module::homogeneous("M", 1, CoreTypeId::from_raw(0))],
            partitions: vec![
                Partition::new(
                    "a",
                    SchedulerKind::Fpps,
                    vec![Task::new("t", 1, vec![80], 100)],
                ),
                Partition::new(
                    "b",
                    SchedulerKind::Fpps,
                    vec![Task::new("t", 1, vec![70], 100)],
                ),
            ],
            messages: vec![],
        };
        let recorder = Arc::new(swa_core::MetricsRecorder::new());
        let analyzer = Analyzer::configure().recorder(recorder.clone());
        let options = SearchOptions {
            max_iterations: 5,
            ladder: LadderMode::Full,
            ..SearchOptions::default()
        };
        let outcome = search_with(&problem, &options, &analyzer).unwrap();
        assert!(!outcome.found());
        assert!(outcome.iterations.iter().all(|i| !i.schedulable));
        assert!(
            recorder.counter_value("ladder.t0_unschedulable") > 0,
            "the overload must be caught analytically"
        );
        // Ladder-decided iterations are the zero-check-time ones.
        assert!(outcome
            .iterations
            .iter()
            .any(|i| i.check_time == Duration::ZERO));
    }

    #[test]
    fn cached_ladder_verdicts_do_not_stand_in_for_simulations() {
        use swa_core::{canonicalize, NoopRecorder, ShardedVerdictCache, VerdictLadder};

        // Utilization 1.5 on one core: both partitions miss on every rung,
        // so the repair widens them uniformly and the search's candidates
        // are exactly the uniform boosts initial·step^j.
        let problem = DesignProblem {
            core_types: vec![CoreType::new("ct")],
            modules: vec![Module::homogeneous("M", 1, CoreTypeId::from_raw(0))],
            partitions: vec![
                Partition::new(
                    "a",
                    SchedulerKind::Fpps,
                    vec![Task::new("t", 1, vec![80], 100)],
                ),
                Partition::new(
                    "b",
                    SchedulerKind::Fpps,
                    vec![Task::new("t", 1, vec![70], 100)],
                ),
            ],
            messages: vec![],
        };
        let options = SearchOptions {
            max_iterations: 8,
            ..SearchOptions::default()
        };
        let hyperperiod = problem.hyperperiod().unwrap();
        let frame = problem.min_period().unwrap();
        let binding = first_fit_decreasing(&problem, UTILIZATION_CAP)
            .unwrap()
            .binding;
        // A cache as `swa serve --ladder` leaves it: a T0 verdict, with no
        // job counts, for every candidate the search will propose.
        let cache_with = |seed: bool| {
            let cache = Arc::new(ShardedVerdictCache::new(1 << 22));
            if !seed {
                return cache;
            }
            let mut boosts = vec![INITIAL_BOOST; problem.partitions.len()];
            for _ in 0..options.max_iterations {
                let windows = synthesize(&problem, &binding, &boosts, hyperperiod, frame);
                let candidate = problem.candidate(binding.clone(), windows);
                let decision = VerdictLadder::new(LadderMode::Full)
                    .evaluate(&candidate, &NoopRecorder)
                    .expect("T0 decides the overload");
                cache.insert(
                    &canonicalize(&candidate, 1),
                    Arc::new(CachedVerdict::from_ladder(&decision, &candidate)),
                );
                for b in &mut boosts {
                    *b *= BOOST_STEP;
                }
            }
            cache
        };

        // Against the same search over an empty cache: seeded entries may
        // answer only the rungs the ladder itself would answer.
        for ladder in [LadderMode::Off, LadderMode::Full] {
            let options = SearchOptions { ladder, ..options };
            let search_over = |cache: Arc<ShardedVerdictCache>| {
                search_with(&problem, &options, &Analyzer::configure().cache(cache)).unwrap()
            };
            let cold = search_over(cache_with(false));
            let cache = cache_with(true);
            let warm = search_over(cache.clone());
            assert!(
                cache.stats().hits > 0,
                "ladder {ladder}: the seeds were probed"
            );
            assert_eq!(
                warm.iterations.len(),
                cold.iterations.len(),
                "ladder {ladder}"
            );
            for (w, c) in warm.iterations.iter().zip(&cold.iterations) {
                assert_eq!(w.schedulable, c.schedulable, "ladder {ladder}");
                assert_eq!(
                    w.missed_jobs, c.missed_jobs,
                    "ladder {ladder}, iteration {}",
                    c.index
                );
                assert_eq!(
                    w.missing_partitions, c.missing_partitions,
                    "ladder {ladder}"
                );
            }
            if ladder == LadderMode::Off {
                assert!(cold.iterations.iter().all(|i| i.missed_jobs > 0));
            }
        }
    }

    /// Runs a search with `speculation` candidates per round at
    /// `parallelism` workers, over a fresh verdict cache; returns the
    /// outcome and how many candidates the search probed the cache with,
    /// one per candidate proposed.
    fn speculative_search(
        problem: &DesignProblem,
        speculation: usize,
        parallelism: usize,
    ) -> (SearchOutcome, u64) {
        let cache = Arc::new(swa_core::ShardedVerdictCache::new(1 << 22));
        let options = SearchOptions {
            speculation,
            parallelism,
            ..SearchOptions::default()
        };
        let analyzer = Analyzer::configure().cache(cache.clone());
        let outcome = search_with(problem, &options, &analyzer).unwrap();
        let stats = cache.stats();
        (outcome, stats.hits + stats.misses)
    }

    /// One core, and a 15-tick deadline on a 50-tick period: the first
    /// windows miss it, and the repair rule needs three candidates.
    fn tight_deadline_problem() -> DesignProblem {
        DesignProblem {
            core_types: vec![CoreType::new("ct")],
            modules: vec![Module::homogeneous("M", 1, CoreTypeId::from_raw(0))],
            partitions: vec![
                Partition::new(
                    "control",
                    SchedulerKind::Fpps,
                    vec![
                        Task::new("law", 2, vec![10], 50).with_deadline(15),
                        Task::new("log", 1, vec![10], 100),
                    ],
                ),
                Partition::new(
                    "io",
                    SchedulerKind::Fpps,
                    vec![Task::new("poll", 1, vec![20], 100).with_deadline(60)],
                ),
            ],
            messages: vec![],
        }
    }

    #[test]
    fn speculation_sets_the_candidates_per_round() {
        let problem = tight_deadline_problem();
        for speculation in [1, 2, 4] {
            let (sequential, proposed) = speculative_search(&problem, speculation, 1);
            let (parallel, _) = speculative_search(&problem, speculation, 2);
            assert!(sequential.found(), "speculation {speculation}");
            assert_eq!(
                parallel.configuration, sequential.configuration,
                "speculation {speculation}"
            );
            let evaluated = sequential.iterations.len();
            assert_eq!(evaluated, 3, "speculation {speculation}");
            if speculation == 1 {
                // One candidate per round, each evaluated: three rounds.
                assert_eq!(proposed, 3);
            } else {
                // The round that wins also proposed rungs past the winner.
                assert_eq!(proposed, 4, "speculation {speculation}");
            }
        }
    }

    #[test]
    fn parallelism_does_not_change_the_found_configuration() {
        for problem in [two_partition_problem(1), two_partition_problem(2)] {
            let sequential = search(
                &problem,
                &SearchOptions {
                    parallelism: 1,
                    ..SearchOptions::default()
                },
            )
            .unwrap();
            for parallelism in [2usize, 4] {
                let parallel = search(
                    &problem,
                    &SearchOptions {
                        parallelism,
                        ..SearchOptions::default()
                    },
                )
                .unwrap();
                assert_eq!(
                    parallel.configuration, sequential.configuration,
                    "parallelism {parallelism}"
                );
                assert_eq!(
                    parallel.iterations.len(),
                    sequential.iterations.len(),
                    "parallelism {parallelism}"
                );
            }
        }
    }
}
