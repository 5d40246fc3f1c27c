//! Parallel batch analysis: fan a family of candidate configurations out
//! across worker threads, with deterministic results and early
//! cancellation.
//!
//! The paper's headline result — one deterministic simulated run replaces
//! model checking — makes a single schedulability check cheap enough to
//! sit inside a configuration-search loop (Sect. 4). The natural next step
//! is the *batch* workload that loop produces: many independent checks
//! over a family of candidates. This module is that engine, built like
//! [`swa_mc::parallel`]: `std::thread` workers, `std::sync` coordination,
//! no external dependencies.
//!
//! Determinism is preserved under parallelism:
//!
//! * in **first-schedulable** mode the winner is the *lowest* schedulable
//!   candidate index — identical to a sequential scan — no matter which
//!   worker finishes first. A later candidate found schedulable early only
//!   cancels work *beyond* its index; lower-index candidates still in
//!   flight are always drained.
//! * errors behave like a sequential `?`: an error at candidate `i` is
//!   reported iff no schedulable candidate precedes `i`.
//!
//! [`swa_mc::parallel`]: ../../swa_mc/parallel/index.html

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Instant;

use swa_ima::Configuration;

use crate::analyzer::Analyzer;
use crate::error::PipelineError;
use crate::pipeline::AnalysisReport;

/// What the engine does after finding a schedulable candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BatchMode {
    /// Stop as soon as the first (lowest-index) schedulable candidate is
    /// certain; candidates beyond it are skipped.
    FirstSchedulable,
    /// Evaluate every candidate.
    Exhaustive,
}

/// The full analysis of one evaluated candidate.
#[derive(Debug, Clone)]
pub struct CandidateResult {
    /// The candidate's index in the input family.
    pub index: usize,
    /// The complete pipeline report.
    pub report: AnalysisReport,
}

// The metrics snapshots moved to the unified observability layer; these
// re-exports keep the historical paths working.
pub use crate::obs::{BatchMetrics, WorkerStats};

/// The deterministic result of a batch run.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Per-candidate results in input order; `None` for candidates the
    /// engine proved irrelevant (beyond the winner in first-schedulable
    /// mode). The populated prefix is identical to what a sequential scan
    /// would have produced, regardless of parallelism.
    pub results: Vec<Option<CandidateResult>>,
    /// Index of the first schedulable candidate, if any was identified.
    pub winner: Option<usize>,
    /// Aggregated work accounting (wall time, per-phase sums, per-worker
    /// utilization). Unlike `results`, the accounting may vary from run to
    /// run — workers can race a few extra evaluations past the winner.
    pub metrics: BatchMetrics,
}

impl BatchOutcome {
    /// The winning candidate's report.
    #[must_use]
    pub fn winner_report(&self) -> Option<&AnalysisReport> {
        let i = self.winner?;
        self.results[i].as_ref().map(|r| &r.report)
    }

    /// Number of candidates with a result.
    #[must_use]
    pub fn evaluated(&self) -> usize {
        self.results.iter().filter(|r| r.is_some()).count()
    }

    /// Number of candidates cancelled without evaluation.
    #[must_use]
    pub fn skipped(&self) -> usize {
        self.results.len() - self.evaluated()
    }
}

/// What one worker reports back to the collector.
enum Message {
    Evaluated(usize, Box<AnalysisReport>),
    Done(usize, WorkerStats),
}

/// Runs the batch engine over a family of candidate configurations, each
/// analyzed with `analyzer`'s settings on
/// [`parallelism`](Analyzer::parallelism) workers. The engine behind
/// [`Analyzer::analyze_all`] and [`Analyzer::first_schedulable`].
///
/// # Errors
///
/// Returns the error a sequential loop would have returned: the
/// lowest-index failing candidate's [`PipelineError`], unless a
/// schedulable candidate precedes it.
pub(crate) fn run_batch(
    configs: &[Configuration],
    analyzer: &Analyzer<'_>,
    mode: BatchMode,
) -> Result<BatchOutcome, PipelineError> {
    let started = Instant::now();
    let workers = effective_parallelism(analyzer.parallelism).min(configs.len().max(1));

    // `next` hands out candidate indices in order; `cutoff` is the lowest
    // index known to terminate a sequential scan (a schedulable candidate
    // in first-wins mode, or an error in any mode) — workers skip
    // candidates beyond it but always drain lower ones.
    let next = AtomicUsize::new(0);
    let cutoff = AtomicUsize::new(usize::MAX);
    let first_error: Mutex<Option<(usize, PipelineError)>> = Mutex::new(None);
    let (tx, rx) = mpsc::channel::<Message>();

    std::thread::scope(|scope| {
        for worker_id in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let cutoff = &cutoff;
            let first_error = &first_error;
            scope.spawn(move || {
                let mut stats = WorkerStats::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= configs.len() || i > cutoff.load(Ordering::Acquire) {
                        break;
                    }
                    let t = Instant::now();
                    let run = Analyzer {
                        config: Some(&configs[i]),
                        // The batch records its metrics once, at the end.
                        recorder: None,
                        // Candidates already run in parallel; a
                        // compositional candidate fans its modules out
                        // sequentially within this worker rather than
                        // nesting thread pools.
                        parallelism: 1,
                        ..analyzer.clone()
                    }
                    .run();
                    stats.busy += t.elapsed();
                    stats.checks += 1;
                    match run {
                        Ok(report) => {
                            if mode == BatchMode::FirstSchedulable && report.schedulable() {
                                cutoff.fetch_min(i, Ordering::Release);
                            }
                            // The collector outlives the scope; a send can
                            // only fail if the receiver is gone, which
                            // cannot happen here.
                            let _ = tx.send(Message::Evaluated(i, Box::new(report)));
                        }
                        Err(e) => {
                            cutoff.fetch_min(i, Ordering::Release);
                            let mut slot = first_error.lock().expect("unpoisoned");
                            if slot.as_ref().is_none_or(|(j, _)| i < *j) {
                                *slot = Some((i, e));
                            }
                        }
                    }
                }
                let _ = tx.send(Message::Done(worker_id, stats));
            });
        }
    });
    drop(tx);

    let mut results: Vec<Option<CandidateResult>> = (0..configs.len()).map(|_| None).collect();
    let mut metrics = BatchMetrics {
        workers: vec![WorkerStats::default(); workers],
        ..BatchMetrics::default()
    };
    for msg in rx {
        match msg {
            Message::Evaluated(index, report) => {
                metrics.build += report.metrics.build;
                metrics.compile += report.metrics.compile.time;
                metrics.simulate += report.metrics.simulate;
                metrics.analyze += report.metrics.analyze;
                metrics.checks += 1;
                results[index] = Some(CandidateResult {
                    index,
                    report: *report,
                });
            }
            Message::Done(worker_id, stats) => metrics.workers[worker_id] = stats,
        }
    }
    metrics.wall = started.elapsed();

    // The deterministic winner: the lowest schedulable index. All indices
    // below it were evaluated (the cutoff only ever cancels higher ones).
    let winner = results
        .iter()
        .flatten()
        .find(|r| r.report.schedulable())
        .map(|r| r.index);

    // Sequential error semantics: an error only surfaces if no schedulable
    // candidate precedes it.
    if let Some((error_index, error)) = first_error.into_inner().expect("unpoisoned") {
        if winner.is_none_or(|w| error_index < w) {
            return Err(error);
        }
    }

    // Make the result set parallelism-independent: drop any evaluations a
    // worker raced past the winner (a sequential scan would never have
    // reached them). The work they cost stays visible in `metrics`.
    if mode == BatchMode::FirstSchedulable {
        if let Some(w) = winner {
            for slot in results.iter_mut().skip(w + 1) {
                *slot = None;
            }
        }
    }

    if let Some(recorder) = &analyzer.recorder {
        metrics.record_to(recorder.as_ref());
    }

    Ok(BatchOutcome {
        results,
        winner,
        metrics,
    })
}

/// Resolves `0` to the number of available cores.
fn effective_parallelism(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use swa_ima::{
        CoreRef, CoreType, CoreTypeId, Module, ModuleId, Partition, SchedulerKind, Task, Window,
    };

    /// A one-core, one-partition candidate whose schedulability is decided
    /// by `wcet` (the window is 50 wide; two tasks of `wcet` each fit iff
    /// `2 * wcet <= 50`).
    fn candidate(wcet: i64) -> Configuration {
        Configuration {
            core_types: vec![CoreType::new("ct")],
            modules: vec![Module::homogeneous("M", 1, CoreTypeId::from_raw(0))],
            partitions: vec![Partition::new(
                "P",
                SchedulerKind::Fpps,
                vec![
                    Task::new("a", 2, vec![wcet], 50),
                    Task::new("b", 1, vec![wcet], 50),
                ],
            )],
            binding: vec![CoreRef::new(ModuleId::from_raw(0), 0)],
            windows: vec![vec![Window::new(0, 50)]],
            messages: vec![],
        }
    }

    /// A family whose first schedulable candidate sits at `winner`.
    fn family(total: usize, winner: usize) -> Vec<Configuration> {
        (0..total)
            .map(|i| candidate(if i >= winner { 10 } else { 40 }))
            .collect()
    }

    #[test]
    fn empty_family_has_no_winner() {
        let out = Analyzer::configure().first_schedulable(&[]).unwrap();
        assert!(out.results.is_empty());
        assert_eq!(out.winner, None);
    }

    #[test]
    fn winner_matches_sequential_scan_for_any_parallelism() {
        let configs = family(12, 7);
        let sequential = configs
            .iter()
            .position(|c| Analyzer::new(c).run().unwrap().schedulable());
        for parallelism in [1, 4] {
            let out = Analyzer::configure()
                .parallelism(parallelism)
                .first_schedulable(&configs)
                .unwrap();
            assert_eq!(out.winner, sequential, "parallelism {parallelism}");
            // Every candidate before the winner was evaluated and found
            // unschedulable.
            for r in out.results.iter().take(7) {
                assert!(!r.as_ref().unwrap().report.schedulable());
            }
        }
    }

    #[test]
    fn exhaustive_mode_evaluates_everything() {
        let configs = family(10, 2);
        let out = Analyzer::configure()
            .parallelism(4)
            .analyze_all(&configs)
            .unwrap();
        assert_eq!(out.evaluated(), 10);
        assert_eq!(out.winner, Some(2));
        assert_eq!(out.metrics.checks, 10);
    }

    #[test]
    fn early_winner_cancels_the_tail() {
        let configs = family(60, 0);
        let out = Analyzer::configure()
            .parallelism(4)
            .first_schedulable(&configs)
            .unwrap();
        assert_eq!(out.winner, Some(0));
        // Workers may race a handful of candidates past the winner, but
        // the bulk of the family must be cancelled.
        assert!(
            out.skipped() >= 50,
            "only {} of 60 candidates were skipped",
            out.skipped()
        );
    }

    #[test]
    fn cancellation_drains_to_quiescence_without_orphans() {
        // Cancellation (the cutoff) lands mid-hand-out while workers are
        // still pulling indices. Quiescence after return: every worker
        // reported its final stats (the scope joined it), every evaluation
        // that happened is accounted, and every candidate is either
        // evaluated or explicitly skipped — none orphaned in between.
        for parallelism in [2usize, 4, 8] {
            let configs = family(40, 3);
            let out = Analyzer::configure()
                .parallelism(parallelism)
                .first_schedulable(&configs)
                .unwrap();
            assert_eq!(out.winner, Some(3), "parallelism {parallelism}");
            // No thread leaked: scoped workers joined, so each of the
            // `parallelism` workers delivered its Done accounting, and the
            // per-worker sums reconcile exactly with the batch total.
            assert_eq!(out.metrics.workers.len(), parallelism);
            assert_eq!(
                out.metrics.workers.iter().map(|w| w.checks).sum::<usize>(),
                out.metrics.checks,
                "parallelism {parallelism}"
            );
            // Queue empty: every candidate is either evaluated or skipped;
            // the sequential prefix is fully evaluated and everything past
            // the winner was dropped.
            assert_eq!(out.evaluated() + out.skipped(), configs.len());
            assert_eq!(out.evaluated(), 4);
            assert!(out.results.iter().skip(4).all(Option::is_none));
            // Evaluations raced past the winner before cancellation landed
            // still appear in the work accounting (nothing vanished).
            assert!(out.metrics.checks >= out.evaluated());
        }
    }

    #[test]
    fn error_before_winner_surfaces_like_sequential() {
        let mut configs = family(6, 4);
        configs[1].binding.clear(); // structurally invalid candidate
        let err = Analyzer::configure()
            .parallelism(4)
            .first_schedulable(&configs);
        assert!(err.is_err(), "invalid candidate before the winner");
    }

    #[test]
    fn error_after_winner_is_irrelevant_like_sequential() {
        let mut configs = family(6, 1);
        configs[4].binding.clear(); // invalid, but beyond the winner
        let out = Analyzer::configure()
            .parallelism(2)
            .first_schedulable(&configs)
            .unwrap();
        assert_eq!(out.winner, Some(1));
    }

    #[test]
    fn shared_checkpoint_store_serves_duplicate_candidates() {
        use crate::checkpoint::{CheckpointStore as _, ShardedCheckpointStore};
        use std::sync::Arc;

        // Four copies of the same candidate: after the first insertion,
        // every later evaluation is a full hit at the same horizon.
        let configs = vec![candidate(10); 4];
        let store = Arc::new(ShardedCheckpointStore::new(1 << 22));
        let cold = Analyzer::configure()
            .parallelism(1)
            .analyze_all(&configs)
            .unwrap();
        let warm = Analyzer::configure()
            .parallelism(1)
            .checkpoints(store.clone())
            .analyze_all(&configs)
            .unwrap();
        assert_eq!(warm.winner, cold.winner);
        for (w, c) in warm.results.iter().zip(&cold.results) {
            let (w, c) = (w.as_ref().unwrap(), c.as_ref().unwrap());
            assert_eq!(w.report.trace, c.report.trace);
            assert_eq!(w.report.schedulable(), c.report.schedulable());
        }
        let stats = store.stats();
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.full_hits, 3);
    }

    #[test]
    fn metrics_account_for_the_work() {
        let configs = family(8, usize::MAX); // nothing schedulable
        let out = Analyzer::configure()
            .parallelism(2)
            .first_schedulable(&configs)
            .unwrap();
        assert_eq!(out.winner, None);
        assert_eq!(out.metrics.checks, 8);
        assert_eq!(out.metrics.workers.len(), 2);
        assert_eq!(
            out.metrics.workers.iter().map(|w| w.checks).sum::<usize>(),
            8
        );
        assert!(out.metrics.wall > Duration::ZERO);
        assert!(out.metrics.checks_per_sec() > 0.0);
        assert!(out.metrics.utilization() > 0.0);
    }
}
