//! # swa-rta — classical analytical schedulability tests
//!
//! The paper motivates its trace-based approach by noting that existing
//! analytical methods "do not consider all modular systems features"
//! (reference \[4\] there): classical response-time analysis assumes a task
//! set *alone on a core, always available* — no partition windows, no
//! data dependencies over virtual links. This crate implements those
//! classics so the difference can be *measured*:
//!
//! * [`response_times`] — the Joseph & Pandya fixed-point iteration for
//!   FPPS (exact for the classical model);
//! * [`liu_layland_bound`] — the Liu & Layland utilization bound (a
//!   sufficient test);
//! * [`compare`] — runs classical RTA per partition against the
//!   stopwatch-automata trace analysis and reports where the classical
//!   model's blind spots (windows, dependencies) change the verdict;
//! * [`window_rta`] — the *window-supply* generalization (supply-bound /
//!   request-bound functions over the ARINC-653 window schedule, per the
//!   compositional interfaces of Han et al., arXiv:1807.11570). Unlike
//!   the classics above it **sees** partition windows, which makes its
//!   `Schedulable` answers sound against the trace analysis; it powers
//!   tier T1 of the verdict ladder
//!   ([`swa_core::ladder`], DESIGN.md §4.20).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::module_name_repetitions)]

use swa_ima::{Configuration, PartitionId, SchedulerKind};

/// A task as the classical model sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtaTask {
    /// Worst-case execution time.
    pub wcet: i64,
    /// Period.
    pub period: i64,
    /// Relative deadline (`≤ period`).
    pub deadline: i64,
    /// Fixed priority (larger = more urgent).
    pub priority: i64,
}

/// Worst-case response times under fixed-priority preemptive scheduling on
/// a dedicated, always-available core (Joseph & Pandya 1986).
///
/// `R_i = C_i + Σ_{j ∈ hp(i)} ⌈R_i / P_j⌉ · C_j`, iterated to the fixed
/// point. Returns `None` for a task whose iteration exceeds its deadline
/// (the task set is then unschedulable in the classical model).
///
/// Equal priorities are handled pessimistically, as usual: each task
/// counts same-priority peers as interference.
#[must_use]
pub fn response_times(tasks: &[RtaTask]) -> Vec<Option<i64>> {
    tasks
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let interferers: Vec<&RtaTask> = tasks
                .iter()
                .enumerate()
                .filter(|(j, o)| *j != i && o.priority >= t.priority)
                .map(|(_, o)| o)
                .collect();
            let mut r = t.wcet;
            loop {
                let interference: i64 = interferers
                    .iter()
                    .map(|o| ((r + o.period - 1) / o.period) * o.wcet)
                    .sum();
                let next = t.wcet + interference;
                if next > t.deadline {
                    return None;
                }
                if next == r {
                    return Some(r);
                }
                r = next;
            }
        })
        .collect()
}

/// The Liu & Layland utilization bound for `n` tasks under rate-monotonic
/// priorities: `n (2^{1/n} − 1)`.
///
/// A task set of `n` independent periodic tasks on a dedicated,
/// always-available core is schedulable under rate-monotonic FPPS if its
/// total utilization is at most this bound (a *sufficient* test: sets
/// above the bound may still be schedulable, e.g. harmonic periods up to
/// utilization 1). The bound is 1.0 for a single task and decreases
/// monotonically towards `ln 2 ≈ 0.693` as `n → ∞`.
///
/// For `n = 0` there are no tasks and the formula is vacuous; this
/// returns `0.0` — the empty set's own utilization — so that
/// `utilization ≤ bound` still holds exactly for the empty task set
/// (earlier releases returned a meaningless `1.0` here).
///
/// ```
/// assert_eq!(swa_rta::liu_layland_bound(0), 0.0);
/// assert_eq!(swa_rta::liu_layland_bound(1), 1.0);
/// assert!((swa_rta::liu_layland_bound(2) - 0.828_427).abs() < 1e-6);
/// assert!(swa_rta::liu_layland_bound(1000) > (2.0f64).ln());
/// ```
#[must_use]
pub fn liu_layland_bound(n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    let n = n as f64;
    n * ((2.0f64).powf(1.0 / n) - 1.0)
}

/// The classical verdict for one partition's task set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RtaVerdict {
    /// The partition.
    pub partition: PartitionId,
    /// Response time per task (`None` = exceeds its deadline).
    pub response_times: Vec<Option<i64>>,
    /// Whether every task met its deadline in the classical model.
    pub schedulable: bool,
    /// Whether the classical model's assumptions even apply (FPPS, no
    /// incoming data dependencies). When `false`, the verdict is reported
    /// but marked inapplicable.
    pub assumptions_hold: bool,
}

/// A comparison of classical RTA and the trace-based analysis.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Per-partition classical verdicts.
    pub rta: Vec<RtaVerdict>,
    /// The trace-based verdict for the whole configuration.
    pub trace_schedulable: bool,
    /// Partitions where classical RTA says schedulable but the trace shows
    /// a miss (the classical model ignores windows and link delays, so it
    /// is optimistic for modular systems).
    pub optimistic_partitions: Vec<PartitionId>,
}

impl Comparison {
    /// Whether the classical model told the whole story (no optimism).
    #[must_use]
    pub fn classical_model_suffices(&self) -> bool {
        self.optimistic_partitions.is_empty()
    }
}

/// Runs classical per-partition RTA against the trace-based analysis.
///
/// # Errors
///
/// Propagates pipeline errors from the trace-based analysis.
pub fn compare(config: &Configuration) -> Result<Comparison, swa_core::PipelineError> {
    let report = swa_core::analyze_configuration(config)?;

    let mut rta = Vec::new();
    let mut optimistic = Vec::new();
    for (pi, p) in config.partitions.iter().enumerate() {
        let pid = PartitionId::from_raw(u32::try_from(pi).expect("partition count fits u32"));
        let core_type = config
            .core_type_of_task(swa_ima::TaskRef::new(pid, 0))
            .expect("validated binding");
        let tasks: Vec<RtaTask> = p
            .tasks
            .iter()
            .map(|t| RtaTask {
                wcet: t.wcet_on(core_type),
                period: t.period,
                deadline: t.deadline,
                priority: t.priority,
            })
            .collect();
        let rts = response_times(&tasks);
        let schedulable = rts.iter().all(Option::is_some);
        let has_inputs = config.messages.iter().any(|m| m.receiver.partition == pid);
        let assumptions_hold = p.scheduler == SchedulerKind::Fpps && !has_inputs;

        // Optimism: classical says yes, the trace shows this partition
        // missing.
        let partition_missed = report
            .analysis
            .missed_jobs()
            .any(|j| j.task.partition == pid);
        if schedulable && partition_missed {
            optimistic.push(pid);
        }
        rta.push(RtaVerdict {
            partition: pid,
            response_times: rts,
            schedulable,
            assumptions_hold,
        });
    }

    Ok(Comparison {
        rta,
        trace_schedulable: report.schedulable(),
        optimistic_partitions: optimistic,
    })
}

pub use swa_core::ladder::{partition_window_rta, window_supply_rta};

/// The window-supply RTA verdict for one partition.
///
/// Produced by [`window_rta`]; mirrors [`RtaVerdict`] but for the
/// supply-bound-function test that accounts for the partition's ARINC-653
/// windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowRtaVerdict {
    /// The partition.
    pub partition: PartitionId,
    /// Whether every task provably meets its deadline given the window
    /// supply. Always `false` when `assumptions_hold` is `false` — an
    /// inapplicable test proves nothing.
    pub schedulable: bool,
    /// Whether the test applies to this partition (FPPS scheduler, no
    /// incoming data dependencies, finite task parameters). When `false`
    /// the partition must be left to the exact trace analysis.
    pub assumptions_hold: bool,
}

/// Runs the window-supply response-time test on every partition.
///
/// Unlike classical [`response_times`], this test models the partition's
/// window schedule through its supply-bound function, so a `schedulable`
/// answer with `assumptions_hold` is *sound*: the exact trace analysis
/// agrees (see `tests/soundness.rs`). Partitions where the assumptions
/// fail (non-FPPS scheduler, message receivers) come back with
/// `assumptions_hold: false` and `schedulable: false`.
#[must_use]
pub fn window_rta(config: &Configuration) -> Vec<WindowRtaVerdict> {
    (0..config.partitions.len())
        .map(|pi| {
            let pid = PartitionId::from_raw(u32::try_from(pi).expect("partition count fits u32"));
            match partition_window_rta(config, pid) {
                Some(schedulable) => WindowRtaVerdict {
                    partition: pid,
                    schedulable,
                    assumptions_hold: true,
                },
                None => WindowRtaVerdict {
                    partition: pid,
                    schedulable: false,
                    assumptions_hold: false,
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use swa_ima::{CoreRef, CoreType, CoreTypeId, Module, ModuleId, Partition, Task, Window};

    /// The classic three-task example (Burns & Wellings): C = (3, 3, 5),
    /// P = (7, 12, 20), priorities descending — response times 3, 6, 20.
    #[test]
    fn textbook_example_matches() {
        let tasks = [
            RtaTask {
                wcet: 3,
                period: 7,
                deadline: 7,
                priority: 3,
            },
            RtaTask {
                wcet: 3,
                period: 12,
                deadline: 12,
                priority: 2,
            },
            RtaTask {
                wcet: 5,
                period: 20,
                deadline: 20,
                priority: 1,
            },
        ];
        assert_eq!(response_times(&tasks), vec![Some(3), Some(6), Some(20)]);
    }

    #[test]
    fn overload_is_unschedulable() {
        let tasks = [
            RtaTask {
                wcet: 5,
                period: 10,
                deadline: 10,
                priority: 2,
            },
            RtaTask {
                wcet: 6,
                period: 10,
                deadline: 10,
                priority: 1,
            },
        ];
        let rts = response_times(&tasks);
        assert_eq!(rts[0], Some(5));
        assert_eq!(rts[1], None);
    }

    #[test]
    fn single_task_response_is_its_wcet() {
        let tasks = [RtaTask {
            wcet: 4,
            period: 10,
            deadline: 10,
            priority: 1,
        }];
        assert_eq!(response_times(&tasks), vec![Some(4)]);
    }

    #[test]
    fn liu_layland_values() {
        assert!((liu_layland_bound(1) - 1.0).abs() < 1e-9);
        assert!((liu_layland_bound(2) - 0.8284).abs() < 1e-3);
        // The bound decreases towards ln 2.
        assert!(liu_layland_bound(100) > 0.69);
        assert!(liu_layland_bound(100) < liu_layland_bound(2));
    }

    fn windowed_config(window_end: i64) -> Configuration {
        Configuration {
            core_types: vec![CoreType::new("ct")],
            modules: vec![Module::homogeneous("M", 1, CoreTypeId::from_raw(0))],
            partitions: vec![Partition::new(
                "P",
                SchedulerKind::Fpps,
                vec![
                    Task::new("a", 2, vec![10], 50),
                    Task::new("b", 1, vec![15], 50),
                ],
            )],
            binding: vec![CoreRef::new(ModuleId::from_raw(0), 0)],
            windows: vec![vec![Window::new(0, window_end)]],
            messages: vec![],
        }
    }

    #[test]
    fn agreement_with_full_windows() {
        // Whole hyperperiod available: classical and trace-based agree.
        let comparison = compare(&windowed_config(50)).unwrap();
        assert!(comparison.trace_schedulable);
        assert!(comparison.rta[0].schedulable);
        assert!(comparison.classical_model_suffices());
        assert!(comparison.rta[0].assumptions_hold);
    }

    #[test]
    fn classical_rta_is_blind_to_windows() {
        // Only 20 of 50 ticks are granted: the trace shows misses while
        // classical RTA (which cannot see windows) still says schedulable —
        // exactly the optimism the paper's approach eliminates.
        let comparison = compare(&windowed_config(20)).unwrap();
        assert!(!comparison.trace_schedulable);
        assert!(comparison.rta[0].schedulable);
        assert!(!comparison.classical_model_suffices());
        assert_eq!(
            comparison.optimistic_partitions,
            vec![PartitionId::from_raw(0)]
        );
    }

    #[test]
    fn assumptions_flag_marks_dependencies_and_other_policies() {
        let mut c = windowed_config(50);
        c.partitions[0].scheduler = SchedulerKind::Edf;
        let comparison = compare(&c).unwrap();
        assert!(!comparison.rta[0].assumptions_hold);
    }

    #[test]
    fn window_rta_sees_the_windows_classical_rta_misses() {
        // Same pair of configurations as the classical comparison above:
        // with the full hyperperiod granted, the window-supply test proves
        // schedulability; with only 20 of 50 ticks it refuses to — where
        // classical RTA would still (optimistically) say yes.
        let full = window_rta(&windowed_config(50));
        assert_eq!(full.len(), 1);
        assert!(full[0].assumptions_hold);
        assert!(full[0].schedulable);
        assert!(window_supply_rta(&windowed_config(50)).is_schedulable());

        let starved = window_rta(&windowed_config(20));
        assert!(starved[0].assumptions_hold);
        assert!(!starved[0].schedulable);
        assert!(window_supply_rta(&windowed_config(20)).is_undecided());
    }

    #[test]
    fn window_rta_marks_inapplicable_partitions() {
        let mut c = windowed_config(50);
        c.partitions[0].scheduler = SchedulerKind::Edf;
        let verdicts = window_rta(&c);
        assert!(!verdicts[0].assumptions_hold);
        assert!(!verdicts[0].schedulable);
        // An inapplicable partition forces the whole-config answer to
        // Undecided, never to Schedulable.
        assert!(window_supply_rta(&c).is_undecided());
    }
}
