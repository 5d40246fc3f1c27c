//! Repair hints from per-task sensitivity sweeps.
//!
//! The search loop's repair heuristics (window widening, rebinding) act
//! on *structure*; a sensitivity sweep tells it *where* the structure is
//! tight. [`repair_hints`] ranks the tasks of a
//! [`swa_sweep::TaskSensitivity`] vector by ascending
//! WCET slack, so the caller can aim its next repair at the task whose
//! budget breaks first — and knows which tasks have headroom to give up.

use swa_ima::TaskRef;
use swa_sweep::{BreakdownOutcome, TaskSensitivity};

/// One ranked repair hint: a task and how close it is to its breakdown.
#[derive(Debug, Clone)]
pub struct RepairHint {
    /// The task the hint is about.
    pub task: TaskRef,
    /// Stable `<partition>/<task>` label from the sweep.
    pub label: String,
    /// WCET slack (`breakdown − 1`); `None` when no feasible factor was
    /// found at all — the system is broken at (or below) this task's
    /// current budget, which ranks it most critical.
    pub slack: Option<f64>,
    /// Human-readable suggestion for the repair loop's operator log.
    pub suggestion: String,
}

impl RepairHint {
    fn from_sensitivity(entry: &TaskSensitivity) -> Self {
        let slack = entry.slack();
        let suggestion = match (slack, entry.result.outcome) {
            (None, _) => format!(
                "{}: no feasible WCET scale found — shrink this task's budget or widen its partition's windows",
                entry.label
            ),
            (Some(s), BreakdownOutcome::NonMonotone) => format!(
                "{}: slack {s:.4} but the verdict flips non-monotonically — treat the bracket as advisory",
                entry.label
            ),
            (Some(s), _) if s < 0.25 => format!(
                "{}: tight (slack {s:.4}) — first candidate for more window time or a faster core",
                entry.label
            ),
            (Some(s), _) => format!(
                "{}: slack {s:.4} — headroom available; a donor if another task needs budget",
                entry.label
            ),
        };
        RepairHint {
            task: entry.task,
            label: entry.label.clone(),
            slack,
            suggestion,
        }
    }
}

/// Ranks a sensitivity vector by ascending slack: the tightest task —
/// the one whose WCET budget breaks the system first — comes first.
/// Tasks with no feasible factor at all rank ahead of everything.
#[must_use]
pub fn repair_hints(sensitivity: &[TaskSensitivity]) -> Vec<RepairHint> {
    let mut hints: Vec<RepairHint> = sensitivity
        .iter()
        .map(RepairHint::from_sensitivity)
        .collect();
    hints.sort_by(|a, b| {
        let ka = a.slack.unwrap_or(f64::NEG_INFINITY);
        let kb = b.slack.unwrap_or(f64::NEG_INFINITY);
        ka.total_cmp(&kb).then_with(|| a.label.cmp(&b.label))
    });
    hints
}

/// The single most critical hint (the tightest task), when the vector is
/// non-empty.
#[must_use]
pub fn repair_hint(sensitivity: &[TaskSensitivity]) -> Option<RepairHint> {
    repair_hints(sensitivity).into_iter().next()
}

#[cfg(test)]
mod tests {
    use super::*;
    use swa_ima::PartitionId;
    use swa_sweep::{BreakdownResult, ProbeRecord};

    fn entry(label: &str, index: u32, lo: Option<f64>) -> TaskSensitivity {
        TaskSensitivity {
            task: TaskRef::new(PartitionId::from_raw(0), index),
            label: label.to_string(),
            result: BreakdownResult {
                outcome: if lo.is_some() {
                    BreakdownOutcome::Converged
                } else {
                    BreakdownOutcome::InfeasibleEverywhere
                },
                lo,
                hi: lo.map(|l| l + 0.01),
                records: vec![ProbeRecord {
                    factor: 1.0,
                    feasible: lo.is_some(),
                }],
                flips: vec![],
            },
        }
    }

    #[test]
    fn tightest_task_ranks_first() {
        let hints = repair_hints(&[
            entry("P/a", 0, Some(3.0)),
            entry("P/b", 1, Some(1.1)),
            entry("P/c", 2, Some(2.0)),
        ]);
        let labels: Vec<&str> = hints.iter().map(|h| h.label.as_str()).collect();
        assert_eq!(labels, ["P/b", "P/c", "P/a"]);
        assert!(
            hints[0].suggestion.contains("tight"),
            "{}",
            hints[0].suggestion
        );
        assert!(
            hints[2].suggestion.contains("headroom"),
            "{}",
            hints[2].suggestion
        );
    }

    #[test]
    fn infeasible_tasks_outrank_everything() {
        let top = repair_hint(&[entry("P/ok", 0, Some(1.5)), entry("P/broken", 1, None)])
            .expect("non-empty vector");
        assert_eq!(top.label, "P/broken");
        assert_eq!(top.slack, None);
        assert!(top.suggestion.contains("no feasible"), "{}", top.suggestion);
        assert!(repair_hint(&[]).is_none());
    }

    #[test]
    fn non_monotone_results_are_flagged_advisory() {
        let mut e = entry("P/odd", 0, Some(2.0));
        e.result.outcome = BreakdownOutcome::NonMonotone;
        e.result.flips = vec![(1.5, 2.0)];
        let hint = repair_hint(&[e]).unwrap();
        assert!(hint.suggestion.contains("advisory"), "{}", hint.suggestion);
    }

    /// End-to-end: a real sensitivity sweep over a two-task partition
    /// ranks the heavier task (less slack) as the first repair target.
    #[test]
    fn real_sweep_ranks_the_heavier_task_tighter() {
        use swa_ima::{
            Configuration, CoreRef, CoreType, CoreTypeId, Module, ModuleId, Partition,
            SchedulerKind, Task, Window,
        };
        use swa_sweep::{SweepEngine, SweepOptions};
        let config = Configuration {
            core_types: vec![CoreType::new("ct")],
            modules: vec![Module::homogeneous("M", 1, CoreTypeId::from_raw(0))],
            partitions: vec![Partition::new(
                "P",
                SchedulerKind::Fpps,
                vec![
                    Task::new("heavy", 2, vec![20], 50),
                    Task::new("light", 1, vec![5], 50),
                ],
            )],
            binding: vec![CoreRef::new(ModuleId::from_raw(0), 0)],
            windows: vec![vec![Window::new(0, 50)]],
            messages: vec![],
        };
        let mut engine = SweepEngine::new(config, SweepOptions::default()).unwrap();
        let vector = engine.sensitivity(|_| {}, || false).unwrap();
        let hints = repair_hints(&vector);
        assert_eq!(hints[0].label, "P/heavy");
        assert!(
            hints[0].slack.unwrap() < hints[1].slack.unwrap(),
            "heavy task must have less slack: {hints:?}"
        );
    }
}
