//! End-to-end latency of task chains (sensor → processing → actuation
//! paths over virtual links) — the system-level quantity IMA designers
//! actually budget, computed from the analyzed trace.

use swa_ima::{Configuration, TaskRef};

use crate::analysis::Analysis;

/// Per-instance end-to-end measurement of one chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainInstance {
    /// Job index `k` (the same for every chain member: links connect
    /// same-period tasks).
    pub job: u32,
    /// Release of the first task's job.
    pub start_release: i64,
    /// Completion of the last task's job, when the whole chain completed.
    pub end_completion: Option<i64>,
}

impl ChainInstance {
    /// End-to-end latency (last completion − first release), if complete.
    #[must_use]
    pub fn latency(&self) -> Option<i64> {
        self.end_completion.map(|c| c - self.start_release)
    }
}

/// The latency profile of a chain across the hyperperiod.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainLatency {
    /// The chain, first task to last.
    pub chain: Vec<TaskRef>,
    /// One entry per job index.
    pub instances: Vec<ChainInstance>,
}

impl ChainLatency {
    /// Worst observed end-to-end latency over complete instances.
    #[must_use]
    pub fn worst(&self) -> Option<i64> {
        self.instances
            .iter()
            .filter_map(ChainInstance::latency)
            .max()
    }

    /// Whether every instance of the chain completed.
    #[must_use]
    pub fn all_complete(&self) -> bool {
        self.instances.iter().all(|i| i.end_completion.is_some())
    }
}

/// Errors from [`chain_latency`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ChainError {
    /// The chain has fewer than two tasks.
    TooShort,
    /// Two consecutive chain members are not connected by a message.
    NotConnected {
        /// The producing side.
        from: TaskRef,
        /// The consuming side.
        to: TaskRef,
    },
    /// A chain member does not exist in the configuration.
    UnknownTask(TaskRef),
}

impl std::fmt::Display for ChainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TooShort => write!(f, "a chain needs at least two tasks"),
            Self::NotConnected { from, to } => {
                write!(f, "no message connects {from} to {to}")
            }
            Self::UnknownTask(t) => write!(f, "unknown task {t}"),
        }
    }
}

impl std::error::Error for ChainError {}

/// Computes the per-instance end-to-end latency of a task chain from an
/// analysis: instance `k` spans from the release of the first task's job
/// `k` to the completion of the last task's job `k`.
///
/// # Errors
///
/// Returns [`ChainError`] when the chain is shorter than two tasks,
/// references unknown tasks, or has a hop with no connecting message.
pub fn chain_latency(
    config: &Configuration,
    analysis: &Analysis,
    chain: &[TaskRef],
) -> Result<ChainLatency, ChainError> {
    if chain.len() < 2 {
        return Err(ChainError::TooShort);
    }
    for &t in chain {
        if config.task(t).is_none() {
            return Err(ChainError::UnknownTask(t));
        }
    }
    for pair in chain.windows(2) {
        let (from, to) = (pair[0], pair[1]);
        let connected = config
            .messages
            .iter()
            .any(|m| m.sender == from && m.receiver == to);
        if !connected {
            return Err(ChainError::NotConnected { from, to });
        }
    }

    let first = chain[0];
    let last = *chain.last().expect("len >= 2");
    let job_count = analysis.jobs.iter().filter(|j| j.task == first).count();

    let mut instances = Vec::with_capacity(job_count);
    for k in 0..job_count {
        let job = u32::try_from(k).expect("job count fits u32");
        let start = analysis
            .jobs
            .iter()
            .find(|j| j.task == first && j.job == job)
            .expect("job exists");
        // The chain instance is complete iff every member's job completed.
        let all_done = chain.iter().all(|&t| {
            analysis
                .jobs
                .iter()
                .find(|j| j.task == t && j.job == job)
                .is_some_and(|j| j.completion.is_some())
        });
        let end = if all_done {
            analysis
                .jobs
                .iter()
                .find(|j| j.task == last && j.job == job)
                .and_then(|j| j.completion)
        } else {
            None
        };
        instances.push(ChainInstance {
            job,
            start_release: start.release,
            end_completion: end,
        });
    }

    Ok(ChainLatency {
        chain: chain.to_vec(),
        instances,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_configuration;
    use swa_ima::{
        CoreRef, CoreType, CoreTypeId, Message, Module, ModuleId, Partition, PartitionId,
        SchedulerKind, Task, Window,
    };

    fn tr(p: u32, t: u32) -> TaskRef {
        TaskRef::new(PartitionId::from_raw(p), t)
    }

    fn chain_config() -> Configuration {
        Configuration {
            core_types: vec![CoreType::new("ct")],
            modules: vec![
                Module::homogeneous("M1", 1, CoreTypeId::from_raw(0)),
                Module::homogeneous("M2", 1, CoreTypeId::from_raw(0)),
            ],
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
                CoreRef::new(ModuleId::from_raw(1), 0),
            ],
            windows: vec![vec![Window::new(0, 50)], vec![Window::new(0, 50)]],
            messages: vec![Message::new("vl", tr(0, 0), tr(1, 0), 1, 6)],
        }
    }

    #[test]
    fn measures_end_to_end_latency() {
        let config = chain_config();
        let report = analyze_configuration(&config).unwrap();
        let chain = chain_latency(&config, &report.analysis, &[tr(0, 0), tr(1, 0)]).unwrap();
        assert!(chain.all_complete());
        // sense [0,5), network 6 → act [11,15): latency 15.
        assert_eq!(chain.instances.len(), 1);
        assert_eq!(chain.instances[0].latency(), Some(15));
        assert_eq!(chain.worst(), Some(15));
    }

    #[test]
    fn incomplete_chains_report_none() {
        let mut config = chain_config();
        // Make the consumer impossible: deadline too tight for the data
        // arrival.
        config.partitions[1].tasks[0].deadline = 10;
        let report = analyze_configuration(&config).unwrap();
        assert!(!report.schedulable());
        let chain = chain_latency(&config, &report.analysis, &[tr(0, 0), tr(1, 0)]).unwrap();
        assert!(!chain.all_complete());
        assert_eq!(chain.worst(), None);
    }

    /// Two-module chain where the sender shares its FPPS partition with a
    /// higher-priority task of twice the period: only instance 0 pays the
    /// interference, and both latencies are known exactly.
    ///
    /// M1, window `[0,50)`: `hi` runs `[0,4)`, `s` runs `[4,9)` then
    /// `[25,30)`; network delay 6 delivers at 15 and 36; `a` runs
    /// `[15,19)` and `[36,40)` on M2 — latencies 19 and 15.
    #[test]
    fn fpps_interference_shifts_only_the_contended_instance() {
        let config = Configuration {
            core_types: vec![CoreType::new("ct")],
            modules: vec![
                Module::homogeneous("M1", 1, CoreTypeId::from_raw(0)),
                Module::homogeneous("M2", 1, CoreTypeId::from_raw(0)),
            ],
            partitions: vec![
                Partition::new(
                    "proc",
                    SchedulerKind::Fpps,
                    vec![
                        Task::new("hi", 2, vec![4], 50),
                        Task::new("s", 1, vec![5], 25),
                    ],
                ),
                Partition::new(
                    "act",
                    SchedulerKind::Fpps,
                    vec![Task::new("a", 1, vec![4], 25)],
                ),
            ],
            binding: vec![
                CoreRef::new(ModuleId::from_raw(0), 0),
                CoreRef::new(ModuleId::from_raw(1), 0),
            ],
            windows: vec![vec![Window::new(0, 50)], vec![Window::new(0, 50)]],
            messages: vec![Message::new("vl", tr(0, 1), tr(1, 0), 1, 6)],
        };
        let report = analyze_configuration(&config).unwrap();
        assert!(report.schedulable());
        let chain = chain_latency(&config, &report.analysis, &[tr(0, 1), tr(1, 0)]).unwrap();
        assert!(chain.all_complete());
        assert_eq!(chain.instances.len(), 2);
        assert_eq!(chain.instances[0].latency(), Some(19));
        assert_eq!(chain.instances[1].latency(), Some(15));
        assert_eq!(chain.worst(), Some(19));
    }

    /// Under EDF the urgent-deadline task runs first even though the chain
    /// task carries the larger fixed priority — the chain latency shows
    /// the deferral. (Under FPPS the same priorities would run `s` first.)
    #[test]
    fn edf_defers_the_chain_task_behind_a_tighter_deadline() {
        let mut urgent = Task::new("u", 1, vec![4], 50);
        urgent.deadline = 12;
        let config = Configuration {
            core_types: vec![CoreType::new("ct")],
            modules: vec![
                Module::homogeneous("M1", 1, CoreTypeId::from_raw(0)),
                Module::homogeneous("M2", 1, CoreTypeId::from_raw(0)),
            ],
            partitions: vec![
                Partition::new(
                    "proc",
                    SchedulerKind::Edf,
                    vec![urgent, Task::new("s", 9, vec![5], 50)],
                ),
                Partition::new(
                    "act",
                    SchedulerKind::Fpps,
                    vec![Task::new("a", 1, vec![4], 50)],
                ),
            ],
            binding: vec![
                CoreRef::new(ModuleId::from_raw(0), 0),
                CoreRef::new(ModuleId::from_raw(1), 0),
            ],
            windows: vec![vec![Window::new(0, 50)], vec![Window::new(0, 50)]],
            messages: vec![Message::new("vl", tr(0, 1), tr(1, 0), 1, 6)],
        };
        let report = analyze_configuration(&config).unwrap();
        assert!(report.schedulable());
        let chain = chain_latency(&config, &report.analysis, &[tr(0, 1), tr(1, 0)]).unwrap();
        // u [0,4), s [4,9), +6 network → a [15,19): latency 19, not the
        // 15 an FPPS run of `s` first would give.
        assert_eq!(chain.worst(), Some(19));
    }

    /// Property: end-to-end chain latency is monotone non-decreasing in a
    /// uniform WCET scale. Seeded LCG fixtures, integer scale factors (so
    /// each task's WCET is exactly non-decreasing), comparisons skipped
    /// once an instance stops completing.
    #[test]
    fn chain_latency_is_monotone_in_wcet_scale() {
        let mut state: u64 = 0x5eed_cafe_f00d_d00d;
        let mut rand = move |lo: i64, hi: i64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            lo + i64::try_from((state >> 33) % u64::try_from(hi - lo + 1).unwrap()).unwrap()
        };
        let mut complete_at_base = 0;
        for _case in 0..8 {
            let (w_hi, w_s, w_a) = (rand(1, 4), rand(2, 5), rand(2, 5));
            let net = rand(2, 8);
            let base = |scale: i64| Configuration {
                core_types: vec![CoreType::new("ct")],
                modules: vec![
                    Module::homogeneous("M1", 1, CoreTypeId::from_raw(0)),
                    Module::homogeneous("M2", 1, CoreTypeId::from_raw(0)),
                ],
                partitions: vec![
                    Partition::new(
                        "proc",
                        SchedulerKind::Fpps,
                        vec![
                            Task::new("hi", 2, vec![w_hi * scale], 50),
                            Task::new("s", 1, vec![w_s * scale], 50),
                        ],
                    ),
                    Partition::new(
                        "act",
                        SchedulerKind::Fpps,
                        vec![Task::new("a", 1, vec![w_a * scale], 50)],
                    ),
                ],
                binding: vec![
                    CoreRef::new(ModuleId::from_raw(0), 0),
                    CoreRef::new(ModuleId::from_raw(1), 0),
                ],
                windows: vec![vec![Window::new(0, 50)], vec![Window::new(0, 50)]],
                messages: vec![Message::new("vl", tr(0, 1), tr(1, 0), 1, net)],
            };
            let mut prev: Option<i64> = None;
            for scale in 1..=5 {
                let config = base(scale);
                let report = analyze_configuration(&config).unwrap();
                let chain =
                    chain_latency(&config, &report.analysis, &[tr(0, 1), tr(1, 0)]).unwrap();
                let worst = chain.worst();
                if scale == 1 {
                    assert!(worst.is_some(), "base case must complete: {config:?}");
                    complete_at_base += 1;
                }
                if let (Some(p), Some(w)) = (prev, worst) {
                    assert!(
                        w >= p,
                        "latency dropped from {p} to {w} at scale {scale} for {config:?}"
                    );
                }
                if worst.is_some() {
                    prev = worst;
                }
            }
        }
        assert_eq!(complete_at_base, 8);
    }

    #[test]
    fn structural_errors_are_reported() {
        let config = chain_config();
        let report = analyze_configuration(&config).unwrap();
        assert_eq!(
            chain_latency(&config, &report.analysis, &[tr(0, 0)]),
            Err(ChainError::TooShort)
        );
        assert!(matches!(
            chain_latency(&config, &report.analysis, &[tr(1, 0), tr(0, 0)]),
            Err(ChainError::NotConnected { .. })
        ));
        assert!(matches!(
            chain_latency(&config, &report.analysis, &[tr(0, 0), tr(5, 0)]),
            Err(ChainError::UnknownTask(_))
        ));
    }
}
