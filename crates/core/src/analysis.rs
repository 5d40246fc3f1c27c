//! Schedulability analysis over system operation traces.
//!
//! Implements the paper's criterion (Sect. 2.1): a configuration is
//! schedulable iff for every job `w_ijk` the sum of its executing intervals
//! equals the task's WCET on the bound core's type —
//! `Σ (t_{2r-1} − t_{2r-2}) = C^{Type(Bind(Part_i))}_{ij}` — i.e. every job
//! completes (runs its full WCET) within its deadline.

use std::collections::HashMap;
use std::ops::Range;

use swa_ima::{Configuration, TaskRef};

use crate::sysevents::{SysEventKind, SystemTrace};

/// One job's schedulability-relevant footprint: `(task, job index,
/// executing intervals, executed total, completion time)`.
pub type JobSignature = (TaskRef, u32, Vec<(i64, i64)>, i64, Option<i64>);

/// A structured account of an unschedulable verdict: what missed, where.
///
/// Produced by [`Analysis::verdict`] (job and partition attribution) and
/// enriched with module names by
/// [`AnalysisReport::verdict_in`](crate::AnalysisReport::verdict_in) and
/// the compositional analyzer's composed diagnosis.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct VerdictDiagnosis {
    /// Number of jobs that missed.
    pub missed_jobs: usize,
    /// Partitions with at least one missed job (sorted, deduplicated).
    pub missing_partitions: Vec<swa_ima::PartitionId>,
    /// Names of the modules owning a missing partition, in module order
    /// (empty when module attribution was not performed).
    pub failing_modules: Vec<String>,
}

impl VerdictDiagnosis {
    /// Resolves the modules owning the missing partitions through
    /// `config`'s binding, filling
    /// [`failing_modules`](Self::failing_modules) (in module order,
    /// deduplicated).
    pub fn attribute_modules(&mut self, config: &Configuration) {
        let mut modules: Vec<usize> = self
            .missing_partitions
            .iter()
            .filter_map(|&p| config.bound_core(p).map(|c| c.module.index()))
            .collect();
        modules.sort_unstable();
        modules.dedup();
        self.failing_modules = modules
            .into_iter()
            .filter_map(|m| config.modules.get(m).map(|module| module.name.clone()))
            .collect();
    }

    /// One-line rendering: `"3 missed jobs in partitions [1, 4] (module M2)"`.
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "{} missed job{} in partition{} {:?}",
            self.missed_jobs,
            if self.missed_jobs == 1 { "" } else { "s" },
            if self.missing_partitions.len() == 1 { "" } else { "s" },
            self.missing_partitions.iter().map(|p| p.raw()).collect::<Vec<_>>(),
        );
        if !self.failing_modules.is_empty() {
            let _ = write!(
                s,
                " (module{} {})",
                if self.failing_modules.len() == 1 { "" } else { "s" },
                self.failing_modules.join(", ")
            );
        }
        s
    }
}

/// The typed schedulability verdict, returned uniformly by the analyzer
/// ([`Analysis::verdict`]), the verdict cache
/// ([`crate::CachedVerdict::verdict`]), the analysis service and the
/// search tool.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Every job completes its full WCET within its deadline.
    Schedulable,
    /// At least one job misses (the paper's Sect. 2.1 criterion fails).
    Unschedulable {
        /// What missed, and where.
        diagnosis: VerdictDiagnosis,
    },
    /// The analysis could not decide — e.g. a state-capped model-checking
    /// run that was truncated before exploring every interleaving.
    Undecided,
}

impl Verdict {
    /// An unschedulable verdict carrying only the miss attribution.
    #[must_use]
    pub fn unschedulable(
        missed_jobs: usize,
        missing_partitions: Vec<swa_ima::PartitionId>,
    ) -> Self {
        Self::Unschedulable {
            diagnosis: VerdictDiagnosis {
                missed_jobs,
                missing_partitions,
                failing_modules: Vec::new(),
            },
        }
    }

    /// `true` for [`Verdict::Schedulable`].
    #[must_use]
    pub fn is_schedulable(&self) -> bool {
        matches!(self, Self::Schedulable)
    }

    /// `true` for [`Verdict::Undecided`].
    #[must_use]
    pub fn is_undecided(&self) -> bool {
        matches!(self, Self::Undecided)
    }

    /// The diagnosis of an unschedulable verdict.
    #[must_use]
    pub fn diagnosis(&self) -> Option<&VerdictDiagnosis> {
        match self {
            Self::Unschedulable { diagnosis } => Some(diagnosis),
            Self::Schedulable | Self::Undecided => None,
        }
    }

    /// The stable machine-readable label (`"schedulable"`,
    /// `"unschedulable"`, `"undecided"`), as rendered by `Display` and the
    /// service's JSON `verdict` field.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::Schedulable => "schedulable",
            Self::Unschedulable { .. } => "unschedulable",
            Self::Undecided => "undecided",
        }
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The reconstructed execution history of one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobOutcome {
    /// The owning task.
    pub task: TaskRef,
    /// Job index within the hyperperiod (0-based).
    pub job: u32,
    /// Release time (`k · P`).
    pub release: i64,
    /// Absolute deadline (`k · P + D`).
    pub abs_deadline: i64,
    /// Required execution time (effective WCET).
    pub required: i64,
    /// Executing intervals `(from, to)`, in order.
    pub intervals: Vec<(i64, i64)>,
    /// Total executed time (`Σ` interval lengths).
    pub executed: i64,
    /// Completion time, if the job ran its full WCET.
    pub completion: Option<i64>,
}

impl JobOutcome {
    /// Whether the job met the schedulability criterion.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.executed == self.required && self.completion.is_some()
    }

    /// Response time (completion − release), if completed.
    #[must_use]
    pub fn response_time(&self) -> Option<i64> {
        self.completion.map(|c| c - self.release)
    }
}

/// Aggregate statistics for one task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskStats {
    /// The task.
    pub task: TaskRef,
    /// Number of jobs in the hyperperiod.
    pub jobs: u32,
    /// Number of jobs that missed (did not fully execute by the deadline).
    pub missed: u32,
    /// Worst observed response time over completed jobs.
    pub worst_response: Option<i64>,
    /// Mean response time over completed jobs.
    pub mean_response: Option<f64>,
    /// Response-time jitter: worst minus best response over completed
    /// jobs.
    pub jitter: Option<i64>,
    /// Number of preemptions across all jobs.
    pub preemptions: u32,
}

/// The result of analyzing one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// The verdict: all jobs completed within their deadlines.
    pub schedulable: bool,
    /// Per-job outcomes, in (task, job) order.
    pub jobs: Vec<JobOutcome>,
    /// Per-task aggregates, in task order.
    pub task_stats: Vec<TaskStats>,
    /// The hyperperiod the trace covers.
    pub hyperperiod: i64,
}

impl Analysis {
    /// Outcomes of jobs that missed.
    pub fn missed_jobs(&self) -> impl Iterator<Item = &JobOutcome> {
        self.jobs.iter().filter(|j| !j.is_ok())
    }

    /// The typed schedulability verdict, with job/partition attribution on
    /// the unschedulable arm (module names need the configuration — see
    /// [`AnalysisReport::verdict_in`](crate::AnalysisReport::verdict_in)).
    #[must_use]
    pub fn verdict(&self) -> Verdict {
        if self.schedulable {
            Verdict::Schedulable
        } else {
            let mut missing: Vec<swa_ima::PartitionId> =
                self.missed_jobs().map(|j| j.task.partition).collect();
            missing.sort_unstable();
            missing.dedup();
            Verdict::unschedulable(self.missed_jobs().count(), missing)
        }
    }

    /// The schedulability-relevant projection of the analysis: for every
    /// job, its executing intervals, total executed time and completion.
    ///
    /// Per the paper's Sect. 3 theorem, *this* is what is invariant across
    /// interleaving orders — raw event lists may order simultaneous events
    /// differently, but every run yields the same job outcomes.
    #[must_use]
    pub fn signature(&self) -> Vec<JobSignature> {
        self.jobs
            .iter()
            .map(|j| (j.task, j.job, j.intervals.clone(), j.executed, j.completion))
            .collect()
    }

    /// Renders a short human-readable report.
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "schedulable: {} ({} jobs, {} missed)",
            self.schedulable,
            self.jobs.len(),
            self.jobs.iter().filter(|j| !j.is_ok()).count()
        );
        for ts in &self.task_stats {
            let _ = writeln!(
                s,
                "  {}: jobs={} missed={} wcrt={} preemptions={}",
                ts.task,
                ts.jobs,
                ts.missed,
                ts.worst_response
                    .map_or_else(|| "-".to_string(), |r| r.to_string()),
                ts.preemptions
            );
        }
        s
    }
}

/// Analyzes a system trace against the schedulability criterion.
///
/// Jobs with indices `≥ L / P` (released exactly at the hyperperiod
/// boundary by the one-tick overshoot of the simulation horizon) are
/// ignored.
#[must_use]
pub fn analyze(config: &Configuration, trace: &SystemTrace) -> Analysis {
    analyze_spanning(config, trace, 1)
}

/// As [`analyze`] over `hyperperiods` repetitions of the schedule (the
/// trace must come from a model built with
/// [`crate::SystemModel::build_spanning`]).
#[must_use]
pub fn analyze_spanning(
    config: &Configuration,
    trace: &SystemTrace,
    hyperperiods: u32,
) -> Analysis {
    let hyperperiod = config.hyperperiod().unwrap_or(0) * i64::from(hyperperiods.max(1));

    // Prepare one record per expected job; each task's jobs are
    // contiguous, and `spans` remembers where.
    let mut jobs: Vec<JobOutcome> = Vec::new();
    let mut spans: Vec<(TaskRef, Range<usize>)> = Vec::new();
    let mut index: HashMap<(TaskRef, u32), usize> = HashMap::new();
    for (tr, t) in config.tasks() {
        let start = jobs.len();
        let count = if t.period > 0 {
            hyperperiod / t.period
        } else {
            0
        };
        let required = config.effective_wcet(tr).unwrap_or(0);
        for k in 0..count {
            let job = u32::try_from(k).expect("job index fits u32");
            index.insert((tr, job), jobs.len());
            jobs.push(JobOutcome {
                task: tr,
                job,
                release: k * t.period + t.offset,
                abs_deadline: k * t.period + t.offset + t.deadline,
                required,
                intervals: Vec::new(),
                executed: 0,
                completion: None,
            });
        }
        spans.push((tr, start..jobs.len()));
    }

    // Replay events: EX opens an interval, PR/FIN close it.
    let mut open_since: HashMap<(TaskRef, u32), i64> = HashMap::new();
    let mut preemptions: HashMap<TaskRef, u32> = HashMap::new();
    for e in &trace.events {
        let key = (e.task, e.job);
        let Some(&slot) = index.get(&key) else {
            continue; // overshoot job beyond the hyperperiod
        };
        match e.kind {
            SysEventKind::Ex => {
                open_since.insert(key, e.time);
            }
            SysEventKind::Pr => {
                if let Some(from) = open_since.remove(&key) {
                    if e.time > from {
                        jobs[slot].intervals.push((from, e.time));
                        jobs[slot].executed += e.time - from;
                    }
                }
                *preemptions.entry(e.task).or_insert(0) += 1;
            }
            SysEventKind::Fin => {
                if let Some(from) = open_since.remove(&key) {
                    if e.time > from {
                        jobs[slot].intervals.push((from, e.time));
                        jobs[slot].executed += e.time - from;
                    }
                }
                if jobs[slot].executed == jobs[slot].required {
                    jobs[slot].completion = Some(e.time);
                }
            }
        }
    }

    // Aggregate per task.
    let mut task_stats = Vec::new();
    for (tr, span) in spans {
        let of_task = &jobs[span];
        let jobs_n = u32::try_from(of_task.len()).expect("job count fits u32");
        let missed = u32::try_from(of_task.iter().filter(|j| !j.is_ok()).count())
            .expect("missed count fits u32");
        let responses: Vec<i64> = of_task.iter().filter_map(|j| j.response_time()).collect();
        let worst_response = responses.iter().copied().max();
        let jitter = match (worst_response, responses.iter().copied().min()) {
            (Some(w), Some(b)) => Some(w - b),
            _ => None,
        };
        #[allow(clippy::cast_precision_loss)]
        let mean_response = if responses.is_empty() {
            None
        } else {
            Some(responses.iter().sum::<i64>() as f64 / responses.len() as f64)
        };
        task_stats.push(TaskStats {
            task: tr,
            jobs: jobs_n,
            missed,
            worst_response,
            mean_response,
            jitter,
            preemptions: preemptions.get(&tr).copied().unwrap_or(0),
        });
    }

    let schedulable = jobs.iter().all(JobOutcome::is_ok);
    Analysis {
        schedulable,
        jobs,
        task_stats,
        hyperperiod,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sysevents::SysEvent;
    use swa_ima::{
        Configuration, CoreRef, CoreType, Module, ModuleId, Partition, PartitionId, SchedulerKind,
        Task, Window,
    };

    fn config() -> Configuration {
        Configuration {
            core_types: vec![CoreType::new("generic")],
            modules: vec![Module::homogeneous(
                "M1",
                1,
                swa_ima::CoreTypeId::from_raw(0),
            )],
            partitions: vec![Partition::new(
                "P1",
                SchedulerKind::Fpps,
                // The second task stretches the hyperperiod to 100 so that
                // t1 has two jobs.
                vec![
                    Task::new("t1", 1, vec![10], 50),
                    Task::new("pad", 1, vec![10], 100),
                ],
            )],
            binding: vec![CoreRef::new(ModuleId::from_raw(0), 0)],
            windows: vec![vec![Window::new(0, 100)]],
            messages: vec![],
        }
    }

    fn tref() -> TaskRef {
        TaskRef::new(PartitionId::from_raw(0), 0)
    }

    fn ev(kind: SysEventKind, job: u32, time: i64) -> SysEvent {
        SysEvent {
            kind,
            task: tref(),
            job,
            time,
        }
    }

    fn trace_of(events: Vec<SysEvent>) -> SystemTrace {
        SystemTrace { events }
    }

    /// Events completing the pad task's single job.
    fn pad_events() -> Vec<SysEvent> {
        let pad = TaskRef::new(PartitionId::from_raw(0), 1);
        vec![
            SysEvent {
                kind: SysEventKind::Ex,
                task: pad,
                job: 0,
                time: 70,
            },
            SysEvent {
                kind: SysEventKind::Fin,
                task: pad,
                job: 0,
                time: 80,
            },
        ]
    }

    #[test]
    fn jitter_is_worst_minus_best_response() {
        let c = config();
        let mut events = vec![
            ev(SysEventKind::Ex, 0, 0),
            ev(SysEventKind::Fin, 0, 10), // response 10
            ev(SysEventKind::Ex, 1, 55),
            ev(SysEventKind::Fin, 1, 65), // response 15
        ];
        events.extend(pad_events());
        let a = analyze(&c, &trace_of(events));
        assert_eq!(a.task_stats[0].jitter, Some(5));
        // A single completed job has zero jitter.
        assert_eq!(a.task_stats[1].jitter, Some(0));
    }

    #[test]
    fn complete_jobs_are_schedulable() {
        let c = config();
        // Two jobs (L = 100, P = 50), each runs 10 units uninterrupted.
        let mut events = vec![
            ev(SysEventKind::Ex, 0, 0),
            ev(SysEventKind::Fin, 0, 10),
            ev(SysEventKind::Ex, 1, 50),
            ev(SysEventKind::Fin, 1, 60),
        ];
        events.extend(pad_events());
        let a = analyze(&c, &trace_of(events));
        assert!(a.schedulable);
        assert_eq!(a.jobs.len(), 3);
        assert_eq!(a.jobs[0].response_time(), Some(10));
        assert_eq!(a.task_stats[0].worst_response, Some(10));
        assert_eq!(a.task_stats[0].missed, 0);
    }

    #[test]
    fn preempted_job_sums_intervals() {
        let c = config();
        let mut events = vec![
            ev(SysEventKind::Ex, 0, 0),
            ev(SysEventKind::Pr, 0, 4),
            ev(SysEventKind::Ex, 0, 20),
            ev(SysEventKind::Fin, 0, 26),
            ev(SysEventKind::Ex, 1, 50),
            ev(SysEventKind::Fin, 1, 60),
        ];
        events.extend(pad_events());
        let a = analyze(&c, &trace_of(events));
        assert!(a.schedulable);
        assert_eq!(a.jobs[0].intervals, vec![(0, 4), (20, 26)]);
        assert_eq!(a.jobs[0].executed, 10);
        assert_eq!(a.jobs[0].response_time(), Some(26));
        assert_eq!(a.task_stats[0].preemptions, 1);
    }

    #[test]
    fn missing_job_is_unschedulable() {
        let c = config();
        let mut events = vec![ev(SysEventKind::Ex, 0, 0), ev(SysEventKind::Fin, 0, 10)];
        events.extend(pad_events());
        let a = analyze(&c, &trace_of(events));
        assert!(!a.schedulable);
        assert_eq!(a.missed_jobs().count(), 1);
        assert_eq!(a.missed_jobs().next().unwrap().job, 1);
    }

    #[test]
    fn partial_execution_is_a_miss() {
        let c = config();
        // Job 0 killed after 7 of 10 units.
        let mut events = vec![
            ev(SysEventKind::Ex, 0, 0),
            ev(SysEventKind::Fin, 0, 7),
            ev(SysEventKind::Ex, 1, 50),
            ev(SysEventKind::Fin, 1, 60),
        ];
        events.extend(pad_events());
        let a = analyze(&c, &trace_of(events));
        assert!(!a.schedulable);
        assert_eq!(a.jobs[0].executed, 7);
        assert_eq!(a.jobs[0].completion, None);
        assert_eq!(a.task_stats[0].missed, 1);
        assert!(a.summary().contains("schedulable: false"));
    }

    #[test]
    fn overshoot_jobs_are_ignored() {
        let c = config();
        let mut events = vec![
            ev(SysEventKind::Ex, 0, 0),
            ev(SysEventKind::Fin, 0, 10),
            ev(SysEventKind::Ex, 1, 50),
            ev(SysEventKind::Fin, 1, 60),
            // Job 2 released at t = 100 by the horizon overshoot.
            ev(SysEventKind::Ex, 2, 100),
        ];
        events.extend(pad_events());
        let a = analyze(&c, &trace_of(events));
        assert!(a.schedulable);
        assert_eq!(a.jobs.len(), 3);
    }
}
