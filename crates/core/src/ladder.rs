//! Tiered verdict ladder: analytic pre-filters in front of the exact
//! simulation (DESIGN.md §4.20).
//!
//! The stopwatch-automata simulation is exact but pays for every job of
//! every task; in search/repair and admission workloads most candidate
//! configurations are either clearly infeasible or clearly safe. The
//! ladder orders cheap conservative tiers in front of the simulator so
//! that only the *undecided band* pays for exact analysis:
//!
//! * **T0** — [`utilization_prefilter`]: *necessary* per-partition
//!   demand-vs-window-supply and per-core utilization bounds. May only
//!   answer [`Verdict::Unschedulable`] or [`Verdict::Undecided`]; a
//!   workload whose demand over the hyperperiod exceeds the time its
//!   windows can ever supply misses under **every** scheduler, so an
//!   unschedulable answer here is sound against the simulator.
//! * **T1** — [`window_supply_rta`]: *sufficient* response-time analysis
//!   generalizing classical FPPS RTA to ARINC-653 window supply via
//!   supply-bound/request-bound functions (the compositional real-time
//!   interface of Han et al., arXiv:1807.11570). May only answer
//!   [`Verdict::Schedulable`] or [`Verdict::Undecided`].
//! * **T2** — [`rtc_interface_check`]: an RTC-style arrival/service-curve
//!   interface check with a tunable granularity knob in the spirit of
//!   Altisen et al. (arXiv:1006.5095): the service curve is abstracted to
//!   a staircase *lower* bound with `granularity` segments, so a coarser
//!   knob can only move answers toward `Undecided`, never toward an
//!   unsound `Schedulable`. Covers EDF partitions (which T1 does not) via
//!   a demand-bound-function test. May only answer `Schedulable` or
//!   `Undecided`.
//! * **T3** — the exact [`Analyzer`](crate::Analyzer) simulation, which
//!   receives whatever the ladder could not decide.
//!
//! Every ladder answer carries a [`DecidedBy`] provenance tag; the tag is
//! threaded through the verdict cache (stored *alongside* the verdict —
//! the canonical request bytes are unchanged), `ladder.*` recorder
//! counters, the serve JSON (`decided_by`) and the CLI summaries.
//!
//! Soundness of every tier against the simulation is enforced by the
//! cross-tier corpus in `tests/ladder_soundness.rs` (200+ seeded
//! workloads under both evaluation engines, with and without
//! compositional analysis).

use swa_ima::window::normalize_windows;
use swa_ima::{Configuration, PartitionId, SchedulerKind, TaskRef, Window};

use crate::analysis::Verdict;
use crate::obs::Recorder;

/// Which tier of the ladder produced a verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecidedBy {
    /// T0: necessary utilization / window-supply bound.
    Utilization,
    /// T1: sufficient window-supply response-time analysis.
    WindowRta,
    /// T2: RTC-style arrival/service-curve interface check.
    RtcInterface,
    /// T3: the exact stopwatch-automata simulation.
    Simulation,
}

impl DecidedBy {
    /// The stable machine-readable label, as rendered in serve JSON and
    /// CLI summaries.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Utilization => "t0-utilization",
            Self::WindowRta => "t1-window-rta",
            Self::RtcInterface => "t2-rtc",
            Self::Simulation => "simulation",
        }
    }

    /// A one-byte encoding for the durable verdict store.
    #[must_use]
    pub fn to_byte(self) -> u8 {
        match self {
            Self::Utilization => 0,
            Self::WindowRta => 1,
            Self::RtcInterface => 2,
            Self::Simulation => 3,
        }
    }

    /// Inverse of [`to_byte`](Self::to_byte).
    #[must_use]
    pub fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(Self::Utilization),
            1 => Some(Self::WindowRta),
            2 => Some(Self::RtcInterface),
            3 => Some(Self::Simulation),
            _ => None,
        }
    }
}

impl std::fmt::Display for DecidedBy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How much of the ladder to run in front of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LadderMode {
    /// Every request goes straight to the simulator (the pre-ladder
    /// behavior, and the default everywhere).
    #[default]
    Off,
    /// T0 + T1 only: the integer-arithmetic tiers.
    Fast,
    /// T0 + T1 + T2: also run the curve-interface check.
    Full,
}

impl LadderMode {
    /// Parses `"off"` / `"fast"` / `"full"` (the `--ladder` flag values).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" => Some(Self::Off),
            "fast" => Some(Self::Fast),
            "full" => Some(Self::Full),
            _ => None,
        }
    }

    /// The flag spelling this mode parses from.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Off => "off",
            Self::Fast => "fast",
            Self::Full => "full",
        }
    }
}

impl std::fmt::Display for LadderMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for LadderMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s).ok_or_else(|| format!("unknown ladder mode {s:?} (expected off|fast|full)"))
    }
}

/// A verdict one of the analytic tiers produced, with its provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LadderDecision {
    /// The (sound) verdict.
    pub verdict: Verdict,
    /// Which tier decided it.
    pub decided_by: DecidedBy,
}

/// Number of staircase segments in the T2 service-curve abstraction the
/// ladder runs ([`rtc_interface_check`] takes any granularity).
pub const DEFAULT_GRANULARITY: usize = 64;

/// The ordered tiers T0 → T1 → T2, each forwarding only the band it
/// cannot decide.
#[derive(Debug, Clone)]
pub struct VerdictLadder {
    mode: LadderMode,
}

impl VerdictLadder {
    /// A ladder running the tiers selected by `mode`.
    #[must_use]
    pub fn new(mode: LadderMode) -> Self {
        Self { mode }
    }

    /// The configured mode.
    #[must_use]
    pub fn mode(&self) -> LadderMode {
        self.mode
    }

    /// Runs the tiers in order and returns the first decision, or `None`
    /// when the whole ladder is undecided (or off) and the configuration
    /// must go to the simulator. Emits `ladder.*` counters to `recorder`.
    pub fn evaluate(
        &self,
        config: &Configuration,
        recorder: &dyn Recorder,
    ) -> Option<LadderDecision> {
        if self.mode == LadderMode::Off {
            return None;
        }
        recorder.counter("ladder.evaluated", 1);

        let t0 = utilization_prefilter(config);
        if matches!(t0, Verdict::Unschedulable { .. }) {
            recorder.counter("ladder.decided", 1);
            recorder.counter("ladder.t0_unschedulable", 1);
            return Some(LadderDecision {
                verdict: t0,
                decided_by: DecidedBy::Utilization,
            });
        }

        if window_supply_rta(config).is_schedulable() {
            recorder.counter("ladder.decided", 1);
            recorder.counter("ladder.t1_schedulable", 1);
            return Some(LadderDecision {
                verdict: Verdict::Schedulable,
                decided_by: DecidedBy::WindowRta,
            });
        }

        if self.mode == LadderMode::Full
            && rtc_interface_check(config, DEFAULT_GRANULARITY).is_schedulable()
        {
            recorder.counter("ladder.decided", 1);
            recorder.counter("ladder.t2_schedulable", 1);
            return Some(LadderDecision {
                verdict: Verdict::Schedulable,
                decided_by: DecidedBy::RtcInterface,
            });
        }

        recorder.counter("ladder.undecided", 1);
        None
    }
}

/// The cyclic window supply of one partition: exact integer supply-bound
/// function over windows repeating with the hyperperiod.
struct Supply {
    windows: Vec<Window>,
    hyperperiod: i64,
    /// Total window time per hyperperiod.
    total: i64,
}

impl Supply {
    fn new(windows: &[Window], hyperperiod: i64) -> Self {
        let windows = normalize_windows(windows.to_vec());
        let total = windows.iter().map(|w| w.duration()).sum();
        Self {
            windows,
            hyperperiod,
            total,
        }
    }

    /// Window time granted in `[0, x)` within one period (`0 ≤ x ≤ L`).
    fn cum0(&self, x: i64) -> i64 {
        self.windows
            .iter()
            .map(|w| (w.end.min(x) - w.start).clamp(0, w.duration()))
            .sum()
    }

    /// Window time granted in `[0, x)` for any `x ≥ 0`, unrolling the
    /// cyclic schedule.
    fn cum(&self, x: i64) -> i64 {
        let periods = x.div_euclid(self.hyperperiod);
        let rem = x.rem_euclid(self.hyperperiod);
        periods * self.total + self.cum0(rem)
    }

    /// The supply-bound function: the *minimum* window time granted in
    /// any interval of length `t`, over every possible alignment of the
    /// interval with the cyclic schedule.
    ///
    /// The supply in `[a, a + t)` is piecewise linear in `a` with slope
    /// changes only where `a` crosses a window end or `a + t` crosses a
    /// window start, so the minimum is attained at one of those
    /// alignments — both candidate sets are evaluated exactly.
    fn sbf(&self, t: i64) -> i64 {
        if t <= 0 {
            return 0;
        }
        if self.windows.is_empty() {
            return 0;
        }
        let mut best = i64::MAX;
        for w in &self.windows {
            let from_end = self.cum(w.end + t) - self.cum(w.end);
            let to_start = {
                let a = (w.start - t).rem_euclid(self.hyperperiod);
                self.cum(a + t) - self.cum(a)
            };
            best = best.min(from_end).min(to_start);
        }
        best
    }

    /// The staircase lower bound of [`sbf`](Self::sbf) on a grid of
    /// `grid`-length segments (`grid = 1` is exact).
    fn sbf_on_grid(&self, t: i64, grid: i64) -> i64 {
        self.sbf(t / grid * grid)
    }
}

/// Everything the analytic tiers need to know about one task.
struct TaskSpec {
    wcet: i64,
    period: i64,
    deadline: i64,
    priority: i64,
}

/// Collects the effective task parameters of one partition; `None` when
/// any parameter is missing or non-positive (degenerate configurations
/// stay with the simulator).
fn partition_tasks(config: &Configuration, partition: PartitionId) -> Option<Vec<TaskSpec>> {
    let p = config.partition(partition)?;
    let mut out = Vec::with_capacity(p.tasks.len());
    for (ti, t) in p.tasks.iter().enumerate() {
        let tr = TaskRef::new(partition, u32::try_from(ti).ok()?);
        let wcet = config.effective_wcet(tr)?;
        if wcet <= 0 || t.period <= 0 || t.deadline <= 0 || t.deadline > t.period {
            return None;
        }
        out.push(TaskSpec {
            wcet,
            period: t.period,
            deadline: t.deadline,
            priority: t.priority,
        });
    }
    Some(out)
}

/// Demand of a task set over one hyperperiod (`Σ C · L/P`), `None` on
/// overflow.
fn hyperperiod_demand(tasks: &[TaskSpec], hyperperiod: i64) -> Option<i64> {
    let mut demand: i64 = 0;
    for t in tasks {
        if hyperperiod % t.period != 0 {
            return None;
        }
        demand = demand.checked_add(t.wcet.checked_mul(hyperperiod / t.period)?)?;
    }
    Some(demand)
}

/// Ceiling division for positive operands (signed `i64::div_ceil` is not
/// yet stable on the workspace toolchain).
fn div_ceil(a: i64, b: i64) -> i64 {
    (a + b - 1) / b
}

/// **T0** — necessary utilization bounds. Returns
/// [`Verdict::Unschedulable`] when some partition's demand over the
/// hyperperiod exceeds the total time its windows supply, or some core's
/// aggregate demand exceeds the hyperperiod itself; otherwise
/// [`Verdict::Undecided`]. Never returns `Schedulable`.
///
/// Both bounds are *work-conservation* arguments independent of the
/// scheduler, message delays and offsets, so they are sound against the
/// exact simulation. The comparisons are strict: a partition whose demand
/// exactly equals its supply is *not* flagged (it may still be
/// schedulable, e.g. a full-utilization harmonic set).
#[must_use]
pub fn utilization_prefilter(config: &Configuration) -> Verdict {
    let Some(l) = config.hyperperiod() else {
        return Verdict::Undecided;
    };
    let mut overloaded: Vec<PartitionId> = Vec::new();

    for pi in 0..config.partitions.len() {
        let pid = PartitionId::from_raw(u32::try_from(pi).expect("partition count fits u32"));
        let Some(tasks) = partition_tasks(config, pid) else {
            continue;
        };
        let Some(demand) = hyperperiod_demand(&tasks, l) else {
            continue;
        };
        let supply = config
            .windows
            .get(pi)
            .map_or(0, |ws| swa_ima::window::total_window_time(ws));
        if demand > supply {
            overloaded.push(pid);
        }
    }

    // Aggregate per-core bound: even with generous (overlapping-in-spec)
    // windows, a core cannot grant more than L time per hyperperiod.
    for (core, _) in config.cores() {
        let mut demand: Option<i64> = Some(0);
        let members: Vec<PartitionId> = config.partitions_on(core).collect();
        for &pid in &members {
            demand = match (demand, partition_tasks(config, pid)) {
                (Some(d), Some(tasks)) => {
                    hyperperiod_demand(&tasks, l).and_then(|pd| d.checked_add(pd))
                }
                _ => None,
            };
        }
        if demand.is_some_and(|d| d > l) {
            overloaded.extend(members);
        }
    }

    overloaded.sort_unstable();
    overloaded.dedup();
    if overloaded.is_empty() {
        Verdict::Undecided
    } else {
        Verdict::unschedulable(0, overloaded)
    }
}

/// Window-supply response-time analysis of one partition: the classical
/// Joseph–Pandya recurrence generalized to ARINC-653 window supply via
/// supply-bound/request-bound functions.
///
/// Task `i` is accepted iff there is a `t ≤ D_i` with
/// `sbf(t) ≥ C_i + Σ_{j ∈ hp(i)} ⌈t/P_j⌉·C_j` — enough window time in the
/// worst-aligned interval of length `t` to cover the task plus all
/// higher-priority interference released before `t` (equal priorities are
/// counted as interference, matching `swa-rta`'s conservative tie
/// handling). The candidate `t` are the interference release points and
/// `D_i` (the right endpoints of the request-bound function's constant
/// segments), which makes the ∃-check exact.
///
/// Returns `Some(true)` when every task is accepted, `Some(false)` when
/// some task is not (which does **not** imply unschedulability — the test
/// is only sufficient), and `None` when the assumptions don't hold: the
/// partition is not FPPS, a task receives a message (its release is
/// delayed by the virtual link, violating the periodic-release model), or
/// a task parameter is degenerate.
#[must_use]
pub fn partition_window_rta(config: &Configuration, partition: PartitionId) -> Option<bool> {
    partition_curve_check(config, partition, 1)
}

/// Shared FPPS supply test used by T1 (`grid = 1`, exact) and T2
/// (`grid > 1`, staircase service-curve abstraction).
fn partition_curve_check(
    config: &Configuration,
    partition: PartitionId,
    grid: i64,
) -> Option<bool> {
    let l = config.hyperperiod()?;
    let p = config.partition(partition)?;
    if p.scheduler != SchedulerKind::Fpps {
        return None;
    }
    for ti in 0..p.tasks.len() {
        let tr = TaskRef::new(partition, u32::try_from(ti).ok()?);
        if config.inputs_of(tr).next().is_some() {
            return None;
        }
    }
    let tasks = partition_tasks(config, partition)?;
    let ws = config.windows.get(partition.index())?;
    let supply = Supply::new(ws, l);
    // The per-hyperperiod induction step (demand_L ≤ supply_L) that lets
    // the test stop at t ≤ D ≤ P ≤ L.
    if hyperperiod_demand(&tasks, l)? > supply.total {
        return Some(false);
    }
    Some(fpps_tasks_pass(&supply, &tasks, grid))
}

fn fpps_tasks_pass(supply: &Supply, tasks: &[TaskSpec], grid: i64) -> bool {
    tasks.iter().enumerate().all(|(i, task)| {
        let hp: Vec<&TaskSpec> = tasks
            .iter()
            .enumerate()
            .filter(|&(j, other)| j != i && other.priority >= task.priority)
            .map(|(_, other)| other)
            .collect();
        let mut points: Vec<i64> = vec![task.deadline];
        for other in &hp {
            let mut m = other.period;
            while m < task.deadline {
                points.push(m);
                m += other.period;
            }
        }
        points.iter().any(|&t| {
            let mut need = Some(task.wcet);
            for other in &hp {
                need = need.and_then(|n| {
                    n.checked_add(other.wcet.checked_mul(div_ceil(t, other.period))?)
                });
            }
            need.is_some_and(|n| supply.sbf_on_grid(t, grid) >= n)
        })
    })
}

/// EDF demand-bound test of one partition against its window supply:
/// `dbf(t) ≤ sbf(t)` at every absolute deadline `t ≤ L`, plus the
/// per-hyperperiod induction step `demand_L ≤ supply_L` that bounds the
/// horizon. EDF is optimal on the supplied time, so passing implies
/// schedulability under the partition's EDF dispatcher.
fn edf_tasks_pass(supply: &Supply, tasks: &[TaskSpec], grid: i64, l: i64) -> bool {
    let mut points: Vec<i64> = Vec::new();
    for t in tasks {
        let mut d = t.deadline;
        while d <= l {
            points.push(d);
            d += t.period;
        }
    }
    points.sort_unstable();
    points.dedup();
    points.iter().all(|&t| {
        let mut demand: Option<i64> = Some(0);
        for task in tasks {
            if t >= task.deadline {
                let jobs = (t - task.deadline) / task.period + 1;
                demand = demand.and_then(|d| d.checked_add(task.wcet.checked_mul(jobs)?));
            }
        }
        demand.is_some_and(|d| supply.sbf_on_grid(t, grid) >= d)
    })
}

/// **T1** — sufficient window-supply RTA over the whole configuration:
/// [`Verdict::Schedulable`] iff *every* partition is applicable and every
/// task passes [`partition_window_rta`]; otherwise
/// [`Verdict::Undecided`]. Never returns `Unschedulable`.
#[must_use]
pub fn window_supply_rta(config: &Configuration) -> Verdict {
    if config.partitions.is_empty() {
        return Verdict::Undecided;
    }
    for pi in 0..config.partitions.len() {
        let pid = PartitionId::from_raw(u32::try_from(pi).expect("partition count fits u32"));
        if partition_window_rta(config, pid) != Some(true) {
            return Verdict::Undecided;
        }
    }
    Verdict::Schedulable
}

/// **T2** — RTC-style arrival/service-curve interface check with a
/// granularity knob. The partition's window supply is abstracted to a
/// staircase *lower* service curve with `granularity` segments per
/// hyperperiod (coarser = faster and more conservative — answers can only
/// move toward `Undecided`); the arrival side is the exact periodic
/// request/demand bound. FPPS partitions use the per-task supply test,
/// EDF partitions the demand-bound test (which T1 cannot handle at all);
/// any other scheduler, a message receiver, or a failed curve comparison
/// yields [`Verdict::Undecided`]. Never returns `Unschedulable`.
#[must_use]
pub fn rtc_interface_check(config: &Configuration, granularity: usize) -> Verdict {
    let Some(l) = config.hyperperiod() else {
        return Verdict::Undecided;
    };
    if config.partitions.is_empty() {
        return Verdict::Undecided;
    }
    let granularity = i64::try_from(granularity.max(1)).unwrap_or(1);
    let grid = (l / granularity).max(1);
    for pi in 0..config.partitions.len() {
        let pid = PartitionId::from_raw(u32::try_from(pi).expect("partition count fits u32"));
        let p = &config.partitions[pi];
        let ok = match p.scheduler {
            SchedulerKind::Fpps => partition_curve_check(config, pid, grid) == Some(true),
            SchedulerKind::Edf => {
                let mut receiver = false;
                for ti in 0..p.tasks.len() {
                    let tr =
                        TaskRef::new(pid, u32::try_from(ti).expect("task count fits u32"));
                    if config.inputs_of(tr).next().is_some() {
                        receiver = true;
                    }
                }
                if receiver {
                    false
                } else {
                    match (partition_tasks(config, pid), config.windows.get(pi)) {
                        (Some(tasks), Some(ws)) => {
                            let supply = Supply::new(ws, l);
                            hyperperiod_demand(&tasks, l)
                                .is_some_and(|d| d <= supply.total)
                                && edf_tasks_pass(&supply, &tasks, grid, l)
                        }
                        _ => false,
                    }
                }
            }
            SchedulerKind::Fpnps | SchedulerKind::RoundRobin { .. } => false,
        };
        if !ok {
            return Verdict::Undecided;
        }
    }
    Verdict::Schedulable
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::MetricsRecorder;
    use swa_ima::{
        Configuration, CoreRef, CoreType, CoreTypeId, Message, Module, ModuleId, Partition,
        SchedulerKind, Task, Window,
    };

    /// One core, one partition, one task; windows as given.
    fn one_task_config(wcet: i64, period: i64, windows: Vec<Window>) -> Configuration {
        Configuration {
            core_types: vec![CoreType::new("ct")],
            modules: vec![Module::homogeneous("M", 1, CoreTypeId::from_raw(0))],
            partitions: vec![Partition::new(
                "P",
                SchedulerKind::Fpps,
                vec![Task::new("t", 1, vec![wcet], period)],
            )],
            binding: vec![CoreRef::new(ModuleId::from_raw(0), 0)],
            windows: vec![windows],
            messages: vec![],
        }
    }

    #[test]
    fn sbf_is_the_worst_case_alignment() {
        let s = Supply::new(&[Window::new(0, 10), Window::new(20, 30)], 40);
        assert_eq!(s.total, 20);
        assert_eq!(s.sbf(0), 0);
        // An interval of length 10 can fall entirely in the [10, 20) gap.
        assert_eq!(s.sbf(10), 0);
        // Length 20 starting at 10 catches exactly the second window.
        assert_eq!(s.sbf(20), 10);
        // Length 30 starting at 30: gap 30..40, window 0..10 — 10 again.
        assert_eq!(s.sbf(30), 10);
        assert_eq!(s.sbf(40), 20);
        // Two full periods, worst alignment.
        assert_eq!(s.sbf(80), 40);
        // The grid staircase never exceeds the exact function.
        for t in 0..=80 {
            assert!(s.sbf_on_grid(t, 7) <= s.sbf(t));
        }
    }

    #[test]
    fn t0_is_strict_at_the_exact_utilization_boundary() {
        // Demand 50 per hyperperiod 100, window supply exactly 50.
        let at_bound = one_task_config(50, 100, vec![Window::new(0, 50)]);
        at_bound.validate().unwrap();
        assert!(utilization_prefilter(&at_bound).is_undecided());
        // One unit over the supply: necessarily unschedulable.
        let over = one_task_config(51, 100, vec![Window::new(0, 50)]);
        over.validate().unwrap();
        let v = utilization_prefilter(&over);
        assert!(matches!(v, Verdict::Unschedulable { .. }));
        assert_eq!(
            v.diagnosis().unwrap().missing_partitions,
            vec![PartitionId::from_raw(0)]
        );
    }

    #[test]
    fn t0_flags_zero_width_windows_as_zero_supply() {
        // A zero-width window grants nothing; validation would reject it,
        // but the prefilter must stay sound on unvalidated input.
        let c = one_task_config(10, 100, vec![Window::new(30, 30)]);
        assert!(matches!(
            utilization_prefilter(&c),
            Verdict::Unschedulable { .. }
        ));
    }

    #[test]
    fn t0_per_core_bound_catches_aggregate_overload() {
        // Two partitions whose window specs overlap (invalid but
        // representable); each fits its own windows, together they exceed
        // the core.
        let mut c = one_task_config(60, 100, vec![Window::new(0, 100)]);
        c.partitions.push(Partition::new(
            "Q",
            SchedulerKind::Fpps,
            vec![Task::new("u", 1, vec![60], 100)],
        ));
        c.binding.push(CoreRef::new(ModuleId::from_raw(0), 0));
        c.windows.push(vec![Window::new(0, 100)]);
        let v = utilization_prefilter(&c);
        assert!(matches!(v, Verdict::Unschedulable { .. }));
        assert_eq!(v.diagnosis().unwrap().missing_partitions.len(), 2);
    }

    #[test]
    fn t1_decides_what_t0_cannot() {
        // Comfortably schedulable: T0 must stay undecided, T1 accepts.
        let c = one_task_config(10, 100, vec![Window::new(0, 100)]);
        c.validate().unwrap();
        assert!(utilization_prefilter(&c).is_undecided());
        assert!(window_supply_rta(&c).is_schedulable());
        assert_eq!(partition_window_rta(&c, PartitionId::from_raw(0)), Some(true));
    }

    #[test]
    fn t1_single_task_partition_needs_enough_supply_before_its_deadline() {
        // wcet 10, deadline 100, but all supply arrives in [90, 100):
        // worst alignment gives sbf(100) = 10 — accepted; shrink the
        // window and it must refuse (Some(false), not unschedulable).
        let ok = one_task_config(10, 100, vec![Window::new(90, 100)]);
        assert_eq!(partition_window_rta(&ok, PartitionId::from_raw(0)), Some(true));
        let tight = one_task_config(10, 100, vec![Window::new(95, 100)]);
        assert_eq!(
            partition_window_rta(&tight, PartitionId::from_raw(0)),
            Some(false)
        );
        assert!(window_supply_rta(&tight).is_undecided());
    }

    #[test]
    fn t1_is_inapplicable_off_fpps_or_with_receivers() {
        let mut edf = one_task_config(10, 100, vec![Window::new(0, 100)]);
        edf.partitions[0].scheduler = SchedulerKind::Edf;
        assert_eq!(partition_window_rta(&edf, PartitionId::from_raw(0)), None);

        let mut linked = one_task_config(10, 100, vec![Window::new(0, 50)]);
        linked.partitions.push(Partition::new(
            "Q",
            SchedulerKind::Fpps,
            vec![Task::new("u", 1, vec![10], 100)],
        ));
        linked.binding.push(CoreRef::new(ModuleId::from_raw(0), 0));
        linked.windows.push(vec![Window::new(50, 100)]);
        let sender = TaskRef::new(PartitionId::from_raw(0), 0);
        let receiver = TaskRef::new(PartitionId::from_raw(1), 0);
        linked
            .messages
            .push(Message::new("vl", sender, receiver, 1, 5));
        linked.validate().unwrap();
        // The sender's partition is still analyzable, the receiver's not.
        assert_eq!(
            partition_window_rta(&linked, PartitionId::from_raw(0)),
            Some(true)
        );
        assert_eq!(partition_window_rta(&linked, PartitionId::from_raw(1)), None);
        assert!(window_supply_rta(&linked).is_undecided());
    }

    #[test]
    fn t2_decides_edf_partitions_that_t1_cannot() {
        let mut c = one_task_config(10, 50, vec![Window::new(0, 50)]);
        c.partitions[0].scheduler = SchedulerKind::Edf;
        c.validate().unwrap();
        assert!(utilization_prefilter(&c).is_undecided());
        assert!(window_supply_rta(&c).is_undecided());
        assert!(rtc_interface_check(&c, DEFAULT_GRANULARITY).is_schedulable());
    }

    #[test]
    fn t2_coarser_granularity_only_moves_toward_undecided() {
        // Tight EDF set (deadline off the coarse grid): passes at fine
        // granularity, refused when the staircase gets too coarse — never
        // flips to an unsound accept.
        let mut c = one_task_config(40, 100, vec![Window::new(0, 100)]);
        c.partitions[0].scheduler = SchedulerKind::Edf;
        c.partitions[0].tasks[0].deadline = 41;
        c.validate().unwrap();
        assert!(rtc_interface_check(&c, 1000).is_schedulable());
        assert!(rtc_interface_check(&c, 1).is_undecided());
    }

    #[test]
    fn t2_is_undecided_for_fpnps_and_round_robin() {
        for sched in [SchedulerKind::Fpnps, SchedulerKind::RoundRobin { quantum: 5 }] {
            let mut c = one_task_config(10, 100, vec![Window::new(0, 100)]);
            c.partitions[0].scheduler = sched;
            assert!(rtc_interface_check(&c, DEFAULT_GRANULARITY).is_undecided());
        }
    }

    #[test]
    fn ladder_forwards_only_the_undecided_band() {
        let recorder = MetricsRecorder::new();
        let ladder = VerdictLadder::new(LadderMode::Full);

        // T0 band.
        let over = one_task_config(80, 100, vec![Window::new(0, 50)]);
        let d = ladder.evaluate(&over, &recorder).unwrap();
        assert_eq!(d.decided_by, DecidedBy::Utilization);
        assert!(matches!(d.verdict, Verdict::Unschedulable { .. }));

        // T1 band.
        let easy = one_task_config(10, 100, vec![Window::new(0, 100)]);
        let d = ladder.evaluate(&easy, &recorder).unwrap();
        assert_eq!(d.decided_by, DecidedBy::WindowRta);
        assert!(d.verdict.is_schedulable());

        // T2 band (EDF, so T1 is inapplicable).
        let mut edf = one_task_config(10, 50, vec![Window::new(0, 50)]);
        edf.partitions[0].scheduler = SchedulerKind::Edf;
        let d = ladder.evaluate(&edf, &recorder).unwrap();
        assert_eq!(d.decided_by, DecidedBy::RtcInterface);
        assert!(d.verdict.is_schedulable());

        // Undecided band: round-robin goes to the simulator.
        let mut rr = one_task_config(10, 100, vec![Window::new(0, 100)]);
        rr.partitions[0].scheduler = SchedulerKind::RoundRobin { quantum: 5 };
        assert!(ladder.evaluate(&rr, &recorder).is_none());

        assert_eq!(recorder.counter_value("ladder.evaluated"), 4);
        assert_eq!(recorder.counter_value("ladder.decided"), 3);
        assert_eq!(recorder.counter_value("ladder.t0_unschedulable"), 1);
        assert_eq!(recorder.counter_value("ladder.t1_schedulable"), 1);
        assert_eq!(recorder.counter_value("ladder.t2_schedulable"), 1);
        assert_eq!(recorder.counter_value("ladder.undecided"), 1);

        // Fast mode skips T2: the EDF config is forwarded.
        let fast = VerdictLadder::new(LadderMode::Fast);
        assert!(fast.evaluate(&edf, &recorder).is_none());
        // Off mode doesn't even count.
        let off = VerdictLadder::new(LadderMode::Off);
        assert!(off.evaluate(&easy, &recorder).is_none());
        assert_eq!(recorder.counter_value("ladder.evaluated"), 5);
    }

    #[test]
    fn mode_and_provenance_round_trip() {
        for mode in [LadderMode::Off, LadderMode::Fast, LadderMode::Full] {
            assert_eq!(LadderMode::parse(mode.label()), Some(mode));
            assert_eq!(mode.label().parse::<LadderMode>().unwrap(), mode);
        }
        assert!(LadderMode::parse("turbo").is_none());
        assert!("turbo".parse::<LadderMode>().is_err());
        for tag in [
            DecidedBy::Utilization,
            DecidedBy::WindowRta,
            DecidedBy::RtcInterface,
            DecidedBy::Simulation,
        ] {
            assert_eq!(DecidedBy::from_byte(tag.to_byte()), Some(tag));
            assert!(!tag.label().is_empty());
        }
        assert_eq!(DecidedBy::from_byte(250), None);
    }
}
