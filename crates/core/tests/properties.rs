//! Seeded property checks of the system model: for generated
//! single-core configurations, the pipeline never errors, job outcomes
//! satisfy the schedulability criterion's structural invariants, and
//! interpretation is deterministic.

use swa_core::{analyze_configuration, analyze_configuration_with, SystemModel};
use swa_ima::{
    Configuration, CoreRef, CoreType, CoreTypeId, Module, ModuleId, Partition, SchedulerKind, Task,
    Window,
};
use swa_nsa::TieBreak;
use swa_workload::rng::Rng64;

const CASES: u64 = 64;

/// A uniform draw from `[lo, hi)`.
fn draw(rng: &mut Rng64, lo: i64, hi: i64) -> i64 {
    lo + i64::try_from(rng.gen_range(usize::try_from(hi - lo).unwrap())).unwrap()
}

fn scheduler(rng: &mut Rng64) -> SchedulerKind {
    [
        SchedulerKind::Fpps,
        SchedulerKind::Fpnps,
        SchedulerKind::Edf,
    ][rng.gen_range(3)]
}

/// 1–3 tasks of WCET 1–7, period 20 or 40 and priority class 0–4. Unique
/// priorities and relative deadlines keep dispatch tie-free
/// (`Configuration::dispatch_tie_warnings`), the precondition of the
/// determinism theorem.
fn tasks(rng: &mut Rng64) -> Vec<Task> {
    (0..1 + rng.gen_range(3))
        .map(|i| {
            let i_l = i64::try_from(i).unwrap();
            let period = [20, 40][rng.gen_range(2)];
            let wcet = draw(rng, 1, 8);
            let prio = draw(rng, 0, 5);
            Task::new(format!("t{i}"), prio * 8 + i_l, vec![wcet], period)
                .with_deadline(period - i_l)
        })
        .collect()
}

/// Two partitions sharing one core through complementary windows of a
/// 40-tick hyperperiod.
fn two_partitions(p0: Partition, p1: Partition, split: i64) -> Configuration {
    Configuration {
        core_types: vec![CoreType::new("ct")],
        modules: vec![Module::homogeneous("M", 1, CoreTypeId::from_raw(0))],
        partitions: vec![p0, p1],
        binding: vec![
            CoreRef::new(ModuleId::from_raw(0), 0),
            CoreRef::new(ModuleId::from_raw(0), 0),
        ],
        windows: vec![vec![Window::new(0, split)], vec![Window::new(split, 40)]],
        messages: vec![],
    }
}

fn random_config(seed: u64) -> Configuration {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut partition = |name: &str| {
        let kind = scheduler(&mut rng);
        let mut tasks = tasks(&mut rng);
        // Non-preemptive scheduling of *simultaneously released* jobs is
        // interleaving-dependent (a preemptive policy corrects an eager
        // dispatch within the same instant; FPNPS locks it in), the corner
        // where the paper's "deterministic schedulers" assumption binds.
        // Single-task FPNPS partitions keep determinism in scope.
        if kind == SchedulerKind::Fpnps {
            tasks.truncate(1);
        }
        Partition::new(name, kind, tasks)
    };
    let mut p0 = partition("P0");
    let p1 = partition("P1");
    // Pin the hyperperiod to 40 so the windows are valid.
    p0.tasks[0].period = 40;
    p0.tasks[0].deadline = 40;
    two_partitions(p0, p1, draw(&mut rng, 1, 39))
}

/// Failure cases an earlier generator found (recorded then as proptest
/// regressions): a one-tick first window.
fn regressions() -> Vec<Configuration> {
    let one = |name: &str, kind| Partition::new(name, kind, vec![Task::new("t0", 0, vec![1], 20)]);
    let mut first = two_partitions(
        one("P0", SchedulerKind::Fpps),
        one("P1", SchedulerKind::Fpps),
        1,
    );
    first.partitions[0].tasks[0].period = 40;
    first.partitions[0].tasks[0].deadline = 40;
    let second = two_partitions(
        Partition::new(
            "P0",
            SchedulerKind::Fpps,
            vec![Task::new("t0", 0, vec![1], 40)],
        ),
        Partition::new(
            "P1",
            SchedulerKind::Fpnps,
            vec![
                Task::new("t0", 0, vec![1], 20),
                Task::new("t1", 0, vec![1], 20),
            ],
        ),
        1,
    );
    vec![first, second]
}

/// The pipeline runs without errors on every valid configuration, and the
/// job outcomes satisfy the structural invariants of the schedulability
/// criterion; jobs of one core never execute at the same instant (the
/// Fig. 2 requirement, checked at the trace level across partitions).
#[test]
fn job_outcomes_are_structurally_sound() {
    let configs = (0..CASES).map(random_config).chain(regressions());
    for (case, config) in configs.enumerate() {
        config.validate().unwrap();
        let report = analyze_configuration(&config).unwrap();
        let l = config.hyperperiod().unwrap();
        for job in &report.analysis.jobs {
            assert!(job.executed <= job.required, "case {case}: {job:?}");
            if let Some(c) = job.completion {
                assert_eq!(job.executed, job.required, "case {case}: {job:?}");
                assert!(c <= job.abs_deadline && c <= l, "case {case}: {job:?}");
            }
            // Intervals are ordered, disjoint, inside [release, deadline],
            // and their lengths sum to the executed total.
            let mut prev_end = job.release;
            for &(from, to) in &job.intervals {
                assert!(
                    from >= prev_end && to > from && to <= job.abs_deadline,
                    "case {case}: {job:?}"
                );
                prev_end = to;
            }
            let sum: i64 = job.intervals.iter().map(|(f, t)| t - f).sum();
            assert_eq!(sum, job.executed, "case {case}: {job:?}");
        }
        let all_ok = report.analysis.jobs.iter().all(swa_core::JobOutcome::is_ok);
        assert_eq!(report.schedulable(), all_ok, "case {case}");

        let mut intervals: Vec<(i64, i64)> = report
            .analysis
            .jobs
            .iter()
            .flat_map(|j| j.intervals.iter().copied())
            .collect();
        intervals.sort_unstable();
        for pair in intervals.windows(2) {
            assert!(pair[0].1 <= pair[1].0, "case {case}: {pair:?} overlap");
        }
    }
}

/// Interpretation order does not change the analysis (the paper's
/// determinism theorem), and the fast path and the generic interpreter
/// (`Permuted` with the identity permutation) produce one model trace.
#[test]
fn interpretation_is_deterministic() {
    for seed in 0..CASES {
        let config = random_config(seed);
        let canonical = analyze_configuration(&config).unwrap();
        let reversed = analyze_configuration_with(&config, TieBreak::Reversed).unwrap();
        assert_eq!(
            canonical.analysis.signature(),
            reversed.analysis.signature(),
            "seed {seed}"
        );

        let model = SystemModel::build(&config).unwrap();
        let n = model.network().automata().len();
        let fast = model.simulate().unwrap();
        let identity: Vec<u32> = (0..u32::try_from(n).unwrap()).collect();
        let generic = model
            .simulate_with_tie_break(TieBreak::Permuted(identity))
            .unwrap();
        assert_eq!(fast.trace, generic.trace, "seed {seed}");
        assert_eq!(fast.final_state, generic.final_state, "seed {seed}");
    }
}
