//! Behavior tests for the round-robin scheduler automaton — the first
//! library extension the paper's future work proposes.

use swa_core::analyze_configuration;
use swa_ima::{
    Configuration, CoreRef, CoreType, CoreTypeId, Module, ModuleId, Partition, PartitionId,
    SchedulerKind, Task, TaskRef, Window,
};

fn rr_config(quantum: i64, tasks: Vec<Task>, l: i64) -> Configuration {
    Configuration {
        core_types: vec![CoreType::new("generic")],
        modules: vec![Module::homogeneous("M1", 1, CoreTypeId::from_raw(0))],
        partitions: vec![Partition::new(
            "P1",
            SchedulerKind::RoundRobin { quantum },
            tasks,
        )],
        binding: vec![CoreRef::new(ModuleId::from_raw(0), 0)],
        windows: vec![vec![Window::new(0, l)]],
        messages: vec![],
    }
}

fn tr(t: u32) -> TaskRef {
    TaskRef::new(PartitionId::from_raw(0), t)
}

#[test]
fn quantum_slices_alternate_between_jobs() {
    // Two tasks, C = 4 each, quantum 2: the schedule interleaves
    // a[0,2) b[2,4) a[4,6) b[6,8).
    let config = rr_config(
        2,
        vec![
            Task::new("a", 0, vec![4], 20),
            Task::new("b", 0, vec![4], 20),
        ],
        20,
    );
    let report = analyze_configuration(&config).unwrap();
    assert!(report.schedulable(), "{}", report.analysis.summary());
    let a = &report.analysis.jobs[0];
    let b = &report.analysis.jobs[1];
    assert_eq!(a.intervals, vec![(0, 2), (4, 6)]);
    assert_eq!(b.intervals, vec![(2, 4), (6, 8)]);
    // One quantum preemption each (the final slice ends by completion).
    assert_eq!(report.analysis.task_stats[0].preemptions, 1);
    assert_eq!(report.analysis.task_stats[1].preemptions, 1);
}

#[test]
fn lone_job_is_redispatched_across_quanta() {
    // A single ready job keeps the core across quantum expiries: its
    // intervals chain seamlessly (preempt and re-dispatch at the same
    // instant leave no gap, and zero-length artifacts are dropped).
    let config = rr_config(3, vec![Task::new("solo", 0, vec![10], 20)], 20);
    let report = analyze_configuration(&config).unwrap();
    assert!(report.schedulable(), "{}", report.analysis.summary());
    let job = &report.analysis.jobs[0];
    assert_eq!(job.executed, 10);
    assert_eq!(job.completion, Some(10));
    // The intervals tile [0, 10) without gaps.
    let mut cursor = 0;
    for &(from, to) in &job.intervals {
        assert_eq!(from, cursor);
        cursor = to;
    }
    assert_eq!(cursor, 10);
}

#[test]
fn arrivals_do_not_preempt_the_quantum() {
    // b arrives while a runs: a keeps the processor until its quantum
    // expires.
    let config = rr_config(
        5,
        vec![
            Task::new("a", 0, vec![5], 40),
            // b released at 0 too, but a runs first (circular order after
            // the initial last = K-1 starts at index 0).
            Task::new("b", 0, vec![3], 40),
        ],
        40,
    );
    let report = analyze_configuration(&config).unwrap();
    assert!(report.schedulable(), "{}", report.analysis.summary());
    let a = &report.analysis.jobs[0];
    let b = &report.analysis.jobs[1];
    // a runs its full quantum-length WCET in one slice, then b.
    assert_eq!(a.intervals, vec![(0, 5)]);
    assert_eq!(b.intervals, vec![(5, 8)]);
}

#[test]
fn three_tasks_rotate_in_index_order() {
    let config = rr_config(
        1,
        vec![
            Task::new("a", 0, vec![2], 30),
            Task::new("b", 0, vec![2], 30),
            Task::new("c", 0, vec![2], 30),
        ],
        30,
    );
    let report = analyze_configuration(&config).unwrap();
    assert!(report.schedulable(), "{}", report.analysis.summary());
    // Quantum 1 → perfect rotation a b c a b c.
    assert_eq!(report.analysis.jobs[0].intervals, vec![(0, 1), (3, 4)]);
    assert_eq!(report.analysis.jobs[1].intervals, vec![(1, 2), (4, 5)]);
    assert_eq!(report.analysis.jobs[2].intervals, vec![(2, 3), (5, 6)]);
}

#[test]
fn rr_respects_windows() {
    // Window [0, 5) then [10, 20): the running job is cut at the boundary
    // and its quantum restarts in the next window.
    let mut config = rr_config(4, vec![Task::new("a", 0, vec![7], 20)], 20);
    config.windows[0] = vec![Window::new(0, 5), Window::new(10, 20)];
    let report = analyze_configuration(&config).unwrap();
    assert!(report.schedulable(), "{}", report.analysis.summary());
    let job = &report.analysis.jobs[0];
    assert_eq!(job.executed, 7);
    assert_eq!(job.intervals.first().map(|&(f, _)| f), Some(0));
    // Nothing executes inside the gap [5, 10).
    for &(from, to) in &job.intervals {
        assert!(
            to <= 5 || from >= 10,
            "interval ({from},{to}) crosses the gap"
        );
    }
}

#[test]
fn rr_observers_hold() {
    let config = rr_config(
        2,
        vec![
            Task::new("a", 0, vec![4], 20),
            Task::new("b", 0, vec![3], 20),
        ],
        20,
    );
    let model = swa_core::SystemModel::build(&config).unwrap();
    let report = swa_mc::verify::verify_by_simulation(&model, &config).unwrap();
    assert!(report.ok(), "{:#?}", report.violations);
}

#[test]
fn rr_has_no_dispatch_ties() {
    let config = rr_config(
        2,
        vec![
            Task::new("a", 0, vec![4], 20),
            Task::new("b", 0, vec![3], 20),
        ],
        20,
    );
    assert!(config.dispatch_tie_warnings().is_empty());
    // FPPS with the same equal priorities would warn.
    let mut fpps = config;
    fpps.partitions[0].scheduler = SchedulerKind::Fpps;
    assert_eq!(fpps.dispatch_tie_warnings().len(), 1);
    let _ = tr(0);
}

#[test]
fn bad_quantum_is_rejected() {
    let config = rr_config(0, vec![Task::new("a", 0, vec![4], 20)], 20);
    let errs = config.validate().unwrap_err();
    assert!(errs
        .iter()
        .any(|e| matches!(e, swa_ima::ConfigError::BadQuantum { .. })));
}

#[test]
fn rr_roundtrips_through_xml() {
    let config = rr_config(
        3,
        vec![
            Task::new("a", 0, vec![4], 20),
            Task::new("b", 0, vec![3], 20),
        ],
        20,
    );
    let xml = swa_xmlio::configuration_to_xml(&config);
    assert!(xml.contains("scheduler=\"RR\""));
    assert!(xml.contains("quantum=\"3\""));
    let back = swa_xmlio::configuration_from_xml(&xml).unwrap();
    assert_eq!(back, config);
}

/// Under round-robin, no executing interval exceeds the quantum, and
/// per-job execution still sums to the WCET (seeded over quanta 1–5 and
/// WCETs 1–7).
#[test]
fn intervals_respect_the_quantum() {
    let mut rng = swa_workload::rng::Rng64::seed_from_u64(0x5eed);
    let mut draw = |lo: usize, hi: usize| i64::try_from(lo + rng.gen_range(hi - lo)).unwrap();
    for _ in 0..32 {
        let (quantum, c1, c2) = (draw(1, 6), draw(1, 8), draw(1, 8));
        let config = rr_config(
            quantum,
            vec![
                Task::new("a", 0, vec![c1], 40),
                Task::new("b", 0, vec![c2], 40),
            ],
            40,
        );
        let report = analyze_configuration(&config).unwrap();
        for job in &report.analysis.jobs {
            for &(from, to) in &job.intervals {
                assert!(
                    to - from <= quantum,
                    "interval ({from},{to}) exceeds quantum {quantum}"
                );
            }
            // Utilization (c1+c2)/40 <= 14/40 < 1: always schedulable.
            assert!(job.is_ok(), "q={quantum} c=({c1},{c2}): {job:?}");
        }
    }
}
