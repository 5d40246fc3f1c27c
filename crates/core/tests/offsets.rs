//! Release offsets (phased periodic tasks): job `k` releases at
//! `k · P + O`. A common ARINC pattern — offsets de-phase tasks to avoid
//! contention — and a natural extension the NSA model supports.

use swa_core::{analyze_configuration, SystemModel};
use swa_ima::{
    Configuration, CoreRef, CoreType, CoreTypeId, Module, ModuleId, Partition, PartitionId,
    SchedulerKind, Task, TaskRef, Window,
};

fn one_core_config(tasks: Vec<Task>, l: i64) -> Configuration {
    Configuration {
        core_types: vec![CoreType::new("ct")],
        modules: vec![Module::homogeneous("M", 1, CoreTypeId::from_raw(0))],
        partitions: vec![Partition::new("P", SchedulerKind::Fpps, tasks)],
        binding: vec![CoreRef::new(ModuleId::from_raw(0), 0)],
        windows: vec![vec![Window::new(0, l)]],
        messages: vec![],
    }
}

fn tr(t: u32) -> TaskRef {
    TaskRef::new(PartitionId::from_raw(0), t)
}

#[test]
fn offset_task_releases_at_its_phase() {
    let config = one_core_config(vec![Task::new("t", 1, vec![5], 50).with_offset(10)], 50);
    let report = analyze_configuration(&config).unwrap();
    assert!(report.schedulable(), "{}", report.analysis.summary());
    let job = &report.analysis.jobs[0];
    assert_eq!(job.release, 10);
    assert_eq!(job.abs_deadline, 60);
    assert_eq!(job.intervals, vec![(10, 15)]);
}

#[test]
fn offsets_dephase_contending_tasks() {
    // Two equal-priority-class tasks with C = 10, P = 40: released
    // together, the second waits 10 ticks (response 20); offset by 10, each
    // runs immediately at its own release (response 10).
    let synchronous = one_core_config(
        vec![
            Task::new("a", 2, vec![10], 40),
            Task::new("b", 1, vec![10], 40),
        ],
        40,
    );
    let rep = analyze_configuration(&synchronous).unwrap();
    assert_eq!(rep.analysis.task_stats[1].worst_response, Some(20));

    let phased = one_core_config(
        vec![
            Task::new("a", 2, vec![10], 40),
            Task::new("b", 1, vec![10], 40).with_offset(10),
        ],
        40,
    );
    let rep = analyze_configuration(&phased).unwrap();
    assert!(rep.schedulable());
    assert_eq!(rep.analysis.task_stats[1].worst_response, Some(10));
    let b_job = rep.analysis.jobs.iter().find(|j| j.task == tr(1)).unwrap();
    assert_eq!(b_job.intervals, vec![(10, 20)]);
}

#[test]
fn offset_job_deadline_can_cross_the_hyperperiod_boundary() {
    // P = 50, O = 30, D = 40: the job released at 30 has deadline 70 > L;
    // the extended horizon observes its completion.
    let config = one_core_config(
        vec![
            Task::new("base", 2, vec![5], 50),
            Task::new("late", 1, vec![30], 50)
                .with_offset(30)
                .with_deadline(40),
        ],
        50,
    );
    let report = analyze_configuration(&config).unwrap();
    let late = report
        .analysis
        .jobs
        .iter()
        .find(|j| j.task == tr(1))
        .unwrap();
    assert_eq!(late.release, 30);
    assert_eq!(late.abs_deadline, 70);
    // Crosses L = 50 thanks to the extended horizon — and is correctly
    // preempted there by the *next hyperperiod's* job of the
    // higher-priority task ([50, 55)), resuming to finish at 65 < 70.
    assert_eq!(late.intervals, vec![(30, 50), (55, 65)]);
    assert_eq!(late.completion, Some(65));
    assert!(report.schedulable(), "{}", report.analysis.summary());
}

#[test]
fn offsets_suppress_dispatch_tie_warnings() {
    // Equal priorities but different phases: releases never coincide.
    let tied = one_core_config(
        vec![
            Task::new("a", 1, vec![5], 40),
            Task::new("b", 1, vec![5], 40),
        ],
        40,
    );
    assert_eq!(tied.dispatch_tie_warnings().len(), 1);

    let phased = one_core_config(
        vec![
            Task::new("a", 1, vec![5], 40),
            Task::new("b", 1, vec![5], 40).with_offset(20),
        ],
        40,
    );
    assert!(phased.dispatch_tie_warnings().is_empty());
}

#[test]
fn bad_offsets_are_rejected() {
    let config = one_core_config(vec![Task::new("t", 1, vec![5], 50).with_offset(50)], 50);
    let errs = config.validate().unwrap_err();
    assert!(errs
        .iter()
        .any(|e| matches!(e, swa_ima::ConfigError::BadOffset { .. })));

    let config = one_core_config(vec![Task::new("t", 1, vec![5], 50).with_offset(-1)], 50);
    assert!(config.validate().is_err());
}

#[test]
fn offsets_roundtrip_through_xml() {
    let config = one_core_config(
        vec![
            Task::new("a", 2, vec![5], 50),
            Task::new("b", 1, vec![5], 50).with_offset(25),
        ],
        50,
    );
    let xml = swa_xmlio::configuration_to_xml(&config);
    assert!(xml.contains("offset=\"25\""));
    let back = swa_xmlio::configuration_from_xml(&xml).unwrap();
    assert_eq!(back, config);
}

#[test]
fn offset_models_verify_and_export() {
    let config = one_core_config(
        vec![
            Task::new("a", 2, vec![5], 50),
            Task::new("b", 1, vec![8], 50).with_offset(20),
        ],
        50,
    );
    let model = SystemModel::build(&config).unwrap();
    let verification = swa_mc::verify::verify_by_simulation(&model, &config).unwrap();
    assert!(verification.ok(), "{:#?}", verification.violations);
    let xml = swa_nsa::uppaal::network_to_uppaal(model.network()).unwrap();
    assert!(xml.contains("<nta>"));
}

#[test]
fn offset_extension_of_the_horizon_stays_inside_the_release_domain() {
    // The horizon runs to `L + max_offset + 1 = 151`, so `fast` releases
    // 16 times, not the `L / P + 1 = 11` of a zero-offset model.
    let config = one_core_config(
        vec![
            Task::new("fast", 2, vec![1], 10),
            Task::new("slow", 1, vec![5], 100).with_offset(50),
        ],
        100,
    );
    let report = analyze_configuration(&config).unwrap();
    assert!(report.schedulable(), "{}", report.analysis.summary());
    let slow = report
        .analysis
        .jobs
        .iter()
        .find(|j| j.task == tr(1))
        .unwrap();
    assert_eq!(slow.release, 50);
    assert_eq!(slow.intervals, vec![(51, 56)]);
}
