//! Equivalence of the parallel batch engine with a plain sequential loop:
//! identical per-candidate verdicts and the identical first-schedulable
//! winner on a generated 50-candidate family, for parallelism 1 and 4 —
//! plus prompt cancellation once a winner is known.

use swa_core::Analyzer;
use swa_ima::Configuration;
use swa_workload::{industrial_config, IndustrialSpec};

/// A 50-candidate family sweeping core utilization from hopeless (≈1.30)
/// down to easy (≈0.32): the early candidates are unschedulable, the tail
/// schedulable, with the crossover decided by the analysis itself.
fn candidate_family() -> Vec<Configuration> {
    (0..50)
        .map(|i| {
            industrial_config(&IndustrialSpec {
                modules: 1,
                cores_per_module: 1,
                partitions_per_core: 2,
                tasks_per_partition: 3,
                core_utilization: 1.30 - 0.02 * f64::from(i),
                message_fraction: 0.0,
                seed: 11,
                ..IndustrialSpec::default()
            })
        })
        .collect()
}

#[test]
fn batch_matches_sequential_loop_on_a_generated_family() {
    let family = candidate_family();

    // The reference: a plain sequential scan.
    let sequential: Vec<bool> = family
        .iter()
        .map(|c| Analyzer::new(c).run().unwrap().schedulable())
        .collect();
    let first = sequential.iter().position(|&s| s);
    assert!(
        first.is_some_and(|w| w > 0),
        "the sweep must cross from unschedulable to schedulable mid-family \
         (first schedulable: {first:?})"
    );

    for parallelism in [1usize, 4] {
        // Exhaustive mode: every verdict identical.
        let exhaustive = Analyzer::configure()
            .parallelism(parallelism)
            .analyze_all(&family)
            .unwrap();
        let verdicts: Vec<bool> = exhaustive
            .results
            .iter()
            .map(|r| r.as_ref().unwrap().report.schedulable())
            .collect();
        assert_eq!(verdicts, sequential, "parallelism {parallelism}");
        assert_eq!(exhaustive.winner, first, "parallelism {parallelism}");

        // First-schedulable mode: the identical winner, and an identical
        // evaluated prefix.
        let batch = Analyzer::configure()
            .parallelism(parallelism)
            .first_schedulable(&family)
            .unwrap();
        assert_eq!(batch.winner, first, "parallelism {parallelism}");
        for (i, &expected) in sequential.iter().enumerate().take(first.unwrap() + 1) {
            assert_eq!(
                batch.results[i].as_ref().map(|r| r.report.schedulable()),
                Some(expected),
                "parallelism {parallelism}, candidate {i}"
            );
        }
    }
}

#[test]
fn workers_cancel_promptly_after_a_winner() {
    // Reverse the sweep so candidate 0 is already schedulable: everything
    // beyond the first few in-flight candidates must be cancelled, not
    // evaluated.
    let mut family = candidate_family();
    family.reverse();

    let batch = Analyzer::configure()
        .parallelism(4)
        .first_schedulable(&family)
        .unwrap();
    assert_eq!(batch.winner, Some(0));
    assert!(
        batch.skipped() >= family.len() - 8,
        "expected the tail to be cancelled, but {} of {} candidates ran",
        batch.evaluated(),
        family.len()
    );
}
