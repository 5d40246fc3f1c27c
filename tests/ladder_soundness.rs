//! Cross-tier soundness corpus for the verdict ladder (DESIGN.md §4.20).
//!
//! The ladder's analytic tiers are only useful if they never contradict
//! the exact simulation: T0 is a *necessary* test (an Unschedulable
//! verdict must be confirmed by the simulator), T1 is a *sufficient*
//! test (a Schedulable verdict must be confirmed by the simulator).
//! This suite sweeps a seeded corpus of 240 generated workloads across
//! the schedulability spectrum — comfortable, contested, and overloaded
//! utilizations, with and without inter-partition messages, and with
//! some partitions mutated to EDF so T1's demand-bound test and its
//! applicability guards are exercised — and checks every ladder decision against the simulator
//! under **both** whole-system and compositional analysis. The corpus
//! also pins the evaluator: on every configuration, decided or not, the
//! AST walker and the bytecode engine must produce the same NSA run of
//! the whole model and of every module's sub-model.
//!
//! A violation panics with the offending configuration serialized as
//! XML so it can be re-blessed as a fixture for regression.

use swa_core::{
    decompose, Analyzer, Decomposition, LadderMode, NoopRecorder, SystemModel, VerdictLadder,
};
use swa_ima::{Configuration, SchedulerKind};
use swa_nsa::EvalEngine;
use swa_workload::{industrial_config, IndustrialSpec};
use swa_xmlio::configuration_to_xml;

/// Utilization levels spanning clearly-schedulable through clearly
/// overloaded. The contested middle is where the ladder must abstain
/// (forward to simulation) rather than guess.
const UTILIZATIONS: [f64; 4] = [0.30, 0.60, 0.90, 1.20];

/// Seeds per utilization level; 60 × 4 = 240 workloads ≥ the 200-config
/// corpus floor.
const SEEDS_PER_LEVEL: u64 = 60;

/// Builds one corpus entry. Every third seed adds a message workload
/// (receivers make T1 inapplicable on those partitions); every fifth
/// seed flips the first partition to EDF (T1's demand-bound test).
fn corpus_config(utilization: f64, seed: u64) -> Configuration {
    let spec = IndustrialSpec {
        modules: 2,
        cores_per_module: 1,
        partitions_per_core: 2,
        tasks_per_partition: 3,
        core_utilization: utilization,
        message_fraction: if seed.is_multiple_of(3) { 0.25 } else { 0.0 },
        seed: seed.wrapping_mul(0x9e37_79b9) ^ utilization.to_bits(),
        ..IndustrialSpec::default()
    };
    let mut config = industrial_config(&spec);
    if seed.is_multiple_of(5) {
        config.partitions[0].scheduler = SchedulerKind::Edf;
    }
    config
}

/// Exact ground truth: the simulator's verdict must be identical across
/// whole-system and compositional analysis, so either run is
/// authoritative — but we check both, because a ladder bug that only
/// disagrees with one of them is still a bug.
fn simulated_verdicts(config: &Configuration) -> Vec<(String, bool)> {
    [false, true]
        .into_iter()
        .map(|compositional| {
            let schedulable = Analyzer::new(config)
                .compositional(compositional)
                .run()
                .expect("corpus config analyzes")
                .schedulable();
            (format!("compositional={compositional}"), schedulable)
        })
        .collect()
}

/// The evaluator cannot matter: the AST walker's run of the whole model,
/// and of each module's sub-model when the configuration decomposes,
/// equals the bytecode run (trace, final state, steps, stop reason), so
/// every whole or compositional verdict derived from them does too.
fn assert_engines_agree(config: &Configuration, utilization: f64, seed: u64) {
    let mut models = vec![config.clone()];
    if let Decomposition::Modules(parts) = decompose(config) {
        models.extend(parts.into_iter().map(|part| part.sub));
    }
    for model in &models {
        let model = SystemModel::build(model).expect("corpus config builds");
        let run = |engine| {
            model
                .simulator()
                .engine(engine)
                .run()
                .expect("corpus config simulates")
        };
        assert_eq!(
            run(EvalEngine::Ast),
            run(EvalEngine::Bytecode),
            "AST walker and bytecode diverge at utilization {utilization} seed {seed}:\n{}",
            configuration_to_xml(config),
        );
    }
}

#[test]
fn ladder_decisions_are_sound_across_engines_and_composition() {
    let ladder = VerdictLadder::new(LadderMode::Full);
    let recorder = NoopRecorder;

    let mut total = 0usize;
    let mut t0_unschedulable = 0usize;
    let mut sufficient_schedulable = 0usize;
    let mut undecided = 0usize;
    let mut edf_schedulable = 0usize;

    for utilization in UTILIZATIONS {
        for seed in 0..SEEDS_PER_LEVEL {
            let config = corpus_config(utilization, seed);
            total += 1;
            assert_engines_agree(&config, utilization, seed);

            let Some(decision) = ladder.evaluate(&config, &recorder) else {
                undecided += 1;
                continue;
            };

            // A tier produced a verdict: it must be confirmed by every
            // simulator variant. (The composition cross-check is part of
            // the corpus on decided configs for free.)
            let claims_schedulable = decision.verdict.is_schedulable();
            if claims_schedulable {
                sufficient_schedulable += 1;
                let has_edf = config
                    .partitions
                    .iter()
                    .any(|p| p.scheduler == SchedulerKind::Edf);
                edf_schedulable += usize::from(has_edf);
            } else {
                t0_unschedulable += 1;
            }
            for (variant, simulated) in simulated_verdicts(&config) {
                assert_eq!(
                    simulated,
                    claims_schedulable,
                    "UNSOUND ladder decision at utilization {utilization} seed {seed}: \
                     tier {} says schedulable={claims_schedulable}, simulator ({variant}) \
                     says schedulable={simulated}.\nRe-blessable configuration:\n{}",
                    decision.decided_by,
                    configuration_to_xml(&config),
                );
            }
        }
    }

    assert!(total >= 200, "corpus shrank below 200 configs ({total})");
    // Non-vacuity: both directions of the soundness implication must
    // actually fire on this corpus, and the contested band must exist
    // (otherwise the ladder's abstention path is untested).
    assert!(
        t0_unschedulable >= 10,
        "T0 never fired meaningfully ({t0_unschedulable} of {total}) — \
         the overloaded band is not reaching the necessary tier"
    );
    assert!(
        sufficient_schedulable >= 10,
        "T1 never fired meaningfully ({sufficient_schedulable} of {total}) — \
         the comfortable band is not reaching the sufficient tier"
    );
    // T1 decides a configuration only when every partition passes, so
    // each of these ran the EDF demand-bound test to completion.
    assert!(
        edf_schedulable >= 10,
        "only {edf_schedulable} configurations with an EDF partition were decided \
         schedulable — T1's demand-bound test is barely exercised"
    );
    assert!(
        undecided >= 1,
        "every config was decided analytically — the forwarded band is untested"
    );
}
