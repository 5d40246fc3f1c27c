//! Differential gate for compositional analysis.
//!
//! The compositional analyzer splits a decomposable configuration into
//! per-module sub-configurations, analyzes each independently, and
//! composes the verdicts. That is only sound if the composed result is
//! *exactly* the whole-configuration result: for any decomposable
//! workload,
//!
//! ```text
//! analyze(config)  ==  compose(analyze(m) for m in decompose(config))
//! ```
//!
//! with equality at the `Analysis` level — same hyperperiod, same job
//! outcomes, same per-task statistics, same typed verdict — and, through
//! the cache, the same `CachedVerdict` bytes. This suite checks that
//! identity over randomized multi-module industrial workloads (fixed
//! seeds, the in-repo [`swa_workload`] generator), and that
//! non-decomposable workloads (cross-module messages) fall back to the
//! whole-configuration pipeline with an identical report.
//!
//! The evaluator is pinned at the trace level: on every configuration
//! and horizon checked, the AST walker's run of the whole model and of
//! each module's sub-model equals the bytecode run, so the identity
//! above holds for either engine.

use std::sync::Arc;

use swa_core::{
    canonicalize, compositional_lookup, decompose, Analyzer, CachedVerdict, Decomposition,
    FallbackReason, ShardedVerdictCache, SystemModel, VerdictCache,
};
use swa_ima::Configuration;
use swa_nsa::EvalEngine;
use swa_workload::{industrial_config, IndustrialSpec, Rng64};

/// A randomized multi-module workload. Messages are disabled so the
/// modules stay decomposable; utilization spans comfortably-schedulable
/// to overloaded (both verdicts must compose correctly).
fn random_spec(seed: u64) -> IndustrialSpec {
    let mut rng = Rng64::seed_from_u64(seed ^ 0xc0de_5eed);
    IndustrialSpec {
        modules: 2 + rng.gen_range(2),
        cores_per_module: 1 + rng.gen_range(2),
        partitions_per_core: 1 + rng.gen_range(2),
        tasks_per_partition: 2 + rng.gen_range(3),
        core_utilization: 0.3 + rng.gen_f64() * 0.9,
        message_fraction: 0.0,
        seed,
        ..IndustrialSpec::default()
    }
}

/// Asserts that the AST walker and the bytecode engine produce the same
/// NSA run of `config`'s model over `hyperperiods`.
fn assert_engines_agree(config: &Configuration, hyperperiods: u32, label: &str) {
    let model = SystemModel::build_spanning(config, hyperperiods).expect("model builds");
    let run = |engine| {
        model
            .simulator()
            .engine(engine)
            .run()
            .expect("model simulates")
    };
    assert_eq!(
        run(EvalEngine::Ast),
        run(EvalEngine::Bytecode),
        "AST walker and bytecode diverge on {label} (hyperperiods {hyperperiods})"
    );
}

/// Asserts the compositional identity for one configuration and one
/// horizon, and engine agreement on the whole model and on every module's
/// sub-model; returns `true` when the configuration actually decomposed
/// (so callers can assert the suite exercised the real path, not just the
/// fallback).
fn check_agreement(config: &Configuration, hyperperiods: u32) -> bool {
    let whole = Analyzer::new(config)
        .horizon(hyperperiods)
        .run()
        .expect("whole-configuration analysis");
    let composed = Analyzer::new(config)
        .horizon(hyperperiods)
        .compositional(true)
        .run()
        .expect("compositional analysis");

    assert_eq!(
        composed.analysis, whole.analysis,
        "composed analysis diverged (hyperperiods {hyperperiods})"
    );
    assert_eq!(
        composed.analysis.verdict(),
        whole.analysis.verdict(),
        "typed verdicts diverged"
    );
    // The human-readable summary is rendered from the analysis alone, so
    // the two reports must agree byte-for-byte.
    assert_eq!(composed.analysis.summary(), whole.analysis.summary());

    assert_engines_agree(config, hyperperiods, "the whole model");
    match decompose(config) {
        Decomposition::Modules(parts) => {
            for part in &parts {
                assert_engines_agree(&part.sub, hyperperiods, &format!("module {}", part.name));
            }
            true
        }
        Decomposition::Whole(_) => false,
    }
}

/// The headline identity over randomized workloads at the base horizon.
/// Seeds are fixed, so a failure names the workload exactly: rerun with
/// `random_spec(seed)` to reproduce.
#[test]
fn composed_analyses_match_whole_analyses_on_randomized_workloads() {
    let mut decomposed = 0;
    for seed in 0..40 {
        let config = industrial_config(&random_spec(seed));
        if check_agreement(&config, 1) {
            decomposed += 1;
        }
    }
    // The generator must produce mostly-decomposable workloads or the
    // suite gates nothing: every message-free multi-module configuration
    // whose modules share the hyperperiod decomposes.
    assert!(
        decomposed >= 20,
        "only {decomposed}/40 workloads exercised the compositional path"
    );
}

/// Longer horizons change job counts and the analysis window; the
/// composed result must track them exactly.
#[test]
fn composed_analyses_match_at_longer_horizons() {
    for seed in 40..50 {
        let config = industrial_config(&random_spec(seed));
        check_agreement(&config, 3);
    }
}

/// Overloaded workloads exercise the unschedulable path: the composed
/// diagnosis (missed jobs, missing partitions) must equal the whole
/// run's.
#[test]
fn composed_analyses_match_on_overloaded_workloads() {
    let mut unschedulable = 0;
    for seed in 50..60 {
        let mut spec = random_spec(seed);
        spec.core_utilization = 1.4;
        let config = industrial_config(&spec);
        let whole = Analyzer::new(&config).run().expect("whole analysis");
        if !whole.schedulable() {
            unschedulable += 1;
        }
        check_agreement(&config, 1);
    }
    assert!(
        unschedulable >= 5,
        "only {unschedulable}/10 overloaded workloads missed a deadline"
    );
}

/// Workloads with messages may wire tasks across modules; those must
/// fall back to the whole pipeline (same report, by construction) and
/// name the offending message. Intra-module messages decompose fine.
#[test]
fn cross_module_messages_fall_back_and_still_agree() {
    let mut fell_back = 0;
    for seed in 60..75 {
        let mut spec = random_spec(seed);
        spec.message_fraction = 0.6;
        spec.partitions_per_core = 2;
        let config = industrial_config(&spec);
        match decompose(&config) {
            Decomposition::Whole(FallbackReason::CrossModuleMessage { .. }) => fell_back += 1,
            // A module whose local task periods LCM below the whole
            // hyperperiod also (rightly) falls back.
            Decomposition::Whole(FallbackReason::HyperperiodMismatch { .. }) => {}
            Decomposition::Whole(reason) => panic!("unexpected fallback: {reason:?}"),
            Decomposition::Modules(_) => {}
        }
        check_agreement(&config, 1);
    }
    assert!(
        fell_back >= 3,
        "only {fell_back}/15 message workloads produced a cross-module link"
    );
}

/// The cache-level identity: a compositional run's composed entry, a
/// whole run's entry, and `compositional_lookup`'s module-composed
/// answer must all carry the same verdict payload.
#[test]
fn cached_composed_verdicts_match_whole_verdicts() {
    for seed in 75..85 {
        let config = industrial_config(&random_spec(seed));
        if !matches!(decompose(&config), Decomposition::Modules(_)) {
            continue;
        }
        let whole = Analyzer::new(&config).run().expect("whole analysis");
        let reference = CachedVerdict::from_report(&whole);

        let cache = Arc::new(ShardedVerdictCache::new(1 << 22));
        Analyzer::new(&config)
            .compositional(true)
            .cache(cache.clone() as Arc<dyn VerdictCache>)
            .run()
            .expect("compositional analysis");

        // The whole-key entry was composed from the module runs…
        let whole_entry = cache
            .lookup(&canonicalize(&config, 1))
            .expect("whole-key entry");
        assert_eq!(
            *whole_entry, reference,
            "whole-key entry diverged (seed {seed})"
        );

        // …and after evicting it, compositional_lookup recomposes the
        // same payload from the per-module entries alone.
        let fresh = Arc::new(ShardedVerdictCache::new(1 << 22));
        for request in swa_core::canonicalize_modules(&config, 1).expect("decomposable") {
            let module_entry = cache.lookup(&request).expect("module entry");
            fresh.insert(&request, module_entry);
        }
        let recomposed = compositional_lookup(&*fresh, &config, 1).expect("composed hit");
        assert_eq!(
            *recomposed, reference,
            "recomposed entry diverged (seed {seed})"
        );
    }
}
