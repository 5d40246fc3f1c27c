//! Soundness of classical RTA against the trace-based analysis.
//!
//! Classical response-time analysis models a task set that owns its whole
//! core. On exactly that class — FPPS, full-core windows, no incoming
//! messages — it is *sound*: RTA schedulable implies the simulation finds
//! no miss. The moment windows or link delays enter, RTA turns
//! optimistic; [`swa_rta::compare`] reports that as
//! `optimistic_partitions`, and the golden fixture corpus pins concrete
//! instances of both regimes.

use std::path::{Path, PathBuf};

use swa_ima::{
    Configuration, CoreRef, CoreType, CoreTypeId, Module, ModuleId, Partition, SchedulerKind, Task,
    Window,
};
use swa_rta::{compare, window_rta, window_supply_rta};
use swa_workload::rng::Rng64;
use swa_xmlio::configuration_from_xml;

/// A single full-core FPPS partition with a randomized task set —
/// exactly the model classical RTA assumes. Utilizations range from
/// comfortable to overloaded so both verdicts occur.
fn full_core_config(seed: u64) -> Configuration {
    let mut rng = Rng64::seed_from_u64(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1);
    let periods = [10i64, 20, 40];
    let n_tasks = 2 + rng.gen_range(4);
    let mut tasks = Vec::new();
    for t in 0..n_tasks {
        let period = periods[rng.gen_range(periods.len())];
        let wcet = 1 + i64::try_from(rng.gen_range(6)).expect("small");
        // Rate-monotonic, made unique by index so dispatch is tie-free.
        let t_i = i64::try_from(t).expect("small");
        let n_i = i64::try_from(n_tasks).expect("small");
        let priority = (40 / period) * n_i + (n_i - t_i);
        tasks.push(Task::new(format!("t{t}"), priority, vec![wcet], period));
    }
    let hyperperiod =
        swa_ima::util::lcm_all(tasks.iter().map(|t| t.period)).expect("positive periods");
    Configuration {
        core_types: vec![CoreType::new("generic")],
        modules: vec![Module::homogeneous("M0", 1, CoreTypeId::from_raw(0))],
        partitions: vec![Partition::new("P0", SchedulerKind::Fpps, tasks)],
        binding: vec![CoreRef::new(ModuleId::from_raw(0), 0)],
        windows: vec![vec![Window::new(0, hyperperiod)]],
        messages: Vec::new(),
    }
}

/// RTA schedulable ⇒ simulation schedulable, over randomized full-core
/// task sets. The run also counts both verdicts so the property is not
/// vacuously true.
#[test]
fn rta_schedulable_implies_simulation_schedulable_on_full_core_sets() {
    let (mut said_yes, mut said_no) = (0u32, 0u32);
    for seed in 0..60 {
        let config = full_core_config(seed);
        config
            .validate()
            .unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
        let cmp = compare(&config).expect("analysis runs");
        let verdict = &cmp.rta[0];
        assert!(
            verdict.assumptions_hold,
            "seed {seed}: full-core FPPS must qualify"
        );
        if verdict.schedulable {
            said_yes += 1;
            assert!(
                cmp.trace_schedulable,
                "seed {seed}: RTA said schedulable but the simulation found a miss"
            );
            assert!(
                cmp.classical_model_suffices(),
                "seed {seed}: optimism on a full core"
            );
        } else {
            said_no += 1;
        }
    }
    assert!(
        said_yes >= 10,
        "corpus too overloaded to test the implication ({said_yes} yes)"
    );
    assert!(
        said_no >= 10,
        "corpus too light to include RTA rejections ({said_no} no)"
    );
}

/// Window-supply RTA is sound on the same randomized corpus: a
/// `Schedulable` whole-config verdict implies the simulation agrees, and
/// on full-core windows the test is applicable to every partition. The
/// corpus keeps both verdicts represented so neither implication is
/// vacuous.
#[test]
fn window_rta_schedulable_implies_simulation_schedulable() {
    let (mut said_yes, mut said_rest) = (0u32, 0u32);
    for seed in 0..60 {
        let config = full_core_config(seed);
        let verdicts = window_rta(&config);
        assert!(
            verdicts.iter().all(|v| v.assumptions_hold),
            "seed {seed}: full-core FPPS must qualify for the window-supply test"
        );
        let whole = window_supply_rta(&config);
        assert_eq!(
            whole.is_schedulable(),
            verdicts.iter().all(|v| v.schedulable),
            "seed {seed}: whole-config verdict must aggregate the per-partition ones"
        );
        if whole.is_schedulable() {
            said_yes += 1;
            let report = swa_core::analyze_configuration(&config).expect("analysis runs");
            assert!(
                report.schedulable(),
                "seed {seed}: window RTA said schedulable but the simulation found a miss"
            );
        } else {
            said_rest += 1;
        }
    }
    assert!(
        said_yes >= 10,
        "corpus too overloaded to test the implication ({said_yes} yes)"
    );
    assert!(
        said_rest >= 10,
        "corpus too light to exercise refusals ({said_rest} undecided)"
    );
}

/// On the full-core corpus the window-supply test is at least as strong
/// as classical RTA: every set classical RTA proves schedulable, the
/// window test (whose supply there is the identity) proves too.
#[test]
fn window_rta_generalizes_classical_rta_on_full_cores() {
    for seed in 0..60 {
        let config = full_core_config(seed);
        let cmp = compare(&config).expect("analysis runs");
        if cmp.rta[0].schedulable {
            assert!(
                window_supply_rta(&config).is_schedulable(),
                "seed {seed}: classical RTA passes but window RTA refuses on a full core"
            );
        }
    }
}

/// Response times computed by RTA upper-bound the completion the
/// simulation observes on a full core: the trace's verdict never
/// contradicts a finite response time within the deadline.
#[test]
fn rta_response_times_cover_the_simulated_worst_case() {
    for seed in [3u64, 11, 27] {
        let config = full_core_config(seed);
        let cmp = compare(&config).expect("analysis runs");
        let verdict = &cmp.rta[0];
        if verdict.response_times.iter().all(Option::is_some) {
            assert!(cmp.trace_schedulable, "seed {seed}");
        }
    }
}

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures")
}

fn load_fixture(name: &str) -> Configuration {
    let path = fixture_dir().join(name);
    let xml = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "fixture {} missing ({e}); bless the golden corpus first (SWA_UPDATE_GOLDEN=1 \
             cargo test --test golden)",
            path.display()
        )
    });
    configuration_from_xml(&xml).expect("fixture parses")
}

/// The golden FPPS fixture: windows restrict service, but the schedule
/// still fits — RTA and the trace agree, no optimism.
#[test]
fn fpps_fixture_agrees_with_rta() {
    let cmp = compare(&load_fixture("fpps.xml")).expect("analysis runs");
    assert!(cmp.trace_schedulable);
    assert!(cmp.classical_model_suffices());
    assert!(cmp.rta.iter().all(|v| v.schedulable));
}

/// The golden FPNPS fixture misses a deadline *because of* blocking that
/// the classical preemptive model cannot see: RTA's assumptions are
/// flagged as not holding, so its (optimistic) verdict is marked
/// inapplicable rather than trusted.
#[test]
fn fpnps_fixture_is_outside_rta_assumptions() {
    let cmp = compare(&load_fixture("fpnps.xml")).expect("analysis runs");
    assert!(
        !cmp.trace_schedulable,
        "the fixture pins a blocking-induced miss"
    );
    assert!(
        cmp.rta.iter().all(|v| !v.assumptions_hold),
        "FPNPS partitions must not claim classical-model applicability"
    );
}

/// EDF is likewise outside the fixed-priority model.
#[test]
fn edf_fixture_is_outside_rta_assumptions() {
    let cmp = compare(&load_fixture("edf.xml")).expect("analysis runs");
    assert!(cmp.trace_schedulable);
    assert!(cmp.rta.iter().all(|v| !v.assumptions_hold));
}

/// The virtual-link fixture: the receiving partitions have incoming data
/// dependencies, so RTA's assumptions hold only for the pure sender.
#[test]
fn virtual_link_fixture_flags_receivers_as_inapplicable() {
    let config = load_fixture("virtual_link.xml");
    let cmp = compare(&config).expect("analysis runs");
    assert!(cmp.trace_schedulable);
    for (i, verdict) in cmp.rta.iter().enumerate() {
        let has_inputs = config
            .messages
            .iter()
            .any(|m| m.receiver.partition.index() == i);
        assert_eq!(
            verdict.assumptions_hold, !has_inputs,
            "partition {i}: applicability must track data dependencies"
        );
    }
}
