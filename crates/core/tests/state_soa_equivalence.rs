//! Equivalence suite for the SoA `State` layout.
//!
//! `State` keeps clock values in a flat `Vec<i64>` plus a `stopped`
//! bitmask, and applies delays as a branchless masked add. These tests
//! pin the layout to its observable contract on the same randomized
//! industrial workloads the snapshot differential suite uses, under both
//! evaluation engines:
//!
//! * the masked-add `advance` agrees with the scalar
//!   "running clocks gain `d`, stopped clocks freeze" reference, applied
//!   to states sampled from real simulations (not just synthetic ones);
//! * the `stopped` bitmask, the per-clock accessors and the [`ClockVal`]
//!   exchange form all tell the same story, including the zero-padding
//!   of the mask's trailing word;
//! * `from_parts ∘ iter_clocks` is the identity on live mid-run states;
//! * both engines march through *identical* states, step for step, at
//!   every sampled instant (fingerprint and serialized-snapshot
//!   equality, which covers locations and variables too).

use swa_core::SystemModel;
use swa_nsa::{ClockId, EvalEngine, State, SyncEvent};
use swa_workload::{industrial_config, IndustrialSpec, Rng64};

/// Same shape as the snapshot-differential generator: small enough to
/// run in seconds, varied enough to cover stopped clocks (preemption),
/// messages and both verdicts.
fn random_spec(seed: u64) -> IndustrialSpec {
    let mut rng = Rng64::seed_from_u64(seed ^ 0x5eed_cafe);
    let menus: [&[i64]; 3] = [&[50, 100, 200], &[40, 80, 160], &[25, 50, 100, 200]];
    IndustrialSpec {
        modules: 1,
        cores_per_module: 1 + rng.gen_range(2),
        partitions_per_core: 1 + rng.gen_range(2),
        tasks_per_partition: 2 + rng.gen_range(3),
        core_utilization: 0.3 + rng.gen_f64() * 0.9,
        periods: menus[rng.gen_range(menus.len())].to_vec(),
        message_fraction: rng.gen_f64() * 0.4,
        seed,
    }
}

/// The instants a run's state is sampled at: start, mid-window, event
/// instants and the horizon.
fn sample_points(events: &[SyncEvent], horizon: i64) -> Vec<i64> {
    let mut ks = vec![0, horizon / 3, horizon / 2, horizon];
    if let Some(first) = events.iter().find(|e| e.time > 0) {
        ks.push(first.time);
        ks.push(first.time + 1);
    }
    if let Some(mid) = events.get(events.len() / 2) {
        ks.push(mid.time);
    }
    ks.retain(|&k| (0..=horizon).contains(&k));
    ks.sort_unstable();
    ks.dedup();
    ks
}

/// Checks every SoA invariant on one live state.
fn check_state_invariants(state: &State, context: &str) {
    let n = state.clocks_len();
    assert_eq!(state.clock_values().len(), n, "{context}: values length");
    assert_eq!(
        state.stopped_words().len(),
        n.div_ceil(64),
        "{context}: mask word count"
    );

    // The three clock views agree: flat array, per-clock accessors, and
    // the ClockVal exchange form.
    for (i, cv) in state.iter_clocks().enumerate() {
        let id = ClockId::from_raw(u32::try_from(i).unwrap());
        assert_eq!(
            cv.value,
            state.clock_values()[i],
            "{context}: clock {i} value"
        );
        assert_eq!(
            cv.value,
            state.clock_value(id),
            "{context}: clock {i} accessor"
        );
        assert_eq!(
            cv.running,
            state.clock_running(id),
            "{context}: clock {i} running"
        );
        let word = state.stopped_words()[i / 64];
        let bit = (word >> (i % 64)) & 1;
        assert_eq!(bit == 1, !cv.running, "{context}: clock {i} mask bit");
    }

    // Bits beyond `clocks_len` stay zero — `advance`'s plain-add fast
    // path for all-running words depends on it.
    if let Some(&last) = state.stopped_words().last() {
        let used = n % 64;
        if used != 0 {
            assert_eq!(
                last >> used,
                0,
                "{context}: trailing mask bits must be zero"
            );
        }
    }
}

/// The scalar reference `advance` the masked add must match.
fn reference_advance(state: &State, d: i64) -> Vec<i64> {
    state
        .iter_clocks()
        .map(|c| if c.running { c.value + d } else { c.value })
        .collect()
}

fn check_workload(seed: u64) {
    let config = industrial_config(&random_spec(seed));
    let model = SystemModel::build(&config).expect("generated configuration is valid");
    let horizon = model.horizon();

    let cold = model
        .simulator()
        .engine(EvalEngine::Ast)
        .run()
        .expect("cold run");
    let events: Vec<SyncEvent> = cold.trace.iter().cloned().collect();

    for k in sample_points(&events, horizon) {
        let mut states = Vec::new();
        for engine in [EvalEngine::Ast, EvalEngine::Bytecode] {
            let mut session = model.simulator().engine(engine).session();
            session.run_until(k).expect("prefix run");
            let snapshot = session.snapshot();
            let state = snapshot.state.clone();
            let context = format!("seed {seed}, engine {engine:?}, k = {k}");
            check_state_invariants(&state, &context);

            // from_parts over the exchange form rebuilds this exact state.
            let rebuilt = State::from_parts(
                Vec::new(),
                state.iter_clocks().collect(),
                Vec::new(),
                state.time,
            );
            assert_eq!(
                rebuilt.clock_values(),
                state.clock_values(),
                "{context}: from_parts values"
            );
            assert_eq!(
                rebuilt.stopped_words(),
                state.stopped_words(),
                "{context}: from_parts mask"
            );

            // The masked add equals the scalar reference for a spread of
            // delays, including 0 and a delay crossing many windows.
            for d in [0, 1, 7, horizon.max(1)] {
                let mut advanced = state.clone();
                advanced.advance(d);
                assert_eq!(
                    advanced.clock_values(),
                    reference_advance(&state, d).as_slice(),
                    "{context}: advance({d})"
                );
                assert_eq!(
                    advanced.time,
                    state.time + d,
                    "{context}: time after advance"
                );
                assert_eq!(
                    advanced.stopped_words(),
                    state.stopped_words(),
                    "{context}: advance must not touch the mask"
                );
            }

            // advance(a); advance(b) == advance(a + b).
            let mut two_step = state.clone();
            two_step.advance(3);
            two_step.advance(11);
            let mut one_step = state.clone();
            one_step.advance(14);
            assert_eq!(
                two_step.fingerprint(),
                one_step.fingerprint(),
                "{context}: advance is additive"
            );

            states.push((state.fingerprint(), snapshot.to_bytes()));
        }

        // Both engines are in the identical state at this instant —
        // fingerprints and full serialized snapshots (locations, clocks,
        // variables, time).
        assert_eq!(
            states[0], states[1],
            "seed {seed}, k = {k}: engines diverged in state"
        );
    }
}

/// The headline property over randomized workloads; seeds are fixed, so
/// a failure names the offending workload.
#[test]
fn soa_state_matches_scalar_reference_on_randomized_workloads() {
    for seed in 0..30 {
        check_workload(seed);
    }
}

/// Heavy messaging adds virtual-link automata whose clocks stop and
/// start mid-delivery — the densest stopped-mask traffic in the model.
#[test]
fn soa_state_matches_scalar_reference_with_heavy_messaging() {
    for seed in 100..110 {
        let mut spec = random_spec(seed);
        spec.message_fraction = 0.9;
        let config = industrial_config(&spec);
        let model = SystemModel::build(&config).expect("valid config");
        let horizon = model.horizon();
        for engine in [EvalEngine::Ast, EvalEngine::Bytecode] {
            let mut session = model.simulator().engine(engine).session();
            session.run_until(horizon / 2).expect("prefix run");
            check_state_invariants(
                &session.snapshot().state,
                &format!("messaging seed {seed}, engine {engine:?}"),
            );
        }
    }
}
