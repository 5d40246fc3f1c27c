//! Property-based differential suite for simulator checkpointing.
//!
//! The warm-start machinery is only sound if snapshot/restore is *exact*:
//! for any workload, any split point `k` and either evaluation engine,
//!
//! ```text
//! run(0..N)  ==  run(0..k) ; snapshot ; restore ; run(k..N)
//! ```
//!
//! with trace-level equality — same events, same final state, same step
//! count, same stop reason. This suite checks that identity over 100+
//! randomized industrial workloads (fixed seeds, the in-repo
//! [`swa_workload`] generator), splitting each run at several kinds of
//! boundary:
//!
//! * **event instants** — the time of a committed-location burst, where
//!   several synchronizations fire back-to-back at one instant (the
//!   horizon is exclusive, so the burst must land entirely in the
//!   suffix);
//! * **mid-window points** — between events, where only clocks differ;
//! * **the extremes** — `k = 0` (snapshot of the initial state) and
//!   `k = N` (snapshot of the finished run, resumed into a no-op).
//!
//! The serialized form is checked too: `to_bytes ∘ from_bytes` is the
//! identity, and the bytes at a given `k` are identical under the AST and
//! bytecode engines (snapshots are engine-independent).
//!
//! The dominance corpus (see `dominance_corpus`) splits runs whose fast
//! loop answers the scheduler quantifiers from tournament trees: a
//! restored run rebuilds them from the snapshot's state, so split must
//! still equal one-shot.

mod dominance_corpus;

use swa_core::SystemModel;
use swa_ima::Configuration;
use swa_nsa::{EvalEngine, SimOutcome, Snapshot, SyncEvent};
use swa_workload::{industrial_config, IndustrialSpec, Rng64};

/// A small randomized workload: 1 module, 1–2 cores, 1–2 partitions per
/// core, 2–4 tasks each, utilizations spanning comfortably-schedulable to
/// overloaded (both verdicts must checkpoint correctly).
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

/// The split points exercised for one cold run: the extremes, mid-window
/// points, and the event instants of committed bursts.
fn split_points(events: &[SyncEvent], horizon: i64) -> Vec<i64> {
    let mut ks = vec![0, horizon / 2, horizon];
    if let Some(first) = events.iter().find(|e| e.time > 0) {
        ks.push(first.time); // an event-instant boundary
        ks.push(first.time + 1); // just past it (mid-window)
    }
    if let Some(mid) = events.get(events.len() / 2) {
        ks.push(mid.time);
    }
    // The time of the *last* event: the tail of the run replays from a
    // late snapshot.
    if let Some(last) = events.last() {
        ks.push(last.time);
    }
    ks.retain(|&k| (0..=horizon).contains(&k));
    ks.sort_unstable();
    ks.dedup();
    ks
}

/// Checks the split identity for one model, one engine and one `k`
/// against that engine's one-shot run `cold`; returns the snapshot bytes
/// at `k` for cross-engine comparison.
fn check_split(model: &SystemModel, engine: EvalEngine, k: i64, cold: &SimOutcome) -> Vec<u8> {
    let horizon = model.horizon();
    let sim = model.simulator().engine(engine);

    let mut prefix_session = sim.session();
    prefix_session.run_until(k).expect("prefix run");
    let snapshot = prefix_session.snapshot();
    let bytes = snapshot.to_bytes();
    let reparsed = Snapshot::from_bytes(&bytes).expect("serialized snapshot parses");
    assert_eq!(
        reparsed.to_bytes(),
        bytes,
        "to_bytes ∘ from_bytes is the identity"
    );
    let prefix: Vec<SyncEvent> = prefix_session.trace().iter().cloned().collect();

    // Continuing the same session to the horizon must equal the cold run
    // outright (trace, final state, steps, stop; SimStats excluded).
    prefix_session.run_until(horizon).expect("continued run");
    assert_eq!(
        &prefix_session.into_outcome(),
        cold,
        "segmented run diverged (engine {engine:?}, k = {k})"
    );

    // Resuming the *serialized* snapshot in a fresh session must produce
    // exactly the missing suffix.
    let mut resumed = sim.resume(&reparsed).expect("snapshot fits its own model");
    let stop = resumed.run_until(horizon).expect("suffix run");
    assert_eq!(
        stop, cold.stop,
        "stop reason diverged (engine {engine:?}, k = {k})"
    );
    let stitched: Vec<SyncEvent> = prefix
        .iter()
        .cloned()
        .chain(resumed.trace().iter().cloned())
        .collect();
    let cold_events: Vec<SyncEvent> = cold.trace.iter().cloned().collect();
    assert_eq!(
        stitched, cold_events,
        "prefix ++ suffix != cold trace (engine {engine:?}, k = {k})"
    );
    assert_eq!(
        resumed.state(),
        &cold.final_state,
        "final state diverged (engine {engine:?}, k = {k})"
    );
    assert_eq!(
        resumed.steps(),
        cold.steps,
        "step count diverged (engine {engine:?}, k = {k})"
    );

    bytes
}

fn check_workload(spec: &IndustrialSpec) {
    check_config(
        &industrial_config(spec),
        &format!("seed {}", spec.seed),
        split_points,
    );
}

/// Two mid-run split points: the instant of the run's middle event (its
/// whole burst lands in the suffix) and the tick after it.
fn mid_run_points(events: &[SyncEvent], horizon: i64) -> Vec<i64> {
    let mid = events.get(events.len() / 2).map_or(horizon / 2, |e| e.time);
    vec![mid, mid + 1]
}

fn check_config(config: &Configuration, label: &str, points: fn(&[SyncEvent], i64) -> Vec<i64>) {
    let model = SystemModel::build(config).expect("generated configuration is valid");
    let horizon = model.horizon();

    // The engines must agree on the cold run before splits mean anything.
    let ast = model
        .simulator()
        .engine(EvalEngine::Ast)
        .run()
        .expect("ast run");
    let bytecode = model
        .simulator()
        .engine(EvalEngine::Bytecode)
        .run()
        .expect("bytecode run");
    assert_eq!(ast, bytecode, "engines diverged on {label}");

    let events: Vec<SyncEvent> = ast.trace.iter().cloned().collect();
    for k in points(&events, horizon) {
        let ast_bytes = check_split(&model, EvalEngine::Ast, k, &ast);
        let bytecode_bytes = check_split(&model, EvalEngine::Bytecode, k, &bytecode);
        assert_eq!(
            ast_bytes, bytecode_bytes,
            "snapshot bytes are engine-dependent ({label}, k = {k})"
        );
    }
}

/// The headline property over 100 randomized workloads. Seeds are fixed,
/// so a failure names the workload exactly: rerun with
/// `random_spec(seed)` to reproduce.
#[test]
fn split_runs_match_one_shot_runs_on_randomized_workloads() {
    for seed in 0..100 {
        check_workload(&random_spec(seed));
    }
}

/// Messages introduce virtual-link automata (send/receive channels and
/// in-flight state); splitting mid-delivery must still be exact.
#[test]
fn split_runs_match_with_heavy_messaging() {
    for seed in 100..110 {
        let mut spec = random_spec(seed);
        spec.message_fraction = 0.8;
        spec.partitions_per_core = 2;
        check_workload(&spec);
    }
}

/// Overloaded workloads exercise the failure paths (killed jobs, missed
/// deadlines) — their traces must checkpoint exactly too.
#[test]
fn split_runs_match_on_overloaded_workloads() {
    for seed in 110..120 {
        let mut spec = random_spec(seed);
        spec.core_utilization = 1.4;
        check_workload(&spec);
    }
}

/// Partitions around and far above the dominance threshold, split
/// mid-run: the restored fast loop rebuilds its trees from the snapshot's
/// state, with most tasks ready; then the corpus's situations (idling,
/// tied keys, a decision with a task running, deliveries nobody waits
/// for) at and above the threshold.
#[test]
fn split_runs_match_on_the_dominance_corpus() {
    for kind in dominance_corpus::KINDS {
        for (i, k) in dominance_corpus::SIZES.into_iter().enumerate() {
            let config = dominance_corpus::ready_heavy(k, kind, 0xd1_0000 + i as u64);
            check_config(
                &config,
                &format!("{kind:?} partition of {k} tasks"),
                mid_run_points,
            );
        }
        for k in [swa_nsa::bytecode::MIN_DOMINANCE_K, 128] {
            for (situation, config) in dominance_corpus::situations(k, kind) {
                check_config(
                    &config,
                    &format!("{kind:?} partition of {k} tasks, {situation}"),
                    mid_run_points,
                );
            }
        }
    }
}

/// A snapshot from one workload must be rejected by a different
/// workload's model, not resumed into nonsense.
#[test]
fn snapshots_do_not_cross_workloads() {
    let a = SystemModel::build(&industrial_config(&random_spec(7))).unwrap();
    let b = SystemModel::build(&industrial_config(&random_spec(8))).unwrap();
    let mut session = a.simulator().session();
    session.run_until(a.horizon() / 2).unwrap();
    let snapshot = session.snapshot();
    assert!(
        b.simulator().resume(&snapshot).is_err(),
        "foreign snapshot must not validate"
    );
}
