//! Differential suite for the compiled-bytecode engine and the event-wheel
//! fast path: on every deterministic fixture family and 100 randomized
//! workloads, the AST walker and the bytecode interpreter must produce the
//! same trace, the indexed fast loop must produce the same trace as the
//! generic interpreter (forced via an identity-permutation tie-break,
//! which is semantically canonical but disables the fast path), and the
//! product pipeline must produce the analysis of that trace. The
//! dominance corpus (see `dominance_corpus`) holds partitions large enough
//! for the fast loop to answer the scheduler quantifiers from its
//! tournament trees, which neither other run uses.

mod dominance_corpus;

use swa_core::{analyze, extract_system_trace, Analyzer, SystemModel};
use swa_ima::{Configuration, SchedulerKind};
use swa_nsa::semantics::Transition;
use swa_nsa::sim::{SimOutcome, Simulator, TieBreak};
use swa_nsa::state::EnvView;
use swa_nsa::{
    ArrayId, AutomatonBuilder, AutomatonId, Edge, EdgeId, EvalEngine, Network, NetworkBuilder,
    SimError, State, Update,
};
use swa_workload::{config_with_jobs, industrial_config, table1_config, IndustrialSpec, Rng64};

/// Simulates the model's network three ways — fast path with bytecode,
/// generic interpreter with bytecode, fast path with the AST walker — and
/// asserts trace-level equality. With `pipeline`, also asserts that
/// `Analyzer::run` (always bytecode) reports the analysis of the AST
/// walker's trace. Returns the model and its run.
fn assert_traces_agree(
    config: &Configuration,
    label: &str,
    pipeline: bool,
) -> (SystemModel, SimOutcome) {
    let model = SystemModel::build(config).unwrap_or_else(|e| panic!("{label}: build failed: {e}"));
    let network = model.network();
    let horizon = model.horizon();
    let identity: Vec<u32> = (0..u32::try_from(network.automata().len()).expect("fits")).collect();

    let run = |tie: TieBreak, engine: EvalEngine| -> SimOutcome {
        Simulator::new(network)
            .horizon(horizon)
            .tie_break(tie)
            .engine(engine)
            .run()
            .unwrap_or_else(|e| panic!("{label}: simulation failed: {e}"))
    };

    let fast_bc = run(TieBreak::Canonical, EvalEngine::Bytecode);
    let generic_bc = run(TieBreak::Permuted(identity), EvalEngine::Bytecode);
    let fast_ast = run(TieBreak::Canonical, EvalEngine::Ast);

    assert_eq!(
        fast_bc, generic_bc,
        "{label}: fast path diverges from generic interpreter"
    );
    assert_eq!(
        fast_bc, fast_ast,
        "{label}: bytecode diverges from AST walker"
    );
    assert!(
        fast_bc.steps > 0,
        "{label}: degenerate run exercised nothing"
    );

    if pipeline {
        let report = Analyzer::new(config)
            .run()
            .unwrap_or_else(|e| panic!("{label}: pipeline failed: {e}"));
        let ast_trace = extract_system_trace(&model, config, &fast_ast.trace);
        assert_eq!(
            report.trace, ast_trace,
            "{label}: pipeline trace diverges from AST walker"
        );
        assert_eq!(
            report.analysis,
            analyze(config, &ast_trace),
            "{label}: pipeline analysis diverges from AST walker"
        );
    }
    (model, fast_bc)
}

#[test]
fn engines_agree_on_deterministic_fixtures() {
    assert_traces_agree(&table1_config(12), "table1(12)", true);
    assert_traces_agree(&config_with_jobs(300, 1), "industrial(300 jobs)", true);
    assert_traces_agree(
        &industrial_config(&IndustrialSpec::default()),
        "industrial(default)",
        true,
    );
    // A message-heavy overloaded variant: unschedulable verdicts must agree
    // too, not only the happy path.
    assert_traces_agree(
        &industrial_config(&IndustrialSpec {
            modules: 1,
            cores_per_module: 1,
            partitions_per_core: 2,
            tasks_per_partition: 4,
            core_utilization: 1.4,
            message_fraction: 0.5,
            seed: 7,
            ..IndustrialSpec::default()
        }),
        "industrial(overloaded)",
        true,
    );
}

/// One spec drawn from the rng: small enough that 100 of them stay fast,
/// varied enough to hit binary and broadcast sync, messages, several
/// schedulers and both schedulable and overloaded utilizations.
fn random_spec(rng: &mut Rng64, seed_index: u64) -> IndustrialSpec {
    let menus: [&[i64]; 4] = [
        &[10, 20, 40],
        &[25, 50, 100],
        &[20, 40, 80, 160],
        &[50, 100, 200, 400],
    ];
    let periods = menus[rng.gen_range(menus.len())];
    IndustrialSpec {
        modules: 1,
        cores_per_module: 1 + rng.gen_range(2),
        partitions_per_core: 1 + rng.gen_range(3),
        tasks_per_partition: 1 + rng.gen_range(4),
        core_utilization: 0.3 + 0.8 * rng.gen_f64(),
        periods: periods.to_vec(),
        message_fraction: 0.4 * rng.gen_f64(),
        seed: seed_index,
    }
}

#[test]
fn engines_and_fast_path_agree_on_randomized_workloads() {
    let mut rng = Rng64::seed_from_u64(0x5eed_cafe);
    for i in 0..100u64 {
        let spec = random_spec(&mut rng, i);
        let config = industrial_config(&spec);
        let label = format!("random workload #{i} ({spec:?})");
        // The full pipeline is heavier; check it on every fifth workload
        // (the trace equality already covers the engines on all of them).
        assert_traces_agree(&config, &label, i % 5 == 0);
    }
}

/// A domain-respecting "busy" state: every scalar and array cell clamped
/// to 1. Job-ready and data-ready flags come up, so the scheduler-dispatch
/// quantifiers iterate instead of short-circuiting on the first conjunct,
/// as they do mid-simulation.
fn busy_state(network: &Network) -> State {
    let mut state = State::initial(network);
    for (slot, decl) in network.vars().iter().enumerate() {
        state.vars[slot] = 1i64.clamp(decl.min, decl.max);
    }
    for (ai, decl) in network.arrays().iter().enumerate() {
        let id = ArrayId::from_raw(u32::try_from(ai).expect("fits"));
        let base = network.array_offset(id);
        for k in 0..network.array_len(id) {
            state.vars[base + k] = 1i64.clamp(decl.min, decl.max);
        }
    }
    state
}

/// Evaluates every edge guard of the network in `state` with both engines
/// and asserts the same truth value, or the same error; returns how many
/// guards evaluated without error.
fn assert_guards_agree(network: &Network, state: &State, label: &str) -> usize {
    let compiled = network.compiled();
    let view = EnvView { network, state };
    let mut evaluated = 0;
    for (ai, a) in network.automata().iter().enumerate() {
        let aid = AutomatonId::from_raw(u32::try_from(ai).expect("fits"));
        for (ei, e) in a.edges.iter().enumerate() {
            let eid = EdgeId::from_raw(u32::try_from(ei).expect("fits"));
            let ast = e.guard.holds(&view, &view);
            let bc = compiled.guard(aid, eid).holds(state);
            assert_eq!(
                ast, bc,
                "{label}: guard of automaton {ai} edge {ei} diverges"
            );
            evaluated += usize::from(ast.is_ok());
        }
    }
    evaluated
}

/// Trace equality on the dominance corpus: every policy the index covers,
/// partitions just below, at and far above the threshold, most tasks
/// ready, priorities and absolute deadlines tied. Round-robin keeps its
/// circular-distance loops, and only its `go_idle` guard is answered, from
/// a tree without a key; its loops are quadratic per decision, so it runs
/// the smaller sizes only. Then the corpus's situations, at and above the
/// threshold, where the fast loop dispatches from a tree's root: each run
/// must show its situation (idling, a decision with a task running while
/// another outranks it, a delivery nobody waits for).
#[test]
fn engines_and_fast_path_agree_on_large_partitions() {
    let round_robin = SchedulerKind::RoundRobin { quantum: 3 };
    let cases = dominance_corpus::KINDS
        .into_iter()
        .flat_map(|kind| dominance_corpus::SIZES.map(|k| (kind, k)))
        .chain(
            dominance_corpus::SIZES[..3]
                .iter()
                .map(|&k| (round_robin, k)),
        );
    for (i, (kind, k)) in cases.enumerate() {
        let config = dominance_corpus::ready_heavy(k, kind, 0xd0_0000 + i as u64);
        let model = SystemModel::build(&config).expect("corpus configuration builds");
        let queries = model.network().compiled().dominance_queries();
        assert_eq!(
            queries > 0,
            k >= swa_nsa::bytecode::MIN_DOMINANCE_K,
            "{kind:?} k={k}: {queries} dominance queries"
        );
        assert_traces_agree(
            &config,
            &format!("{kind:?} partition of {k} tasks"),
            k == 128,
        );
    }
    for kind in dominance_corpus::KINDS {
        for k in [swa_nsa::bytecode::MIN_DOMINANCE_K, 128] {
            for (situation, config) in dominance_corpus::situations(k, kind) {
                let label = format!("{kind:?} partition of {k} tasks, {situation}");
                let (model, run) = assert_traces_agree(&config, &label, false);
                let network = model.network();
                let shows = match situation {
                    "idle" => takes(network, &run, "go_idle"),
                    "busy winner" if kind == SchedulerKind::Fpnps => {
                        takes(network, &run, "continue")
                    }
                    "busy winner" => takes(network, &run, "preempt_"),
                    "parked receivers" => run.trace.iter().any(|e| {
                        matches!(&e.transition, Transition::Broadcast { channel, receivers, .. }
                            if receivers.is_empty()
                                && network.channels()[channel.index()].name.starts_with("receive_"))
                    }),
                    _ => true,
                };
                assert!(shows, "{label}: the run never shows the situation");
            }
        }
    }
}

/// Whether the main partition's scheduler takes, somewhere in `run`, an
/// edge whose label starts with `label`.
fn takes(network: &Network, run: &SimOutcome, label: &str) -> bool {
    let automata = network.automata();
    run.trace.iter().any(|e| {
        e.participants().any(|(a, edge)| {
            network.automaton_name(a).starts_with("TS1_main")
                && automata[a.index()].edge(edge).label.starts_with(label)
        })
    })
}

#[test]
fn engines_agree_on_every_edge_guard() {
    let model = SystemModel::build(&config_with_jobs(300, 1)).expect("valid generated config");
    let network = model.network();
    let guards: usize = network.automata().iter().map(|a| a.edges.len()).sum();
    for (label, state) in [
        ("initial", State::initial(network)),
        ("busy", busy_state(network)),
    ] {
        let evaluated = assert_guards_agree(network, &state, label);
        assert!(
            evaluated * 2 > guards,
            "{label}: only {evaluated} of {guards} guards evaluated"
        );
    }
}

#[test]
fn engines_report_the_same_array_domain_violation() {
    let mut nb = NetworkBuilder::new();
    let arr = nb.array("arr", vec![0; 3], 0, 12);
    let mut a = AutomatonBuilder::new("overflow");
    let l0 = a.location("l0");
    let l1 = a.location("l1");
    a.edge(Edge::new(l0, l1).with_update(Update::set_elem(arr, 2, 13)));
    nb.automaton(a.finish(l0));
    let network = nb.build().expect("valid network");
    let expected = SimError::ArrayDomainViolation {
        array: arr.raw(),
        index: 2,
        value: 13,
        domain: (0, 12),
    };
    for engine in [EvalEngine::Ast, EvalEngine::Bytecode] {
        let err = Simulator::new(&network)
            .horizon(10)
            .engine(engine)
            .run()
            .unwrap_err();
        assert_eq!(err, expected, "{engine:?}");
    }
}
