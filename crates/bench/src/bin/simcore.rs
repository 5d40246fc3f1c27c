//! Experiment S3 — simulator-core performance: compiled-bytecode guard
//! evaluation vs the AST walker, and the event-wheel interpretation rate,
//! emitting `BENCH_simulation.json`.
//!
//! Usage:
//!
//! ```console
//! cargo run --release -p swa-bench --bin simcore                # full run
//! cargo run --release -p swa-bench --bin simcore -- --smoke    # CI check
//! cargo run --release -p swa-bench --bin simcore -- --jobs 2500 --out b.json
//! cargo run --release -p swa-bench --bin simcore -- --metrics-out m.json
//! ```
//!
//! The full run measures the 12 500-job configuration of the paper's
//! Sect. 4 scalability claim. `--smoke` runs a small configuration, checks
//! that both engines (and every compiled guard) agree, and exits non-zero
//! on any divergence — the CI gate for the bytecode layer.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use swa_core::{Analyzer, EvalEngine, MetricsRecorder, RunMetrics, SystemModel};
use swa_nsa::state::EnvView;
use swa_nsa::State;
use swa_workload::config_with_jobs;

/// A domain-respecting "busy" state: every scalar and array cell clamped
/// to 1. Job-ready and data-ready flags come up, so the scheduler-dispatch
/// quantifiers actually iterate instead of short-circuiting on the first
/// conjunct — the shape guard evaluation has mid-simulation.
fn busy_state(network: &swa_nsa::Network) -> State {
    let mut state = State::initial(network);
    for (slot, decl) in network.vars().iter().enumerate() {
        state.vars[slot] = 1i64.clamp(decl.min, decl.max);
    }
    for (ai, decl) in network.arrays().iter().enumerate() {
        let id = swa_nsa::ArrayId::from_raw(u32::try_from(ai).expect("fits"));
        let base = network.array_offset(id);
        for k in 0..network.array_len(id) {
            state.vars[base + k] = 1i64.clamp(decl.min, decl.max);
        }
    }
    state
}

/// Guard-evaluation micro-benchmark over every edge guard of the model
/// against one state: `(ast_evals_per_sec, bytecode_evals_per_sec,
/// guards)`. Asserts per-guard AST/bytecode agreement first.
fn guard_eval_bench(model: &SystemModel, state: &State, rounds: usize) -> (f64, f64, usize) {
    let network = model.network();
    let compiled = network.compiled();
    let view = EnvView { network, state };

    let mut pairs = Vec::new();
    for (ai, a) in network.automata().iter().enumerate() {
        for (ei, e) in a.edges.iter().enumerate() {
            let aid = swa_nsa::AutomatonId::from_raw(u32::try_from(ai).expect("fits"));
            let eid = swa_nsa::EdgeId::from_raw(u32::try_from(ei).expect("fits"));
            match (e.guard.holds(&view, &view), compiled.guard(aid, eid).holds(state)) {
                (Ok(ast), Ok(bc)) => {
                    assert_eq!(ast, bc, "guard divergence on automaton {ai} edge {ei}");
                    pairs.push((aid, eid));
                }
                // Guards may legitimately fail to evaluate in a synthetic
                // state; both engines must fail identically, and the guard
                // is excluded from the timing loops.
                (Err(ea), Err(eb)) => {
                    assert_eq!(
                        format!("{ea:?}"),
                        format!("{eb:?}"),
                        "error divergence on automaton {ai} edge {ei}"
                    );
                }
                (ast, bc) => {
                    panic!("engine divergence on automaton {ai} edge {ei}: {ast:?} vs {bc:?}")
                }
            }
        }
    }

    let evals = rounds * pairs.len();
    let t0 = Instant::now();
    for _ in 0..rounds {
        for &(aid, eid) in &pairs {
            let g = &network.automaton(aid).edge(eid).guard;
            black_box(g.holds(&view, &view).expect("ast guard eval"));
        }
    }
    let ast_time = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    for _ in 0..rounds {
        for &(aid, eid) in &pairs {
            black_box(compiled.guard(aid, eid).holds(state).expect("bytecode guard eval"));
        }
    }
    let bc_time = t1.elapsed().as_secs_f64();

    (
        evals as f64 / ast_time.max(1e-9),
        evals as f64 / bc_time.max(1e-9),
        pairs.len(),
    )
}

struct EngineRun {
    metrics: RunMetrics,
    /// The unified observability recorder the run emitted into; the JSON
    /// artifact is rendered from this, not from the snapshot metrics.
    recorder: Arc<MetricsRecorder>,
    signature: Vec<swa_core::analysis::JobSignature>,
    schedulable: bool,
}

fn run_engine(config: &swa_ima::Configuration, engine: EvalEngine, repeats: usize) -> EngineRun {
    // Best-of-N on the simulate phase to damp scheduler noise in the
    // checked-in artifact.
    let mut best: Option<EngineRun> = None;
    for _ in 0..repeats.max(1) {
        let recorder = Arc::new(MetricsRecorder::new());
        let report = Analyzer::new(config)
            .engine(engine)
            .recorder(recorder.clone())
            .run()
            .expect("pipeline run");
        let run = EngineRun {
            metrics: report.metrics,
            recorder,
            signature: report.analysis.signature(),
            schedulable: report.schedulable(),
        };
        if let Some(b) = &best {
            assert_eq!(b.signature, run.signature, "non-deterministic analysis");
            if run.metrics.simulate < b.metrics.simulate {
                best = Some(run);
            }
        } else {
            best = Some(run);
        }
    }
    best.expect("at least one repeat")
}

fn steps_per_sec(m: &RunMetrics) -> f64 {
    m.steps as f64 / m.simulate.as_secs_f64().max(1e-9)
}

fn engine_json(label: &str, r: &EngineRun) -> String {
    // Every value is read back from the unified recorder — the same layer
    // the CLI's --metrics-out uses — so the checked-in artifact and the
    // live metrics can never drift apart.
    let rec = &r.recorder;
    let secs = |name: &str| rec.span_total(name).as_secs_f64();
    format!(
        "  \"{label}\": {{\n    \"build_s\": {:.6},\n    \"compile_s\": {:.6},\n    \
         \"compile_programs\": {},\n    \"compile_ops\": {},\n    \"simulate_s\": {:.6},\n    \
         \"analyze_s\": {:.6},\n    \"steps\": {},\n    \"steps_per_sec\": {:.1},\n    \
         \"nsa_events\": {},\n    \"wheel_wakeups\": {}\n  }}",
        secs("build"),
        secs("compile"),
        rec.counter_value("compile.programs"),
        rec.counter_value("compile.ops"),
        secs("simulate"),
        secs("analyze"),
        rec.counter_value("sim.steps"),
        steps_per_sec(&r.metrics),
        rec.counter_value("sim.events"),
        rec.counter_value("sim.wheel_wakeups"),
    )
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let default_jobs = if smoke { 300 } else { 12_500 };
    let jobs: u64 = flag_value(&args, "--jobs")
        .map(|v| v.parse().expect("--jobs expects an integer"))
        .unwrap_or(default_jobs);
    let rounds = if smoke { 200 } else { 2_000 };

    eprintln!("simcore: generating a ~{jobs}-job configuration");
    let config = config_with_jobs(jobs, 1);
    let actual_jobs = config.job_count().expect("valid generated config");
    let model = SystemModel::build(&config).expect("valid generated config");
    let automata = model.network().automaton_count();
    eprintln!("simcore: {actual_jobs} jobs, {automata} automata");

    let initial = State::initial(model.network());
    let (i_ast, i_bc, i_guards) = guard_eval_bench(&model, &initial, rounds);
    let busy = busy_state(model.network());
    let (b_ast, b_bc, b_guards) = guard_eval_bench(&model, &busy, rounds);
    let initial_speedup = i_bc / i_ast.max(1e-9);
    let busy_speedup = b_bc / b_ast.max(1e-9);
    eprintln!(
        "simcore: guard eval, initial state ({i_guards} guards x {rounds}): \
         ast {i_ast:.0}/s, bytecode {i_bc:.0}/s ({initial_speedup:.2}x)"
    );
    eprintln!(
        "simcore: guard eval, busy state ({b_guards} guards x {rounds}): \
         ast {b_ast:.0}/s, bytecode {b_bc:.0}/s ({busy_speedup:.2}x)"
    );

    let repeats = if smoke { 1 } else { 2 };
    let ast = run_engine(&config, EvalEngine::Ast, repeats);
    let bytecode = run_engine(&config, EvalEngine::Bytecode, repeats);
    assert_eq!(
        ast.signature, bytecode.signature,
        "AST and bytecode engines produced different analyses"
    );
    assert_eq!(ast.schedulable, bytecode.schedulable);
    let simulate_speedup =
        ast.metrics.simulate.as_secs_f64() / bytecode.metrics.simulate.as_secs_f64().max(1e-9);
    eprintln!(
        "simcore: simulate phase: ast {:.3}s, bytecode {:.3}s ({simulate_speedup:.2}x), \
         {:.0} steps/s",
        ast.metrics.simulate.as_secs_f64(),
        bytecode.metrics.simulate.as_secs_f64(),
        steps_per_sec(&bytecode.metrics),
    );

    let json = format!(
        "{{\n  \"version\": 1,\n  \"jobs\": {actual_jobs},\n  \"automata\": {automata},\n  \"guard_eval\": {{\n    \
         \"rounds\": {rounds},\n    \"initial_state\": {{\n      \"guards\": {i_guards},\n      \
         \"ast_per_sec\": {i_ast:.1},\n      \"bytecode_per_sec\": {i_bc:.1},\n      \
         \"speedup\": {initial_speedup:.3}\n    }},\n    \"busy_state\": {{\n      \
         \"guards\": {b_guards},\n      \"ast_per_sec\": {b_ast:.1},\n      \
         \"bytecode_per_sec\": {b_bc:.1},\n      \"speedup\": {busy_speedup:.3}\n    }}\n  }},\n\
         {},\n{},\n  \"simulate_speedup\": {simulate_speedup:.3},\n  \"agree\": true\n}}\n",
        engine_json("ast", &ast),
        engine_json("bytecode", &bytecode),
    );

    if let Some(path) = flag_value(&args, "--metrics-out") {
        // Raw recorder dumps (counters + span totals across all repeats),
        // one top-level key per engine.
        let combined = format!(
            "{{\n\"ast\": {},\n\"bytecode\": {}\n}}\n",
            ast.recorder.to_json().trim_end(),
            bytecode.recorder.to_json().trim_end(),
        );
        std::fs::write(path, combined).expect("write metrics json");
        eprintln!("simcore: wrote {path}");
    }

    if smoke {
        // The smoke run is the CI agreement gate; it prints the JSON but
        // does not overwrite the checked-in benchmark artifact.
        if let Some(path) = flag_value(&args, "--out") {
            if std::path::Path::new(path).exists() {
                eprintln!(
                    "simcore: --smoke refuses to overwrite existing {path} \
                     (baseline protection; delete it first for a fresh capture)"
                );
                std::process::exit(1);
            }
            std::fs::write(path, &json).expect("write json");
        }
        println!("{json}");
        println!("simcore smoke: ok ({i_guards} guards, {actual_jobs} jobs, engines agree)");
        return;
    }

    let out = flag_value(&args, "--out").unwrap_or("BENCH_simulation.json");
    std::fs::write(out, &json).expect("write json");
    println!("{json}");
    println!("simcore: wrote {out}");
}
