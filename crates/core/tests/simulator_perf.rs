//! Simulator perf gate: the bytecode engine against the AST walker, and
//! the bytecode interpretation rate against a committed floor, both on
//! one seeded 2,529-job model (802 automata). Its eight partitions hold 84
//! tasks each, so the bytecode fast loop answers their scheduler
//! quantifiers from its dominance trees while the AST walker runs the
//! loops.
//!
//! Timing-dependent, so it is ignored by default and meant for release
//! builds:
//!
//! ```console
//! cargo test --release -p swa-core --test simulator_perf -- --ignored
//! ```

use std::time::{Duration, Instant};

use swa_core::SystemModel;
use swa_nsa::{EvalEngine, SimOutcome};
use swa_workload::config_with_jobs;

/// Least simulate-phase speedup of the bytecode engine over the AST
/// walker on the same model (10.4–11.0× measured on a 2-vCPU VM, where
/// the previous fast loop read 5.8–6.1×).
const MIN_SPEEDUP: f64 = 2.5;

/// Least bytecode simulation rate, in steps per second (2.26M–2.41M
/// steps/s measured on a 2-vCPU VM, median 2.31M; the previous fast loop
/// read 1.18M–1.24M on the same VM).
const MIN_STEPS_PER_SEC: f64 = 160_000.0;

#[test]
#[ignore = "timing gate; run in release mode with --ignored"]
fn bytecode_engine_keeps_its_lead_and_its_rate() {
    if cfg!(debug_assertions) {
        panic!("the simulator perf gate measures release builds only");
    }
    let config = config_with_jobs(2500, 1);
    assert_eq!(config.job_count().expect("valid generated config"), 2529);
    // A fresh model per run, as the pipeline builds one per analysis. The
    // bytecode is compiled before the clock starts, as the pipeline times
    // compilation as its own phase; the AST walker's lazy template
    // expansion is part of its timed run, since only that engine needs
    // the expanded automata.
    let run = |engine| -> (SimOutcome, Duration) {
        let model = SystemModel::build(&config).expect("valid generated config");
        if engine == EvalEngine::Bytecode {
            model.network().compiled();
        }
        let started = Instant::now();
        let outcome = model.simulator().engine(engine).run().expect("simulation");
        (outcome, started.elapsed())
    };
    let ((ast, mut ast_time), (bc, mut bc_time)) =
        (run(EvalEngine::Ast), run(EvalEngine::Bytecode));
    assert_eq!(ast, bc, "engines produced different runs");
    // Best of 3 per engine, interleaved so both see the same machine load.
    for _ in 1..3 {
        ast_time = ast_time.min(run(EvalEngine::Ast).1);
        bc_time = bc_time.min(run(EvalEngine::Bytecode).1);
    }
    let bc_steps = bc.steps;

    let speedup = ast_time.as_secs_f64() / bc_time.as_secs_f64().max(1e-9);
    let steps_per_sec = bc_steps as f64 / bc_time.as_secs_f64().max(1e-9);
    println!(
        "simulate: ast {ast_time:?}, bytecode {bc_time:?} ({speedup:.2}x), \
         {steps_per_sec:.0} steps/s over {bc_steps} steps"
    );
    assert!(
        speedup >= MIN_SPEEDUP,
        "bytecode simulate phase only {speedup:.2}x faster than the AST walker \
         (at least {MIN_SPEEDUP}x required)"
    );
    assert!(
        steps_per_sec >= MIN_STEPS_PER_SEC,
        "bytecode engine ran {steps_per_sec:.0} steps/s \
         (at least {MIN_STEPS_PER_SEC} required)"
    );
}
