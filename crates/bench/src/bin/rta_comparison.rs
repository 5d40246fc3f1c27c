//! Ablation A3 — classical response-time analysis vs the trace-based
//! stopwatch-automata analysis.
//!
//! The paper's motivation (its reference \[4\]) is that analytical methods
//! do not consider all modular-systems features. This experiment measures
//! that: for a partition whose core share shrinks (tighter windows),
//! classical RTA — blind to windows — keeps saying "schedulable" while
//! the trace-based analysis finds the misses.
//!
//! Usage: `cargo run --release -p swa-bench --bin rta_comparison`

#![forbid(unsafe_code)]

use swa_bench::render_table;
use swa_ima::{
    Configuration, CoreRef, CoreType, CoreTypeId, Module, ModuleId, Partition, SchedulerKind, Task,
    Window,
};
use swa_rta::compare;

fn config_with_share(share_percent: i64) -> Configuration {
    // Task set with classical utilization 0.5 (well under the RTA limit).
    let l = 100;
    let window_end = l * share_percent / 100;
    Configuration {
        core_types: vec![CoreType::new("ct")],
        modules: vec![Module::homogeneous("M", 1, CoreTypeId::from_raw(0))],
        partitions: vec![Partition::new(
            "P",
            SchedulerKind::Fpps,
            vec![
                Task::new("fast", 2, vec![10], 50),
                Task::new("slow", 1, vec![30], 100),
            ],
        )],
        binding: vec![CoreRef::new(ModuleId::from_raw(0), 0)],
        windows: vec![vec![Window::new(0, window_end)]],
        messages: vec![],
    }
}

fn main() {
    println!("Classical RTA vs trace-based analysis, as the partition's window share shrinks");
    println!("(task-set utilization is 0.5; classical RTA cannot see windows at all)");
    println!();

    let mut rows = Vec::new();
    for share in [100, 90, 80, 70, 60, 50, 40] {
        let config = config_with_share(share);
        let comparison = compare(&config).expect("comparison runs");
        let rta_ok = comparison.rta[0].schedulable;
        let trace_ok = comparison.trace_schedulable;
        rows.push(vec![
            format!("{share}%"),
            rta_ok.to_string(),
            trace_ok.to_string(),
            if rta_ok && !trace_ok {
                "RTA OPTIMISTIC".to_string()
            } else {
                "agree".to_string()
            },
        ]);
    }

    println!(
        "{}",
        render_table(
            &[
                "window share",
                "classical RTA schedulable",
                "trace-based schedulable",
                "verdict",
            ],
            &rows
        )
    );
    println!(
        "classical RTA's verdict never changes (it assumes the core is always available);\n\
         the trace-based analysis finds the exact share where deadlines start missing —\n\
         the modular-systems feature gap the paper's approach closes."
    );
}
