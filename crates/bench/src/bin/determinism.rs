//! Experiment A1 — the determinism ablation: the paper's Sect. 3 theorem
//! says every interpretation of a model instance produces a trace that is
//! equivalent for schedulability analysis. We test it operationally:
//! the same instance is interpreted under the canonical order, the reversed
//! order and many random permutations of the interleaving order, and the
//! analysis signatures (per-job executing intervals, totals, completions)
//! must coincide.
//!
//! Usage: `cargo run --release -p swa-bench --bin determinism`

#![forbid(unsafe_code)]

use swa_bench::determinism_check;
use swa_workload::{industrial_config, table1_config, IndustrialSpec};

fn main() {
    println!("Determinism ablation — analysis equality across interleaving orders");
    println!();

    let mut all_ok = true;

    for jobs in [5, 10, 15] {
        let config = table1_config(jobs);
        let result = determinism_check(&config, 10, 42);
        println!(
            "table1 config with {jobs:2} jobs: {} orders tried, equal = {}",
            result.orders_tried, result.all_equal
        );
        all_ok &= result.all_equal;
    }

    for seed in 0..5 {
        let config = industrial_config(&IndustrialSpec {
            tasks_per_partition: 4,
            message_fraction: 0.3,
            seed,
            ..IndustrialSpec::default()
        });
        let result = determinism_check(&config, 10, seed);
        println!(
            "industrial config (seed {seed}): {} orders tried, equal = {}",
            result.orders_tried, result.all_equal
        );
        all_ok &= result.all_equal;
    }

    println!();
    println!(
        "verdict: {}",
        if all_ok {
            "all interleaving orders yield the same analysis (theorem reproduced)"
        } else {
            "DIVERGENCE FOUND — determinism violated!"
        }
    );
    assert!(all_ok, "determinism violated");
}
