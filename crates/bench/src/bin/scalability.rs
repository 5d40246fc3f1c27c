//! Experiment S1 — the paper's Sect. 4 scalability claim: *"a model
//! instance construction and interpretation take about several seconds for
//! configurations of the same complexity as industrial avionics systems
//! (about 11 seconds for a configuration with 12 500 jobs)"*.
//!
//! Also covers ablation A2: the construction-vs-interpretation cost split.
//!
//! Usage: `cargo run --release -p swa-bench --bin scalability`

#![forbid(unsafe_code)]

use swa_bench::{batch_speedup, render_table, scalability_row, secs};

fn main() {
    println!("Scalability — pipeline time vs configuration size");
    println!("(paper: ~11 s for 12 500 jobs; several seconds at industrial scale)");
    println!();

    let mut rows = Vec::new();
    for &target in &[500u64, 1_000, 2_500, 5_000, 12_500] {
        let row = scalability_row(target, 1);
        eprintln!(
            "target={:6}  jobs={:6}  total={}s",
            row.target_jobs,
            row.jobs,
            secs(row.total())
        );
        rows.push(vec![
            row.target_jobs.to_string(),
            row.jobs.to_string(),
            row.automata.to_string(),
            secs(row.build),
            secs(row.simulate),
            secs(row.analyze),
            secs(row.total()),
            row.schedulable.to_string(),
        ]);
    }

    println!(
        "{}",
        render_table(
            &[
                "target jobs",
                "jobs",
                "automata",
                "build (s)",
                "interpret (s)",
                "analyze (s)",
                "total (s)",
                "schedulable",
            ],
            &rows
        )
    );

    // Batch throughput: many small candidates across all cores (the
    // configuration-search workload), reported as checks/second.
    println!("Batch-engine throughput — 50-candidate family, 1 worker vs one per core");
    let s = batch_speedup(50, 1);
    println!("{}", s.log_line());
    println!(
        "{}",
        render_table(
            &["workers", "wall (s)", "checks", "checks/s"],
            &[
                vec![
                    "1".into(),
                    secs(s.sequential),
                    s.candidates.to_string(),
                    format!("{:.1}", s.candidates as f64 / s.sequential.as_secs_f64()),
                ],
                vec![
                    s.workers.to_string(),
                    secs(s.parallel),
                    s.metrics.checks.to_string(),
                    format!("{:.1}", s.metrics.checks_per_sec()),
                ],
            ]
        )
    );
}
