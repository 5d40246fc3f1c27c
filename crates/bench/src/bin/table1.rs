//! Experiment T1 — reproduces the paper's **Table 1**: execution time of
//! Model Checking vs the proposed (simulation) approach for configurations
//! of 10–18 jobs.
//!
//! Usage: `cargo run --release -p swa-bench --bin table1 [-- --full]`
//!
//! Default range is 10–14 jobs (a couple of minutes); `--full` runs the
//! paper's full 10–18 range (the model-checking column grows roughly 2×
//! per job, so expect several minutes — this growth *is* the result).

#![forbid(unsafe_code)]

use swa_bench::{render_table, secs, table1_row};

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let max_jobs = if full { 18 } else { 14 };
    let cap = 200_000_000;

    println!("Table 1 — execution times for various numbers of jobs");
    println!("(paper: MC 0.57 s -> 215.91 s over 10..18 jobs; proposed approach flat ~30 ms)");
    println!();

    let mut rows = Vec::new();
    let mut prev_mc: Option<f64> = None;
    for jobs in 10..=max_jobs {
        let row = table1_row(jobs, cap);
        let growth = prev_mc
            .map(|p| format!("{:.2}x", row.mc_time.as_secs_f64() / p))
            .unwrap_or_else(|| "-".to_string());
        prev_mc = Some(row.mc_time.as_secs_f64());
        let speedup = row.mc_time.as_secs_f64() / row.sim_time.as_secs_f64().max(1e-9);
        rows.push(vec![
            row.jobs.to_string(),
            format!(
                "{}{}",
                secs(row.mc_time),
                if row.mc_truncated { " (cap)" } else { "" }
            ),
            row.mc_states.to_string(),
            growth,
            secs(row.sim_time),
            format!("{speedup:.0}x"),
            if row.agree { "yes" } else { "NO" }.to_string(),
        ]);
        // Print incrementally so long MC runs show progress.
        eprintln!(
            "jobs={:2}  mc={}s ({} states)  sim={}s",
            row.jobs,
            secs(row.mc_time),
            row.mc_states,
            secs(row.sim_time)
        );
    }

    println!(
        "{}",
        render_table(
            &[
                "jobs",
                "model checking (s)",
                "states",
                "mc growth",
                "proposed (s)",
                "speedup",
                "verdicts agree",
            ],
            &rows
        )
    );
}
