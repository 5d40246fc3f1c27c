//! Experiment S2 — the paper's Sect. 4 scheduling-tool integration: on
//! every search iteration a candidate configuration is generated, handed
//! to the parametric model (via the XML interface, as in the paper), and
//! the returned trace decides schedulability; unschedulable candidates are
//! discarded and repaired.
//!
//! Usage: `cargo run --release -p swa-bench --bin config_search`

#![forbid(unsafe_code)]

use swa_bench::{batch_speedup, render_table, secs};
use swa_core::Analyzer;
use swa_schedtool::{search, DesignProblem, SearchOptions};
use swa_workload::{industrial_config, IndustrialSpec};
use swa_xmlio::{configuration_from_xml, configuration_to_xml};

fn main() {
    println!("Configuration search — schedulability analysis in the loop");
    println!();

    let base = industrial_config(&IndustrialSpec {
        modules: 2,
        cores_per_module: 1,
        partitions_per_core: 3,
        tasks_per_partition: 5,
        core_utilization: 0.6,
        message_fraction: 0.15,
        seed: 7,
        ..IndustrialSpec::default()
    });

    // The paper's toolchain round-trips the configuration through XML on
    // every iteration; we do the same once to exercise the interface.
    let xml = configuration_to_xml(&base);
    let base = configuration_from_xml(&xml).expect("xml roundtrip");
    println!(
        "design problem: {} partitions, {} tasks, {} messages ({} jobs over L={})",
        base.partitions.len(),
        base.tasks().count(),
        base.messages.len(),
        base.job_count().unwrap_or(0),
        base.hyperperiod().unwrap_or(0)
    );
    println!();

    // Candidate checks fan out over the batch engine (`parallelism: 0` =
    // one worker per core); the found configuration is identical at any
    // parallelism.
    let problem = DesignProblem::from_configuration(&base);
    let options = SearchOptions {
        parallelism: 0,
        ..SearchOptions::default()
    };
    let outcome = search(&problem, &options).expect("search runs");

    let rows: Vec<Vec<String>> = outcome
        .iterations
        .iter()
        .map(|it| {
            vec![
                it.index.to_string(),
                it.schedulable.to_string(),
                it.missed_jobs.to_string(),
                it.missing_partitions.len().to_string(),
                secs(it.check_time),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "iteration",
                "schedulable",
                "missed jobs",
                "missing partitions",
                "check time (s)",
            ],
            &rows
        )
    );

    match &outcome.configuration {
        Some(config) => {
            println!(
                "schedulable configuration found after {} iterations \
                 (total check time {} s)",
                outcome.iterations.len(),
                secs(outcome.total_check_time()),
            );
            let verify = Analyzer::new(config).run().expect("verification run");
            println!(
                "re-verified: schedulable = {} ({} jobs analyzed)",
                verify.schedulable(),
                verify.analysis.jobs.len()
            );
            assert!(verify.schedulable());
        }
        None => {
            println!(
                "no schedulable configuration within {} iterations",
                outcome.iterations.len()
            );
        }
    }

    // The raw engine-level speedup on a fixed 50-candidate family: both
    // runs check every candidate, so the only variable is the worker count.
    // Expect >1.8x on machines with at least 4 cores (a single-core host
    // reports ~1.0x).
    println!();
    println!("{}", batch_speedup(50, 7).log_line());
}
