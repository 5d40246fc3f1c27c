//! # swa-bench — experiment runners regenerating the paper's evaluation
//!
//! One module per experiment of `DESIGN.md`'s index; the binaries in
//! `src/bin/` print the same rows/series the paper reports, and the
//! Criterion benches in `benches/` measure the same code under a harness.
//!
//! | id | paper artifact | binary |
//! |----|----------------|--------|
//! | T1 | Table 1 (MC vs proposed approach) | `table1` |
//! | F2 | Fig. 2 observer verification | `verify_components` |
//! | S1 | Sect. 4 scalability (12 500 jobs) | `scalability` |
//! | S2 | Sect. 4 scheduling-tool integration | `config_search` |
//! | A1 | determinism ablation | `determinism` |
//! | A3 | classical RTA vs trace-based analysis | `rta_comparison` |
//!
//! Performance is measured by a separate package, `benchsuite/` at the
//! repository root, declared by `BENCHMARK.json`: one seeded suite,
//! end to end and per layer, over four workloads. `paper-scale` covers
//! the simulator core (S3), `design-loop` checkpointed warm starts,
//! per-module reuse, sweeps and the verdict ladder (S5, C1, S8, S9),
//! `serve-mix` durable storage (S7), and `mc-table1` parallel model
//! checking (A5, `mc.par_speedup`). Their correctness gates are cargo
//! tests; `EXPERIMENTS.md` lists them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::module_name_repetitions)]
#![allow(clippy::cast_precision_loss)]

use std::time::{Duration, Instant};

use swa_core::{
    analyze_configuration, analyze_configuration_with, Analyzer, BatchMetrics, SystemModel,
};
use swa_mc::check_schedulable_mc_capped;
use swa_nsa::TieBreak;
use swa_workload::{config_with_jobs, industrial_config, table1_config, IndustrialSpec};

/// One row of the Table 1 reproduction.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Number of jobs over the hyperperiod.
    pub jobs: usize,
    /// Model-checking wall time.
    pub mc_time: Duration,
    /// States the model checker visited.
    pub mc_states: usize,
    /// Whether exploration was truncated by the state cap.
    pub mc_truncated: bool,
    /// Proposed-approach (simulation pipeline) wall time.
    pub sim_time: Duration,
    /// Whether both engines agreed on the verdict.
    pub agree: bool,
}

/// Runs the Table 1 comparison for one job count.
///
/// # Panics
///
/// Panics if model construction or either engine fails (experiment code).
#[must_use]
pub fn table1_row(jobs: usize, mc_state_cap: usize) -> Table1Row {
    let config = table1_config(jobs);
    let model = SystemModel::build(&config).expect("valid generated config");

    let t0 = Instant::now();
    let mc = check_schedulable_mc_capped(&model, mc_state_cap).expect("mc run");
    let mc_time = t0.elapsed();

    let t1 = Instant::now();
    let report = analyze_configuration(&config).expect("simulation run");
    let sim_time = t1.elapsed();

    Table1Row {
        jobs,
        mc_time,
        mc_states: mc.states,
        mc_truncated: mc.truncated,
        sim_time,
        agree: mc.truncated || mc.schedulable == report.schedulable(),
    }
}

/// One row of the scalability experiment.
#[derive(Debug, Clone)]
pub struct ScalabilityRow {
    /// Requested job count.
    pub target_jobs: u64,
    /// Actual job count of the generated configuration.
    pub jobs: u64,
    /// Number of automata in the instance.
    pub automata: usize,
    /// Instance-construction time (Algorithm 1).
    pub build: Duration,
    /// Interpretation time over one hyperperiod.
    pub simulate: Duration,
    /// Trace extraction + analysis time.
    pub analyze: Duration,
    /// The verdict.
    pub schedulable: bool,
}

impl ScalabilityRow {
    /// Total pipeline time.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.build + self.simulate + self.analyze
    }
}

/// Runs the scalability experiment for one target job count.
///
/// # Panics
///
/// Panics if the generated configuration is invalid or simulation fails.
#[must_use]
pub fn scalability_row(target_jobs: u64, seed: u64) -> ScalabilityRow {
    let config = config_with_jobs(target_jobs, seed);
    let jobs = config.job_count().expect("valid generated config");
    let model = SystemModel::build(&config).expect("valid generated config");
    let automata = model.network().automaton_count();
    let report = analyze_configuration(&config).expect("simulation run");
    ScalabilityRow {
        target_jobs,
        jobs,
        automata,
        build: report.metrics.build,
        simulate: report.metrics.simulate,
        analyze: report.metrics.analyze,
        schedulable: report.schedulable(),
    }
}

/// Result of the determinism ablation on one configuration.
#[derive(Debug, Clone)]
pub struct DeterminismResult {
    /// Number of alternative interleaving orders tried.
    pub orders_tried: usize,
    /// Whether every order produced the same analysis signature.
    pub all_equal: bool,
}

/// Runs the determinism ablation: canonical vs reversed vs `n` random
/// permutations of the interleaving order.
///
/// # Panics
///
/// Panics if a run fails (experiment code).
#[must_use]
pub fn determinism_check(
    config: &swa_ima::Configuration,
    permutations: usize,
    seed: u64,
) -> DeterminismResult {
    let reference = analyze_configuration(config).expect("canonical run");
    let ref_sig = reference.analysis.signature();
    let mut all_equal = true;
    let mut orders = 1;

    let reversed = analyze_configuration_with(config, TieBreak::Reversed).expect("reversed run");
    orders += 1;
    all_equal &= reversed.analysis.signature() == ref_sig;

    let model = SystemModel::build(config).expect("valid config");
    let n_automata = model.network().automaton_count();
    let mut rng = swa_workload::rng::Rng64::seed_from_u64(seed);
    for _ in 0..permutations {
        let mut perm: Vec<u32> =
            (0..u32::try_from(n_automata).expect("automata fit u32")).collect();
        rng.shuffle(&mut perm);
        let run =
            analyze_configuration_with(config, TieBreak::Permuted(perm)).expect("permuted run");
        orders += 1;
        all_equal &= run.analysis.signature() == ref_sig;
    }

    DeterminismResult {
        orders_tried: orders,
        all_equal,
    }
}

/// Result of the batch-engine speedup measurement: the same candidate
/// family checked exhaustively by one worker and by one worker per core.
#[derive(Debug, Clone)]
pub struct BatchSpeedup {
    /// Number of candidate configurations in the family.
    pub candidates: usize,
    /// Worker threads in the parallel run (one per available core).
    pub workers: usize,
    /// Wall time of the one-worker run.
    pub sequential: Duration,
    /// Wall time of the all-cores run.
    pub parallel: Duration,
    /// Aggregated metrics of the parallel run.
    pub metrics: BatchMetrics,
}

impl BatchSpeedup {
    /// Sequential wall time over parallel wall time.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.sequential.as_secs_f64() / self.parallel.as_secs_f64().max(1e-9)
    }

    /// The one-line summary the experiment logs; `>1.8x` is expected on
    /// machines with at least 4 cores.
    #[must_use]
    pub fn log_line(&self) -> String {
        format!(
            "batch speedup: {} candidates, {} worker(s): {} s -> {} s ({:.2}x, \
             {:.1} checks/s, {:.0}% worker utilization)",
            self.candidates,
            self.workers,
            secs(self.sequential),
            secs(self.parallel),
            self.speedup(),
            self.metrics.checks_per_sec(),
            100.0 * self.metrics.utilization(),
        )
    }
}

/// Measures the parallel batch engine against a one-worker run on a
/// generated candidate family (both exhaustive, so both do identical work).
///
/// # Panics
///
/// Panics if a candidate fails to analyze (experiment code).
#[must_use]
pub fn batch_speedup(candidates: usize, seed: u64) -> BatchSpeedup {
    let family: Vec<_> = (0..candidates)
        .map(|i| {
            industrial_config(&IndustrialSpec {
                modules: 1,
                cores_per_module: 1,
                partitions_per_core: 2,
                tasks_per_partition: 4,
                core_utilization: 0.40 + 0.30 * (i as f64 / candidates.max(1) as f64),
                message_fraction: 0.0,
                seed,
                ..IndustrialSpec::default()
            })
        })
        .collect();

    let sequential = Analyzer::configure()
        .parallelism(1)
        .analyze_all(&family)
        .expect("sequential batch");
    let parallel = Analyzer::configure()
        .parallelism(0)
        .analyze_all(&family)
        .expect("parallel batch");
    assert_eq!(
        sequential.winner, parallel.winner,
        "the batch verdict must not depend on parallelism"
    );

    BatchSpeedup {
        candidates,
        workers: parallel.metrics.workers.len(),
        sequential: sequential.metrics.wall,
        parallel: parallel.metrics.wall,
        metrics: parallel.metrics,
    }
}

/// Renders a plain-text table.
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let sep = |out: &mut String| {
        for w in &widths {
            out.push('+');
            out.push_str(&"-".repeat(w + 2));
        }
        out.push_str("+\n");
    };
    sep(&mut out);
    for (i, h) in headers.iter().enumerate() {
        out.push_str(&format!("| {:width$} ", h, width = widths[i]));
    }
    out.push_str("|\n");
    sep(&mut out);
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            out.push_str(&format!("| {:width$} ", cell, width = widths[i]));
        }
        out.push_str("|\n");
    }
    sep(&mut out);
    out
}

/// Formats a duration with three significant decimals in seconds.
#[must_use]
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_row_agrees_for_small_inputs() {
        let row = table1_row(4, 10_000_000);
        assert!(row.agree);
        assert!(!row.mc_truncated);
        assert!(row.mc_states > 0);
        assert!(row.mc_time > row.sim_time);
    }

    #[test]
    fn scalability_row_runs() {
        let row = scalability_row(50, 1);
        assert!(row.jobs > 0);
        assert!(row.automata > 0);
        assert!(row.total() > Duration::ZERO);
    }

    #[test]
    fn determinism_holds_on_small_config() {
        let config = table1_config(5);
        let result = determinism_check(&config, 3, 42);
        assert!(result.all_equal);
        assert_eq!(result.orders_tried, 5);
    }

    #[test]
    fn batch_speedup_measures_identical_work() {
        let s = batch_speedup(8, 3);
        assert_eq!(s.candidates, 8);
        assert!(s.workers >= 1);
        assert!(s.sequential > Duration::ZERO);
        assert!(s.parallel > Duration::ZERO);
        assert_eq!(s.metrics.checks, 8);
        assert!(s.log_line().contains("batch speedup: 8 candidates"));
    }

    #[test]
    fn table_renderer_aligns_columns() {
        let t = render_table(
            &["a", "long header"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert!(t.contains("| a   | long header |"));
        assert!(t.contains("| 333 | 4           |"));
    }
}
