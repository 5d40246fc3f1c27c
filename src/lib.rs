//! # swa — stopwatch-automata schedulability analysis for modular computer
//! systems
//!
//! A Rust implementation of the approach of *“Stopwatch Automata-Based
//! Model for Efficient Schedulability Analysis of Modular Computer
//! Systems”* (Glonina & Bahmurov): Integrated Modular Avionics (IMA)
//! system operation is modeled as a network of stopwatch automata (NSA);
//! because the model is deterministic under the worst-case assumptions,
//! a *single* simulated run yields the system operation trace and the
//! schedulability verdict — orders of magnitude faster than model checking
//! all interleavings.
//!
//! ## Quickstart
//!
//! [`prelude`] imports everything the common workflow needs; [`Analyzer`]
//! is the entry point for running the analysis:
//!
//! ```
//! use swa::prelude::*;
//!
//! let config = Configuration {
//!     core_types: vec![CoreType::new("generic")],
//!     modules: vec![Module::homogeneous("M1", 1, CoreTypeId::from_raw(0))],
//!     partitions: vec![Partition::new(
//!         "P1",
//!         SchedulerKind::Fpps,
//!         vec![Task::new("t", 1, vec![10], 50)],
//!     )],
//!     binding: vec![CoreRef::new(ModuleId::from_raw(0), 0)],
//!     windows: vec![vec![Window::new(0, 50)]],
//!     messages: vec![],
//! };
//!
//! let report = Analyzer::new(&config).run()?;
//! assert_eq!(report.verdict(), Verdict::Schedulable);
//! # Ok::<(), swa::Error>(())
//! ```
//!
//! To evaluate a *family* of candidate configurations in parallel —
//! stopping as soon as the first (lowest-index) schedulable one is known —
//! use the batch engine behind the same builder:
//!
//! ```
//! use swa::prelude::*;
//! # use swa::workload::{industrial_config, IndustrialSpec};
//! # let candidates: Vec<Configuration> = (0..4)
//! #     .map(|i| industrial_config(&IndustrialSpec {
//! #         core_utilization: 0.9 - 0.1 * f64::from(i),
//! #         ..IndustrialSpec::default()
//! #     }))
//! #     .collect();
//!
//! let outcome = Analyzer::configure()
//!     .parallelism(0) // 0 = one worker per available core
//!     .first_schedulable(&candidates)?;
//! if let Some(report) = outcome.winner_report() {
//!     println!(
//!         "candidate {} is schedulable ({:.0} checks/s)",
//!         outcome.winner.unwrap(),
//!         outcome.metrics.checks_per_sec()
//!     );
//!     assert!(report.schedulable());
//! }
//! # Ok::<(), swa::Error>(())
//! ```
//!
//! The verdict is deterministic: the winner is always the lowest-index
//! schedulable candidate, identical to a sequential scan, at any
//! parallelism.
//!
//! ## Crates
//!
//! This facade re-exports the project's crates for direct access:
//!
//! * [`nsa`] — the NSA formalism and the deterministic simulator;
//! * [`ima`] — the IMA configuration domain (`⟨HW, WL, Bind, Sched⟩`);
//! * [`core`] — the concrete automata (task, FPPS/FPNPS/EDF schedulers,
//!   core scheduler, virtual link), Algorithm 1 instance construction,
//!   trace translation, the schedulability criterion, and the
//!   [`Analyzer`]/batch engine;
//! * [`mc`] — the explicit-state model checker (the paper's baseline) and
//!   observer-based verification (Fig. 2);
//! * [`xmlio`] — the XML configuration/trace interface of Sect. 4;
//! * [`workload`] — synthetic configuration generators for the
//!   experiments (with the in-repo seeded PRNG [`workload::rng`]);
//! * [`schedtool`] — the configuration-search integration of Sect. 4,
//!   running on the batch engine;
//! * [`rta`] — classical response-time analysis for cross-validation;
//! * [`serve`] — a long-running analysis server (`swa serve`) with a
//!   content-addressed verdict cache shared with the search loop;
//! * [`sweep`] — parametric sensitivity and breakdown analysis (`swa
//!   sweep`): how far a configuration's WCETs/periods/offsets can scale
//!   before schedulability breaks, with certified bracketing bounds.
//!
//! Errors from any layer convert into the unified [`enum@Error`] via `?`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod prelude;

mod error;
pub use error::Error;

pub use swa_core as core;
pub use swa_ima as ima;
pub use swa_mc as mc;
pub use swa_nsa as nsa;
pub use swa_rta as rta;
pub use swa_schedtool as schedtool;
pub use swa_serve as serve;
pub use swa_sweep as sweep;
pub use swa_workload as workload;
pub use swa_xmlio as xmlio;

pub use swa_core::{Analysis, AnalysisReport, Analyzer, SystemModel, Verdict, VerdictDiagnosis};

// Compatibility re-exports for pre-`Analyzer` call sites; new code should
// use `Analyzer::new(&config).run()` / `Analyzer::configure()`.
pub use swa_core::{analyze_configuration, analyze_configuration_with};
