//! # swa-core — the parametric stopwatch-automata model of modular system
//! operation
//!
//! This crate is the paper's primary contribution, implemented on top of
//! [`swa_nsa`] (the formalism and simulator) and [`swa_ima`] (the
//! configuration domain):
//!
//! 1. **Concrete automata types** ([`templates`]) implementing the general
//!    model's base types: the task automaton **T**, the scheduler automata
//!    **TS** (FPPS, FPNPS, EDF), the core scheduler **CS** and the virtual
//!    link **L** — communicating only through the shared interface of
//!    Fig. 1 (`is_ready`/`is_failed`/`prio`/`deadline`/`is_data_ready`
//!    variables; `exec`/`preempt`/`send`/`receive` per-task channels;
//!    `ready`/`finished`/`wakeup`/`sleep` per-partition channels).
//! 2. **Algorithm 1** ([`instance::SystemModel::build`]): automatic
//!    construction of the NSA instance for a given configuration.
//! 3. **Trace translation** ([`sysevents`]): model synchronization events →
//!    system events `⟨EX/PR/FIN, w_ijk, t⟩`.
//! 4. **Schedulability analysis** ([`analysis`]): the Sect. 2.1 criterion
//!    (every job's executing intervals sum to its WCET) plus response-time
//!    statistics.
//!
//! The one-call entry point is [`analyze_configuration`]:
//!
//! ```
//! use swa_core::analyze_configuration;
//! use swa_ima::{
//!     Configuration, CoreRef, CoreType, Module, ModuleId, Partition, SchedulerKind, Task,
//!     Window,
//! };
//!
//! let config = Configuration {
//!     core_types: vec![CoreType::new("generic")],
//!     modules: vec![Module::homogeneous("M1", 1, swa_ima::CoreTypeId::from_raw(0))],
//!     partitions: vec![Partition::new(
//!         "flight_control",
//!         SchedulerKind::Fpps,
//!         vec![
//!             Task::new("control_law", 2, vec![3], 25),
//!             Task::new("telemetry", 1, vec![5], 50),
//!         ],
//!     )],
//!     binding: vec![CoreRef::new(ModuleId::from_raw(0), 0)],
//!     windows: vec![vec![Window::new(0, 50)]],
//!     messages: vec![],
//! };
//!
//! let report = analyze_configuration(&config)?;
//! assert!(report.schedulable());
//! # Ok::<(), swa_core::PipelineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::module_name_repetitions)]

pub mod analysis;
pub mod analyzer;
pub mod batch;
pub mod cache;
pub mod canon;
pub mod checkpoint;
pub mod chains;
mod delta;
pub mod compose;
pub mod error;
pub mod gantt;
pub mod instance;
pub mod ladder;
pub mod obs;
pub mod pipeline;
pub mod storage;
mod store;
pub mod sysevents;
pub mod templates;

pub use analysis::{
    analyze, analyze_spanning, Analysis, JobOutcome, TaskStats, Verdict, VerdictDiagnosis,
};
pub use analyzer::Analyzer;
pub use batch::{BatchMetrics, BatchOutcome, CandidateResult, WorkerStats};
pub use cache::{CacheStats, CachedVerdict, ShardedVerdictCache, VerdictCache};
pub use canon::{
    canonical_config, canonical_module_configs, canonicalize, canonicalize_modules, CacheKey,
    CanonicalConfig, CanonicalRequest,
};
pub use checkpoint::{Checkpoint, CheckpointStats, CheckpointStore, ShardedCheckpointStore};
pub use chains::{chain_latency, ChainError, ChainInstance, ChainLatency};
pub use compose::{
    compose_analysis, compose_cached, compositional_lookup, decompose, Decomposition,
    FallbackReason, ModulePart,
};
pub use error::{ModelError, PipelineError};
pub use gantt::render_gantt;
pub use instance::{ChannelRole, ModelMap, SystemModel};
pub use ladder::{DecidedBy, LadderDecision, LadderMode, VerdictLadder};
pub use obs::{Fanout, JsonlSink, MetricsRecorder, NoopRecorder, Recorder, SpanStats};
pub use pipeline::{
    analyze_configuration, analyze_configuration_with, analyze_configuration_with_topology,
    AnalysisReport, CompileMetrics, RunMetrics,
};
pub use storage::open_state_dir;
pub use sysevents::{extract_system_trace, SysEvent, SysEventKind, SystemTrace};
