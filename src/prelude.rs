//! One-stop imports for the common workflow.
//!
//! ```
//! use swa::prelude::*;
//! ```
//!
//! brings in everything needed to describe a configuration, run the
//! analyzer (single or batch), inspect the verdict, search for a
//! schedulable configuration and exchange XML documents — without knowing
//! which workspace crate each type lives in. Programs with narrower needs
//! can keep importing from the per-crate facades ([`crate::core`],
//! [`crate::ima`], …) instead; the prelude is a convenience, not a
//! boundary.

pub use crate::Error;

// Describing a system: the IMA configuration domain ⟨HW, WL, Bind, Sched⟩.
pub use swa_ima::{
    Configuration, CoreRef, CoreType, CoreTypeId, Message, MessageId, Module, ModuleId, Partition,
    PartitionId, SchedulerKind, Switch, Task, TaskRef, Topology, Window,
};

// Running the analysis: the builder entry point and its results.
pub use swa_core::{
    Analysis, AnalysisReport, Analyzer, BatchMetrics, BatchOutcome, CandidateResult, RunMetrics,
    Verdict, VerdictDiagnosis,
};

// The simulator knob exposed through `Analyzer::tie_break`.
pub use swa_nsa::TieBreak;

// Searching for a schedulable configuration (Sect. 4 integration).
pub use swa_schedtool::{search, DesignProblem, SearchOptions, SearchOutcome};

// Sensitivity sweeps and breakdown analysis. (The sweep's own
// `SearchOptions` lives at `swa::sweep::SearchOptions`, inside
// `SweepOptions::search` — the name here stays the schedtool one.)
pub use swa_sweep::{run_sweep, Axis, BreakdownOutcome, BreakdownResult, SweepEngine, SweepOptions, SweepReport};

// The XML interface (Sect. 4).
pub use swa_xmlio::{
    configuration_from_xml, configuration_to_xml, trace_from_xml, trace_to_xml,
};
