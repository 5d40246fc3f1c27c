//! # swa-schedtool — IMA configuration search
//!
//! Reproduces the paper's Sect. 4 integration: a scheduling tool that
//! searches for a schedulable configuration, using the stopwatch-automata
//! model as its schedulability oracle. On every iteration the tool
//! proposes a candidate (`Bind` by first-fit-decreasing bin packing,
//! `Sched` by per-frame window synthesis), runs the model, and — exactly
//! as in the paper — discards unschedulable candidates and repairs the
//! windows/binding before the next attempt.
//!
//! * [`problem::DesignProblem`] — the open design problem (hardware +
//!   workload, binding and windows to be decided);
//! * [`binpack`] — first-fit-decreasing binding;
//! * [`search()`] — the iterative-repair loop with per-iteration records
//!   (check time, misses), which the S2 experiment reports;
//! * [`hint`] — ranks a `swa-sweep` per-task sensitivity vector into
//!   repair targets (tightest WCET slack first).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::module_name_repetitions)]

pub mod binpack;
pub mod hint;
pub mod problem;
pub mod search;

pub use binpack::{first_fit_decreasing, Packing};
pub use hint::{repair_hint, repair_hints, RepairHint};
pub use problem::DesignProblem;
pub use search::{search, search_with, IterationRecord, SearchOptions, SearchOutcome};
