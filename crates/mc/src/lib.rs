//! # swa-mc — model checking and observer-based verification
//!
//! Two roles, mirroring the paper:
//!
//! 1. **The baseline** ([`explore`], [`schedcheck`]): an explicit-state
//!    model checker over networks of stopwatch automata that explores *all*
//!    interleavings. Checking schedulability this way is what the paper's
//!    Table 1 compares its single-run simulation against — and where the
//!    exponential blow-up with the number of simultaneous jobs shows.
//! 2. **Verification** ([`monitor`], [`observers`], [`verify`]): observer
//!    automata (André's observer patterns, the paper's Fig. 2) whose bad
//!    locations must be unreachable. Observers run both over simulation
//!    traces (runtime monitoring) and inside the model checker (product
//!    exploration), covering the ARINC 653-derived requirement set of
//!    Sect. 3.
//!
//! ## Example: Fig. 2 verification
//!
//! ```
//! use swa_core::SystemModel;
//! use swa_ima::{
//!     Configuration, CoreRef, CoreType, CoreTypeId, Module, ModuleId, Partition,
//!     SchedulerKind, Task, Window,
//! };
//! use swa_mc::verify::verify_by_simulation;
//!
//! let config = Configuration {
//!     core_types: vec![CoreType::new("generic")],
//!     modules: vec![Module::homogeneous("M1", 1, CoreTypeId::from_raw(0))],
//!     partitions: vec![Partition::new(
//!         "P1",
//!         SchedulerKind::Fpps,
//!         vec![Task::new("a", 2, vec![3], 10), Task::new("b", 1, vec![4], 20)],
//!     )],
//!     binding: vec![CoreRef::new(ModuleId::from_raw(0), 0)],
//!     windows: vec![vec![Window::new(0, 20)]],
//!     messages: vec![],
//! };
//! let model = SystemModel::build(&config)?;
//! let report = verify_by_simulation(&model, &config)?;
//! assert!(report.ok(), "{:?}", report.violations);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::module_name_repetitions)]

pub mod explore;
pub mod monitor;
pub mod observers;
pub mod parallel;
pub mod schedcheck;
pub mod verify;
mod visited;

pub use explore::{ExploreOutcome, Explorer};
pub use monitor::{Monitor, MonitorBank, MonitorBuilder, MonitorState, Pattern};
pub use observers::all_observers;
pub use parallel::{check_schedulable_mc_parallel, reachable_parallel};
pub use schedcheck::{
    check_schedulable_mc, check_schedulable_mc_capped, check_schedulable_mc_witnessed, McVerdict,
};
pub use verify::{
    check_whole_model_requirements, verify_by_model_checking, verify_by_simulation,
    verify_by_simulation_recorded, VerificationReport,
};
