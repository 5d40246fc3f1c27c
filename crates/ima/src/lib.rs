//! # swa-ima — Integrated Modular Avionics configuration model
//!
//! The domain model for the `swa` project: IMA system configurations as the
//! tuple `⟨HW, WL, Bind, Sched⟩` of the paper *“Stopwatch Automata-Based
//! Model for Efficient Schedulability Analysis of Modular Computer
//! Systems”*.
//!
//! * **Hardware** — [`hardware::CoreType`], [`hardware::Module`],
//!   [`hardware::Core`]: standardized modules with (possibly heterogeneous,
//!   possibly multicore) processors. WCETs are per core type.
//! * **Workload** — [`task::Task`] (priority, per-type WCET, period,
//!   deadline), [`task::Partition`] (task set + scheduler:
//!   FPPS/FPNPS/EDF), and the data-flow graph of [`message::Message`]s
//!   (virtual links with worst-case memory/network transfer delays).
//! * **Binding** — each partition is mapped to one core.
//! * **Schedule** — each partition owns a set of execution
//!   [`window::Window`]s inside the hyperperiod `L` (the LCM of all task
//!   periods); the window schedule repeats with period `L`.
//!
//! [`config::Configuration::validate`] checks every structural rule (window
//! overlap per core, same-period messages, acyclic data flow, WCET vector
//! arity, …) and reports *all* violations at once.
//!
//! # Examples
//!
//! ```
//! use swa_ima::{
//!     Configuration, CoreRef, CoreType, Module, ModuleId, Partition, SchedulerKind, Task,
//!     Window,
//! };
//!
//! let config = Configuration {
//!     core_types: vec![CoreType::new("ppc")],
//!     modules: vec![Module::homogeneous("M1", 1, swa_ima::CoreTypeId::from_raw(0))],
//!     partitions: vec![Partition::new(
//!         "nav",
//!         SchedulerKind::Fpps,
//!         vec![Task::new("filter", 1, vec![10], 100)],
//!     )],
//!     binding: vec![CoreRef::new(ModuleId::from_raw(0), 0)],
//!     windows: vec![vec![Window::new(0, 100)]],
//!     messages: vec![],
//! };
//! config.validate().map_err(|errs| format!("{errs:?}"))?;
//! assert_eq!(config.hyperperiod(), Some(100));
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::module_name_repetitions)]

pub mod config;
pub mod error;
pub mod hardware;
pub mod ids;
pub mod message;
pub mod task;
pub mod topology;
pub mod util;
pub mod window;

pub use config::Configuration;
pub use error::ConfigError;
pub use hardware::{Core, CoreType, Module};
pub use ids::{CoreRef, CoreTypeId, MessageId, ModuleId, PartitionId, TaskRef};
pub use message::Message;
pub use task::{Partition, SchedulerKind, Task};
pub use topology::{Switch, Topology};
pub use window::Window;
