//! # swa-workload — synthetic IMA configuration generators
//!
//! The paper evaluates on industrial avionics configurations that are not
//! public; this crate generates structurally comparable synthetic ones
//! (see `DESIGN.md`, *Substitutions*):
//!
//! * [`uunifast()`] — task utilizations with a controlled total (Bini &
//!   Buttazzo's UUniFast, the field-standard sampler);
//! * [`windows`] — per-frame window-schedule synthesis;
//! * [`generator`] — whole configurations: the deterministic
//!   [`generator::table1_config`] family (Table 1), and
//!   [`generator::industrial_config`] /
//!   [`generator::config_with_jobs`] for the scalability experiment
//!   (12 500-job configurations).
//!
//! Generation is deterministic given a seed, so every experiment is
//! reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::module_name_repetitions)]

pub mod generator;
pub mod rng;
pub mod uunifast;
pub mod windows;

pub use generator::{
    config_with_jobs, industrial_config, spec_with_jobs, table1_config, IndustrialSpec,
};
pub use rng::Rng64;
pub use uunifast::uunifast;
pub use windows::{synthesize_windows, PartitionDemand};
