//! # swa-benchsuite — one seeded suite measuring `swa` end to end and
//! per layer
//!
//! Four workloads, each run in its own process so its peak memory is
//! its own:
//!
//! | workload | what runs | why |
//! |----------|-----------|-----|
//! | `paper-scale` | cold analyses of 12,500-job configurations | the simulator pipeline alone |
//! | `design-loop` | search → validate → sweep over shared stores | the whole resolver chain |
//! | `serve-mix` | two closed-loop clients against the server | HTTP, JSON, single-flight, disk |
//! | `mc-table1` | exhaustive exploration of Table 1's configuration | the model checker alone |
//!
//! Untraced runs report the end-to-end metrics of [`report::END_TO_END`];
//! traced runs ([`trace`]) report [`report::PER_LAYER`], measured from
//! outside the program through its public functions and traits. Outputs
//! are checked against golden digests ([`golden`]) and
//! self-consistency; [`compare`] implements the comparison rule.

#![warn(missing_docs)]

pub mod compare;
pub mod gen;
pub mod golden;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
