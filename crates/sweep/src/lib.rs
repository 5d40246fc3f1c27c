//! # swa-sweep — parametric sensitivity and breakdown analysis
//!
//! The paper's stopwatch-automata model answers one boolean question per
//! configuration. This crate asks the *parametric* question real
//! integrators care about: **how far can this configuration stretch
//! before it breaks?**
//!
//! * [`Axis`] — typed parameter axes: global/per-task WCET scale, period
//!   scale (rate), offset shift. Scaled configurations are validated at
//!   the IMA boundaries with typed errors ([`SweepError`]), never
//!   silently saturated.
//! * [`breakdown_search`] — the certified breakdown-factor search:
//!   geometric bracketing plus bisection under a hard probe budget, with
//!   a post-search monotonicity audit that reports verdict flips as a
//!   bracketing interval instead of a false ±tolerance certificate.
//! * [`SweepEngine`] — the probe engine: every probe runs through the
//!   [`swa_core::Analyzer`], reusing the verdict cache, compositional
//!   per-module keys and the checkpoint ladder, with a `sweep.*`
//!   [`swa_core::Recorder`] counter family measuring the reuse rate.
//! * [`run_sweep`] — the one-call orchestrator shared by the `swa sweep`
//!   CLI and the `POST /sweep` serve endpoint, so both produce
//!   byte-identical canonical reports ([`SweepReport::render_json`]).
//!
//! ```
//! use swa_ima::{
//!     Configuration, CoreRef, CoreType, CoreTypeId, Module, ModuleId, Partition,
//!     SchedulerKind, Task, Window,
//! };
//! use swa_sweep::{run_sweep, Axis, SweepEngine, SweepOptions};
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
//! let mut engine = SweepEngine::new(config, SweepOptions::default())?;
//! let report = run_sweep(&mut engine, Axis::WcetScale, false, |_| {}, || false)?;
//! assert!(report.breakdown.breakdown().is_some());
//! # Ok::<(), swa_sweep::SweepError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::module_name_repetitions)]

pub mod axis;
pub mod breakdown;
pub mod engine;
pub mod error;
pub mod report;

pub use axis::Axis;
pub use breakdown::{
    breakdown_search, BreakdownOutcome, BreakdownResult, ProbeRecord, SearchOptions, SearchStep,
};
pub use engine::{Probe, ProbeSource, SweepEngine, SweepOptions, TaskSensitivity};
pub use error::SweepError;
pub use report::{outcome_label, render_step_json, SweepReport};

/// Progressive events emitted while a sweep runs, in order.
#[derive(Debug, Clone, Copy)]
pub enum SweepEvent<'a> {
    /// One refinement step of the primary breakdown search.
    Step(&'a SearchStep),
    /// One completed per-task sensitivity search.
    Task(&'a TaskSensitivity),
}

/// Runs a complete sweep: the base probe at factor 1.0, the breakdown
/// search along `axis`, and (when `per_task` is set) the per-task WCET
/// sensitivity vector — emitting [`SweepEvent`]s as results arrive.
///
/// The CLI and the serve endpoint both call exactly this function, which
/// is what makes their canonical reports byte-identical.
///
/// # Errors
///
/// [`SweepError::Aborted`] when `should_abort` fires, or any probe error.
pub fn run_sweep(
    engine: &mut SweepEngine,
    axis: Axis,
    per_task: bool,
    mut on_event: impl FnMut(&SweepEvent<'_>),
    should_abort: impl Fn() -> bool,
) -> Result<SweepReport, SweepError> {
    let axis_label = axis.label(engine.base());
    let tolerance = engine.options().search.tolerance;
    let chains = engine.options().chains;
    let base = engine.probe(axis, 1.0)?;
    let breakdown = engine.breakdown(
        axis,
        |step| on_event(&SweepEvent::Step(step)),
        &should_abort,
    )?;
    let per_task = if per_task {
        engine.sensitivity(|t| on_event(&SweepEvent::Task(t)), &should_abort)?
    } else {
        Vec::new()
    };
    Ok(SweepReport {
        axis: axis_label,
        tolerance,
        chains,
        base,
        breakdown,
        per_task,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use swa_ima::{
        Configuration, CoreRef, CoreType, CoreTypeId, Module, ModuleId, Partition, SchedulerKind,
        Task, Window,
    };

    fn config() -> Configuration {
        Configuration {
            core_types: vec![CoreType::new("ct")],
            modules: vec![Module::homogeneous("M1", 1, CoreTypeId::from_raw(0))],
            partitions: vec![Partition::new(
                "P1",
                SchedulerKind::Fpps,
                vec![Task::new("t", 1, vec![10], 50)],
            )],
            binding: vec![CoreRef::new(ModuleId::from_raw(0), 0)],
            windows: vec![vec![Window::new(0, 50)]],
            messages: vec![],
        }
    }

    #[test]
    fn run_sweep_emits_steps_and_renders_deterministically() {
        let mut engine = SweepEngine::new(config(), SweepOptions::default()).unwrap();
        let mut steps = 0usize;
        let report = run_sweep(
            &mut engine,
            Axis::WcetScale,
            true,
            |e| {
                if matches!(e, SweepEvent::Step(_)) {
                    steps += 1;
                }
            },
            || false,
        )
        .unwrap();
        assert_eq!(steps, report.breakdown.records.len());
        assert_eq!(report.per_task.len(), 1);
        assert!(report.base.schedulable);

        // A second engine (cold memo, cold everything) produces the very
        // same canonical JSON — the serve/CLI byte-for-byte contract.
        let mut fresh = SweepEngine::new(config(), SweepOptions::default()).unwrap();
        let again = run_sweep(&mut fresh, Axis::WcetScale, true, |_| {}, || false).unwrap();
        assert_eq!(report.render_json(), again.render_json());
    }
}
