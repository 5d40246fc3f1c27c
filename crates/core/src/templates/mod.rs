//! Concrete automata types implementing the paper's general NSA.
//!
//! Each submodule is one parametric stopwatch automaton (the paper's
//! *concrete automata types*, Sect. 2.3). The task, scheduler and link
//! types are network templates: a skeleton built once per *shape* (what
//! changes its structure, e.g. a task's input count or a scheduler's
//! policy and task count) whose clocks, variables and channels are local
//! ids and whose per-instance constants are parameters, plus a
//! [`swa_nsa::Frame`] per instance that binds them:
//!
//! * [`task`] — the **T** base type: job release, data wait, execution with
//!   a stopwatch, preemption, completion, deadline kill, data send;
//! * [`sched`] — the **TS** base type in three implementations (FPPS,
//!   FPNPS, EDF);
//! * [`cs`] — the **CS** base type: the static window schedule of one core
//!   (one automaton per core, since its structure *is* the schedule);
//! * [`link`] — the **L** base type: a virtual link with worst-case
//!   transfer delay.
//!
//! The templates communicate only through the shared interface carried by
//! [`Ctx`]: arrays `is_ready`, `is_failed`, `prio`, `abs_deadline`,
//! `is_data_ready` and the channel families `exec`, `preempt`, `send`,
//! `receive` (per task) and `ready`, `finished`, `wakeup`, `sleep` (per
//! partition) — exactly the interface of the paper's general model (Fig. 1).

pub mod cs;
pub mod link;
pub mod sched;
pub mod task;

use swa_nsa::{ArrayId, ChannelId, IntExpr, ParamId, VarId};

/// Shared interface of the general model: ids of all arrays and channels,
/// plus per-partition base offsets into the task-indexed arrays.
///
/// Built by [`crate::instance::SystemModel::build`]; passed to every
/// template.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Hyperperiod `L`.
    pub hyperperiod: i64,
    /// `is_ready[g] = 1` while task `g`'s current job is ready or running.
    pub is_ready: ArrayId,
    /// `is_failed[g] = 1` once any job of task `g` missed its deadline.
    pub is_failed: ArrayId,
    /// Static priorities per task (read by FPPS/FPNPS schedulers).
    pub prio: ArrayId,
    /// Absolute deadline of the current job per task (read by EDF).
    pub abs_deadline: ArrayId,
    /// Number of releases performed per task.
    pub nrel: ArrayId,
    /// `is_data_ready[h] = 1` while message `h`'s current instance is
    /// delivered but not yet consumed.
    pub is_data_ready: ArrayId,
    /// `vl_overrun = 1` if any virtual link received a send while busy.
    pub vl_overrun: VarId,
    /// Per-task `exec` channels (binary, TS → T), indexed globally.
    pub exec_ch: Vec<ChannelId>,
    /// Per-task `preempt` channels (binary, TS → T), indexed globally.
    pub preempt_ch: Vec<ChannelId>,
    /// Per-task `send` channels (broadcast, T → L), indexed globally.
    pub send_ch: Vec<ChannelId>,
    /// Per-task `receive` channels (broadcast, L → T), indexed globally.
    pub receive_ch: Vec<ChannelId>,
    /// Per-partition `ready` channels (binary, T → TS).
    pub ready_ch: Vec<ChannelId>,
    /// Per-partition `finished` channels (binary, T → TS).
    pub finished_ch: Vec<ChannelId>,
    /// Per-partition `wakeup` channels (binary, CS → TS).
    pub wakeup_ch: Vec<ChannelId>,
    /// Per-partition `sleep` channels (binary, CS → TS).
    pub sleep_ch: Vec<ChannelId>,
    /// First global task index of each partition.
    pub partition_base: Vec<usize>,
}

/// Template parameter `i` as an expression.
fn param(i: u32) -> IntExpr {
    IntExpr::param(ParamId::from_raw(i))
}
