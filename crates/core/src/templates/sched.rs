//! Task-scheduler automata (base type **TS** of the paper): FPPS, FPNPS,
//! EDF, plus a round-robin implementation extending the components library
//! as the paper's future work proposes.
//!
//! All three share one skeleton:
//!
//! ```text
//!  asleep ──wakeup?──► decide(committed) ──exec_k!──► running
//!    ▲  ▲                ▲ │ preempt_k! (loops)          │
//!    │  └─ready?/finished? │ └──(idle)──► idle ──ready?──┘
//!    │                     │               │
//!    └──────sleep?──(kick: preempt_k!)─────┘
//! ```
//!
//! The *selection* logic lives entirely in the `decide` guards, expressed
//! with bounded quantifiers over the shared arrays — exactly how UPPAAL
//! models of schedulers are written, and what lets the same automaton run
//! under the simulator, the model checker and the observers.

use swa_ima::SchedulerKind;
use swa_nsa::{
    Automaton, AutomatonBuilder, ChannelId, ClockAtom, ClockId, CmpOp, Edge, Frame, Guard, IntExpr,
    Invariant, Pred, Sync, Update, VarId,
};

use super::{param, Ctx};

/// Template parameters, by [`swa_nsa::ParamId`] index: the partition's
/// first global task index, the round-robin quantum, then the global
/// index of each of the partition's tasks.
const BASE: u32 = 0;
const QUANTUM: u32 = 1;
const TASK0: u32 = 2;

/// Template-local variables, clock and channels, in
/// [`SchedParams::frame`] order. The per-task channels follow the four
/// per-partition ones: `preempt` for tasks `0..k`, then `exec`.
const RUNNING: VarId = VarId::from_raw(0);
const LAST: VarId = VarId::from_raw(1);
const QUANTUM_CLOCK: ClockId = ClockId::from_raw(0);
const WAKEUP: ChannelId = ChannelId::from_raw(0);
const READY: ChannelId = ChannelId::from_raw(1);
const FINISHED: ChannelId = ChannelId::from_raw(2);
const SLEEP: ChannelId = ChannelId::from_raw(3);

/// What changes a scheduler automaton's structure: the policy (a
/// round-robin quantum is a parameter, so it is zeroed here) and the
/// number of tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SchedShape {
    /// The scheduling policy.
    pub kind: SchedulerKind,
    /// Number of tasks in the partition.
    pub k_tasks: usize,
}

impl SchedShape {
    fn preempt(self, k: usize) -> ChannelId {
        ChannelId::from_raw(u32::try_from(4 + k).expect("task count fits u32"))
    }

    fn exec(self, k: usize) -> ChannelId {
        self.preempt(self.k_tasks + k)
    }
}

/// Per-instance parameters of a scheduler automaton.
#[derive(Debug, Clone)]
pub struct SchedParams {
    /// Partition index `j`.
    pub j: usize,
    /// Number of tasks in the partition.
    pub k_tasks: usize,
    /// The scheduling policy.
    pub kind: SchedulerKind,
    /// TS-local variable holding the running task (0 = none, else `k + 1`).
    pub running: VarId,
    /// Round-robin only: TS-local variable holding the last-served task
    /// index, and the quantum clock.
    pub rr: Option<(VarId, ClockId)>,
}

impl SchedParams {
    /// The template this scheduler instantiates.
    #[must_use]
    pub fn shape(&self) -> SchedShape {
        let kind = match self.kind {
            SchedulerKind::RoundRobin { .. } => SchedulerKind::RoundRobin { quantum: 0 },
            kind => kind,
        };
        SchedShape {
            kind,
            k_tasks: self.k_tasks,
        }
    }

    /// The frame binding [`sched_template`] to this scheduler.
    #[must_use]
    pub fn frame(&self, name: String, ctx: &Ctx) -> Frame {
        let base = ctx.partition_base[self.j];
        let quantum = match self.kind {
            SchedulerKind::RoundRobin { quantum } => quantum,
            _ => 0,
        };
        let tasks = base..base + self.k_tasks;
        let mut params = vec![i64::try_from(base).expect("base fits i64"), quantum];
        params.extend(
            tasks
                .clone()
                .map(|g| i64::try_from(g).expect("task index fits i64")),
        );
        let (vars, clocks) = match self.rr {
            Some((last, q_clock)) => (vec![self.running, last], vec![q_clock]),
            None => (vec![self.running], Vec::new()),
        };
        let mut channels = vec![
            ctx.wakeup_ch[self.j],
            ctx.ready_ch[self.j],
            ctx.finished_ch[self.j],
            ctx.sleep_ch[self.j],
        ];
        channels.extend(tasks.clone().map(|g| ctx.preempt_ch[g]));
        channels.extend(tasks.map(|g| ctx.exec_ch[g]));
        Frame {
            name,
            params,
            clocks,
            vars,
            channels,
        }
    }
}

/// The partition's first global task index.
fn base() -> IntExpr {
    param(BASE)
}

fn lit(i: usize) -> i64 {
    i64::try_from(i).expect("task index fits i64")
}

/// `is_ready[base + m] == 1` with `m` the innermost bound variable.
fn ready_bound(ctx: &Ctx) -> Pred {
    IntExpr::elem(ctx.is_ready, IntExpr::bound(0) + base()).eq(1)
}

/// "Candidate `m` (bound var) does NOT beat task `k`" for the given policy.
///
/// FPPS/FPNPS: `m` beats `k` iff `prio[m] > prio[k]`, ties by lower index.
/// EDF: `m` beats `k` iff `dl[m] < dl[k]`, ties by lower index.
fn not_beats(ctx: &Ctx, kind: SchedulerKind, k: IntExpr) -> Pred {
    let m_idx = IntExpr::bound(0) + base();
    let k_idx = base() + k.clone();
    match kind {
        SchedulerKind::Fpps | SchedulerKind::Fpnps => {
            let pm = IntExpr::elem(ctx.prio, m_idx);
            let pk = IntExpr::elem(ctx.prio, k_idx);
            pm.clone()
                .lt(pk.clone())
                .or(pm.eq(pk).and(IntExpr::bound(0).ge(k)))
        }
        SchedulerKind::Edf => {
            let dm = IntExpr::elem(ctx.abs_deadline, m_idx);
            let dk = IntExpr::elem(ctx.abs_deadline, k_idx);
            dm.clone()
                .gt(dk.clone())
                .or(dm.eq(dk).and(IntExpr::bound(0).ge(k)))
        }
        SchedulerKind::RoundRobin { .. } => {
            unreachable!("round-robin uses circular-distance selection")
        }
    }
}

/// "Candidate `m` (bound var) DOES beat task `k`" for the given policy.
fn beats(ctx: &Ctx, kind: SchedulerKind, k: IntExpr) -> Pred {
    let m_idx = IntExpr::bound(0) + base();
    let k_idx = base() + k.clone();
    match kind {
        SchedulerKind::Fpps | SchedulerKind::Fpnps => {
            let pm = IntExpr::elem(ctx.prio, m_idx);
            let pk = IntExpr::elem(ctx.prio, k_idx);
            pm.clone()
                .gt(pk.clone())
                .or(pm.eq(pk).and(IntExpr::bound(0).lt(k)))
        }
        SchedulerKind::Edf => {
            let dm = IntExpr::elem(ctx.abs_deadline, m_idx);
            let dk = IntExpr::elem(ctx.abs_deadline, k_idx);
            dm.clone()
                .lt(dk.clone())
                .or(dm.eq(dk).and(IntExpr::bound(0).lt(k)))
        }
        SchedulerKind::RoundRobin { .. } => {
            unreachable!("round-robin uses circular-distance selection")
        }
    }
}

/// `is_ready[g] == 1` for the partition's `k`-th task.
fn task_ready(ctx: &Ctx, k: usize) -> Pred {
    let p = TASK0 + u32::try_from(k).expect("task count fits u32");
    IntExpr::elem(ctx.is_ready, param(p)).eq(1)
}

/// "Task `k` is ready and no ready task beats it" — the unique dispatch
/// winner under the policy.
fn is_top(ctx: &Ctx, s: SchedShape, k: usize) -> Pred {
    task_ready(ctx, k).and(Pred::forall(
        0,
        lit(s.k_tasks),
        ready_bound(ctx)
            .not()
            .or(not_beats(ctx, s.kind, IntExpr::lit(lit(k)))),
    ))
}

/// "Some ready task beats `k_expr`."
fn someone_beats(ctx: &Ctx, s: SchedShape, k: IntExpr) -> Pred {
    Pred::exists(
        0,
        lit(s.k_tasks),
        ready_bound(ctx).and(beats(ctx, s.kind, k)),
    )
}

/// Reconciliation after a `finished` synchronization: the sender task has
/// already cleared its `is_ready` slot, so "the running slot is no longer
/// ready" identifies the running job as the finisher.
fn reconcile(ctx: &Ctx) -> Update {
    Update::If {
        cond: IntExpr::var(RUNNING).gt(0).and(
            IntExpr::elem(
                ctx.is_ready,
                base() + IntExpr::var(RUNNING) - IntExpr::lit(1),
            )
            .eq(0),
        ),
        then: vec![Update::set(RUNNING, 0)],
        otherwise: vec![],
    }
}

/// The edges every policy shares out of `asleep` and `idle`.
fn wakeup_and_idle_edges(
    ctx: &Ctx,
    b: &mut AutomatonBuilder,
    [asleep, idle, decide]: [swa_nsa::LocationId; 3],
) {
    b.edge(
        Edge::new(asleep, decide)
            .with_sync(Sync::Recv(WAKEUP))
            .with_label("wakeup"),
    );
    b.edge(
        Edge::new(asleep, asleep)
            .with_sync(Sync::Recv(READY))
            .with_label("note_ready"),
    );
    b.edge(
        Edge::new(asleep, asleep)
            .with_sync(Sync::Recv(FINISHED))
            .with_label("note_finished"),
    );
    b.edge(
        Edge::new(idle, decide)
            .with_sync(Sync::Recv(READY))
            .with_label("new_ready"),
    );
    b.edge(
        Edge::new(idle, asleep)
            .with_sync(Sync::Recv(SLEEP))
            .with_label("window_end"),
    );
    b.edge(
        Edge::new(idle, decide)
            .with_sync(Sync::Recv(FINISHED))
            .with_update(reconcile(ctx))
            .with_label("finished_while_idle"),
    );
}

/// "Preempt task `k` (running) and clear `running`", the kick edges'
/// guard, sync and update.
fn kick(s: SchedShape, from: swa_nsa::LocationId, to: swa_nsa::LocationId, k: usize) -> Edge {
    Edge::new(from, to)
        .with_guard(Guard::when(IntExpr::var(RUNNING).eq(lit(k) + 1)))
        .with_sync(Sync::Send(s.preempt(k)))
        .with_update(Update::set(RUNNING, 0))
}

/// "Nothing runs and nothing is ready."
fn idle_guard(ctx: &Ctx, s: SchedShape) -> Guard {
    Guard::when(IntExpr::var(RUNNING).eq(0).and(Pred::forall(
        0,
        lit(s.k_tasks),
        ready_bound(ctx).not(),
    )))
}

/// Builds the scheduler template of one shape.
#[must_use]
pub fn sched_template(ctx: &Ctx, s: SchedShape) -> Automaton {
    if matches!(s.kind, SchedulerKind::RoundRobin { .. }) {
        return rr_template(ctx, s);
    }
    let preemptive = matches!(s.kind, SchedulerKind::Fpps | SchedulerKind::Edf);

    let mut b = AutomatonBuilder::new("sched");
    let asleep = b.location("asleep");
    let idle = b.location("idle");
    let running = b.location("running");
    let decide = b.committed_location("decide");
    let sleep_kick = b.committed_location("sleep_kick");

    wakeup_and_idle_edges(ctx, &mut b, [asleep, idle, decide]);

    // running.
    b.edge(
        Edge::new(running, decide)
            .with_sync(Sync::Recv(READY))
            .with_label("new_ready"),
    );
    b.edge(
        Edge::new(running, decide)
            .with_sync(Sync::Recv(FINISHED))
            .with_update(reconcile(ctx))
            .with_label("job_finished"),
    );
    b.edge(
        Edge::new(running, sleep_kick)
            .with_sync(Sync::Recv(SLEEP))
            .with_label("window_end"),
    );

    // sleep_kick: preempt whichever task is running, then sleep.
    for k in 0..s.k_tasks {
        b.edge(kick(s, sleep_kick, asleep, k).with_label(format!("kick_{k}")));
    }

    // decide: preempt (preemptive policies), dispatch, continue, or idle.
    if preemptive {
        for k in 0..s.k_tasks {
            b.edge(
                Edge::new(decide, decide)
                    .with_guard(Guard::when(
                        IntExpr::var(RUNNING).eq(lit(k) + 1).and(someone_beats(
                            ctx,
                            s,
                            IntExpr::lit(lit(k)),
                        )),
                    ))
                    .with_sync(Sync::Send(s.preempt(k)))
                    .with_update(Update::set(RUNNING, 0))
                    .with_label(format!("preempt_{k}")),
            );
        }
    }
    for k in 0..s.k_tasks {
        b.edge(
            Edge::new(decide, running)
                .with_guard(Guard::when(
                    IntExpr::var(RUNNING).eq(0).and(is_top(ctx, s, k)),
                ))
                .with_sync(Sync::Send(s.exec(k)))
                .with_update(Update::set(RUNNING, lit(k) + 1))
                .with_label(format!("dispatch_{k}")),
        );
    }
    let continue_guard = if preemptive {
        IntExpr::var(RUNNING)
            .gt(0)
            .and(someone_beats(ctx, s, IntExpr::var(RUNNING) - IntExpr::lit(1)).not())
    } else {
        IntExpr::var(RUNNING).gt(0)
    };
    b.edge(
        Edge::new(decide, running)
            .with_guard(Guard::when(continue_guard))
            .with_label("continue"),
    );
    b.edge(
        Edge::new(decide, idle)
            .with_guard(idle_guard(ctx, s))
            .with_label("go_idle"),
    );

    b.finish(asleep)
}

/// The round-robin scheduler template.
///
/// Ready jobs are served in circular index order starting after the
/// last-served task; the running job is preempted when the TS-owned
/// quantum clock reaches the quantum (a timed decision the other policies
/// don't need) and re-queued behind the other ready jobs. Arrivals do not
/// preempt.
fn rr_template(ctx: &Ctx, s: SchedShape) -> Automaton {
    let k_count = lit(s.k_tasks);
    // Circular distance from `last` to index `x` (1-based so the task right
    // after `last` has the smallest distance and `last` itself the
    // largest): ((x - last - 1) mod K) — `Rem` is Euclidean, so the result
    // is always in [0, K).
    let cdist = |x: IntExpr| {
        IntExpr::Rem(
            Box::new(x - IntExpr::var(LAST) - IntExpr::lit(1)),
            Box::new(IntExpr::lit(k_count)),
        )
    };

    let mut b = AutomatonBuilder::new("sched_rr");
    let asleep = b.location("asleep");
    let idle = b.location("idle");
    let running = b.location_with_invariant(
        "running",
        Invariant::upper_bound(QUANTUM_CLOCK, param(QUANTUM)),
    );
    let decide = b.committed_location("decide");
    let sleep_kick = b.committed_location("sleep_kick");
    let quantum_kick = b.committed_location("quantum_kick");

    wakeup_and_idle_edges(ctx, &mut b, [asleep, idle, decide]);

    // running: the quantum expiry is the only timed TS decision.
    b.edge(
        Edge::new(running, quantum_kick)
            .with_guard(Guard::always().and_clock(ClockAtom::new(
                QUANTUM_CLOCK,
                CmpOp::Ge,
                param(QUANTUM),
            )))
            .with_label("quantum_expired"),
    );
    b.edge(
        Edge::new(running, decide)
            .with_sync(Sync::Recv(FINISHED))
            .with_update(reconcile(ctx))
            .with_label("job_finished"),
    );
    b.edge(
        Edge::new(running, running)
            .with_sync(Sync::Recv(READY))
            .with_label("note_ready"),
    );
    b.edge(
        Edge::new(running, sleep_kick)
            .with_sync(Sync::Recv(SLEEP))
            .with_label("window_end"),
    );

    // quantum_kick / sleep_kick: preempt whichever task runs.
    for k in 0..s.k_tasks {
        b.edge(kick(s, quantum_kick, decide, k).with_label(format!("requeue_{k}")));
        b.edge(kick(s, sleep_kick, asleep, k).with_label(format!("kick_{k}")));
    }

    // decide: dispatch the ready task with the smallest circular distance
    // after `last` (distances are distinct, so the winner is unique).
    for k in 0..s.k_tasks {
        let closer_exists = Pred::exists(
            0,
            k_count,
            ready_bound(ctx).and(cdist(IntExpr::bound(0)).lt(cdist(IntExpr::lit(lit(k))))),
        );
        b.edge(
            Edge::new(decide, running)
                .with_guard(Guard::when(
                    IntExpr::var(RUNNING)
                        .eq(0)
                        .and(task_ready(ctx, k))
                        .and(closer_exists.not()),
                ))
                .with_sync(Sync::Send(s.exec(k)))
                .with_updates([
                    Update::set(RUNNING, lit(k) + 1),
                    Update::set(LAST, lit(k)),
                    Update::ResetClock(QUANTUM_CLOCK),
                ])
                .with_label(format!("dispatch_{k}")),
        );
    }
    // A finish by a non-running task leaves the current job in place, with
    // its quantum still ticking.
    b.edge(
        Edge::new(decide, running)
            .with_guard(Guard::when(IntExpr::var(RUNNING).gt(0)))
            .with_label("continue"),
    );
    b.edge(
        Edge::new(decide, idle)
            .with_guard(idle_guard(ctx, s))
            .with_label("go_idle"),
    );

    b.finish(asleep)
}
