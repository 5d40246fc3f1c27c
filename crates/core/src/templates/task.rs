//! The task automaton (base type **T** of the paper).
//!
//! One instance models one task: the release of a job every period, waiting
//! for input data, announcing readiness to the partition's task scheduler,
//! executing under a *stopwatch* (the execution clock stops across
//! preemptions and window boundaries), completing or being killed at its
//! deadline, and broadcasting data to its output virtual links after
//! completion.
//!
//! ```text
//!            rel >= P (release)
//!  ┌──────────────────────────────────────────────┐
//!  ▼                                              │
//! check_data ──(all inputs ready; consume)──────► │
//!  │              ready_j! is_ready:=1            │
//!  │                    │                         │
//!  ▼ (else)             ▼                         │
//! wait_data ──────► [ready] ◄──(preempt? stop exe)┐
//!  │ receive?          │ exec? (start exe)        ││
//!  │ rel>=D (kill)     ▼                          ││
//!  │              [running] ──────────────────────┘│
//!  │                │ exe>=C: complete             │
//!  │                │ rel>=D, exe<C: kill          │
//!  ▼                ▼                              │
//! (silent)     finished_j! ──(send! after          │
//!  kill         completion)───► await_release ─────┘
//! ```

use swa_nsa::{
    Automaton, AutomatonBuilder, ChannelId, ClockAtom, ClockId, CmpOp, Edge, Frame, Guard, IntExpr,
    Invariant, Pred, Sync, Update,
};

use super::{param, Ctx};

/// Template parameters, by [`swa_nsa::ParamId`] index.
const G: u32 = 0;
const WCET: u32 = 1;
const PERIOD: u32 = 2;
const DEADLINE: u32 = 3;
const OFFSET: u32 = 4;
/// `offset + deadline`: the first job's absolute deadline.
const DUE: u32 = 5;
/// The first input message's index; one parameter per input follows.
const INPUT0: u32 = 6;

/// Template-local clocks and channels, in [`TaskParams::frame`] order.
const REL: ClockId = ClockId::from_raw(0);
const EXE: ClockId = ClockId::from_raw(1);
const READY: ChannelId = ChannelId::from_raw(0);
const FINISHED: ChannelId = ChannelId::from_raw(1);
const EXEC: ChannelId = ChannelId::from_raw(2);
const PREEMPT: ChannelId = ChannelId::from_raw(3);
const SEND: ChannelId = ChannelId::from_raw(4);
const RECEIVE: ChannelId = ChannelId::from_raw(5);

/// What changes a task automaton's structure: whether the first release
/// waits for an offset, and how many input messages the task consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskShape {
    /// A positive release offset.
    pub offset: bool,
    /// Number of input messages.
    pub inputs: usize,
}

/// Per-instance parameters of a task automaton.
#[derive(Debug, Clone)]
pub struct TaskParams {
    /// Global task index `g`.
    pub g: usize,
    /// Partition index `j`.
    pub j: usize,
    /// Effective WCET on the bound core's type.
    pub wcet: i64,
    /// Period.
    pub period: i64,
    /// Relative deadline.
    pub deadline: i64,
    /// Release offset (phase): job `k` releases at `k · period + offset`.
    pub offset: i64,
    /// Indices of input messages (the task is their receiver).
    pub inputs: Vec<usize>,
    /// The release clock (runs always; reset at each release).
    pub rel: ClockId,
    /// The execution stopwatch (runs only while the job executes).
    pub exe: ClockId,
}

impl TaskParams {
    /// The template this task instantiates.
    #[must_use]
    pub fn shape(&self) -> TaskShape {
        TaskShape {
            offset: self.offset != 0,
            inputs: self.inputs.len(),
        }
    }

    /// The frame binding [`task_template`] to this task.
    #[must_use]
    pub fn frame(&self, name: String, ctx: &Ctx) -> Frame {
        let index = |i: usize| i64::try_from(i).expect("index fits i64");
        let mut params = vec![
            index(self.g),
            self.wcet,
            self.period,
            self.deadline,
            self.offset,
            self.offset + self.deadline,
        ];
        params.extend(self.inputs.iter().map(|&h| index(h)));
        Frame {
            name,
            params,
            clocks: vec![self.rel, self.exe],
            vars: Vec::new(),
            channels: vec![
                ctx.ready_ch[self.j],
                ctx.finished_ch[self.j],
                ctx.exec_ch[self.g],
                ctx.preempt_ch[self.g],
                ctx.send_ch[self.g],
                ctx.receive_ch[self.g],
            ],
        }
    }
}

/// Builds the task template of one shape.
///
/// The automaton applies the paper's worst-case assumptions: a job runs for
/// exactly its WCET, data is consumed when the job becomes ready, and a job
/// whose deadline passes is removed immediately (with a `finished`
/// synchronization when the scheduler knew about it).
#[must_use]
pub fn task_template(ctx: &Ctx, shape: TaskShape) -> Automaton {
    let g = || param(G);
    let (wcet, period, deadline) = (|| param(WCET), || param(PERIOD), || param(DEADLINE));
    let mut b = AutomatonBuilder::new("task");

    // Locations. With a zero offset the first release is immediate
    // (committed init); with a positive offset the task waits `offset`
    // first.
    let init = if shape.offset {
        b.location_with_invariant("init", Invariant::upper_bound(REL, param(OFFSET)))
    } else {
        b.committed_location("init")
    };
    let first_release_guard = if shape.offset {
        Guard::always().and_clock(ClockAtom::new(REL, CmpOp::Ge, param(OFFSET)))
    } else {
        Guard::always()
    };
    let check_data = b.committed_location("check_data");
    let wait_data = b.location_with_invariant("wait_data", Invariant::upper_bound(REL, deadline()));
    let ready = b.location_with_invariant("ready", Invariant::upper_bound(REL, deadline()));
    let running = b.location_with_invariant(
        "running",
        Invariant::upper_bound(EXE, wcet()).and_upper_bound(REL, deadline()),
    );
    let fin_complete = b.committed_location("fin_complete");
    let send_data = b.committed_location("send_data");
    let fin_killed = b.committed_location("fin_killed");
    let await_release =
        b.location_with_invariant("await_release", Invariant::upper_bound(REL, period()));

    // Updates performed at every job release.
    let release_updates = vec![
        Update::set_elem(
            ctx.abs_deadline,
            g(),
            IntExpr::elem(ctx.nrel, g()) * period() + param(DUE),
        ),
        Update::set_elem(
            ctx.nrel,
            g(),
            IntExpr::elem(ctx.nrel, g()) + IntExpr::lit(1),
        ),
        Update::ResetClock(REL),
    ];
    let inputs = (0..shape.inputs).map(|i| param(INPUT0 + u32::try_from(i).expect("few inputs")));

    // A task without inputs announces readiness in the same transition as
    // its release (no check_data hop): fewer committed intermediate states,
    // which matters for the model-checking baseline's state space.
    if shape.inputs == 0 {
        let mut announce0 = release_updates.clone();
        announce0.push(Update::set_elem(ctx.is_ready, g(), 1));
        b.edge(
            Edge::new(init, ready)
                .with_guard(first_release_guard.clone())
                .with_sync(Sync::Send(READY))
                .with_updates(announce0.clone())
                .with_label("release0_announce"),
        );
        b.edge(
            Edge::new(await_release, ready)
                .with_guard(Guard::always().and_clock(ClockAtom::new(REL, CmpOp::Ge, period())))
                .with_sync(Sync::Send(READY))
                .with_updates(announce0)
                .with_label("release_announce"),
        );
    } else {
        // init: the first job releases at the offset (t = 0 by default).
        b.edge(
            Edge::new(init, check_data)
                .with_guard(first_release_guard.clone())
                .with_updates(release_updates.clone())
                .with_label("release0"),
        );

        // check_data: either all inputs are delivered (consume and
        // announce) or wait for the virtual links.
        let all_inputs_ready = inputs.clone().fold(Pred::tt(), |acc, h| {
            acc.and(IntExpr::elem(ctx.is_data_ready, h).eq(1))
        });
        let announce_updates: Vec<Update> = inputs
            .map(|h| Update::set_elem(ctx.is_data_ready, h, 0))
            .chain([Update::set_elem(ctx.is_ready, g(), 1)])
            .collect();
        b.edge(
            Edge::new(check_data, ready)
                .with_guard(Guard::when(all_inputs_ready.clone()))
                .with_sync(Sync::Send(READY))
                .with_updates(announce_updates)
                .with_label("announce"),
        );
        b.edge(
            Edge::new(check_data, wait_data)
                .with_guard(Guard::when(all_inputs_ready.not()))
                .with_label("wait_for_data"),
        );

        // wait_data: deadline kill first (scanned before the receive edge),
        // then wake-up on any delivery.
        b.edge(
            Edge::new(wait_data, await_release)
                .with_guard(Guard::always().and_clock(ClockAtom::new(REL, CmpOp::Ge, deadline())))
                .with_update(Update::set_elem(ctx.is_failed, g(), 1))
                .with_label("kill_waiting"),
        );
        b.edge(
            Edge::new(wait_data, check_data)
                .with_sync(Sync::Recv(RECEIVE))
                .with_label("data_arrived"),
        );
    }

    // ready: a job preempted at the exact instant its cumulative execution
    // reached the WCET has completed — completion wins over both the kill
    // and a re-dispatch, in every interleaving order (this is what makes
    // the traces equivalent for analysis purposes; see DESIGN.md).
    b.edge(
        Edge::new(ready, fin_complete)
            .with_guard(Guard::always().and_clock(ClockAtom::new(EXE, CmpOp::Ge, wcet())))
            .with_update(Update::set_elem(ctx.is_ready, g(), 0))
            .with_label("complete_preempted"),
    );
    let killed = || {
        Guard::always()
            .and_clock(ClockAtom::new(REL, CmpOp::Ge, deadline()))
            .and_clock(ClockAtom::new(EXE, CmpOp::Lt, wcet()))
    };
    b.edge(
        Edge::new(ready, fin_killed)
            .with_guard(killed())
            .with_updates([
                Update::set_elem(ctx.is_ready, g(), 0),
                Update::set_elem(ctx.is_failed, g(), 1),
            ])
            .with_label("kill_ready"),
    );
    b.edge(
        Edge::new(ready, running)
            .with_sync(Sync::Recv(EXEC))
            .with_update(Update::StartClock(EXE))
            .with_label("exec"),
    );

    // running: completion takes precedence over the deadline kill (the kill
    // guard requires exe < wcet so the two are mutually exclusive and every
    // interleaving order produces the same trace).
    b.edge(
        Edge::new(running, fin_complete)
            .with_guard(Guard::always().and_clock(ClockAtom::new(EXE, CmpOp::Ge, wcet())))
            .with_updates([
                Update::StopClock(EXE),
                Update::set_elem(ctx.is_ready, g(), 0),
            ])
            .with_label("complete"),
    );
    b.edge(
        Edge::new(running, fin_killed)
            .with_guard(killed())
            .with_updates([
                Update::StopClock(EXE),
                Update::set_elem(ctx.is_ready, g(), 0),
                Update::set_elem(ctx.is_failed, g(), 1),
            ])
            .with_label("kill_running"),
    );
    b.edge(
        Edge::new(running, ready)
            .with_sync(Sync::Recv(PREEMPT))
            .with_update(Update::StopClock(EXE))
            .with_label("preempted"),
    );

    // fin_complete → finished! → send! → await_release.
    b.edge(
        Edge::new(fin_complete, send_data)
            .with_sync(Sync::Send(FINISHED))
            .with_label("finished_ok"),
    );
    b.edge(
        Edge::new(send_data, await_release)
            .with_sync(Sync::Send(SEND))
            .with_update(Update::ResetClock(EXE))
            .with_label("send_outputs"),
    );

    // fin_killed → finished! → await_release (no data is sent).
    b.edge(
        Edge::new(fin_killed, await_release)
            .with_sync(Sync::Send(FINISHED))
            .with_update(Update::ResetClock(EXE))
            .with_label("finished_killed"),
    );

    // await_release: next job at the next period boundary (input-free
    // tasks release-and-announce in one step, added above).
    if shape.inputs > 0 {
        b.edge(
            Edge::new(await_release, check_data)
                .with_guard(Guard::always().and_clock(ClockAtom::new(REL, CmpOp::Ge, period())))
                .with_updates(release_updates)
                .with_label("release"),
        );
    }

    b.finish(init)
}
