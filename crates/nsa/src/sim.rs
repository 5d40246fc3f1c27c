//! Deterministic event-driven simulator (interpreter) for networks of
//! stopwatch automata.
//!
//! The simulator implements the *maximal-progress* semantics used by the
//! paper's approach: while any action transition is enabled, one fires
//! (chosen by a fixed total order); only when none is enabled does time
//! advance, and it advances *exactly* to the next instant at which an action
//! can fire (computed from the guards' clock atoms) or to the horizon.
//!
//! Because the paper's Sect. 3 theorem guarantees that — for models built by
//! Algorithm 1 under the worst-case assumptions — every run produces the
//! same system trace, the choice of total order is immaterial for analysis.
//! [`TieBreak`] lets tests and the determinism ablation permute the order
//! and check that the observable trace is unchanged.

use crate::bytecode::EvalEngine;
use crate::diagnose::{Diagnosis, ExplainedError};
use crate::error::{SimError, SnapshotError};
use crate::ids::AutomatonId;
use crate::network::Network;
use crate::semantics::{
    any_committed, apply_with, delay_bounds_with, enabled_transitions_with, Transition,
};
use crate::snapshot::Snapshot;
use crate::state::State;
use crate::trace::{NsaTrace, SyncEvent};

/// How to choose among several simultaneously enabled transitions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TieBreak {
    /// Take the first transition in canonical (automaton, edge) order.
    #[default]
    Canonical,
    /// Take the last transition in canonical order.
    Reversed,
    /// Order initiating automata through a permutation: transition with the
    /// smallest `perm[initiator]` wins; ties fall back to canonical order.
    ///
    /// The permutation is indexed by raw automaton id; missing entries map
    /// to themselves.
    Permuted(Vec<u32>),
}

impl TieBreak {
    fn choose<'t>(&self, candidates: &'t [Transition]) -> &'t Transition {
        debug_assert!(!candidates.is_empty());
        match self {
            Self::Canonical => &candidates[0],
            Self::Reversed => candidates.last().expect("nonempty candidates"),
            Self::Permuted(perm) => {
                let key = |t: &Transition| {
                    let raw = t.initiator().raw();
                    perm.get(raw as usize).copied().unwrap_or(raw)
                };
                candidates
                    .iter()
                    .min_by_key(|t| key(t))
                    .expect("nonempty candidates")
            }
        }
    }
}

/// Why a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Model time reached the horizon.
    HorizonReached,
    /// No action transition is enabled and none can ever become enabled;
    /// the network is quiescent (this is a normal end, not an error).
    Quiescent,
}

/// Low-level interpreter counters for one run (all zero outside the
/// accelerated loop's instrumented paths).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimStats {
    /// Event-wheel wake-ups drained by the accelerated loop: how many
    /// parked automata were re-examined because their wake time came due.
    pub wheel_wakeups: u64,
}

/// The result of a completed run.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// The generated trace.
    pub trace: NsaTrace,
    /// The final state.
    pub final_state: State,
    /// Number of action transitions taken.
    pub steps: u64,
    /// Why the run ended.
    pub stop: StopReason,
    /// Interpreter counters.
    pub stats: SimStats,
}

/// Equality is over the *observable* outcome — trace, final state, steps,
/// stop reason. [`SimStats`] is loop-implementation accounting (the
/// generic interpreter has no event wheel to count wakeups on) and is
/// deliberately excluded, so differential tests can compare the fast and
/// generic loops directly.
impl PartialEq for SimOutcome {
    fn eq(&self, other: &Self) -> bool {
        self.trace == other.trace
            && self.final_state == other.final_state
            && self.steps == other.steps
            && self.stop == other.stop
    }
}

impl Eq for SimOutcome {}

/// Deterministic simulator for one network.
///
/// # Examples
///
/// ```
/// use swa_nsa::automaton::{AutomatonBuilder, Edge};
/// use swa_nsa::expr::CmpOp;
/// use swa_nsa::guard::{ClockAtom, Guard, Invariant};
/// use swa_nsa::network::NetworkBuilder;
/// use swa_nsa::sim::Simulator;
/// use swa_nsa::update::Update;
///
/// // A clock that ticks every 10 time units.
/// let mut nb = NetworkBuilder::new();
/// let c = nb.clock("c");
/// let mut a = AutomatonBuilder::new("ticker");
/// let l0 = a.location_with_invariant("wait", Invariant::upper_bound(c, 10));
/// a.edge(
///     Edge::new(l0, l0)
///         .with_guard(Guard::always().and_clock(ClockAtom::new(c, CmpOp::Ge, 10)))
///         .with_update(Update::ResetClock(c))
///         .with_label("tick"),
/// );
/// nb.automaton(a.finish(l0));
/// let network = nb.build()?;
///
/// let outcome = Simulator::new(&network).horizon(95).run()?;
/// assert_eq!(outcome.trace.len(), 9); // ticks at 10, 20, …, 90
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Simulator<'n> {
    network: &'n Network,
    horizon: i64,
    max_steps_per_instant: usize,
    tie_break: TieBreak,
    engine: EvalEngine,
}

impl<'n> Simulator<'n> {
    /// Creates a simulator with horizon 0 (set one with
    /// [`horizon`](Self::horizon)).
    #[must_use]
    pub fn new(network: &'n Network) -> Self {
        Self {
            network,
            horizon: 0,
            max_steps_per_instant: 1_000_000,
            tie_break: TieBreak::Canonical,
            engine: EvalEngine::default(),
        }
    }

    /// Selects the guard/update evaluation engine (compiled bytecode by
    /// default). The AST walker is the reference semantics: this is the
    /// one place it can be selected, for the differential suites.
    #[must_use]
    pub fn engine(mut self, engine: EvalEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the time horizon (runs stop when model time reaches it).
    #[must_use]
    pub fn horizon(mut self, horizon: i64) -> Self {
        self.horizon = horizon;
        self
    }

    /// Sets the Zeno bound: the maximum number of action transitions allowed
    /// within one time instant.
    #[must_use]
    pub fn max_steps_per_instant(mut self, limit: usize) -> Self {
        self.max_steps_per_instant = limit;
        self
    }

    /// Sets the tie-break order used among simultaneously enabled
    /// transitions.
    #[must_use]
    pub fn tie_break(mut self, tie_break: TieBreak) -> Self {
        self.tie_break = tie_break;
        self
    }

    /// Runs from the network's initial state.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] on Zeno behaviour, time locks, committed
    /// deadlocks, domain violations or evaluation failures.
    pub fn run(&self) -> Result<SimOutcome, SimError> {
        self.run_with(|_, _| {})
    }

    /// Runs from the network's initial state, invoking `on_event` after
    /// every fired transition with the event and the post-state.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run).
    pub fn run_with(
        &self,
        on_event: impl FnMut(&SyncEvent, &State),
    ) -> Result<SimOutcome, SimError> {
        let mut state = State::initial(self.network);
        let mut trace = NsaTrace::new();
        let (steps, stats, stop) = self.run_internal(&mut state, &mut trace, on_event)?;
        Ok(SimOutcome {
            trace,
            final_state: state,
            steps,
            stop,
            stats,
        })
    }

    /// Runs from the network's initial state; on failure, captures a
    /// structured forensic [`Diagnosis`] of the stuck state (see
    /// [`crate::diagnose`]).
    ///
    /// # Errors
    ///
    /// Returns an [`ExplainedError`] wrapping the [`SimError`]; for time
    /// locks, committed deadlocks and Zeno runs it carries a [`Diagnosis`].
    pub fn run_explained(&self) -> Result<SimOutcome, ExplainedError> {
        let mut state = State::initial(self.network);
        let mut trace = NsaTrace::new();
        match self.run_internal(&mut state, &mut trace, |_, _| {}) {
            Ok((steps, stats, stop)) => Ok(SimOutcome {
                trace,
                final_state: state,
                steps,
                stop,
                stats,
            }),
            Err(error) => {
                let diagnosis =
                    Diagnosis::capture(self.network, &state, &trace, &error, self.engine)
                        .map(Box::new);
                Err(ExplainedError { error, diagnosis })
            }
        }
    }

    /// Opens an incremental session starting from the network's initial
    /// state.
    ///
    /// A session runs in segments ([`SimSession::run_until`]) and can be
    /// snapshotted and restored between segments; segmented runs produce
    /// exactly the trace, final state and step count of one uninterrupted
    /// run, because the horizon is exclusive — events at time `k` always
    /// belong to the segment that *starts* at `k`, never to the one that
    /// ends there.
    #[must_use]
    pub fn session(&self) -> SimSession<'n> {
        SimSession {
            sim: self.clone(),
            state: State::initial(self.network),
            trace: NsaTrace::new(),
            steps: 0,
            stats: SimStats::default(),
            stop: None,
        }
    }

    /// Opens a session resuming from `snapshot` (taken earlier by
    /// [`SimSession::snapshot`], possibly in another process via
    /// [`Snapshot::to_bytes`]).
    ///
    /// The session's trace starts empty: it will hold only the events
    /// *after* the snapshot point. Callers that need the full trace keep
    /// the prefix alongside the snapshot (as the checkpoint store in
    /// `swa-core` does). The step counter and interpreter stats continue
    /// from the snapshot's values.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] when the snapshot does not fit this
    /// network's declarations.
    pub fn resume(&self, snapshot: &Snapshot) -> Result<SimSession<'n>, SnapshotError> {
        snapshot.validate(self.network)?;
        Ok(SimSession {
            sim: self.clone(),
            state: snapshot.state.clone(),
            trace: NsaTrace::new(),
            steps: snapshot.steps,
            stats: snapshot.stats,
            stop: None,
        })
    }

    /// Dispatches to the accelerated or generic loop. The caller owns the
    /// state and trace, so on error they still describe the stuck
    /// configuration and the events leading up to it — that is what
    /// [`Diagnosis::capture`] reads.
    fn run_internal(
        &self,
        state: &mut State,
        trace: &mut NsaTrace,
        on_event: impl FnMut(&SyncEvent, &State),
    ) -> Result<(u64, SimStats, StopReason), SimError> {
        if self.tie_break == TieBreak::Canonical {
            let cache = crate::fastsim::FastCache::new(self.network);
            if cache.eligible() {
                return self.run_fast(state, trace, &cache, on_event);
            }
        }
        self.run_generic(state, trace, on_event)
    }

    /// The accelerated interpretation loop (see [`crate::fastsim`]).
    fn run_fast(
        &self,
        state: &mut State,
        trace: &mut NsaTrace,
        cache: &crate::fastsim::FastCache,
        mut on_event: impl FnMut(&SyncEvent, &State),
    ) -> Result<(u64, SimStats, StopReason), SimError> {
        let mut run = crate::fastsim::FastRun::new(self.network, cache, state, self.engine)?;
        let mut steps: u64 = 0;
        let mut steps_this_instant: usize = 0;

        loop {
            if state.time >= self.horizon {
                return Ok((steps, run.stats(), StopReason::HorizonReached));
            }

            if let Some(transition) = run.first_enabled(state)? {
                steps_this_instant += 1;
                if steps_this_instant > self.max_steps_per_instant {
                    return Err(SimError::ZenoViolation {
                        time: state.time,
                        limit: self.max_steps_per_instant,
                    });
                }
                run.apply(state, &transition)?;
                steps += 1;
                let event = SyncEvent {
                    time: state.time,
                    transition,
                };
                on_event(&event, state);
                trace.push(event);
                continue;
            }

            if run.any_committed() {
                return Err(SimError::CommittedDeadlock {
                    automaton: run.committed_automaton(state),
                    time: state.time,
                });
            }

            let (next_abs, expiry_abs, bounder) = run.delay_targets(state)?;
            let target = if next_abs <= expiry_abs {
                if next_abs == i64::MAX {
                    // Nothing will ever fire and no invariant binds:
                    // quiescent to the horizon.
                    let final_time = self.horizon;
                    state.advance(final_time - state.time);
                    return Ok((steps, run.stats(), StopReason::Quiescent));
                }
                next_abs
            } else if expiry_abs >= self.horizon {
                self.horizon
            } else {
                return Err(SimError::TimeLock {
                    time: state.time,
                    automaton: bounder
                        .or_else(|| run.earliest_bounded_automaton())
                        .unwrap_or_else(|| first_bounded_automaton(self.network, state)),
                });
            };
            let target = target.min(self.horizon);
            let delay = target - state.time;
            run.advance(state, delay);
            steps_this_instant = 0;
            if target >= self.horizon {
                return Ok((steps, run.stats(), StopReason::HorizonReached));
            }
        }
    }

    /// The generic interpretation loop (any tie-break, any network).
    fn run_generic(
        &self,
        state: &mut State,
        trace: &mut NsaTrace,
        mut on_event: impl FnMut(&SyncEvent, &State),
    ) -> Result<(u64, SimStats, StopReason), SimError> {
        let network = self.network;
        let mut steps: u64 = 0;
        let mut steps_this_instant: usize = 0;

        loop {
            if state.time >= self.horizon {
                return Ok((steps, SimStats::default(), StopReason::HorizonReached));
            }

            let candidates = enabled_transitions_with(network, state, self.engine)?;
            if !candidates.is_empty() {
                steps_this_instant += 1;
                if steps_this_instant > self.max_steps_per_instant {
                    return Err(SimError::ZenoViolation {
                        time: state.time,
                        limit: self.max_steps_per_instant,
                    });
                }
                let transition = self.tie_break.choose(&candidates).clone();
                apply_with(network, state, &transition, self.engine)?;
                steps += 1;
                let event = SyncEvent {
                    time: state.time,
                    transition,
                };
                on_event(&event, state);
                trace.push(event);
                continue;
            }

            // No action enabled: the network must delay.
            if any_committed(network, state) {
                let automaton = committed_automaton(network, state);
                return Err(SimError::CommittedDeadlock {
                    automaton,
                    time: state.time,
                });
            }

            let bounds = delay_bounds_with(network, state, self.engine)?;
            let remaining = self.horizon - state.time;
            let max_delay = bounds.max_delay;
            if let Some(d) = max_delay {
                if d < 0 {
                    // A stopped clock violates an invariant that can never
                    // recover: the state is stuck.
                    return Err(SimError::TimeLock {
                        time: state.time,
                        automaton: first_bounded_automaton(network, state),
                    });
                }
            }

            let delay = match bounds.next_enabling {
                Some(d) if max_delay.is_none_or(|m| d <= m) => d.min(remaining),
                _ => {
                    // Nothing will ever be enabled (within the invariant
                    // bound). If invariants allow waiting to the horizon,
                    // the network is quiescent; otherwise time is locked.
                    match max_delay {
                        None => remaining,
                        Some(m) if m >= remaining => remaining,
                        Some(_) => {
                            return Err(SimError::TimeLock {
                                time: state.time,
                                automaton: first_bounded_automaton(network, state),
                            });
                        }
                    }
                }
            };

            state.advance(delay);
            steps_this_instant = 0;
            if delay >= remaining {
                let stop = if bounds.next_enabling.is_none() && max_delay.is_none() {
                    StopReason::Quiescent
                } else {
                    StopReason::HorizonReached
                };
                return Ok((steps, SimStats::default(), stop));
            }
        }
    }
}

/// An incremental simulation run: the caller owns the state and trace and
/// advances the run in segments, snapshotting and restoring between them.
///
/// Invariants that make segmented runs equivalent to uninterrupted ones:
///
/// * the horizon is exclusive, so no time instant's events are ever split
///   across two segments (events at time `k` fire in the segment that
///   starts at `k`);
/// * the accelerated loop's event wheel is rebuilt from the [`State`] at
///   the start of every segment, so no wheel state needs to survive a
///   snapshot;
/// * the per-instant Zeno counter is zero at every segment boundary
///   (advancing time resets it, and a segment boundary always follows a
///   time advance or precedes the first instant).
///
/// # Examples
///
/// ```
/// use swa_nsa::automaton::{AutomatonBuilder, Edge};
/// use swa_nsa::expr::CmpOp;
/// use swa_nsa::guard::{ClockAtom, Guard, Invariant};
/// use swa_nsa::network::NetworkBuilder;
/// use swa_nsa::sim::Simulator;
/// use swa_nsa::update::Update;
///
/// let mut nb = NetworkBuilder::new();
/// let c = nb.clock("c");
/// let mut a = AutomatonBuilder::new("ticker");
/// let l0 = a.location_with_invariant("wait", Invariant::upper_bound(c, 10));
/// a.edge(
///     Edge::new(l0, l0)
///         .with_guard(Guard::always().and_clock(ClockAtom::new(c, CmpOp::Ge, 10)))
///         .with_update(Update::ResetClock(c)),
/// );
/// nb.automaton(a.finish(l0));
/// let network = nb.build()?;
///
/// let sim = Simulator::new(&network);
/// let mut session = sim.session();
/// session.run_until(45)?;             // ticks at 10, 20, 30, 40
/// let snapshot = session.snapshot();
/// session.run_until(95)?;             // … 50 through 90
/// assert_eq!(session.trace().len(), 9);
///
/// // Resume the snapshot: only the suffix is re-simulated.
/// let mut resumed = sim.resume(&snapshot)?;
/// resumed.run_until(95)?;
/// assert_eq!(resumed.trace().len(), 5);
/// assert_eq!(resumed.state(), session.state());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct SimSession<'n> {
    sim: Simulator<'n>,
    state: State,
    trace: NsaTrace,
    steps: u64,
    stats: SimStats,
    stop: Option<StopReason>,
}

impl<'n> SimSession<'n> {
    /// Runs until model time reaches `horizon` (exclusive for events) or
    /// the network goes quiescent. May be called repeatedly with
    /// nondecreasing horizons; a horizon at or before the current time
    /// returns immediately with [`StopReason::HorizonReached`].
    ///
    /// # Errors
    ///
    /// As [`Simulator::run`]. On error the session's state and trace
    /// describe the stuck configuration, as with the one-shot entry
    /// points.
    pub fn run_until(&mut self, horizon: i64) -> Result<StopReason, SimError> {
        self.run_until_with(horizon, |_, _| {})
    }

    /// As [`run_until`](Self::run_until), invoking `on_event` after every
    /// fired transition with the event and the post-state.
    ///
    /// # Errors
    ///
    /// As [`run_until`](Self::run_until).
    pub fn run_until_with(
        &mut self,
        horizon: i64,
        on_event: impl FnMut(&SyncEvent, &State),
    ) -> Result<StopReason, SimError> {
        self.sim.horizon = horizon;
        let (steps, stats, stop) =
            self.sim
                .run_internal(&mut self.state, &mut self.trace, on_event)?;
        self.steps += steps;
        self.stats.wheel_wakeups += stats.wheel_wakeups;
        self.stop = Some(stop);
        Ok(stop)
    }

    /// Captures a snapshot of the current session state. Call between
    /// segments (after [`run_until`](Self::run_until) returned `Ok`);
    /// resuming it reproduces the rest of the run exactly.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            state: self.state.clone(),
            steps: self.steps,
            stats: self.stats,
            trace_len: self.trace.len() as u64,
        }
    }

    /// Rewinds (or fast-forwards) the session to `snapshot`.
    ///
    /// The session's trace is cleared: after a restore it holds only the
    /// events fired since the restore point. The step counter and stats
    /// continue from the snapshot's values, so a restored run's totals
    /// match an uninterrupted run's.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] when the snapshot does not fit the
    /// session's network.
    pub fn restore(&mut self, snapshot: &Snapshot) -> Result<(), SnapshotError> {
        snapshot.validate(self.sim.network)?;
        self.state = snapshot.state.clone();
        self.steps = snapshot.steps;
        self.stats = snapshot.stats;
        self.trace = NsaTrace::new();
        self.stop = None;
        Ok(())
    }

    /// The current network state.
    #[must_use]
    pub fn state(&self) -> &State {
        &self.state
    }

    /// Current model time.
    #[must_use]
    pub fn time(&self) -> i64 {
        self.state.time
    }

    /// The events recorded since the session started (or since the last
    /// [`restore`](Self::restore)).
    #[must_use]
    pub fn trace(&self) -> &NsaTrace {
        &self.trace
    }

    /// Total action transitions taken, including those before a resumed
    /// snapshot.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Why the most recent segment ended, if any segment has run.
    #[must_use]
    pub fn stop(&self) -> Option<StopReason> {
        self.stop
    }

    /// Consumes the session into a [`SimOutcome`].
    ///
    /// The outcome's trace covers the events since the session started (or
    /// since the last restore); its steps and stats are run totals. A
    /// session that never ran reports [`StopReason::HorizonReached`].
    #[must_use]
    pub fn into_outcome(self) -> SimOutcome {
        SimOutcome {
            trace: self.trace,
            final_state: self.state,
            steps: self.steps,
            stop: self.stop.unwrap_or(StopReason::HorizonReached),
            stats: self.stats,
        }
    }
}

fn committed_automaton(network: &Network, state: &State) -> AutomatonId {
    network
        .automaton_ids()
        .find(|&aid| network.is_committed(aid, state.location_of(aid)))
        .unwrap_or(AutomatonId::from_raw(0))
}

fn first_bounded_automaton(network: &Network, state: &State) -> AutomatonId {
    use crate::state::EnvView;
    let view = EnvView { network, state };
    for (i, a) in network.automata().iter().enumerate() {
        let aid = AutomatonId::from_raw(u32::try_from(i).expect("automaton count fits u32"));
        let inv = &a.location(state.location_of(aid)).invariant;
        if let Ok(Some(_)) = inv.max_delay(&view, &view) {
            return aid;
        }
    }
    AutomatonId::from_raw(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::{AutomatonBuilder, Edge, Sync};
    use crate::expr::{CmpOp, IntExpr};
    use crate::guard::{ClockAtom, Guard, Invariant};
    use crate::network::NetworkBuilder;
    use crate::update::Update;

    /// A periodic ticker with period `p` built around one clock.
    fn ticker(nb: &mut NetworkBuilder, name: &str, p: i64) {
        let c = nb.clock(format!("{name}_clk"));
        let mut a = AutomatonBuilder::new(name);
        let l0 = a.location_with_invariant("wait", Invariant::upper_bound(c, p));
        a.edge(
            Edge::new(l0, l0)
                .with_guard(Guard::always().and_clock(ClockAtom::new(c, CmpOp::Ge, p)))
                .with_update(Update::ResetClock(c))
                .with_label("tick"),
        );
        nb.automaton(a.finish(l0));
    }

    #[test]
    fn single_ticker_fires_at_exact_times() {
        let mut nb = NetworkBuilder::new();
        ticker(&mut nb, "t", 10);
        let n = nb.build().unwrap();
        let out = Simulator::new(&n).horizon(35).run().unwrap();
        let times: Vec<i64> = out.trace.iter().map(|e| e.time).collect();
        assert_eq!(times, vec![10, 20, 30]);
        assert_eq!(out.stop, StopReason::HorizonReached);
        assert_eq!(out.final_state.time, 35);
    }

    #[test]
    fn two_tickers_interleave_deterministically() {
        let mut nb = NetworkBuilder::new();
        ticker(&mut nb, "a", 4);
        ticker(&mut nb, "b", 6);
        let n = nb.build().unwrap();
        let out = Simulator::new(&n).horizon(13).run().unwrap();
        let times: Vec<i64> = out.trace.iter().map(|e| e.time).collect();
        // a at 4, 8, 12; b at 6, 12.
        assert_eq!(times, vec![4, 6, 8, 12, 12]);
        // At t = 12 the canonical order fires automaton 0 (a) first.
        assert_eq!(
            out.trace.events()[3].transition.initiator(),
            AutomatonId::from_raw(0)
        );
    }

    #[test]
    fn reversed_tie_break_swaps_simultaneous_events() {
        let mut nb = NetworkBuilder::new();
        ticker(&mut nb, "a", 5);
        ticker(&mut nb, "b", 5);
        let n = nb.build().unwrap();
        let out = Simulator::new(&n)
            .horizon(6)
            .tie_break(TieBreak::Reversed)
            .run()
            .unwrap();
        assert_eq!(
            out.trace.events()[0].transition.initiator(),
            AutomatonId::from_raw(1)
        );
    }

    #[test]
    fn permuted_tie_break_follows_permutation() {
        let mut nb = NetworkBuilder::new();
        ticker(&mut nb, "a", 5);
        ticker(&mut nb, "b", 5);
        ticker(&mut nb, "c", 5);
        let n = nb.build().unwrap();
        // Permutation c < a < b.
        let out = Simulator::new(&n)
            .horizon(6)
            .tie_break(TieBreak::Permuted(vec![1, 2, 0]))
            .run()
            .unwrap();
        let order: Vec<u32> = out
            .trace
            .iter()
            .map(|e| e.transition.initiator().raw())
            .collect();
        assert_eq!(order, vec![2, 0, 1]);
    }

    #[test]
    fn permuted_tie_break_cannot_override_committed_priority() {
        // While any automaton sits in a committed location, only committed
        // initiators may fire — the tie-break permutes within that filtered
        // candidate set, never around it.
        let mut nb = NetworkBuilder::new();
        let mut a = AutomatonBuilder::new("committed");
        let c0 = a.committed_location("c0");
        let c1 = a.location("c1");
        a.edge(Edge::new(c0, c1));
        nb.automaton(a.finish(c0));

        let mut a = AutomatonBuilder::new("free");
        let f0 = a.location("f0");
        let f1 = a.location("f1");
        a.edge(Edge::new(f0, f1));
        nb.automaton(a.finish(f0));

        let n = nb.build().unwrap();
        // Permutation prefers the free automaton (1) over the committed (0).
        let out = Simulator::new(&n)
            .horizon(1)
            .tie_break(TieBreak::Permuted(vec![1, 0]))
            .run()
            .unwrap();
        let order: Vec<u32> = out
            .trace
            .iter()
            .map(|e| e.transition.initiator().raw())
            .collect();
        assert_eq!(order, vec![0, 1], "committed automaton must fire first");
    }

    #[test]
    fn quiescent_network_jumps_to_horizon() {
        let mut nb = NetworkBuilder::new();
        let mut a = AutomatonBuilder::new("idle");
        let l0 = a.location("l0");
        // An edge that can never fire (guard false).
        let l1 = a.location("l1");
        a.edge(Edge::new(l0, l1).with_guard(Guard::when(crate::expr::Pred::ff())));
        nb.automaton(a.finish(l0));
        let n = nb.build().unwrap();
        let out = Simulator::new(&n).horizon(1000).run().unwrap();
        assert_eq!(out.trace.len(), 0);
        assert_eq!(out.stop, StopReason::Quiescent);
        assert_eq!(out.final_state.time, 1000);
    }

    #[test]
    fn zeno_loop_is_detected() {
        let mut nb = NetworkBuilder::new();
        let mut a = AutomatonBuilder::new("spin");
        let l0 = a.location("l0");
        a.edge(Edge::new(l0, l0));
        nb.automaton(a.finish(l0));
        let n = nb.build().unwrap();
        let err = Simulator::new(&n)
            .horizon(10)
            .max_steps_per_instant(100)
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::ZenoViolation { .. }));
    }

    #[test]
    fn time_lock_is_detected() {
        let mut nb = NetworkBuilder::new();
        let c = nb.clock("c");
        let mut a = AutomatonBuilder::new("stuck");
        // Invariant forces action by t=5, but the only edge needs t>=10.
        let l0 = a.location_with_invariant("l0", Invariant::upper_bound(c, 5));
        let l1 = a.location("l1");
        a.edge(
            Edge::new(l0, l1).with_guard(Guard::always().and_clock(ClockAtom::new(
                c,
                CmpOp::Ge,
                10,
            ))),
        );
        nb.automaton(a.finish(l0));
        let n = nb.build().unwrap();
        let err = Simulator::new(&n).horizon(100).run().unwrap_err();
        assert!(matches!(err, SimError::TimeLock { .. }));
    }

    #[test]
    fn horizon_cuts_before_invariant_lock() {
        let mut nb = NetworkBuilder::new();
        let c = nb.clock("c");
        let mut a = AutomatonBuilder::new("late");
        let l0 = a.location_with_invariant("l0", Invariant::upper_bound(c, 50));
        let l1 = a.location("l1");
        a.edge(
            Edge::new(l0, l1).with_guard(Guard::always().and_clock(ClockAtom::new(
                c,
                CmpOp::Ge,
                100,
            ))),
        );
        nb.automaton(a.finish(l0));
        let n = nb.build().unwrap();
        // Horizon 20 < invariant bound 50: the run ends normally.
        let out = Simulator::new(&n).horizon(20).run().unwrap();
        assert_eq!(out.final_state.time, 20);
    }

    #[test]
    fn committed_deadlock_is_detected() {
        let mut nb = NetworkBuilder::new();
        let ch = nb.binary_channel("never");
        let mut a = AutomatonBuilder::new("stuck");
        let l0 = a.committed_location("l0");
        let l1 = a.location("l1");
        // Send with no receiver: never enabled.
        a.edge(Edge::new(l0, l1).with_sync(Sync::Send(ch)));
        nb.automaton(a.finish(l0));
        let n = nb.build().unwrap();
        let err = Simulator::new(&n).horizon(10).run().unwrap_err();
        assert!(matches!(err, SimError::CommittedDeadlock { .. }));
    }

    #[test]
    fn committed_location_preempts_time_passage() {
        // Automaton A: committed chain l0 -> l1 -> l2 with var updates.
        // Automaton B: ticker that would fire at t=0 only via clock >= 0.
        let mut nb = NetworkBuilder::new();
        let v = nb.var("x", 0, 0, 10);
        let mut a = AutomatonBuilder::new("chain");
        let l0 = a.committed_location("l0");
        let l1 = a.committed_location("l1");
        let l2 = a.location("l2");
        a.edge(Edge::new(l0, l1).with_update(Update::set(v, 1)));
        a.edge(Edge::new(l1, l2).with_update(Update::set(v, 2)));
        nb.automaton(a.finish(l0));
        ticker(&mut nb, "t", 7);
        let n = nb.build().unwrap();
        let out = Simulator::new(&n).horizon(8).run().unwrap();
        // First two events happen at t=0 (the committed chain), then tick.
        let times: Vec<i64> = out.trace.iter().map(|e| e.time).collect();
        assert_eq!(times, vec![0, 0, 7]);
        assert_eq!(out.final_state.vars[0], 2);
    }

    #[test]
    fn run_with_callback_sees_every_event() {
        let mut nb = NetworkBuilder::new();
        ticker(&mut nb, "t", 3);
        let n = nb.build().unwrap();
        let mut seen = Vec::new();
        let out = Simulator::new(&n)
            .horizon(10)
            .run_with(|e, s| seen.push((e.time, s.time)))
            .unwrap();
        assert_eq!(seen, vec![(3, 3), (6, 6), (9, 9)]);
        assert_eq!(out.trace.len(), 3);
    }

    #[test]
    fn variable_guard_changes_enabling_after_sync() {
        // A sets flag at t=5; B's edge guarded by flag fires immediately
        // after (same instant).
        let mut nb = NetworkBuilder::new();
        let flag = nb.flag("flag", false);
        let c = nb.clock("c");
        let mut a = AutomatonBuilder::new("setter");
        let l0 = a.location_with_invariant("l0", Invariant::upper_bound(c, 5));
        let l1 = a.location("l1");
        a.edge(
            Edge::new(l0, l1)
                .with_guard(Guard::always().and_clock(ClockAtom::new(c, CmpOp::Ge, 5)))
                .with_update(Update::set(flag, 1)),
        );
        nb.automaton(a.finish(l0));

        let mut b = AutomatonBuilder::new("watcher");
        let m0 = b.location("m0");
        let m1 = b.location("m1");
        b.edge(Edge::new(m0, m1).with_guard(Guard::when(IntExpr::var(flag).eq(1))));
        nb.automaton(b.finish(m0));

        let n = nb.build().unwrap();
        let out = Simulator::new(&n).horizon(10).run().unwrap();
        let times: Vec<i64> = out.trace.iter().map(|e| e.time).collect();
        assert_eq!(times, vec![5, 5]);
    }

    #[test]
    fn session_segments_match_one_shot_run() {
        let mut nb = NetworkBuilder::new();
        ticker(&mut nb, "a", 4);
        ticker(&mut nb, "b", 6);
        let n = nb.build().unwrap();
        let sim = Simulator::new(&n).horizon(50);
        let cold = sim.run().unwrap();

        // Segment at every possible boundary, including event instants.
        for k in 0..50 {
            let mut session = sim.session();
            session.run_until(k).unwrap();
            session.run_until(50).unwrap();
            let warm = session.into_outcome();
            assert_eq!(warm, cold, "segment boundary k={k}");
        }
    }

    #[test]
    fn session_snapshot_resume_reproduces_the_suffix() {
        let mut nb = NetworkBuilder::new();
        ticker(&mut nb, "a", 4);
        ticker(&mut nb, "b", 6);
        let n = nb.build().unwrap();
        let sim = Simulator::new(&n);
        let cold = sim.clone().horizon(40).run().unwrap();

        let mut session = sim.session();
        session.run_until(12).unwrap();
        let snap = session.snapshot();
        assert_eq!(snap.time(), 12);

        let mut resumed = sim.resume(&snap).unwrap();
        resumed.run_until(40).unwrap();
        let warm = resumed.into_outcome();
        assert_eq!(warm.final_state, cold.final_state);
        assert_eq!(warm.steps, cold.steps);
        assert_eq!(warm.stop, cold.stop);
        // Suffix trace: prefix events live with the first session.
        let mut stitched: Vec<&SyncEvent> = session.trace().events().iter().collect();
        stitched.extend(warm.trace.events());
        let cold_events: Vec<&SyncEvent> = cold.trace.events().iter().collect();
        assert_eq!(stitched, cold_events);
    }

    #[test]
    fn session_restore_rewinds_and_replays() {
        let mut nb = NetworkBuilder::new();
        ticker(&mut nb, "t", 5);
        let n = nb.build().unwrap();
        let sim = Simulator::new(&n);
        let mut session = sim.session();
        session.run_until(11).unwrap();
        let snap = session.snapshot();
        session.run_until(31).unwrap();
        let first: Vec<i64> = session.trace().iter().map(|e| e.time).collect();
        assert_eq!(first, vec![5, 10, 15, 20, 25, 30]);

        session.restore(&snap).unwrap();
        assert_eq!(session.time(), 11);
        session.run_until(31).unwrap();
        // After a restore the trace holds only the replayed suffix.
        let replay: Vec<i64> = session.trace().iter().map(|e| e.time).collect();
        assert_eq!(replay, vec![15, 20, 25, 30]);
        assert_eq!(session.steps(), 6);
    }

    #[test]
    fn session_reports_quiescence_on_resume() {
        let mut nb = NetworkBuilder::new();
        let mut a = AutomatonBuilder::new("idle");
        let l0 = a.location("l0");
        let l1 = a.location("l1");
        a.edge(Edge::new(l0, l1).with_guard(Guard::when(crate::expr::Pred::ff())));
        nb.automaton(a.finish(l0));
        let n = nb.build().unwrap();
        let sim = Simulator::new(&n);
        let mut session = sim.session();
        assert_eq!(session.run_until(10).unwrap(), StopReason::Quiescent);
        let snap = session.snapshot();
        let mut resumed = sim.resume(&snap).unwrap();
        assert_eq!(resumed.run_until(100).unwrap(), StopReason::Quiescent);
        assert_eq!(resumed.time(), 100);
    }

    #[test]
    fn resume_rejects_foreign_snapshots() {
        let mut nb = NetworkBuilder::new();
        ticker(&mut nb, "t", 5);
        let n = nb.build().unwrap();
        let snap = Simulator::new(&n).session().snapshot();

        let mut nb = NetworkBuilder::new();
        ticker(&mut nb, "a", 5);
        ticker(&mut nb, "b", 7);
        let other = nb.build().unwrap();
        assert!(Simulator::new(&other).resume(&snap).is_err());
    }

    #[test]
    fn stopped_clock_does_not_trigger_guard() {
        let mut nb = NetworkBuilder::new();
        let c = nb.stopped_clock("c");
        let mut a = AutomatonBuilder::new("frozen");
        let l0 = a.location("l0");
        let l1 = a.location("l1");
        a.edge(
            Edge::new(l0, l1).with_guard(Guard::always().and_clock(ClockAtom::new(
                c,
                CmpOp::Ge,
                5,
            ))),
        );
        nb.automaton(a.finish(l0));
        let n = nb.build().unwrap();
        let out = Simulator::new(&n).horizon(100).run().unwrap();
        // The stopped clock never reaches 5.
        assert!(out.trace.is_empty());
        assert_eq!(out.stop, StopReason::Quiescent);
    }
}
