//! Operational semantics of networks of stopwatch automata: enumeration of
//! enabled action transitions, transition application, and delay bounds.
//!
//! Both the deterministic simulator ([`crate::sim`]) and the explicit-state
//! model checker (`swa-mc`) are built on these primitives: the simulator
//! always takes the *first* enabled transition in the canonical order, while
//! the model checker explores *all* of them.

use crate::automaton::Sync;

use crate::bytecode::{self, EvalEngine};
use crate::error::{EvalError, SimError};
use crate::guard::DelayWindow;
use crate::ids::{AutomatonId, ChannelId, EdgeId};
use crate::network::{ChannelKind, Network};
use crate::state::State;

/// A participant of a transition: an automaton together with the edge it
/// takes.
pub type Participant = (AutomatonId, EdgeId);

/// An enabled action transition of the network.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Transition {
    /// A single automaton takes an internal edge.
    Internal {
        /// The moving automaton and edge.
        participant: Participant,
    },
    /// Two automata synchronize on a binary channel.
    Binary {
        /// The channel.
        channel: ChannelId,
        /// Automaton/edge sending (`ch!`).
        sender: Participant,
        /// Automaton/edge receiving (`ch?`).
        receiver: Participant,
    },
    /// One sender and every ready receiver synchronize on a broadcast
    /// channel.
    Broadcast {
        /// The channel.
        channel: ChannelId,
        /// Automaton/edge sending (`ch!`).
        sender: Participant,
        /// Receiving automata/edges, in ascending automaton order.
        receivers: Vec<Participant>,
    },
}

impl Transition {
    /// The channel involved, if any.
    #[must_use]
    pub fn channel(&self) -> Option<ChannelId> {
        match self {
            Self::Internal { .. } => None,
            Self::Binary { channel, .. } | Self::Broadcast { channel, .. } => Some(*channel),
        }
    }

    /// The initiating automaton (the only automaton for internal
    /// transitions; the sender for synchronizations).
    #[must_use]
    pub fn initiator(&self) -> AutomatonId {
        match self {
            Self::Internal { participant } => participant.0,
            Self::Binary { sender, .. } | Self::Broadcast { sender, .. } => sender.0,
        }
    }

    /// All participants, sender first.
    #[must_use]
    pub fn participants(&self) -> Vec<Participant> {
        match self {
            Self::Internal { participant } => vec![*participant],
            Self::Binary {
                sender, receiver, ..
            } => vec![*sender, *receiver],
            Self::Broadcast {
                sender, receivers, ..
            } => {
                let mut v = Vec::with_capacity(1 + receivers.len());
                v.push(*sender);
                v.extend_from_slice(receivers);
                v
            }
        }
    }
}

/// Returns `true` if at least one automaton is in a committed location.
#[must_use]
pub fn any_committed(network: &Network, state: &State) -> bool {
    network
        .automaton_ids()
        .zip(&state.locations)
        .any(|(a, &l)| network.is_committed(a, l))
}

fn committed_at(network: &Network, state: &State, a: AutomatonId) -> bool {
    network.is_committed(a, state.location_of(a))
}

/// A transition respects committedness if either no automaton is committed,
/// or at least one participant is committed.
fn respects_committed(network: &Network, state: &State, t: &Transition, committed: bool) -> bool {
    if !committed {
        return true;
    }
    t.participants()
        .iter()
        .any(|(a, _)| committed_at(network, state, *a))
}

/// Enumerates every action transition enabled in `state`, in the canonical
/// deterministic order: internal and send edges are scanned by ascending
/// (automaton, edge) index; binary receivers by ascending (automaton, edge)
/// index.
///
/// Target-location invariants are *not* checked here (they depend on the
/// post-state); [`apply`] reports violations.
///
/// # Errors
///
/// Propagates expression evaluation errors from guards.
pub fn enabled_transitions(network: &Network, state: &State) -> Result<Vec<Transition>, EvalError> {
    enabled_transitions_with(network, state, EvalEngine::default())
}

/// As [`enabled_transitions`], with an explicit evaluation engine.
///
/// # Errors
///
/// Propagates expression evaluation errors from guards.
pub(crate) fn enabled_transitions_with(
    network: &Network,
    state: &State,
    engine: EvalEngine,
) -> Result<Vec<Transition>, EvalError> {
    let committed = any_committed(network, state);
    let mut out = Vec::new();

    for (ai, automaton) in network.automata().iter().enumerate() {
        let aid = AutomatonId::from_raw(u32::try_from(ai).expect("automaton count fits u32"));
        let loc = state.location_of(aid);
        for &eid in network.outgoing_edges(aid, loc) {
            let edge = automaton.edge(eid);
            if !bytecode::guard_holds(network, engine, aid, eid, state)? {
                continue;
            }
            match edge.sync {
                Sync::Internal => {
                    let t = Transition::Internal {
                        participant: (aid, eid),
                    };
                    if respects_committed(network, state, &t, committed) {
                        out.push(t);
                    }
                }
                Sync::Send(ch) => match network.channels()[ch.index()].kind {
                    ChannelKind::Binary => {
                        for recv in receivers_on(network, state, ch, Some(aid), engine)? {
                            let t = Transition::Binary {
                                channel: ch,
                                sender: (aid, eid),
                                receiver: recv,
                            };
                            if respects_committed(network, state, &t, committed) {
                                out.push(t);
                            }
                        }
                    }
                    ChannelKind::Broadcast => {
                        let receivers =
                            first_receiver_per_automaton(network, state, ch, aid, engine)?;
                        let t = Transition::Broadcast {
                            channel: ch,
                            sender: (aid, eid),
                            receivers,
                        };
                        if respects_committed(network, state, &t, committed) {
                            out.push(t);
                        }
                    }
                },
                Sync::Recv(_) => {
                    // Receivers are paired from the sender side.
                }
            }
        }
    }
    Ok(out)
}

/// All enabled receiving edges on `channel`, excluding `exclude` (the
/// sender's automaton), in canonical order. Used for binary pairing.
fn receivers_on(
    network: &Network,
    state: &State,
    channel: ChannelId,
    exclude: Option<AutomatonId>,
    engine: EvalEngine,
) -> Result<Vec<Participant>, EvalError> {
    let mut out = Vec::new();
    for &(aid, eid) in network.receivers_on(channel) {
        if exclude == Some(aid) {
            continue;
        }
        let edge = network.automaton(aid).edge(eid);
        if edge.from == state.location_of(aid)
            && bytecode::guard_holds(network, engine, aid, eid, state)?
        {
            out.push((aid, eid));
        }
    }
    Ok(out)
}

/// For a broadcast: every automaton (except the sender) that has an enabled
/// receiving edge participates with its first such edge.
fn first_receiver_per_automaton(
    network: &Network,
    state: &State,
    channel: ChannelId,
    sender: AutomatonId,
    engine: EvalEngine,
) -> Result<Vec<Participant>, EvalError> {
    let mut out: Vec<Participant> = Vec::new();
    // The receiver index is in canonical (automaton, edge) order, so the
    // first hit per automaton is the lowest-indexed enabled edge.
    for &(aid, eid) in network.receivers_on(channel) {
        if aid == sender || out.last().is_some_and(|(last, _)| *last == aid) {
            continue;
        }
        let edge = network.automaton(aid).edge(eid);
        if edge.from == state.location_of(aid)
            && bytecode::guard_holds(network, engine, aid, eid, state)?
        {
            out.push((aid, eid));
        }
    }
    Ok(out)
}

/// Applies a transition to `state`: moves the participants to their target
/// locations and runs updates (sender first, then receivers in order).
///
/// # Errors
///
/// Returns [`SimError::InvariantViolated`] if a participant's target
/// invariant does not hold in the post-state, and propagates update errors.
pub fn apply(
    network: &Network,
    state: &mut State,
    transition: &Transition,
) -> Result<(), SimError> {
    apply_with(network, state, transition, EvalEngine::default())
}

/// As [`apply`], with an explicit evaluation engine.
///
/// # Errors
///
/// As [`apply`].
pub(crate) fn apply_with(
    network: &Network,
    state: &mut State,
    transition: &Transition,
    engine: EvalEngine,
) -> Result<(), SimError> {
    for (aid, eid) in transition.participants() {
        state.locations[aid.index()] = network.edge_target(aid, eid);
        bytecode::run_edge_updates(network, engine, aid, eid, state)?;
    }
    // Check invariants of all target locations in the post-state.
    for (aid, _) in transition.participants() {
        let loc = state.location_of(aid);
        if !bytecode::invariant_holds(network, engine, aid, loc, state).map_err(SimError::Eval)? {
            return Err(SimError::InvariantViolated {
                automaton: aid,
                location: loc,
                time: state.time,
            });
        }
    }
    Ok(())
}

/// Result of [`delay_bounds`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelayBounds {
    /// Largest delay admitted by all invariants (`None` = unbounded).
    /// A value of `-1` means some invariant is already violated.
    pub max_delay: Option<i64>,
    /// Smallest strictly positive delay after which some action transition's
    /// guard (and its partner's, for synchronizations) holds, ignoring the
    /// invariant bound. `None` if no delay can enable anything.
    pub next_enabling: Option<i64>,
}

/// Computes the invariant-imposed delay bound and the earliest strictly
/// positive delay enabling any action, from the current state.
///
/// Assumes no action transition is enabled *now* (the caller checks first);
/// the computation is still sound otherwise, it just ignores delay 0.
///
/// # Errors
///
/// Propagates expression evaluation errors.
pub fn delay_bounds(network: &Network, state: &State) -> Result<DelayBounds, EvalError> {
    delay_bounds_with(network, state, EvalEngine::default())
}

/// As [`delay_bounds`], with an explicit evaluation engine.
///
/// # Errors
///
/// Propagates expression evaluation errors.
pub(crate) fn delay_bounds_with(
    network: &Network,
    state: &State,
    engine: EvalEngine,
) -> Result<DelayBounds, EvalError> {
    let mut max_delay: Option<i64> = None;
    for ai in 0..network.automata().len() {
        let aid = AutomatonId::from_raw(u32::try_from(ai).expect("automaton count fits u32"));
        let loc = state.location_of(aid);
        if let Some(d) = bytecode::invariant_max_delay(network, engine, aid, loc, state)? {
            max_delay = Some(max_delay.map_or(d, |m| m.min(d)));
        }
    }

    let mut next: Option<i64> = None;
    let mut consider = |w: Option<DelayWindow>| {
        if let Some(w) = w {
            let lo = w.lo.max(1);
            if w.contains(lo) {
                next = Some(next.map_or(lo, |n| n.min(lo)));
            }
        }
    };

    for (ai, automaton) in network.automata().iter().enumerate() {
        let aid = AutomatonId::from_raw(u32::try_from(ai).expect("automaton count fits u32"));
        let loc = state.location_of(aid);
        for &eid in network.outgoing_edges(aid, loc) {
            let edge = automaton.edge(eid);
            match edge.sync {
                Sync::Internal => {
                    consider(bytecode::guard_window(network, engine, aid, eid, state)?);
                }
                Sync::Send(ch) => {
                    let sender_window = bytecode::guard_window(network, engine, aid, eid, state)?;
                    let Some(sw) = sender_window else { continue };
                    match network.channels()[ch.index()].kind {
                        ChannelKind::Broadcast => {
                            // A broadcast send is never blocked by receivers.
                            consider(Some(sw));
                        }
                        ChannelKind::Binary => {
                            // Pair with each potential receiver's window.
                            for &(bid, reid) in network.receivers_on(ch) {
                                if bid == aid {
                                    continue;
                                }
                                let redge = network.automaton(bid).edge(reid);
                                if redge.from != state.location_of(bid) {
                                    continue;
                                }
                                let rw =
                                    bytecode::guard_window(network, engine, bid, reid, state)?;
                                if let Some(rw) = rw {
                                    consider(sw.intersect(rw));
                                }
                            }
                        }
                    }
                }
                Sync::Recv(_) => {}
            }
        }
    }

    Ok(DelayBounds {
        max_delay,
        next_enabling: next,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::{AutomatonBuilder, Edge};
    use crate::expr::{CmpOp, IntExpr};
    use crate::guard::{ClockAtom, Guard, Invariant};
    use crate::network::NetworkBuilder;
    use crate::update::Update;

    #[test]
    fn internal_transition_enumeration_and_apply() {
        let mut nb = NetworkBuilder::new();
        let v = nb.var("x", 0, 0, 10);
        let mut b = AutomatonBuilder::new("a");
        let l0 = b.location("l0");
        let l1 = b.location("l1");
        b.edge(Edge::new(l0, l1).with_update(Update::set(v, 5)));
        nb.automaton(b.finish(l0));
        let n = nb.build().unwrap();
        let mut s = State::initial(&n);
        let ts = enabled_transitions(&n, &s).unwrap();
        assert_eq!(ts.len(), 1);
        apply(&n, &mut s, &ts[0]).unwrap();
        assert_eq!(s.vars[0], 5);
        assert_eq!(s.location_of(AutomatonId::from_raw(0)), l1);
        assert!(enabled_transitions(&n, &s).unwrap().is_empty());
    }

    #[test]
    fn binary_sync_pairs_sender_and_receiver() {
        let mut nb = NetworkBuilder::new();
        let ch = nb.binary_channel("go");
        let v = nb.var("x", 0, 0, 100);

        let mut b = AutomatonBuilder::new("sender");
        let s0 = b.location("s0");
        let s1 = b.location("s1");
        b.edge(
            Edge::new(s0, s1)
                .with_sync(Sync::Send(ch))
                .with_update(Update::set(v, 1)),
        );
        nb.automaton(b.finish(s0));

        let mut b = AutomatonBuilder::new("receiver");
        let r0 = b.location("r0");
        let r1 = b.location("r1");
        b.edge(
            Edge::new(r0, r1)
                .with_sync(Sync::Recv(ch))
                .with_update(Update::set(v, IntExpr::var(v) + IntExpr::lit(10))),
        );
        nb.automaton(b.finish(r0));

        let n = nb.build().unwrap();
        let mut s = State::initial(&n);
        let ts = enabled_transitions(&n, &s).unwrap();
        assert_eq!(ts.len(), 1);
        assert!(matches!(&ts[0], Transition::Binary { .. }));
        apply(&n, &mut s, &ts[0]).unwrap();
        // Sender update (x := 1) ran before receiver update (x := x + 10).
        assert_eq!(s.vars[0], 11);
    }

    #[test]
    fn send_without_receiver_blocks_on_binary() {
        let mut nb = NetworkBuilder::new();
        let ch = nb.binary_channel("go");
        let mut b = AutomatonBuilder::new("sender");
        let s0 = b.location("s0");
        let s1 = b.location("s1");
        b.edge(Edge::new(s0, s1).with_sync(Sync::Send(ch)));
        nb.automaton(b.finish(s0));
        let n = nb.build().unwrap();
        let s = State::initial(&n);
        assert!(enabled_transitions(&n, &s).unwrap().is_empty());
    }

    #[test]
    fn broadcast_collects_all_ready_receivers_and_never_blocks() {
        let mut nb = NetworkBuilder::new();
        let ch = nb.broadcast_channel("tick");
        let v = nb.var("count", 0, 0, 10);

        let mut b = AutomatonBuilder::new("sender");
        let s0 = b.location("s0");
        b.edge(Edge::new(s0, s0).with_sync(Sync::Send(ch)));
        nb.automaton(b.finish(s0));

        for name in ["r1", "r2"] {
            let mut b = AutomatonBuilder::new(name);
            let r0 = b.location("r0");
            b.edge(
                Edge::new(r0, r0)
                    .with_sync(Sync::Recv(ch))
                    .with_update(Update::set(v, IntExpr::var(v) + IntExpr::lit(1))),
            );
            nb.automaton(b.finish(r0));
        }
        // A receiver with a false guard does not participate.
        let mut b = AutomatonBuilder::new("blocked");
        let r0 = b.location("r0");
        b.edge(
            Edge::new(r0, r0)
                .with_sync(Sync::Recv(ch))
                .with_guard(Guard::when(crate::expr::Pred::ff())),
        );
        nb.automaton(b.finish(r0));

        let n = nb.build().unwrap();
        let mut s = State::initial(&n);
        let ts = enabled_transitions(&n, &s).unwrap();
        assert_eq!(ts.len(), 1);
        if let Transition::Broadcast { receivers, .. } = &ts[0] {
            assert_eq!(receivers.len(), 2);
        } else {
            panic!("expected broadcast, got {:?}", ts[0]);
        }
        apply(&n, &mut s, &ts[0]).unwrap();
        assert_eq!(s.vars[0], 2);
    }

    #[test]
    fn broadcast_takes_first_edge_when_receiver_has_duplicates() {
        let mut nb = NetworkBuilder::new();
        let ch = nb.broadcast_channel("tick");
        let v = nb.var("which", 0, 0, 10);

        let mut b = AutomatonBuilder::new("sender");
        let s0 = b.location("s0");
        b.edge(Edge::new(s0, s0).with_sync(Sync::Send(ch)));
        nb.automaton(b.finish(s0));

        // One receiver with two enabled edges on the same channel from the
        // same location: it must participate exactly once, with the
        // lower-indexed edge.
        let mut b = AutomatonBuilder::new("recv");
        let r0 = b.location("r0");
        b.edge(
            Edge::new(r0, r0)
                .with_sync(Sync::Recv(ch))
                .with_update(Update::set(v, IntExpr::lit(1))),
        );
        b.edge(
            Edge::new(r0, r0)
                .with_sync(Sync::Recv(ch))
                .with_update(Update::set(v, IntExpr::lit(2))),
        );
        nb.automaton(b.finish(r0));

        let n = nb.build().unwrap();
        let mut s = State::initial(&n);
        let ts = enabled_transitions(&n, &s).unwrap();
        assert_eq!(ts.len(), 1);
        let Transition::Broadcast { receivers, .. } = &ts[0] else {
            panic!("expected broadcast, got {:?}", ts[0]);
        };
        assert_eq!(receivers.len(), 1, "duplicate receiver must be deduplicated");
        assert_eq!(receivers[0].1.raw(), 0, "first edge in canonical order wins");
        apply(&n, &mut s, &ts[0]).unwrap();
        assert_eq!(s.vars[0], 1);
    }

    #[test]
    fn committed_location_restricts_transitions() {
        let mut nb = NetworkBuilder::new();
        let mut b = AutomatonBuilder::new("committed");
        let c0 = b.committed_location("c0");
        let c1 = b.location("c1");
        b.edge(Edge::new(c0, c1));
        nb.automaton(b.finish(c0));

        let mut b = AutomatonBuilder::new("free");
        let f0 = b.location("f0");
        let f1 = b.location("f1");
        b.edge(Edge::new(f0, f1));
        nb.automaton(b.finish(f0));

        let n = nb.build().unwrap();
        let s = State::initial(&n);
        let ts = enabled_transitions(&n, &s).unwrap();
        // Only the committed automaton may move.
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].initiator(), AutomatonId::from_raw(0));
        assert!(any_committed(&n, &s));
    }

    #[test]
    fn delay_bounds_from_invariant_and_guard() {
        let mut nb = NetworkBuilder::new();
        let c = nb.clock("c");
        let mut b = AutomatonBuilder::new("timer");
        let l0 = b.location_with_invariant("wait", Invariant::upper_bound(c, 10));
        let l1 = b.location("done");
        b.edge(
            Edge::new(l0, l1).with_guard(Guard::always().and_clock(ClockAtom::new(
                c,
                CmpOp::Ge,
                10,
            ))),
        );
        nb.automaton(b.finish(l0));
        let n = nb.build().unwrap();
        let s = State::initial(&n);
        assert!(enabled_transitions(&n, &s).unwrap().is_empty());
        let b = delay_bounds(&n, &s).unwrap();
        assert_eq!(b.max_delay, Some(10));
        assert_eq!(b.next_enabling, Some(10));
    }

    #[test]
    fn delay_bounds_binary_pair_uses_window_intersection() {
        let mut nb = NetworkBuilder::new();
        let c = nb.clock("c");
        let ch = nb.binary_channel("go");

        let mut b = AutomatonBuilder::new("sender");
        let s0 = b.location("s0");
        b.edge(
            Edge::new(s0, s0)
                .with_sync(Sync::Send(ch))
                .with_guard(Guard::always().and_clock(ClockAtom::new(c, CmpOp::Ge, 3))),
        );
        nb.automaton(b.finish(s0));

        let mut b = AutomatonBuilder::new("receiver");
        let r0 = b.location("r0");
        b.edge(
            Edge::new(r0, r0)
                .with_sync(Sync::Recv(ch))
                .with_guard(Guard::always().and_clock(ClockAtom::new(c, CmpOp::Ge, 7))),
        );
        nb.automaton(b.finish(r0));

        let n = nb.build().unwrap();
        let s = State::initial(&n);
        let b = delay_bounds(&n, &s).unwrap();
        // The pair is enabled only once both guards hold: at delay 7.
        assert_eq!(b.next_enabling, Some(7));
        assert_eq!(b.max_delay, None);
    }

    #[test]
    fn apply_rejects_invariant_violation_on_entry() {
        let mut nb = NetworkBuilder::new();
        let c = nb.clock("c");
        let mut b = AutomatonBuilder::new("bad");
        let l0 = b.location("l0");
        // Target invariant c <= 0 is violated because c is not reset.
        let l1 = b.location_with_invariant("l1", Invariant::upper_bound(c, 0));
        b.edge(Edge::new(l0, l1));
        nb.automaton(b.finish(l0));
        let n = nb.build().unwrap();
        let mut s = State::initial(&n);
        s.advance(5);
        let ts = enabled_transitions(&n, &s).unwrap();
        let err = apply(&n, &mut s, &ts[0]).unwrap_err();
        assert!(matches!(err, SimError::InvariantViolated { .. }));
    }

    #[test]
    fn transition_accessors() {
        let t = Transition::Internal {
            participant: (AutomatonId::from_raw(2), EdgeId::from_raw(1)),
        };
        assert_eq!(t.channel(), None);
        assert_eq!(t.initiator(), AutomatonId::from_raw(2));
        assert_eq!(t.participants().len(), 1);
    }
}
