//! Failure forensics: structured, explainable diagnoses for simulation
//! failures.
//!
//! The paper's approach rests on *one* deterministic run per configuration,
//! so a single opaque `deadlock at t=…` kills a whole analysis with no way
//! to see which guard, invariant or channel blocked progress. When the
//! simulator hits a [`SimError::TimeLock`], [`SimError::CommittedDeadlock`]
//! or [`SimError::ZenoViolation`], [`Diagnosis::capture`] records the full
//! location vector, every clock valuation (frozen or running) and — for
//! every automaton — the outgoing edges that were considered, each with the
//! *first failing guard conjunct* (reusing the bytecode engine's
//! short-circuit position, so both engines name the same atom), the expired
//! invariant, or the missing binary-channel partner. For Zeno runs the
//! repeating edge cycle at the stuck instant is extracted from the trace
//! tail.
//!
//! Everything in a [`Diagnosis`] is resolved to owned strings at capture
//! time, so it outlives the network and renders without further lookups.

use std::fmt;

use crate::automaton::Sync;
use crate::bytecode::{self, EvalEngine, GuardConjunct};
use crate::error::SimError;
use crate::ids::{AutomatonId, EdgeId};
use crate::network::{ChannelKind, Network};
use crate::semantics::any_committed;
use crate::state::{EnvView, State};
use crate::trace::NsaTrace;

/// What kind of failure the diagnosis explains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiagnosisKind {
    /// An invariant expires before any transition can fire.
    TimeLock,
    /// A committed location has no enabled outgoing transition.
    CommittedDeadlock,
    /// Action transitions fire forever without time advancing.
    Zeno,
}

impl fmt::Display for DiagnosisKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TimeLock => write!(f, "time lock"),
            Self::CommittedDeadlock => write!(f, "committed deadlock"),
            Self::Zeno => write!(f, "Zeno run"),
        }
    }
}

/// One clock's valuation at the moment of failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClockSnapshot {
    /// Clock name.
    pub name: String,
    /// Current value.
    pub value: i64,
    /// Whether the clock was running (stopwatches freeze when stopped).
    pub running: bool,
}

/// Why one considered edge could not (or, for Zeno, could) fire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockReason {
    /// A clock-free conjunct failed. `index` is the short-circuit position
    /// in the flattened conjunction — identical under both eval engines.
    FailedPred {
        /// Position among the flattened clock-free conjuncts.
        index: usize,
        /// The failing conjunct, rendered.
        pred: String,
    },
    /// A clock atom failed. `index` counts within the guard's clock atoms
    /// (evaluated after all clock-free conjuncts, in declaration order).
    FailedClockAtom {
        /// Position among the guard's clock atoms.
        index: usize,
        /// The failing atom, rendered.
        atom: String,
        /// Delays after which the atom would hold (`None`: never).
        enabled_in: Option<String>,
    },
    /// The guard holds, but no receiver on the binary channel is ready.
    NoBinaryPartner {
        /// The channel awaiting a partner.
        channel: String,
    },
    /// A receiving edge whose guard holds; it waits for a sender.
    AwaitsSender {
        /// The channel awaiting a sender.
        channel: String,
    },
    /// Enabled, but outranked by committed-location priority.
    CommittedPriority,
    /// Fully enabled (in a Zeno diagnosis: fires repeatedly).
    Enabled,
    /// Evaluating the guard itself failed.
    EvalFailed {
        /// The evaluation error, rendered.
        error: String,
    },
}

impl fmt::Display for BlockReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::FailedPred { index, pred } => {
                write!(f, "blocked by conjunct #{index} `{pred}`")
            }
            Self::FailedClockAtom {
                index,
                atom,
                enabled_in,
            } => {
                write!(f, "blocked by clock atom #{index} `{atom}`")?;
                match enabled_in {
                    Some(w) => write!(f, " (would hold after delay {w})"),
                    None => write!(f, " (can never hold from here)"),
                }
            }
            Self::NoBinaryPartner { channel } => {
                write!(
                    f,
                    "guard holds but no receiver is ready on channel {channel:?}"
                )
            }
            Self::AwaitsSender { channel } => {
                write!(f, "receive edge awaiting a sender on channel {channel:?}")
            }
            Self::CommittedPriority => {
                write!(f, "enabled but outranked by a committed location")
            }
            Self::Enabled => write!(f, "enabled"),
            Self::EvalFailed { error } => write!(f, "guard evaluation failed: {error}"),
        }
    }
}

/// One outgoing edge of a stuck automaton, with the verdict on why it did
/// not resolve the failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeDiagnosis {
    /// The edge id within its automaton.
    pub edge: EdgeId,
    /// Rendered edge: `from -> to [label] channel!/?`.
    pub description: String,
    /// Why the edge could not (or, for Zeno, could) fire.
    pub reason: BlockReason,
}

/// The situation of one automaton at the moment of failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AutomatonDiagnosis {
    /// The automaton's id.
    pub automaton: AutomatonId,
    /// The automaton's name.
    pub name: String,
    /// Name of the current location.
    pub location: String,
    /// Whether the current location is committed.
    pub committed: bool,
    /// The current location's invariant, rendered (`None` when trivial).
    pub invariant: Option<String>,
    /// Maximal delay the invariant admits: `Some(-1)` means a stopped
    /// clock already violates it, `None` means unbounded.
    pub invariant_slack: Option<i64>,
    /// Every outgoing edge of the current location, in canonical order.
    pub edges: Vec<EdgeDiagnosis>,
}

/// A structured, self-contained explanation of a simulation failure.
///
/// Captured by [`crate::sim::Simulator::run_explained`]; rendered with
/// [`Diagnosis::render`]. All names are resolved at capture time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnosis {
    /// The failure class.
    pub kind: DiagnosisKind,
    /// Model time of the failure.
    pub time: i64,
    /// The automaton named by the error (the expiring invariant's owner
    /// for a time lock, the stuck committed automaton for a deadlock).
    pub blocking: Option<String>,
    /// The full location vector: `(automaton, location)` names in
    /// automaton order.
    pub locations: Vec<(String, String)>,
    /// Every clock's valuation.
    pub clocks: Vec<ClockSnapshot>,
    /// Per-automaton situation, in automaton order.
    pub automata: Vec<AutomatonDiagnosis>,
    /// For Zeno runs: the repeating edge cycle at the stuck instant
    /// (rendered events, shortest period first-to-last). Empty when the
    /// trace was not recorded or no repetition was found.
    pub zeno_cycle: Vec<String>,
}

impl Diagnosis {
    /// Captures a diagnosis for `error` in `state`, or `None` for error
    /// kinds forensics do not cover (evaluation failures, domain or
    /// invariant violations, overflow).
    #[must_use]
    pub fn capture(
        network: &Network,
        state: &State,
        trace: &NsaTrace,
        error: &SimError,
        engine: EvalEngine,
    ) -> Option<Self> {
        let (kind, time, named) = match error {
            SimError::TimeLock { time, automaton } => {
                (DiagnosisKind::TimeLock, *time, Some(*automaton))
            }
            SimError::CommittedDeadlock { automaton, time } => {
                (DiagnosisKind::CommittedDeadlock, *time, Some(*automaton))
            }
            SimError::ZenoViolation { time, .. } => (DiagnosisKind::Zeno, *time, None),
            _ => return None,
        };

        let committed_somewhere = any_committed(network, state);
        let mut locations = Vec::with_capacity(network.automata().len());
        let mut automata = Vec::with_capacity(network.automata().len());
        for (i, a) in network.automata().iter().enumerate() {
            let aid = AutomatonId::from_raw(u32::try_from(i).unwrap_or(u32::MAX));
            let lid = state.location_of(aid);
            let loc = a.location(lid);
            locations.push((a.name.clone(), loc.name.clone()));

            let invariant = if loc.invariant.atoms.is_empty() {
                None
            } else {
                Some(loc.invariant.to_string())
            };
            let invariant_slack = bytecode::invariant_max_delay(network, engine, aid, lid, state)
                .ok()
                .flatten();
            let edges = network
                .outgoing_edges(aid, lid)
                .iter()
                .map(|&eid| EdgeDiagnosis {
                    edge: eid,
                    description: describe_edge(network, aid, eid),
                    reason: edge_block_reason(
                        network,
                        engine,
                        aid,
                        eid,
                        state,
                        committed_somewhere && !loc.committed,
                    ),
                })
                .collect();
            automata.push(AutomatonDiagnosis {
                automaton: aid,
                name: a.name.clone(),
                location: loc.name.clone(),
                committed: loc.committed,
                invariant,
                invariant_slack,
                edges,
            });
        }

        let clocks = network
            .clocks()
            .iter()
            .zip(state.iter_clocks())
            .map(|(decl, cv)| ClockSnapshot {
                name: decl.name.clone(),
                value: cv.value,
                running: cv.running,
            })
            .collect();

        let zeno_cycle = if kind == DiagnosisKind::Zeno {
            zeno_cycle(network, trace, time)
        } else {
            Vec::new()
        };

        Some(Self {
            kind,
            time,
            blocking: named.map(|aid| network.automaton(aid).name.clone()),
            locations,
            clocks,
            automata,
            zeno_cycle,
        })
    }

    /// Renders the diagnosis as an indented multi-line report.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "{} at time {}", self.kind, self.time);
        if let Some(b) = &self.blocking {
            let _ = write!(out, " (blocking automaton: {b})");
        }
        out.push('\n');

        let locs: Vec<String> = self
            .locations
            .iter()
            .map(|(a, l)| format!("{a}@{l}"))
            .collect();
        let _ = writeln!(out, "  locations: {}", locs.join(" "));

        if !self.clocks.is_empty() {
            let cs: Vec<String> = self
                .clocks
                .iter()
                .map(|c| {
                    format!(
                        "{}={}{}",
                        c.name,
                        c.value,
                        if c.running { "" } else { " (frozen)" }
                    )
                })
                .collect();
            let _ = writeln!(out, "  clocks: {}", cs.join(" "));
        }

        for a in &self.automata {
            let _ = write!(out, "  automaton {} @ {}", a.name, a.location);
            if a.committed {
                out.push_str(" [committed]");
            }
            if let Some(inv) = &a.invariant {
                let _ = write!(out, " invariant `{inv}`");
                match a.invariant_slack {
                    Some(s) if s < 0 => out.push_str(" VIOLATED (frozen clock past bound)"),
                    Some(0) => out.push_str(" EXPIRED"),
                    Some(s) => {
                        let _ = write!(out, " (expires in {s})");
                    }
                    None => {}
                }
            }
            out.push('\n');
            if a.edges.is_empty() {
                let _ = writeln!(out, "    (no outgoing edges)");
            }
            for e in &a.edges {
                let _ = writeln!(out, "    edge {}: {}", e.description, e.reason);
            }
        }

        if !self.zeno_cycle.is_empty() {
            let _ = writeln!(
                out,
                "  repeating cycle ({} event(s) per period):",
                self.zeno_cycle.len()
            );
            for ev in &self.zeno_cycle {
                let _ = writeln!(out, "    {ev}");
            }
        }
        out
    }
}

impl fmt::Display for Diagnosis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// A [`SimError`] together with its forensic [`Diagnosis`].
///
/// Returned by [`crate::sim::Simulator::run_explained`]; `diagnosis` is
/// `None` for error kinds forensics do not cover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplainedError {
    /// The underlying simulation error.
    pub error: SimError,
    /// The structured explanation, when available.
    pub diagnosis: Option<Box<Diagnosis>>,
}

impl fmt::Display for ExplainedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.error)?;
        if let Some(d) = &self.diagnosis {
            write!(f, "\n{}", d.render())?;
        }
        Ok(())
    }
}

impl std::error::Error for ExplainedError {}

impl From<ExplainedError> for SimError {
    fn from(e: ExplainedError) -> Self {
        e.error
    }
}

/// Renders an edge as `from -> to [label] channel!/?`.
fn describe_edge(network: &Network, aid: AutomatonId, eid: EdgeId) -> String {
    let a = network.automaton(aid);
    let e = a.edge(eid);
    let mut s = format!("{} -> {}", a.location(e.from).name, a.location(e.to).name);
    if !e.label.is_empty() {
        s.push_str(&format!(" [{}]", e.label));
    }
    match e.sync {
        Sync::Internal => {}
        Sync::Send(ch) => s.push_str(&format!(" {}!", network.channels()[ch.index()].name)),
        Sync::Recv(ch) => s.push_str(&format!(" {}?", network.channels()[ch.index()].name)),
    }
    s
}

/// Decides why an edge did not fire (or that it could), naming the first
/// failing guard conjunct through the engines' shared short-circuit order.
fn edge_block_reason(
    network: &Network,
    engine: EvalEngine,
    aid: AutomatonId,
    eid: EdgeId,
    state: &State,
    blocked_by_committed: bool,
) -> BlockReason {
    let edge = network.automaton(aid).edge(eid);
    match bytecode::guard_first_failing(network, engine, aid, eid, state) {
        Err(e) => BlockReason::EvalFailed {
            error: e.to_string(),
        },
        Ok(Some(GuardConjunct::Pred(i))) => {
            let flat = bytecode::flatten_preds(&edge.guard.preds);
            BlockReason::FailedPred {
                index: i,
                pred: flat.get(i).map_or_else(String::new, ToString::to_string),
            }
        }
        Ok(Some(GuardConjunct::ClockAtom(i))) => {
            let atom = &edge.guard.clock_atoms[i];
            let view = EnvView { network, state };
            let enabled_in = atom
                .delay_window(&view, &view)
                .ok()
                .flatten()
                .map(|w| w.to_string());
            BlockReason::FailedClockAtom {
                index: i,
                atom: atom.to_string(),
                enabled_in,
            }
        }
        Ok(None) => match edge.sync {
            Sync::Recv(ch) => BlockReason::AwaitsSender {
                channel: network.channels()[ch.index()].name.clone(),
            },
            Sync::Send(ch) if network.channels()[ch.index()].kind == ChannelKind::Binary => {
                if binary_partner_ready(network, engine, aid, ch, state) {
                    enabled_or_outranked(blocked_by_committed)
                } else {
                    BlockReason::NoBinaryPartner {
                        channel: network.channels()[ch.index()].name.clone(),
                    }
                }
            }
            Sync::Send(_) | Sync::Internal => enabled_or_outranked(blocked_by_committed),
        },
    }
}

fn enabled_or_outranked(blocked_by_committed: bool) -> BlockReason {
    if blocked_by_committed {
        BlockReason::CommittedPriority
    } else {
        BlockReason::Enabled
    }
}

/// Whether any automaton other than `sender` has an enabled receiving edge
/// on the binary channel `ch` from its current location.
fn binary_partner_ready(
    network: &Network,
    engine: EvalEngine,
    sender: AutomatonId,
    ch: crate::ids::ChannelId,
    state: &State,
) -> bool {
    network.receivers_on(ch).iter().any(|&(bid, reid)| {
        bid != sender
            && network.automaton(bid).edge(reid).from == state.location_of(bid)
            && bytecode::guard_holds(network, engine, bid, reid, state).unwrap_or(false)
    })
}

/// How many trailing same-instant trace events the Zeno cycle search
/// examines. The Zeno bound can be millions of steps; the period of the
/// repeating cycle is tiny in practice, so a bounded tail suffices.
const ZENO_TAIL: usize = 256;

/// Extracts the shortest repeating event cycle at the stuck instant from
/// the trace tail, rendered. Empty when no repetition is visible (e.g. the
/// trace was not recorded).
fn zeno_cycle(network: &Network, trace: &NsaTrace, time: i64) -> Vec<String> {
    let events = trace.events();
    let tail_start = events
        .iter()
        .rposition(|e| e.time != time)
        .map_or(0, |i| i + 1);
    let tail = &events[tail_start..];
    let tail = &tail[tail.len().saturating_sub(ZENO_TAIL)..];
    if tail.is_empty() {
        return Vec::new();
    }
    // Smallest period p such that the last p events repeat the p before
    // them: the steady-state loop the run was stuck in.
    for p in 1..=tail.len() / 2 {
        let (a, b) = (
            &tail[tail.len() - p..],
            &tail[tail.len() - 2 * p..tail.len() - p],
        );
        if a.iter()
            .zip(b)
            .all(|(x, y)| x.transition.participants().eq(y.transition.participants()))
        {
            return a.iter().map(|e| e.render(network)).collect();
        }
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::{AutomatonBuilder, Edge};
    use crate::expr::{CmpOp, IntExpr};
    use crate::guard::{ClockAtom, Guard, Invariant};
    use crate::network::NetworkBuilder;
    use crate::sim::Simulator;

    const ENGINES: [EvalEngine; 2] = [EvalEngine::Ast, EvalEngine::Bytecode];

    /// Time lock via a failed clock atom: invariant forces action by t=5,
    /// the only edge needs c >= 10.
    fn guard_atom_fixture() -> Network {
        let mut nb = NetworkBuilder::new();
        let c = nb.clock("c");
        let mut a = AutomatonBuilder::new("stuck");
        let l0 = a.location_with_invariant("l0", Invariant::upper_bound(c, 5));
        let l1 = a.location("l1");
        a.edge(
            Edge::new(l0, l1)
                .with_guard(Guard::always().and_clock(ClockAtom::new(c, CmpOp::Ge, 10)))
                .with_label("go"),
        );
        nb.automaton(a.finish(l0));
        nb.build().unwrap()
    }

    fn explain(network: &Network, engine: EvalEngine) -> Diagnosis {
        let err = Simulator::new(network)
            .horizon(100)
            .max_steps_per_instant(100)
            .engine(engine)
            .run_explained()
            .unwrap_err();
        *err.diagnosis.expect("diagnosis captured")
    }

    #[test]
    fn failed_guard_atom_is_named_under_both_engines() {
        let n = guard_atom_fixture();
        for engine in ENGINES {
            let d = explain(&n, engine);
            assert_eq!(d.kind, DiagnosisKind::TimeLock, "{engine:?}");
            assert_eq!(d.blocking.as_deref(), Some("stuck"));
            assert_eq!(d.automata.len(), 1);
            let a = &d.automata[0];
            assert_eq!(a.name, "stuck");
            assert_eq!(a.location, "l0");
            assert_eq!(a.invariant_slack, Some(5));
            assert_eq!(a.edges.len(), 1);
            let e = &a.edges[0];
            assert!(e.description.contains("l0 -> l1"), "{}", e.description);
            assert!(e.description.contains("[go]"), "{}", e.description);
            match &e.reason {
                BlockReason::FailedClockAtom {
                    index,
                    atom,
                    enabled_in,
                } => {
                    assert_eq!(*index, 0);
                    assert!(atom.contains(">= 10"), "{atom}");
                    assert!(
                        enabled_in.as_deref().is_some_and(|w| w.contains("10")),
                        "{enabled_in:?}"
                    );
                }
                other => panic!("expected FailedClockAtom, got {other:?}"),
            }
        }
    }

    #[test]
    fn both_engines_produce_identical_diagnoses() {
        let n = guard_atom_fixture();
        assert_eq!(
            explain(&n, EvalEngine::Ast),
            explain(&n, EvalEngine::Bytecode)
        );
    }

    #[test]
    fn failed_pred_conjunct_is_named_first() {
        // Guard = (flag == 1) && (c >= 10): the clock-free conjunct fails
        // first in the shared short-circuit order, so it is the one named.
        let mut nb = NetworkBuilder::new();
        let flag = nb.flag("flag", false);
        let c = nb.clock("c");
        let mut a = AutomatonBuilder::new("stuck");
        let l0 = a.location_with_invariant("l0", Invariant::upper_bound(c, 5));
        let l1 = a.location("l1");
        a.edge(Edge::new(l0, l1).with_guard(
            Guard::when(IntExpr::var(flag).eq(1)).and_clock(ClockAtom::new(c, CmpOp::Ge, 10)),
        ));
        nb.automaton(a.finish(l0));
        let n = nb.build().unwrap();
        for engine in ENGINES {
            let d = explain(&n, engine);
            match &d.automata[0].edges[0].reason {
                BlockReason::FailedPred { index, pred } => {
                    assert_eq!(*index, 0, "{engine:?}");
                    assert!(pred.contains("v0"), "{pred}");
                }
                other => panic!("expected FailedPred, got {other:?}"),
            }
        }
    }

    #[test]
    fn expired_invariant_is_named_under_both_engines() {
        // The bounded automaton has no way out: its invariant is the
        // diagnosis, and the edgeless location renders as such.
        let mut nb = NetworkBuilder::new();
        let c = nb.clock("c");
        let mut a = AutomatonBuilder::new("bounded");
        let l0 = a.location_with_invariant("l0", Invariant::upper_bound(c, 5));
        nb.automaton(a.finish(l0));
        let mut b = AutomatonBuilder::new("free");
        let m0 = b.location("m0");
        nb.automaton(b.finish(m0));
        let n = nb.build().unwrap();
        for engine in ENGINES {
            let d = explain(&n, engine);
            assert_eq!(d.kind, DiagnosisKind::TimeLock, "{engine:?}");
            assert_eq!(d.blocking.as_deref(), Some("bounded"));
            let a = &d.automata[0];
            assert_eq!(a.invariant.as_deref(), Some("c0 <= 5"));
            assert!(a.edges.is_empty());
            // The unconstrained automaton is reported without an invariant.
            assert_eq!(d.automata[1].invariant, None);
            let text = d.render();
            assert!(text.contains("bounded"), "{text}");
            assert!(text.contains("c0 <= 5"), "{text}");
        }
    }

    #[test]
    fn missing_binary_partner_is_named_under_both_engines() {
        // Sender is committed and its send edge's guard holds, but the only
        // receiver sits in a location without a receive edge.
        let mut nb = NetworkBuilder::new();
        let ch = nb.binary_channel("go");
        let mut a = AutomatonBuilder::new("sender");
        let l0 = a.committed_location("l0");
        let l1 = a.location("l1");
        a.edge(
            Edge::new(l0, l1)
                .with_sync(crate::automaton::Sync::Send(ch))
                .with_label("send"),
        );
        nb.automaton(a.finish(l0));
        let mut b = AutomatonBuilder::new("receiver");
        let m0 = b.location("m0");
        let m1 = b.location("m1");
        b.edge(Edge::new(m0, m1));
        let m2 = b.location("m2");
        b.edge(Edge::new(m1, m2).with_sync(crate::automaton::Sync::Recv(ch)));
        nb.automaton(b.finish(m0));
        let n = nb.build().unwrap();
        for engine in ENGINES {
            let err = Simulator::new(&n)
                .horizon(10)
                .engine(engine)
                .run_explained()
                .unwrap_err();
            assert!(matches!(err.error, SimError::CommittedDeadlock { .. }));
            let d = *err.diagnosis.expect("diagnosis captured");
            assert_eq!(d.kind, DiagnosisKind::CommittedDeadlock, "{engine:?}");
            assert_eq!(d.blocking.as_deref(), Some("sender"));
            let sender = &d.automata[0];
            assert!(sender.committed);
            assert_eq!(
                sender.edges[0].reason,
                BlockReason::NoBinaryPartner {
                    channel: "go".to_string()
                }
            );
            assert!(sender.edges[0].description.contains("go!"));
        }
    }

    #[test]
    fn zeno_diagnosis_extracts_repeating_cycle() {
        let mut nb = NetworkBuilder::new();
        let mut a = AutomatonBuilder::new("spin");
        let l0 = a.location("l0");
        a.edge(Edge::new(l0, l0).with_label("again"));
        nb.automaton(a.finish(l0));
        let n = nb.build().unwrap();
        for engine in ENGINES {
            let err = Simulator::new(&n)
                .horizon(10)
                .max_steps_per_instant(100)
                .engine(engine)
                .run_explained()
                .unwrap_err();
            assert!(matches!(err.error, SimError::ZenoViolation { .. }));
            let d = *err.diagnosis.expect("diagnosis captured");
            assert_eq!(d.kind, DiagnosisKind::Zeno);
            assert_eq!(d.zeno_cycle.len(), 1, "self-loop has period 1");
            assert!(d.zeno_cycle[0].contains("spin"), "{:?}", d.zeno_cycle);
            let text = d.render();
            assert!(text.contains("repeating cycle"), "{text}");
        }
    }

    #[test]
    fn generic_loop_diagnoses_like_fast_loop() {
        // A non-canonical tie-break forces the generic interpreter; the
        // diagnosis must be the same.
        let n = guard_atom_fixture();
        let err = Simulator::new(&n)
            .horizon(100)
            .tie_break(crate::sim::TieBreak::Permuted(vec![0]))
            .run_explained()
            .unwrap_err();
        let d = *err.diagnosis.expect("diagnosis captured");
        assert_eq!(d, explain(&n, EvalEngine::Bytecode));
    }

    #[test]
    fn explained_success_matches_plain_run() {
        let mut nb = NetworkBuilder::new();
        let c = nb.clock("c");
        let mut a = AutomatonBuilder::new("t");
        let l0 = a.location_with_invariant("wait", Invariant::upper_bound(c, 10));
        a.edge(
            Edge::new(l0, l0)
                .with_guard(Guard::always().and_clock(ClockAtom::new(c, CmpOp::Ge, 10)))
                .with_update(crate::update::Update::ResetClock(c)),
        );
        nb.automaton(a.finish(l0));
        let n = nb.build().unwrap();
        let plain = Simulator::new(&n).horizon(35).run().unwrap();
        let explained = Simulator::new(&n).horizon(35).run_explained().unwrap();
        assert_eq!(plain, explained);
    }

    #[test]
    fn uncovered_errors_have_no_diagnosis() {
        // Domain violation: forensics does not cover it, but the error
        // still comes through the explained API.
        let mut nb = NetworkBuilder::new();
        let v = nb.var("x", 0, 0, 1);
        let mut a = AutomatonBuilder::new("bad");
        let l0 = a.location("l0");
        let l1 = a.location("l1");
        a.edge(Edge::new(l0, l1).with_update(crate::update::Update::set(v, 7)));
        nb.automaton(a.finish(l0));
        let n = nb.build().unwrap();
        let err = Simulator::new(&n).horizon(10).run_explained().unwrap_err();
        assert!(matches!(err.error, SimError::DomainViolation { .. }));
        assert!(err.diagnosis.is_none());
        assert!(err.to_string().contains("domain"));
    }
}
