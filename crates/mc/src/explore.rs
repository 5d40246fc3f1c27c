//! Explicit-state model checking of networks of stopwatch automata.
//!
//! The explorer enumerates **all** interleavings of simultaneously enabled
//! action transitions (the source of the exponential blow-up that Table 1
//! of the paper demonstrates), with exact time successors between event
//! instants and a visited set over full states. It answers reachability
//! questions — "is a state satisfying `target` reachable within the
//! horizon?" — optionally in product with observer [`Monitor`]s, whose bad
//! locations then become the target.

use std::collections::HashSet;

use swa_nsa::semantics::{any_committed, apply, delay_bounds, enabled_transitions};
use swa_nsa::{Network, SimError, State, SyncEvent};

use crate::monitor::{Monitor, MonitorBank};

/// Number of visited-set shards (a power of two; indexed by fingerprint).
pub(crate) const SHARDS: usize = 64;

/// The sequential explorer's visited set of state fingerprints, split
/// into [`SHARDS`] tables so that a rehash copies one small table, never
/// the whole set. Peak memory then stays near the final set size, and an
/// exploration that follows another in the same process reuses the
/// freed tables: a single doubling table leaves its outgrown halves
/// resident in the allocator, so the second run's peak would exceed the
/// first's.
struct VisitedSet {
    shards: Vec<HashSet<u64>>,
    len: usize,
}

impl Default for VisitedSet {
    fn default() -> Self {
        VisitedSet {
            shards: vec![HashSet::new(); SHARDS],
            len: 0,
        }
    }
}

impl VisitedSet {
    /// Adds `fingerprint`; `true` when it was not present.
    fn insert(&mut self, fingerprint: u64) -> bool {
        let shard = usize::try_from(fingerprint).unwrap_or(0) % SHARDS;
        let fresh = self.shards[shard].insert(fingerprint);
        self.len += usize::from(fresh);
        fresh
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// Exploration statistics and verdict.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// Number of distinct states visited.
    pub states: usize,
    /// Number of transitions (action + delay) applied.
    pub transitions: u64,
    /// A state satisfying the target, if one was found.
    pub target_state: Option<State>,
    /// The run (synchronization events) leading to the target, when
    /// witness recording was enabled with [`Explorer::with_witness`].
    pub witness: Option<Vec<SyncEvent>>,
    /// Violation messages from monitors, if a monitor went bad.
    pub monitor_violations: Vec<String>,
    /// `true` if exploration stopped early because `max_states` was hit.
    pub truncated: bool,
}

impl ExploreOutcome {
    /// Whether the target (predicate or monitor violation) was reached.
    #[must_use]
    pub fn found(&self) -> bool {
        self.target_state.is_some() || !self.monitor_violations.is_empty()
    }
}

/// Breadth-first explicit-state explorer.
#[derive(Debug)]
pub struct Explorer<'n> {
    network: &'n Network,
    horizon: i64,
    max_states: usize,
    monitors: Vec<Monitor>,
    record_witness: bool,
}

impl<'n> Explorer<'n> {
    /// Creates an explorer over the network up to the given time horizon.
    #[must_use]
    pub fn new(network: &'n Network, horizon: i64) -> Self {
        Self {
            network,
            horizon,
            max_states: 50_000_000,
            monitors: Vec::new(),
            record_witness: false,
        }
    }

    /// Records the path to the target so a counterexample run can be
    /// reported. Costs `O(transitions)` extra memory; off by default.
    #[must_use]
    pub fn with_witness(mut self) -> Self {
        self.record_witness = true;
        self
    }

    /// Caps the number of states to explore (a safety valve; exceeding it
    /// sets [`ExploreOutcome::truncated`]).
    #[must_use]
    pub fn max_states(mut self, max_states: usize) -> Self {
        self.max_states = max_states;
        self
    }

    /// Attaches observer monitors; their bad locations become targets and
    /// their state joins the product state space.
    #[must_use]
    pub fn with_monitors(mut self, monitors: Vec<Monitor>) -> Self {
        self.monitors = monitors;
        self
    }

    /// Explores all runs, looking for a state satisfying `target`.
    ///
    /// Exploration is depth-first with a visited set of 64-bit state
    /// fingerprints: memory stays `O(states · 8 bytes + depth)` instead of
    /// `O(states · |state|)`. A fingerprint collision would prune a genuine
    /// state; with a 64-bit hash the probability is ~`k²/2⁶⁵` (≈ 10⁻⁵ for
    /// 20 million states) — negligible for the experiments and the usual
    /// trade-off in explicit-state checkers (bitstate/hash-compaction).
    ///
    /// # Errors
    ///
    /// Propagates evaluation/update errors from the network semantics
    /// (invariant violations on entry prune the offending successor instead
    /// of erroring, matching timed-automata semantics).
    pub fn reachable(
        &self,
        target: impl Fn(&Network, &State) -> bool,
    ) -> Result<ExploreOutcome, SimError> {
        #[derive(Clone)]
        struct Node {
            state: State,
            bank: MonitorBank,
            /// Index into the witness arena (`usize::MAX` = root).
            step: usize,
        }

        fn fingerprint(node: &Node) -> u64 {
            // Combine the state's and the monitor bank's fingerprints.
            node.state.fingerprint() ^ node.bank.fingerprint().rotate_left(17)
        }

        // Witness arena: (parent step index, the event taken).
        let mut arena: Vec<(usize, Option<SyncEvent>)> = Vec::new();
        let reconstruct = |arena: &[(usize, Option<SyncEvent>)], mut step: usize| {
            let mut events = Vec::new();
            while step != usize::MAX {
                let (parent, ref event) = arena[step];
                if let Some(e) = event {
                    events.push(e.clone());
                }
                step = parent;
            }
            events.reverse();
            events
        };

        let initial = Node {
            state: State::initial(self.network),
            bank: MonitorBank::new(self.monitors.clone()),
            step: usize::MAX,
        };

        let mut visited = VisitedSet::default();
        let mut stack: Vec<Node> = Vec::new();
        let mut transitions: u64 = 0;

        if target(self.network, &initial.state) {
            return Ok(ExploreOutcome {
                states: 1,
                transitions: 0,
                target_state: Some(initial.state),
                witness: Some(Vec::new()),
                monitor_violations: Vec::new(),
                truncated: false,
            });
        }
        visited.insert(fingerprint(&initial));
        stack.push(initial);

        while let Some(node) = stack.pop() {
            if visited.len() >= self.max_states {
                return Ok(ExploreOutcome {
                    states: visited.len(),
                    transitions,
                    target_state: None,
                    witness: None,
                    monitor_violations: Vec::new(),
                    truncated: true,
                });
            }
            if node.state.time >= self.horizon {
                // Path ends here: reveal any pending sojourn violation that
                // no further event would have surfaced.
                let mut bank = node.bank;
                bank.finalize(node.state.time);
                if bank.any_violation() {
                    return Ok(ExploreOutcome {
                        states: visited.len(),
                        transitions,
                        target_state: Some(node.state),
                        witness: self.record_witness.then(|| reconstruct(&arena, node.step)),
                        monitor_violations: bank.violations(),
                        truncated: false,
                    });
                }
                continue;
            }

            let candidates = enabled_transitions(self.network, &node.state)?;
            if candidates.is_empty() {
                if any_committed(self.network, &node.state) {
                    // Committed deadlock: no successors in this branch.
                    let mut bank = node.bank;
                    bank.finalize(node.state.time);
                    if bank.any_violation() {
                        return Ok(ExploreOutcome {
                            states: visited.len(),
                            transitions,
                            target_state: Some(node.state),
                            witness: self.record_witness.then(|| reconstruct(&arena, node.step)),
                            monitor_violations: bank.violations(),
                            truncated: false,
                        });
                    }
                    continue;
                }
                // Unique delay successor.
                let bounds = delay_bounds(self.network, &node.state)?;
                let remaining = self.horizon - node.state.time;
                let delay = match bounds.next_enabling {
                    Some(d) if bounds.max_delay.is_none_or(|m| d <= m) => d.min(remaining),
                    _ => match bounds.max_delay {
                        None => remaining,
                        Some(m) if m >= remaining => remaining,
                        // Time lock: prune the branch.
                        Some(_) => continue,
                    },
                };
                if delay <= 0 {
                    continue;
                }
                let mut succ = node;
                if self.record_witness {
                    arena.push((succ.step, None));
                    succ.step = arena.len() - 1;
                }
                succ.state.advance(delay);
                transitions += 1;
                if target(self.network, &succ.state) {
                    let witness = self.record_witness.then(|| reconstruct(&arena, succ.step));
                    return Ok(self.outcome_found(
                        visited.len() + 1,
                        transitions,
                        succ.state,
                        witness,
                    ));
                }
                if visited.insert(fingerprint(&succ)) {
                    stack.push(succ);
                }
                continue;
            }

            let last = candidates.len() - 1;
            for (i, t) in candidates.into_iter().enumerate() {
                // Reuse the node allocation for the last successor.
                let mut succ = if i == last {
                    Node {
                        state: node.state.clone(),
                        bank: node.bank.clone(),
                        step: node.step,
                    }
                } else {
                    node.clone()
                };
                match apply(self.network, &mut succ.state, &t) {
                    Ok(()) => {}
                    // Entering a location whose invariant fails is simply
                    // not allowed (timed-automata semantics): prune.
                    Err(SimError::InvariantViolated { .. }) => continue,
                    Err(e) => return Err(e),
                }
                transitions += 1;
                let event = SyncEvent {
                    time: succ.state.time,
                    transition: t,
                };
                if self.record_witness {
                    arena.push((succ.step, Some(event.clone())));
                    succ.step = arena.len() - 1;
                }
                succ.bank
                    .step(self.network, &event, &succ.state)
                    .map_err(SimError::Eval)?;
                if succ.bank.any_violation() {
                    return Ok(ExploreOutcome {
                        states: visited.len() + 1,
                        transitions,
                        target_state: Some(succ.state),
                        witness: self.record_witness.then(|| reconstruct(&arena, succ.step)),
                        monitor_violations: succ.bank.violations(),
                        truncated: false,
                    });
                }
                if target(self.network, &succ.state) {
                    let witness = self.record_witness.then(|| reconstruct(&arena, succ.step));
                    return Ok(self.outcome_found(
                        visited.len() + 1,
                        transitions,
                        succ.state,
                        witness,
                    ));
                }
                if visited.insert(fingerprint(&succ)) {
                    stack.push(succ);
                }
            }
        }

        Ok(ExploreOutcome {
            states: visited.len(),
            transitions,
            target_state: None,
            witness: None,
            monitor_violations: Vec::new(),
            truncated: false,
        })
    }

    fn outcome_found(
        &self,
        states: usize,
        transitions: u64,
        state: State,
        witness: Option<Vec<SyncEvent>>,
    ) -> ExploreOutcome {
        ExploreOutcome {
            states,
            transitions,
            target_state: Some(state),
            witness,
            monitor_violations: Vec::new(),
            truncated: false,
        }
    }

    /// Explores the full reachable state space (no target). Returns the
    /// outcome with monitor verdicts; useful for counting states and for
    /// "bad location unreachable" proofs.
    ///
    /// # Errors
    ///
    /// As [`reachable`](Self::reachable).
    pub fn explore_all(&self) -> Result<ExploreOutcome, SimError> {
        self.reachable(|_, _| false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swa_nsa::automaton::{AutomatonBuilder, Edge};
    use swa_nsa::expr::{CmpOp, IntExpr};
    use swa_nsa::guard::{ClockAtom, Guard, Invariant};
    use swa_nsa::network::NetworkBuilder;
    use swa_nsa::update::Update;
    use swa_nsa::VarId;

    /// N independent automata that each take one internal step at t=0:
    /// the interleavings form all orderings, but distinct states number
    /// 2^N (each automaton done or not).
    fn independent_steppers(n: usize) -> Network {
        let mut nb = NetworkBuilder::new();
        for i in 0..n {
            let mut b = AutomatonBuilder::new(format!("a{i}"));
            let l0 = b.location("l0");
            let l1 = b.location("l1");
            b.edge(Edge::new(l0, l1));
            nb.automaton(b.finish(l0));
        }
        nb.build().unwrap()
    }

    #[test]
    fn visited_set_counts_distinct_fingerprints_across_shards() {
        let mut visited = VisitedSet::default();
        let fingerprints: Vec<u64> = (0..1000u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        for &fp in &fingerprints {
            assert!(visited.insert(fp));
        }
        for &fp in &fingerprints {
            assert!(!visited.insert(fp));
        }
        assert_eq!(visited.len(), fingerprints.len());
        assert!(visited.shards.iter().filter(|s| !s.is_empty()).count() > 1);
    }

    #[test]
    fn explores_all_interleavings() {
        let n = independent_steppers(3);
        let out = Explorer::new(&n, 10).explore_all().unwrap();
        // 2^3 subsets of "who already moved" plus the final state at the
        // horizon after the delay.
        assert!(!out.found());
        assert_eq!(out.states, 9);
    }

    #[test]
    fn state_count_grows_exponentially() {
        let mut prev = 0;
        for n in 1..=6 {
            let net = independent_steppers(n);
            let out = Explorer::new(&net, 10).explore_all().unwrap();
            assert!(out.states > prev);
            prev = out.states;
        }
        // 2^6 + 1.
        assert_eq!(prev, 65);
    }

    #[test]
    fn finds_reachable_variable_assignment() {
        let mut nb = NetworkBuilder::new();
        let v = nb.var("x", 0, 0, 5);
        let c = nb.clock("c");
        let mut b = AutomatonBuilder::new("counter");
        let l0 = b.location_with_invariant("l0", Invariant::upper_bound(c, 1));
        b.edge(
            Edge::new(l0, l0)
                .with_guard(Guard::always().and_clock(ClockAtom::new(c, CmpOp::Ge, 1)))
                .with_updates([
                    Update::set(v, IntExpr::var(v) + IntExpr::lit(1)),
                    Update::ResetClock(c),
                ]),
        );
        nb.automaton(b.finish(l0));
        let n = nb.build().unwrap();
        let out = Explorer::new(&n, 100)
            .reachable(|_, s| s.vars[0] == 3)
            .unwrap();
        assert!(out.found());
        assert_eq!(out.target_state.unwrap().time, 3);
    }

    #[test]
    fn unreachable_target_reports_not_found() {
        let n = independent_steppers(2);
        let out = Explorer::new(&n, 10)
            .reachable(|_, s| s.time > 100)
            .unwrap();
        assert!(!out.found());
    }

    #[test]
    fn truncation_is_reported() {
        let n = independent_steppers(10);
        let out = Explorer::new(&n, 10).max_states(5).explore_all().unwrap();
        assert!(out.truncated);
    }

    #[test]
    fn respects_variable_values_in_visited_set() {
        // Two automata both incrementing a shared variable: interleavings
        // commute, so the state count stays small, but the final value must
        // be reachable.
        let mut nb = NetworkBuilder::new();
        let v = nb.var("x", 0, 0, 10);
        for i in 0..2 {
            let mut b = AutomatonBuilder::new(format!("inc{i}"));
            let l0 = b.location("l0");
            let l1 = b.location("l1");
            b.edge(Edge::new(l0, l1).with_update(Update::set(
                VarId::from_raw(0),
                IntExpr::var(v) + IntExpr::lit(1),
            )));
            nb.automaton(b.finish(l0));
        }
        let n = nb.build().unwrap();
        let out = Explorer::new(&n, 5)
            .reachable(|_, s| s.vars[0] == 2)
            .unwrap();
        assert!(out.found());
    }
}

#[cfg(test)]
mod witness_tests {
    use super::*;
    use swa_nsa::automaton::{AutomatonBuilder, Edge};
    use swa_nsa::expr::IntExpr;
    use swa_nsa::network::NetworkBuilder;
    use swa_nsa::update::Update;
    use swa_nsa::VarId;

    /// Counter that increments once per time unit, up to 5.
    fn counter_network() -> Network {
        let mut nb = NetworkBuilder::new();
        let v = nb.var("x", 0, 0, 5);
        let c = nb.clock("c");
        let mut b = AutomatonBuilder::new("counter");
        let l0 = b.location_with_invariant("l0", swa_nsa::Invariant::upper_bound(c, 1));
        b.edge(
            Edge::new(l0, l0)
                .with_guard(
                    swa_nsa::Guard::when(IntExpr::var(v).lt(5)).and_clock(swa_nsa::ClockAtom::new(
                        c,
                        swa_nsa::CmpOp::Ge,
                        1,
                    )),
                )
                .with_updates([
                    Update::set(v, IntExpr::var(v) + IntExpr::lit(1)),
                    Update::ResetClock(c),
                ])
                .with_label("inc"),
        );
        nb.automaton(b.finish(l0));
        let _ = VarId::from_raw(0);
        nb.build().unwrap()
    }

    #[test]
    fn witness_reconstructs_the_path() {
        let n = counter_network();
        let out = Explorer::new(&n, 100)
            .with_witness()
            .reachable(|_, s| s.vars[0] == 3)
            .unwrap();
        assert!(out.found());
        let witness = out.witness.expect("witness recorded");
        // Three increments, at t = 1, 2, 3.
        let times: Vec<i64> = witness.iter().map(|e| e.time).collect();
        assert_eq!(times, vec![1, 2, 3]);
        // Replaying the witness yields the target state.
        let mut state = State::initial(&n);
        for e in &witness {
            state.advance(e.time - state.time);
            apply(&n, &mut state, &e.transition).unwrap();
        }
        assert_eq!(state.vars[0], 3);
    }

    #[test]
    fn witness_absent_when_not_requested_or_not_found() {
        let n = counter_network();
        let out = Explorer::new(&n, 100)
            .reachable(|_, s| s.vars[0] == 3)
            .unwrap();
        assert!(out.found());
        assert!(out.witness.is_none());

        let out = Explorer::new(&n, 100)
            .with_witness()
            .reachable(|_, s| s.vars[0] == 99)
            .unwrap();
        assert!(!out.found());
        assert!(out.witness.is_none());
    }
}
