//! Concrete states of a network and update application.
//!
//! A [`State`] is a tuple `⟨l̄, c̄, v̄⟩` as in the paper: a location per
//! automaton, a valuation of all clocks (value plus running flag) and a
//! valuation of all integer variables (scalars first, then array cells,
//! flattened in declaration order).
//!
//! # Data layout
//!
//! Clock valuations are stored struct-of-arrays: a contiguous
//! `Vec<i64>` of values plus a `Vec<u64>` *stopped* bitmask (bit `i` set
//! ⇔ clock `i` is frozen). Delay application is then a branchless masked
//! add over a flat slice — with a plain vectorizable add for every
//! 64-clock word whose stopped bits are all zero — and guard evaluation
//! reads cache-linear `i64`s instead of 16-byte `(value, flag)` pairs.
//! [`ClockVal`] remains the exchange type at the API boundary
//! (snapshots, diagnostics, tests).
//!
//! Invariant: bits of `stopped` at positions `>= clock count` are always
//! zero, so the derived equality/hashing over the raw words is exact.

use std::hash::{Hash, Hasher};

use crate::error::{EvalError, SimError};
use crate::expr::VarEnv;
use crate::guard::ClockEnv;
use crate::ids::{ArrayId, AutomatonId, ClockId, LocationId, VarId};
use crate::network::Network;
use crate::update::{LValue, Update};

/// Valuation of one stopwatch clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClockVal {
    /// Current value.
    pub value: i64,
    /// Whether the clock advances under delay transitions.
    pub running: bool,
}

/// A concrete state of a network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct State {
    /// Current location of each automaton, indexed by [`AutomatonId`].
    pub locations: Vec<LocationId>,
    /// Clock values, indexed by [`ClockId`] (see the module docs for the
    /// struct-of-arrays layout).
    clock_values: Vec<i64>,
    /// Stopped bitmask: bit `i` set ⇔ clock `i` is frozen. Bits past the
    /// clock count are kept zero.
    stopped: Vec<u64>,
    /// Flattened variable valuation: scalars, then array cells.
    pub vars: Vec<i64>,
    /// Model time: the value of the implicit never-stopped global clock.
    pub time: i64,
}

#[inline]
fn word_bit(i: usize) -> (usize, u64) {
    (i >> 6, 1u64 << (i & 63))
}

impl State {
    /// The initial state of a network: every automaton in its initial
    /// location, all clocks at zero, variables at their declared initial
    /// values, time zero.
    #[must_use]
    pub fn initial(network: &Network) -> Self {
        let locations = network
            .automaton_ids()
            .map(|a| network.initial_location(a))
            .collect();
        let n = network.clocks().len();
        let mut stopped = vec![0u64; n.div_ceil(64)];
        for (i, c) in network.clocks().iter().enumerate() {
            if !c.starts_running {
                let (w, b) = word_bit(i);
                stopped[w] |= b;
            }
        }
        let mut vars: Vec<i64> = network.vars().iter().map(|v| v.init).collect();
        for a in network.arrays() {
            vars.extend_from_slice(&a.init);
        }
        Self {
            locations,
            clock_values: vec![0; n],
            stopped,
            vars,
            time: 0,
        }
    }

    /// Builds a state from its parts, with clock valuations in the
    /// [`ClockVal`] exchange form (snapshot decoding, tests).
    #[must_use]
    pub fn from_parts(
        locations: Vec<LocationId>,
        clocks: Vec<ClockVal>,
        vars: Vec<i64>,
        time: i64,
    ) -> Self {
        let n = clocks.len();
        let mut clock_values = Vec::with_capacity(n);
        let mut stopped = vec![0u64; n.div_ceil(64)];
        for (i, c) in clocks.iter().enumerate() {
            clock_values.push(c.value);
            if !c.running {
                let (w, b) = word_bit(i);
                stopped[w] |= b;
            }
        }
        Self {
            locations,
            clock_values,
            stopped,
            vars,
            time,
        }
    }

    /// Current location of an automaton.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn location_of(&self, automaton: AutomatonId) -> LocationId {
        self.locations[automaton.index()]
    }

    /// Number of clocks.
    #[must_use]
    pub fn clocks_len(&self) -> usize {
        self.clock_values.len()
    }

    /// The flat clock-value slice (struct-of-arrays hot path).
    #[must_use]
    pub fn clock_values(&self) -> &[i64] {
        &self.clock_values
    }

    /// The stopped bitmask words (bit `i` set ⇔ clock `i` frozen).
    #[must_use]
    pub fn stopped_words(&self) -> &[u64] {
        &self.stopped
    }

    /// Current value of one clock.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn clock_value(&self, clock: ClockId) -> i64 {
        self.clock_values[clock.index()]
    }

    /// Whether one clock is running.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn clock_running(&self, clock: ClockId) -> bool {
        let (w, b) = word_bit(clock.index());
        debug_assert!(clock.index() < self.clock_values.len());
        self.stopped[w] & b == 0
    }

    /// One clock's valuation in exchange form.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn clock(&self, clock: ClockId) -> ClockVal {
        ClockVal {
            value: self.clock_value(clock),
            running: self.clock_running(clock),
        }
    }

    /// Iterates over all clock valuations in [`ClockId`] order.
    pub fn iter_clocks(&self) -> impl Iterator<Item = ClockVal> + '_ {
        self.clock_values.iter().enumerate().map(|(i, &value)| {
            let (w, b) = word_bit(i);
            ClockVal {
                value,
                running: self.stopped[w] & b == 0,
            }
        })
    }

    #[inline]
    pub(crate) fn reset_clock_at(&mut self, i: usize) {
        self.clock_values[i] = 0;
    }

    #[inline]
    pub(crate) fn stop_clock_at(&mut self, i: usize) {
        let (w, b) = word_bit(i);
        debug_assert!(i < self.clock_values.len());
        self.stopped[w] |= b;
    }

    #[inline]
    pub(crate) fn start_clock_at(&mut self, i: usize) {
        let (w, b) = word_bit(i);
        debug_assert!(i < self.clock_values.len());
        self.stopped[w] &= !b;
    }

    /// Advances time by `d`: all running clocks increase by `d`.
    ///
    /// The caller is responsible for having checked invariants. The loop
    /// is branchless per clock: a 64-clock word with no stopped bits takes
    /// the plain (vectorizable) add; mixed words use a masked add.
    pub fn advance(&mut self, d: i64) {
        debug_assert!(d >= 0, "negative delay {d}");
        for (chunk, &word) in self.clock_values.chunks_mut(64).zip(&self.stopped) {
            if word == 0 {
                for v in chunk {
                    *v += d;
                }
            } else {
                for (bit, v) in chunk.iter_mut().enumerate() {
                    let stopped = (word >> bit) & 1;
                    // stopped = 1 → mask 0 (frozen); stopped = 0 → mask -1.
                    #[allow(clippy::cast_possible_wrap)]
                    let mask = (stopped as i64).wrapping_sub(1);
                    *v += d & mask;
                }
            }
        }
        self.time += d;
    }

    /// Applies one update in the context of `network`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Eval`] if an expression fails to evaluate, and
    /// [`SimError::DomainViolation`] or [`SimError::ArrayDomainViolation`]
    /// if an assignment leaves the declared domain.
    pub fn apply_update(&mut self, network: &Network, update: &Update) -> Result<(), SimError> {
        match update {
            Update::Assign { target, value } => {
                let value = {
                    let view = EnvView {
                        network,
                        state: self,
                    };
                    value.eval(&view)?
                };
                match target {
                    LValue::Var(v) => {
                        let decl = &network.vars()[v.index()];
                        if value < decl.min || value > decl.max {
                            return Err(SimError::DomainViolation {
                                var: *v,
                                value,
                                domain: (decl.min, decl.max),
                            });
                        }
                        self.vars[v.index()] = value;
                    }
                    LValue::Elem(a, idx) => {
                        let index = {
                            let view = EnvView {
                                network,
                                state: self,
                            };
                            idx.eval(&view)?
                        };
                        let len = network.array_len(*a);
                        let Some(i) = usize::try_from(index).ok().filter(|i| *i < len) else {
                            return Err(SimError::Eval(EvalError::IndexOutOfBounds {
                                array: a.raw(),
                                index,
                                len,
                            }));
                        };
                        let decl = &network.arrays()[a.index()];
                        if value < decl.min || value > decl.max {
                            return Err(SimError::ArrayDomainViolation {
                                array: a.raw(),
                                index: i,
                                value,
                                domain: (decl.min, decl.max),
                            });
                        }
                        let offset = network.array_offset(*a);
                        self.vars[offset + i] = value;
                    }
                }
            }
            Update::ResetClock(c) => self.reset_clock_at(c.index()),
            Update::StopClock(c) => self.stop_clock_at(c.index()),
            Update::StartClock(c) => self.start_clock_at(c.index()),
            Update::If {
                cond,
                then,
                otherwise,
            } => {
                let holds = {
                    let view = EnvView {
                        network,
                        state: self,
                    };
                    cond.eval(&view)?
                };
                let branch = if holds { then } else { otherwise };
                for u in branch {
                    self.apply_update(network, u)?;
                }
            }
        }
        Ok(())
    }

    /// Applies a sequence of updates in order.
    ///
    /// # Errors
    ///
    /// As [`State::apply_update`].
    pub fn apply_updates(&mut self, network: &Network, updates: &[Update]) -> Result<(), SimError> {
        for u in updates {
            self.apply_update(network, u)?;
        }
        Ok(())
    }

    /// A stable 64-bit fingerprint of the state, for visited-set hashing in
    /// the model checker.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }
}

impl Hash for State {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for l in &self.locations {
            l.hash(state);
        }
        self.clock_values.hash(state);
        self.stopped.hash(state);
        self.vars.hash(state);
        self.time.hash(state);
    }
}

/// Borrowed view of a state in the context of its network, implementing the
/// evaluation environments.
#[derive(Debug, Clone, Copy)]
pub struct EnvView<'a> {
    /// The network providing declarations (array offsets, domains).
    pub network: &'a Network,
    /// The state providing valuations.
    pub state: &'a State,
}

impl VarEnv for EnvView<'_> {
    fn var(&self, var: VarId) -> i64 {
        self.state.vars[var.index()]
    }

    fn array_len(&self, array: ArrayId) -> usize {
        self.network.array_len(array)
    }

    fn elem(&self, array: ArrayId, index: i64) -> Result<i64, EvalError> {
        let len = self.network.array_len(array);
        let Some(i) = usize::try_from(index).ok().filter(|i| *i < len) else {
            return Err(EvalError::IndexOutOfBounds {
                array: array.raw(),
                index,
                len,
            });
        };
        Ok(self.state.vars[self.network.array_offset(array) + i])
    }
}

impl ClockEnv for EnvView<'_> {
    fn clock(&self, clock: ClockId) -> i64 {
        self.state.clock_value(clock)
    }

    fn is_running(&self, clock: ClockId) -> bool {
        self.state.clock_running(clock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::{AutomatonBuilder, Edge};
    use crate::expr::IntExpr;
    use crate::network::NetworkBuilder;

    fn network() -> Network {
        let mut nb = NetworkBuilder::new();
        nb.clock("run");
        nb.stopped_clock("stop");
        nb.var("x", 3, 0, 100);
        nb.array("arr", vec![10, 20, 30], 0, 100);
        let mut b = AutomatonBuilder::new("a");
        let l0 = b.location("l0");
        b.edge(Edge::new(l0, l0));
        nb.automaton(b.finish(l0));
        nb.build().unwrap()
    }

    fn clock(i: u32) -> ClockId {
        ClockId::from_raw(i)
    }

    #[test]
    fn initial_state_matches_declarations() {
        let n = network();
        let s = State::initial(&n);
        assert_eq!(s.time, 0);
        assert_eq!(s.vars, vec![3, 10, 20, 30]);
        assert!(s.clock_running(clock(0)));
        assert!(!s.clock_running(clock(1)));
        assert_eq!(
            s.location_of(AutomatonId::from_raw(0)),
            LocationId::from_raw(0)
        );
    }

    #[test]
    fn advance_moves_only_running_clocks() {
        let n = network();
        let mut s = State::initial(&n);
        s.advance(5);
        assert_eq!(s.time, 5);
        assert_eq!(s.clock_value(clock(0)), 5);
        assert_eq!(s.clock_value(clock(1)), 0);
    }

    #[test]
    fn stop_and_start_clock() {
        let n = network();
        let mut s = State::initial(&n);
        s.apply_update(&n, &Update::StopClock(clock(0))).unwrap();
        s.advance(5);
        assert_eq!(s.clock_value(clock(0)), 0);
        s.apply_update(&n, &Update::StartClock(clock(0))).unwrap();
        s.advance(2);
        assert_eq!(s.clock_value(clock(0)), 2);
        s.apply_update(&n, &Update::ResetClock(clock(0))).unwrap();
        assert_eq!(s.clock_value(clock(0)), 0);
        // Resetting keeps the running flag.
        assert!(s.clock_running(clock(0)));
    }

    #[test]
    fn from_parts_round_trips_through_iter_clocks() {
        let clocks = vec![
            ClockVal {
                value: 7,
                running: true,
            },
            ClockVal {
                value: -2,
                running: false,
            },
            ClockVal {
                value: 0,
                running: true,
            },
        ];
        let s = State::from_parts(vec![], clocks.clone(), vec![1], 9);
        assert_eq!(s.clocks_len(), 3);
        assert_eq!(s.iter_clocks().collect::<Vec<_>>(), clocks);
        assert_eq!(s.clock_values(), &[7, -2, 0]);
        assert_eq!(s.stopped_words(), &[0b010]);
    }

    #[test]
    fn soa_equality_ignores_nothing_and_tail_bits_stay_zero() {
        // Two states built through different op sequences but with equal
        // clock valuations must compare (and hash) equal: the stopped
        // mask's unused tail bits stay canonically zero.
        let n = network();
        let mut a = State::initial(&n);
        let mut b = State::initial(&n);
        a.apply_update(&n, &Update::StopClock(clock(0))).unwrap();
        a.apply_update(&n, &Update::StartClock(clock(0))).unwrap();
        b.apply_update(&n, &Update::StartClock(clock(0))).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(a.stopped_words().iter().all(|w| w >> 2 == 0));
    }

    #[test]
    fn advance_masked_add_matches_reference_on_mixed_words() {
        // 130 clocks spanning three mask words, every third stopped.
        let clocks: Vec<ClockVal> = (0..130)
            .map(|i| ClockVal {
                value: i64::from(i),
                running: i % 3 != 0,
            })
            .collect();
        let mut s = State::from_parts(vec![], clocks.clone(), vec![], 0);
        s.advance(7);
        for (i, cv) in s.iter_clocks().enumerate() {
            let expected = clocks[i].value + if clocks[i].running { 7 } else { 0 };
            assert_eq!(cv.value, expected, "clock {i}");
            assert_eq!(cv.running, clocks[i].running, "clock {i} flag");
        }
        assert_eq!(s.time, 7);
    }

    #[test]
    fn assignment_respects_domain() {
        let n = network();
        let mut s = State::initial(&n);
        let v = VarId::from_raw(0);
        s.apply_update(&n, &Update::set(v, 42)).unwrap();
        assert_eq!(s.vars[0], 42);
        let err = s.apply_update(&n, &Update::set(v, 101)).unwrap_err();
        assert!(matches!(err, SimError::DomainViolation { .. }));
        // Failed assignment leaves state untouched.
        assert_eq!(s.vars[0], 42);
    }

    #[test]
    fn array_assignment() {
        let n = network();
        let mut s = State::initial(&n);
        let a = ArrayId::from_raw(0);
        s.apply_update(&n, &Update::set_elem(a, 1, 99)).unwrap();
        assert_eq!(s.vars, vec![3, 10, 99, 30]);
        let err = s.apply_update(&n, &Update::set_elem(a, 3, 1)).unwrap_err();
        assert!(matches!(
            err,
            SimError::Eval(EvalError::IndexOutOfBounds { .. })
        ));
        let err = s
            .apply_update(&n, &Update::set_elem(a, 2, 101))
            .unwrap_err();
        assert_eq!(
            err,
            SimError::ArrayDomainViolation {
                array: 0,
                index: 2,
                value: 101,
                domain: (0, 100),
            }
        );
    }

    #[test]
    fn conditional_update() {
        let n = network();
        let mut s = State::initial(&n);
        let v = VarId::from_raw(0);
        let u = Update::If {
            cond: IntExpr::var(v).gt(0),
            then: vec![Update::set(v, 1)],
            otherwise: vec![Update::set(v, 2)],
        };
        s.apply_update(&n, &u).unwrap();
        assert_eq!(s.vars[0], 1);
        s.apply_update(&n, &Update::set(v, 0)).unwrap();
        s.apply_update(&n, &u).unwrap();
        assert_eq!(s.vars[0], 2);
    }

    #[test]
    fn env_view_evaluates_expressions() {
        let n = network();
        let s = State::initial(&n);
        let view = EnvView {
            network: &n,
            state: &s,
        };
        let e = IntExpr::elem(ArrayId::from_raw(0), 2) + IntExpr::var(VarId::from_raw(0));
        assert_eq!(e.eval(&view).unwrap(), 33);
    }

    #[test]
    fn updates_see_earlier_updates() {
        let n = network();
        let mut s = State::initial(&n);
        let v = VarId::from_raw(0);
        s.apply_updates(
            &n,
            &[
                Update::set(v, 7),
                Update::set(v, IntExpr::var(v) + IntExpr::lit(1)),
            ],
        )
        .unwrap();
        assert_eq!(s.vars[0], 8);
    }

    #[test]
    fn fingerprint_distinguishes_states() {
        let n = network();
        let s1 = State::initial(&n);
        let mut s2 = State::initial(&n);
        assert_eq!(s1.fingerprint(), s2.fingerprint());
        s2.advance(1);
        assert_ne!(s1.fingerprint(), s2.fingerprint());
    }
}
