//! Guards and invariants in the restricted normal form that keeps the
//! simulator's next-event computation exact.
//!
//! A [`Guard`] is a conjunction of
//!
//! * clock-free predicates over variables ([`crate::expr::Pred`]), and
//! * clock atoms `clock ⋈ rhs` where `rhs` is a clock-free integer
//!   expression ([`ClockAtom`]).
//!
//! An [`Invariant`] is a conjunction of upper bounds `clock ≤ rhs`.
//!
//! Because a delay transition changes only clock values, the predicate part
//! of a guard is constant under delay, and each clock atom is monotone in
//! the delay; the set of delays enabling an edge is therefore a single
//! interval that [`Guard::enabling_window`] computes exactly.

use std::fmt;

use crate::error::EvalError;
use crate::expr::{Binding, CmpOp, IntExpr, Pred, VarEnv};
use crate::ids::ClockId;

/// Read-only view of clock valuations.
pub trait ClockEnv {
    /// Current value of a clock.
    fn clock(&self, clock: ClockId) -> i64;
    /// Whether the clock is currently running (advances under delay).
    fn is_running(&self, clock: ClockId) -> bool;
}

/// A single comparison between a clock and a clock-free expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ClockAtom {
    /// The constrained clock.
    pub clock: ClockId,
    /// Comparison operator (`clock op rhs`).
    pub op: CmpOp,
    /// Clock-free right-hand side.
    pub rhs: IntExpr,
}

impl ClockAtom {
    /// Creates a clock atom `clock op rhs`.
    #[must_use]
    pub fn new(clock: ClockId, op: CmpOp, rhs: impl Into<IntExpr>) -> Self {
        Self {
            clock,
            op,
            rhs: rhs.into(),
        }
    }

    /// Evaluates the atom at the current instant.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors from the right-hand side.
    pub fn holds(&self, clocks: &dyn ClockEnv, vars: &dyn VarEnv) -> Result<bool, EvalError> {
        let rhs = self.rhs.eval(vars)?;
        Ok(self.op.apply(clocks.clock(self.clock), rhs))
    }

    /// Returns the set of delays `d ≥ 0` after which the atom holds, as a
    /// closed interval `[lo, hi]` (`hi = None` means unbounded). Returns
    /// `None` for the empty set.
    ///
    /// Only meaningful when variables are unchanged during the delay, which
    /// is exactly the delay-transition semantics.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors from the right-hand side.
    pub fn delay_window(
        &self,
        clocks: &dyn ClockEnv,
        vars: &dyn VarEnv,
    ) -> Result<Option<DelayWindow>, EvalError> {
        let rhs = self.rhs.eval(vars)?;
        Ok(atom_delay_window(
            self.op,
            clocks.clock(self.clock),
            clocks.is_running(self.clock),
            rhs,
        ))
    }
}

/// The delay-window arithmetic of [`ClockAtom::delay_window`], on already
/// evaluated operands. Shared with the bytecode engine so both compute the
/// same windows by construction.
pub(crate) fn atom_delay_window(
    op: CmpOp,
    val: i64,
    running: bool,
    rhs: i64,
) -> Option<DelayWindow> {
    if !running {
        // A stopped clock is constant under delay: the atom either holds
        // for every delay or for none.
        return if op.apply(val, rhs) {
            Some(DelayWindow::unbounded(0))
        } else {
            None
        };
    }
    // Running clock: value after delay d is val + d.
    let w = match op {
        CmpOp::Ge => DelayWindow::unbounded((rhs - val).max(0)),
        CmpOp::Gt => DelayWindow::unbounded((rhs - val + 1).max(0)),
        CmpOp::Le => {
            if rhs - val < 0 {
                return None;
            }
            DelayWindow::bounded(0, rhs - val)
        }
        CmpOp::Lt => {
            if rhs - val - 1 < 0 {
                return None;
            }
            DelayWindow::bounded(0, rhs - val - 1)
        }
        CmpOp::Eq => {
            if rhs - val < 0 {
                return None;
            }
            DelayWindow::bounded(rhs - val, rhs - val)
        }
        CmpOp::Ne => {
            // Holds everywhere except at d = rhs - val. The enabling set
            // is not an interval; we approximate by the interval starting
            // after the excluded point if the excluded point is 0,
            // otherwise [0, excluded). This conservative choice keeps the
            // window representation simple; `Ne` atoms are not used by
            // the IMA models.
            let excl = rhs - val;
            if excl < 0 {
                DelayWindow::unbounded(0)
            } else if excl == 0 {
                DelayWindow::unbounded(1)
            } else {
                DelayWindow::bounded(0, excl - 1)
            }
        }
    };
    Some(w)
}

impl fmt::Display for ClockAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.clock, self.op, self.rhs)
    }
}

/// A closed interval of admissible delays `[lo, hi]`; `hi = None` means
/// unbounded above.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DelayWindow {
    /// Smallest admissible delay.
    pub lo: i64,
    /// Largest admissible delay (inclusive), or `None` for unbounded.
    pub hi: Option<i64>,
}

impl DelayWindow {
    /// The window `[lo, ∞)`.
    #[must_use]
    pub fn unbounded(lo: i64) -> Self {
        Self { lo, hi: None }
    }

    /// The window `[lo, hi]`.
    #[must_use]
    pub fn bounded(lo: i64, hi: i64) -> Self {
        Self { lo, hi: Some(hi) }
    }

    /// The full window `[0, ∞)`.
    #[must_use]
    pub fn full() -> Self {
        Self::unbounded(0)
    }

    /// Intersects two windows; `None` if the intersection is empty.
    #[must_use]
    pub fn intersect(self, other: Self) -> Option<Self> {
        let lo = self.lo.max(other.lo);
        let hi = match (self.hi, other.hi) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) | (None, Some(a)) => Some(a),
            (None, None) => None,
        };
        match hi {
            Some(h) if h < lo => None,
            _ => Some(Self { lo, hi }),
        }
    }

    /// Whether the window contains the given delay.
    #[must_use]
    pub fn contains(self, d: i64) -> bool {
        d >= self.lo && self.hi.is_none_or(|h| d <= h)
    }
}

impl fmt::Display for DelayWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.hi {
            Some(h) => write!(f, "[{}, {}]", self.lo, h),
            None => write!(f, "[{}, inf)", self.lo),
        }
    }
}

/// Guard of an edge: conjunction of a clock-free predicate and clock atoms.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Guard {
    /// Clock-free part (conjunction; empty means `true`).
    pub preds: Vec<Pred>,
    /// Clock atoms (conjunction; empty means `true`).
    pub clock_atoms: Vec<ClockAtom>,
}

impl Guard {
    /// The trivially true guard.
    #[must_use]
    pub fn always() -> Self {
        Self::default()
    }

    /// Guard with a single clock-free predicate.
    #[must_use]
    pub fn when(pred: Pred) -> Self {
        Self {
            preds: vec![pred],
            clock_atoms: Vec::new(),
        }
    }

    /// Adds a clock-free predicate (builder style).
    #[must_use]
    pub fn and_pred(mut self, pred: Pred) -> Self {
        self.preds.push(pred);
        self
    }

    /// Adds a clock atom (builder style).
    #[must_use]
    pub fn and_clock(mut self, atom: ClockAtom) -> Self {
        self.clock_atoms.push(atom);
        self
    }

    /// Whether the guard holds right now.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn holds(&self, clocks: &dyn ClockEnv, vars: &dyn VarEnv) -> Result<bool, EvalError> {
        for p in &self.preds {
            if !p.eval(vars)? {
                return Ok(false);
            }
        }
        for a in &self.clock_atoms {
            if !a.holds(clocks, vars)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Computes the interval of delays after which the guard holds, assuming
    /// variables do not change during the delay. Returns `None` if no delay
    /// can enable the guard (including when the predicate part is false).
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn enabling_window(
        &self,
        clocks: &dyn ClockEnv,
        vars: &dyn VarEnv,
    ) -> Result<Option<DelayWindow>, EvalError> {
        for p in &self.preds {
            if !p.eval(vars)? {
                return Ok(None);
            }
        }
        let mut window = DelayWindow::full();
        for a in &self.clock_atoms {
            match a.delay_window(clocks, vars)? {
                None => return Ok(None),
                Some(w) => match window.intersect(w) {
                    None => return Ok(None),
                    Some(i) => window = i,
                },
            }
        }
        Ok(Some(window))
    }

    /// Substitutes template parameters in every component.
    #[must_use]
    pub fn bind_params(&self, params: &[i64]) -> Self {
        self.rebind(&Binding::params(params))
    }

    /// Binds parameters and renames variables and clocks.
    pub(crate) fn rebind(&self, b: &Binding<'_>) -> Self {
        Self {
            preds: self.preds.iter().map(|p| p.rebind(b)).collect(),
            clock_atoms: self
                .clock_atoms
                .iter()
                .map(|a| ClockAtom {
                    clock: b.clock(a.clock),
                    op: a.op,
                    rhs: a.rhs.rebind(b),
                })
                .collect(),
        }
    }

    /// Largest parameter index used anywhere in the guard.
    #[must_use]
    pub fn max_param(&self) -> Option<u32> {
        let p = self.preds.iter().filter_map(Pred::max_param).max();
        let c = self
            .clock_atoms
            .iter()
            .filter_map(|a| a.rhs.max_param())
            .max();
        match (p, c) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (x, None) => x,
            (None, y) => y,
        }
    }
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.preds.is_empty() && self.clock_atoms.is_empty() {
            return write!(f, "true");
        }
        let mut first = true;
        for p in &self.preds {
            if !first {
                write!(f, " && ")?;
            }
            write!(f, "{p}")?;
            first = false;
        }
        for a in &self.clock_atoms {
            if !first {
                write!(f, " && ")?;
            }
            write!(f, "{a}")?;
            first = false;
        }
        Ok(())
    }
}

/// A single invariant conjunct `clock ≤ rhs`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InvariantAtom {
    /// The bounded clock.
    pub clock: ClockId,
    /// Clock-free upper bound.
    pub rhs: IntExpr,
}

impl fmt::Display for InvariantAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} <= {}", self.clock, self.rhs)
    }
}

/// Invariant of a location: conjunction of clock upper bounds.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Invariant {
    /// The conjuncts (empty means `true`).
    pub atoms: Vec<InvariantAtom>,
}

impl Invariant {
    /// The trivially true invariant.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Invariant with a single bound `clock ≤ rhs`.
    #[must_use]
    pub fn upper_bound(clock: ClockId, rhs: impl Into<IntExpr>) -> Self {
        Self {
            atoms: vec![InvariantAtom {
                clock,
                rhs: rhs.into(),
            }],
        }
    }

    /// Adds a bound (builder style).
    #[must_use]
    pub fn and_upper_bound(mut self, clock: ClockId, rhs: impl Into<IntExpr>) -> Self {
        self.atoms.push(InvariantAtom {
            clock,
            rhs: rhs.into(),
        });
        self
    }

    /// Whether the invariant holds right now.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn holds(&self, clocks: &dyn ClockEnv, vars: &dyn VarEnv) -> Result<bool, EvalError> {
        for a in &self.atoms {
            let rhs = a.rhs.eval(vars)?;
            if clocks.clock(a.clock) > rhs {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Maximum delay `d` such that the invariant still holds after `d`
    /// (assuming variables unchanged). `None` means unbounded. A negative
    /// result means the invariant is already violated.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn max_delay(
        &self,
        clocks: &dyn ClockEnv,
        vars: &dyn VarEnv,
    ) -> Result<Option<i64>, EvalError> {
        let mut bound: Option<i64> = None;
        for a in &self.atoms {
            let rhs = a.rhs.eval(vars)?;
            let val = clocks.clock(a.clock);
            if clocks.is_running(a.clock) {
                let d = rhs - val;
                bound = Some(bound.map_or(d, |b| b.min(d)));
            } else if val > rhs {
                // Stopped clock violating its bound: no delay (nor zero
                // delay) is admissible.
                return Ok(Some(-1));
            }
        }
        Ok(bound)
    }

    /// Substitutes template parameters.
    #[must_use]
    pub fn bind_params(&self, params: &[i64]) -> Self {
        self.rebind(&Binding::params(params))
    }

    /// Binds parameters and renames variables and clocks.
    pub(crate) fn rebind(&self, b: &Binding<'_>) -> Self {
        Self {
            atoms: self
                .atoms
                .iter()
                .map(|a| InvariantAtom {
                    clock: b.clock(a.clock),
                    rhs: a.rhs.rebind(b),
                })
                .collect(),
        }
    }

    /// Largest parameter index used by the invariant.
    #[must_use]
    pub fn max_param(&self) -> Option<u32> {
        self.atoms.iter().filter_map(|a| a.rhs.max_param()).max()
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.atoms.is_empty() {
            return write!(f, "true");
        }
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, " && ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::VarId;

    struct Env {
        clocks: Vec<(i64, bool)>,
        vars: Vec<i64>,
    }

    impl ClockEnv for Env {
        fn clock(&self, c: ClockId) -> i64 {
            self.clocks[c.index()].0
        }
        fn is_running(&self, c: ClockId) -> bool {
            self.clocks[c.index()].1
        }
    }

    impl VarEnv for Env {
        fn var(&self, v: VarId) -> i64 {
            self.vars[v.index()]
        }
        fn array_len(&self, _a: crate::ids::ArrayId) -> usize {
            0
        }
        fn elem(&self, a: crate::ids::ArrayId, index: i64) -> Result<i64, EvalError> {
            Err(EvalError::IndexOutOfBounds {
                array: a.raw(),
                index,
                len: 0,
            })
        }
    }

    fn env() -> Env {
        Env {
            clocks: vec![(3, true), (5, false)],
            vars: vec![10],
        }
    }

    const C0: ClockId = ClockId::from_raw(0);
    const C1: ClockId = ClockId::from_raw(1);

    #[test]
    fn window_intersection() {
        let a = DelayWindow::bounded(1, 5);
        let b = DelayWindow::bounded(3, 9);
        assert_eq!(a.intersect(b), Some(DelayWindow::bounded(3, 5)));
        let c = DelayWindow::unbounded(4);
        assert_eq!(a.intersect(c), Some(DelayWindow::bounded(4, 5)));
        let d = DelayWindow::bounded(6, 7);
        assert_eq!(a.intersect(d), None);
        assert_eq!(
            DelayWindow::full().intersect(DelayWindow::full()),
            Some(DelayWindow::full())
        );
    }

    #[test]
    fn window_contains() {
        let w = DelayWindow::bounded(2, 4);
        assert!(!w.contains(1));
        assert!(w.contains(2));
        assert!(w.contains(4));
        assert!(!w.contains(5));
        assert!(DelayWindow::unbounded(0).contains(1_000_000));
    }

    #[test]
    fn running_clock_ge_atom_window() {
        let e = env();
        // c0 = 3 running; c0 >= 10 becomes true after 7.
        let a = ClockAtom::new(C0, CmpOp::Ge, 10);
        assert_eq!(
            a.delay_window(&e, &e).unwrap(),
            Some(DelayWindow::unbounded(7))
        );
        assert!(!a.holds(&e, &e).unwrap());
    }

    #[test]
    fn running_clock_le_atom_window() {
        let e = env();
        // c0 = 3 running; c0 <= 5 holds for d in [0, 2].
        let a = ClockAtom::new(C0, CmpOp::Le, 5);
        assert_eq!(
            a.delay_window(&e, &e).unwrap(),
            Some(DelayWindow::bounded(0, 2))
        );
        // c0 <= 2 can never hold again.
        let a = ClockAtom::new(C0, CmpOp::Le, 2);
        assert_eq!(a.delay_window(&e, &e).unwrap(), None);
    }

    #[test]
    fn running_clock_eq_atom_window() {
        let e = env();
        let a = ClockAtom::new(C0, CmpOp::Eq, 10);
        assert_eq!(
            a.delay_window(&e, &e).unwrap(),
            Some(DelayWindow::bounded(7, 7))
        );
    }

    #[test]
    fn strict_comparisons() {
        let e = env();
        let a = ClockAtom::new(C0, CmpOp::Gt, 3);
        assert_eq!(
            a.delay_window(&e, &e).unwrap(),
            Some(DelayWindow::unbounded(1))
        );
        let a = ClockAtom::new(C0, CmpOp::Lt, 4);
        assert_eq!(
            a.delay_window(&e, &e).unwrap(),
            Some(DelayWindow::bounded(0, 0))
        );
    }

    #[test]
    fn stopped_clock_window_is_constant() {
        let e = env();
        // c1 = 5 stopped; c1 >= 5 holds for all delays.
        let a = ClockAtom::new(C1, CmpOp::Ge, 5);
        assert_eq!(
            a.delay_window(&e, &e).unwrap(),
            Some(DelayWindow::unbounded(0))
        );
        // c1 >= 6 never holds.
        let a = ClockAtom::new(C1, CmpOp::Ge, 6);
        assert_eq!(a.delay_window(&e, &e).unwrap(), None);
    }

    #[test]
    fn guard_enabling_window_combines_atoms() {
        let e = env();
        // c0 in [3, inf), need c0 >= 5 and c0 <= 8: window [2, 5].
        let g = Guard::always()
            .and_clock(ClockAtom::new(C0, CmpOp::Ge, 5))
            .and_clock(ClockAtom::new(C0, CmpOp::Le, 8));
        assert_eq!(
            g.enabling_window(&e, &e).unwrap(),
            Some(DelayWindow::bounded(2, 5))
        );
    }

    #[test]
    fn guard_false_pred_blocks_window() {
        let e = env();
        let g = Guard::when(IntExpr::var(VarId::from_raw(0)).gt(100));
        assert_eq!(g.enabling_window(&e, &e).unwrap(), None);
        assert!(!g.holds(&e, &e).unwrap());
    }

    #[test]
    fn guard_rhs_reads_variables() {
        let e = env();
        // c0 >= v0 (=10): enabled after 7.
        let g = Guard::always().and_clock(ClockAtom::new(
            C0,
            CmpOp::Ge,
            IntExpr::var(VarId::from_raw(0)),
        ));
        assert_eq!(
            g.enabling_window(&e, &e).unwrap(),
            Some(DelayWindow::unbounded(7))
        );
    }

    #[test]
    fn invariant_max_delay() {
        let e = env();
        let inv = Invariant::upper_bound(C0, 10);
        assert_eq!(inv.max_delay(&e, &e).unwrap(), Some(7));
        assert!(inv.holds(&e, &e).unwrap());
        let inv = Invariant::none();
        assert_eq!(inv.max_delay(&e, &e).unwrap(), None);
    }

    #[test]
    fn invariant_on_stopped_clock() {
        let e = env();
        // c1 = 5 stopped; bound 5 holds forever, bound 4 violated now.
        let inv = Invariant::upper_bound(C1, 5);
        assert_eq!(inv.max_delay(&e, &e).unwrap(), None);
        assert!(inv.holds(&e, &e).unwrap());
        let inv = Invariant::upper_bound(C1, 4);
        assert_eq!(inv.max_delay(&e, &e).unwrap(), Some(-1));
        assert!(!inv.holds(&e, &e).unwrap());
    }

    #[test]
    fn invariant_multiple_atoms_takes_min() {
        let e = env();
        let inv = Invariant::upper_bound(C0, 10).and_upper_bound(C0, 6);
        assert_eq!(inv.max_delay(&e, &e).unwrap(), Some(3));
    }

    #[test]
    fn bind_params_reaches_all_components() {
        use crate::ids::ParamId;
        let g = Guard::when(IntExpr::param(ParamId::from_raw(0)).gt(0)).and_clock(ClockAtom::new(
            C0,
            CmpOp::Ge,
            IntExpr::param(ParamId::from_raw(1)),
        ));
        assert_eq!(g.max_param(), Some(1));
        let bound = g.bind_params(&[1, 42]);
        assert_eq!(bound.max_param(), None);
        let e = env();
        // c0 = 3, needs to reach 42: window starts at 39.
        assert_eq!(
            bound.enabling_window(&e, &e).unwrap(),
            Some(DelayWindow::unbounded(39))
        );
    }

    #[test]
    fn display_forms() {
        let g = Guard::always().and_clock(ClockAtom::new(C0, CmpOp::Ge, 5));
        assert_eq!(g.to_string(), "c0 >= 5");
        assert_eq!(Guard::always().to_string(), "true");
        let inv = Invariant::upper_bound(C0, 10);
        assert_eq!(inv.to_string(), "c0 <= 10");
        assert_eq!(Invariant::none().to_string(), "true");
        assert_eq!(DelayWindow::bounded(1, 2).to_string(), "[1, 2]");
        assert_eq!(DelayWindow::unbounded(0).to_string(), "[0, inf)");
    }
}
