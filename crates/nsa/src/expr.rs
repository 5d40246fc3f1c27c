//! Clock-free expression language used in guards, invariants and updates.
//!
//! The language is a small, total, integer-valued expression calculus over
//! the network's bounded integer variables and arrays, with bounded
//! quantifiers (`forall` / `exists`) over integer ranges. It is the same
//! fragment UPPAAL models of schedulers use: selection conditions such as
//! *"job `k` is ready and no ready job has a higher priority"* are expressed
//! with one `forall`.
//!
//! Expressions are split into two syntactic categories:
//!
//! * [`IntExpr`] — integer-valued terms;
//! * [`Pred`] — boolean-valued predicates.
//!
//! Clocks deliberately do **not** appear here. Clock constraints live in
//! [`crate::guard`], in a restricted normal form that keeps the simulator's
//! next-event computation exact (see `DESIGN.md` §4.2).
//!
//! # Examples
//!
//! ```
//! use swa_nsa::expr::{IntExpr, Pred};
//! use swa_nsa::ids::VarId;
//!
//! // prio[j] <= prio[k] for all j in [0, n)
//! let n = IntExpr::var(VarId::from_raw(0));
//! let k = IntExpr::var(VarId::from_raw(1));
//! let _pred = Pred::forall(
//!     IntExpr::lit(0),
//!     n,
//!     IntExpr::bound(0).le(k),
//! );
//! ```

use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

use crate::error::EvalError;
use crate::ids::{ArrayId, ChannelId, ClockId, ParamId, VarId};

/// The view of one template instance the AST walkers need: parameter
/// values and the network ids of the template's local clocks, variables
/// and channels (local id `i` maps to entry `i`). An empty map leaves that
/// kind of id unchanged, and a parameter outside `params` stays unbound.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Binding<'a> {
    pub(crate) params: &'a [i64],
    pub(crate) clocks: &'a [ClockId],
    pub(crate) vars: &'a [VarId],
    pub(crate) channels: &'a [ChannelId],
}

impl<'a> Binding<'a> {
    /// Binds parameters only.
    pub(crate) fn params(params: &'a [i64]) -> Self {
        Self {
            params,
            ..Self::default()
        }
    }

    pub(crate) fn param(&self, p: ParamId) -> Option<i64> {
        self.params.get(p.index()).copied()
    }

    pub(crate) fn var(&self, v: VarId) -> VarId {
        self.vars.get(v.index()).copied().unwrap_or(v)
    }

    pub(crate) fn clock(&self, c: ClockId) -> ClockId {
        self.clocks.get(c.index()).copied().unwrap_or(c)
    }

    pub(crate) fn channel(&self, c: ChannelId) -> ChannelId {
        self.channels.get(c.index()).copied().unwrap_or(c)
    }
}

/// Largest admissible quantifier range; guards against runaway evaluation.
pub const MAX_QUANTIFIER_RANGE: i64 = 1 << 20;

/// Read-only view of the integer variables and arrays of a state.
///
/// The simulator's state implements this; tests can implement it over plain
/// vectors.
pub trait VarEnv {
    /// Returns the current value of a scalar variable.
    fn var(&self, var: VarId) -> i64;

    /// Returns the length of an array.
    fn array_len(&self, array: ArrayId) -> usize;

    /// Returns the current value of an array element.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::IndexOutOfBounds`] if `index` is outside
    /// `[0, len)`.
    fn elem(&self, array: ArrayId, index: i64) -> Result<i64, EvalError>;
}

/// Comparison operators between integer expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Applies the comparison to two integers.
    #[must_use]
    pub fn apply(self, lhs: i64, rhs: i64) -> bool {
        match self {
            Self::Eq => lhs == rhs,
            Self::Ne => lhs != rhs,
            Self::Lt => lhs < rhs,
            Self::Le => lhs <= rhs,
            Self::Gt => lhs > rhs,
            Self::Ge => lhs >= rhs,
        }
    }

    /// Returns the comparison with its arguments swapped (`a op b` ⇔
    /// `b op.flip() a`).
    #[must_use]
    pub fn flip(self) -> Self {
        match self {
            Self::Eq => Self::Eq,
            Self::Ne => Self::Ne,
            Self::Lt => Self::Gt,
            Self::Le => Self::Ge,
            Self::Gt => Self::Lt,
            Self::Ge => Self::Le,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::Eq => "==",
            Self::Ne => "!=",
            Self::Lt => "<",
            Self::Le => "<=",
            Self::Gt => ">",
            Self::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// An integer-valued, clock-free expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum IntExpr {
    /// Integer literal.
    Lit(i64),
    /// Scalar variable read.
    Var(VarId),
    /// Array element read; the index is itself an expression.
    Elem(ArrayId, Box<IntExpr>),
    /// Unbound template parameter; must be substituted before evaluation.
    Param(ParamId),
    /// De Bruijn reference to an enclosing quantifier binder
    /// (`0` = innermost).
    Bound(usize),
    /// Sum.
    Add(Box<IntExpr>, Box<IntExpr>),
    /// Difference.
    Sub(Box<IntExpr>, Box<IntExpr>),
    /// Product.
    Mul(Box<IntExpr>, Box<IntExpr>),
    /// Euclidean division (errors on division by zero).
    Div(Box<IntExpr>, Box<IntExpr>),
    /// Euclidean remainder (errors on division by zero).
    Rem(Box<IntExpr>, Box<IntExpr>),
    /// Negation.
    Neg(Box<IntExpr>),
    /// Binary minimum.
    Min(Box<IntExpr>, Box<IntExpr>),
    /// Binary maximum.
    Max(Box<IntExpr>, Box<IntExpr>),
    /// Conditional expression `if p { a } else { b }`.
    Ite(Box<Pred>, Box<IntExpr>, Box<IntExpr>),
}

impl IntExpr {
    /// Integer literal.
    #[must_use]
    pub fn lit(value: i64) -> Self {
        Self::Lit(value)
    }

    /// Scalar variable read.
    #[must_use]
    pub fn var(var: VarId) -> Self {
        Self::Var(var)
    }

    /// Array element read.
    #[must_use]
    pub fn elem(array: ArrayId, index: impl Into<IntExpr>) -> Self {
        Self::Elem(array, Box::new(index.into()))
    }

    /// Unbound template parameter.
    #[must_use]
    pub fn param(param: ParamId) -> Self {
        Self::Param(param)
    }

    /// De Bruijn reference to an enclosing quantifier binder.
    #[must_use]
    pub fn bound(depth: usize) -> Self {
        Self::Bound(depth)
    }

    /// Binary minimum.
    #[must_use]
    pub fn min(self, other: impl Into<IntExpr>) -> Self {
        Self::Min(Box::new(self), Box::new(other.into()))
    }

    /// Binary maximum.
    #[must_use]
    pub fn max(self, other: impl Into<IntExpr>) -> Self {
        Self::Max(Box::new(self), Box::new(other.into()))
    }

    /// Conditional expression.
    #[must_use]
    pub fn ite(cond: Pred, then: impl Into<IntExpr>, otherwise: impl Into<IntExpr>) -> Self {
        Self::Ite(
            Box::new(cond),
            Box::new(then.into()),
            Box::new(otherwise.into()),
        )
    }

    /// `self == other`.
    #[must_use]
    pub fn eq(self, other: impl Into<IntExpr>) -> Pred {
        Pred::cmp(CmpOp::Eq, self, other.into())
    }

    /// `self != other`.
    #[must_use]
    pub fn ne(self, other: impl Into<IntExpr>) -> Pred {
        Pred::cmp(CmpOp::Ne, self, other.into())
    }

    /// `self < other`.
    #[must_use]
    pub fn lt(self, other: impl Into<IntExpr>) -> Pred {
        Pred::cmp(CmpOp::Lt, self, other.into())
    }

    /// `self <= other`.
    #[must_use]
    pub fn le(self, other: impl Into<IntExpr>) -> Pred {
        Pred::cmp(CmpOp::Le, self, other.into())
    }

    /// `self > other`.
    #[must_use]
    pub fn gt(self, other: impl Into<IntExpr>) -> Pred {
        Pred::cmp(CmpOp::Gt, self, other.into())
    }

    /// `self >= other`.
    #[must_use]
    pub fn ge(self, other: impl Into<IntExpr>) -> Pred {
        Pred::cmp(CmpOp::Ge, self, other.into())
    }

    /// Evaluates the expression in `env` with no quantifier binders in scope.
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] on division by zero, overflow, out-of-bounds
    /// array access, unbound parameters or unbound de Bruijn indices.
    pub fn eval(&self, env: &dyn VarEnv) -> Result<i64, EvalError> {
        self.eval_in(env, &mut Vec::new())
    }

    fn eval_in(&self, env: &dyn VarEnv, binders: &mut Vec<i64>) -> Result<i64, EvalError> {
        match self {
            Self::Lit(v) => Ok(*v),
            Self::Var(v) => Ok(env.var(*v)),
            Self::Elem(a, idx) => {
                let i = idx.eval_in(env, binders)?;
                env.elem(*a, i)
            }
            Self::Param(p) => Err(EvalError::UnboundParam(p.raw())),
            Self::Bound(depth) => {
                let len = binders.len();
                if *depth < len {
                    Ok(binders[len - 1 - depth])
                } else {
                    Err(EvalError::UnboundIndex(*depth))
                }
            }
            Self::Add(a, b) => checked(
                a.eval_in(env, binders)?,
                b.eval_in(env, binders)?,
                i64::checked_add,
            ),
            Self::Sub(a, b) => checked(
                a.eval_in(env, binders)?,
                b.eval_in(env, binders)?,
                i64::checked_sub,
            ),
            Self::Mul(a, b) => checked(
                a.eval_in(env, binders)?,
                b.eval_in(env, binders)?,
                i64::checked_mul,
            ),
            Self::Div(a, b) => {
                let d = b.eval_in(env, binders)?;
                if d == 0 {
                    return Err(EvalError::DivisionByZero);
                }
                a.eval_in(env, binders)?
                    .checked_div_euclid(d)
                    .ok_or(EvalError::Overflow)
            }
            Self::Rem(a, b) => {
                let d = b.eval_in(env, binders)?;
                if d == 0 {
                    return Err(EvalError::DivisionByZero);
                }
                a.eval_in(env, binders)?
                    .checked_rem_euclid(d)
                    .ok_or(EvalError::Overflow)
            }
            Self::Neg(a) => a
                .eval_in(env, binders)?
                .checked_neg()
                .ok_or(EvalError::Overflow),
            Self::Min(a, b) => Ok(a.eval_in(env, binders)?.min(b.eval_in(env, binders)?)),
            Self::Max(a, b) => Ok(a.eval_in(env, binders)?.max(b.eval_in(env, binders)?)),
            Self::Ite(p, t, e) => {
                if p.eval_in(env, binders)? {
                    t.eval_in(env, binders)
                } else {
                    e.eval_in(env, binders)
                }
            }
        }
    }

    /// Substitutes every [`IntExpr::Param`] with the corresponding value
    /// from `params`, producing a parameter-free expression.
    ///
    /// Parameters with indices outside `params` are left untouched (callers
    /// validate with [`IntExpr::max_param`]).
    #[must_use]
    pub fn bind_params(&self, params: &[i64]) -> Self {
        self.rebind(&Binding::params(params))
    }

    /// Binds parameters and renames variables as `binding` says.
    pub(crate) fn rebind(&self, b: &Binding<'_>) -> Self {
        let bin = |x: &Self, y: &Self| (Box::new(x.rebind(b)), Box::new(y.rebind(b)));
        match self {
            Self::Lit(_) | Self::Bound(_) => self.clone(),
            Self::Var(v) => Self::Var(b.var(*v)),
            Self::Param(p) => b.param(*p).map_or_else(|| self.clone(), Self::Lit),
            Self::Elem(a, idx) => Self::Elem(*a, Box::new(idx.rebind(b))),
            Self::Add(x, y) => {
                let (x, y) = bin(x, y);
                Self::Add(x, y)
            }
            Self::Sub(x, y) => {
                let (x, y) = bin(x, y);
                Self::Sub(x, y)
            }
            Self::Mul(x, y) => {
                let (x, y) = bin(x, y);
                Self::Mul(x, y)
            }
            Self::Div(x, y) => {
                let (x, y) = bin(x, y);
                Self::Div(x, y)
            }
            Self::Rem(x, y) => {
                let (x, y) = bin(x, y);
                Self::Rem(x, y)
            }
            Self::Neg(x) => Self::Neg(Box::new(x.rebind(b))),
            Self::Min(x, y) => {
                let (x, y) = bin(x, y);
                Self::Min(x, y)
            }
            Self::Max(x, y) => {
                let (x, y) = bin(x, y);
                Self::Max(x, y)
            }
            Self::Ite(p, t, e) => Self::Ite(
                Box::new(p.rebind(b)),
                Box::new(t.rebind(b)),
                Box::new(e.rebind(b)),
            ),
        }
    }

    /// Returns the largest parameter index used by the expression, if any.
    #[must_use]
    pub fn max_param(&self) -> Option<u32> {
        match self {
            Self::Lit(_) | Self::Var(_) | Self::Bound(_) => None,
            Self::Param(p) => Some(p.raw()),
            Self::Elem(_, a) | Self::Neg(a) => a.max_param(),
            Self::Add(a, b)
            | Self::Sub(a, b)
            | Self::Mul(a, b)
            | Self::Div(a, b)
            | Self::Rem(a, b)
            | Self::Min(a, b)
            | Self::Max(a, b) => opt_max(a.max_param(), b.max_param()),
            Self::Ite(p, t, e) => opt_max(p.max_param(), opt_max(t.max_param(), e.max_param())),
        }
    }

    /// Returns `true` if the expression contains no variable or array reads
    /// (it may still contain parameters or bound indices).
    #[must_use]
    pub fn is_state_independent(&self) -> bool {
        match self {
            Self::Lit(_) | Self::Param(_) | Self::Bound(_) => true,
            Self::Var(_) | Self::Elem(..) => false,
            Self::Neg(a) => a.is_state_independent(),
            Self::Add(a, b)
            | Self::Sub(a, b)
            | Self::Mul(a, b)
            | Self::Div(a, b)
            | Self::Rem(a, b)
            | Self::Min(a, b)
            | Self::Max(a, b) => a.is_state_independent() && b.is_state_independent(),
            Self::Ite(p, t, e) => {
                p.is_state_independent() && t.is_state_independent() && e.is_state_independent()
            }
        }
    }
}

fn checked(a: i64, b: i64, op: impl FnOnce(i64, i64) -> Option<i64>) -> Result<i64, EvalError> {
    op(a, b).ok_or(EvalError::Overflow)
}

fn opt_max(a: Option<u32>, b: Option<u32>) -> Option<u32> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

impl From<i64> for IntExpr {
    fn from(v: i64) -> Self {
        Self::Lit(v)
    }
}

impl From<VarId> for IntExpr {
    fn from(v: VarId) -> Self {
        Self::Var(v)
    }
}

impl Add for IntExpr {
    type Output = IntExpr;
    fn add(self, rhs: IntExpr) -> IntExpr {
        IntExpr::Add(Box::new(self), Box::new(rhs))
    }
}

impl Sub for IntExpr {
    type Output = IntExpr;
    fn sub(self, rhs: IntExpr) -> IntExpr {
        IntExpr::Sub(Box::new(self), Box::new(rhs))
    }
}

impl Mul for IntExpr {
    type Output = IntExpr;
    fn mul(self, rhs: IntExpr) -> IntExpr {
        IntExpr::Mul(Box::new(self), Box::new(rhs))
    }
}

impl Neg for IntExpr {
    type Output = IntExpr;
    fn neg(self) -> IntExpr {
        IntExpr::Neg(Box::new(self))
    }
}

impl fmt::Display for IntExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Lit(v) => write!(f, "{v}"),
            Self::Var(v) => write!(f, "{v}"),
            Self::Elem(a, idx) => write!(f, "{a}[{idx}]"),
            Self::Param(p) => write!(f, "{p}"),
            Self::Bound(d) => write!(f, "#{d}"),
            Self::Add(a, b) => write!(f, "({a} + {b})"),
            Self::Sub(a, b) => write!(f, "({a} - {b})"),
            Self::Mul(a, b) => write!(f, "({a} * {b})"),
            Self::Div(a, b) => write!(f, "({a} / {b})"),
            Self::Rem(a, b) => write!(f, "({a} % {b})"),
            Self::Neg(a) => write!(f, "(-{a})"),
            Self::Min(a, b) => write!(f, "min({a}, {b})"),
            Self::Max(a, b) => write!(f, "max({a}, {b})"),
            Self::Ite(p, t, e) => write!(f, "({p} ? {t} : {e})"),
        }
    }
}

/// A boolean-valued, clock-free predicate.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Pred {
    /// Constant truth value.
    Lit(bool),
    /// Comparison between two integer expressions.
    Cmp(CmpOp, Box<IntExpr>, Box<IntExpr>),
    /// Logical negation.
    Not(Box<Pred>),
    /// Conjunction over all operands (true if empty).
    And(Vec<Pred>),
    /// Disjunction over all operands (false if empty).
    Or(Vec<Pred>),
    /// Bounded universal quantifier over the half-open range `[lo, hi)`.
    ///
    /// Inside `body`, [`IntExpr::Bound(0)`](IntExpr::Bound) refers to the
    /// quantified index.
    ForAll {
        /// Inclusive lower bound of the index range.
        lo: Box<IntExpr>,
        /// Exclusive upper bound of the index range.
        hi: Box<IntExpr>,
        /// Quantified body.
        body: Box<Pred>,
    },
    /// Bounded existential quantifier over the half-open range `[lo, hi)`.
    Exists {
        /// Inclusive lower bound of the index range.
        lo: Box<IntExpr>,
        /// Exclusive upper bound of the index range.
        hi: Box<IntExpr>,
        /// Quantified body.
        body: Box<Pred>,
    },
}

impl Pred {
    /// Constant `true`.
    #[must_use]
    pub fn tt() -> Self {
        Self::Lit(true)
    }

    /// Constant `false`.
    #[must_use]
    pub fn ff() -> Self {
        Self::Lit(false)
    }

    /// Comparison between two integer expressions.
    #[must_use]
    pub fn cmp(op: CmpOp, lhs: impl Into<IntExpr>, rhs: impl Into<IntExpr>) -> Self {
        Self::Cmp(op, Box::new(lhs.into()), Box::new(rhs.into()))
    }

    /// Logical negation.
    #[allow(clippy::should_implement_trait)]
    #[must_use]
    pub fn not(self) -> Self {
        Self::Not(Box::new(self))
    }

    /// Conjunction `self && other`.
    #[must_use]
    pub fn and(self, other: Pred) -> Self {
        match (self, other) {
            (Self::And(mut xs), Self::And(ys)) => {
                xs.extend(ys);
                Self::And(xs)
            }
            (Self::And(mut xs), y) => {
                xs.push(y);
                Self::And(xs)
            }
            (x, Self::And(mut ys)) => {
                ys.insert(0, x);
                Self::And(ys)
            }
            (x, y) => Self::And(vec![x, y]),
        }
    }

    /// Disjunction `self || other`.
    #[must_use]
    pub fn or(self, other: Pred) -> Self {
        match (self, other) {
            (Self::Or(mut xs), Self::Or(ys)) => {
                xs.extend(ys);
                Self::Or(xs)
            }
            (Self::Or(mut xs), y) => {
                xs.push(y);
                Self::Or(xs)
            }
            (x, Self::Or(mut ys)) => {
                ys.insert(0, x);
                Self::Or(ys)
            }
            (x, y) => Self::Or(vec![x, y]),
        }
    }

    /// Implication `self -> other`.
    #[must_use]
    pub fn implies(self, other: Pred) -> Self {
        self.not().or(other)
    }

    /// Bounded universal quantifier over `[lo, hi)`.
    #[must_use]
    pub fn forall(lo: impl Into<IntExpr>, hi: impl Into<IntExpr>, body: Pred) -> Self {
        Self::ForAll {
            lo: Box::new(lo.into()),
            hi: Box::new(hi.into()),
            body: Box::new(body),
        }
    }

    /// Bounded existential quantifier over `[lo, hi)`.
    #[must_use]
    pub fn exists(lo: impl Into<IntExpr>, hi: impl Into<IntExpr>, body: Pred) -> Self {
        Self::Exists {
            lo: Box::new(lo.into()),
            hi: Box::new(hi.into()),
            body: Box::new(body),
        }
    }

    /// Evaluates the predicate in `env` with no quantifier binders in scope.
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] under the same conditions as
    /// [`IntExpr::eval`], plus [`EvalError::RangeTooLarge`] for oversized
    /// quantifier ranges.
    pub fn eval(&self, env: &dyn VarEnv) -> Result<bool, EvalError> {
        self.eval_in(env, &mut Vec::new())
    }

    fn eval_in(&self, env: &dyn VarEnv, binders: &mut Vec<i64>) -> Result<bool, EvalError> {
        match self {
            Self::Lit(b) => Ok(*b),
            Self::Cmp(op, a, b) => Ok(op.apply(a.eval_in(env, binders)?, b.eval_in(env, binders)?)),
            Self::Not(p) => Ok(!p.eval_in(env, binders)?),
            Self::And(ps) => {
                for p in ps {
                    if !p.eval_in(env, binders)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Self::Or(ps) => {
                for p in ps {
                    if p.eval_in(env, binders)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Self::ForAll { lo, hi, body } => {
                let (lo, hi) = quantifier_range(lo, hi, env, binders)?;
                for i in lo..hi {
                    binders.push(i);
                    let holds = body.eval_in(env, binders);
                    binders.pop();
                    if !holds? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Self::Exists { lo, hi, body } => {
                let (lo, hi) = quantifier_range(lo, hi, env, binders)?;
                for i in lo..hi {
                    binders.push(i);
                    let holds = body.eval_in(env, binders);
                    binders.pop();
                    if holds? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
        }
    }

    /// Substitutes template parameters, as [`IntExpr::bind_params`].
    #[must_use]
    pub fn bind_params(&self, params: &[i64]) -> Self {
        self.rebind(&Binding::params(params))
    }

    /// Binds parameters and renames variables as `binding` says.
    pub(crate) fn rebind(&self, b: &Binding<'_>) -> Self {
        let range = |lo: &IntExpr, hi: &IntExpr, body: &Self| {
            (
                Box::new(lo.rebind(b)),
                Box::new(hi.rebind(b)),
                Box::new(body.rebind(b)),
            )
        };
        match self {
            Self::Lit(_) => self.clone(),
            Self::Cmp(op, x, y) => Self::Cmp(*op, Box::new(x.rebind(b)), Box::new(y.rebind(b))),
            Self::Not(p) => Self::Not(Box::new(p.rebind(b))),
            Self::And(ps) => Self::And(ps.iter().map(|p| p.rebind(b)).collect()),
            Self::Or(ps) => Self::Or(ps.iter().map(|p| p.rebind(b)).collect()),
            Self::ForAll { lo, hi, body } => {
                let (lo, hi, body) = range(lo, hi, body);
                Self::ForAll { lo, hi, body }
            }
            Self::Exists { lo, hi, body } => {
                let (lo, hi, body) = range(lo, hi, body);
                Self::Exists { lo, hi, body }
            }
        }
    }

    /// Returns the largest parameter index used by the predicate, if any.
    #[must_use]
    pub fn max_param(&self) -> Option<u32> {
        match self {
            Self::Lit(_) => None,
            Self::Cmp(_, a, b) => opt_max(a.max_param(), b.max_param()),
            Self::Not(p) => p.max_param(),
            Self::And(ps) | Self::Or(ps) => {
                ps.iter().fold(None, |acc, p| opt_max(acc, p.max_param()))
            }
            Self::ForAll { lo, hi, body } | Self::Exists { lo, hi, body } => {
                opt_max(opt_max(lo.max_param(), hi.max_param()), body.max_param())
            }
        }
    }

    /// Returns `true` if the predicate contains no variable or array reads.
    #[must_use]
    pub fn is_state_independent(&self) -> bool {
        match self {
            Self::Lit(_) => true,
            Self::Cmp(_, a, b) => a.is_state_independent() && b.is_state_independent(),
            Self::Not(p) => p.is_state_independent(),
            Self::And(ps) | Self::Or(ps) => ps.iter().all(Pred::is_state_independent),
            Self::ForAll { lo, hi, body } | Self::Exists { lo, hi, body } => {
                lo.is_state_independent()
                    && hi.is_state_independent()
                    && body.is_state_independent()
            }
        }
    }
}

fn quantifier_range(
    lo: &IntExpr,
    hi: &IntExpr,
    env: &dyn VarEnv,
    binders: &mut Vec<i64>,
) -> Result<(i64, i64), EvalError> {
    let lo = lo.eval_in(env, binders)?;
    let hi = hi.eval_in(env, binders)?;
    if hi.saturating_sub(lo) > MAX_QUANTIFIER_RANGE {
        return Err(EvalError::RangeTooLarge { lo, hi });
    }
    Ok((lo, hi))
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Lit(b) => write!(f, "{b}"),
            Self::Cmp(op, a, b) => write!(f, "{a} {op} {b}"),
            Self::Not(p) => write!(f, "!({p})"),
            Self::And(ps) => {
                if ps.is_empty() {
                    return write!(f, "true");
                }
                write!(f, "(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " && ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Self::Or(ps) => {
                if ps.is_empty() {
                    return write!(f, "false");
                }
                write!(f, "(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " || ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Self::ForAll { lo, hi, body } => write!(f, "forall #: [{lo}, {hi}) . {body}"),
            Self::Exists { lo, hi, body } => write!(f, "exists #: [{lo}, {hi}) . {body}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simple environment over plain vectors for testing.
    pub(crate) struct VecEnv {
        pub vars: Vec<i64>,
        pub arrays: Vec<Vec<i64>>,
    }

    impl VarEnv for VecEnv {
        fn var(&self, var: VarId) -> i64 {
            self.vars[var.index()]
        }
        fn array_len(&self, array: ArrayId) -> usize {
            self.arrays[array.index()].len()
        }
        fn elem(&self, array: ArrayId, index: i64) -> Result<i64, EvalError> {
            let arr = &self.arrays[array.index()];
            usize::try_from(index)
                .ok()
                .and_then(|i| arr.get(i))
                .copied()
                .ok_or(EvalError::IndexOutOfBounds {
                    array: array.raw(),
                    index,
                    len: arr.len(),
                })
        }
    }

    fn env() -> VecEnv {
        VecEnv {
            vars: vec![3, -2, 10],
            arrays: vec![vec![5, 7, 9], vec![1, 0]],
        }
    }

    #[test]
    fn arithmetic_evaluation() {
        let e = env();
        let v0 = IntExpr::var(VarId::from_raw(0));
        let v1 = IntExpr::var(VarId::from_raw(1));
        assert_eq!((v0.clone() + v1.clone()).eval(&e).unwrap(), 1);
        assert_eq!((v0.clone() - v1.clone()).eval(&e).unwrap(), 5);
        assert_eq!((v0.clone() * v1.clone()).eval(&e).unwrap(), -6);
        assert_eq!((-v0.clone()).eval(&e).unwrap(), -3);
        assert_eq!(v0.clone().min(v1.clone()).eval(&e).unwrap(), -2);
        assert_eq!(v0.max(v1).eval(&e).unwrap(), 3);
    }

    #[test]
    fn euclidean_division() {
        let e = env();
        let expr = IntExpr::Div(Box::new(IntExpr::lit(-7)), Box::new(IntExpr::lit(2)));
        assert_eq!(expr.eval(&e).unwrap(), -4);
        let expr = IntExpr::Rem(Box::new(IntExpr::lit(-7)), Box::new(IntExpr::lit(2)));
        assert_eq!(expr.eval(&e).unwrap(), 1);
    }

    #[test]
    fn division_by_zero_errors() {
        let e = env();
        let expr = IntExpr::Div(Box::new(IntExpr::lit(1)), Box::new(IntExpr::lit(0)));
        assert_eq!(expr.eval(&e), Err(EvalError::DivisionByZero));
        let expr = IntExpr::Rem(Box::new(IntExpr::lit(1)), Box::new(IntExpr::lit(0)));
        assert_eq!(expr.eval(&e), Err(EvalError::DivisionByZero));
    }

    #[test]
    fn overflow_is_detected() {
        let e = env();
        let expr = IntExpr::lit(i64::MAX) + IntExpr::lit(1);
        assert_eq!(expr.eval(&e), Err(EvalError::Overflow));
    }

    #[test]
    fn array_access() {
        let e = env();
        let a0 = ArrayId::from_raw(0);
        assert_eq!(IntExpr::elem(a0, 2).eval(&e).unwrap(), 9);
        assert!(matches!(
            IntExpr::elem(a0, 3).eval(&e),
            Err(EvalError::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            IntExpr::elem(a0, -1).eval(&e),
            Err(EvalError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn ite_selects_branch() {
        let e = env();
        let cond = IntExpr::var(VarId::from_raw(0)).gt(0);
        let expr = IntExpr::ite(cond, 100, 200);
        assert_eq!(expr.eval(&e).unwrap(), 100);
    }

    #[test]
    fn comparisons() {
        let e = env();
        assert!(IntExpr::lit(1).lt(2).eval(&e).unwrap());
        assert!(IntExpr::lit(2).le(2).eval(&e).unwrap());
        assert!(IntExpr::lit(3).gt(2).eval(&e).unwrap());
        assert!(IntExpr::lit(3).ge(3).eval(&e).unwrap());
        assert!(IntExpr::lit(3).eq(3).eval(&e).unwrap());
        assert!(IntExpr::lit(3).ne(4).eval(&e).unwrap());
    }

    #[test]
    fn logic_short_circuits() {
        let e = env();
        // false && (1/0 == 0) must not evaluate the division.
        let div = IntExpr::Div(Box::new(IntExpr::lit(1)), Box::new(IntExpr::lit(0)));
        let p = Pred::ff().and(div.clone().eq(0));
        assert!(!p.eval(&e).unwrap());
        let p = Pred::tt().or(div.eq(0));
        assert!(p.eval(&e).unwrap());
    }

    #[test]
    fn forall_over_array() {
        let e = env();
        let a0 = ArrayId::from_raw(0);
        // forall i in [0,3): a0[i] >= 5
        let p = Pred::forall(0, 3, IntExpr::elem(a0, IntExpr::bound(0)).ge(5));
        assert!(p.eval(&e).unwrap());
        // forall i in [0,3): a0[i] >= 6 — fails at i=0.
        let p = Pred::forall(0, 3, IntExpr::elem(a0, IntExpr::bound(0)).ge(6));
        assert!(!p.eval(&e).unwrap());
    }

    #[test]
    fn exists_over_array() {
        let e = env();
        let a1 = ArrayId::from_raw(1);
        let p = Pred::exists(0, 2, IntExpr::elem(a1, IntExpr::bound(0)).eq(0));
        assert!(p.eval(&e).unwrap());
        let p = Pred::exists(0, 2, IntExpr::elem(a1, IntExpr::bound(0)).eq(9));
        assert!(!p.eval(&e).unwrap());
    }

    #[test]
    fn nested_quantifiers_use_de_bruijn_depth() {
        let e = env();
        let a0 = ArrayId::from_raw(0);
        // forall i in [0,3): exists j in [0,3): a0[j] >= a0[i]
        let p = Pred::forall(
            0,
            3,
            Pred::exists(
                0,
                3,
                IntExpr::elem(a0, IntExpr::bound(0)).ge(IntExpr::elem(a0, IntExpr::bound(1))),
            ),
        );
        assert!(p.eval(&e).unwrap());
    }

    #[test]
    fn empty_forall_is_true_empty_exists_is_false() {
        let e = env();
        assert!(Pred::forall(5, 5, Pred::ff()).eval(&e).unwrap());
        assert!(!Pred::exists(5, 5, Pred::tt()).eval(&e).unwrap());
    }

    #[test]
    fn oversized_range_rejected() {
        let e = env();
        let p = Pred::forall(0, MAX_QUANTIFIER_RANGE + 1, Pred::tt());
        assert!(matches!(p.eval(&e), Err(EvalError::RangeTooLarge { .. })));
    }

    #[test]
    fn unbound_param_and_binding() {
        let e = env();
        let expr = IntExpr::param(ParamId::from_raw(1)) + IntExpr::lit(1);
        assert_eq!(expr.eval(&e), Err(EvalError::UnboundParam(1)));
        assert_eq!(expr.max_param(), Some(1));
        let bound = expr.bind_params(&[10, 20]);
        assert_eq!(bound.eval(&e).unwrap(), 21);
        assert_eq!(bound.max_param(), None);
    }

    #[test]
    fn unbound_de_bruijn_index_errors() {
        let e = env();
        assert_eq!(IntExpr::bound(0).eval(&e), Err(EvalError::UnboundIndex(0)));
    }

    #[test]
    fn bind_params_in_predicates() {
        let e = env();
        let p = IntExpr::param(ParamId::from_raw(0)).ge(3);
        assert_eq!(p.max_param(), Some(0));
        assert!(p.bind_params(&[5]).eval(&e).unwrap());
        assert!(!p.bind_params(&[2]).eval(&e).unwrap());
    }

    #[test]
    fn state_independence() {
        assert!(IntExpr::lit(1).is_state_independent());
        assert!((IntExpr::lit(1) + IntExpr::param(ParamId::from_raw(0))).is_state_independent());
        assert!(!IntExpr::var(VarId::from_raw(0)).is_state_independent());
        assert!(Pred::tt().is_state_independent());
        assert!(!Pred::exists(
            0,
            3,
            IntExpr::elem(ArrayId::from_raw(0), IntExpr::bound(0)).eq(1)
        )
        .is_state_independent());
    }

    #[test]
    fn cmp_op_flip() {
        for (op, flipped) in [
            (CmpOp::Lt, CmpOp::Gt),
            (CmpOp::Le, CmpOp::Ge),
            (CmpOp::Eq, CmpOp::Eq),
            (CmpOp::Ne, CmpOp::Ne),
        ] {
            assert_eq!(op.flip(), flipped);
            for (a, b) in [(1, 2), (2, 2), (3, 2)] {
                assert_eq!(op.apply(a, b), op.flip().apply(b, a));
            }
        }
    }

    #[test]
    fn display_is_readable() {
        let v0 = IntExpr::var(VarId::from_raw(0));
        let p = Pred::forall(0, 3, IntExpr::bound(0).le(v0));
        let s = p.to_string();
        assert!(s.contains("forall"), "{s}");
        assert!(s.contains("v0"), "{s}");
    }

    #[test]
    fn and_or_flatten() {
        let p = Pred::tt().and(Pred::ff()).and(Pred::tt());
        if let Pred::And(ps) = &p {
            assert_eq!(ps.len(), 3);
        } else {
            panic!("expected flattened And, got {p:?}");
        }
        let p = Pred::tt().or(Pred::ff()).or(Pred::tt());
        if let Pred::Or(ps) = &p {
            assert_eq!(ps.len(), 3);
        } else {
            panic!("expected flattened Or, got {p:?}");
        }
    }
}
