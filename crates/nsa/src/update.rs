//! Updates performed when an edge fires: variable assignments and clock
//! operations (reset, stop, resume).

use std::fmt;

use crate::expr::{Binding, IntExpr, Pred};
use crate::ids::{ArrayId, ClockId, VarId};

/// Target of an assignment: a scalar variable or an array element.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LValue {
    /// A scalar variable.
    Var(VarId),
    /// An array element with a computed index.
    Elem(ArrayId, Box<IntExpr>),
}

impl LValue {
    /// Scalar variable target.
    #[must_use]
    pub fn var(var: VarId) -> Self {
        Self::Var(var)
    }

    /// Array element target.
    #[must_use]
    pub fn elem(array: ArrayId, index: impl Into<IntExpr>) -> Self {
        Self::Elem(array, Box::new(index.into()))
    }
}

impl fmt::Display for LValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Var(v) => write!(f, "{v}"),
            Self::Elem(a, idx) => write!(f, "{a}[{idx}]"),
        }
    }
}

/// One atomic update executed when an edge fires.
///
/// Updates on a single edge execute in order; on a synchronization, the
/// sender's updates execute before the receivers' (UPPAAL convention).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Update {
    /// `target := value`.
    Assign {
        /// The assigned variable or array element.
        target: LValue,
        /// Clock-free right-hand side.
        value: IntExpr,
    },
    /// Resets a clock to zero (keeps its running/stopped status).
    ResetClock(ClockId),
    /// Stops a clock; its value is frozen until resumed.
    StopClock(ClockId),
    /// Resumes a stopped clock from its frozen value.
    StartClock(ClockId),
    /// Conditional update: applies `then` if `cond` holds, else `otherwise`.
    If {
        /// Condition evaluated against the pre-update state of this update.
        cond: Pred,
        /// Updates applied when the condition holds.
        then: Vec<Update>,
        /// Updates applied when the condition does not hold.
        otherwise: Vec<Update>,
    },
}

impl Update {
    /// Assignment `target := value`.
    #[must_use]
    pub fn assign(target: LValue, value: impl Into<IntExpr>) -> Self {
        Self::Assign {
            target,
            value: value.into(),
        }
    }

    /// Assignment to a scalar variable.
    #[must_use]
    pub fn set(var: VarId, value: impl Into<IntExpr>) -> Self {
        Self::assign(LValue::var(var), value)
    }

    /// Assignment to an array element.
    #[must_use]
    pub fn set_elem(array: ArrayId, index: impl Into<IntExpr>, value: impl Into<IntExpr>) -> Self {
        Self::assign(LValue::elem(array, index), value)
    }

    /// Substitutes template parameters in every contained expression.
    #[must_use]
    pub fn bind_params(&self, params: &[i64]) -> Self {
        self.rebind(&Binding::params(params))
    }

    /// Binds parameters and renames variables and clocks.
    pub(crate) fn rebind(&self, b: &Binding<'_>) -> Self {
        match self {
            Self::Assign { target, value } => Self::Assign {
                target: match target {
                    LValue::Var(v) => LValue::Var(b.var(*v)),
                    LValue::Elem(a, idx) => LValue::Elem(*a, Box::new(idx.rebind(b))),
                },
                value: value.rebind(b),
            },
            Self::ResetClock(c) => Self::ResetClock(b.clock(*c)),
            Self::StopClock(c) => Self::StopClock(b.clock(*c)),
            Self::StartClock(c) => Self::StartClock(b.clock(*c)),
            Self::If {
                cond,
                then,
                otherwise,
            } => Self::If {
                cond: cond.rebind(b),
                then: then.iter().map(|u| u.rebind(b)).collect(),
                otherwise: otherwise.iter().map(|u| u.rebind(b)).collect(),
            },
        }
    }

    /// Largest parameter index used by the update.
    #[must_use]
    pub fn max_param(&self) -> Option<u32> {
        fn opt_max(a: Option<u32>, b: Option<u32>) -> Option<u32> {
            match (a, b) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, None) => x,
                (None, y) => y,
            }
        }
        match self {
            Self::Assign { target, value } => {
                let t = match target {
                    LValue::Var(_) => None,
                    LValue::Elem(_, idx) => idx.max_param(),
                };
                opt_max(t, value.max_param())
            }
            Self::ResetClock(_) | Self::StopClock(_) | Self::StartClock(_) => None,
            Self::If {
                cond,
                then,
                otherwise,
            } => {
                let mut m = cond.max_param();
                for u in then.iter().chain(otherwise) {
                    m = opt_max(m, u.max_param());
                }
                m
            }
        }
    }
}

impl fmt::Display for Update {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Assign { target, value } => write!(f, "{target} := {value}"),
            Self::ResetClock(c) => write!(f, "{c} := 0"),
            Self::StopClock(c) => write!(f, "stop {c}"),
            Self::StartClock(c) => write!(f, "start {c}"),
            Self::If {
                cond,
                then,
                otherwise,
            } => {
                write!(f, "if {cond} {{ ")?;
                for u in then {
                    write!(f, "{u}; ")?;
                }
                write!(f, "}} else {{ ")?;
                for u in otherwise {
                    write!(f, "{u}; ")?;
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ParamId;

    #[test]
    fn constructors() {
        let u = Update::set(VarId::from_raw(0), 5);
        assert_eq!(
            u,
            Update::Assign {
                target: LValue::Var(VarId::from_raw(0)),
                value: IntExpr::lit(5)
            }
        );
        let u = Update::set_elem(ArrayId::from_raw(1), 2, 3);
        assert!(matches!(
            u,
            Update::Assign {
                target: LValue::Elem(..),
                ..
            }
        ));
    }

    #[test]
    fn bind_params_in_nested_if() {
        let p = IntExpr::param(ParamId::from_raw(0));
        let u = Update::If {
            cond: p.clone().gt(0),
            then: vec![Update::set(VarId::from_raw(0), p.clone())],
            otherwise: vec![Update::set_elem(ArrayId::from_raw(0), p, 1)],
        };
        assert_eq!(u.max_param(), Some(0));
        let bound = u.bind_params(&[9]);
        assert_eq!(bound.max_param(), None);
        if let Update::If { cond, then, .. } = &bound {
            assert_eq!(cond, &IntExpr::lit(9).gt(0));
            assert_eq!(then[0], Update::set(VarId::from_raw(0), 9));
        } else {
            panic!("expected If");
        }
    }

    #[test]
    fn clock_updates_have_no_params() {
        assert_eq!(Update::ResetClock(ClockId::from_raw(0)).max_param(), None);
        assert_eq!(Update::StopClock(ClockId::from_raw(0)).max_param(), None);
        assert_eq!(Update::StartClock(ClockId::from_raw(0)).max_param(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Update::set(VarId::from_raw(1), 2).to_string(), "v1 := 2");
        assert_eq!(
            Update::ResetClock(ClockId::from_raw(3)).to_string(),
            "c3 := 0"
        );
        assert_eq!(
            Update::StopClock(ClockId::from_raw(3)).to_string(),
            "stop c3"
        );
        assert_eq!(
            Update::StartClock(ClockId::from_raw(3)).to_string(),
            "start c3"
        );
    }
}
