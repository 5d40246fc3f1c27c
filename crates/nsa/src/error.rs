//! Error types for network construction and interpretation.

use std::fmt;

use crate::ids::{AutomatonId, ClockId, LocationId, VarId};

/// Errors raised while building or validating a network.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// A referenced clock id does not exist in the network.
    UnknownClock(ClockId),
    /// A referenced variable id does not exist in the network.
    UnknownVar(VarId),
    /// A referenced array id does not exist in the network.
    UnknownArray(u32),
    /// A referenced channel id does not exist in the network.
    UnknownChannel(u32),
    /// A referenced location id does not exist in the automaton.
    UnknownLocation {
        /// Automaton owning the edge.
        automaton: AutomatonId,
        /// The missing location.
        location: LocationId,
    },
    /// An automaton was declared without any location.
    EmptyAutomaton(AutomatonId),
    /// A variable's initial value lies outside its declared domain.
    InitialValueOutOfDomain {
        /// The offending variable.
        var: VarId,
        /// Declared initial value.
        value: i64,
        /// Declared inclusive domain.
        domain: (i64, i64),
    },
    /// A variable domain is empty (`min > max`).
    EmptyDomain {
        /// The offending variable.
        var: VarId,
        /// Declared inclusive domain.
        domain: (i64, i64),
    },
    /// An expression still contains an unbound template parameter.
    UnboundParam {
        /// Index of the parameter.
        param: u32,
        /// Human-readable position of the offending expression.
        context: String,
    },
    /// A quantifier body nests deeper than the supported limit.
    QuantifierTooDeep {
        /// Maximum supported depth.
        limit: usize,
    },
    /// Two automata declare the same name.
    DuplicateAutomatonName(String),
    /// A binary channel is used by fewer than two automata, or a
    /// send/receive pairing is impossible.
    DanglingChannel {
        /// The offending channel's name.
        channel: String,
        /// Explanation of the problem.
        reason: String,
    },
    /// An instance binds a different number of parameters, clocks,
    /// variables or channels than the first instance of its template.
    FrameShape {
        /// The mismatching instance.
        automaton: AutomatonId,
    },
    /// The network declares more items of one kind than ids can address
    /// (ids are `u32`-backed). A hostile or runaway generator degrades
    /// into this error instead of a process abort.
    CapacityExceeded {
        /// What overflowed: `"clocks"`, `"variables"`, `"arrays"`,
        /// `"channels"`, `"automata"` or `"edges"`.
        kind: &'static str,
        /// The number of addressable items of that kind.
        limit: u64,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownClock(c) => write!(f, "unknown clock {c}"),
            Self::UnknownVar(v) => write!(f, "unknown variable {v}"),
            Self::UnknownArray(a) => write!(f, "unknown array a{a}"),
            Self::UnknownChannel(c) => write!(f, "unknown channel ch{c}"),
            Self::UnknownLocation {
                automaton,
                location,
            } => write!(f, "unknown location {location} in automaton {automaton}"),
            Self::EmptyAutomaton(a) => write!(f, "automaton {a} has no locations"),
            Self::InitialValueOutOfDomain { var, value, domain } => write!(
                f,
                "initial value {value} of variable {var} outside domain [{}, {}]",
                domain.0, domain.1
            ),
            Self::EmptyDomain { var, domain } => write!(
                f,
                "variable {var} has empty domain [{}, {}]",
                domain.0, domain.1
            ),
            Self::UnboundParam { param, context } => {
                write!(f, "unbound template parameter p{param} in {context}")
            }
            Self::QuantifierTooDeep { limit } => {
                write!(f, "quantifier nesting exceeds supported depth {limit}")
            }
            Self::DuplicateAutomatonName(name) => {
                write!(f, "duplicate automaton name {name:?}")
            }
            Self::DanglingChannel { channel, reason } => {
                write!(f, "channel {channel:?} is miswired: {reason}")
            }
            Self::FrameShape { automaton } => write!(
                f,
                "automaton {automaton} binds a different frame shape than its template's first instance"
            ),
            Self::CapacityExceeded { kind, limit } => {
                write!(f, "network declares more than {limit} {kind}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Errors raised while evaluating expressions over a state.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EvalError {
    /// Division or modulo by zero.
    DivisionByZero,
    /// Arithmetic overflow during evaluation.
    Overflow,
    /// An array access was out of bounds.
    IndexOutOfBounds {
        /// The accessed array.
        array: u32,
        /// The evaluated index.
        index: i64,
        /// The array length.
        len: usize,
    },
    /// A quantifier range was absurdly large (guards against runaway loops).
    RangeTooLarge {
        /// Evaluated lower bound.
        lo: i64,
        /// Evaluated upper bound.
        hi: i64,
    },
    /// The expression references a template parameter that was never bound.
    UnboundParam(u32),
    /// A de Bruijn index referenced a quantifier binder that is not in scope.
    UnboundIndex(usize),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DivisionByZero => write!(f, "division by zero"),
            Self::Overflow => write!(f, "arithmetic overflow"),
            Self::IndexOutOfBounds { array, index, len } => {
                write!(
                    f,
                    "index {index} out of bounds for array a{array} of length {len}"
                )
            }
            Self::RangeTooLarge { lo, hi } => {
                write!(f, "quantifier range [{lo}, {hi}) too large")
            }
            Self::UnboundParam(p) => write!(f, "unbound template parameter p{p}"),
            Self::UnboundIndex(i) => write!(f, "unbound quantifier index {i}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Errors raised during simulation (interpretation) of a network.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// An expression failed to evaluate.
    Eval(EvalError),
    /// An assignment drove a variable outside its declared domain.
    DomainViolation {
        /// The assigned variable.
        var: VarId,
        /// The offending value.
        value: i64,
        /// The declared inclusive domain.
        domain: (i64, i64),
    },
    /// More than [`crate::sim::Simulator::max_steps_per_instant`] action
    /// transitions fired without time advancing — the model is Zeno.
    ZenoViolation {
        /// Model time at which progress stopped.
        time: i64,
        /// The step bound that was exceeded.
        limit: usize,
    },
    /// An invariant bounds the possible delay but no action transition ever
    /// becomes enabled within that bound: time cannot progress.
    TimeLock {
        /// Model time at which the network is stuck.
        time: i64,
        /// Automaton whose invariant expires first.
        automaton: AutomatonId,
    },
    /// A location invariant does not hold at the moment the location is
    /// entered (or initially).
    InvariantViolated {
        /// The automaton whose invariant failed.
        automaton: AutomatonId,
        /// The location whose invariant failed.
        location: LocationId,
        /// Model time of the violation.
        time: i64,
    },
    /// A committed location has no enabled outgoing transition, so the
    /// network cannot proceed.
    CommittedDeadlock {
        /// The stuck automaton.
        automaton: AutomatonId,
        /// Model time of the deadlock.
        time: i64,
    },
    /// A wake-time computation overflowed `i64` — a guard constant close
    /// to `i64::MAX` pushed an absolute deadline past the representable
    /// range. (Previously the event wheel saturated and silently parked
    /// the automaton forever.)
    Overflow {
        /// Model time at which the overflow occurred.
        time: i64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Eval(e) => write!(f, "evaluation failed: {e}"),
            Self::DomainViolation { var, value, domain } => write!(
                f,
                "assignment of {value} to {var} violates domain [{}, {}]",
                domain.0, domain.1
            ),
            Self::ZenoViolation { time, limit } => write!(
                f,
                "more than {limit} action transitions at time {time} without progress (Zeno run)"
            ),
            Self::TimeLock { time, automaton } => write!(
                f,
                "time lock at time {time}: invariant of automaton {automaton} expires \
                 but no transition is enabled"
            ),
            Self::InvariantViolated {
                automaton,
                location,
                time,
            } => write!(
                f,
                "invariant of location {location} in automaton {automaton} violated at time {time}"
            ),
            Self::CommittedDeadlock { automaton, time } => write!(
                f,
                "committed location in automaton {automaton} has no enabled transition at time {time}"
            ),
            Self::Overflow { time } => write!(
                f,
                "wake-time arithmetic overflowed i64 at time {time} (guard bound too close to i64::MAX)"
            ),
        }
    }
}

impl std::error::Error for SimError {}

impl From<EvalError> for SimError {
    fn from(e: EvalError) -> Self {
        Self::Eval(e)
    }
}

/// Errors raised while decoding or restoring a simulator [`crate::snapshot::Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The serialized snapshot carries an unsupported format version.
    UnsupportedVersion {
        /// Version found in the byte stream.
        found: u8,
        /// Version this build reads and writes.
        supported: u8,
    },
    /// The byte stream ended before the snapshot was fully decoded.
    Truncated,
    /// The byte stream decoded cleanly but left unconsumed bytes.
    TrailingBytes {
        /// Number of bytes left over.
        extra: usize,
    },
    /// A snapshot vector does not match the target network's declarations
    /// (the snapshot was taken of a different network shape).
    NetworkMismatch {
        /// Which vector mismatched: `"locations"`, `"clocks"` or
        /// `"variables"`.
        field: &'static str,
        /// Length the network declares.
        expected: usize,
        /// Length the snapshot carries.
        found: usize,
    },
    /// A snapshotted location id is out of range for its automaton.
    LocationOutOfRange {
        /// The automaton whose location is invalid.
        automaton: AutomatonId,
        /// The out-of-range location.
        location: LocationId,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot format version {found} is not supported (this build reads version {supported})"
            ),
            Self::Truncated => write!(f, "snapshot byte stream is truncated"),
            Self::TrailingBytes { extra } => {
                write!(f, "snapshot byte stream has {extra} trailing bytes")
            }
            Self::NetworkMismatch {
                field,
                expected,
                found,
            } => write!(
                f,
                "snapshot carries {found} {field} but the network declares {expected}"
            ),
            Self::LocationOutOfRange {
                automaton,
                location,
            } => write!(
                f,
                "snapshot location {location} is out of range for automaton {automaton}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase_lead() {
        let errors: Vec<Box<dyn std::error::Error>> = vec![
            Box::new(BuildError::UnknownClock(ClockId::from_raw(1))),
            Box::new(EvalError::DivisionByZero),
            Box::new(SimError::ZenoViolation { time: 5, limit: 10 }),
            Box::new(SnapshotError::Truncated),
            Box::new(SnapshotError::UnsupportedVersion {
                found: 9,
                supported: 1,
            }),
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            let first = msg.chars().next().unwrap();
            assert!(
                first.is_lowercase() || first.is_numeric(),
                "message {msg:?}"
            );
        }
    }

    #[test]
    fn sim_error_from_eval_error() {
        let e: SimError = EvalError::Overflow.into();
        assert_eq!(e, SimError::Eval(EvalError::Overflow));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BuildError>();
        assert_send_sync::<EvalError>();
        assert_send_sync::<SimError>();
        assert_send_sync::<SnapshotError>();
    }
}
