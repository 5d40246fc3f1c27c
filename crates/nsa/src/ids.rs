//! Strongly-typed indices for the entities of a network of stopwatch automata.
//!
//! Every entity (clock, variable, array, channel, automaton, location, edge)
//! is stored in a flat arena inside [`crate::network::Network`] and referred
//! to by a small index newtype. The newtypes prevent accidentally using, say,
//! a clock index where a variable index is expected ([C-NEWTYPE]).
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $tag:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub(crate) u32);

        impl $name {
            /// Creates an id from a raw index.
            ///
            /// Mostly useful in tests; prefer the ids returned by the
            /// builder methods on [`crate::network::NetworkBuilder`].
            #[must_use]
            pub const fn from_raw(raw: u32) -> Self {
                Self(raw)
            }

            /// Returns the raw index backing this id.
            #[must_use]
            pub const fn raw(self) -> u32 {
                self.0
            }

            /// Returns the raw index as a `usize`, for arena indexing.
            #[must_use]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }
    };
}

define_id!(
    /// Identifier of a stopwatch clock in a network.
    ClockId,
    "c"
);
define_id!(
    /// Identifier of a bounded integer variable in a network.
    VarId,
    "v"
);
define_id!(
    /// Identifier of a bounded integer array in a network.
    ArrayId,
    "a"
);
define_id!(
    /// Identifier of a synchronization channel in a network.
    ChannelId,
    "ch"
);
define_id!(
    /// Identifier of an automaton inside a network.
    AutomatonId,
    "A"
);
define_id!(
    /// Identifier of an automaton template inside a network.
    TemplateId,
    "T"
);
define_id!(
    /// Identifier of a location inside one automaton.
    LocationId,
    "l"
);
define_id!(
    /// Identifier of an edge inside one automaton.
    EdgeId,
    "e"
);
define_id!(
    /// Identifier of an unbound template parameter.
    ///
    /// Parameters appear in parametric automata (templates); they must be
    /// substituted with concrete constants (see
    /// [`crate::expr::IntExpr::bind_params`]) before simulation.
    ParamId,
    "p"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_raw() {
        let c = ClockId::from_raw(7);
        assert_eq!(c.raw(), 7);
        assert_eq!(c.index(), 7);
    }

    #[test]
    fn display_uses_tag() {
        assert_eq!(ClockId::from_raw(3).to_string(), "c3");
        assert_eq!(VarId::from_raw(0).to_string(), "v0");
        assert_eq!(ArrayId::from_raw(1).to_string(), "a1");
        assert_eq!(ChannelId::from_raw(9).to_string(), "ch9");
        assert_eq!(AutomatonId::from_raw(2).to_string(), "A2");
        assert_eq!(LocationId::from_raw(4).to_string(), "l4");
        assert_eq!(EdgeId::from_raw(5).to_string(), "e5");
        assert_eq!(ParamId::from_raw(6).to_string(), "p6");
    }

    #[test]
    fn ids_are_ordered_by_raw_value() {
        assert!(ClockId::from_raw(1) < ClockId::from_raw(2));
        assert_eq!(ClockId::from_raw(5), ClockId::from_raw(5));
    }
}
