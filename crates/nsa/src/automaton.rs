//! Stopwatch automata: locations, edges, synchronization actions.
//!
//! An automaton is a graph of [`Location`]s connected by [`Edge`]s. Edges
//! carry a [`Guard`], a [`Sync`] action and a list of [`Update`]s. Locations
//! carry an [`Invariant`] and may be *committed*: while any automaton of the
//! network is in a committed location, time cannot pass and only transitions
//! involving a committed automaton may fire.

use std::fmt;

use crate::expr::Binding;
use crate::guard::{Guard, Invariant};
use crate::ids::{ChannelId, ClockId, EdgeId, LocationId, VarId};
use crate::update::Update;

/// Synchronization action of an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sync {
    /// Internal transition; fires alone.
    Internal,
    /// Sends a signal on the channel (`ch!` in UPPAAL notation).
    Send(ChannelId),
    /// Receives a signal from the channel (`ch?` in UPPAAL notation).
    Recv(ChannelId),
}

impl Sync {
    /// The channel this action uses, if any.
    #[must_use]
    pub fn channel(self) -> Option<ChannelId> {
        match self {
            Self::Internal => None,
            Self::Send(c) | Self::Recv(c) => Some(c),
        }
    }
}

impl Sync {
    /// The action with its channel renamed as `b` says.
    pub(crate) fn rebind(self, b: &Binding<'_>) -> Self {
        match self {
            Self::Internal => Self::Internal,
            Self::Send(c) => Self::Send(b.channel(c)),
            Self::Recv(c) => Self::Recv(b.channel(c)),
        }
    }
}

impl fmt::Display for Sync {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Internal => write!(f, "tau"),
            Self::Send(c) => write!(f, "{c}!"),
            Self::Recv(c) => write!(f, "{c}?"),
        }
    }
}

/// A location (node) of an automaton.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Location {
    /// Human-readable name, used in traces and DOT exports.
    pub name: String,
    /// Whether the location is committed (urgent, time-stopping).
    pub committed: bool,
    /// Invariant that must hold while the automaton stays here.
    pub invariant: Invariant,
}

impl Location {
    /// A plain location with no invariant.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            committed: false,
            invariant: Invariant::none(),
        }
    }

    /// A committed location (no delay may happen while here).
    #[must_use]
    pub fn committed(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            committed: true,
            invariant: Invariant::none(),
        }
    }

    /// Attaches an invariant (builder style).
    #[must_use]
    pub fn with_invariant(mut self, invariant: Invariant) -> Self {
        self.invariant = invariant;
        self
    }
}

/// An edge (action transition) of an automaton.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    /// Source location.
    pub from: LocationId,
    /// Target location.
    pub to: LocationId,
    /// Enabling condition.
    pub guard: Guard,
    /// Synchronization action.
    pub sync: Sync,
    /// Updates applied when the edge fires.
    pub updates: Vec<Update>,
    /// Optional label for traces and DOT exports.
    pub label: String,
}

impl Edge {
    /// Creates an internal edge with a true guard and no updates.
    #[must_use]
    pub fn new(from: LocationId, to: LocationId) -> Self {
        Self {
            from,
            to,
            guard: Guard::always(),
            sync: Sync::Internal,
            updates: Vec::new(),
            label: String::new(),
        }
    }

    /// Sets the guard (builder style).
    #[must_use]
    pub fn with_guard(mut self, guard: Guard) -> Self {
        self.guard = guard;
        self
    }

    /// Sets the synchronization action (builder style).
    #[must_use]
    pub fn with_sync(mut self, sync: Sync) -> Self {
        self.sync = sync;
        self
    }

    /// Appends an update (builder style).
    #[must_use]
    pub fn with_update(mut self, update: Update) -> Self {
        self.updates.push(update);
        self
    }

    /// Appends several updates (builder style).
    #[must_use]
    pub fn with_updates(mut self, updates: impl IntoIterator<Item = Update>) -> Self {
        self.updates.extend(updates);
        self
    }

    /// Sets the label (builder style).
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Substitutes template parameters in guard and updates.
    #[must_use]
    pub fn bind_params(&self, params: &[i64]) -> Self {
        self.rebind(&Binding::params(params))
    }

    /// Binds parameters and renames clocks, variables and channels.
    pub(crate) fn rebind(&self, b: &Binding<'_>) -> Self {
        Self {
            from: self.from,
            to: self.to,
            guard: self.guard.rebind(b),
            sync: self.sync.rebind(b),
            updates: self.updates.iter().map(|u| u.rebind(b)).collect(),
            label: self.label.clone(),
        }
    }

    /// Largest parameter index used by the edge.
    #[must_use]
    pub fn max_param(&self) -> Option<u32> {
        let mut m = self.guard.max_param();
        for u in &self.updates {
            m = match (m, u.max_param()) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (x, None) => x,
                (None, y) => y,
            };
        }
        m
    }
}

/// A stopwatch automaton: locations, an initial location, and edges.
///
/// Clocks, variables, arrays and channels live in the enclosing
/// [`crate::network::Network`]; the automaton references them by id. This
/// mirrors the paper's automaton interface: shared variables and channels
/// form the interface through which automata communicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Automaton {
    /// Name of the automaton (unique within a network).
    pub name: String,
    /// Locations, indexed by [`LocationId`].
    pub locations: Vec<Location>,
    /// The initial location.
    pub initial: LocationId,
    /// Edges, indexed by [`EdgeId`]. The index order is the deterministic
    /// tie-break order used by the simulator.
    pub edges: Vec<Edge>,
}

impl Automaton {
    /// Creates an automaton with the given locations; the first location is
    /// initial. Use [`AutomatonBuilder`] for incremental construction.
    #[must_use]
    pub fn new(name: impl Into<String>, locations: Vec<Location>, edges: Vec<Edge>) -> Self {
        Self {
            name: name.into(),
            locations,
            initial: LocationId::from_raw(0),
            edges,
        }
    }

    /// Returns a location by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range (network validation prevents this
    /// for validated networks).
    #[must_use]
    pub fn location(&self, id: LocationId) -> &Location {
        &self.locations[id.index()]
    }

    /// Returns an edge by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// Iterates over `(EdgeId, &Edge)` pairs of edges leaving `from`.
    pub fn edges_from(&self, from: LocationId) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.edges
            .iter()
            .enumerate()
            .filter(move |(_, e)| e.from == from)
            .map(|(i, e)| {
                (
                    EdgeId::from_raw(u32::try_from(i).expect("edge count fits u32")),
                    e,
                )
            })
    }

    /// Looks up a location id by name.
    #[must_use]
    pub fn location_by_name(&self, name: &str) -> Option<LocationId> {
        self.locations
            .iter()
            .position(|l| l.name == name)
            .map(|i| LocationId::from_raw(u32::try_from(i).expect("location count fits u32")))
    }

    /// Substitutes template parameters in every edge and invariant.
    #[must_use]
    pub fn bind_params(&self, params: &[i64]) -> Self {
        self.rebind(&Binding::params(params), self.name.clone())
    }

    /// The instance of this template that `b` binds, named `name`.
    pub(crate) fn rebind(&self, b: &Binding<'_>, name: String) -> Self {
        Self {
            name,
            locations: self
                .locations
                .iter()
                .map(|l| Location {
                    name: l.name.clone(),
                    committed: l.committed,
                    invariant: l.invariant.rebind(b),
                })
                .collect(),
            initial: self.initial,
            edges: self.edges.iter().map(|e| e.rebind(b)).collect(),
        }
    }

    /// Largest parameter index used anywhere in the automaton.
    #[must_use]
    pub fn max_param(&self) -> Option<u32> {
        let mut m = None;
        for l in &self.locations {
            m = opt_max(m, l.invariant.max_param());
        }
        for e in &self.edges {
            m = opt_max(m, e.max_param());
        }
        m
    }
}

fn opt_max(a: Option<u32>, b: Option<u32>) -> Option<u32> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// One instance of a template (see
/// [`NetworkBuilder::template`](crate::network::NetworkBuilder::template)):
/// its name, the values of the template's parameters, and the network ids
/// its local clocks, variables and channels stand for. The template's
/// local id `i` of a kind maps to entry `i` of that kind's table; an empty
/// table leaves that kind's ids as written, which is how an automaton
/// added with [`NetworkBuilder::automaton`](crate::network::NetworkBuilder::automaton)
/// becomes its own one-instance template.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Frame {
    /// Name of the instance (unique within a network).
    pub name: String,
    /// Value of each [`crate::ids::ParamId`], by index.
    pub params: Vec<i64>,
    /// Network clock of each local clock id.
    pub clocks: Vec<ClockId>,
    /// Network variable of each local variable id.
    pub vars: Vec<VarId>,
    /// Network channel of each local channel id.
    pub channels: Vec<ChannelId>,
}

impl Frame {
    pub(crate) fn binding(&self) -> Binding<'_> {
        Binding {
            params: &self.params,
            clocks: &self.clocks,
            vars: &self.vars,
            channels: &self.channels,
        }
    }
}

/// Incremental builder for an [`Automaton`].
///
/// # Examples
///
/// ```
/// use swa_nsa::automaton::{AutomatonBuilder, Edge};
///
/// let mut b = AutomatonBuilder::new("toggler");
/// let off = b.location("off");
/// let on = b.location("on");
/// b.edge(Edge::new(off, on).with_label("switch_on"));
/// b.edge(Edge::new(on, off).with_label("switch_off"));
/// let automaton = b.finish(off);
/// assert_eq!(automaton.locations.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct AutomatonBuilder {
    name: String,
    locations: Vec<Location>,
    edges: Vec<Edge>,
}

impl AutomatonBuilder {
    /// Starts building an automaton with the given name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            locations: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Adds a plain location and returns its id.
    pub fn location(&mut self, name: impl Into<String>) -> LocationId {
        self.add_location(Location::new(name))
    }

    /// Adds a committed location and returns its id.
    pub fn committed_location(&mut self, name: impl Into<String>) -> LocationId {
        self.add_location(Location::committed(name))
    }

    /// Adds a location with an invariant and returns its id.
    pub fn location_with_invariant(
        &mut self,
        name: impl Into<String>,
        invariant: Invariant,
    ) -> LocationId {
        self.add_location(Location::new(name).with_invariant(invariant))
    }

    /// Adds an arbitrary location and returns its id.
    pub fn add_location(&mut self, location: Location) -> LocationId {
        let id = LocationId::from_raw(
            u32::try_from(self.locations.len()).expect("location count fits u32"),
        );
        self.locations.push(location);
        id
    }

    /// Adds an edge and returns its id.
    pub fn edge(&mut self, edge: Edge) -> EdgeId {
        let id = EdgeId::from_raw(u32::try_from(self.edges.len()).expect("edge count fits u32"));
        self.edges.push(edge);
        id
    }

    /// Finishes the automaton with the given initial location.
    #[must_use]
    pub fn finish(self, initial: LocationId) -> Automaton {
        Automaton {
            name: self.name,
            locations: self.locations,
            initial,
            edges: self.edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::IntExpr;
    use crate::ids::{ParamId, VarId};

    #[test]
    fn builder_assigns_sequential_ids() {
        let mut b = AutomatonBuilder::new("a");
        let l0 = b.location("zero");
        let l1 = b.committed_location("one");
        assert_eq!(l0, LocationId::from_raw(0));
        assert_eq!(l1, LocationId::from_raw(1));
        let e0 = b.edge(Edge::new(l0, l1));
        assert_eq!(e0, EdgeId::from_raw(0));
        let a = b.finish(l0);
        assert_eq!(a.initial, l0);
        assert!(a.location(l1).committed);
        assert!(!a.location(l0).committed);
    }

    #[test]
    fn edges_from_filters_by_source() {
        let mut b = AutomatonBuilder::new("a");
        let l0 = b.location("zero");
        let l1 = b.location("one");
        b.edge(Edge::new(l0, l1).with_label("x"));
        b.edge(Edge::new(l1, l0).with_label("y"));
        b.edge(Edge::new(l0, l0).with_label("z"));
        let a = b.finish(l0);
        let from0: Vec<_> = a.edges_from(l0).map(|(_, e)| e.label.clone()).collect();
        assert_eq!(from0, vec!["x", "z"]);
    }

    #[test]
    fn location_lookup_by_name() {
        let mut b = AutomatonBuilder::new("a");
        let l0 = b.location("idle");
        b.location("busy");
        let a = b.finish(l0);
        assert_eq!(a.location_by_name("busy"), Some(LocationId::from_raw(1)));
        assert_eq!(a.location_by_name("missing"), None);
    }

    #[test]
    fn sync_channel_accessor() {
        assert_eq!(Sync::Internal.channel(), None);
        let ch = ChannelId::from_raw(2);
        assert_eq!(Sync::Send(ch).channel(), Some(ch));
        assert_eq!(Sync::Recv(ch).channel(), Some(ch));
        assert_eq!(Sync::Send(ch).to_string(), "ch2!");
        assert_eq!(Sync::Recv(ch).to_string(), "ch2?");
        assert_eq!(Sync::Internal.to_string(), "tau");
    }

    #[test]
    fn bind_params_on_automaton() {
        let mut b = AutomatonBuilder::new("a");
        let l0 = b.location_with_invariant(
            "wait",
            Invariant::upper_bound(
                crate::ids::ClockId::from_raw(0),
                IntExpr::param(ParamId::from_raw(0)),
            ),
        );
        b.edge(
            Edge::new(l0, l0)
                .with_guard(Guard::when(IntExpr::param(ParamId::from_raw(1)).gt(0)))
                .with_update(Update::set(
                    VarId::from_raw(0),
                    IntExpr::param(ParamId::from_raw(2)),
                )),
        );
        let a = b.finish(l0);
        assert_eq!(a.max_param(), Some(2));
        let bound = a.bind_params(&[10, 1, 7]);
        assert_eq!(bound.max_param(), None);
    }
}
