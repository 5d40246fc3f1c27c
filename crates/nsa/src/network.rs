//! Networks of stopwatch automata: shared declarations plus a set of
//! automata operating synchronously.
//!
//! A [`Network`] owns all clocks, bounded integer variables, arrays and
//! channels; automata reference them by id. This mirrors the paper's model,
//! where shared variables (`is_ready`, `prio`, …) and channels (`exec`,
//! `preempt`, …) form the interfaces between component automata.

use std::collections::HashSet;
use std::sync::OnceLock;

use crate::automaton::{Automaton, Frame, Sync};
use crate::bytecode::CompiledNetwork;
use crate::error::BuildError;
use crate::expr::{IntExpr, Pred};
use crate::ids::{ArrayId, AutomatonId, ChannelId, ClockId, EdgeId, LocationId, TemplateId, VarId};
use crate::update::{LValue, Update};

/// Kind of a synchronization channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelKind {
    /// Exactly one sender and one receiver synchronize; a send blocks until
    /// some receiver can take the complementary transition.
    Binary,
    /// One sender and every automaton with an enabled receiving edge
    /// synchronize; a send never blocks.
    Broadcast,
}

/// Declaration of a stopwatch clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClockDecl {
    /// Clock name (for traces and DOT exports).
    pub name: String,
    /// Whether the clock starts running (all clocks start at value 0).
    pub starts_running: bool,
}

/// Declaration of a bounded integer variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarDecl {
    /// Variable name.
    pub name: String,
    /// Initial value.
    pub init: i64,
    /// Inclusive domain.
    pub min: i64,
    /// Inclusive domain.
    pub max: i64,
}

/// Declaration of a bounded integer array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayDecl {
    /// Array name.
    pub name: String,
    /// Initial values; the length of this vector is the array length.
    pub init: Vec<i64>,
    /// Inclusive element domain.
    pub min: i64,
    /// Inclusive element domain.
    pub max: i64,
}

/// Declaration of a channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelDecl {
    /// Channel name.
    pub name: String,
    /// Binary or broadcast.
    pub kind: ChannelKind,
}

/// A validated network of stopwatch automata.
///
/// Every automaton is an *instance*: a [`Frame`] binding one of the
/// network's templates (see [`NetworkBuilder::template`]). Structure that
/// all instances of a template share — locations, outgoing edges, the
/// compiled programs before relocation — is stored and processed once per
/// template; the expanded per-instance automata that
/// [`automata`](Self::automata) returns are built on first use.
///
/// Construct through [`NetworkBuilder`]; the builder's
/// [`build`](NetworkBuilder::build) performs all structural validation, so a
/// `Network` value is always well-formed.
#[derive(Debug, Clone)]
pub struct Network {
    pub(crate) clocks: Vec<ClockDecl>,
    pub(crate) vars: Vec<VarDecl>,
    pub(crate) arrays: Vec<ArrayDecl>,
    pub(crate) channels: Vec<ChannelDecl>,
    pub(crate) templates: Vec<Template>,
    /// One per automaton, indexed by [`AutomatonId`].
    pub(crate) instances: Vec<Instance>,
    /// Offset of each array's cells in the flattened state vector
    /// (scalars first, then array cells in declaration order).
    pub(crate) array_offsets: Vec<usize>,
    /// Per channel: every receiving edge in the network, in canonical
    /// (automaton, edge) order.
    pub(crate) receivers: Vec<Vec<(AutomatonId, EdgeId)>>,
    /// Lazily expanded instance automata (see [`Network::automata`]).
    pub(crate) automata: OnceLock<Vec<Automaton>>,
    /// Lazily compiled bytecode form of every guard, invariant and update
    /// (see [`crate::bytecode`]); built at most once per network value.
    pub(crate) compiled: OnceLock<CompiledNetwork>,
}

/// A template: an automaton whose clocks, variables and channels are
/// local ids and whose per-instance constants are parameters.
#[derive(Debug, Clone)]
pub(crate) struct Template {
    pub(crate) automaton: Automaton,
    /// Per location: outgoing edge ids (ascending).
    pub(crate) outgoing: Vec<Vec<EdgeId>>,
}

/// One automaton of a network: its template and the frame binding it.
#[derive(Debug, Clone)]
pub(crate) struct Instance {
    pub(crate) template: usize,
    pub(crate) frame: Frame,
}

/// Equality is over the declared model only (the expanded automata);
/// how they are factored into templates, and whether the lazy caches are
/// populated, are evaluation details.
impl PartialEq for Network {
    fn eq(&self, other: &Self) -> bool {
        self.clocks == other.clocks
            && self.vars == other.vars
            && self.arrays == other.arrays
            && self.channels == other.channels
            && self.automata() == other.automata()
    }
}

impl Eq for Network {}

impl Network {
    /// Clock declarations.
    #[must_use]
    pub fn clocks(&self) -> &[ClockDecl] {
        &self.clocks
    }

    /// Variable declarations.
    #[must_use]
    pub fn vars(&self) -> &[VarDecl] {
        &self.vars
    }

    /// Array declarations.
    #[must_use]
    pub fn arrays(&self) -> &[ArrayDecl] {
        &self.arrays
    }

    /// Channel declarations.
    #[must_use]
    pub fn channels(&self) -> &[ChannelDecl] {
        &self.channels
    }

    /// The automata of the network, indexed by [`AutomatonId`]: each
    /// instance's template with its ids renamed and its parameters bound.
    /// Expanded on first use and cached for the lifetime of this value.
    pub fn automata(&self) -> &[Automaton] {
        self.automata.get_or_init(|| {
            self.instances
                .iter()
                .map(|i| {
                    let t = &self.templates[i.template].automaton;
                    t.rebind(&i.frame.binding(), i.frame.name.clone())
                })
                .collect()
        })
    }

    /// Whether [`automata`](Self::automata) has already expanded the
    /// instances (observability: the simulator's bytecode path never
    /// needs them).
    #[must_use]
    pub fn is_materialized(&self) -> bool {
        self.automata.get().is_some()
    }

    /// Returns an automaton by id (expanding the instances on first use).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn automaton(&self, id: AutomatonId) -> &Automaton {
        &self.automata()[id.index()]
    }

    /// Number of automata.
    #[must_use]
    pub fn automaton_count(&self) -> usize {
        self.instances.len()
    }

    /// Every automaton id, ascending.
    pub fn automaton_ids(&self) -> impl Iterator<Item = AutomatonId> {
        // `NetworkBuilder::instance` caps the count at the `u32` id space.
        (0..u32::try_from(self.instances.len()).expect("automaton count fits u32"))
            .map(AutomatonId::from_raw)
    }

    /// Name of an automaton.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn automaton_name(&self, id: AutomatonId) -> &str {
        &self.instances[id.index()].frame.name
    }

    /// Looks up an automaton id by name.
    #[must_use]
    pub fn automaton_by_name(&self, name: &str) -> Option<AutomatonId> {
        self.instances
            .iter()
            .position(|i| i.frame.name == name)
            .and_then(|i| u32::try_from(i).ok().map(AutomatonId::from_raw))
    }

    fn template(&self, id: AutomatonId) -> &Template {
        &self.templates[self.instances[id.index()].template]
    }

    /// The template of an automaton.
    pub(crate) fn template_of(&self, id: AutomatonId) -> &Automaton {
        &self.template(id).automaton
    }

    /// The initial location of an automaton.
    #[must_use]
    pub fn initial_location(&self, id: AutomatonId) -> LocationId {
        self.template_of(id).initial
    }

    /// Number of locations of an automaton.
    #[must_use]
    pub fn location_count(&self, id: AutomatonId) -> usize {
        self.template_of(id).locations.len()
    }

    /// Whether a location of an automaton is committed.
    #[must_use]
    pub fn is_committed(&self, id: AutomatonId, location: LocationId) -> bool {
        self.template_of(id).location(location).committed
    }

    /// The target location of an edge.
    #[must_use]
    pub fn edge_target(&self, id: AutomatonId, edge: EdgeId) -> LocationId {
        self.template_of(id).edge(edge).to
    }

    /// The synchronization action of an edge, on network channels.
    #[must_use]
    pub fn edge_sync(&self, id: AutomatonId, edge: EdgeId) -> Sync {
        let frame = &self.instances[id.index()].frame;
        self.template_of(id)
            .edge(edge)
            .sync
            .rebind(&frame.binding())
    }

    /// Looks up a channel id by name.
    #[must_use]
    pub fn channel_by_name(&self, name: &str) -> Option<ChannelId> {
        self.channels
            .iter()
            .position(|c| c.name == name)
            .and_then(|i| u32::try_from(i).ok().map(ChannelId::from_raw))
    }

    /// Looks up a variable id by name.
    #[must_use]
    pub fn var_by_name(&self, name: &str) -> Option<VarId> {
        self.vars
            .iter()
            .position(|v| v.name == name)
            .and_then(|i| u32::try_from(i).ok().map(VarId::from_raw))
    }

    /// Looks up an array id by name.
    #[must_use]
    pub fn array_by_name(&self, name: &str) -> Option<ArrayId> {
        self.arrays
            .iter()
            .position(|a| a.name == name)
            .and_then(|i| u32::try_from(i).ok().map(ArrayId::from_raw))
    }

    /// Looks up a clock id by name.
    #[must_use]
    pub fn clock_by_name(&self, name: &str) -> Option<ClockId> {
        self.clocks
            .iter()
            .position(|c| c.name == name)
            .and_then(|i| u32::try_from(i).ok().map(ClockId::from_raw))
    }

    /// Total number of state variables (scalars plus flattened array cells).
    #[must_use]
    pub fn state_var_count(&self) -> usize {
        self.vars.len() + self.arrays.iter().map(|a| a.init.len()).sum::<usize>()
    }

    /// Outgoing edges of a location of an automaton, ascending by edge id.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    #[must_use]
    pub fn outgoing_edges(&self, automaton: AutomatonId, location: LocationId) -> &[EdgeId] {
        &self.template(automaton).outgoing[location.index()]
    }

    /// Every receiving edge on `channel`, in canonical (automaton, edge)
    /// order (regardless of current locations).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn receivers_on(&self, channel: ChannelId) -> &[(AutomatonId, EdgeId)] {
        &self.receivers[channel.index()]
    }

    /// Offset of the first cell of `array` in the flattened state vector.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn array_offset(&self, array: ArrayId) -> usize {
        self.array_offsets[array.index()]
    }

    /// Length of `array`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn array_len(&self, array: ArrayId) -> usize {
        self.arrays[array.index()].init.len()
    }

    /// The bytecode form of every guard, invariant and update, compiled on
    /// first use and cached for the lifetime of this network value.
    pub fn compiled(&self) -> &CompiledNetwork {
        self.compiled.get_or_init(|| CompiledNetwork::compile(self))
    }

    /// Whether [`compiled`](Self::compiled) has already run for this value
    /// (observability: distinguishes a bytecode-cache hit from a fresh
    /// compilation without forcing one).
    #[must_use]
    pub fn is_compiled(&self) -> bool {
        self.compiled.get().is_some()
    }
}

/// Builder for a [`Network`].
///
/// # Examples
///
/// ```
/// use swa_nsa::network::{ChannelKind, NetworkBuilder};
/// use swa_nsa::automaton::{AutomatonBuilder, Edge, Sync};
///
/// let mut nb = NetworkBuilder::new();
/// let ping = nb.binary_channel("ping");
///
/// let mut a = AutomatonBuilder::new("sender");
/// let s0 = a.location("s0");
/// a.edge(Edge::new(s0, s0).with_sync(Sync::Send(ping)));
/// nb.automaton(a.finish(s0));
///
/// let mut b = AutomatonBuilder::new("receiver");
/// let r0 = b.location("r0");
/// b.edge(Edge::new(r0, r0).with_sync(Sync::Recv(ping)));
/// nb.automaton(b.finish(r0));
///
/// let network = nb.build()?;
/// assert_eq!(network.automata().len(), 2);
/// # Ok::<(), swa_nsa::error::BuildError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    clocks: Vec<ClockDecl>,
    vars: Vec<VarDecl>,
    arrays: Vec<ArrayDecl>,
    channels: Vec<ChannelDecl>,
    templates: Vec<Automaton>,
    instances: Vec<Instance>,
    /// Maximum number of items of each kind the builder accepts.
    capacity_limit: u64,
    /// First capacity overflow observed; declaring methods stay infallible
    /// (they return a clamped id), and [`build`](Self::build) surfaces the
    /// error instead of aborting the process.
    capacity_error: Option<BuildError>,
}

/// Number of items each id kind can address (ids are `u32`-backed).
const ID_CAPACITY: u64 = 1 << 32;

impl Default for NetworkBuilder {
    fn default() -> Self {
        Self {
            clocks: Vec::new(),
            vars: Vec::new(),
            arrays: Vec::new(),
            channels: Vec::new(),
            templates: Vec::new(),
            instances: Vec::new(),
            capacity_limit: ID_CAPACITY,
            capacity_error: None,
        }
    }
}

impl NetworkBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Lowers the per-kind item limit, so tests can reach
    /// [`BuildError::CapacityExceeded`] without declaring 2^32 items.
    #[cfg(test)]
    #[must_use]
    fn with_capacity_limit(mut self, limit: u64) -> Self {
        self.capacity_limit = limit.min(ID_CAPACITY);
        self
    }

    /// The raw id for the next item of a kind with `count` existing items,
    /// recording a capacity error (and clamping) on overflow.
    fn next_raw(&mut self, count: usize, kind: &'static str) -> u32 {
        match u32::try_from(count) {
            Ok(raw) if u64::from(raw) < self.capacity_limit => raw,
            _ => {
                if self.capacity_error.is_none() {
                    self.capacity_error = Some(BuildError::CapacityExceeded {
                        kind,
                        limit: self.capacity_limit,
                    });
                }
                u32::MAX
            }
        }
    }

    /// Declares a running clock and returns its id.
    pub fn clock(&mut self, name: impl Into<String>) -> ClockId {
        self.add_clock(ClockDecl {
            name: name.into(),
            starts_running: true,
        })
    }

    /// Declares a clock that starts stopped and returns its id.
    pub fn stopped_clock(&mut self, name: impl Into<String>) -> ClockId {
        self.add_clock(ClockDecl {
            name: name.into(),
            starts_running: false,
        })
    }

    fn add_clock(&mut self, decl: ClockDecl) -> ClockId {
        let id = ClockId::from_raw(self.next_raw(self.clocks.len(), "clocks"));
        self.clocks.push(decl);
        id
    }

    /// Declares a bounded integer variable and returns its id.
    pub fn var(&mut self, name: impl Into<String>, init: i64, min: i64, max: i64) -> VarId {
        let id = VarId::from_raw(self.next_raw(self.vars.len(), "variables"));
        self.vars.push(VarDecl {
            name: name.into(),
            init,
            min,
            max,
        });
        id
    }

    /// Declares a boolean-like variable with domain `[0, 1]`.
    pub fn flag(&mut self, name: impl Into<String>, init: bool) -> VarId {
        self.var(name, i64::from(init), 0, 1)
    }

    /// Declares a bounded integer array and returns its id.
    pub fn array(
        &mut self,
        name: impl Into<String>,
        init: Vec<i64>,
        min: i64,
        max: i64,
    ) -> ArrayId {
        let id = ArrayId::from_raw(self.next_raw(self.arrays.len(), "arrays"));
        self.arrays.push(ArrayDecl {
            name: name.into(),
            init,
            min,
            max,
        });
        id
    }

    /// Declares a binary channel and returns its id.
    pub fn binary_channel(&mut self, name: impl Into<String>) -> ChannelId {
        self.add_channel(name.into(), ChannelKind::Binary)
    }

    /// Declares a broadcast channel and returns its id.
    pub fn broadcast_channel(&mut self, name: impl Into<String>) -> ChannelId {
        self.add_channel(name.into(), ChannelKind::Broadcast)
    }

    fn add_channel(&mut self, name: String, kind: ChannelKind) -> ChannelId {
        let id = ChannelId::from_raw(self.next_raw(self.channels.len(), "channels"));
        self.channels.push(ChannelDecl { name, kind });
        id
    }

    /// Adds an automaton and returns its id. The automaton becomes its
    /// own one-instance template, with the ids it names being network ids.
    pub fn automaton(&mut self, automaton: Automaton) -> AutomatonId {
        let frame = Frame {
            name: automaton.name.clone(),
            ..Frame::default()
        };
        self.template(automaton);
        self.push_instance(self.templates.len() - 1, frame)
    }

    /// Declares a template: an automaton whose clock, variable and channel
    /// ids are local (resolved per instance through its [`Frame`]) and
    /// whose per-instance constants are [`crate::expr::IntExpr::Param`]s.
    /// Validation and bytecode compilation run once per template, and
    /// each instance's programs are the template's, relocated.
    pub fn template(&mut self, skeleton: Automaton) -> TemplateId {
        let id = TemplateId::from_raw(self.next_raw(self.templates.len(), "automata"));
        self.templates.push(skeleton);
        id
    }

    /// Adds an instance of a template and returns its automaton id.
    ///
    /// # Panics
    ///
    /// Panics if `template` was not declared by this builder.
    pub fn instance(&mut self, template: TemplateId, frame: Frame) -> AutomatonId {
        assert!(
            template.index() < self.templates.len(),
            "unknown template {template}"
        );
        self.push_instance(template.index(), frame)
    }

    fn push_instance(&mut self, template: usize, frame: Frame) -> AutomatonId {
        let id = AutomatonId::from_raw(self.next_raw(self.instances.len(), "automata"));
        self.instances.push(Instance { template, frame });
        id
    }

    /// Validates and freezes the network.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] if
    ///
    /// * any automaton has no locations, duplicates a name, or references a
    ///   location/clock/variable/array/channel that does not exist;
    /// * any variable domain is empty or an initial value is out of domain;
    /// * any expression still contains unbound template parameters;
    /// * two instances of one template bind different numbers of
    ///   parameters, clocks, variables or channels
    ///   ([`BuildError::FrameShape`]);
    /// * more items of one kind were declared than ids can address
    ///   ([`BuildError::CapacityExceeded`]).
    pub fn build(self) -> Result<Network, BuildError> {
        if let Some(e) = self.capacity_error {
            return Err(e);
        }
        let edge_cap = BuildError::CapacityExceeded {
            kind: "edges",
            limit: self.capacity_limit,
        };
        let mut array_offsets = Vec::with_capacity(self.arrays.len());
        let mut offset = self.vars.len();
        for a in &self.arrays {
            array_offsets.push(offset);
            offset += a.init.len();
        }
        let mut templates = Vec::with_capacity(self.templates.len());
        for a in self.templates {
            if u64::try_from(a.edges.len()).map_or(true, |n| n > self.capacity_limit) {
                return Err(edge_cap);
            }
            let mut outgoing: Vec<Vec<EdgeId>> = vec![Vec::new(); a.locations.len()];
            for (ei, e) in a.edges.iter().enumerate() {
                if let Some(v) = outgoing.get_mut(e.from.index()) {
                    v.push(EdgeId::from_raw(
                        u32::try_from(ei).map_err(|_| edge_cap.clone())?,
                    ));
                }
            }
            templates.push(Template {
                automaton: a,
                outgoing,
            });
        }
        let mut receivers: Vec<Vec<(AutomatonId, EdgeId)>> = vec![Vec::new(); self.channels.len()];
        for (ai, inst) in self.instances.iter().enumerate() {
            // `instance` already capped the automaton count below `u32::MAX`.
            let aid = AutomatonId::from_raw(u32::try_from(ai).unwrap_or(u32::MAX));
            let binding = inst.frame.binding();
            for (ei, e) in templates[inst.template].automaton.edges.iter().enumerate() {
                if let Sync::Recv(ch) = e.sync {
                    if let Some(v) = receivers.get_mut(binding.channel(ch).index()) {
                        v.push((
                            aid,
                            EdgeId::from_raw(u32::try_from(ei).map_err(|_| edge_cap.clone())?),
                        ));
                    }
                }
            }
        }
        let network = Network {
            clocks: self.clocks,
            vars: self.vars,
            arrays: self.arrays,
            channels: self.channels,
            templates,
            instances: self.instances,
            array_offsets,
            receivers,
            automata: OnceLock::new(),
            compiled: OnceLock::new(),
        };
        validate(&network)?;
        Ok(network)
    }
}

/// How many ids of each kind (and parameters) a template may use, as
/// bound by one instance's frame: the frame's table length, or the
/// network's declaration count where the table is empty (network ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Limits {
    clocks: usize,
    vars: usize,
    channels: usize,
    params: usize,
}

impl Limits {
    fn of(frame: &Frame, n: &Network) -> Self {
        let or = |table: usize, declared: usize| if table == 0 { declared } else { table };
        Self {
            clocks: or(frame.clocks.len(), n.clocks.len()),
            vars: or(frame.vars.len(), n.vars.len()),
            channels: or(frame.channels.len(), n.channels.len()),
            params: frame.params.len(),
        }
    }
}

fn validate(n: &Network) -> Result<(), BuildError> {
    // Variable domains.
    for (i, v) in n.vars.iter().enumerate() {
        let var = VarId::from_raw(u32::try_from(i).map_err(|_| BuildError::CapacityExceeded {
            kind: "variables",
            limit: ID_CAPACITY,
        })?);
        if v.min > v.max {
            return Err(BuildError::EmptyDomain {
                var,
                domain: (v.min, v.max),
            });
        }
        if v.init < v.min || v.init > v.max {
            return Err(BuildError::InitialValueOutOfDomain {
                var,
                value: v.init,
                domain: (v.min, v.max),
            });
        }
    }
    for a in &n.arrays {
        for &v in &a.init {
            if v < a.min || v > a.max {
                return Err(BuildError::InitialValueOutOfDomain {
                    var: VarId::from_raw(u32::MAX),
                    value: v,
                    domain: (a.min, a.max),
                });
            }
        }
    }

    // Instances: names and frames per instance, template structure once
    // per template (against the first instance's limits, which every
    // later instance must share).
    let mut names = HashSet::with_capacity(n.instances.len());
    let mut checked: Vec<Option<Limits>> = vec![None; n.templates.len()];
    for (ai, inst) in n.instances.iter().enumerate() {
        let aid =
            AutomatonId::from_raw(u32::try_from(ai).map_err(|_| BuildError::CapacityExceeded {
                kind: "automata",
                limit: ID_CAPACITY,
            })?);
        let a = &n.templates[inst.template].automaton;
        if a.locations.is_empty() {
            return Err(BuildError::EmptyAutomaton(aid));
        }
        if !names.insert(inst.frame.name.as_str()) {
            return Err(BuildError::DuplicateAutomatonName(inst.frame.name.clone()));
        }
        for &c in &inst.frame.clocks {
            check_clock(n.clocks.len(), c)?;
        }
        for &v in &inst.frame.vars {
            check_var(n.vars.len(), v)?;
        }
        for &ch in &inst.frame.channels {
            if ch.index() >= n.channels.len() {
                return Err(BuildError::UnknownChannel(ch.raw()));
            }
        }
        let limits = Limits::of(&inst.frame, n);
        match checked[inst.template] {
            Some(first) if first == limits => {}
            Some(_) => return Err(BuildError::FrameShape { automaton: aid }),
            None => {
                validate_template(n, a, limits, aid, &inst.frame.name)?;
                checked[inst.template] = Some(limits);
            }
        }
    }
    Ok(())
}

/// Structural checks of one template against the ids and parameters its
/// instances bind. Error contexts name the first instance, `name`.
fn validate_template(
    n: &Network,
    a: &Automaton,
    lim: Limits,
    aid: AutomatonId,
    name: &str,
) -> Result<(), BuildError> {
    if a.initial.index() >= a.locations.len() {
        return Err(BuildError::UnknownLocation {
            automaton: aid,
            location: a.initial,
        });
    }
    let unbound = |p: Option<u32>| p.filter(|&p| p as usize >= lim.params);
    for l in &a.locations {
        for atom in &l.invariant.atoms {
            check_clock(lim.clocks, atom.clock)?;
            check_int_expr(n, lim, &atom.rhs)?;
        }
        if let Some(p) = unbound(l.invariant.max_param()) {
            return Err(BuildError::UnboundParam {
                param: p,
                context: format!("invariant in automaton {name}"),
            });
        }
    }
    for e in &a.edges {
        for location in [e.from, e.to] {
            if location.index() >= a.locations.len() {
                return Err(BuildError::UnknownLocation {
                    automaton: aid,
                    location,
                });
            }
        }
        if let Some(ch) = e.sync.channel() {
            if ch.index() >= lim.channels {
                return Err(BuildError::UnknownChannel(ch.raw()));
            }
        }
        for p in &e.guard.preds {
            check_pred(n, lim, p)?;
        }
        for atom in &e.guard.clock_atoms {
            check_clock(lim.clocks, atom.clock)?;
            check_int_expr(n, lim, &atom.rhs)?;
        }
        for u in &e.updates {
            check_update(n, lim, u)?;
        }
        if let Some(p) = unbound(e.max_param()) {
            return Err(BuildError::UnboundParam {
                param: p,
                context: format!("edge {} -> {} of {name}", e.from, e.to),
            });
        }
    }
    Ok(())
}

fn check_clock(count: usize, c: ClockId) -> Result<(), BuildError> {
    if c.index() >= count {
        return Err(BuildError::UnknownClock(c));
    }
    Ok(())
}

fn check_var(count: usize, v: VarId) -> Result<(), BuildError> {
    if v.index() >= count {
        return Err(BuildError::UnknownVar(v));
    }
    Ok(())
}

fn check_array(n: &Network, a: ArrayId) -> Result<(), BuildError> {
    if a.index() >= n.arrays.len() {
        return Err(BuildError::UnknownArray(a.raw()));
    }
    Ok(())
}

fn check_int_expr(n: &Network, lim: Limits, e: &IntExpr) -> Result<(), BuildError> {
    match e {
        IntExpr::Lit(_) | IntExpr::Param(_) | IntExpr::Bound(_) => Ok(()),
        IntExpr::Var(v) => check_var(lim.vars, *v),
        IntExpr::Elem(a, idx) => {
            check_array(n, *a)?;
            check_int_expr(n, lim, idx)
        }
        IntExpr::Neg(a) => check_int_expr(n, lim, a),
        IntExpr::Add(a, b)
        | IntExpr::Sub(a, b)
        | IntExpr::Mul(a, b)
        | IntExpr::Div(a, b)
        | IntExpr::Rem(a, b)
        | IntExpr::Min(a, b)
        | IntExpr::Max(a, b) => {
            check_int_expr(n, lim, a)?;
            check_int_expr(n, lim, b)
        }
        IntExpr::Ite(p, t, e2) => {
            check_pred(n, lim, p)?;
            check_int_expr(n, lim, t)?;
            check_int_expr(n, lim, e2)
        }
    }
}

fn check_pred(n: &Network, lim: Limits, p: &Pred) -> Result<(), BuildError> {
    match p {
        Pred::Lit(_) => Ok(()),
        Pred::Cmp(_, a, b) => {
            check_int_expr(n, lim, a)?;
            check_int_expr(n, lim, b)
        }
        Pred::Not(inner) => check_pred(n, lim, inner),
        Pred::And(ps) | Pred::Or(ps) => {
            for q in ps {
                check_pred(n, lim, q)?;
            }
            Ok(())
        }
        Pred::ForAll { lo, hi, body } | Pred::Exists { lo, hi, body } => {
            check_int_expr(n, lim, lo)?;
            check_int_expr(n, lim, hi)?;
            check_pred(n, lim, body)
        }
    }
}

fn check_update(n: &Network, lim: Limits, u: &Update) -> Result<(), BuildError> {
    match u {
        Update::Assign { target, value } => {
            match target {
                LValue::Var(v) => check_var(lim.vars, *v)?,
                LValue::Elem(a, idx) => {
                    check_array(n, *a)?;
                    check_int_expr(n, lim, idx)?;
                }
            }
            check_int_expr(n, lim, value)
        }
        Update::ResetClock(c) | Update::StopClock(c) | Update::StartClock(c) => {
            check_clock(lim.clocks, *c)
        }
        Update::If {
            cond,
            then,
            otherwise,
        } => {
            check_pred(n, lim, cond)?;
            for u in then.iter().chain(otherwise) {
                check_update(n, lim, u)?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::{AutomatonBuilder, Edge, Sync};
    use crate::guard::Guard;
    use crate::ids::ParamId;

    fn trivial_automaton(name: &str) -> Automaton {
        let mut b = AutomatonBuilder::new(name);
        let l0 = b.location("l0");
        b.edge(Edge::new(l0, l0));
        b.finish(l0)
    }

    #[test]
    fn empty_network_builds() {
        let n = NetworkBuilder::new().build().unwrap();
        assert!(n.automata().is_empty());
        assert_eq!(n.state_var_count(), 0);
    }

    #[test]
    fn lookups_by_name() {
        let mut nb = NetworkBuilder::new();
        let c = nb.clock("x");
        let v = nb.var("n", 0, 0, 10);
        let a = nb.array("arr", vec![1, 2], 0, 5);
        let ch = nb.binary_channel("go");
        let aid = nb.automaton(trivial_automaton("worker"));
        let n = nb.build().unwrap();
        assert_eq!(n.clock_by_name("x"), Some(c));
        assert_eq!(n.var_by_name("n"), Some(v));
        assert_eq!(n.array_by_name("arr"), Some(a));
        assert_eq!(n.channel_by_name("go"), Some(ch));
        assert_eq!(n.automaton_by_name("worker"), Some(aid));
        assert_eq!(n.automaton_by_name("nobody"), None);
        assert_eq!(n.state_var_count(), 3);
    }

    #[test]
    fn rejects_empty_automaton() {
        let mut nb = NetworkBuilder::new();
        nb.automaton(Automaton::new("empty", Vec::new(), Vec::new()));
        assert!(matches!(nb.build(), Err(BuildError::EmptyAutomaton(_))));
    }

    #[test]
    fn rejects_duplicate_names() {
        let mut nb = NetworkBuilder::new();
        nb.automaton(trivial_automaton("dup"));
        nb.automaton(trivial_automaton("dup"));
        assert!(matches!(
            nb.build(),
            Err(BuildError::DuplicateAutomatonName(_))
        ));
    }

    #[test]
    fn rejects_bad_initial_value() {
        let mut nb = NetworkBuilder::new();
        nb.var("v", 11, 0, 10);
        assert!(matches!(
            nb.build(),
            Err(BuildError::InitialValueOutOfDomain { .. })
        ));
    }

    #[test]
    fn rejects_empty_domain() {
        let mut nb = NetworkBuilder::new();
        nb.var("v", 0, 5, 4);
        assert!(matches!(nb.build(), Err(BuildError::EmptyDomain { .. })));
    }

    #[test]
    fn rejects_bad_array_init() {
        let mut nb = NetworkBuilder::new();
        nb.array("a", vec![0, 99], 0, 10);
        assert!(matches!(
            nb.build(),
            Err(BuildError::InitialValueOutOfDomain { .. })
        ));
    }

    #[test]
    fn rejects_unknown_channel() {
        let mut nb = NetworkBuilder::new();
        let mut b = AutomatonBuilder::new("a");
        let l0 = b.location("l0");
        b.edge(Edge::new(l0, l0).with_sync(Sync::Send(ChannelId::from_raw(9))));
        nb.automaton(b.finish(l0));
        assert!(matches!(nb.build(), Err(BuildError::UnknownChannel(9))));
    }

    #[test]
    fn rejects_unknown_variable_in_guard() {
        let mut nb = NetworkBuilder::new();
        let mut b = AutomatonBuilder::new("a");
        let l0 = b.location("l0");
        b.edge(Edge::new(l0, l0).with_guard(Guard::when(IntExpr::var(VarId::from_raw(5)).gt(0))));
        nb.automaton(b.finish(l0));
        assert!(matches!(nb.build(), Err(BuildError::UnknownVar(_))));
    }

    #[test]
    fn rejects_unbound_params() {
        let mut nb = NetworkBuilder::new();
        let mut b = AutomatonBuilder::new("a");
        let l0 = b.location("l0");
        b.edge(
            Edge::new(l0, l0).with_guard(Guard::when(IntExpr::param(ParamId::from_raw(0)).gt(0))),
        );
        nb.automaton(b.finish(l0));
        assert!(matches!(nb.build(), Err(BuildError::UnboundParam { .. })));
    }

    #[test]
    fn rejects_edge_to_unknown_location() {
        let mut nb = NetworkBuilder::new();
        let mut b = AutomatonBuilder::new("a");
        let l0 = b.location("l0");
        b.edge(Edge::new(l0, crate::ids::LocationId::from_raw(7)));
        nb.automaton(b.finish(l0));
        assert!(matches!(
            nb.build(),
            Err(BuildError::UnknownLocation { .. })
        ));
    }

    #[test]
    fn capacity_limit_boundary_is_inclusive() {
        // Exactly `limit` items of a kind build fine…
        let mut nb = NetworkBuilder::new().with_capacity_limit(2);
        let c0 = nb.clock("c0");
        let c1 = nb.clock("c1");
        assert_eq!((c0.raw(), c1.raw()), (0, 1));
        let n = nb.build().unwrap();
        assert_eq!(n.clocks().len(), 2);

        // …one more degrades into a typed error instead of a panic.
        let mut nb = NetworkBuilder::new().with_capacity_limit(2);
        nb.clock("c0");
        nb.clock("c1");
        nb.clock("c2");
        assert_eq!(
            nb.build().unwrap_err(),
            BuildError::CapacityExceeded {
                kind: "clocks",
                limit: 2
            }
        );
    }

    #[test]
    fn capacity_error_reports_first_overflowing_kind() {
        let mut nb = NetworkBuilder::new().with_capacity_limit(1);
        nb.var("v0", 0, 0, 1);
        nb.var("v1", 0, 0, 1);
        nb.binary_channel("ch0");
        nb.binary_channel("ch1");
        assert_eq!(
            nb.build().unwrap_err(),
            BuildError::CapacityExceeded {
                kind: "variables",
                limit: 1
            }
        );
    }

    #[test]
    fn automaton_capacity_is_enforced() {
        let mut nb = NetworkBuilder::new().with_capacity_limit(1);
        nb.automaton(trivial_automaton("a"));
        nb.automaton(trivial_automaton("b"));
        assert!(matches!(
            nb.build(),
            Err(BuildError::CapacityExceeded {
                kind: "automata",
                ..
            })
        ));
    }

    #[test]
    fn rejects_unknown_clock_in_update() {
        let mut nb = NetworkBuilder::new();
        let mut b = AutomatonBuilder::new("a");
        let l0 = b.location("l0");
        b.edge(Edge::new(l0, l0).with_update(Update::ResetClock(ClockId::from_raw(3))));
        nb.automaton(b.finish(l0));
        assert!(matches!(nb.build(), Err(BuildError::UnknownClock(_))));
    }

    /// A receiver template: local channel 0, local clock 0, parameter 0.
    fn receiver_template(nb: &mut NetworkBuilder) -> TemplateId {
        let mut b = AutomatonBuilder::new("t");
        let l0 = b.location("l0");
        b.edge(
            Edge::new(l0, l0)
                .with_guard(Guard::when(IntExpr::param(ParamId::from_raw(0)).gt(0)))
                .with_sync(Sync::Recv(ChannelId::from_raw(0)))
                .with_update(Update::ResetClock(ClockId::from_raw(0))),
        );
        nb.template(b.finish(l0))
    }

    fn frame(name: &str, clocks: Vec<ClockId>, channel: ChannelId, param: i64) -> Frame {
        Frame {
            name: name.into(),
            params: vec![param],
            clocks,
            vars: Vec::new(),
            channels: vec![channel],
        }
    }

    #[test]
    fn instances_bind_ids_and_parameters_through_their_frames() {
        let mut nb = NetworkBuilder::new();
        let (c0, c1) = (nb.clock("c0"), nb.clock("c1"));
        let (ch0, ch1) = (nb.broadcast_channel("go0"), nb.broadcast_channel("go1"));
        let t = receiver_template(&mut nb);
        let a = nb.instance(t, frame("a", vec![c1], ch1, 5));
        let b = nb.instance(t, frame("b", vec![c0], ch0, 7));
        let n = nb.build().unwrap();
        let e0 = EdgeId::from_raw(0);
        assert_eq!(n.receivers_on(ch1), &[(a, e0)]);
        assert_eq!(n.edge_sync(b, e0), Sync::Recv(ch0));
        assert_eq!(n.automaton_by_name("b"), Some(b));
        assert!(!n.is_materialized());
        let expanded = n.automaton(a);
        assert_eq!(expanded.name, "a");
        assert_eq!(expanded.edges[0].updates, vec![Update::ResetClock(c1)]);
        assert_eq!(expanded.edges[0].max_param(), None);
        assert!(n.is_materialized());
    }

    #[test]
    fn instances_of_one_template_share_a_frame_shape() {
        let mut nb = NetworkBuilder::new();
        let (c0, c1) = (nb.clock("c0"), nb.clock("c1"));
        let ch = nb.broadcast_channel("go");
        let t = receiver_template(&mut nb);
        nb.instance(t, frame("a", vec![c0], ch, 1));
        let b = nb.instance(t, frame("b", vec![c0, c1], ch, 1));
        assert_eq!(
            nb.build().unwrap_err(),
            BuildError::FrameShape { automaton: b }
        );
    }
}
