//! Cache-accelerated simulation core.
//!
//! The generic interpreter rescans every automaton after every transition —
//! `O(automata)` per step, quadratic overall for instance models whose size
//! grows with the workload. This module exploits two structural properties
//! that the paper's component models (and most well-formed NSA models)
//! have:
//!
//! 1. **Most locations are passive**: all outgoing edges are receives
//!    (`ch?`) — the automaton never *initiates* a transition there, so the
//!    scan can skip it entirely (schedulers parked in `asleep`/`idle`/
//!    `running`, links in `idle`).
//! 2. **Most guards are state-independent**: predicates and clock-atom
//!    bounds built from literals. Their enabling windows depend only on the
//!    automaton's own clocks, so the *absolute* earliest initiation time
//!    (`wake[a]`) can be cached when the automaton enters the location and
//!    stays exact until the automaton itself moves.
//!
//! On top of the cached wake times, `FastRun` keeps an **event wheel** so
//! that neither finding the next transition nor computing the next delay
//! target requires an `O(automata)` scan:
//!
//! * a `ready` set of cacheable automata whose wake time has arrived, a
//!   bitset over automaton ids walked in ascending (canonical) order,
//! * a lazy-deletion min-heap of *future* wake times, drained into `ready`
//!   whenever time advances,
//! * a mirror heap of invariant expiries, and
//! * a `dynamic` set of automata whose guards read variables and must be
//!   rescanned at every step.
//!
//! A send looks its partners up in a static per-channel list of every
//! receiving edge, in canonical order, and keeps those whose automaton
//! currently sits in the edge's source location: the models' channels
//! have a handful of receive edges each, so the check is cheaper than
//! keeping a ready set of them in step with every move.
//!
//! With the bytecode engine, `FastRun` also owns the tournament trees of
//! the crate's `dominance` module, which answer the large schedulers'
//! dispatch quantifiers; it builds them from the state and re-keys them
//! after each transition. Where a location's equality bucket holds one
//! dispatch edge per leaf of a tree, the scan evaluates only the edge of
//! the tree's root winner (`CompiledNetwork::dispatch_leaf` argues why the
//! other dispatch guards are false).
//!
//! Heap entries are never updated in place: an entry `(t, a)` is *live* iff
//! the corresponding cached value still equals `t` (and the automaton is
//! still cacheable); stale entries are discarded when they surface. A step
//! refreshes only the participants that moved or wrote a clock, so it
//! costs `O(participants · log automata)` instead of `O(automata)`.
//!
//! A network is *eligible* for the fast path when receive-edge guards are
//! clock-free and no edge manipulates a clock that another automaton's
//! guards or invariants read — both true of every model `swa-core`
//! generates, and checked structurally here. Ineligible networks (and
//! non-canonical tie-breaks) fall back to the generic interpreter; the two
//! produce identical traces, which the test-suite asserts.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::automaton::Sync;
use crate::bytecode::{self, CompiledNetwork, EvalEngine};
use crate::dominance::DominanceIndex;
use crate::error::SimError;
use crate::guard::{Guard, Invariant};
use crate::ids::{AutomatonId, ChannelId, ClockId, EdgeId, LocationId};
use crate::network::{ChannelKind, Network};
use crate::semantics::{apply_with, Transition};
use crate::sim::SimStats;
use crate::state::State;

/// Absolute time `now + delay`, or [`SimError::Overflow`] when the sum
/// leaves `i64`. (Saturating here would silently park the automaton at
/// `i64::MAX` — indistinguishable from "never fires".)
fn abs_time(now: i64, delay: i64) -> Result<i64, SimError> {
    now.checked_add(delay)
        .ok_or(SimError::Overflow { time: now })
}

/// Per-location static classification.
#[derive(Debug, Clone)]
struct LocInfo {
    /// Edges that can initiate a transition (internal or send), in order.
    initiators: Vec<EdgeId>,
    /// Whether every initiator guard is state-independent (its enabling
    /// window, computed on entry, stays exact until the automaton moves).
    guards_cacheable: bool,
    /// Whether the location invariant's bounds are state-independent.
    inv_cacheable: bool,
    /// Whether the location is committed.
    committed: bool,
    /// Whether every initiator is an internal (no-sync) edge and the
    /// location is not committed: such a location can never fire while a
    /// committed location is active elsewhere, so the scan keeps it in a
    /// side set it skips wholesale in that case.
    internal_only: bool,
    /// Equality-dispatch index over `initiators` (see [`EqIndex`]), built
    /// when enough of them open with a `var == lit` test on one variable.
    eq_index: Option<EqIndex>,
}

/// Equality-dispatch index over a location's initiator edges.
///
/// Scheduler-style locations fan out into one edge per task, each guarded
/// by a leading `running == k` conjunct — a linear scan re-evaluates every
/// one of them although at most one bucket can pass. The index groups the
/// edges by the literal their leading equality pins `slot` to; a scan then
/// evaluates only `buckets[vars[slot]]` plus the unindexed `rest`. Both
/// sides keep canonical (ascending) edge order, so merging them reproduces
/// the full scan minus edges whose leading equality is false.
///
/// Skipping those edges is observationally exact: both engines evaluate a
/// guard's predicates in order with short-circuit conjunction, the leading
/// equality is the first term evaluated, and a `Var`/`Lit` comparison
/// cannot error — so a skipped guard would have returned `false` without
/// side effects.
#[derive(Debug, Clone)]
struct EqIndex {
    /// The variable the leading equalities test.
    slot: crate::ids::VarId,
    /// Edges per pinned literal, each list in ascending edge order.
    buckets: std::collections::HashMap<i64, Vec<EdgeId>>,
    /// Initiators without a leading equality on `slot`, ascending.
    rest: Vec<EdgeId>,
}

/// The `(var, lit)` of a guard's leading `var == lit` conjunct, if the
/// guard always evaluates it first: the leftmost atom of the first
/// clock-free predicate along its `And` spine. `None` for any other shape
/// (including guards whose first term could error or read other state).
fn leading_eq(guard: &Guard) -> Option<(crate::ids::VarId, i64)> {
    use crate::expr::{CmpOp, IntExpr, Pred};
    let mut p = guard.preds.first()?;
    loop {
        match p {
            Pred::And(ps) => p = ps.first()?,
            Pred::Cmp(CmpOp::Eq, a, b) => {
                return match (a.as_ref(), b.as_ref()) {
                    (IntExpr::Var(v), IntExpr::Lit(c)) | (IntExpr::Lit(c), IntExpr::Var(v)) => {
                        Some((*v, *c))
                    }
                    _ => None,
                };
            }
            _ => return None,
        }
    }
}

/// Builds the [`EqIndex`] for one location, or `None` when too few
/// initiators share a leading equality for the index to pay off.
fn build_eq_index(a: &crate::automaton::Automaton, initiators: &[EdgeId]) -> Option<EqIndex> {
    const MIN_INDEXED: usize = 16;
    let mut slots: Vec<(crate::ids::VarId, usize)> = Vec::new();
    for &eid in initiators {
        if let Some((v, _)) = leading_eq(&a.edge(eid).guard) {
            match slots.iter_mut().find(|(s, _)| *s == v) {
                Some((_, n)) => *n += 1,
                None => slots.push((v, 1)),
            }
        }
    }
    let &(slot, best) = slots.iter().max_by_key(|&&(_, n)| n)?;
    if best < MIN_INDEXED {
        return None;
    }
    let mut buckets: std::collections::HashMap<i64, Vec<EdgeId>> = std::collections::HashMap::new();
    let mut rest = Vec::new();
    for &eid in initiators {
        match leading_eq(&a.edge(eid).guard) {
            Some((v, c)) if v == slot => buckets.entry(c).or_default().push(eid),
            _ => rest.push(eid),
        }
    }
    Some(EqIndex {
        slot,
        buckets,
        rest,
    })
}

/// Merges two ascending edge-id slices, preserving canonical order.
struct MergeEdges<'a> {
    a: &'a [EdgeId],
    b: &'a [EdgeId],
}

impl<'a> MergeEdges<'a> {
    fn new(a: &'a [EdgeId], b: &'a [EdgeId]) -> Self {
        Self { a, b }
    }
}

impl Iterator for MergeEdges<'_> {
    type Item = EdgeId;

    fn next(&mut self) -> Option<EdgeId> {
        match (self.a.first(), self.b.first()) {
            (Some(&x), Some(&y)) => {
                if x.raw() <= y.raw() {
                    self.a = &self.a[1..];
                    Some(x)
                } else {
                    self.b = &self.b[1..];
                    Some(y)
                }
            }
            (Some(&x), None) => {
                self.a = &self.a[1..];
                Some(x)
            }
            (None, Some(&y)) => {
                self.b = &self.b[1..];
                Some(y)
            }
            (None, None) => None,
        }
    }
}

/// A receiving edge of the network: its automaton, the edge and the
/// edge's source location.
#[derive(Debug, Clone, Copy)]
struct Receiver {
    automaton: AutomatonId,
    edge: EdgeId,
    from: LocationId,
}

/// Static per-network acceleration data.
#[derive(Debug, Clone)]
pub struct FastCache {
    /// Whether the network satisfies the fast-path preconditions.
    eligible: bool,
    /// `info[template][location]`; variables in it are the template's
    /// local ids.
    info: Vec<Vec<LocInfo>>,
    /// `moves[template][edge]`: whether taking the edge changes the
    /// automaton's location or writes a clock — the only ways a move can
    /// change its cached wake time and invariant expiry (eligibility (b)
    /// keeps every other automaton off the clocks they read).
    moves: Vec<Vec<bool>>,
    /// Per network channel, every receiving edge on it in canonical
    /// `(automaton, edge)` order.
    receivers: Vec<Vec<Receiver>>,
}

fn guard_state_independent(guard: &Guard) -> bool {
    guard.preds.iter().all(swa_pred_indep)
        && guard
            .clock_atoms
            .iter()
            .all(|a| a.rhs.is_state_independent())
}

fn swa_pred_indep(p: &crate::expr::Pred) -> bool {
    p.is_state_independent()
}

fn invariant_state_independent(inv: &Invariant) -> bool {
    inv.atoms.iter().all(|a| a.rhs.is_state_independent())
}

fn updated_clocks(updates: &[crate::update::Update], out: &mut Vec<ClockId>) {
    use crate::update::Update;
    for u in updates {
        match u {
            Update::ResetClock(c) | Update::StopClock(c) | Update::StartClock(c) => out.push(*c),
            Update::If {
                then, otherwise, ..
            } => {
                updated_clocks(then, out);
                updated_clocks(otherwise, out);
            }
            Update::Assign { .. } => {}
        }
    }
}

fn referenced_clocks_expr(guard: &Guard, inv: &Invariant, out: &mut Vec<ClockId>) {
    for a in &guard.clock_atoms {
        out.push(a.clock);
    }
    for a in &inv.atoms {
        out.push(a.clock);
    }
}

impl FastCache {
    /// Analyzes a network for fast-path eligibility and builds the
    /// per-location classification, once per template.
    #[must_use]
    pub fn new(network: &Network) -> Self {
        // Eligibility (a): receive-edge guards must be clock-free.
        let templates = || network.templates.iter().map(|t| &t.automaton);
        let mut eligible = templates().all(|a| {
            a.edges
                .iter()
                .all(|e| !matches!(e.sync, Sync::Recv(_)) || e.guard.clock_atoms.is_empty())
        });

        // Eligibility (b): no edge updates a clock referenced by another
        // automaton.
        if eligible {
            let mut reads: Vec<Vec<ClockId>> = Vec::new();
            let mut writes: Vec<Vec<ClockId>> = Vec::new();
            for a in templates() {
                let mut r = Vec::new();
                for l in &a.locations {
                    referenced_clocks_expr(&Guard::always(), &l.invariant, &mut r);
                }
                let mut w = Vec::new();
                for e in &a.edges {
                    referenced_clocks_expr(&e.guard, &Invariant::none(), &mut r);
                    updated_clocks(&e.updates, &mut w);
                }
                reads.push(r);
                writes.push(w);
            }
            let mut clock_readers: Vec<Vec<AutomatonId>> = vec![Vec::new(); network.clocks().len()];
            for (aid, inst) in network.automaton_ids().zip(&network.instances) {
                let frame = inst.frame.binding();
                for &c in &reads[inst.template] {
                    let readers = &mut clock_readers[frame.clock(c).index()];
                    if !readers.contains(&aid) {
                        readers.push(aid);
                    }
                }
            }
            'outer: for (aid, inst) in network.automaton_ids().zip(&network.instances) {
                let frame = inst.frame.binding();
                for &c in &writes[inst.template] {
                    if clock_readers[frame.clock(c).index()]
                        .iter()
                        .any(|r| *r != aid)
                    {
                        eligible = false;
                        break 'outer;
                    }
                }
            }
        }

        let info = network
            .templates
            .iter()
            .map(|t| {
                let a = &t.automaton;
                a.locations
                    .iter()
                    .zip(&t.outgoing)
                    .map(|(l, outgoing)| {
                        let mut initiators = Vec::new();
                        let mut guards_cacheable = true;
                        for &eid in outgoing {
                            let e = a.edge(eid);
                            if let Sync::Recv(_) = e.sync {
                                continue;
                            }
                            if !guard_state_independent(&e.guard) {
                                guards_cacheable = false;
                            }
                            initiators.push(eid);
                        }
                        let internal_only = !l.committed
                            && initiators
                                .iter()
                                .all(|&eid| matches!(a.edge(eid).sync, Sync::Internal));
                        let eq_index = if guards_cacheable {
                            None
                        } else {
                            build_eq_index(a, &initiators)
                        };
                        LocInfo {
                            initiators,
                            guards_cacheable,
                            inv_cacheable: invariant_state_independent(&l.invariant),
                            committed: l.committed,
                            internal_only,
                            eq_index,
                        }
                    })
                    .collect()
            })
            .collect();

        let moves = templates()
            .map(|a| {
                a.edges
                    .iter()
                    .map(|e| {
                        let mut clocks = Vec::new();
                        updated_clocks(&e.updates, &mut clocks);
                        e.from != e.to || !clocks.is_empty()
                    })
                    .collect()
            })
            .collect();

        let mut receivers = vec![Vec::new(); network.channels().len()];
        for (automaton, inst) in network.automaton_ids().zip(&network.instances) {
            let frame = inst.frame.binding();
            for (i, e) in network.templates[inst.template]
                .automaton
                .edges
                .iter()
                .enumerate()
            {
                if let Sync::Recv(ch) = e.sync {
                    receivers[frame.channel(ch).index()].push(Receiver {
                        automaton,
                        edge: EdgeId::from_raw(u32::try_from(i).expect("edge count fits u32")),
                        from: e.from,
                    });
                }
            }
        }

        Self {
            eligible,
            info,
            moves,
            receivers,
        }
    }

    /// Whether the fast path may be used for this network.
    #[must_use]
    pub fn eligible(&self) -> bool {
        self.eligible
    }
}

/// A set of automaton ids, one bit each, iterated in ascending order.
#[derive(Debug)]
struct IdSet {
    words: Vec<u64>,
}

impl IdSet {
    fn new(n: usize) -> Self {
        Self {
            words: vec![0; n.div_ceil(64)],
        }
    }

    #[inline]
    fn contains(&self, a: u32) -> bool {
        self.words[a as usize / 64] & (1 << (a % 64)) != 0
    }

    #[inline]
    fn insert(&mut self, a: u32) {
        self.words[a as usize / 64] |= 1 << (a % 64);
    }

    #[inline]
    fn remove(&mut self, a: u32) {
        self.words[a as usize / 64] &= !(1 << (a % 64));
    }

    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().zip(0u32..).flat_map(|(&w, i)| bits(w, i))
    }
}

/// The ids whose bits are set in word `i` of an [`IdSet`], ascending.
fn bits(mut word: u64, i: u32) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        let bit = (word != 0).then(|| word.trailing_zeros())?;
        word &= word - 1;
        Some(i * 64 + bit)
    })
}

/// A running fast interpretation.
///
/// # Event-wheel invariants
///
/// * `ready`, `dynamic_set` and the wake heap partition the automata that
///   can ever initiate: a cacheable automaton with `wake[a] <= now` is in
///   `ready`; with `now < wake[a] < MAX` it has a live heap entry; with
///   `wake[a] == MAX` it is in neither. Dynamic automata are exactly the
///   members of `dynamic_set`.
/// * A wake-heap entry `(t, a)` is live iff `a ∉ dynamic_set && wake[a] ==
///   t`; an invariant-heap entry iff `a ∉ inv_dynamic_set && inv_expiry[a]
///   == t`.
///   Live wake entries always satisfy `t > now` (entries falling due are
///   drained into `ready` by [`FastRun::advance`]).
/// * `wake[a]`, `inv_expiry[a]` and the set memberships of `a` were
///   computed in `a`'s current location with its current clocks: every
///   move that changes either refreshes `a` (see `FastCache::moves`).
/// * The dominance trees rank the current variables.
pub(crate) struct FastRun<'n> {
    network: &'n Network,
    compiled: Option<&'n CompiledNetwork>,
    cache: &'n FastCache,
    engine: EvalEngine,
    /// Absolute earliest time automaton `a` could initiate a transition
    /// (`i64::MAX` = never, as long as it does not move). For locations
    /// with non-cacheable guards this is kept at the refresh time
    /// (rescan every step).
    wake: Vec<i64>,
    /// Absolute invariant expiry per automaton (`i64::MAX` = unbounded).
    inv_expiry: Vec<i64>,
    committed_count: usize,
    /// Cacheable automata whose wake time has arrived and whose location
    /// can initiate a sync (or is committed).
    ready_sync: IdSet,
    /// Cacheable automata whose wake time has arrived in an
    /// `internal_only` location — skipped while any committed location is
    /// active.
    ready_internal: IdSet,
    /// Automata whose guards are not cacheable: `wake[a]` is no live lower
    /// bound for them, so they are rescanned every step and their delay
    /// windows recomputed on demand.
    dynamic_set: IdSet,
    /// Automata whose invariants are recomputed at each delay decision.
    inv_dynamic_set: IdSet,
    /// Future wake times (lazy deletion, see the invariants above).
    wake_heap: BinaryHeap<Reverse<(i64, u32)>>,
    /// Bounded invariant expiries (lazy deletion).
    inv_heap: BinaryHeap<Reverse<(i64, u32)>>,
    /// Due wake entries drained into `ready` so far (observability).
    wheel_wakeups: u64,
    /// Monotone counter identifying the current time instant; bumped on
    /// every [`FastRun::advance`]. Starts at 1 so a `memo_stamp` of 0 is
    /// always stale.
    instant: u64,
    /// Instant at which `memo_enabled[a]` was last computed (0 = never).
    /// Reset on [`FastRun::refresh`] so an automaton that moved is
    /// re-batched even within the same instant.
    memo_stamp: Vec<u64>,
    /// Initiator edges of automaton `a` whose guards held when last
    /// batch-evaluated, in canonical edge order (valid iff
    /// `memo_stamp[a] == instant`). Buffers are reused across instants.
    memo_enabled: Vec<Vec<EdgeId>>,
    /// Whether every edge in `memo_enabled[a]` is an internal (no-sync)
    /// edge — such an automaton cannot fire at all while some *other*
    /// automaton is committed, so the scan skips it outright.
    memo_all_internal: Vec<bool>,
    /// Tournament trees answering the compiled guards' dominance queries
    /// (`None` for the AST walker and for networks without such queries).
    /// Built from the state, like the event wheel, and re-keyed after
    /// every transition from the stores of its edges' update programs.
    ranks: Option<DominanceIndex>,
    /// Per automaton, its equality buckets answered from a tree's root
    /// (empty without trees).
    dispatch: Vec<Vec<Dispatch>>,
    /// Every guard the scan evaluated outside the batch pass, in order.
    #[cfg(test)]
    evaluated: std::cell::RefCell<Vec<(AutomatonId, EdgeId)>>,
}

/// An equality bucket of one automaton whose dispatch edges the scan
/// reaches through a dominance tree's winner (see
/// [`CompiledNetwork::dispatch_leaf`]).
#[derive(Debug)]
struct Dispatch {
    /// The location and the literal its [`EqIndex`] bucket pins.
    loc: LocationId,
    lit: i64,
    tree: u32,
    /// Per leaf of `tree`, the bucket's dispatch edge on it.
    by_leaf: Vec<Option<EdgeId>>,
    /// The bucket's other edges and the location's unindexed ones,
    /// ascending.
    others: Vec<EdgeId>,
}

/// The dispatch buckets of automaton `aid` (see [`Dispatch`]): each bucket
/// of an [`EqIndex`] holding a dispatch edge, with the dispatch edges on
/// the tree of its first one.
fn dispatch_buckets(
    network: &Network,
    cache: &FastCache,
    compiled: &CompiledNetwork,
    aid: AutomatonId,
) -> Vec<Dispatch> {
    let mut out = Vec::new();
    let info = &cache.info[network.instances[aid.index()].template];
    for (loc, ix) in info
        .iter()
        .enumerate()
        .filter_map(|(l, i)| Some((l, i.eq_index.as_ref()?)))
    {
        let loc = LocationId::from_raw(u32::try_from(loc).expect("location count fits u32"));
        for (&lit, bucket) in &ix.buckets {
            let Some((tree, _)) = bucket.iter().find_map(|&e| compiled.dispatch_leaf(aid, e))
            else {
                continue;
            };
            let mut by_leaf: Vec<Option<EdgeId>> = Vec::new();
            let mut others = ix.rest.clone();
            for &e in bucket {
                match compiled.dispatch_leaf(aid, e) {
                    Some((t, x))
                        if t == tree && by_leaf.get(x as usize).is_none_or(Option::is_none) =>
                    {
                        let x = x as usize;
                        if by_leaf.len() <= x {
                            by_leaf.resize(x + 1, None);
                        }
                        by_leaf[x] = Some(e);
                    }
                    _ => others.push(e),
                }
            }
            others.sort_unstable();
            out.push(Dispatch {
                loc,
                lit,
                tree,
                by_leaf,
                others,
            });
        }
    }
    out
}

impl<'n> FastRun<'n> {
    pub(crate) fn new(
        network: &'n Network,
        cache: &'n FastCache,
        state: &State,
        engine: EvalEngine,
    ) -> Result<Self, SimError> {
        let n = network.automaton_count();
        let compiled = (engine == EvalEngine::Bytecode).then(|| network.compiled());
        let mut run = Self {
            network,
            compiled,
            cache,
            engine,
            wake: vec![0; n],
            inv_expiry: vec![i64::MAX; n],
            committed_count: 0,
            ready_sync: IdSet::new(n),
            ready_internal: IdSet::new(n),
            dynamic_set: IdSet::new(n),
            inv_dynamic_set: IdSet::new(n),
            wake_heap: BinaryHeap::new(),
            inv_heap: BinaryHeap::new(),
            wheel_wakeups: 0,
            instant: 1,
            memo_stamp: vec![0; n],
            memo_enabled: vec![Vec::new(); n],
            memo_all_internal: vec![false; n],
            ranks: compiled.and_then(|c| DominanceIndex::build(c.rankings(), &state.vars)),
            dispatch: Vec::new(),
            #[cfg(test)]
            evaluated: std::cell::RefCell::default(),
        };
        if let (Some(c), Some(_)) = (compiled, &run.ranks) {
            run.dispatch = network
                .automaton_ids()
                .map(|a| dispatch_buckets(network, cache, c, a))
                .collect();
        }
        for aid in network.automaton_ids() {
            run.refresh(aid, state)?;
            let info = run.loc_info(aid, state);
            if info.committed {
                run.committed_count += 1;
            }
        }
        Ok(run)
    }

    fn loc_info(&self, a: AutomatonId, state: &State) -> &'n LocInfo {
        self.info_at(a, state.location_of(a))
    }

    fn info_at(&self, a: AutomatonId, loc: LocationId) -> &'n LocInfo {
        &self.cache.info[self.network.instances[a.index()].template][loc.index()]
    }

    /// One guard evaluation through the hoisted compiled network and the
    /// dominance trees (falling back to engine dispatch for the AST
    /// walker).
    fn guard_holds_at(
        &self,
        aid: AutomatonId,
        eid: EdgeId,
        state: &State,
    ) -> Result<bool, SimError> {
        match self.compiled {
            Some(c) => c.guard(aid, eid).holds_ranked(
                state.clock_values(),
                &state.vars,
                self.ranks.as_ref(),
            ),
            None => bytecode::guard_holds(self.network, self.engine, aid, eid, state),
        }
        .map_err(SimError::Eval)
    }

    /// Files a due automaton into the ready set matching its location
    /// class.
    fn make_ready(&mut self, raw: u32, state: &State) {
        let aid = AutomatonId::from_raw(raw);
        if self.loc_info(aid, state).internal_only {
            self.ready_internal.insert(raw);
        } else {
            self.ready_sync.insert(raw);
        }
    }

    /// Drops stale heap entries once a heap outgrows a small multiple of
    /// the automaton count (keeps memory bounded over long runs).
    fn maybe_compact(&mut self) {
        let cap = 4 * self.wake.len() + 64;
        if self.wake_heap.len() > cap {
            let wake = &self.wake;
            let dynamic = &self.dynamic_set;
            let keep: Vec<_> = self
                .wake_heap
                .drain()
                .filter(|&Reverse((t, a))| !dynamic.contains(a) && wake[a as usize] == t)
                .collect();
            self.wake_heap = keep.into();
        }
        if self.inv_heap.len() > cap {
            let inv_expiry = &self.inv_expiry;
            let inv_dynamic = &self.inv_dynamic_set;
            let keep: Vec<_> = self
                .inv_heap
                .drain()
                .filter(|&Reverse((t, a))| !inv_dynamic.contains(a) && inv_expiry[a as usize] == t)
                .collect();
            self.inv_heap = keep.into();
        }
    }

    /// Recomputes the cached wake time and invariant expiry of `a` and
    /// re-indexes it in the event wheel.
    fn refresh(&mut self, a: AutomatonId, state: &State) -> Result<(), SimError> {
        let loc = state.location_of(a);
        let info = self.info_at(a, loc);
        let initiators_empty = info.initiators.is_empty();
        let guards_cacheable = info.guards_cacheable;
        let inv_cacheable = info.inv_cacheable;
        let now = state.time;
        let ai = a.index();
        let raw = a.raw();

        self.memo_stamp[ai] = 0;
        self.ready_sync.remove(raw);
        self.ready_internal.remove(raw);
        if !guards_cacheable {
            self.dynamic_set.insert(raw);
            self.wake[ai] = now;
        } else {
            self.dynamic_set.remove(raw);
            if initiators_empty {
                self.wake[ai] = i64::MAX;
            } else {
                let mut wake = i64::MAX;
                for &eid in &info.initiators {
                    if let Some(w) =
                        bytecode::guard_window(self.network, self.engine, a, eid, state)
                            .map_err(SimError::Eval)?
                    {
                        wake = wake.min(abs_time(now, w.lo)?);
                    }
                }
                self.wake[ai] = wake;
                if wake <= now {
                    self.make_ready(raw, state);
                } else if wake < i64::MAX {
                    self.wake_heap.push(Reverse((wake, raw)));
                }
            }
        }

        let expiry = match bytecode::invariant_max_delay(self.network, self.engine, a, loc, state)
            .map_err(SimError::Eval)?
        {
            None => i64::MAX,
            Some(d) => abs_time(now, d.max(0))?,
        };
        self.inv_expiry[ai] = expiry;
        if !inv_cacheable {
            self.inv_dynamic_set.insert(raw);
        } else {
            self.inv_dynamic_set.remove(raw);
            if expiry < i64::MAX {
                self.inv_heap.push(Reverse((expiry, raw)));
            }
        }
        self.maybe_compact();
        Ok(())
    }

    /// Advances time and drains newly-due wake entries into the ready set.
    pub(crate) fn advance(&mut self, state: &mut State, delay: i64) {
        state.advance(delay);
        self.instant += 1;
        let now = state.time;
        while let Some(&Reverse((t, a))) = self.wake_heap.peek() {
            if t > now {
                break;
            }
            self.wake_heap.pop();
            if !self.dynamic_set.contains(a) && self.wake[a as usize] == t {
                self.make_ready(a, state);
                self.wheel_wakeups += 1;
            }
        }
    }

    /// Interpreter counters accumulated so far.
    pub(crate) fn stats(&self) -> SimStats {
        SimStats {
            wheel_wakeups: self.wheel_wakeups,
        }
    }

    /// Finds the first enabled transition in canonical order.
    ///
    /// Only automata in the ready or dynamic sets are scanned; walking
    /// their union word by word keeps the canonical ascending-id order the
    /// generic interpreter uses. Neither set changes during the call (only
    /// `apply` mutates them). While a committed location is active,
    /// `internal_only` locations cannot fire (the filter would reject
    /// their only transitions), so their ready set is left out.
    pub(crate) fn first_enabled(&mut self, state: &State) -> Result<Option<Transition>, SimError> {
        let internal = if self.committed_count > 0 { 0 } else { !0 };
        for i in 0..self.ready_sync.words.len() {
            let word = self.ready_sync.words[i]
                | self.ready_internal.words[i] & internal
                | self.dynamic_set.words[i];
            for raw in bits(word, u32::try_from(i).expect("automaton count fits u32")) {
                if let Some(t) = self.scan_automaton(AutomatonId::from_raw(raw), state)? {
                    return Ok(Some(t));
                }
            }
        }
        Ok(None)
    }

    /// Scans one automaton's initiator edges for an enabled transition.
    ///
    /// For cacheable locations the initiator guards are batch-evaluated
    /// once per time instant, in one pass over the hoisted SoA slices,
    /// and the holding set is memoized: an instant spans several
    /// transitions (the ready set is rescanned from the start after each
    /// one), and eligibility guarantees a cacheable guard's truth cannot
    /// change within the instant unless this automaton itself moves —
    /// no foreign clock updates, no variable reads. Evaluating the whole
    /// batch is error-order safe because `refresh` already evaluated
    /// every initiator's window with the same term order on location
    /// entry, and cacheable guards are state-independent.
    fn scan_automaton(
        &mut self,
        aid: AutomatonId,
        state: &State,
    ) -> Result<Option<Transition>, SimError> {
        let info = self.loc_info(aid, state);
        let template = self.network.template_of(aid);
        let ai = aid.index();
        let batched = info.guards_cacheable;
        if batched && self.memo_stamp[ai] != self.instant {
            let mut enabled = std::mem::take(&mut self.memo_enabled[ai]);
            enabled.clear();
            match self.compiled {
                Some(c) => {
                    let clock_values = state.clock_values();
                    let vars = &state.vars;
                    for &eid in &info.initiators {
                        if c.guard(aid, eid)
                            .holds_flat(clock_values, vars)
                            .map_err(SimError::Eval)?
                        {
                            enabled.push(eid);
                        }
                    }
                }
                None => {
                    for &eid in &info.initiators {
                        if bytecode::guard_holds(self.network, self.engine, aid, eid, state)
                            .map_err(SimError::Eval)?
                        {
                            enabled.push(eid);
                        }
                    }
                }
            }
            self.memo_all_internal[ai] = enabled
                .iter()
                .all(|&eid| matches!(template.edge(eid).sync, Sync::Internal));
            self.memo_enabled[ai] = enabled;
            self.memo_stamp[ai] = self.instant;
        }
        if batched && self.committed_count > 0 && !info.committed && self.memo_all_internal[ai] {
            // Internal transitions of a non-committed automaton cannot
            // fire while a committed location is active elsewhere.
            return Ok(None);
        }
        let winner: Option<EdgeId>;
        let edges = if batched {
            MergeEdges::new(&self.memo_enabled[ai], &[])
        } else if let Some(ix) = &info.eq_index {
            let slot = self.network.instances[ai].frame.binding().var(ix.slot);
            let lit = state.vars[slot.index()];
            let loc = state.location_of(aid);
            let dispatch = self
                .dispatch
                .get(ai)
                .and_then(|ds| ds.iter().find(|d| d.loc == loc && d.lit == lit));
            match (dispatch, &self.ranks) {
                (Some(d), Some(ranks)) => {
                    winner = ranks
                        .winner(d.tree)
                        .and_then(|w| d.by_leaf.get(w as usize).copied().flatten());
                    MergeEdges::new(winner.as_slice(), &d.others)
                }
                _ => {
                    let bucket = ix.buckets.get(&lit).map_or(&[][..], Vec::as_slice);
                    MergeEdges::new(bucket, &ix.rest)
                }
            }
        } else {
            MergeEdges::new(&info.initiators, &[])
        };
        for eid in edges {
            if !batched {
                #[cfg(test)]
                self.evaluated.borrow_mut().push((aid, eid));
                if !self.guard_holds_at(aid, eid, state)? {
                    continue;
                }
            }
            let transition = match self.network.edge_sync(aid, eid) {
                Sync::Internal => Some(Transition::Internal {
                    participant: (aid, eid),
                }),
                Sync::Send(ch) => match self.network.channels()[ch.index()].kind {
                    ChannelKind::Binary => {
                        let mut found = None;
                        for r in self.ready_receivers(ch, aid, state) {
                            if self.guard_holds_at(r.automaton, r.edge, state)? {
                                found = Some(Transition::Binary {
                                    channel: ch,
                                    sender: (aid, eid),
                                    receiver: (r.automaton, r.edge),
                                });
                                break;
                            }
                        }
                        found
                    }
                    ChannelKind::Broadcast => {
                        let mut receivers = Vec::new();
                        let mut last: Option<AutomatonId> = None;
                        for r in self.ready_receivers(ch, aid, state) {
                            if last == Some(r.automaton) {
                                continue;
                            }
                            if self.guard_holds_at(r.automaton, r.edge, state)? {
                                receivers.push((r.automaton, r.edge));
                                last = Some(r.automaton);
                            }
                        }
                        Some(Transition::Broadcast {
                            channel: ch,
                            sender: (aid, eid),
                            receivers,
                        })
                    }
                },
                Sync::Recv(_) => None,
            };
            let Some(t) = transition else { continue };
            if self.committed_count > 0 && !info.committed {
                // Allocation-free committed filter: the sender is not
                // committed, so some receiver must be.
                let passes = match &t {
                    Transition::Internal { .. } => false,
                    Transition::Binary { receiver, .. } => {
                        self.loc_info(receiver.0, state).committed
                    }
                    Transition::Broadcast { receivers, .. } => receivers
                        .iter()
                        .any(|&(b, _)| self.loc_info(b, state).committed),
                };
                if !passes {
                    continue;
                }
            }
            return Ok(Some(t));
        }
        Ok(None)
    }

    /// The receiving edges on channel `ch` whose automaton, other than the
    /// sender `sender`, sits in the edge's source location, in canonical
    /// order.
    fn ready_receivers<'a>(
        &'a self,
        ch: ChannelId,
        sender: AutomatonId,
        state: &'a State,
    ) -> impl Iterator<Item = Receiver> + 'a {
        self.cache.receivers[ch.index()]
            .iter()
            .copied()
            .filter(move |r| r.automaton != sender && state.location_of(r.automaton) == r.from)
    }

    /// Applies a transition, refreshing the caches of every participant
    /// that moved.
    pub(crate) fn apply(
        &mut self,
        state: &mut State,
        transition: &Transition,
    ) -> Result<(), SimError> {
        for (p, _) in transition.participants() {
            if self.loc_info(p, state).committed {
                self.committed_count -= 1;
            }
        }
        apply_with(self.network, state, transition, self.engine)?;
        if let (Some(ranks), Some(c)) = (&mut self.ranks, self.compiled) {
            for (p, e) in transition.participants() {
                c.rekey_stores(p, e, ranks, &state.vars);
            }
        }
        for (p, e) in transition.participants() {
            if self.loc_info(p, state).committed {
                self.committed_count += 1;
            }
            if self.cache.moves[self.network.instances[p.index()].template][e.index()] {
                self.refresh(p, state)?;
            }
        }
        Ok(())
    }

    /// Whether any automaton currently sits in a committed location.
    pub(crate) fn any_committed(&self) -> bool {
        self.committed_count > 0
    }

    /// The delay decision: `(next_enabling_abs, invariant_expiry_abs,
    /// bounding_automaton)`. The first two may be `i64::MAX` for
    /// "never"/"unbounded"; the third names an automaton whose invariant
    /// produces the expiry (`None` iff the expiry is unbounded).
    ///
    /// Dynamic automata are recomputed against the current variables
    /// (constant during the delay, so this is exact); cacheable automata
    /// are answered by the heaps in `O(log automata)` amortized.
    pub(crate) fn delay_targets(
        &mut self,
        state: &State,
    ) -> Result<(i64, i64, Option<AutomatonId>), SimError> {
        let now = state.time;
        let mut next = i64::MAX;
        let mut expiry = i64::MAX;
        let mut bounder = None;

        for raw in self.dynamic_set.iter() {
            let aid = AutomatonId::from_raw(raw);
            let info = self.loc_info(aid, state);
            for &eid in &info.initiators {
                if let Some(w) = bytecode::guard_window(self.network, self.engine, aid, eid, state)
                    .map_err(SimError::Eval)?
                {
                    let lo = w.lo.max(1);
                    if w.contains(lo) {
                        next = next.min(abs_time(now, lo)?);
                    }
                }
            }
        }
        while let Some(&Reverse((t, a))) = self.wake_heap.peek() {
            if !self.dynamic_set.contains(a) && self.wake[a as usize] == t {
                debug_assert!(t > now, "due wake entries are drained on advance");
                next = next.min(t);
                break;
            }
            self.wake_heap.pop();
        }

        for raw in self.inv_dynamic_set.iter() {
            let aid = AutomatonId::from_raw(raw);
            if let Some(d) = bytecode::invariant_max_delay(
                self.network,
                self.engine,
                aid,
                state.location_of(aid),
                state,
            )
            .map_err(SimError::Eval)?
            {
                let e = abs_time(now, d.max(0))?;
                if e < expiry {
                    expiry = e;
                    bounder = Some(aid);
                }
            }
        }
        while let Some(&Reverse((t, a))) = self.inv_heap.peek() {
            if !self.inv_dynamic_set.contains(a) && self.inv_expiry[a as usize] == t {
                if t < expiry {
                    expiry = t;
                    bounder = Some(AutomatonId::from_raw(a));
                }
                break;
            }
            self.inv_heap.pop();
        }
        Ok((next, expiry, bounder))
    }

    /// The id of the automaton whose cached invariant expiry is earliest,
    /// or `None` if no invariant currently bounds time (diagnostics).
    pub(crate) fn earliest_bounded_automaton(&self) -> Option<AutomatonId> {
        let mut best: Option<(i64, usize)> = None;
        for (ai, &e) in self.inv_expiry.iter().enumerate() {
            if e < i64::MAX && best.is_none_or(|(b, _)| e < b) {
                best = Some((e, ai));
            }
        }
        best.map(|(_, ai)| {
            AutomatonId::from_raw(u32::try_from(ai).expect("automaton count fits u32"))
        })
    }

    /// The id of some committed automaton (diagnostics).
    pub(crate) fn committed_automaton(&self, state: &State) -> AutomatonId {
        self.network
            .automaton_ids()
            .find(|&aid| self.loc_info(aid, state).committed)
            .unwrap_or(AutomatonId::from_raw(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::{AutomatonBuilder, Edge};
    use crate::expr::{CmpOp, IntExpr, Pred};
    use crate::guard::{ClockAtom, Guard, Invariant};
    use crate::network::NetworkBuilder;
    use crate::sim::{Simulator, TieBreak};
    use crate::update::Update;

    /// A periodic ticker (state-independent guards — fully cacheable).
    fn ticker_network(period: i64) -> Network {
        let mut nb = NetworkBuilder::new();
        let c = nb.clock("c");
        let mut a = AutomatonBuilder::new("t");
        let l0 = a.location_with_invariant("wait", Invariant::upper_bound(c, period));
        a.edge(
            Edge::new(l0, l0)
                .with_guard(Guard::always().and_clock(ClockAtom::new(c, CmpOp::Ge, period)))
                .with_update(Update::ResetClock(c)),
        );
        nb.automaton(a.finish(l0));
        nb.build().unwrap()
    }

    #[test]
    fn cacheable_network_is_eligible() {
        let n = ticker_network(5);
        assert!(FastCache::new(&n).eligible());
    }

    #[test]
    fn clock_guarded_receive_disables_fast_path() {
        let mut nb = NetworkBuilder::new();
        let c = nb.clock("c");
        let ch = nb.binary_channel("go");
        let mut a = AutomatonBuilder::new("s");
        let l0 = a.location("l0");
        a.edge(Edge::new(l0, l0).with_sync(crate::automaton::Sync::Send(ch)));
        nb.automaton(a.finish(l0));
        let mut b = AutomatonBuilder::new("r");
        let l0 = b.location("l0");
        b.edge(
            Edge::new(l0, l0)
                .with_sync(crate::automaton::Sync::Recv(ch))
                .with_guard(Guard::always().and_clock(ClockAtom::new(c, CmpOp::Ge, 3))),
        );
        nb.automaton(b.finish(l0));
        let n = nb.build().unwrap();
        assert!(!FastCache::new(&n).eligible());
    }

    #[test]
    fn foreign_clock_update_disables_fast_path() {
        // Automaton "meddler" resets a clock that "watcher" guards on.
        let mut nb = NetworkBuilder::new();
        let c = nb.clock("c");
        let mut a = AutomatonBuilder::new("watcher");
        let l0 = a.location("l0");
        let l1 = a.location("l1");
        a.edge(
            Edge::new(l0, l1).with_guard(Guard::always().and_clock(ClockAtom::new(
                c,
                CmpOp::Ge,
                5,
            ))),
        );
        nb.automaton(a.finish(l0));
        let mut b = AutomatonBuilder::new("meddler");
        let m0 = b.location("m0");
        b.edge(Edge::new(m0, m0).with_update(Update::ResetClock(c)));
        nb.automaton(b.finish(m0));
        let n = nb.build().unwrap();
        assert!(!FastCache::new(&n).eligible());
    }

    #[test]
    fn own_clock_updates_stay_eligible() {
        // The ticker resets its own guarded clock: fine.
        let n = ticker_network(3);
        assert!(FastCache::new(&n).eligible());
    }

    #[test]
    fn var_dependent_guards_stay_eligible_but_dynamic() {
        // A guard reading a variable doesn't disable the fast path; the
        // location is just rescanned (the equality test below proves the
        // semantics are preserved).
        let mut nb = NetworkBuilder::new();
        let v = nb.var("x", 0, 0, 5);
        let c = nb.clock("c");
        let mut a = AutomatonBuilder::new("setter");
        let l0 = a.location_with_invariant("l0", Invariant::upper_bound(c, 2));
        let l1 = a.location("l1");
        a.edge(
            Edge::new(l0, l1)
                .with_guard(Guard::always().and_clock(ClockAtom::new(c, CmpOp::Ge, 2)))
                .with_update(Update::set(v, 1)),
        );
        nb.automaton(a.finish(l0));
        let mut b = AutomatonBuilder::new("follower");
        let m0 = b.location("m0");
        let m1 = b.location("m1");
        b.edge(Edge::new(m0, m1).with_guard(Guard::when(IntExpr::var(v).eq(1))));
        nb.automaton(b.finish(m0));
        let n = nb.build().unwrap();
        assert!(FastCache::new(&n).eligible());

        let fast = Simulator::new(&n).horizon(10).run().unwrap();
        let identity = TieBreak::Permuted(vec![0, 1]);
        let generic = Simulator::new(&n)
            .horizon(10)
            .tie_break(identity)
            .run()
            .unwrap();
        assert_eq!(fast.trace, generic.trace);
        let times: Vec<i64> = fast.trace.iter().map(|e| e.time).collect();
        assert_eq!(times, vec![2, 2]);
    }

    #[test]
    fn fast_and_generic_agree_on_mixed_networks() {
        // Binary syncs + invariants + stopped clocks.
        let mut nb = NetworkBuilder::new();
        let c = nb.clock("c");
        let stop = nb.stopped_clock("s");
        let ch = nb.binary_channel("go");
        let mut a = AutomatonBuilder::new("sender");
        let l0 = a.location_with_invariant("l0", Invariant::upper_bound(c, 4));
        let l1 = a.location("l1");
        a.edge(
            Edge::new(l0, l1)
                .with_guard(Guard::always().and_clock(ClockAtom::new(c, CmpOp::Ge, 4)))
                .with_sync(crate::automaton::Sync::Send(ch))
                .with_update(Update::StartClock(stop)),
        );
        let l2 = a.location("l2");
        a.edge(
            Edge::new(l1, l2).with_guard(Guard::always().and_clock(ClockAtom::new(
                stop,
                CmpOp::Ge,
                3,
            ))),
        );
        nb.automaton(a.finish(l0));
        let mut b = AutomatonBuilder::new("receiver");
        let m0 = b.location("m0");
        b.edge(Edge::new(m0, m0).with_sync(crate::automaton::Sync::Recv(ch)));
        nb.automaton(b.finish(m0));
        let n = nb.build().unwrap();
        assert!(FastCache::new(&n).eligible());

        let fast = Simulator::new(&n).horizon(20).run().unwrap();
        let generic = Simulator::new(&n)
            .horizon(20)
            .tie_break(TieBreak::Permuted(vec![0, 1]))
            .run()
            .unwrap();
        assert_eq!(fast.trace, generic.trace);
        let times: Vec<i64> = fast.trace.iter().map(|e| e.time).collect();
        assert_eq!(times, vec![4, 7]);
    }

    #[test]
    fn fast_path_detects_time_lock_like_generic() {
        let mut nb = NetworkBuilder::new();
        let c = nb.clock("c");
        let mut a = AutomatonBuilder::new("stuck");
        let l0 = a.location_with_invariant("l0", Invariant::upper_bound(c, 5));
        let l1 = a.location("l1");
        a.edge(
            Edge::new(l0, l1).with_guard(Guard::always().and_clock(ClockAtom::new(
                c,
                CmpOp::Ge,
                10,
            ))),
        );
        nb.automaton(a.finish(l0));
        let n = nb.build().unwrap();
        assert!(FastCache::new(&n).eligible());
        let err = Simulator::new(&n).horizon(100).run().unwrap_err();
        assert!(matches!(err, SimError::TimeLock { .. }));
    }

    #[test]
    fn wake_time_overflow_is_detected() {
        // At t=5 the clock is reset and the automaton enters a location
        // whose guard bound sits near i64::MAX: the absolute wake time
        // 5 + (i64::MAX - 2) leaves i64. The wheel used to saturate and
        // silently park the automaton forever; now it reports overflow.
        let mut nb = NetworkBuilder::new();
        let c = nb.clock("c");
        let mut a = AutomatonBuilder::new("far");
        let l0 = a.location("l0");
        let l1 = a.location("l1");
        let l2 = a.location("l2");
        a.edge(
            Edge::new(l0, l1)
                .with_guard(Guard::always().and_clock(ClockAtom::new(c, CmpOp::Ge, 5)))
                .with_update(Update::ResetClock(c)),
        );
        a.edge(
            Edge::new(l1, l2).with_guard(Guard::always().and_clock(ClockAtom::new(
                c,
                CmpOp::Ge,
                i64::MAX - 2,
            ))),
        );
        nb.automaton(a.finish(l0));
        let n = nb.build().unwrap();
        assert!(FastCache::new(&n).eligible());
        let err = Simulator::new(&n).horizon(100).run().unwrap_err();
        assert_eq!(err, SimError::Overflow { time: 5 });
    }

    #[test]
    fn near_max_bound_without_overflow_still_runs() {
        // Same shape, but the clock is not reset: the residual delay
        // (i64::MAX - 2) - 5 stays representable, so the run just reaches
        // its horizon.
        let mut nb = NetworkBuilder::new();
        let c = nb.clock("c");
        let mut a = AutomatonBuilder::new("far");
        let l0 = a.location("l0");
        let l1 = a.location("l1");
        let l2 = a.location("l2");
        a.edge(
            Edge::new(l0, l1).with_guard(Guard::always().and_clock(ClockAtom::new(
                c,
                CmpOp::Ge,
                5,
            ))),
        );
        a.edge(
            Edge::new(l1, l2).with_guard(Guard::always().and_clock(ClockAtom::new(
                c,
                CmpOp::Ge,
                i64::MAX - 2,
            ))),
        );
        nb.automaton(a.finish(l0));
        let n = nb.build().unwrap();
        let out = Simulator::new(&n).horizon(100).run().unwrap();
        assert_eq!(out.final_state.time, 100);
        assert_eq!(out.steps, 1);
    }

    #[test]
    fn wheel_wakeups_are_counted() {
        let n = ticker_network(5);
        let out = Simulator::new(&n).horizon(26).run().unwrap();
        // Five ticks, each parked on the wheel and woken when due.
        assert_eq!(out.steps, 5);
        assert_eq!(out.stats.wheel_wakeups, 5);
    }

    /// A fixed-priority scheduler over `K` cells, written as the
    /// scheduler templates write it: from the committed `decide`, edge
    /// `k < K` dispatches task `k` when `running == 0`, task `k` is ready
    /// and no ready task beats it (priorities `k % 4`, so keys tie and the
    /// lower index wins); edge `K` goes idle when nothing is ready. A
    /// dispatched task runs one tick; idling lasts three and makes every
    /// task ready again. Returns the network, the scheduler and `decide`.
    fn dispatch_network() -> (Network, AutomatonId, LocationId) {
        const K: usize = crate::bytecode::MIN_DOMINANCE_K + 5;
        let lit = |i: usize| i64::try_from(i).unwrap();
        let mut nb = NetworkBuilder::new();
        let ready = nb.array("ready", vec![1; K], 0, 1);
        let prio = nb.array("prio", (0..K).map(|k| lit(k % 4)).collect(), 0, 3);
        let running = nb.var("running", 0, 0, lit(K));
        let c = nb.clock("c");
        let gated = |m: IntExpr| IntExpr::elem(ready, m).eq(1);
        let mut a = AutomatonBuilder::new("sched");
        let decide = a.committed_location("decide");
        let busy = a.location_with_invariant("busy", Invariant::upper_bound(c, 1));
        let idle = a.location_with_invariant("idle", Invariant::upper_bound(c, 3));
        let m = IntExpr::bound(0);
        for k in 0..K {
            let (pm, pk) = (IntExpr::elem(prio, m.clone()), IntExpr::elem(prio, lit(k)));
            let unbeaten = gated(m.clone()).not().or(pm
                .clone()
                .lt(pk.clone())
                .or(pm.eq(pk).and(m.clone().ge(lit(k)))));
            a.edge(
                Edge::new(decide, busy)
                    .with_guard(Guard::when(
                        IntExpr::var(running)
                            .eq(0)
                            .and(gated(IntExpr::lit(lit(k))))
                            .and(Pred::forall(0, lit(K), unbeaten)),
                    ))
                    .with_update(Update::set(running, lit(k) + 1))
                    .with_update(Update::set_elem(ready, lit(k), 0))
                    .with_update(Update::ResetClock(c)),
            );
        }
        a.edge(
            Edge::new(decide, idle)
                .with_guard(Guard::when(IntExpr::var(running).eq(0).and(Pred::forall(
                    0,
                    lit(K),
                    gated(m).not(),
                ))))
                .with_update(Update::ResetClock(c)),
        );
        a.edge(
            Edge::new(busy, decide)
                .with_guard(Guard::always().and_clock(ClockAtom::new(c, CmpOp::Ge, 1)))
                .with_update(Update::set(running, 0)),
        );
        let mut wake = Edge::new(idle, decide)
            .with_guard(Guard::always().and_clock(ClockAtom::new(c, CmpOp::Ge, 3)));
        for k in 0..K {
            wake = wake.with_update(Update::set_elem(ready, lit(k), 1));
        }
        a.edge(wake);
        let sched = nb.automaton(a.finish(decide));
        (nb.build().unwrap(), sched, decide)
    }

    /// Per scan of `decide`, the most dispatch guards one scan evaluated,
    /// and how many scans there were, over the first 200 ticks.
    fn dispatch_guards_per_decide(engine: EvalEngine) -> (usize, usize) {
        let (n, sched, decide) = dispatch_network();
        let go_idle = crate::bytecode::MIN_DOMINANCE_K + 5;
        let cache = FastCache::new(&n);
        assert!(cache.eligible());
        let mut state = State::initial(&n);
        let mut run = FastRun::new(&n, &cache, &state, engine).unwrap();
        let (mut most, mut visits) = (0, 0);
        while state.time < 200 {
            let at_decide = state.location_of(sched) == decide;
            run.evaluated.borrow_mut().clear();
            match run.first_enabled(&state).unwrap() {
                Some(t) => run.apply(&mut state, &t).unwrap(),
                None => {
                    let (next, expiry, _) = run.delay_targets(&state).unwrap();
                    let delay = next.min(expiry) - state.time;
                    run.advance(&mut state, delay);
                }
            }
            if at_decide {
                let evaluated = run.evaluated.borrow();
                let dispatch = evaluated
                    .iter()
                    .filter(|(a, e)| *a == sched && e.index() < go_idle);
                most = most.max(dispatch.count());
                visits += 1;
            }
        }
        (most, visits)
    }

    #[test]
    fn decide_scans_evaluate_at_most_two_dispatch_guards() {
        let (most, visits) = dispatch_guards_per_decide(EvalEngine::Bytecode);
        assert!(visits > 100, "{visits} scans of decide");
        assert!(
            most <= 2,
            "a scan of decide evaluated {most} dispatch guards"
        );
        // Without trees the scan walks the bucket, so the counter sees it.
        let (most, _) = dispatch_guards_per_decide(EvalEngine::Ast);
        assert!(most > 2, "the AST walker evaluated at most {most}");
    }

    #[test]
    fn dispatch_from_the_root_keeps_the_trace() {
        let (n, ..) = dispatch_network();
        let fast = Simulator::new(&n).horizon(200).run().unwrap();
        let ast = Simulator::new(&n)
            .horizon(200)
            .engine(EvalEngine::Ast)
            .run()
            .unwrap();
        let generic = Simulator::new(&n)
            .horizon(200)
            .tie_break(TieBreak::Permuted(vec![0]))
            .run()
            .unwrap();
        assert_eq!(fast, ast);
        assert_eq!(fast, generic);
        assert!(fast.steps > 200, "{} steps", fast.steps);
    }

    #[test]
    fn earliest_bounded_automaton_is_none_without_invariants() {
        // No invariant anywhere: nothing ever bounds time, so the
        // diagnostic must not fabricate automaton 0.
        let mut nb = NetworkBuilder::new();
        let mut a = AutomatonBuilder::new("free");
        let l0 = a.location("l0");
        let l1 = a.location("l1");
        a.edge(Edge::new(l0, l1).with_guard(Guard::when(crate::expr::Pred::ff())));
        nb.automaton(a.finish(l0));
        let n = nb.build().unwrap();
        let cache = FastCache::new(&n);
        let state = State::initial(&n);
        let run = FastRun::new(&n, &cache, &state, EvalEngine::default()).unwrap();
        assert_eq!(run.earliest_bounded_automaton(), None);
    }

    #[test]
    fn earliest_bounded_automaton_picks_tightest_invariant() {
        let mut nb = NetworkBuilder::new();
        let c1 = nb.clock("c1");
        let c2 = nb.clock("c2");
        let mut a = AutomatonBuilder::new("loose");
        let l0 = a.location_with_invariant("l0", Invariant::upper_bound(c1, 9));
        nb.automaton(a.finish(l0));
        let mut b = AutomatonBuilder::new("tight");
        let m0 = b.location_with_invariant("m0", Invariant::upper_bound(c2, 3));
        nb.automaton(b.finish(m0));
        let n = nb.build().unwrap();
        let cache = FastCache::new(&n);
        let state = State::initial(&n);
        let run = FastRun::new(&n, &cache, &state, EvalEngine::default()).unwrap();
        assert_eq!(
            run.earliest_bounded_automaton(),
            Some(AutomatonId::from_raw(1))
        );
    }
}
