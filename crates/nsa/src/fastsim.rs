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
//! * a `ready` set (ordered by automaton id — canonical order) of cacheable
//!   automata whose wake time has arrived,
//! * a lazy-deletion min-heap of *future* wake times, drained into `ready`
//!   whenever time advances,
//! * a mirror heap of invariant expiries,
//! * a `dynamic` set of automata whose guards read variables and must be
//!   rescanned at every step, and
//! * per-channel receiver-readiness sets holding exactly the receiving
//!   edges whose source location is current, in canonical order.
//!
//! With the bytecode engine, `FastRun` also owns the tournament trees of
//! the crate's `dominance` module, which answer the large schedulers'
//! dispatch quantifiers; it builds them from the state and re-keys them
//! after each transition.
//!
//! Heap entries are never updated in place: an entry `(t, a)` is *live* iff
//! the corresponding cached value still equals `t` (and the automaton is
//! still cacheable); stale entries are discarded when they surface. A step
//! therefore costs `O(participants · log automata)` instead of
//! `O(automata)`.
//!
//! A network is *eligible* for the fast path when receive-edge guards are
//! clock-free and no edge manipulates a clock that another automaton's
//! guards or invariants read — both true of every model `swa-core`
//! generates, and checked structurally here. Ineligible networks (and
//! non-canonical tie-breaks) fall back to the generic interpreter; the two
//! produce identical traces, which the test-suite asserts.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use crate::automaton::Sync;
use crate::bytecode::{self, EvalEngine};
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
    /// Receiving edges out of this location, in ascending edge order.
    recv_edges: Vec<(ChannelId, EdgeId)>,
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
    let mut buckets: std::collections::HashMap<i64, Vec<EdgeId>> =
        std::collections::HashMap::new();
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

/// Static per-network acceleration data.
#[derive(Debug, Clone)]
pub struct FastCache {
    /// Whether the network satisfies the fast-path preconditions.
    eligible: bool,
    /// `info[template][location]`; channels and variables in it are the
    /// template's local ids.
    info: Vec<Vec<LocInfo>>,
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
                        let mut recv_edges = Vec::new();
                        let mut guards_cacheable = true;
                        for &eid in outgoing {
                            let e = a.edge(eid);
                            if let Sync::Recv(ch) = e.sync {
                                recv_edges.push((ch, eid));
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
                            recv_edges,
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

        Self { eligible, info }
    }

    /// Whether the fast path may be used for this network.
    #[must_use]
    pub fn eligible(&self) -> bool {
        self.eligible
    }
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
/// * A wake-heap entry `(t, a)` is live iff `!dynamic[a] && wake[a] == t`;
///   an invariant-heap entry iff `!inv_dynamic[a] && inv_expiry[a] == t`.
///   Live wake entries always satisfy `t > now` (entries falling due are
///   drained into `ready` by [`FastRun::advance`]).
/// * `recv_ready[ch]` holds exactly the receiving edges on `ch` whose
///   source location is the owning automaton's current location, in
///   canonical `(automaton, edge)` order.
pub(crate) struct FastRun<'n> {
    network: &'n Network,
    compiled: Option<&'n crate::bytecode::CompiledNetwork>,
    cache: &'n FastCache,
    engine: EvalEngine,
    /// Absolute earliest time automaton `a` could initiate a transition
    /// (`i64::MAX` = never, as long as it does not move). For locations
    /// with non-cacheable guards this is kept at the refresh time
    /// (rescan every step).
    wake: Vec<i64>,
    /// `wake[a]` is a live lower bound only when the guards are cacheable;
    /// otherwise the automaton is rescanned and its delay windows are
    /// recomputed on demand.
    dynamic: Vec<bool>,
    /// Absolute invariant expiry per automaton (`i64::MAX` = unbounded).
    inv_expiry: Vec<i64>,
    /// Invariants needing recomputation at each delay decision.
    inv_dynamic: Vec<bool>,
    committed_count: usize,
    /// Cacheable automata whose wake time has arrived and whose location
    /// can initiate a sync (or is committed), ascending by id.
    ready_sync: BTreeSet<u32>,
    /// Cacheable automata whose wake time has arrived in an
    /// `internal_only` location — skipped while any committed location is
    /// active, ascending by id.
    ready_internal: BTreeSet<u32>,
    /// Automata rescanned every step, ascending by id.
    dynamic_set: BTreeSet<u32>,
    /// Automata whose invariants are recomputed at each delay decision.
    inv_dynamic_set: BTreeSet<u32>,
    /// Future wake times (lazy deletion, see the invariants above).
    wake_heap: BinaryHeap<Reverse<(i64, u32)>>,
    /// Bounded invariant expiries (lazy deletion).
    inv_heap: BinaryHeap<Reverse<(i64, u32)>>,
    /// Per channel: currently-ready receiving edges in canonical order.
    recv_ready: Vec<BTreeSet<(u32, u32)>>,
    /// Location whose receive edges each automaton has registered in
    /// `recv_ready` (`None` before the first refresh).
    registered: Vec<Option<LocationId>>,
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
    /// Reusable merge buffer for the per-call canonical scan order.
    scan_buf: Vec<u32>,
    /// Tournament trees answering the compiled guards' dominance queries
    /// (`None` for the AST walker and for networks without such queries).
    /// Built from the state, like the event wheel, and re-keyed after
    /// every transition from the stores of its edges' update programs.
    ranks: Option<DominanceIndex>,
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
            dynamic: vec![false; n],
            inv_expiry: vec![i64::MAX; n],
            inv_dynamic: vec![false; n],
            committed_count: 0,
            ready_sync: BTreeSet::new(),
            ready_internal: BTreeSet::new(),
            dynamic_set: BTreeSet::new(),
            inv_dynamic_set: BTreeSet::new(),
            wake_heap: BinaryHeap::new(),
            inv_heap: BinaryHeap::new(),
            recv_ready: vec![BTreeSet::new(); network.channels().len()],
            registered: vec![None; n],
            wheel_wakeups: 0,
            instant: 1,
            memo_stamp: vec![0; n],
            memo_enabled: vec![Vec::new(); n],
            memo_all_internal: vec![false; n],
            scan_buf: Vec::new(),
            ranks: compiled.and_then(|c| DominanceIndex::build(c.rankings(), &state.vars)),
        };
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

    /// Syncs `recv_ready` with the automaton's current location.
    fn register_receivers(&mut self, a: AutomatonId, loc: LocationId) {
        if self.registered[a.index()] == Some(loc) {
            return;
        }
        let network = self.network;
        let frame = network.instances[a.index()].frame.binding();
        if let Some(old) = self.registered[a.index()] {
            for &(ch, eid) in &self.info_at(a, old).recv_edges {
                self.recv_ready[frame.channel(ch).index()].remove(&(a.raw(), eid.raw()));
            }
        }
        for &(ch, eid) in &self.info_at(a, loc).recv_edges {
            self.recv_ready[frame.channel(ch).index()].insert((a.raw(), eid.raw()));
        }
        self.registered[a.index()] = Some(loc);
    }

    /// Drops stale heap entries once a heap outgrows a small multiple of
    /// the automaton count (keeps memory bounded over long runs).
    fn maybe_compact(&mut self) {
        let cap = 4 * self.wake.len() + 64;
        if self.wake_heap.len() > cap {
            let wake = &self.wake;
            let dynamic = &self.dynamic;
            let keep: Vec<_> = self
                .wake_heap
                .drain()
                .filter(|&Reverse((t, a))| !dynamic[a as usize] && wake[a as usize] == t)
                .collect();
            self.wake_heap = keep.into();
        }
        if self.inv_heap.len() > cap {
            let inv_expiry = &self.inv_expiry;
            let inv_dynamic = &self.inv_dynamic;
            let keep: Vec<_> = self
                .inv_heap
                .drain()
                .filter(|&Reverse((t, a))| !inv_dynamic[a as usize] && inv_expiry[a as usize] == t)
                .collect();
            self.inv_heap = keep.into();
        }
    }

    /// Recomputes the cached wake time and invariant expiry of `a` and
    /// re-indexes it in the event wheel.
    fn refresh(&mut self, a: AutomatonId, state: &State) -> Result<(), SimError> {
        let loc = state.location_of(a);
        self.register_receivers(a, loc);
        let info = self.info_at(a, loc);
        let initiators_empty = info.initiators.is_empty();
        let guards_cacheable = info.guards_cacheable;
        let inv_cacheable = info.inv_cacheable;
        let now = state.time;
        let ai = a.index();
        let raw = a.raw();

        self.memo_stamp[ai] = 0;
        self.dynamic[ai] = !guards_cacheable;
        self.ready_sync.remove(&raw);
        self.ready_internal.remove(&raw);
        if !guards_cacheable {
            self.dynamic_set.insert(raw);
            self.wake[ai] = now;
        } else {
            self.dynamic_set.remove(&raw);
            if initiators_empty {
                self.wake[ai] = i64::MAX;
            } else {
                let mut wake = i64::MAX;
                for &eid in &info.initiators {
                    if let Some(w) = bytecode::guard_window(self.network, self.engine, a, eid, state)
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

        self.inv_dynamic[ai] = !inv_cacheable;
        let expiry =
            match bytecode::invariant_max_delay(self.network, self.engine, a, loc, state)
                .map_err(SimError::Eval)?
            {
                None => i64::MAX,
                Some(d) => abs_time(now, d.max(0))?,
            };
        self.inv_expiry[ai] = expiry;
        if !inv_cacheable {
            self.inv_dynamic_set.insert(raw);
        } else {
            self.inv_dynamic_set.remove(&raw);
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
            if !self.dynamic[a as usize] && self.wake[a as usize] == t {
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
    /// Only automata in the ready or dynamic sets are scanned; merging the
    /// two ordered sets preserves the canonical ascending-id order the
    /// generic interpreter uses.
    pub(crate) fn first_enabled(&mut self, state: &State) -> Result<Option<Transition>, SimError> {
        // Snapshot the merged scan order into a flat buffer: neither set
        // changes during the call (only `apply` mutates them), and a
        // linear walk beats a tree descent per candidate. The buffer is
        // taken out of `self` so `scan_automaton` can mutate the memos.
        // While a committed location is active, `internal_only` locations
        // cannot fire (the filter would reject their only transitions),
        // so their whole ready set is skipped without visiting a member.
        let skip_internal = self.committed_count > 0;
        const CHUNK: usize = 8;
        let mut buf = std::mem::take(&mut self.scan_buf);
        let mut cur: u32 = 0;
        let mut result = Ok(None);
        'outer: loop {
            buf.clear();
            {
                let mut sync = self.ready_sync.range(cur..).copied();
                let mut internal = self.ready_internal.range(cur..).copied();
                let mut dynamic = self.dynamic_set.range(cur..).copied();
                let mut ns = sync.next();
                let mut ni = if skip_internal { None } else { internal.next() };
                let mut nd = dynamic.next();
                while buf.len() < CHUNK {
                    let min = match (ns, ni, nd) {
                        (None, None, None) => break,
                        _ => [ns, ni, nd].into_iter().flatten().min().expect("nonempty"),
                    };
                    buf.push(min);
                    if ns == Some(min) {
                        ns = sync.next();
                    }
                    if ni == Some(min) {
                        ni = internal.next();
                    }
                    if nd == Some(min) {
                        nd = dynamic.next();
                    }
                }
            }
            let Some(&last) = buf.last() else { break };
            for &raw in &buf {
                match self.scan_automaton(AutomatonId::from_raw(raw), state) {
                    Ok(None) => {}
                    other => {
                        result = other;
                        break 'outer;
                    }
                }
            }
            let Some(next) = last.checked_add(1) else {
                break;
            };
            cur = next;
        }
        self.scan_buf = buf;
        result
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
        if batched
            && self.committed_count > 0
            && !info.committed
            && self.memo_all_internal[ai]
        {
            // Internal transitions of a non-committed automaton cannot
            // fire while a committed location is active elsewhere.
            return Ok(None);
        }
        let edges = if batched {
            MergeEdges::new(&self.memo_enabled[ai], &[])
        } else if let Some(ix) = &info.eq_index {
            let slot = self.network.instances[ai].frame.binding().var(ix.slot);
            let bucket = ix
                .buckets
                .get(&state.vars[slot.index()])
                .map_or(&[][..], Vec::as_slice);
            MergeEdges::new(bucket, &ix.rest)
        } else {
            MergeEdges::new(&info.initiators, &[])
        };
        for eid in edges {
            if !batched && !self.guard_holds_at(aid, eid, state)? {
                continue;
            }
            let transition = match self.network.edge_sync(aid, eid) {
                Sync::Internal => Some(Transition::Internal {
                    participant: (aid, eid),
                }),
                Sync::Send(ch) => match self.network.channels()[ch.index()].kind {
                    ChannelKind::Binary => {
                        let mut found = None;
                        for &(braw, beraw) in &self.recv_ready[ch.index()] {
                            let bid = AutomatonId::from_raw(braw);
                            if bid == aid {
                                continue;
                            }
                            let beid = EdgeId::from_raw(beraw);
                            if self.guard_holds_at(bid, beid, state)? {
                                found = Some(Transition::Binary {
                                    channel: ch,
                                    sender: (aid, eid),
                                    receiver: (bid, beid),
                                });
                                break;
                            }
                        }
                        found
                    }
                    ChannelKind::Broadcast => {
                        let mut receivers = Vec::new();
                        let mut last: Option<AutomatonId> = None;
                        for &(braw, beraw) in &self.recv_ready[ch.index()] {
                            let bid = AutomatonId::from_raw(braw);
                            if bid == aid || last == Some(bid) {
                                continue;
                            }
                            let beid = EdgeId::from_raw(beraw);
                            if self.guard_holds_at(bid, beid, state)? {
                                receivers.push((bid, beid));
                                last = Some(bid);
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

    /// Applies a transition, refreshing the caches of every participant.
    pub(crate) fn apply(
        &mut self,
        state: &mut State,
        transition: &Transition,
    ) -> Result<(), SimError> {
        let participants = transition.participants();
        for &(p, _) in &participants {
            if self.loc_info(p, state).committed {
                self.committed_count -= 1;
            }
        }
        apply_with(self.network, state, transition, self.engine)?;
        if let (Some(ranks), Some(c)) = (&mut self.ranks, self.compiled) {
            for &(p, e) in &participants {
                c.rekey_stores(p, e, ranks, &state.vars);
            }
        }
        for &(p, _) in &participants {
            if self.loc_info(p, state).committed {
                self.committed_count += 1;
            }
            self.refresh(p, state)?;
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

        for &raw in &self.dynamic_set {
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
            if !self.dynamic[a as usize] && self.wake[a as usize] == t {
                debug_assert!(t > now, "due wake entries are drained on advance");
                next = next.min(t);
                break;
            }
            self.wake_heap.pop();
        }

        for &raw in &self.inv_dynamic_set {
            let aid = AutomatonId::from_raw(raw);
            if let Some(d) =
                bytecode::invariant_max_delay(self.network, self.engine, aid, state.location_of(aid), state)
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
            if !self.inv_dynamic[a as usize] && self.inv_expiry[a as usize] == t {
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
    use crate::expr::{CmpOp, IntExpr};
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
            Edge::new(l0, l1)
                .with_guard(Guard::always().and_clock(ClockAtom::new(c, CmpOp::Ge, 5))),
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
            Edge::new(l0, l1)
                .with_guard(Guard::always().and_clock(ClockAtom::new(c, CmpOp::Ge, 5))),
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
        assert_eq!(run.earliest_bounded_automaton(), Some(AutomatonId::from_raw(1)));
    }
}
