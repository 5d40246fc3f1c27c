//! Compile-once evaluation: guards, invariants and updates as flat programs.
//!
//! The generic evaluator walks the [`IntExpr`]/[`Pred`] AST on every guard
//! check — a pointer chase per node, a `Vec` allocation per call (the
//! binder stack), and a virtual dispatch per variable read. This module
//! lowers the whole expression language into flat stack-machine programs,
//! once per template shape: every instance of a template copies the
//! template's programs and *relocates* the fields its frame binds
//! (parameter-derived constants, the slots of its variables, its clocks;
//! see [`CompiledNetwork`]). The programs:
//!
//! * variable and array reads are pre-resolved to **slots** in the state's
//!   flattened `vars` vector (scalars first, then array cells);
//! * `&&`/`||`/`Ite` become **short-circuit jumps**;
//! * bounded quantifiers become **counted loops** over a frame stack, with
//!   the de Bruijn index resolved to an absolute frame slot at compile
//!   time;
//! * [`Update::If`] becomes a conditional jump; assignments carry their
//!   domain bounds inline, so an update program needs no declaration
//!   lookups at all.
//!
//! Evaluation is allocation-free after warm-up: every thread reuses one
//! scratch `Vm` (an operand stack plus a loop-frame stack).
//!
//! ## Exact equivalence with the AST walker
//!
//! The compiler preserves the AST evaluator's observable semantics
//! bit-for-bit, including error behaviour: operand evaluation order
//! (left-to-right, except `Div`/`Rem` which check the divisor *before*
//! evaluating the dividend), short-circuit order of `And`/`Or`, the
//! [`MAX_QUANTIFIER_RANGE`] check before the first loop iteration, and the
//! precedence of `IndexOutOfBounds` over `ArrayDomainViolation` in array
//! assignments. The differential test-suite asserts trace equality between
//! the two engines on every fixture and on randomized workloads.

use std::cell::RefCell;

use crate::automaton::Automaton;
use crate::dominance::{Best, DominanceIndex, Key, Query, Ranking};
use crate::error::{EvalError, SimError};
use crate::expr::{Binding, CmpOp, IntExpr, Pred, MAX_QUANTIFIER_RANGE};
use crate::guard::{atom_delay_window, DelayWindow};
use crate::ids::{ArrayId, AutomatonId, ClockId, EdgeId, LocationId, VarId};
use crate::network::Network;
use crate::state::State;
use crate::update::{LValue, Update};

/// Which expression evaluator the interpreters use.
///
/// Chosen per run with [`Simulator::engine`](crate::Simulator::engine)
/// and nowhere above this crate: every product path runs the bytecode,
/// and the AST walker is the reference the differential suites compare
/// it against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EvalEngine {
    /// Walk the `IntExpr`/`Pred` AST recursively (the reference engine).
    Ast,
    /// Run flat pre-compiled programs (the default).
    #[default]
    Bytecode,
}

impl std::fmt::Display for EvalEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Ast => f.write_str("ast"),
            Self::Bytecode => f.write_str("bytecode"),
        }
    }
}

/// One instruction of the stack machine.
///
/// Booleans are represented as `0`/`1` on the operand stack; every
/// boolean-producing instruction (`Cmp`, `Not`, quantifier steps, `Push` of
/// a predicate literal) pushes exactly `0` or `1`, which `AndCheck`/
/// `OrCheck` rely on to keep the short-circuited value as the result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// Push a literal.
    Push(i64),
    /// Push `vars[slot]`.
    LoadVar(u32),
    /// Pop an index, bounds-check it against `len`, push `vars[base + i]`.
    LoadElem { array: u32, base: u32, len: u32 },
    /// Push the loop counter of the frame at absolute depth `slot`.
    LoadBound(u32),
    /// Raise `EvalError::UnboundParam` (an unbound template parameter was
    /// reached at runtime — same laziness as the AST walker).
    FailParam(u32),
    /// Raise `EvalError::UnboundIndex`.
    FailBound(u32),
    /// Pop `b`, pop `a`, push `a + b` (checked).
    Add,
    /// Pop `b`, pop `a`, push `a - b` (checked).
    Sub,
    /// Pop `b`, pop `a`, push `a * b` (checked).
    Mul,
    /// Peek the divisor; raise `DivisionByZero` if it is `0`. Emitted
    /// between the divisor and the dividend so the zero check happens
    /// before the dividend is evaluated, exactly as the AST walker does.
    CheckDivisor,
    /// Pop `a`, pop `d`, push `a.div_euclid(d)` (checked).
    Div,
    /// Pop `a`, pop `d`, push `a.rem_euclid(d)` (checked).
    Rem,
    /// Pop `a`, push `-a` (checked).
    Neg,
    /// Pop `b`, pop `a`, push `min(a, b)`.
    Min,
    /// Pop `b`, pop `a`, push `max(a, b)`.
    Max,
    /// Pop `b`, pop `a`, push `a ⋈ b` as `0`/`1`.
    Cmp(CmpOp),
    /// Pop `x`, push `!x`.
    Not,
    /// Fused `Push(k); Add`: pop `a`, push `a + k` (checked).
    AddConst(i64),
    /// Fused `Push(k); Cmp(op)`: pop `a`, push `a ⋈ k`.
    CmpConst { op: CmpOp, k: i64 },
    /// Fused `LoadVar(slot); Cmp(op)`: pop `a`, push `a ⋈ vars[slot]`.
    CmpVar { op: CmpOp, slot: u32 },
    /// Fused `LoadVar(slot); AddConst(add)`: push `vars[slot] + add`
    /// (checked).
    LoadVarConst { slot: u32, add: i64 },
    /// Fused `LoadBound(frame); AddConst(add)`: push `frames[frame].i + add`
    /// (checked).
    LoadBoundConst { frame: u32, add: i64 },
    /// Unconditional jump.
    Jump(u32),
    /// Pop; jump if the popped value is `0`.
    JumpIfFalse(u32),
    /// Short-circuit `&&`: if the top is `0` jump (keeping the `0` as the
    /// result), else pop and continue with the next conjunct.
    AndCheck(u32),
    /// Short-circuit `||`: if the top is non-`0` jump (keeping it), else
    /// pop and continue with the next disjunct.
    OrCheck(u32),
    /// Pop `hi`, pop `lo`; range-check; on an empty range push `1` and
    /// jump to `exit`, otherwise open a loop frame.
    ForAllEnter(u32),
    /// Pop the body's value; `0` closes the frame with result `0`;
    /// otherwise advance the counter and loop to `head` or close the frame
    /// with result `1` when exhausted.
    ForAllStep { head: u32, exit: u32 },
    /// As [`Op::ForAllEnter`] with result `0` on an empty range.
    ExistsEnter(u32),
    /// Dual of [`Op::ForAllStep`].
    ExistsStep { head: u32, exit: u32 },
    /// Fused quantifier-head scan for bodies gated on `arr[i + k] == lit`
    /// (`i` the loop counter): advance the innermost frame counter to the
    /// next gated index in a tight loop over the state vector, closing the
    /// frame with `identity` when none remains. Skipped iterations
    /// replicate the gate's own checked-add and bounds errors, and a
    /// gate-failing body evaluates to the loop identity without touching
    /// the rest of the body in both engines, so the scan is
    /// observationally identical to dispatching the body per index.
    LoopScanEq {
        /// Array id, for the out-of-bounds error payload.
        array: u32,
        /// Offset of the array's first cell in the state vector.
        base: u32,
        /// Array length (bounds check, as the unfused load).
        len: u32,
        /// Literal added to the loop counter by the gate's index.
        k: i64,
        /// Literal the gated cell is compared against.
        lit: i64,
        /// Result when the scan exhausts the range (`true` = forall).
        identity: bool,
        /// Jump target on exhaustion (the quantifier's exit).
        exit: u32,
    },
    /// Dominance query in front of the quantifier loop it answers (see
    /// [`crate::dominance`]): with an index attached and the probed cell
    /// `b + x` inside the key array, push the quantifier's value and jump
    /// to `exit`; otherwise fall through to the loop, which yields (or
    /// raises) exactly what it does without the query.
    Dominance {
        /// Index into the network's rankings (the template's site index
        /// until the instance is appended).
        tree: u32,
        /// First ranked cell.
        b: i64,
        /// `x = vars[x_slot] + x_add`, or `x_add` alone when `x_slot` is
        /// [`NO_SLOT`].
        x_slot: u32,
        x_add: i64,
        query: Query,
        exit: u32,
    },
    /// Pop a value, check it against the inlined domain, store to
    /// `vars[slot]`.
    StoreVar {
        slot: u32,
        var: u32,
        min: i64,
        max: i64,
    },
    /// Pop an index, pop a value; bounds-check, domain-check, store to
    /// `vars[base + i]`.
    StoreElem {
        array: u32,
        base: u32,
        len: u32,
        min: i64,
        max: i64,
    },
    /// Reset a clock to zero.
    ClockReset(u32),
    /// Stop a clock.
    ClockStop(u32),
    /// Start a clock.
    ClockStart(u32),
}

/// The `x_slot` of an [`Op::Dominance`] whose probe is a literal.
const NO_SLOT: u32 = u32::MAX;

/// Least quantifier range the compiler answers from a dominance index.
///
/// Measured, the index stops losing to the loop somewhere between 8 and
/// 16 cells (DESIGN.md §4.17). The floor sits above the 26 tasks per
/// partition that design-loop, serve-mix and Table 1 reach, so their
/// programs stay exactly the loops they were.
pub const MIN_DOMINANCE_K: usize = 27;

/// One open quantifier loop: the current counter and the exclusive bound.
#[derive(Debug, Clone, Copy)]
struct Frame {
    i: i64,
    hi: i64,
}

/// Reusable evaluation scratch: the operand stack and the loop frames.
#[derive(Debug, Default)]
struct Vm {
    stack: Vec<i64>,
    frames: Vec<Frame>,
}

impl Vm {
    const fn new() -> Self {
        Self {
            stack: Vec::new(),
            frames: Vec::new(),
        }
    }
}

thread_local! {
    /// Per-thread scratch so evaluation never allocates after warm-up.
    /// Const-initialized: access compiles to the `#[thread_local]` fast
    /// path with no lazy-registration check.
    static SCRATCH: RefCell<Vm> = const { RefCell::new(Vm::new()) };
}

/// Where loads read from and stores write to.
///
/// Pure programs (guards, invariants, expressions) run against a read-only
/// variable slice; update programs run against the full mutable state. The
/// interpreter is generic over this so both monomorphize without branches.
trait Env {
    fn vars(&self) -> &[i64];
    /// The dominance index [`Op::Dominance`] queries, if one is attached.
    fn ranks(&self) -> Option<&DominanceIndex> {
        None
    }
    fn set_var(&mut self, slot: usize, value: i64);
    fn clock_reset(&mut self, clock: usize);
    fn clock_stop(&mut self, clock: usize);
    fn clock_start(&mut self, clock: usize);
}

/// Read-only environment for pure programs.
struct ReadEnv<'a> {
    vars: &'a [i64],
    ranks: Option<&'a DominanceIndex>,
}

impl Env for ReadEnv<'_> {
    #[inline]
    fn vars(&self) -> &[i64] {
        self.vars
    }

    #[inline]
    fn ranks(&self) -> Option<&DominanceIndex> {
        self.ranks
    }

    fn set_var(&mut self, _slot: usize, _value: i64) {
        unreachable!("pure programs contain no store instructions")
    }

    fn clock_reset(&mut self, _clock: usize) {
        unreachable!("pure programs contain no clock instructions")
    }

    fn clock_stop(&mut self, _clock: usize) {
        unreachable!("pure programs contain no clock instructions")
    }

    fn clock_start(&mut self, _clock: usize) {
        unreachable!("pure programs contain no clock instructions")
    }
}

/// Mutable environment for update programs.
struct WriteEnv<'a> {
    state: &'a mut State,
}

impl Env for WriteEnv<'_> {
    #[inline]
    fn vars(&self) -> &[i64] {
        &self.state.vars
    }

    #[inline]
    fn set_var(&mut self, slot: usize, value: i64) {
        self.state.vars[slot] = value;
    }

    #[inline]
    fn clock_reset(&mut self, clock: usize) {
        self.state.reset_clock_at(clock);
    }

    #[inline]
    fn clock_stop(&mut self, clock: usize) {
        self.state.stop_clock_at(clock);
    }

    #[inline]
    fn clock_start(&mut self, clock: usize) {
        self.state.start_clock_at(clock);
    }
}

/// Evaluates a pure program against a variable slice, answering its
/// dominance queries from `ranks` when given.
fn eval_vars(code: &[Op], vars: &[i64], ranks: Option<&DominanceIndex>) -> Result<i64, EvalError> {
    SCRATCH.with(|scratch| {
        let vm = &mut *scratch.borrow_mut();
        let mut env = ReadEnv { vars, ranks };
        match run(code, &mut env, vm) {
            Ok(()) => Ok(vm.stack.pop().expect("pure program leaves its result")),
            Err(SimError::Eval(e)) => Err(e),
            Err(other) => unreachable!("pure program raised {other}"),
        }
    })
}

/// A compiled update program (a view into a [`CompiledNetwork`]).
#[derive(Debug, Clone, Copy)]
pub struct Program<'a> {
    code: &'a [Op],
}

impl Program<'_> {
    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the program has no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Runs the update program, mutating the state.
    ///
    /// # Errors
    ///
    /// Returns the same [`SimError`] as [`State::apply_updates`].
    pub fn exec(&self, state: &mut State) -> Result<(), SimError> {
        if self.code.is_empty() {
            return Ok(());
        }
        SCRATCH.with(|scratch| {
            let vm = &mut *scratch.borrow_mut();
            let mut env = WriteEnv { state };
            run(self.code, &mut env, vm)
        })
    }
}

/// A literal of an AST pattern the compiler matches: its value, and the
/// template parameter it was bound from, if any.
type Konst = (i64, Option<u32>);

/// `e` as a literal, or as a parameter `binding` binds.
fn konst(e: &IntExpr, binding: &Binding<'_>) -> Option<Konst> {
    match e {
        IntExpr::Lit(v) => Some((*v, None)),
        IntExpr::Param(p) => binding.param(*p).map(|v| (v, Some(p.raw()))),
        _ => None,
    }
}

/// Splits a quantifier body whose first evaluated term gates every
/// iteration on `arr[i + k] == lit`, with `i` the loop's own counter:
/// `Or[Not(gate), rest…]` for forall (an implication), `And[gate, rest…]`
/// for exists. Scheduler-style models spend most iterations failing the
/// gate, so the loop head can advance the counter in a tight scan instead
/// of dispatching the body. Both engines evaluate the gate first and
/// short-circuit on failure, its comparison cannot error beyond the
/// replicated checked-add/bounds checks, and `rest` keeps its original
/// order — so the fused loop is observationally identical.
fn scan_gate<'p>(
    body: &'p Pred,
    forall: bool,
    binding: &Binding<'_>,
) -> Option<(ArrayId, Konst, Konst, &'p [Pred])> {
    if forall {
        let Pred::Or(ps) = body else { return None };
        let Pred::Not(gate) = ps.first()? else {
            return None;
        };
        let (a, k, lit) = elem_eq_gate(gate, binding)?;
        Some((a, k, lit, &ps[1..]))
    } else {
        let Pred::And(ps) = body else { return None };
        let (a, k, lit) = elem_eq_gate(ps.first()?, binding)?;
        Some((a, k, lit, &ps[1..]))
    }
}

/// Matches `arr[Bound(0) + k] == lit` (either operand order, `k`
/// optional), the gate shape [`scan_gate`] accepts. A bound parameter
/// matches wherever a literal does: it is one once the instance is
/// expanded.
fn elem_eq_gate(p: &Pred, binding: &Binding<'_>) -> Option<(ArrayId, Konst, Konst)> {
    let Pred::Cmp(CmpOp::Eq, l, r) = p else {
        return None;
    };
    let (elem, lit) = match (l.as_ref(), r.as_ref()) {
        (e @ IntExpr::Elem(..), c) | (c, e @ IntExpr::Elem(..)) => (e, konst(c, binding)?),
        _ => return None,
    };
    let IntExpr::Elem(a, idx) = elem else {
        return None;
    };
    Some((*a, counter_index(idx, binding)?, lit))
}

/// The offset `k` of a counter-relative index `Bound(0) + k` (either
/// order), or `0` for a bare `Bound(0)`.
fn counter_index(idx: &IntExpr, binding: &Binding<'_>) -> Option<Konst> {
    match idx {
        IntExpr::Bound(0) => Some((0, None)),
        IntExpr::Add(x, y) => match (x.as_ref(), y.as_ref()) {
            (IntExpr::Bound(0), c) | (c, IntExpr::Bound(0)) => konst(c, binding),
            _ => None,
        },
        _ => None,
    }
}

/// A quantifier the dominance index answers (see [`crate::dominance`]):
/// over `[0, k)`, gated on `gate[b + m] == lit`, ranking the counter cell
/// against the probed cell `b + x` of `key` (absent for "no cell is
/// gated").
#[derive(Debug, Clone, Copy)]
struct DominancePattern {
    gate: ArrayId,
    lit: Konst,
    b: Konst,
    k: u32,
    key: Option<(ArrayId, Best)>,
    /// The probe `x`: a variable (if any) plus a literal.
    x: (Option<VarId>, i64),
    query: Query,
}

/// Recognises the scheduler's dominance quantifiers over
/// `K ≥ MIN_DOMINANCE_K` cells, with `m` the counter and `b` a literal or
/// a bound parameter:
///
/// * `∃m∈[0,K): R[b+m]==lit ∧ (A[b+m] ≻ A[b+x] ∨ (A[b+m]==A[b+x] ∧ m<x))`
///   ([`Query::Beaten`], `≻` one of `>`/`<`);
/// * `∀m∈[0,K): R[b+m]!=lit ∨ A[b+m] ≺ A[b+x] ∨ (A[b+m]==A[b+x] ∧ m>=x)`
///   ([`Query::Unbeaten`], its negation);
/// * `∀m∈[0,K): R[b+m]!=lit` ([`Query::NoneGated`]).
///
/// `x` is a literal or `v`, `v + c`, `v - c` for a variable `v`, written
/// identically in the probe index and the tie-break; with `b` the literal
/// `0` the probe index may be `x` itself.
fn dominance_pattern(
    lo: &IntExpr,
    hi: &IntExpr,
    body: &Pred,
    forall: bool,
    binding: &Binding<'_>,
) -> Option<DominancePattern> {
    let (IntExpr::Lit(0), IntExpr::Lit(k)) = (lo, hi) else {
        return None;
    };
    if !(i64::try_from(MIN_DOMINANCE_K).ok()?..=MAX_QUANTIFIER_RANGE).contains(k) {
        return None;
    }
    let k = u32::try_from(*k).ok()?;
    if let (true, Pred::Not(gate)) = (forall, body) {
        let (gate, b, lit) = elem_eq_gate(gate, binding)?;
        return Some(DominancePattern {
            gate,
            lit,
            b,
            k,
            key: None,
            x: (None, 0),
            query: Query::NoneGated,
        });
    }
    let (gate, b, lit, rest) = scan_gate(body, forall, binding)?;
    let disjuncts = match rest {
        [Pred::Or(ds)] => ds.as_slice(),
        ds if forall => ds,
        _ => return None,
    };
    let (key, best, x) = beats(disjuncts, forall, b, binding)?;
    Some(DominancePattern {
        gate,
        lit,
        b,
        k,
        key: Some((key, best)),
        x: probe(x)?,
        query: if forall {
            Query::Unbeaten
        } else {
            Query::Beaten
        },
    })
}

/// Matches "counter cell `m` beats the probed cell `b + x`" as the
/// disjuncts `A[b+m] ≻ A[b+x]`, `A[b+m]==A[b+x] ∧ m<x` — or, `negated`,
/// its complement `A[b+m] ≺ A[b+x]`, `A[b+m]==A[b+x] ∧ m>=x`. Returns the
/// key array, its winning end and `x`.
fn beats<'p>(
    disjuncts: &'p [Pred],
    negated: bool,
    b: Konst,
    binding: &Binding<'_>,
) -> Option<(ArrayId, Best, &'p IntExpr)> {
    let [Pred::Cmp(order, cell, probed), Pred::And(tie)] = disjuncts else {
        return None;
    };
    let [Pred::Cmp(CmpOp::Eq, cell_eq, probed_eq), Pred::Cmp(tie_op, m, x)] = tie.as_slice() else {
        return None;
    };
    let best = match (order, negated) {
        (CmpOp::Gt, false) | (CmpOp::Lt, true) => Best::Max,
        (CmpOp::Lt, false) | (CmpOp::Gt, true) => Best::Min,
        _ => return None,
    };
    let tie_holds = if negated { CmpOp::Ge } else { CmpOp::Lt };
    let (IntExpr::Elem(key, at_m), IntExpr::Elem(key_x, at_x)) = (cell.as_ref(), probed.as_ref())
    else {
        return None;
    };
    let probe_matches = match at_x.as_ref() {
        IntExpr::Add(c, x2) if konst(c, binding) == Some(b) => x2 == x,
        at_x => b == (0, None) && at_x == x.as_ref(),
    };
    (*tie_op == tie_holds
        && **m == IntExpr::Bound(0)
        && cell_eq == cell
        && probed_eq == probed
        && key == key_x
        && counter_index(at_m, binding) == Some(b)
        && probe_matches)
        .then_some((*key, best, x.as_ref()))
}

/// A dominance probe `x` as `(variable, literal)`: `c`, `v`, `v + c` or
/// `v - c`.
fn probe(x: &IntExpr) -> Option<(Option<VarId>, i64)> {
    match x {
        IntExpr::Lit(c) => Some((None, *c)),
        IntExpr::Var(v) => Some((Some(*v), 0)),
        IntExpr::Add(v, c) | IntExpr::Sub(v, c) => {
            let (IntExpr::Var(v), IntExpr::Lit(c)) = (v.as_ref(), c.as_ref()) else {
                return None;
            };
            let c = if matches!(x, IntExpr::Sub(..)) {
                c.checked_neg()?
            } else {
                *c
            };
            Some((Some(*v), c))
        }
        _ => None,
    }
}

/// The jump targets of a program (positions that a fusion must not
/// swallow: fusing across one would change where the jump lands), into `t`.
fn jump_targets(code: &[Op], t: &mut Vec<bool>) {
    t.clear();
    t.resize(code.len() + 1, false);
    for op in code {
        for x in targets(op).into_iter().flatten() {
            t[x as usize] = true;
        }
    }
}

/// Where an op may jump.
fn targets(op: &Op) -> [Option<u32>; 2] {
    let mut op = *op;
    targets_mut(&mut op).map(|x| x.copied())
}

/// An op's jump-target fields, the loops' `exit` last: the one list of
/// jump-carrying ops.
fn targets_mut(op: &mut Op) -> [Option<&mut u32>; 2] {
    match op {
        Op::Jump(x)
        | Op::JumpIfFalse(x)
        | Op::AndCheck(x)
        | Op::OrCheck(x)
        | Op::ForAllEnter(x)
        | Op::ExistsEnter(x)
        | Op::LoopScanEq { exit: x, .. }
        | Op::Dominance { exit: x, .. } => [Some(x), None],
        Op::ForAllStep { head, exit } | Op::ExistsStep { head, exit } => [Some(head), Some(exit)],
        _ => [None, None],
    }
}

/// The fusion passes' reusable buffers.
#[derive(Debug, Default)]
struct Fusion {
    targets: Vec<bool>,
    map: Vec<u32>,
    next: Vec<Op>,
}

/// One superinstruction-fusion pass: collapses adjacent pairs into fused
/// opcodes (never across a jump target) and remaps every jump. Returns
/// `None` when nothing fused.
///
/// Relocations follow their ops onto the fused ones: every fused pair
/// joins at most one constant with at most one slot, so each relocated
/// field keeps its kind. Negating a parameter-derived literal is not a
/// relocation, so that one fusion pins the parameter instead.
fn fuse_once(
    code: &[Op],
    relocs: &mut Vec<Reloc>,
    checks: &mut Vec<Check>,
    bufs: &mut Fusion,
) -> bool {
    jump_targets(code, &mut bufs.targets);
    let (targets, map, new) = (&bufs.targets, &mut bufs.map, &mut bufs.next);
    new.clear();
    map.clear();
    map.resize(code.len() + 1, 0);
    let mut i = 0;
    let mut fused = false;
    while i < code.len() {
        map[i] = u32::try_from(new.len()).expect("program fits u32 addresses");
        let pair = (!targets[i + 1])
            .then(|| code.get(i + 1).copied())
            .flatten();
        let replacement = match (code[i], pair) {
            (Op::Push(k), Some(Op::Add)) => Some(Op::AddConst(k)),
            (Op::Push(k), Some(Op::Sub)) if k != i64::MIN => {
                pin(relocs, checks, i, k);
                Some(Op::AddConst(-k))
            }
            (Op::Push(k), Some(Op::Cmp(op))) => Some(Op::CmpConst { op, k }),
            (Op::LoadVar(slot), Some(Op::Cmp(op))) => Some(Op::CmpVar { op, slot }),
            (Op::LoadVar(slot), Some(Op::AddConst(add))) => Some(Op::LoadVarConst { slot, add }),
            (Op::LoadBound(frame), Some(Op::AddConst(add))) => {
                Some(Op::LoadBoundConst { frame, add })
            }
            _ => None,
        };
        if let Some(op) = replacement {
            map[i + 1] = map[i];
            new.push(op);
            fused = true;
            i += 2;
        } else {
            new.push(code[i]);
            i += 1;
        }
    }
    if !fused {
        return false;
    }
    map[code.len()] = u32::try_from(new.len()).expect("program fits u32 addresses");
    for r in relocs.iter_mut() {
        r.at = Field::Op(map[r.op()] as usize);
    }
    for op in new.iter_mut() {
        for x in targets_mut(op).into_iter().flatten() {
            *x = map[*x as usize];
        }
    }
    true
}

/// Runs fusion passes to a fixpoint (fused opcodes enable further pairs,
/// e.g. `Push`+`Add` becoming the `AddConst` a preceding `LoadVar` then
/// fuses with).
fn fuse(code: &mut Vec<Op>, relocs: &mut Vec<Reloc>, checks: &mut Vec<Check>, bufs: &mut Fusion) {
    if code.len() < 2 {
        return;
    }
    while fuse_once(code, relocs, checks, bufs) {
        std::mem::swap(code, &mut bufs.next);
    }
}

/// Drops the parameter relocation of the literal at `at`, if any, and
/// checks instead that the parameter yields exactly `value`: code derived
/// from it no longer depends on it linearly.
fn pin(relocs: &mut Vec<Reloc>, checks: &mut Vec<Check>, at: usize, value: i64) {
    let found = relocs
        .iter()
        .position(|r| r.op() == at && matches!(r.src, Src::Param { .. }));
    if let Some(i) = found {
        if let Src::Param { p, add } = relocs.remove(i).src {
            checks.push(Check {
                p,
                add,
                test: Test::Eq(value),
                expect: true,
            });
        }
    }
}

/// The interpreter loop, monomorphized per environment.
#[allow(clippy::too_many_lines)]
fn run<E: Env>(code: &[Op], env: &mut E, vm: &mut Vm) -> Result<(), SimError> {
    vm.stack.clear();
    vm.frames.clear();
    let stack = &mut vm.stack;
    let frames = &mut vm.frames;
    let mut pc = 0usize;

    macro_rules! pop {
        () => {
            stack.pop().expect("balanced program")
        };
    }
    macro_rules! binop {
        ($f:ident) => {{
            let b = pop!();
            let a = pop!();
            stack.push(a.$f(b).ok_or(EvalError::Overflow)?);
        }};
    }

    while let Some(op) = code.get(pc) {
        match *op {
            Op::Push(v) => stack.push(v),
            Op::LoadVar(slot) => stack.push(env.vars()[slot as usize]),
            Op::LoadElem { array, base, len } => {
                let index = pop!();
                let Some(i) = usize::try_from(index).ok().filter(|i| *i < len as usize) else {
                    return Err(EvalError::IndexOutOfBounds {
                        array,
                        index,
                        len: len as usize,
                    }
                    .into());
                };
                stack.push(env.vars()[base as usize + i]);
            }
            Op::LoadBound(slot) => stack.push(frames[slot as usize].i),
            Op::FailParam(p) => return Err(EvalError::UnboundParam(p).into()),
            Op::FailBound(d) => return Err(EvalError::UnboundIndex(d as usize).into()),
            Op::Add => binop!(checked_add),
            Op::Sub => binop!(checked_sub),
            Op::Mul => binop!(checked_mul),
            Op::CheckDivisor => {
                if *stack.last().expect("balanced program") == 0 {
                    return Err(EvalError::DivisionByZero.into());
                }
            }
            Op::Div => {
                let a = pop!();
                let d = pop!();
                stack.push(a.checked_div_euclid(d).ok_or(EvalError::Overflow)?);
            }
            Op::Rem => {
                let a = pop!();
                let d = pop!();
                stack.push(a.checked_rem_euclid(d).ok_or(EvalError::Overflow)?);
            }
            Op::Neg => {
                let a = pop!();
                stack.push(a.checked_neg().ok_or(EvalError::Overflow)?);
            }
            Op::Min => {
                let b = pop!();
                let a = pop!();
                stack.push(a.min(b));
            }
            Op::Max => {
                let b = pop!();
                let a = pop!();
                stack.push(a.max(b));
            }
            Op::Cmp(cmp) => {
                let b = pop!();
                let a = pop!();
                stack.push(i64::from(cmp.apply(a, b)));
            }
            Op::Not => {
                let x = pop!();
                stack.push(i64::from(x == 0));
            }
            Op::AddConst(k) => {
                let a = pop!();
                stack.push(a.checked_add(k).ok_or(EvalError::Overflow)?);
            }
            Op::CmpConst { op, k } => {
                let a = pop!();
                stack.push(i64::from(op.apply(a, k)));
            }
            Op::CmpVar { op, slot } => {
                let a = pop!();
                stack.push(i64::from(op.apply(a, env.vars()[slot as usize])));
            }
            Op::LoadVarConst { slot, add } => {
                let v = env.vars()[slot as usize]
                    .checked_add(add)
                    .ok_or(EvalError::Overflow)?;
                stack.push(v);
            }
            Op::LoadBoundConst { frame, add } => {
                let v = frames[frame as usize]
                    .i
                    .checked_add(add)
                    .ok_or(EvalError::Overflow)?;
                stack.push(v);
            }
            Op::Jump(t) => {
                pc = t as usize;
                continue;
            }
            Op::JumpIfFalse(t) => {
                if pop!() == 0 {
                    pc = t as usize;
                    continue;
                }
            }
            Op::AndCheck(t) => {
                if *stack.last().expect("balanced program") == 0 {
                    pc = t as usize;
                    continue;
                }
                stack.pop();
            }
            Op::OrCheck(t) => {
                if *stack.last().expect("balanced program") != 0 {
                    pc = t as usize;
                    continue;
                }
                stack.pop();
            }
            Op::ForAllEnter(exit) => {
                let hi = pop!();
                let lo = pop!();
                if hi.saturating_sub(lo) > MAX_QUANTIFIER_RANGE {
                    return Err(EvalError::RangeTooLarge { lo, hi }.into());
                }
                if lo >= hi {
                    stack.push(1);
                    pc = exit as usize;
                    continue;
                }
                frames.push(Frame { i: lo, hi });
            }
            Op::ForAllStep { head, exit } => {
                let holds = pop!();
                let frame = frames.last_mut().expect("open loop frame");
                if holds == 0 {
                    frames.pop();
                    stack.push(0);
                } else {
                    frame.i += 1;
                    if frame.i < frame.hi {
                        pc = head as usize;
                        continue;
                    }
                    frames.pop();
                    stack.push(1);
                }
                pc = exit as usize;
                continue;
            }
            Op::ExistsEnter(exit) => {
                let hi = pop!();
                let lo = pop!();
                if hi.saturating_sub(lo) > MAX_QUANTIFIER_RANGE {
                    return Err(EvalError::RangeTooLarge { lo, hi }.into());
                }
                if lo >= hi {
                    stack.push(0);
                    pc = exit as usize;
                    continue;
                }
                frames.push(Frame { i: lo, hi });
            }
            Op::ExistsStep { head, exit } => {
                let holds = pop!();
                let frame = frames.last_mut().expect("open loop frame");
                if holds != 0 {
                    frames.pop();
                    stack.push(1);
                } else {
                    frame.i += 1;
                    if frame.i < frame.hi {
                        pc = head as usize;
                        continue;
                    }
                    frames.pop();
                    stack.push(0);
                }
                pc = exit as usize;
                continue;
            }
            Op::LoopScanEq {
                array,
                base,
                len,
                k,
                lit,
                identity,
                exit,
            } => {
                let frame = frames.last_mut().expect("open loop frame");
                loop {
                    if frame.i >= frame.hi {
                        frames.pop();
                        stack.push(i64::from(identity));
                        pc = exit as usize;
                        break;
                    }
                    let index = frame.i.checked_add(k).ok_or(EvalError::Overflow)?;
                    let Some(j) = usize::try_from(index).ok().filter(|j| *j < len as usize) else {
                        return Err(EvalError::IndexOutOfBounds {
                            array,
                            index,
                            len: len as usize,
                        }
                        .into());
                    };
                    if env.vars()[base as usize + j] == lit {
                        pc += 1;
                        break;
                    }
                    frame.i += 1;
                }
                continue;
            }
            Op::Dominance {
                tree,
                b,
                x_slot,
                x_add,
                query,
                exit,
            } => {
                let x_slot = (x_slot != NO_SLOT).then_some(x_slot);
                if let Some(holds) = env
                    .ranks()
                    .and_then(|r| r.answer(tree, query, (b, x_slot, x_add), env.vars()))
                {
                    stack.push(i64::from(holds));
                    pc = exit as usize;
                    continue;
                }
            }
            Op::StoreVar {
                slot,
                var,
                min,
                max,
            } => {
                let value = pop!();
                if value < min || value > max {
                    return Err(SimError::DomainViolation {
                        var: VarId::from_raw(var),
                        value,
                        domain: (min, max),
                    });
                }
                env.set_var(slot as usize, value);
            }
            Op::StoreElem {
                array,
                base,
                len,
                min,
                max,
            } => {
                let index = pop!();
                let value = pop!();
                let Some(i) = usize::try_from(index).ok().filter(|i| *i < len as usize) else {
                    return Err(SimError::Eval(EvalError::IndexOutOfBounds {
                        array,
                        index,
                        len: len as usize,
                    }));
                };
                if value < min || value > max {
                    return Err(SimError::ArrayDomainViolation {
                        array,
                        index: i,
                        value,
                        domain: (min, max),
                    });
                }
                env.set_var(base as usize + i, value);
            }
            Op::ClockReset(c) => env.clock_reset(c as usize),
            Op::ClockStop(c) => env.clock_stop(c as usize),
            Op::ClockStart(c) => env.clock_start(c as usize),
        }
        pc += 1;
    }
    Ok(())
}

/// Where a relocated op field takes an instance's value from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    /// `params[p] + add`, into the op's constant.
    Param { p: u32, add: i64 },
    /// `base + params[p] + add`: a constant array index folded into the
    /// op's slot.
    Index { p: u32, add: i64, base: u32 },
    /// The network variable of local variable `v`, into the op's slot (a
    /// store also takes the variable's domain).
    Var(VarId),
    /// The network clock of local clock `c`.
    Clock(ClockId),
}

/// Where in a [`TemplateCode`] a relocated field lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    /// An op (its constant or its slot, by the source's kind).
    Op(usize),
    /// The left or right operand of a folded comparison term.
    Lhs(usize),
    Rhs(usize),
    /// The folded right-hand side of a guard clock atom or of an
    /// invariant bound.
    Atom(usize),
    Bound(usize),
}

/// One field that differs between instances of a template.
#[derive(Debug, Clone, Copy)]
struct Reloc {
    at: Field,
    src: Src,
}

impl Reloc {
    /// The op a relocation of a program being lowered targets.
    fn op(&self) -> usize {
        match self.at {
            Field::Op(i) => i,
            other => unreachable!("{other:?} is not a program field"),
        }
    }
}

impl Src {
    /// A [`Src::Param`]'s value for the instance. The template's
    /// [`Check`]s guarantee it fits.
    fn value(self, frame: &Binding<'_>) -> i64 {
        match self {
            Self::Param { p, add } => frame.params[p as usize].wrapping_add(add),
            other => unreachable!("{other:?} is not a constant"),
        }
    }

    /// A slot (or clock) source's value for the instance.
    fn slot(self, frame: &Binding<'_>) -> u32 {
        match self {
            Self::Index { p, add, base } => {
                let i = frame.params[p as usize].wrapping_add(add);
                base + u32::try_from(i).expect("checked index")
            }
            Self::Var(v) => frame.var(v).raw(),
            Self::Clock(c) => frame.clock(c).raw(),
            Self::Param { .. } => unreachable!("a parameter is not a slot"),
        }
    }

    fn write_op(self, op: &mut Op, frame: &Binding<'_>, network: &Network) {
        match (self, op) {
            (Self::Param { .. }, op) => *op.constant_mut() = self.value(frame),
            (
                Self::Var(v),
                Op::StoreVar {
                    slot,
                    var,
                    min,
                    max,
                },
            ) => {
                let id = frame.var(v);
                let decl = &network.vars()[id.index()];
                (*slot, *var, *min, *max) = (id.raw(), id.raw(), decl.min, decl.max);
            }
            (_, op) => *op.slot_mut() = self.slot(frame),
        }
    }

    fn write_rhs(self, rhs: &mut Rhs, frame: &Binding<'_>) {
        match rhs {
            Rhs::Const(v) => *v = self.value(frame),
            Rhs::Var(s) => *s = self.slot(frame),
            Rhs::Prog(_) => unreachable!("a program's relocations target its ops"),
        }
    }
}

/// A lowering decision that depended on a parameter's value: a template's
/// code fits an instance only if, for every check, `test` of
/// `params[p] + add` comes out as `expect`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Check {
    p: u32,
    add: i64,
    test: Test,
    expect: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Test {
    /// The value fits an `i64` (a literal fold did not overflow).
    Fits,
    /// The value equals the literal (an identity operand was dropped, or
    /// the literal was pinned).
    Eq(i64),
    /// The value is an in-bounds index of an array of this length.
    Below(u32),
}

impl Check {
    fn holds(&self, params: &[i64]) -> bool {
        let v = i128::from(params[self.p as usize]) + i128::from(self.add);
        let outcome = match self.test {
            Test::Fits => i64::try_from(v).is_ok(),
            Test::Eq(x) => v == i128::from(x),
            Test::Below(len) => (0..i128::from(len)).contains(&v),
        };
        outcome == self.expect
    }
}

impl Op {
    /// The constant field a [`Src::Param`] relocation writes.
    fn constant_mut(&mut self) -> &mut i64 {
        match self {
            Self::Push(k)
            | Self::AddConst(k)
            | Self::CmpConst { k, .. }
            | Self::LoadVarConst { add: k, .. }
            | Self::LoadBoundConst { add: k, .. }
            | Self::LoopScanEq { k, .. }
            | Self::Dominance { b: k, .. } => k,
            other => unreachable!("no constant to relocate in {other:?}"),
        }
    }

    /// The slot (or clock) field a slot relocation writes.
    fn slot_mut(&mut self) -> &mut u32 {
        match self {
            Self::LoadVar(s)
            | Self::CmpVar { slot: s, .. }
            | Self::LoadVarConst { slot: s, .. }
            | Self::Dominance { x_slot: s, .. }
            | Self::ClockReset(s)
            | Self::ClockStop(s)
            | Self::ClockStart(s) => s,
            other => unreachable!("no slot to relocate in {other:?}"),
        }
    }
}

/// The lowering pass. `depth` tracks the static quantifier nesting so de
/// Bruijn indices resolve to absolute frame slots.
///
/// It lowers a template against one instance's frame and records, next to
/// the code, how the code varies with the frame: a [`Reloc`] for every op
/// field taken from a parameter, a local variable or a local clock, and a
/// [`Check`] for every decision a parameter's value steered (a literal
/// fold, a dropped identity operand, a constant index collapsed into a
/// slot).
struct Compiler<'n> {
    network: &'n Network,
    frame: Binding<'n>,
    code: Vec<Op>,
    /// Relocations of `code` (all [`Field::Op`]), ascending.
    relocs: Vec<Reloc>,
    checks: Vec<Check>,
    /// The dominance queries emitted so far, by their ops' `tree` field.
    sites: Vec<Site>,
    fusion: Fusion,
    depth: u32,
}

impl<'n> Compiler<'n> {
    fn new(network: &'n Network, frame: Binding<'n>) -> Self {
        Self {
            network,
            frame,
            code: Vec::new(),
            relocs: Vec::new(),
            checks: Vec::new(),
            sites: Vec::new(),
            fusion: Fusion::default(),
            depth: 0,
        }
    }

    /// Lowers one program with `f` and fuses it; the result lives in the
    /// compiler's buffers until the next program.
    fn program(&mut self, f: impl FnOnce(&mut Self)) -> (&[Op], &[Reloc]) {
        self.code.clear();
        self.relocs.clear();
        f(self);
        fuse(
            &mut self.code,
            &mut self.relocs,
            &mut self.checks,
            &mut self.fusion,
        );
        (&self.code, &self.relocs)
    }

    fn here(&self) -> u32 {
        u32::try_from(self.code.len()).expect("program fits u32 addresses")
    }

    fn emit(&mut self, op: Op) -> usize {
        self.code.push(op);
        self.code.len() - 1
    }

    /// Relocates a field of the last emitted op.
    fn reloc(&mut self, src: Src) {
        self.relocs.push(Reloc {
            at: Field::Op(self.code.len() - 1),
            src,
        });
    }

    /// The parameter (and addend) the literal at `at` was derived from.
    fn param_at(&self, at: usize) -> Option<(u32, i64)> {
        self.relocs
            .iter()
            .rev()
            .take_while(|r| r.op() >= at)
            .find_map(|r| match r.src {
                Src::Param { p, add } if r.op() == at => Some((p, add)),
                _ => None,
            })
    }

    fn check(&mut self, at: usize, test: Test, expect: bool) {
        if let Some((p, add)) = self.param_at(at) {
            self.checks.push(Check {
                p,
                add,
                test,
                expect,
            });
        }
    }

    fn truncate(&mut self, len: usize) {
        self.code.truncate(len);
        while self.relocs.last().is_some_and(|r| r.op() >= len) {
            self.relocs.pop();
        }
    }

    /// Rewrites the jump target of the instruction at `at` to `target`.
    fn patch(&mut self, at: usize, target: u32) {
        let [first, exit] = targets_mut(&mut self.code[at]);
        *exit.or(first).expect("patching a jump") = target;
    }

    /// Slot offset and length of an array.
    fn array(&self, a: ArrayId) -> (u32, u32) {
        (
            u32::try_from(self.network.array_offset(a)).expect("state vector fits u32 slots"),
            u32::try_from(self.network.array_len(a)).expect("array length fits u32"),
        )
    }

    fn expr(&mut self, e: &IntExpr) {
        match e {
            IntExpr::Lit(v) => {
                self.emit(Op::Push(*v));
            }
            IntExpr::Var(v) => {
                self.emit(Op::LoadVar(self.frame.var(*v).raw()));
                self.reloc(Src::Var(*v));
            }
            IntExpr::Elem(a, idx) => {
                self.expr(idx);
                let (base, len) = self.array(*a);
                // Peephole: a constant in-bounds index folds to a direct
                // slot load; out-of-range constants keep the checked form
                // so the runtime error is preserved.
                if let Some(&Op::Push(i)) = self.code.last() {
                    let at = self.code.len() - 1;
                    let in_bounds = u32::try_from(i).ok().filter(|i| *i < len);
                    self.check(at, Test::Below(len), in_bounds.is_some());
                    if let Some(i) = in_bounds {
                        let param = self.param_at(at);
                        self.truncate(at);
                        self.emit(Op::LoadVar(base + i));
                        if let Some((p, add)) = param {
                            self.reloc(Src::Index { p, add, base });
                        }
                        return;
                    }
                }
                self.emit(Op::LoadElem {
                    array: a.raw(),
                    base,
                    len,
                });
            }
            IntExpr::Param(p) => match self.frame.param(*p) {
                Some(v) => {
                    self.emit(Op::Push(v));
                    self.reloc(Src::Param { p: p.raw(), add: 0 });
                }
                None => {
                    // Never returns when executed, so no balancing push
                    // needed.
                    self.emit(Op::FailParam(p.raw()));
                }
            },
            IntExpr::Bound(d) => {
                if let Ok(d32) = u32::try_from(*d) {
                    if d32 < self.depth {
                        self.emit(Op::LoadBound(self.depth - 1 - d32));
                        return;
                    }
                }
                self.emit(Op::FailBound(u32::try_from(*d).unwrap_or(u32::MAX)));
            }
            IntExpr::Add(a, b) => {
                self.binop_folded(a, b, Op::Add, 0, i64::checked_add);
            }
            IntExpr::Sub(a, b) => {
                self.binop_folded(a, b, Op::Sub, 0, i64::checked_sub);
            }
            IntExpr::Mul(a, b) => {
                self.binop_folded(a, b, Op::Mul, 1, i64::checked_mul);
            }
            IntExpr::Div(a, b) => {
                // Divisor first, zero-checked before the dividend runs —
                // the AST walker's error order.
                self.expr(b);
                self.emit(Op::CheckDivisor);
                self.expr(a);
                self.emit(Op::Div);
            }
            IntExpr::Rem(a, b) => {
                self.expr(b);
                self.emit(Op::CheckDivisor);
                self.expr(a);
                self.emit(Op::Rem);
            }
            IntExpr::Neg(a) => {
                self.expr(a);
                self.emit(Op::Neg);
            }
            IntExpr::Min(a, b) => {
                self.expr(a);
                self.expr(b);
                self.emit(Op::Min);
            }
            IntExpr::Max(a, b) => {
                self.expr(a);
                self.expr(b);
                self.emit(Op::Max);
            }
            IntExpr::Ite(p, t, e) => {
                self.pred(p);
                let jf = self.emit(Op::JumpIfFalse(0));
                self.expr(t);
                let j = self.emit(Op::Jump(0));
                let else_at = self.here();
                self.patch(jf, else_at);
                self.expr(e);
                let end = self.here();
                self.patch(j, end);
            }
        }
    }

    /// Emits `a`, `b` and the operator, folding two literal operands into
    /// one `Push` (unless the fold itself would overflow — the runtime
    /// error is kept) and dropping the operation entirely when `b` is the
    /// right identity (`x + 0`, `x - 0`, `x * 1`).
    fn binop_folded(
        &mut self,
        a: &IntExpr,
        b: &IntExpr,
        op: Op,
        identity: i64,
        fold: fn(i64, i64) -> Option<i64>,
    ) {
        let a_start = self.code.len();
        self.expr(a);
        let b_start = self.code.len();
        self.expr(b);
        if self.code.len() == b_start + 1 {
            if let Some(Op::Push(y)) = self.code.last().copied() {
                // Both operands literal (a single op each) — fold.
                if b_start == a_start + 1 {
                    if let Op::Push(x) = self.code[a_start] {
                        if self.fold_literals(a_start, (x, y), op, fold) {
                            return;
                        }
                    }
                }
                self.check(b_start, Test::Eq(identity), y == identity);
                if y == identity {
                    self.truncate(b_start);
                    return;
                }
            }
        }
        self.emit(op);
    }

    /// Folds the literals `x` at `at` and `y` after it into one `Push`
    /// unless that overflows; returns whether it folded. A parameter-derived
    /// operand stays relocatable through `p + c`, `c + p` and `p - c`;
    /// any other combination pins its parameters.
    fn fold_literals(
        &mut self,
        at: usize,
        (x, y): (i64, i64),
        op: Op,
        fold: fn(i64, i64) -> Option<i64>,
    ) -> bool {
        let derived = match (self.param_at(at), self.param_at(at + 1), op) {
            (Some((p, s)), None, Op::Add) => s.checked_add(y).map(|add| (p, add)),
            (None, Some((p, s)), Op::Add) => s.checked_add(x).map(|add| (p, add)),
            (Some((p, s)), None, Op::Sub) => s.checked_sub(y).map(|add| (p, add)),
            _ => None,
        };
        if derived.is_none() {
            pin(&mut self.relocs, &mut self.checks, at, x);
            pin(&mut self.relocs, &mut self.checks, at + 1, y);
        }
        let folded = fold(x, y);
        if let Some((p, add)) = derived {
            self.checks.push(Check {
                p,
                add,
                test: Test::Fits,
                expect: folded.is_some(),
            });
        }
        let Some(v) = folded else {
            return false;
        };
        self.truncate(at);
        self.emit(Op::Push(v));
        if let Some((p, add)) = derived {
            self.reloc(Src::Param { p, add });
        }
        true
    }

    fn pred(&mut self, p: &Pred) {
        match p {
            Pred::Lit(b) => {
                self.emit(Op::Push(i64::from(*b)));
            }
            Pred::Cmp(op, a, b) => {
                self.expr(a);
                self.expr(b);
                self.emit(Op::Cmp(*op));
            }
            Pred::Not(q) => {
                self.pred(q);
                self.emit(Op::Not);
            }
            Pred::And(ps) => self.chain(ps, true),
            Pred::Or(ps) => self.chain(ps, false),
            Pred::ForAll { lo, hi, body } => self.quantifier(lo, hi, body, true),
            Pred::Exists { lo, hi, body } => self.quantifier(lo, hi, body, false),
        }
    }

    /// Short-circuit conjunction (`and = true`) or disjunction chain.
    fn chain(&mut self, ps: &[Pred], and: bool) {
        let Some((last, init)) = ps.split_last() else {
            self.emit(Op::Push(i64::from(and)));
            return;
        };
        let mut checks = Vec::with_capacity(init.len());
        for p in init {
            self.pred(p);
            checks.push(self.emit(if and { Op::AndCheck(0) } else { Op::OrCheck(0) }));
        }
        self.pred(last);
        let end = self.here();
        for at in checks {
            self.patch(at, end);
        }
    }

    /// Compiles a bounded quantifier, fusing a counter-gated body into a
    /// [`Op::LoopScanEq`] head when the shape allows (see [`scan_gate`]),
    /// behind an [`Op::Dominance`] query when the dominance index answers
    /// it.
    fn quantifier(&mut self, lo: &IntExpr, hi: &IntExpr, body: &Pred, forall: bool) {
        let query = self.dominance(lo, hi, body, forall);
        self.expr(lo);
        self.expr(hi);
        let enter = self.emit(if forall {
            Op::ForAllEnter(0)
        } else {
            Op::ExistsEnter(0)
        });
        let head = self.here();
        let gate = scan_gate(body, forall, &self.frame);
        let scan = gate.map(|(a, (k, k_param), (lit, lit_param), _)| {
            let (base, len) = self.array(a);
            let at = self.emit(Op::LoopScanEq {
                array: a.raw(),
                base,
                len,
                k,
                lit,
                identity: forall,
                exit: 0,
            });
            if let Some(p) = k_param {
                self.reloc(Src::Param { p, add: 0 });
            }
            if let Some(p) = lit_param {
                self.checks.push(Check {
                    p,
                    add: 0,
                    test: Test::Eq(lit),
                    expect: true,
                });
            }
            at
        });
        self.depth += 1;
        match gate {
            Some((_, _, _, rest)) => self.chain(rest, !forall),
            None => self.pred(body),
        }
        self.depth -= 1;
        let step = self.emit(if forall {
            Op::ForAllStep { head, exit: 0 }
        } else {
            Op::ExistsStep { head, exit: 0 }
        });
        let exit = self.here();
        self.patch(enter, exit);
        self.patch(step, exit);
        for at in [scan, query].into_iter().flatten() {
            self.patch(at, exit);
        }
    }

    /// Emits an [`Op::Dominance`] query for a quantifier of
    /// [`dominance_pattern`]'s shape whose ranked cells `b..b+K` all lie
    /// inside both arrays for this instance: the loop can then raise an
    /// error only through the probe, which the query checks before it
    /// answers. Returns the op, for its exit to be patched.
    fn dominance(
        &mut self,
        lo: &IntExpr,
        hi: &IntExpr,
        body: &Pred,
        forall: bool,
    ) -> Option<usize> {
        let p = dominance_pattern(lo, hi, body, forall, &self.frame)?;
        let len = |a: ArrayId| u32::try_from(self.network.array_len(a)).ok();
        let key_len = p.key.map_or(Some(u32::MAX), |(a, _)| len(a))?;
        let room = len(p.gate)?.min(key_len).checked_sub(p.k)?;
        let ((b, b_param), (lit, lit_param)) = (p.b, p.lit);
        let fits = u32::try_from(b).is_ok_and(|b| b <= room);
        if let Some(param) = b_param {
            self.checks.push(Check {
                p: param,
                add: 0,
                test: Test::Below(room + 1),
                expect: fits,
            });
        }
        if !fits {
            return None;
        }
        if let Some(param) = lit_param {
            self.checks.push(Check {
                p: param,
                add: 0,
                test: Test::Eq(lit),
                expect: true,
            });
        }
        let (x_var, x_add) = p.x;
        let at = self.emit(Op::Dominance {
            tree: u32::try_from(self.sites.len()).expect("site count fits u32"),
            b,
            x_slot: x_var.map_or(NO_SLOT, |v| self.frame.var(v).raw()),
            x_add,
            query: p.query,
            exit: 0,
        });
        self.sites.push(Site {
            gate: p.gate,
            lit,
            key: p.key,
            k: p.k,
        });
        if let Some(param) = b_param {
            self.reloc(Src::Param { p: param, add: 0 });
        }
        if let Some(v) = x_var {
            self.reloc(Src::Var(v));
        }
        Some(at)
    }

    fn update(&mut self, u: &Update) {
        match u {
            Update::Assign { target, value } => {
                self.expr(value);
                match target {
                    LValue::Var(v) => {
                        let var = self.frame.var(*v);
                        let decl = &self.network.vars()[var.index()];
                        self.emit(Op::StoreVar {
                            slot: var.raw(),
                            var: var.raw(),
                            min: decl.min,
                            max: decl.max,
                        });
                        self.reloc(Src::Var(*v));
                    }
                    LValue::Elem(a, idx) => {
                        self.expr(idx);
                        let decl = &self.network.arrays()[a.index()];
                        let (base, len) = self.array(*a);
                        self.emit(Op::StoreElem {
                            array: a.raw(),
                            base,
                            len,
                            min: decl.min,
                            max: decl.max,
                        });
                    }
                }
            }
            Update::ResetClock(c) => self.clock_op(Op::ClockReset, *c),
            Update::StopClock(c) => self.clock_op(Op::ClockStop, *c),
            Update::StartClock(c) => self.clock_op(Op::ClockStart, *c),
            Update::If {
                cond,
                then,
                otherwise,
            } => {
                self.pred(cond);
                let jf = self.emit(Op::JumpIfFalse(0));
                for u in then {
                    self.update(u);
                }
                let j = self.emit(Op::Jump(0));
                let else_at = self.here();
                self.patch(jf, else_at);
                for u in otherwise {
                    self.update(u);
                }
                let end = self.here();
                self.patch(j, end);
            }
        }
    }

    fn clock_op(&mut self, op: fn(u32) -> Op, c: ClockId) {
        self.emit(op(self.frame.clock(c).raw()));
        self.reloc(Src::Clock(c));
    }
}

/// A contiguous range of one of [`CompiledNetwork`]'s buffers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Span {
    start: u32,
    end: u32,
}

impl Span {
    fn new(start: usize, end: usize) -> Self {
        let at = |i: usize| u32::try_from(i).expect("compiled network fits u32 offsets");
        Self {
            start: at(start),
            end: at(end),
        }
    }

    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..self.end as usize
    }

    /// The span moved `by` entries further into its buffer.
    fn shift(self, by: usize) -> Self {
        let by = u32::try_from(by).expect("compiled network fits u32 offsets");
        Self {
            start: self.start + by,
            end: self.end + by,
        }
    }

    fn len(self) -> usize {
        (self.end - self.start) as usize
    }
}

/// One operand of a fast-path comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Operand {
    Const(i64),
    Slot(u32),
}

impl Operand {
    fn of(op: &Op) -> Option<Self> {
        match op {
            Op::Push(v) => Some(Self::Const(*v)),
            Op::LoadVar(s) => Some(Self::Slot(*s)),
            _ => None,
        }
    }

    #[inline]
    fn get(self, vars: &[i64]) -> i64 {
        match self {
            Self::Const(v) => v,
            Self::Slot(s) => vars[s as usize],
        }
    }
}

/// One conjunct of a compiled guard predicate.
///
/// Scheduler-dispatch guards open with comparisons over variables and
/// constant-indexed array cells (`is_ready[3] == 1 && …`); those compile
/// to inline [`PredTerm::Cmp`] terms that evaluate — and short-circuit —
/// without entering the interpreter at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PredTerm {
    Cmp {
        lhs: Operand,
        op: CmpOp,
        rhs: Operand,
    },
    Prog(Span),
}

impl PredTerm {
    /// The term with its program moved `by` ops further.
    fn shift(self, by: usize) -> Self {
        match self {
            Self::Prog(span) => Self::Prog(span.shift(by)),
            cmp @ Self::Cmp { .. } => cmp,
        }
    }

    #[inline]
    fn eval(
        &self,
        ops: &[Op],
        vars: &[i64],
        ranks: Option<&DominanceIndex>,
    ) -> Result<bool, EvalError> {
        match self {
            Self::Cmp { lhs, op, rhs } => Ok(op.apply(lhs.get(vars), rhs.get(vars))),
            Self::Prog(p) => Ok(eval_vars(&ops[p.range()], vars, ranks)? != 0),
        }
    }
}

/// A compiled right-hand side with the two overwhelmingly common shapes —
/// a literal and a bare variable — folded out of the interpreter entirely,
/// so `c ≤ 5` and `c ≤ deadline` cost a comparison, not a program run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rhs {
    Const(i64),
    Var(u32),
    Prog(Span),
}

impl Rhs {
    /// The right-hand side with its program moved `by` ops further.
    fn shift(self, by: usize) -> Self {
        match self {
            Self::Prog(span) => Self::Prog(span.shift(by)),
            folded => folded,
        }
    }

    #[inline]
    fn eval(&self, ops: &[Op], vars: &[i64]) -> Result<i64, EvalError> {
        match self {
            Self::Const(v) => Ok(*v),
            Self::Var(slot) => Ok(vars[*slot as usize]),
            Self::Prog(p) => eval_vars(&ops[p.range()], vars, None),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CompiledClockAtom {
    clock: ClockId,
    op: CmpOp,
    rhs: Rhs,
}

/// Flattens a guard's clock-free part into its top-level conjuncts
/// (nested `Pred::And` nodes dissolve). This is the *conjunct numbering*
/// both engines share: `CompiledGuard` compiles one term per entry and
/// short-circuits left to right, and the forensic first-failing-conjunct
/// probe reports positions in exactly this list, so a diagnosis names the
/// same atom whichever engine produced it.
pub(crate) fn flatten_preds(preds: &[Pred]) -> Vec<&Pred> {
    fn flatten<'p>(p: &'p Pred, out: &mut Vec<&'p Pred>) {
        if let Pred::And(ps) = p {
            for q in ps {
                flatten(q, out);
            }
        } else {
            out.push(p);
        }
    }
    let mut flat = Vec::new();
    for p in preds {
        flatten(p, &mut flat);
    }
    flat
}

/// Position of the first failing conjunct of a guard, in the shared
/// numbering of [`flatten_preds`]: clock-free conjuncts first (in
/// flattened order), then clock atoms (in declaration order) — the order
/// both engines evaluate and short-circuit in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GuardConjunct {
    /// Index into the flattened clock-free conjunct list.
    Pred(usize),
    /// Index into `Guard::clock_atoms`.
    ClockAtom(usize),
}

/// A guard in compiled form (a view into a [`CompiledNetwork`]): the
/// clock-free predicates as a short-circuit conjunction of terms plus the
/// clock atoms with compiled right-hand sides.
#[derive(Debug, Clone, Copy)]
pub struct CompiledGuard<'a> {
    ops: &'a [Op],
    terms: &'a [PredTerm],
    atoms: &'a [CompiledClockAtom],
}

impl CompiledGuard<'_> {
    /// As [`Guard::holds`](crate::guard::Guard::holds).
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors in the same order as the AST walker.
    pub fn holds(&self, state: &State) -> Result<bool, EvalError> {
        self.holds_flat(state.clock_values(), &state.vars)
    }

    /// As [`CompiledGuard::holds`], over pre-hoisted flat slices — the
    /// batch entry point used by the fast path's per-wakeup guard pass,
    /// where the clock-value and variable slices are loaded once for a
    /// whole ready set instead of per edge.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors in the same order as the AST walker.
    #[inline]
    pub fn holds_flat(&self, clock_values: &[i64], vars: &[i64]) -> Result<bool, EvalError> {
        self.holds_ranked(clock_values, vars, None)
    }

    /// As [`CompiledGuard::holds_flat`], answering the guard's dominance
    /// queries from `ranks` (the fast loop's trees, in step with `vars`).
    #[inline]
    pub(crate) fn holds_ranked(
        &self,
        clock_values: &[i64],
        vars: &[i64],
        ranks: Option<&DominanceIndex>,
    ) -> Result<bool, EvalError> {
        for t in self.terms {
            if !t.eval(self.ops, vars, ranks)? {
                return Ok(false);
            }
        }
        for a in self.atoms {
            let rhs = a.rhs.eval(self.ops, vars)?;
            if !a.op.apply(clock_values[a.clock.index()], rhs) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// As [`Guard::enabling_window`](crate::guard::Guard::enabling_window).
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors in the same order as the AST walker.
    pub fn enabling_window(&self, state: &State) -> Result<Option<DelayWindow>, EvalError> {
        for t in self.terms {
            if !t.eval(self.ops, &state.vars, None)? {
                return Ok(None);
            }
        }
        let mut window = DelayWindow::full();
        for a in self.atoms {
            let rhs = a.rhs.eval(self.ops, &state.vars)?;
            let cv = state.clock(a.clock);
            match atom_delay_window(a.op, cv.value, cv.running, rhs) {
                None => return Ok(None),
                Some(w) => match window.intersect(w) {
                    None => return Ok(None),
                    Some(i) => window = i,
                },
            }
        }
        Ok(Some(window))
    }

    /// The short-circuit position at which this guard fails on `state`,
    /// or `None` if it holds. The numbering is shared with the AST walker
    /// (see [`flatten_preds`]), so forensics name the same conjunct under
    /// either engine.
    pub(crate) fn first_failing(&self, state: &State) -> Result<Option<GuardConjunct>, EvalError> {
        for (i, t) in self.terms.iter().enumerate() {
            if !t.eval(self.ops, &state.vars, None)? {
                return Ok(Some(GuardConjunct::Pred(i)));
            }
        }
        for (i, a) in self.atoms.iter().enumerate() {
            let rhs = a.rhs.eval(self.ops, &state.vars)?;
            if !a.op.apply(state.clock_value(a.clock), rhs) {
                return Ok(Some(GuardConjunct::ClockAtom(i)));
            }
        }
        Ok(None)
    }
}

/// An invariant in compiled form (a view into a [`CompiledNetwork`]):
/// upper-bound atoms with compiled right-hand sides.
#[derive(Debug, Clone, Copy)]
pub struct CompiledInvariant<'a> {
    ops: &'a [Op],
    atoms: &'a [(ClockId, Rhs)],
}

impl CompiledInvariant<'_> {
    /// As [`Invariant::holds`](crate::guard::Invariant::holds).
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors in the same order as the AST walker.
    pub fn holds(&self, state: &State) -> Result<bool, EvalError> {
        for (clock, rhs) in self.atoms {
            let rhs = rhs.eval(self.ops, &state.vars)?;
            if state.clock_value(*clock) > rhs {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// As [`Invariant::max_delay`](crate::guard::Invariant::max_delay).
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors in the same order as the AST walker.
    pub fn max_delay(&self, state: &State) -> Result<Option<i64>, EvalError> {
        let mut bound: Option<i64> = None;
        for (clock, rhs) in self.atoms {
            let rhs = rhs.eval(self.ops, &state.vars)?;
            let cv = state.clock(*clock);
            if cv.running {
                let d = rhs - cv.value;
                bound = Some(bound.map_or(d, |b| b.min(d)));
            } else if cv.value > rhs {
                return Ok(Some(-1));
            }
        }
        Ok(bound)
    }
}

/// Per-program-kind instruction counts, surfaced through
/// `CompileMetrics` in `swa-core`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Number of compiled programs (guard predicates, atom right-hand
    /// sides, invariant bounds, update sequences).
    pub programs: usize,
    /// Total instructions across all programs.
    pub ops: usize,
}

/// A template's programs, lowered once against a representative instance
/// and laid out as a one-automaton [`CompiledNetwork`] (clocks still
/// local), with the relocations and checks under which another instance
/// reuses them.
#[derive(Debug, Default)]
struct TemplateCode {
    net: CompiledNetwork,
    /// Ascending by field within each buffer.
    relocs: Vec<Reloc>,
    /// Sorted and deduplicated.
    checks: Vec<Check>,
    /// The dominance queries, by their ops' `tree` field.
    sites: Vec<Site>,
}

/// What an [`Op::Dominance`] ranks, short of the instance's first cell
/// `b`, which relocation writes into the op.
#[derive(Debug, Clone, Copy)]
struct Site {
    gate: ArrayId,
    lit: i64,
    key: Option<(ArrayId, Best)>,
    k: u32,
}

impl TemplateCode {
    fn compile(template: &Automaton, frame: Binding<'_>, network: &Network) -> Self {
        let mut c = Compiler::new(network, frame);
        let mut code = Self::default();
        for e in &template.edges {
            let (terms, atoms) = (code.net.terms.len(), code.net.atoms.len());
            for p in flatten_preds(&e.guard.preds) {
                let term = code.term(c.program(|c| c.pred(p)));
                code.net.terms.push(term);
            }
            for a in &e.guard.clock_atoms {
                let at = code.net.atoms.len();
                let rhs = code.rhs(c.program(|c| c.expr(&a.rhs)), Field::Atom(at));
                code.net.atoms.push(CompiledClockAtom {
                    clock: a.clock,
                    op: a.op,
                    rhs,
                });
            }
            let updates = c.program(|c| {
                for u in &e.updates {
                    c.update(u);
                }
            });
            let updates = code.program(updates);
            code.net.stats.programs += 1;
            code.net.stats.ops += updates.len();
            code.net.edges.push(EdgeCode {
                terms: Span::new(terms, code.net.terms.len()),
                atoms: Span::new(atoms, code.net.atoms.len()),
                updates,
            });
        }
        for l in &template.locations {
            let bounds = code.net.bounds.len();
            for a in &l.invariant.atoms {
                let at = code.net.bounds.len();
                let rhs = code.rhs(c.program(|c| c.expr(&a.rhs)), Field::Bound(at));
                code.net.bounds.push((a.clock, rhs));
            }
            code.net
                .locations
                .push(Span::new(bounds, code.net.bounds.len()));
        }
        code.net.edge_base.push(0);
        code.net.location_base.push(0);
        code.checks = c.checks;
        code.checks.sort_unstable();
        code.checks.dedup();
        code.sites = c.sites;
        code
    }

    /// Appends a program's ops, keeping its relocations; returns its span.
    fn program(&mut self, (ops, relocs): (&[Op], &[Reloc])) -> Span {
        let base = self.net.ops.len();
        self.relocs.extend(relocs.iter().map(|&r| Reloc {
            at: match r.at {
                Field::Op(i) => Field::Op(i + base),
                other => other,
            },
            ..r
        }));
        self.net.ops.extend_from_slice(ops);
        Span::new(base, self.net.ops.len())
    }

    /// Classifies a guard conjunct, folding a plain comparison out of the
    /// interpreter (its operands' relocations follow it).
    fn term(&mut self, (ops, relocs): (&[Op], &[Reloc])) -> PredTerm {
        let fast = match ops {
            [a, b, Op::Cmp(op)] => Operand::of(a)
                .zip(Operand::of(b))
                .map(|(lhs, rhs)| (lhs, *op, rhs)),
            [a, Op::CmpConst { op, k }] => Operand::of(a).map(|lhs| (lhs, *op, Operand::Const(*k))),
            [a, Op::CmpVar { op, slot }] => {
                Operand::of(a).map(|lhs| (lhs, *op, Operand::Slot(*slot)))
            }
            _ => None,
        };
        self.net.stats.programs += 1;
        let Some((lhs, op, rhs)) = fast else {
            let span = self.program((ops, relocs));
            self.net.stats.ops += span.len();
            return PredTerm::Prog(span);
        };
        // A fast comparison counts as the three instructions it replaced.
        self.net.stats.ops += 3;
        let term = self.net.terms.len();
        for &r in relocs {
            let at = if r.op() == 0 {
                Field::Lhs(term)
            } else {
                Field::Rhs(term)
            };
            self.relocs.push(Reloc { at, ..r });
        }
        PredTerm::Cmp { lhs, op, rhs }
    }

    /// Classifies a right-hand side, folding a literal or a bare variable
    /// out of the interpreter (its relocation moves to `field`).
    fn rhs(&mut self, (ops, relocs): (&[Op], &[Reloc]), field: Field) -> Rhs {
        let folded = match ops {
            [Op::Push(v)] => Some(Rhs::Const(*v)),
            [Op::LoadVar(slot)] => Some(Rhs::Var(*slot)),
            _ => None,
        };
        self.net.stats.programs += 1;
        match folded {
            Some(rhs) => {
                // Folded forms count as the one instruction they replaced.
                self.net.stats.ops += 1;
                self.relocs
                    .extend(relocs.iter().map(|&r| Reloc { at: field, ..r }));
                rhs
            }
            None => {
                let span = self.program((ops, relocs));
                self.net.stats.ops += span.len();
                Rhs::Prog(span)
            }
        }
    }

    /// Whether an instance with these parameters may reuse this code.
    fn fits(&self, params: &[i64]) -> bool {
        self.checks.iter().all(|c| c.holds(params))
    }
}

/// An edge's compiled guard and updates, as spans of the network buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EdgeCode {
    terms: Span,
    atoms: Span,
    updates: Span,
}

/// Every guard, invariant and update of a network in compiled form.
///
/// Each template is lowered once (per combination of parameter-steered
/// decisions its instances take) into a `TemplateCode`; every instance
/// then copies that code into the network's contiguous buffers and
/// relocates the fields its frame binds. No instance walks the AST or runs
/// the fusion passes, and the per-program allocations of a direct compile
/// collapse into a handful of buffers. The result equals, op for op, what
/// lowering every expanded automaton on its own produces.
///
/// Built lazily (and at most once) per network via
/// [`Network::compiled`]; cloning a network clones the compiled form with
/// it, which stays valid because programs only bake in slot offsets and
/// domains, both preserved by clone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompiledNetwork {
    ops: Vec<Op>,
    terms: Vec<PredTerm>,
    atoms: Vec<CompiledClockAtom>,
    bounds: Vec<(ClockId, Rhs)>,
    /// Per edge, automaton by automaton.
    edges: Vec<EdgeCode>,
    /// Per location, automaton by automaton: the span of `bounds`.
    locations: Vec<Span>,
    /// Index of each automaton's first edge in `edges`.
    edge_base: Vec<u32>,
    /// Index of each automaton's first location in `locations`.
    location_base: Vec<u32>,
    /// The ranges the [`Op::Dominance`] queries rank, one per distinct
    /// gate, key, first cell and length.
    rankings: Vec<Ranking>,
    stats: CompileStats,
}

impl CompiledNetwork {
    /// Compiles every guard, invariant and update sequence of the network.
    #[must_use]
    pub fn compile(network: &Network) -> Self {
        let mut variants: Vec<Vec<TemplateCode>> =
            network.templates.iter().map(|_| Vec::new()).collect();
        // Per instance: its variant, and whether that was lowered against
        // another instance's frame (so its relocations apply).
        let mut chosen = Vec::with_capacity(network.instances.len());
        for inst in &network.instances {
            let frame = inst.frame.binding();
            let known = &mut variants[inst.template];
            match known.iter().position(|code| code.fits(frame.params)) {
                Some(i) => chosen.push((i, true)),
                None => {
                    let template = &network.templates[inst.template].automaton;
                    known.push(TemplateCode::compile(template, frame, network));
                    chosen.push((known.len() - 1, false));
                }
            }
        }
        let mut out = Self::default();
        let instances = network.instances.iter().zip(&chosen);
        out.reserve(instances.map(|(inst, &(i, _))| &variants[inst.template][i].net));
        for (inst, &(i, relocate)) in network.instances.iter().zip(&chosen) {
            let frame = inst.frame.binding();
            out.append(&variants[inst.template][i], frame, relocate, network);
        }
        out
    }

    /// Sizes every buffer for the code of all instances at once, so none
    /// grows by doubling: each outgrown block would stay behind on the heap
    /// and raise the peak memory of a process that compiles many networks.
    fn reserve<'c>(&mut self, codes: impl Iterator<Item = &'c Self> + Clone) {
        let total = |len: fn(&Self) -> usize| codes.clone().map(len).sum();
        self.ops.reserve_exact(total(|c| c.ops.len()));
        self.terms.reserve_exact(total(|c| c.terms.len()));
        self.atoms.reserve_exact(total(|c| c.atoms.len()));
        self.bounds.reserve_exact(total(|c| c.bounds.len()));
        self.edges.reserve_exact(total(|c| c.edges.len()));
        self.locations.reserve_exact(total(|c| c.locations.len()));
    }

    /// Ranks the dominance query at each op of `ops` (the instance just
    /// appended) by its template site and relocated first cell, sharing a
    /// tree with every query over the same cells; a keyless query (no
    /// cell gated) shares any tree over its gate range.
    fn intern_sites(&mut self, sites: &[Site], from: usize, network: &Network) {
        let slot = |a: ArrayId| u32::try_from(network.array_offset(a)).expect("slot fits u32");
        for op in &mut self.ops[from..] {
            let Op::Dominance { tree, b, .. } = op else {
                continue;
            };
            let site = sites[*tree as usize];
            let b = u32::try_from(*b).expect("checked ranked range");
            let covers = |r: &Ranking| {
                (r.gate, r.lit, r.b, r.k) == (site.gate, site.lit, b, site.k)
                    && site.key.is_none_or(|(a, best)| {
                        r.key.is_some_and(|k| (k.array, k.best) == (a, best))
                    })
            };
            let at = self.rankings.iter().position(covers).unwrap_or_else(|| {
                self.rankings.push(Ranking {
                    gate: site.gate,
                    gate_base: slot(site.gate),
                    lit: site.lit,
                    key: site.key.map(|(array, best)| Key {
                        array,
                        base: slot(array),
                        len: u32::try_from(network.array_len(array)).expect("len fits u32"),
                        best,
                    }),
                    b,
                    k: site.k,
                });
                self.rankings.len() - 1
            });
            *tree = u32::try_from(at).expect("ranking count fits u32");
        }
    }

    /// Appends one instance: `code` with its clocks mapped through `frame`
    /// and, unless `code` was lowered against `frame`, its relocations
    /// applied.
    fn append(
        &mut self,
        code: &TemplateCode,
        frame: Binding<'_>,
        relocate: bool,
        network: &Network,
    ) {
        let base = |len: usize| u32::try_from(len).expect("compiled network fits u32 offsets");
        let (ops, terms, atoms) = (self.ops.len(), self.terms.len(), self.atoms.len());
        let bounds = self.bounds.len();
        self.edge_base.push(base(self.edges.len()));
        self.location_base.push(base(self.locations.len()));
        let c = &code.net;
        self.ops.extend_from_slice(&c.ops);
        self.terms.extend(c.terms.iter().map(|t| t.shift(ops)));
        self.atoms.extend(c.atoms.iter().map(|a| CompiledClockAtom {
            clock: frame.clock(a.clock),
            op: a.op,
            rhs: a.rhs.shift(ops),
        }));
        self.bounds.extend(
            c.bounds
                .iter()
                .map(|&(clock, rhs)| (frame.clock(clock), rhs.shift(ops))),
        );
        self.edges.extend(c.edges.iter().map(|e| EdgeCode {
            terms: e.terms.shift(terms),
            atoms: e.atoms.shift(atoms),
            updates: e.updates.shift(ops),
        }));
        self.locations
            .extend(c.locations.iter().map(|l| l.shift(bounds)));
        self.stats.programs += c.stats.programs;
        self.stats.ops += c.stats.ops;
        if relocate {
            for r in &code.relocs {
                let (ops, terms) = (&mut self.ops[ops..], &mut self.terms[terms..]);
                match r.at {
                    Field::Op(i) => r.src.write_op(&mut ops[i], &frame, network),
                    Field::Lhs(i) | Field::Rhs(i) => {
                        let PredTerm::Cmp { lhs, rhs, .. } = &mut terms[i] else {
                            unreachable!("operand relocation of a program term")
                        };
                        let side = if matches!(r.at, Field::Lhs(_)) {
                            lhs
                        } else {
                            rhs
                        };
                        match side {
                            Operand::Const(v) => *v = r.src.value(&frame),
                            Operand::Slot(s) => *s = r.src.slot(&frame),
                        }
                    }
                    Field::Atom(i) => r.src.write_rhs(&mut self.atoms[atoms + i].rhs, &frame),
                    Field::Bound(i) => r.src.write_rhs(&mut self.bounds[bounds + i].1, &frame),
                }
            }
        }
        if !code.sites.is_empty() {
            self.intern_sites(&code.sites, ops, network);
        }
    }

    fn edge(&self, automaton: AutomatonId, edge: EdgeId) -> &EdgeCode {
        &self.edges[self.edge_base[automaton.index()] as usize + edge.index()]
    }

    /// The compiled guard of an edge.
    #[must_use]
    pub fn guard(&self, automaton: AutomatonId, edge: EdgeId) -> CompiledGuard<'_> {
        let e = self.edge(automaton, edge);
        CompiledGuard {
            ops: &self.ops,
            terms: &self.terms[e.terms.range()],
            atoms: &self.atoms[e.atoms.range()],
        }
    }

    /// The compiled invariant of a location.
    #[must_use]
    pub fn invariant(&self, automaton: AutomatonId, location: LocationId) -> CompiledInvariant<'_> {
        let span =
            self.locations[self.location_base[automaton.index()] as usize + location.index()];
        CompiledInvariant {
            ops: &self.ops,
            atoms: &self.bounds[span.range()],
        }
    }

    /// The compiled update program of an edge.
    #[must_use]
    pub fn updates(&self, automaton: AutomatonId, edge: EdgeId) -> Program<'_> {
        Program {
            code: &self.ops[self.edge(automaton, edge).updates.range()],
        }
    }

    /// Instruction-count statistics of the compilation.
    #[must_use]
    pub fn stats(&self) -> CompileStats {
        self.stats
    }

    /// Number of dominance queries compiled in front of scheduler
    /// quantifiers (see [`MIN_DOMINANCE_K`]).
    #[must_use]
    pub fn dominance_queries(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, Op::Dominance { .. }))
            .count()
    }

    /// The ranges the dominance queries rank (see [`crate::dominance`]).
    pub(crate) fn rankings(&self) -> &[Ranking] {
        &self.rankings
    }

    /// The tree and leaf of a dispatch guard, the scheduler's "task `x` is
    /// gated and no gated task beats it": comparison terms, the last of
    /// them `gate[b + x] == lit`, then a term that is exactly an
    /// [`Query::Unbeaten`] query probing the literal `x` over the tree
    /// whose leaf `x` is that very gate cell. `None` for any other guard.
    ///
    /// While the tree has a winner `w`, such a guard holds for no leaf
    /// `x ≠ w` and raises no error on the way: comparison terms cannot
    /// fail, the gate is false unless leaf `x` is gated, and then `w`
    /// beats it; the query answers without its loop because the emitted
    /// op's ranked cells lie inside both arrays. Without a winner no gate
    /// holds. The fast loop therefore evaluates only the winner's guard.
    pub(crate) fn dispatch_leaf(&self, automaton: AutomatonId, edge: EdgeId) -> Option<(u32, u32)> {
        let terms = &self.terms[self.edge(automaton, edge).terms.range()];
        let at = terms.iter().position(|t| matches!(t, PredTerm::Prog(_)))?;
        let (
            PredTerm::Cmp {
                lhs: Operand::Slot(cell),
                op: CmpOp::Eq,
                rhs: Operand::Const(lit),
            },
            PredTerm::Prog(span),
        ) = (terms.get(at.checked_sub(1)?)?, terms[at])
        else {
            return None;
        };
        let code = &self.ops[span.range()];
        let Some(&Op::Dominance {
            tree,
            b,
            x_slot: NO_SLOT,
            x_add,
            query: Query::Unbeaten,
            exit,
        }) = code.first()
        else {
            return None;
        };
        let r = &self.rankings[tree as usize];
        let leaf = u32::try_from(x_add).ok().filter(|&x| x < r.k)?;
        (exit as usize == code.len()
            && r.key.is_some()
            && r.lit == *lit
            && b == i64::from(r.b)
            && r.gate_base + r.b + leaf == *cell)
            .then_some((tree, leaf))
    }

    /// Re-keys the dominance leaves an edge's update program may have
    /// changed. A `StoreElem` to a ranked array whose index is a literal
    /// (a `Push` that no jump lands after) re-keys the one leaf on that
    /// cell; any other store to a ranked array rebuilds the trees over it.
    pub(crate) fn rekey_stores(
        &self,
        automaton: AutomatonId,
        edge: EdgeId,
        ranks: &mut DominanceIndex,
        vars: &[i64],
    ) {
        let code = &self.ops[self.edge(automaton, edge).updates.range()];
        for (at, op) in code.iter().enumerate() {
            let Op::StoreElem { array, .. } = *op else {
                continue;
            };
            let array = ArrayId::from_raw(array);
            if !ranks.watches(array) {
                continue;
            }
            let lands = |op: &Op| targets(op).contains(&u32::try_from(at).ok());
            let index = match at.checked_sub(1).map(|i| code[i]) {
                Some(Op::Push(i)) if !code.iter().any(lands) => Some(i),
                _ => None,
            };
            ranks.stored(array, index, vars);
        }
    }
}

// ---------------------------------------------------------------------------
// Engine dispatch used by `semantics`, `sim` and `fastsim`.
//
// Each helper evaluates one model component through the selected engine;
// the AST arm is the reference implementation, the bytecode arm the
// compiled one. Both interpreters route every evaluation through these, so
// `Simulator::engine(EvalEngine::Ast)` really does exercise the AST walker
// end to end.
// ---------------------------------------------------------------------------

/// Evaluates an edge guard.
pub(crate) fn guard_holds(
    network: &Network,
    engine: EvalEngine,
    automaton: AutomatonId,
    edge: EdgeId,
    state: &State,
) -> Result<bool, EvalError> {
    match engine {
        EvalEngine::Ast => {
            let view = crate::state::EnvView { network, state };
            network
                .automaton(automaton)
                .edge(edge)
                .guard
                .holds(&view, &view)
        }
        EvalEngine::Bytecode => network.compiled().guard(automaton, edge).holds(state),
    }
}

/// Computes an edge guard's enabling window.
pub(crate) fn guard_window(
    network: &Network,
    engine: EvalEngine,
    automaton: AutomatonId,
    edge: EdgeId,
    state: &State,
) -> Result<Option<DelayWindow>, EvalError> {
    match engine {
        EvalEngine::Ast => {
            let view = crate::state::EnvView { network, state };
            network
                .automaton(automaton)
                .edge(edge)
                .guard
                .enabling_window(&view, &view)
        }
        EvalEngine::Bytecode => network
            .compiled()
            .guard(automaton, edge)
            .enabling_window(state),
    }
}

/// Evaluates a location invariant at the current instant.
pub(crate) fn invariant_holds(
    network: &Network,
    engine: EvalEngine,
    automaton: AutomatonId,
    location: LocationId,
    state: &State,
) -> Result<bool, EvalError> {
    match engine {
        EvalEngine::Ast => {
            let view = crate::state::EnvView { network, state };
            network
                .automaton(automaton)
                .location(location)
                .invariant
                .holds(&view, &view)
        }
        EvalEngine::Bytecode => network
            .compiled()
            .invariant(automaton, location)
            .holds(state),
    }
}

/// Computes a location invariant's maximum admissible delay.
pub(crate) fn invariant_max_delay(
    network: &Network,
    engine: EvalEngine,
    automaton: AutomatonId,
    location: LocationId,
    state: &State,
) -> Result<Option<i64>, EvalError> {
    match engine {
        EvalEngine::Ast => {
            let view = crate::state::EnvView { network, state };
            network
                .automaton(automaton)
                .location(location)
                .invariant
                .max_delay(&view, &view)
        }
        EvalEngine::Bytecode => network
            .compiled()
            .invariant(automaton, location)
            .max_delay(state),
    }
}

/// Finds the first failing conjunct of an edge guard (forensics; see
/// [`GuardConjunct`]). Both arms share the [`flatten_preds`] numbering and
/// the left-to-right short-circuit order, so the reported position is
/// engine-independent.
pub(crate) fn guard_first_failing(
    network: &Network,
    engine: EvalEngine,
    automaton: AutomatonId,
    edge: EdgeId,
    state: &State,
) -> Result<Option<GuardConjunct>, EvalError> {
    match engine {
        EvalEngine::Ast => {
            let view = crate::state::EnvView { network, state };
            let guard = &network.automaton(automaton).edge(edge).guard;
            for (i, p) in flatten_preds(&guard.preds).into_iter().enumerate() {
                if !p.eval(&view)? {
                    return Ok(Some(GuardConjunct::Pred(i)));
                }
            }
            for (i, a) in guard.clock_atoms.iter().enumerate() {
                if !a.holds(&view, &view)? {
                    return Ok(Some(GuardConjunct::ClockAtom(i)));
                }
            }
            Ok(None)
        }
        EvalEngine::Bytecode => network
            .compiled()
            .guard(automaton, edge)
            .first_failing(state),
    }
}

/// Runs an edge's update sequence against the state.
pub(crate) fn run_edge_updates(
    network: &Network,
    engine: EvalEngine,
    automaton: AutomatonId,
    edge: EdgeId,
    state: &mut State,
) -> Result<(), SimError> {
    match engine {
        EvalEngine::Ast => {
            let updates = &network.automaton(automaton).edge(edge).updates;
            state.apply_updates(network, updates)
        }
        EvalEngine::Bytecode => network.compiled().updates(automaton, edge).exec(state),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::{AutomatonBuilder, Edge};
    use crate::guard::Guard;
    use crate::ids::ParamId;
    use crate::network::NetworkBuilder;
    use crate::state::EnvView;

    /// Ranked partition size of the shapes below.
    const K: usize = MIN_DOMINANCE_K + 5;
    /// First ranked cell: the arrays hold `B + K + 4` cells, so probes a
    /// little outside the partition still land inside them.
    const B: i64 = 3;

    fn lit(i: usize) -> i64 {
        i64::try_from(i).unwrap()
    }

    /// The arrays and the variable the scheduler quantifiers read.
    struct Decls {
        ready: ArrayId,
        key: ArrayId,
        running: VarId,
    }

    fn builder() -> (NetworkBuilder, Decls) {
        let mut nb = NetworkBuilder::new();
        let cells = usize::try_from(B).unwrap() + K + 4;
        let decls = Decls {
            ready: nb.array("ready", vec![0; cells], 0, 1),
            key: nb.array("key", vec![0; cells], 0, 3),
            running: nb.var("running", 0, -20, 60),
        };
        (nb, decls)
    }

    /// How the counter-relative cell `m + b` is written: with `b` as a
    /// literal, as the template parameter 0, or folded away (`b = 0`).
    #[derive(Debug, Clone, Copy)]
    enum Base {
        Lit,
        Param,
        Folded,
    }

    impl Base {
        fn at(self, e: IntExpr) -> IntExpr {
            match self {
                Self::Lit => IntExpr::lit(B) + e,
                Self::Param => IntExpr::param(ParamId::from_raw(0)) + e,
                Self::Folded => e,
            }
        }

        fn counter(self) -> IntExpr {
            match self {
                Self::Lit => IntExpr::bound(0) + IntExpr::lit(B),
                Self::Param => IntExpr::bound(0) + IntExpr::param(ParamId::from_raw(0)),
                Self::Folded => IntExpr::bound(0),
            }
        }
    }

    fn gate(d: &Decls, base: Base) -> Pred {
        IntExpr::elem(d.ready, base.counter()).eq(1)
    }

    /// "Counter cell beats `x`" (or, `negated`, its complement), written
    /// as `templates/sched.rs` writes it for a policy whose winning end is
    /// `best`.
    fn beats(d: &Decls, base: Base, best: Best, x: &IntExpr, negated: bool) -> Pred {
        let m = IntExpr::elem(d.key, base.counter());
        let p = IntExpr::elem(d.key, base.at(x.clone()));
        let (win, lose) = match best {
            Best::Max => (CmpOp::Gt, CmpOp::Lt),
            Best::Min => (CmpOp::Lt, CmpOp::Gt),
        };
        let (order, tie) = if negated {
            (lose, IntExpr::bound(0).ge(x.clone()))
        } else {
            (win, IntExpr::bound(0).lt(x.clone()))
        };
        Pred::cmp(order, m.clone(), p.clone()).or(m.eq(p).and(tie))
    }

    /// The scheduler's quantifier shapes for one policy (`preemptive`:
    /// FPPS and EDF add `preempt_k` and `continue`), probing literal `k`.
    fn shapes(
        d: &Decls,
        base: Base,
        best: Best,
        preemptive: bool,
        k: i64,
    ) -> Vec<(&'static str, Pred)> {
        let x = IntExpr::lit(k);
        let running = IntExpr::var(d.running) - IntExpr::lit(1);
        let mut out = vec![
            (
                "is_top",
                Pred::forall(
                    0,
                    lit(K),
                    gate(d, base).not().or(beats(d, base, best, &x, true)),
                ),
            ),
            ("go_idle", Pred::forall(0, lit(K), gate(d, base).not())),
        ];
        if preemptive {
            out.push((
                "preempt",
                Pred::exists(
                    0,
                    lit(K),
                    gate(d, base).and(beats(d, base, best, &x, false)),
                ),
            ));
            out.push((
                "continue",
                Pred::exists(
                    0,
                    lit(K),
                    gate(d, base).and(beats(d, base, best, &running, false)),
                )
                .not(),
            ));
        }
        out
    }

    const POLICIES: [(&str, Best, bool); 3] = [
        ("fpps", Best::Max, true),
        ("fpnps", Best::Max, false),
        ("edf", Best::Min, true),
    ];

    /// Whether compiling `p` emits a dominance query.
    fn emits_query(network: &Network, params: &[i64], p: &Pred) -> bool {
        let mut c = Compiler::new(network, Binding::params(params));
        let (code, _) = c.program(|c| c.pred(p));
        code.iter().any(|op| matches!(op, Op::Dominance { .. }))
    }

    #[test]
    fn recogniser_fires_on_every_scheduler_shape() {
        let (nb, d) = builder();
        let network = nb.build().unwrap();
        for (policy, best, preemptive) in POLICIES {
            for base in [Base::Lit, Base::Param, Base::Folded] {
                let shapes = shapes(&d, base, best, preemptive, 5);
                assert_eq!(shapes.len(), if preemptive { 4 } else { 2 });
                for (shape, p) in shapes {
                    assert!(
                        emits_query(&network, &[B], &p),
                        "{policy} {shape} ({base:?} base) compiles no query"
                    );
                }
            }
        }
    }

    #[test]
    fn recogniser_rejects_near_misses() {
        let (nb, d) = builder();
        let network = nb.build().unwrap();
        let base = Base::Lit;
        let x = IntExpr::lit(5);
        let m_cell = IntExpr::elem(d.key, base.counter());
        let x_cell = IntExpr::elem(d.key, base.at(x.clone()));
        // Round-robin: circular distance, not a key order.
        let cdist = |e: IntExpr| {
            IntExpr::Rem(
                Box::new(e - IntExpr::var(d.running) - IntExpr::lit(1)),
                Box::new(IntExpr::lit(lit(K))),
            )
        };
        let rr = Pred::exists(
            0,
            lit(K),
            gate(&d, base).and(cdist(IntExpr::bound(0)).lt(cdist(x.clone()))),
        );
        // `m <= x` lets a task beat itself.
        let non_strict = Pred::exists(
            0,
            lit(K),
            gate(&d, base).and(
                m_cell.clone().gt(x_cell.clone()).or(m_cell
                    .clone()
                    .eq(x_cell.clone())
                    .and(IntExpr::bound(0).le(x.clone()))),
            ),
        );
        let extra_conjunct = Pred::exists(
            0,
            lit(K),
            gate(&d, base)
                .and(beats(&d, base, Best::Max, &x, false))
                .and(IntExpr::var(d.running).gt(0)),
        );
        let extra_disjunct = Pred::forall(
            0,
            lit(K),
            gate(&d, base)
                .not()
                .or(beats(&d, base, Best::Max, &x, true))
                .or(IntExpr::var(d.running).gt(0)),
        );
        // The probe's tie-break and cell disagree on `x`.
        let split_probe = Pred::exists(
            0,
            lit(K),
            gate(&d, base).and(
                m_cell
                    .clone()
                    .gt(x_cell.clone())
                    .or(m_cell.eq(x_cell).and(IntExpr::bound(0).lt(6))),
            ),
        );
        let non_literal_bound = Pred::exists(
            0,
            IntExpr::var(d.running),
            gate(&d, base).and(beats(&d, base, Best::Max, &x, false)),
        );
        let below_threshold = Pred::exists(
            0,
            lit(MIN_DOMINANCE_K - 1),
            gate(&d, base).and(beats(&d, base, Best::Max, &x, false)),
        );
        let negation_mismatch = Pred::exists(
            0,
            lit(K),
            gate(&d, base).and(beats(&d, base, Best::Max, &x, true)),
        );
        for (label, p) in [
            ("round-robin cdist", rr),
            ("m <= x tie-break", non_strict),
            ("extra conjunct", extra_conjunct),
            ("extra disjunct", extra_disjunct),
            ("tie-break probes another x", split_probe),
            ("non-literal bound", non_literal_bound),
            ("K below MIN_DOMINANCE_K", below_threshold),
            ("exists over the negated test", negation_mismatch),
        ] {
            assert!(!emits_query(&network, &[B], &p), "{label} compiled a query");
        }
        // Ranked cells past the end of the arrays: the loop must keep its
        // out-of-bounds error, so no query (and a parameter-steered check).
        let shifted = shapes(&d, Base::Param, Best::Max, true, 5);
        assert!(emits_query(&network, &[7], &shifted[0].1));
        assert!(!emits_query(&network, &[8], &shifted[0].1));
    }

    /// A state with `ready` mostly 1, keys from `0..4` (many ties) and
    /// `running` anywhere from well below to well past the partition.
    fn random_state(network: &Network, d: &Decls, seed: &mut u64) -> State {
        let mut next = |n: u64| {
            *seed ^= *seed << 13;
            *seed ^= *seed >> 7;
            *seed ^= *seed << 17;
            i64::try_from(*seed % n).unwrap()
        };
        let mut state = State::initial(network);
        let quiet = next(8) == 0;
        for cell in 0..network.array_len(d.ready) {
            let r = network.array_offset(d.ready) + cell;
            state.vars[r] = i64::from(!quiet && next(5) != 0);
            state.vars[network.array_offset(d.key) + cell] = next(4);
        }
        state.vars[d.running.index()] = next(K as u64 + 12) - 6;
        state
    }

    #[test]
    fn queries_equal_the_loop_and_the_ast_on_random_vectors() {
        let (mut nb, d) = builder();
        let probes = [0, 5, lit(K) - 1, lit(K) + 2, lit(K) + 10, -1, -B - 1];
        let mut guards = Vec::new();
        for (_, best, preemptive) in POLICIES {
            for base in [Base::Lit, Base::Folded] {
                for &k in &probes {
                    guards.extend(
                        shapes(&d, base, best, preemptive, k)
                            .into_iter()
                            .map(|(_, p)| p),
                    );
                }
            }
        }
        let mut a = AutomatonBuilder::new("probe");
        let l = a.location("l");
        for p in &guards {
            a.edge(Edge::new(l, l).with_guard(Guard::when(p.clone())));
        }
        let aid = nb.automaton(a.finish(l));
        let network = nb.build().unwrap();
        let compiled = network.compiled();
        assert!(compiled.dominance_queries() >= guards.len());
        let mut seed = 0x9e37_79b9_7f4a_7c15_u64;
        let (mut errors, mut answered) = (0, 0);
        for _ in 0..300 {
            let state = random_state(&network, &d, &mut seed);
            let index = DominanceIndex::build(compiled.rankings(), &state.vars);
            let view = EnvView {
                network: &network,
                state: &state,
            };
            for (e, edge) in network.automaton(aid).edges.iter().enumerate() {
                let eid = EdgeId::from_raw(u32::try_from(e).unwrap());
                let ast = edge.guard.holds(&view, &view);
                let guard = compiled.guard(aid, eid);
                assert_eq!(
                    guard.holds(&state),
                    ast,
                    "edge {e}: unindexed program vs AST"
                );
                let indexed = guard.holds_ranked(state.clock_values(), &state.vars, index.as_ref());
                assert_eq!(indexed, ast, "edge {e}: indexed program vs AST");
                errors += usize::from(ast.is_err());
                answered += usize::from(ast.is_ok());
            }
        }
        assert!(
            errors > 0 && answered > errors,
            "{errors} errors, {answered} answers"
        );
    }
}
