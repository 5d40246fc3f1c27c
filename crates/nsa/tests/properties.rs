//! Seeded property checks of the formalism's core invariants: exact
//! enabling-window computation, invariant delay bounds, quantifier
//! semantics, and the event-driven simulator against a brute-force oracle.

use swa_nsa::automaton::{AutomatonBuilder, Edge};
use swa_nsa::expr::{CmpOp, IntExpr, Pred, VarEnv};
use swa_nsa::guard::{ClockAtom, ClockEnv, DelayWindow, Guard, Invariant};
use swa_nsa::ids::{ArrayId, ClockId, VarId};
use swa_nsa::network::NetworkBuilder;
use swa_nsa::sim::Simulator;
use swa_nsa::update::Update;
use swa_nsa::EvalError;
use swa_workload::rng::Rng64;

const CASES: usize = 256;

/// A uniform draw from `[lo, hi)`.
fn draw(rng: &mut Rng64, lo: i64, hi: i64) -> i64 {
    lo + i64::try_from(rng.gen_range(usize::try_from(hi - lo).unwrap())).unwrap()
}

/// Test environment with one clock and one array.
struct Env {
    clock: i64,
    running: bool,
    arr: Vec<i64>,
}

impl Env {
    fn clock_at(clock: i64, running: bool) -> Self {
        Self {
            clock,
            running,
            arr: vec![],
        }
    }
}

impl ClockEnv for Env {
    fn clock(&self, _c: ClockId) -> i64 {
        self.clock
    }
    fn is_running(&self, _c: ClockId) -> bool {
        self.running
    }
}

impl VarEnv for Env {
    fn var(&self, _v: VarId) -> i64 {
        0
    }
    fn array_len(&self, _a: ArrayId) -> usize {
        self.arr.len()
    }
    fn elem(&self, a: ArrayId, index: i64) -> Result<i64, EvalError> {
        usize::try_from(index)
            .ok()
            .and_then(|i| self.arr.get(i))
            .copied()
            .ok_or(EvalError::IndexOutOfBounds {
                array: a.raw(),
                index,
                len: self.arr.len(),
            })
    }
}

const CMP_OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// `delay_window` is exactly the set of delays after which the atom holds
/// (checked against brute force over a window of delays).
#[test]
fn clock_atom_window_matches_brute_force() {
    let mut rng = Rng64::seed_from_u64(1);
    for _ in 0..CASES {
        let value = draw(&mut rng, 0, 30);
        let running = rng.gen_bool(0.5);
        let op = CMP_OPS[rng.gen_range(CMP_OPS.len())];
        let rhs = draw(&mut rng, 0, 30);
        let atom = ClockAtom::new(ClockId::from_raw(0), op, rhs);
        let env = Env::clock_at(value, running);
        let window = atom.delay_window(&env, &env).unwrap();
        for d in 0..70i64 {
            let future = Env::clock_at(if running { value + d } else { value }, running);
            let holds = atom.holds(&future, &future).unwrap();
            let in_window = window.is_some_and(|w| w.contains(d));
            let case = format!("op {op:?} value {value} rhs {rhs} running {running} delay {d}");
            if op == CmpOp::Ne {
                // `Ne` uses a conservative interval approximation, which
                // must still be sound: window ⊆ holds.
                assert!(!in_window || holds, "{case}");
            } else {
                assert_eq!(holds, in_window, "{case}");
            }
        }
    }
}

/// Window intersection is exactly conjunction of membership, and
/// commutative.
#[test]
fn window_intersection_is_conjunction() {
    let mut rng = Rng64::seed_from_u64(2);
    let window = |rng: &mut Rng64| {
        let lo = draw(rng, 0, 20);
        let len = draw(rng, 0, 20);
        if rng.gen_bool(0.5) {
            DelayWindow::unbounded(lo)
        } else {
            DelayWindow::bounded(lo, lo + len)
        }
    };
    for _ in 0..CASES {
        let (w1, w2) = (window(&mut rng), window(&mut rng));
        let both = w1.intersect(w2);
        assert_eq!(both, w2.intersect(w1), "{w1:?} {w2:?}");
        for probe in 0..60 {
            assert_eq!(
                both.is_some_and(|w| w.contains(probe)),
                w1.contains(probe) && w2.contains(probe),
                "{w1:?} {w2:?} at {probe}"
            );
        }
    }
}

/// The invariant's max delay is the largest delay that keeps it true.
#[test]
fn invariant_max_delay_is_tight() {
    for value in 0..30 {
        for bound in 0..40 {
            let inv = Invariant::upper_bound(ClockId::from_raw(0), bound);
            let env = Env::clock_at(value, true);
            match inv.max_delay(&env, &env).unwrap() {
                Some(d) if d >= 0 => {
                    let at = Env::clock_at(value + d, true);
                    assert!(inv.holds(&at, &at).unwrap(), "{value} {bound}");
                    let past = Env::clock_at(value + d + 1, true);
                    assert!(!inv.holds(&past, &past).unwrap(), "{value} {bound}");
                }
                Some(_) => assert!(!inv.holds(&env, &env).unwrap(), "{value} {bound}"),
                None => panic!("running-clock invariant must bound delay"),
            }
        }
    }
}

/// `forall` over an array equals the min-based formulation; `exists`
/// equals the max-based one.
#[test]
fn quantifiers_match_min_max() {
    let mut rng = Rng64::seed_from_u64(4);
    let a0 = ArrayId::from_raw(0);
    for _ in 0..CASES {
        let arr: Vec<i64> = (0..1 + rng.gen_range(7))
            .map(|_| draw(&mut rng, -20, 20))
            .collect();
        let k = draw(&mut rng, -25, 25);
        let n = i64::try_from(arr.len()).unwrap();
        let env = Env {
            clock: 0,
            running: true,
            arr: arr.clone(),
        };
        let all_ge = Pred::forall(0, n, IntExpr::elem(a0, IntExpr::bound(0)).ge(k));
        let min = *arr.iter().min().unwrap();
        assert_eq!(all_ge.eval(&env).unwrap(), min >= k, "{arr:?} {k}");
        let some_ge = Pred::exists(0, n, IntExpr::elem(a0, IntExpr::bound(0)).ge(k));
        let max = *arr.iter().max().unwrap();
        assert_eq!(some_ge.eval(&env).unwrap(), max >= k, "{arr:?} {k}");
    }
}

/// Guard enabling windows respect conjunction: the guard holds after
/// delay `d` iff `d` is in the computed window (var-free guards).
#[test]
fn guard_window_is_exact() {
    let mut rng = Rng64::seed_from_u64(5);
    let c = ClockId::from_raw(0);
    for _ in 0..CASES {
        let (value, lo, hi_off) = (
            draw(&mut rng, 0, 20),
            draw(&mut rng, 0, 25),
            draw(&mut rng, 0, 25),
        );
        let guard = Guard::always()
            .and_clock(ClockAtom::new(c, CmpOp::Ge, lo))
            .and_clock(ClockAtom::new(c, CmpOp::Le, lo + hi_off));
        let env = Env::clock_at(value, true);
        let window = guard.enabling_window(&env, &env).unwrap();
        for d in 0..60i64 {
            let future = Env::clock_at(value + d, true);
            assert_eq!(
                guard.holds(&future, &future).unwrap(),
                window.is_some_and(|w| w.contains(d)),
                "value {value} guard [{lo}, {}] delay {d}",
                lo + hi_off
            );
        }
    }
}

/// Brute-force oracle for a set of periodic tickers: the merged, sorted
/// multiset of all multiples of each period below the horizon.
fn ticker_oracle(periods: &[i64], horizon: i64) -> Vec<i64> {
    let mut times = Vec::new();
    for &p in periods {
        times.extend((1..).map(|k| k * p).take_while(|&t| t < horizon));
    }
    times.sort_unstable();
    times
}

/// The event-driven simulator fires periodic tickers at exactly the times
/// a brute-force oracle predicts, regardless of period mixes.
#[test]
fn simulator_matches_ticker_oracle() {
    let mut rng = Rng64::seed_from_u64(6);
    for _ in 0..64 {
        let periods: Vec<i64> = (0..1 + rng.gen_range(4))
            .map(|_| draw(&mut rng, 1, 12))
            .collect();
        let horizon = draw(&mut rng, 1, 80);
        let mut nb = NetworkBuilder::new();
        for (i, &p) in periods.iter().enumerate() {
            let c = nb.clock(format!("c{i}"));
            let mut b = AutomatonBuilder::new(format!("t{i}"));
            let l0 = b.location_with_invariant("wait", Invariant::upper_bound(c, p));
            b.edge(
                Edge::new(l0, l0)
                    .with_guard(Guard::always().and_clock(ClockAtom::new(c, CmpOp::Ge, p)))
                    .with_update(Update::ResetClock(c)),
            );
            nb.automaton(b.finish(l0));
        }
        let network = nb.build().unwrap();
        let out = Simulator::new(&network).horizon(horizon).run().unwrap();
        let times: Vec<i64> = out.trace.iter().map(|e| e.time).collect();
        assert_eq!(
            times,
            ticker_oracle(&periods, horizon),
            "periods {periods:?} horizon {horizon}"
        );
    }
}
