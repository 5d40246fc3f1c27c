//! The dominance index: tournament trees that answer the scheduler's
//! "does a ready task beat `x`" quantifiers without walking the partition.
//!
//! A scheduler's dispatch, preempt and continue guards quantify over the
//! `K` cells `b..b+K` of a *gate* array `R` and a *key* array `A`:
//!
//! ```text
//! ∃m∈[0,K): R[b+m]==lit ∧ (A[b+m] ≻ A[b+x] ∨ (A[b+m]==A[b+x] ∧ m<x))
//! ```
//!
//! (and its negation `∀m: R[b+m]≠lit ∨ ¬(…)`), where `≻` is `>` for a
//! [`Best::Max`] ranking (FPPS/FPNPS priorities) and `<` for a
//! [`Best::Min`] one (EDF deadlines). "`m` beats `x`" is the strict total
//! order `(A, −index)` under `≻`, which makes sense for any integer `x`,
//! so the quantifier holds iff the best gated cell exists and beats `x`.
//! A [`Tree`] keeps that best cell at its root: reading it is `O(1)`, and
//! re-keying one cell after a store costs `O(log K)`. The same root answers
//! `∀m: R[b+m]≠lit` ("no cell is gated").
//!
//! The compiler (`bytecode.rs`) emits one `Op::Dominance` query in front of
//! each recognised quantifier and keeps the loop behind it as the fallback;
//! the trees live in the fast loop (`fastsim.rs`), which builds them from
//! the state and re-keys the leaves each transition's updates may write.

use crate::ids::ArrayId;

/// Which end of the key order wins a ranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Best {
    /// The largest key wins (fixed priorities).
    Max,
    /// The smallest key wins (absolute deadlines).
    Min,
}

impl Best {
    /// `v` mapped so that "wins" is "larger": bitwise not reverses the
    /// `i64` order exactly, with no overflow at the extremes.
    #[inline]
    fn order(self, v: i64) -> i64 {
        match self {
            Self::Max => v,
            Self::Min => !v,
        }
    }
}

/// The key array of a ranking: its id, first state slot and length, and
/// which end of its order wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Key {
    pub(crate) array: ArrayId,
    pub(crate) base: u32,
    pub(crate) len: u32,
    pub(crate) best: Best,
}

/// The cells one tree ranks: leaf `i` is cell `b + i` of the gate and key
/// arrays, gated iff `vars[gate_base + b + i] == lit`. A ranking without a
/// key only answers "no cell is gated".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Ranking {
    pub(crate) gate: ArrayId,
    pub(crate) gate_base: u32,
    pub(crate) lit: i64,
    pub(crate) key: Option<Key>,
    pub(crate) b: u32,
    pub(crate) k: u32,
}

impl Ranking {
    /// Whether a store to `array` can change this ranking.
    pub(crate) fn watches(&self, array: ArrayId) -> bool {
        self.gate == array || self.key.is_some_and(|k| k.array == array)
    }
}

/// What a dominance query answers about the best gated cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Query {
    /// `∃m: gated(m) ∧ m beats x`.
    Beaten,
    /// `∀m: ¬gated(m) ∨ ¬(m beats x)`.
    Unbeaten,
    /// `∀m: ¬gated(m)`.
    NoneGated,
}

/// A winner slot holding no gated leaf.
const NONE: u32 = u32::MAX;

/// A tournament tree over one [`Ranking`]'s cells.
#[derive(Debug)]
struct Tree {
    ranking: Ranking,
    /// Leaf count rounded up to a power of two.
    width: usize,
    /// Per leaf, its key mapped by [`Best::order`] (0 without a key).
    keys: Vec<i64>,
    /// Per node in heap order (root 1, leaf `i` at `width + i`), the
    /// winning leaf below it, or [`NONE`].
    win: Vec<u32>,
}

impl Tree {
    fn new(ranking: Ranking, vars: &[i64]) -> Self {
        let k = ranking.k as usize;
        let width = k.next_power_of_two();
        let mut tree = Self {
            ranking,
            width,
            keys: vec![0; k],
            win: vec![NONE; 2 * width],
        };
        tree.rebuild(vars);
        tree
    }

    fn rebuild(&mut self, vars: &[i64]) {
        for i in 0..self.keys.len() {
            self.load(i, vars);
        }
        for n in (1..self.width).rev() {
            self.win[n] = self.better(self.win[2 * n], self.win[2 * n + 1]);
        }
    }

    /// Reads leaf `i`'s gate and key from the state.
    #[inline]
    fn load(&mut self, i: usize, vars: &[i64]) {
        let r = &self.ranking;
        let cell = r.b as usize + i;
        if let Some(key) = r.key {
            self.keys[i] = key.best.order(vars[key.base as usize + cell]);
        }
        let gated = vars[r.gate_base as usize + cell] == r.lit;
        self.win[self.width + i] = if gated {
            u32::try_from(i).expect("leaf fits u32")
        } else {
            NONE
        };
    }

    /// Re-keys leaf `i` and replays its matches towards the root. Once a
    /// node keeps its winner and that winner is not leaf `i` (whose key
    /// may have changed), nothing above it can change.
    fn rekey(&mut self, i: usize, vars: &[i64]) {
        self.load(i, vars);
        let leaf = u32::try_from(i).expect("leaf fits u32");
        let mut n = (self.width + i) / 2;
        while n > 0 {
            let w = self.better(self.win[2 * n], self.win[2 * n + 1]);
            if w == self.win[n] && w != leaf {
                break;
            }
            self.win[n] = w;
            n /= 2;
        }
    }

    /// The winner of a match between a left and a right subtree's
    /// winners. Every leaf on the left has the lower index, so a key tie
    /// goes left.
    #[inline]
    fn better(&self, l: u32, r: u32) -> u32 {
        if r == NONE {
            l
        } else if l == NONE || self.keys[r as usize] > self.keys[l as usize] {
            r
        } else {
            l
        }
    }
}

/// One [`Tree`] per ranking of a compiled network, kept in step with the
/// state by the fast loop.
#[derive(Debug)]
pub(crate) struct DominanceIndex {
    trees: Vec<Tree>,
    /// The distinct arrays the trees rank.
    arrays: Vec<ArrayId>,
}

impl DominanceIndex {
    /// Builds the trees of `rankings` from the state's variables, or
    /// `None` when there are none.
    pub(crate) fn build(rankings: &[Ranking], vars: &[i64]) -> Option<Self> {
        let mut arrays: Vec<ArrayId> = rankings
            .iter()
            .flat_map(|r| [Some(r.gate), r.key.map(|k| k.array)])
            .flatten()
            .collect();
        arrays.sort_unstable();
        arrays.dedup();
        (!rankings.is_empty()).then(|| Self {
            trees: rankings.iter().map(|&r| Tree::new(r, vars)).collect(),
            arrays,
        })
    }

    /// Whether a store to `array` can change any tree.
    pub(crate) fn watches(&self, array: ArrayId) -> bool {
        self.arrays.contains(&array)
    }

    /// Re-keys the trees after a store to cell `index` of `array`; with
    /// `None` (an index not known statically) every tree over `array` is
    /// rebuilt.
    pub(crate) fn stored(&mut self, array: ArrayId, index: Option<i64>, vars: &[i64]) {
        for tree in &mut self.trees {
            let r = tree.ranking;
            if !r.watches(array) {
                continue;
            }
            match index {
                None => tree.rebuild(vars),
                Some(i) => {
                    let leaf = i
                        .checked_sub(i64::from(r.b))
                        .and_then(|l| usize::try_from(l).ok());
                    if let Some(leaf) = leaf.filter(|&l| l < r.k as usize) {
                        tree.rekey(leaf, vars);
                    }
                }
            }
        }
    }

    /// The leaf tree `tree` ranks best (the best gated cell, a key tie
    /// going to the lower index), or `None` when no cell is gated.
    #[inline]
    pub(crate) fn winner(&self, tree: u32) -> Option<u32> {
        let best = self.trees[tree as usize].win[1];
        (best != NONE).then_some(best)
    }

    /// Answers `query` over tree `tree` for the probed cell `b + x`, with
    /// `x = vars[x_slot] + x_add` (or `x_add` alone without a slot).
    /// `None` when `x` or `b + x` overflows or `b + x` falls outside the
    /// key array: the quantifier's own loop then decides, and raises the
    /// error it raises.
    #[inline]
    pub(crate) fn answer(
        &self,
        tree: u32,
        query: Query,
        (b, x_slot, x_add): (i64, Option<u32>, i64),
        vars: &[i64],
    ) -> Option<bool> {
        let t = &self.trees[tree as usize];
        let best = t.win[1];
        if query == Query::NoneGated {
            return Some(best == NONE);
        }
        let x = match x_slot {
            Some(slot) => vars[slot as usize].checked_add(x_add)?,
            None => x_add,
        };
        let key = t.ranking.key?;
        let at = b.checked_add(x)?;
        let at = usize::try_from(at).ok().filter(|&i| i < key.len as usize)?;
        let beaten = best != NONE && {
            let (kb, kx) = (
                t.keys[best as usize],
                key.best.order(vars[key.base as usize + at]),
            );
            kb > kx || (kb == kx && i64::from(best) < x)
        };
        Some(beaten == (query == Query::Beaten))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranking(best: Best, k: u32) -> Ranking {
        // Gate cells at slots 0.., keys at slots 100..; the tree covers
        // cells 2..2+k.
        Ranking {
            gate: ArrayId::from_raw(0),
            gate_base: 0,
            lit: 1,
            key: Some(Key {
                array: ArrayId::from_raw(1),
                base: 100,
                len: 100,
                best,
            }),
            b: 2,
            k,
        }
    }

    /// The winner by a plain scan, for comparison.
    fn scan(r: &Ranking, vars: &[i64]) -> u32 {
        let key = r.key.unwrap();
        let mut best = NONE;
        for i in 0..r.k {
            let cell = (r.b + i) as usize;
            if vars[r.gate_base as usize + cell] != r.lit {
                continue;
            }
            let v = key.best.order(vars[key.base as usize + cell]);
            if best == NONE
                || v > key
                    .best
                    .order(vars[key.base as usize + (r.b + best) as usize])
            {
                best = i;
            }
        }
        best
    }

    #[test]
    fn root_tracks_the_best_gated_leaf_through_rekeys() {
        let mut seed = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for best in [Best::Max, Best::Min] {
            for k in [1, 2, 5, 27, 64, 100 - 2] {
                let r = ranking(best, k);
                let mut vars = vec![0i64; 200];
                for v in &mut vars[..100] {
                    *v = i64::from(next() % 4 != 0);
                }
                for v in &mut vars[100..] {
                    *v = (next() % 5) as i64;
                }
                let mut index = DominanceIndex::build(&[r], &vars).unwrap();
                assert_eq!(index.trees[0].win[1], scan(&r, &vars));
                for _ in 0..200 {
                    let leaf = (next() % u64::from(k)) as u32;
                    let cell = (r.b + leaf) as usize;
                    if next() % 2 == 0 {
                        vars[cell] = i64::from(vars[cell] == 0);
                    } else {
                        vars[100 + cell] = (next() % 5) as i64;
                    }
                    let array = ArrayId::from_raw(u32::try_from(next() % 2).unwrap());
                    let cell = i64::from(r.b + leaf);
                    let at = (next() % 16 != 0).then_some(cell);
                    index.stored(array, at, &vars);
                    assert_eq!(index.trees[0].win[1], scan(&r, &vars), "{best:?} k={k}");
                }
            }
        }
    }

    #[test]
    fn out_of_range_probes_defer_to_the_loop() {
        let r = ranking(Best::Max, 27);
        let vars = vec![1i64; 200];
        let index = DominanceIndex::build(&[r], &vars).unwrap();
        let q = |x: i64| index.answer(0, Query::Beaten, (2, None, x), &vars);
        assert_eq!(q(-3), None, "b + x below the key array");
        assert_eq!(q(98), None, "b + x past the key array");
        assert_eq!(q(i64::MAX), None, "b + x overflows");
        // Inside the array but outside the ranked cells: every ranked
        // cell ties on the key, and cell 0 precedes x = 40.
        assert_eq!(q(40), Some(true));
        assert_eq!(q(-2), Some(false));
        assert_eq!(
            index.answer(0, Query::Beaten, (2, Some(150), i64::MAX), &vars),
            None,
            "x itself overflows"
        );
    }
}
