//! The skeleton the verdict cache ([`crate::cache`]) and the checkpoint
//! store ([`crate::checkpoint`]) share: byte-budgeted shards behind their
//! own locks, the LRU tick book, and the one counter path that feeds both a
//! store's own statistics and an attached [`Recorder`].
//!
//! What stays per store is the entry layout and the eviction policy (the
//! checkpoint store evicts delta chains as a unit).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::canon::CacheKey;
use crate::obs::Recorder;

/// The shard count of every store: enough to keep a worker-pool's lock
/// contention negligible without fragmenting small budgets.
pub(crate) const DEFAULT_SHARDS: usize = 16;

/// Fixed bookkeeping cost per entry (map/LRU nodes, key, ticks), on top of
/// the bytes the entry itself holds.
pub(crate) const ENTRY_OVERHEAD: usize = 128;

/// A store's shards: the key's low bits pick one, each sits behind its own
/// mutex, and the total byte budget is split evenly across them.
pub(crate) struct Shards<S> {
    shards: Vec<Mutex<S>>,
    /// Per-shard byte budget (total budget / shard count).
    pub(crate) budget: usize,
}

impl<S: Default> Shards<S> {
    /// `count` shards (0 is clamped to 1) sharing `budget_bytes`.
    pub(crate) fn new(budget_bytes: usize, count: usize) -> Self {
        let count = count.max(1);
        Self {
            shards: (0..count).map(|_| Mutex::default()).collect(),
            budget: budget_bytes / count,
        }
    }
}

impl<S> Shards<S> {
    pub(crate) fn len(&self) -> usize {
        self.shards.len()
    }

    /// Locks the shard owning `key`. The canonical hash's finalizer
    /// spreads entropy across the whole word; the low bits index the shard.
    pub(crate) fn lock(&self, key: CacheKey) -> MutexGuard<'_, S> {
        self.shards[(key.lo as usize) % self.shards.len()]
            .lock()
            .expect("unpoisoned")
    }

    /// Locks every shard in turn (for statistics snapshots).
    pub(crate) fn each(&self) -> impl Iterator<Item = MutexGuard<'_, S>> {
        self.shards.iter().map(|s| s.lock().expect("unpoisoned"))
    }
}

impl<S> std::fmt::Debug for Shards<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shards")
            .field("count", &self.len())
            .field("budget", &self.budget)
            .finish()
    }
}

/// The LRU tick book of one shard: tick → entry id, ordered oldest-first.
/// A touch re-ticks an entry, eviction pops the smallest tick; O(log n)
/// per operation.
pub(crate) struct Lru<K> {
    order: BTreeMap<u64, K>,
    next_tick: u64,
}

impl<K> Default for Lru<K> {
    fn default() -> Self {
        Self {
            order: BTreeMap::new(),
            next_tick: 0,
        }
    }
}

impl<K> Lru<K> {
    /// Records a touch of `id`; returns the tick to store with the entry.
    pub(crate) fn touch(&mut self, id: K) -> u64 {
        let tick = self.next_tick;
        self.next_tick += 1;
        self.order.insert(tick, id);
        tick
    }

    /// Moves `id` from its `old` tick to a fresh one.
    pub(crate) fn retick(&mut self, old: u64, id: K) -> u64 {
        self.order.remove(&old);
        self.touch(id)
    }

    /// Drops the tick of an entry that left the shard.
    pub(crate) fn forget(&mut self, tick: u64) {
        self.order.remove(&tick);
    }

    /// Removes and returns the least recently touched id.
    pub(crate) fn pop_oldest(&mut self) -> Option<K> {
        self.order.pop_first().map(|(_, id)| id)
    }
}

/// The counter path of a store: a count lands in the store's own atomic
/// (what its `stats()` reports) and, when a [`Recorder`] is attached,
/// under the same name in the recorder, so the two can never disagree.
#[derive(Clone, Default)]
pub(crate) struct Tally(Option<Arc<dyn Recorder>>);

impl Tally {
    pub(crate) fn new(recorder: Option<Arc<dyn Recorder>>) -> Self {
        Self(recorder)
    }

    pub(crate) fn attached(&self) -> bool {
        self.0.is_some()
    }

    /// Adds `delta` to `counter` and to the recorder's `name`.
    pub(crate) fn count(&self, counter: &AtomicU64, name: &str, delta: u64) {
        counter.fetch_add(delta, Ordering::Relaxed);
        self.emit(name, delta);
    }

    /// Adds `delta` to the recorder's `name` only (counters no `stats()`
    /// reports, such as the disk tier's `storage.*`).
    pub(crate) fn emit(&self, name: &str, delta: u64) {
        if delta > 0 {
            if let Some(r) = &self.0 {
                r.counter(name, delta);
            }
        }
    }
}
