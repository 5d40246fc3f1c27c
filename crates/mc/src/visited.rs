//! The visited-state store both explorers share.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of shards (indexed by fingerprint).
const SHARDS: usize = 64;

/// A visited set of state fingerprints, split into [`SHARDS`] tables.
///
/// The parallel explorer's workers insert concurrently, each locking one
/// shard. The sequential explorer owns the set and inserts through
/// [`insert_mut`](Self::insert_mut), which takes no lock.
///
/// Sharding also bounds memory: a rehash copies one small table, never the
/// whole set, so peak memory stays near the final set size, and an
/// exploration that follows another in the same process reuses the freed
/// tables. A single doubling table leaves its outgrown halves resident in
/// the allocator, so the second run's peak would exceed the first's.
pub(crate) struct VisitedSet {
    shards: Vec<Mutex<HashSet<u64>>>,
    len: AtomicUsize,
}

impl Default for VisitedSet {
    fn default() -> Self {
        VisitedSet {
            shards: (0..SHARDS).map(|_| Mutex::default()).collect(),
            len: AtomicUsize::new(0),
        }
    }
}

impl VisitedSet {
    fn shard(fingerprint: u64) -> usize {
        usize::try_from(fingerprint).unwrap_or(0) % SHARDS
    }

    /// Adds `fingerprint` from any thread; `true` when it was not present.
    pub(crate) fn insert(&self, fingerprint: u64) -> bool {
        let mut shard = self.shards[Self::shard(fingerprint)]
            .lock()
            .expect("unpoisoned shard");
        let fresh = shard.insert(fingerprint);
        if fresh {
            self.len.fetch_add(1, Ordering::Relaxed);
        }
        fresh
    }

    /// Adds `fingerprint` with exclusive access, without locking; `true`
    /// when it was not present.
    pub(crate) fn insert_mut(&mut self, fingerprint: u64) -> bool {
        let shard = self.shards[Self::shard(fingerprint)]
            .get_mut()
            .expect("unpoisoned shard");
        let fresh = shard.insert(fingerprint);
        *self.len.get_mut() += usize::from(fresh);
        fresh
    }

    /// Distinct fingerprints inserted so far.
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visited_set_counts_distinct_fingerprints_across_shards() {
        let mut visited = VisitedSet::default();
        let fingerprints: Vec<u64> = (0..1000u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        for &fp in &fingerprints {
            assert!(visited.insert_mut(fp));
        }
        for &fp in &fingerprints {
            assert!(!visited.insert_mut(fp));
            assert!(!visited.insert(fp), "both paths see one set");
        }
        assert_eq!(visited.len(), fingerprints.len());
        let used = visited
            .shards
            .iter()
            .filter(|s| !s.lock().unwrap().is_empty())
            .count();
        assert!(used > 1);
    }
}
