//! The checkpoint store: warm-starting repeated simulations of one
//! configuration.
//!
//! The verdict cache ([`crate::cache`]) answers *exact* duplicates in
//! O(1). This store serves the next-cheapest case: the same configuration
//! simulated **again to a further horizon** — the search tool validating a
//! winner over a longer span, a service client extending an earlier
//! analysis, the repair loop revisiting a candidate. Instead of replaying
//! from t = 0, the analyzer resumes a [`Snapshot`] taken at the end of the
//! earlier run and simulates only the missing suffix (the reuse-of-shared-
//! prefixes idea of compositional re-analysis, applied to the paper's
//! single-run setting).
//!
//! A checkpoint is keyed by the **configuration's canonical bytes**
//! ([`crate::canon::canonical_config`]) — deliberately *not* by the request
//! (configuration + horizon) key, so one configuration owns a ladder of
//! checkpoints at increasing simulated times and
//! [`CheckpointStore::lookup_latest`] picks the latest one not past the
//! requested horizon. Keying by exact canonical bytes is sound because the
//! system model is rebuilt per analysis anyway and a snapshot is only ever
//! resumed into a model of the *same* configuration; sharing prefixes
//! across *near*-identical configurations would require proving trajectory
//! equality under perturbation and is intentionally out of scope.
//!
//! Budgeting, sharding and counting run the same code as the verdict
//! cache (a crate-private skeleton both stores share): byte-budget LRU
//! per shard and `checkpoint.*` counters through an attached
//! [`Recorder`]. Collision handling follows the same contract: full
//! canonical-byte comparison on every hit, so a 128-bit collision costs a
//! miss, never a wrong resume. What is this store's own is the entry
//! layout (delta-encoded ladders) and eviction, which drops a delta
//! chain's dependents with its base.
//!
//! Durability is a tier inside the store, as for the verdict cache: a
//! store opened through [`open_state_dir`](crate::storage::open_state_dir)
//! consults its disk ladder on a memory miss, and also when the disk may
//! hold a later usable rung than memory. A disk rung is promoted into
//! memory, and the lookup is counted once — as a hit, and as a full hit
//! when the rung covers the requested horizon.
//!
//! Invalidation: a checkpoint is valid for exactly the configuration whose
//! canonical bytes it was stored under — any configuration edit changes
//! the key and naturally orphans the old entries until the LRU reclaims
//! them. Snapshots additionally self-describe their network shape, and
//! resuming validates it, so even a store misuse cannot resume a snapshot
//! into a mismatched model.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use swa_nsa::{NsaTrace, Snapshot, StopReason, SyncEvent};

use crate::canon::{CacheKey, CanonicalConfig};
use crate::delta;
use crate::obs::Recorder;
use crate::storage::{
    decode_checkpoint, encode_checkpoint, CheckpointIndex, DiskTier, StorageOptions,
};
use crate::store::{Lru, Shards, Tally, DEFAULT_SHARDS, ENTRY_OVERHEAD};

/// One stored simulation prefix: the snapshot to resume from plus the NSA
/// events that led to it.
///
/// The full event prefix is stored (not just the state) because the system
/// trace extraction ([`crate::sysevents`]) is not prefix-compositional:
/// job attribution carries state across events, so the analyzer always
/// extracts from `prefix ++ suffix`, never from a suffix alone.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The resumable simulator snapshot (taken at the run's stop time).
    pub snapshot: Snapshot,
    /// Every NSA event from t = 0 up to the snapshot instant.
    pub prefix: NsaTrace,
    /// Why the checkpointed run stopped.
    pub stop: StopReason,
}

impl Checkpoint {
    /// The simulated time the checkpoint was taken at.
    #[must_use]
    pub fn time(&self) -> i64 {
        self.snapshot.time()
    }

    /// Approximate heap footprint, for the store's byte budget. Trace
    /// events are costed at a fixed estimate per event (transitions are
    /// small enums; broadcast receiver lists are rare and short in the
    /// paper's models).
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.snapshot.approx_bytes() + self.prefix.len() * (std::mem::size_of::<SyncEvent>() + 16)
    }
}

/// Counter snapshot of a checkpoint store's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Lookups answered with a checkpoint (full or partial).
    pub hits: u64,
    /// Hits whose checkpoint already covers the requested horizon (no
    /// simulation needed at all).
    pub full_hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Checkpoints inserted.
    pub insertions: u64,
    /// Checkpoints evicted to honor the byte budget.
    pub evictions: u64,
    /// Checkpoints currently resident.
    pub entries: usize,
    /// Bytes currently charged against the budget.
    pub bytes: usize,
    /// Bytes the delta encoding avoided charging, accumulated over all
    /// delta-encoded insertions (full cost minus encoded cost).
    pub bytes_saved: u64,
    /// Chain lengths of delta-encoded insertions, accumulated (divide by
    /// the number of delta insertions for the average rung depth).
    pub delta_chain_len: u64,
}

impl CheckpointStats {
    /// Hit rate over all lookups (0.0 when nothing was looked up).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A checkpoint store: the abstraction the analyzer, the search loop and
/// the server inject. Implementations must be thread-safe.
pub trait CheckpointStore: Send + Sync {
    /// Returns the latest checkpoint of `config` taken at or before
    /// `max_time`, if any.
    fn lookup_latest(&self, config: &CanonicalConfig, max_time: i64) -> Option<Arc<Checkpoint>>;

    /// Stores a checkpoint of `config` (replacing any previous checkpoint
    /// at the same simulated time).
    fn insert(&self, config: &CanonicalConfig, checkpoint: Arc<Checkpoint>);

    /// A snapshot of the store's activity counters.
    fn stats(&self) -> CheckpointStats;
}

/// Longest permitted chain of deltas below one full checkpoint. Bounds
/// both reconstruction work (a lookup decodes at most this many deltas)
/// and the blast radius of an eviction cascade; the next rung after a
/// full chain is stored full again.
const MAX_DELTA_CHAIN: u8 = 8;

/// How one resident checkpoint is encoded.
///
/// Nothing is resident in expanded form: even chain roots hold the
/// serialized snapshot plus the varint-packed event stream (a few bytes
/// per event instead of an in-memory [`SyncEvent`]), and every lookup
/// reconstructs. Decoding is linear in the trace length and is paid only
/// on a hit, where it is dwarfed by the simulation work the hit avoids.
enum Enc {
    /// The root of a delta chain: self-contained encoded bytes.
    Full {
        stop: StopReason,
        snap: Box<[u8]>,
        events: Box<[u8]>,
        n_events: u32,
    },
    /// Stored as a delta against the ladder entry at `base_time` (see
    /// [`crate::delta`]): the snapshot as a word-delta of its serialized
    /// bytes, the trace as only the event suffix beyond the base's
    /// prefix. Reconstruction walks `base_time` links down to a
    /// [`Enc::Full`] root.
    Delta {
        base_time: i64,
        /// Rungs between this entry and its full root (root delta = 1).
        chain: u8,
        stop: StopReason,
        snap_delta: Box<[u8]>,
        events: Box<[u8]>,
        n_events: u32,
    },
}

/// One resident checkpoint entry.
struct Entry {
    enc: Enc,
    /// The LRU tick of the entry's last touch.
    tick: u64,
    /// Bytes charged against the shard budget.
    cost: usize,
}

impl Entry {
    fn chain(&self) -> u8 {
        match &self.enc {
            Enc::Full { .. } => 0,
            Enc::Delta { chain, .. } => *chain,
        }
    }
}

/// All checkpoints of one configuration, ordered by simulated time.
struct Slot {
    /// Full canonical bytes, compared on lookup so collisions are inert.
    canon: Box<[u8]>,
    by_time: BTreeMap<i64, Entry>,
}

impl Slot {
    /// Reconstructs the checkpoint stored at `time`, decoding delta
    /// chains recursively (depth ≤ [`MAX_DELTA_CHAIN`]). Returns `None`
    /// for an absent entry or — defensively — an undecodable delta; the
    /// insert-time verification makes the latter unreachable for entries
    /// this store produced.
    fn reconstruct(&self, time: i64) -> Option<Arc<Checkpoint>> {
        let entry = self.by_time.get(&time)?;
        match &entry.enc {
            Enc::Full {
                stop,
                snap,
                events,
                n_events,
            } => {
                let snapshot = Snapshot::from_bytes(snap).ok()?;
                let prefix = delta::decode_events(events, 0, *n_events as usize)?
                    .into_iter()
                    .collect();
                Some(Arc::new(Checkpoint {
                    snapshot,
                    prefix,
                    stop: *stop,
                }))
            }
            Enc::Delta {
                base_time,
                stop,
                snap_delta,
                events,
                n_events,
                ..
            } => {
                let base = self.reconstruct(*base_time)?;
                let bytes = delta::apply_bytes(&base.snapshot.to_bytes(), snap_delta)?;
                let snapshot = Snapshot::from_bytes(&bytes).ok()?;
                let prev_time = base.prefix.events().last().map_or(0, |e| e.time);
                let suffix = delta::decode_events(events, prev_time, *n_events as usize)?;
                let mut prefix = base.prefix.clone();
                prefix.extend(suffix);
                Some(Arc::new(Checkpoint {
                    snapshot,
                    prefix,
                    stop: *stop,
                }))
            }
        }
    }

    /// Attempts to encode `checkpoint` as a delta against the entry at
    /// `base_time`. Requires the base's event prefix to be an *exact*
    /// prefix of the new one (verified event-by-event — a delta is never
    /// stored on faith) and the serialized snapshots to have equal
    /// length.
    fn encode_delta(&self, base_time: i64, checkpoint: &Checkpoint) -> Option<Enc> {
        let base = self.reconstruct(base_time)?;
        let base_events = base.prefix.events();
        let new_events = checkpoint.prefix.events();
        if new_events.len() < base_events.len() || new_events[..base_events.len()] != *base_events {
            return None;
        }
        let snap_delta =
            delta::diff_bytes(&base.snapshot.to_bytes(), &checkpoint.snapshot.to_bytes())?;
        let suffix = &new_events[base_events.len()..];
        let n_events = u32::try_from(suffix.len()).ok()?;
        let prev_time = base_events.last().map_or(0, |e| e.time);
        let chain = self.by_time.get(&base_time)?.chain().checked_add(1)?;
        Some(Enc::Delta {
            base_time,
            chain,
            stop: checkpoint.stop,
            snap_delta: snap_delta.into_boxed_slice(),
            events: delta::encode_events(suffix, prev_time).into_boxed_slice(),
            n_events,
        })
    }
}

/// Encodes a checkpoint as a self-contained full entry. `None` only when
/// the trace length exceeds `u32::MAX` events — a checkpoint that large
/// could never fit a realistic shard budget anyway.
fn encode_full(checkpoint: &Checkpoint) -> Option<(Enc, usize)> {
    let events = checkpoint.prefix.events();
    let n_events = u32::try_from(events.len()).ok()?;
    let snap = checkpoint.snapshot.to_bytes().into_boxed_slice();
    let events = delta::encode_events(events, 0).into_boxed_slice();
    let cost = snap.len() + events.len() + ENTRY_OVERHEAD;
    Some((
        Enc::Full {
            stop: checkpoint.stop,
            snap,
            events,
            n_events,
        },
        cost,
    ))
}

/// One shard: configuration slots plus a per-entry LRU, behind one lock.
#[derive(Default)]
struct Shard {
    map: HashMap<CacheKey, Slot>,
    /// Entries are identified by (config key, checkpoint time).
    lru: Lru<(CacheKey, i64)>,
    bytes: usize,
}

impl Shard {
    /// Removes a whole slot, uncharging every entry and the canon bytes;
    /// returns how many checkpoints were dropped.
    fn remove_slot(&mut self, key: CacheKey) -> u64 {
        let Some(slot) = self.map.remove(&key) else {
            return 0;
        };
        self.bytes -= slot.canon.len();
        let mut dropped = 0;
        for entry in slot.by_time.values() {
            self.lru.forget(entry.tick);
            self.bytes -= entry.cost;
            dropped += 1;
        }
        dropped
    }

    /// Removes the entry of `key` at `time` together with every delta
    /// that (transitively) decodes against it — a delta must never
    /// outlive its base. Returns how many checkpoints were removed.
    fn remove_cascading(&mut self, key: CacheKey, time: i64) -> u64 {
        let Some(slot) = self.map.get(&key) else {
            return 0;
        };
        // A delta's base is always strictly earlier, so one ascending
        // pass over the later entries finds the whole dependent closure.
        let mut doomed = vec![time];
        for (&t, entry) in slot.by_time.range(time.wrapping_add(1)..) {
            if let Enc::Delta { base_time, .. } = &entry.enc {
                if doomed.contains(base_time) {
                    doomed.push(t);
                }
            }
        }
        let slot = self.map.get_mut(&key).expect("slot present");
        let mut dropped = 0;
        for t in doomed {
            if let Some(entry) = slot.by_time.remove(&t) {
                self.lru.forget(entry.tick);
                self.bytes -= entry.cost;
                dropped += 1;
            }
        }
        if slot.by_time.is_empty() {
            self.bytes -= slot.canon.len();
            self.map.remove(&key);
        }
        dropped
    }

    /// Evicts oldest entries until the shard fits its budget; returns how
    /// many checkpoints were evicted. Evicting a delta chain's base takes
    /// the dependent deltas with it, so an LRU step can free more than
    /// one entry.
    fn evict_to(&mut self, budget: usize) -> u64 {
        let mut evicted = 0;
        while self.bytes > budget {
            let Some((key, time)) = self.lru.pop_oldest() else {
                break;
            };
            evicted += self.remove_cascading(key, time);
        }
        evicted
    }
}

/// A sharded, byte-budgeted, LRU [`CheckpointStore`], optionally durable:
/// opened through [`open_state_dir`](crate::storage::open_state_dir) it
/// keeps a disk tier under the memory tier.
pub struct ShardedCheckpointStore {
    shards: Shards<Shard>,
    disk: Option<DiskTier<CheckpointIndex>>,
    tally: Tally,
    hits: AtomicU64,
    full_hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    bytes_saved: AtomicU64,
    delta_chain_len: AtomicU64,
}

impl std::fmt::Debug for ShardedCheckpointStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCheckpointStore")
            .field("shards", &self.shards)
            .field("durable", &self.disk.is_some())
            .field("recorder", &self.tally.attached())
            .finish()
    }
}

impl ShardedCheckpointStore {
    /// A memory-only store with the given total byte budget.
    #[must_use]
    pub fn new(budget_bytes: usize) -> Self {
        Self::with_shards(budget_bytes, DEFAULT_SHARDS)
    }

    /// A store with an explicit shard count (≥ 1; 0 is clamped to 1).
    pub(crate) fn with_shards(budget_bytes: usize, shards: usize) -> Self {
        Self {
            shards: Shards::new(budget_bytes, shards),
            disk: None,
            tally: Tally::default(),
            hits: AtomicU64::new(0),
            full_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bytes_saved: AtomicU64::new(0),
            delta_chain_len: AtomicU64::new(0),
        }
    }

    /// A durable store: a memory tier of `budget_bytes` over the disk tier
    /// under `dir`, counting into `recorder`.
    pub(crate) fn open(
        dir: &Path,
        budget_bytes: usize,
        options: StorageOptions,
        recorder: Option<Arc<dyn Recorder>>,
    ) -> io::Result<Self> {
        let mut store = Self::new(budget_bytes);
        store.tally = Tally::new(recorder);
        store.disk = Some(DiskTier::open(dir, options, store.tally.clone())?);
        Ok(store)
    }

    /// The disk tier of a durable store.
    #[cfg(test)]
    pub(crate) fn disk(&self) -> &DiskTier<CheckpointIndex> {
        self.disk.as_ref().expect("durable store")
    }

    /// Attaches an observability sink: store activity is also emitted as
    /// `checkpoint.*` counters.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.tally = Tally::new(Some(recorder));
        self
    }

    fn lookup_memory(&self, config: &CanonicalConfig, max_time: i64) -> Option<Arc<Checkpoint>> {
        let mut guard = self.shards.lock(config.key);
        let shard = &mut *guard;
        // A key match alone is not a hit: the canonical bytes must agree,
        // so a hash collision can never resume a wrong prefix.
        let slot = shard
            .map
            .get_mut(&config.key)
            .filter(|slot| *slot.canon == *config.bytes)?;
        let (&time, _) = slot.by_time.range(..=max_time).next_back()?;
        let checkpoint = slot.reconstruct(time)?;
        let entry = slot.by_time.get_mut(&time).expect("entry present");
        entry.tick = shard.lru.retick(entry.tick, (config.key, time));
        Some(checkpoint)
    }

    /// Stores a checkpoint in the memory tier only (an insert, or a disk
    /// rung being promoted).
    fn remember(&self, config: &CanonicalConfig, checkpoint: &Checkpoint) {
        let full_cost = checkpoint.approx_bytes() + ENTRY_OVERHEAD;
        let time = checkpoint.time();
        let mut shard = self.shards.lock(config.key);
        // A hash collision (same key, different canonical bytes) evicts
        // the old configuration's slot entirely: its checkpoints can never
        // be returned for the new bytes anyway.
        let collided =
            matches!(shard.map.get(&config.key), Some(slot) if *slot.canon != *config.bytes);
        let mut evicted = 0;
        if collided {
            evicted += shard.remove_slot(config.key);
        }
        // Replace any previous checkpoint at the same simulated time —
        // deltas encoded against the old content go with it.
        if shard
            .map
            .get(&config.key)
            .is_some_and(|slot| slot.by_time.contains_key(&time))
        {
            evicted += shard.remove_cascading(config.key, time).saturating_sub(1);
        }
        // Encode against the ladder predecessor when a verified delta is
        // possible and the chain stays bounded; store full otherwise.
        let enc = shard.map.get(&config.key).and_then(|slot| {
            let (&base_time, base) = slot.by_time.range(..time).next_back()?;
            (base.chain() < MAX_DELTA_CHAIN)
                .then(|| slot.encode_delta(base_time, checkpoint))
                .flatten()
        });
        let (enc, cost, chain) = match enc {
            Some(enc) => {
                let Enc::Delta {
                    chain,
                    ref snap_delta,
                    ref events,
                    ..
                } = enc
                else {
                    unreachable!("encode_delta returns deltas");
                };
                let cost = snap_delta.len() + events.len() + ENTRY_OVERHEAD;
                (enc, cost, Some(u64::from(chain)))
            }
            None => match encode_full(checkpoint) {
                Some((enc, cost)) => (enc, cost, None),
                None => {
                    drop(shard);
                    self.tally
                        .count(&self.evictions, "checkpoint.evictions", evicted + 1);
                    return;
                }
            },
        };
        // Bytes avoided relative to resident full-fidelity storage.
        let saved = full_cost.saturating_sub(cost) as u64;
        if cost + config.bytes.len() > self.shards.budget {
            // A checkpoint larger than a whole shard could only thrash;
            // treat it as immediately evicted.
            drop(shard);
            self.tally
                .count(&self.evictions, "checkpoint.evictions", evicted + 1);
            return;
        }
        if !shard.map.contains_key(&config.key) {
            shard.bytes += config.bytes.len();
            shard.map.insert(
                config.key,
                Slot {
                    canon: config.bytes.clone().into_boxed_slice(),
                    by_time: BTreeMap::new(),
                },
            );
        }
        let tick = shard.lru.touch((config.key, time));
        shard
            .map
            .get_mut(&config.key)
            .expect("slot present")
            .by_time
            .insert(time, Entry { enc, tick, cost });
        shard.bytes += cost;
        evicted += shard.evict_to(self.shards.budget);
        drop(shard);
        self.tally
            .count(&self.insertions, "checkpoint.insertions", 1);
        self.tally
            .count(&self.evictions, "checkpoint.evictions", evicted);
        self.tally
            .count(&self.bytes_saved, "checkpoint.bytes_saved", saved);
        if let Some(chain) = chain {
            self.tally
                .count(&self.delta_chain_len, "checkpoint.delta_chain_len", chain);
        }
    }
}

impl CheckpointStore for ShardedCheckpointStore {
    fn lookup_latest(&self, config: &CanonicalConfig, max_time: i64) -> Option<Arc<Checkpoint>> {
        let memory = self.lookup_memory(config, max_time);
        let found = match &self.disk {
            // The disk is consulted on a memory miss, and whenever its
            // ladder may hold a later usable rung than memory did.
            Some(disk) => {
                let after = memory.as_ref().map_or(i64::MIN, |m| m.time());
                match disk.find(
                    config.key,
                    &config.bytes,
                    after,
                    max_time,
                    decode_checkpoint,
                ) {
                    Some(checkpoint) => {
                        self.remember(config, &checkpoint);
                        Some(Arc::new(checkpoint))
                    }
                    None if memory.is_none() => {
                        disk.missed();
                        None
                    }
                    None => memory,
                }
            }
            None => memory,
        };
        match &found {
            Some(checkpoint) => {
                self.tally.count(&self.hits, "checkpoint.hits", 1);
                if checkpoint.time() >= max_time {
                    self.tally.count(&self.full_hits, "checkpoint.full_hits", 1);
                }
            }
            None => self.tally.count(&self.misses, "checkpoint.misses", 1),
        }
        found
    }

    fn insert(&self, config: &CanonicalConfig, checkpoint: Arc<Checkpoint>) {
        self.remember(config, &checkpoint);
        if let Some(disk) = &self.disk {
            disk.append(encode_checkpoint(config.key, &config.bytes, &checkpoint).as_deref());
        }
    }

    fn stats(&self) -> CheckpointStats {
        let (entries, bytes) = self.shards.each().fold((0, 0), |(entries, bytes), s| {
            let resident: usize = s.map.values().map(|slot| slot.by_time.len()).sum();
            (entries + resident, bytes + s.bytes)
        });
        CheckpointStats {
            hits: self.hits.load(Ordering::Relaxed),
            full_hits: self.full_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            bytes,
            bytes_saved: self.bytes_saved.load(Ordering::Relaxed),
            delta_chain_len: self.delta_chain_len.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::canonical_config;
    use crate::obs::MetricsRecorder;
    use swa_ima::{
        Configuration, CoreRef, CoreType, CoreTypeId, Module, ModuleId, Partition, SchedulerKind,
        Task, Window,
    };
    use swa_nsa::state::ClockVal;
    use swa_nsa::{SimStats, State};

    fn config(wcet: i64) -> Configuration {
        Configuration {
            core_types: vec![CoreType::new("ct")],
            modules: vec![Module::homogeneous("M", 1, CoreTypeId::from_raw(0))],
            partitions: vec![Partition::new(
                "P",
                SchedulerKind::Fpps,
                vec![Task::new("t", 1, vec![wcet], 50)],
            )],
            binding: vec![CoreRef::new(ModuleId::from_raw(0), 0)],
            windows: vec![vec![Window::new(0, 50)]],
            messages: vec![],
        }
    }

    fn checkpoint(time: i64) -> Arc<Checkpoint> {
        Arc::new(Checkpoint {
            snapshot: Snapshot {
                state: State::from_parts(
                    vec![],
                    vec![ClockVal {
                        value: time,
                        running: true,
                    }],
                    vec![time],
                    time,
                ),
                steps: u64::try_from(time).unwrap_or(0),
                stats: SimStats::default(),
                trace_len: 0,
            },
            prefix: NsaTrace::new(),
            stop: StopReason::HorizonReached,
        })
    }

    /// A checkpoint whose snapshot shape depends on `time`, so no two of
    /// them delta-encode against each other — for tests that need
    /// full-cost entries and delta-free LRU behavior.
    fn bulky_checkpoint(time: i64) -> Arc<Checkpoint> {
        let cells = 8 + usize::try_from(time).unwrap_or(0) % 7;
        Arc::new(Checkpoint {
            snapshot: Snapshot {
                state: State::from_parts(vec![], vec![], vec![time; cells], time),
                steps: 0,
                stats: SimStats::default(),
                trace_len: 0,
            },
            prefix: NsaTrace::new(),
            stop: StopReason::HorizonReached,
        })
    }

    #[test]
    fn lookup_latest_picks_the_newest_usable_time() {
        let recorder = Arc::new(MetricsRecorder::new());
        let store = ShardedCheckpointStore::new(1 << 20).with_recorder(recorder.clone());
        let key = canonical_config(&config(10));

        assert!(store.lookup_latest(&key, 1000).is_none());
        store.insert(&key, checkpoint(100));
        store.insert(&key, checkpoint(200));
        store.insert(&key, checkpoint(300));

        assert_eq!(store.lookup_latest(&key, 1000).unwrap().time(), 300);
        assert_eq!(store.lookup_latest(&key, 250).unwrap().time(), 200);
        assert_eq!(store.lookup_latest(&key, 200).unwrap().time(), 200);
        assert!(store.lookup_latest(&key, 99).is_none());

        let stats = store.stats();
        assert_eq!(stats.hits, 3);
        assert_eq!(
            stats.full_hits, 1,
            "only the max_time == 200 lookup is full"
        );
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.insertions, 3);
        assert_eq!(stats.entries, 3);
        assert_eq!(recorder.counter_value("checkpoint.hits"), 3);
        assert_eq!(recorder.counter_value("checkpoint.full_hits"), 1);
        assert_eq!(recorder.counter_value("checkpoint.misses"), 2);
        assert_eq!(recorder.counter_value("checkpoint.insertions"), 3);
    }

    #[test]
    fn distinct_configurations_do_not_alias() {
        let store = ShardedCheckpointStore::new(1 << 20);
        let a = canonical_config(&config(10));
        let b = canonical_config(&config(40));
        store.insert(&a, checkpoint(100));
        assert!(store.lookup_latest(&b, 1000).is_none());
    }

    #[test]
    fn hash_collision_is_a_miss_not_a_wrong_resume() {
        let store = ShardedCheckpointStore::new(1 << 20);
        let real = canonical_config(&config(10));
        let forged = CanonicalConfig {
            key: real.key,
            bytes: canonical_config(&config(40)).bytes,
        };
        store.insert(&real, checkpoint(100));
        assert!(store.lookup_latest(&forged, 1000).is_none());
        // Inserting under the forged bytes replaces the slot wholesale.
        store.insert(&forged, checkpoint(77));
        assert_eq!(store.lookup_latest(&forged, 1000).unwrap().time(), 77);
        assert!(store.lookup_latest(&real, 1000).is_none());
        assert!(store.stats().evictions >= 1);
    }

    #[test]
    fn same_time_insert_replaces() {
        let store = ShardedCheckpointStore::new(1 << 20);
        let key = canonical_config(&config(10));
        store.insert(&key, checkpoint(100));
        store.insert(&key, checkpoint(100));
        assert_eq!(store.stats().entries, 1);
    }

    /// A checkpoint at `time` whose snapshot holds `cells` variable
    /// cells, so the same simulated time can carry different footprints.
    fn sized_checkpoint(time: i64, cells: usize) -> Arc<Checkpoint> {
        Arc::new(Checkpoint {
            snapshot: Snapshot {
                state: State::from_parts(vec![], vec![], vec![time; cells], time),
                steps: 0,
                stats: SimStats::default(),
                trace_len: 0,
            },
            prefix: NsaTrace::new(),
            stop: StopReason::HorizonReached,
        })
    }

    /// Regression: replacing the checkpoint at an existing time must swap
    /// its byte accounting, not stack new cost on top of stale cost. A
    /// leak here erodes the budget until the store evicts everything.
    #[test]
    fn replacing_an_existing_time_does_not_double_charge_bytes() {
        let store = ShardedCheckpointStore::with_shards(1 << 20, 1);
        let key = canonical_config(&config(10));

        let small = sized_checkpoint(100, 2);
        let large = sized_checkpoint(100, 64);
        let small_bytes = key.bytes.len() + encoded_cost(&small);
        let large_bytes = key.bytes.len() + encoded_cost(&large);
        assert!(large_bytes > small_bytes);

        store.insert(&key, small.clone());
        assert_eq!(store.stats().bytes, small_bytes);

        // Same time, bigger snapshot: exactly the new footprint remains.
        store.insert(&key, large.clone());
        let stats = store.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, large_bytes);

        // And shrinking is accounted just as exactly.
        store.insert(&key, small);
        assert_eq!(store.stats().bytes, small_bytes);

        // Repeated replacement is a steady state, not a slow leak.
        for _ in 0..100 {
            store.insert(&key, large.clone());
        }
        assert_eq!(store.stats().bytes, large_bytes);
        assert_eq!(store.stats().entries, 1);
        assert_eq!(store.stats().evictions, 0, "no phantom bytes to evict");
    }

    /// The exact bytes an entry costs when stored full (mirrors
    /// [`encode_full`]) — budget math in tests is in encoded units.
    fn encoded_cost(cp: &Checkpoint) -> usize {
        cp.snapshot.to_bytes().len()
            + delta::encode_events(cp.prefix.events(), 0).len()
            + ENTRY_OVERHEAD
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        let key = canonical_config(&config(10));
        let cost = |t: i64| encoded_cost(&bulky_checkpoint(t));
        // Room for the slot's canon bytes plus two entries and change.
        // `bulky_checkpoint` shapes differ per time, so every entry is
        // stored full and plain LRU applies.
        let store = ShardedCheckpointStore::with_shards(
            key.bytes.len() + cost(100) + cost(200).max(cost(300)) + 64,
            1,
        );
        store.insert(&key, bulky_checkpoint(100));
        store.insert(&key, bulky_checkpoint(200));
        // Touch the earlier checkpoint so time-200 becomes the LRU victim.
        assert_eq!(store.lookup_latest(&key, 150).unwrap().time(), 100);
        store.insert(&key, bulky_checkpoint(300));

        assert_eq!(store.stats().evictions, 1);
        assert_eq!(store.stats().delta_chain_len, 0, "no delta between shapes");
        assert_eq!(store.lookup_latest(&key, 250).unwrap().time(), 100);
        assert_eq!(store.lookup_latest(&key, 1000).unwrap().time(), 300);
    }

    #[test]
    fn oversized_checkpoints_are_rejected_as_evictions() {
        let store = ShardedCheckpointStore::with_shards(64, 1);
        let key = canonical_config(&config(10));
        store.insert(&key, checkpoint(100));
        assert!(store.lookup_latest(&key, 1000).is_none());
        assert_eq!(store.stats().evictions, 1);
        assert_eq!(store.stats().entries, 0);
        assert_eq!(store.stats().bytes, 0);
    }

    #[test]
    fn evicting_a_whole_slot_releases_its_canon_bytes() {
        let key_a = canonical_config(&config(10));
        let key_b = canonical_config(&config(40));
        let entry_cost = encoded_cost(&checkpoint(0));
        let budget = key_a.bytes.len() + entry_cost + entry_cost / 2;
        let store = ShardedCheckpointStore::with_shards(budget, 1);
        store.insert(&key_a, checkpoint(100));
        store.insert(&key_b, checkpoint(100));
        // Only one slot fits: the first was evicted along with its canon.
        assert!(store.lookup_latest(&key_a, 1000).is_none());
        assert_eq!(store.lookup_latest(&key_b, 1000).unwrap().time(), 100);
        assert!(store.stats().bytes <= budget);
    }

    /// A checkpoint whose event prefix is the run `0..time` — every later
    /// rung extends every earlier one, as a deterministic simulator
    /// produces — so a ladder of them delta-encodes.
    fn ladder_checkpoint(time: i64) -> Arc<Checkpoint> {
        ladder_checkpoint_with_var(time, time)
    }

    fn ladder_checkpoint_with_var(time: i64, var: i64) -> Arc<Checkpoint> {
        use swa_nsa::semantics::Transition;
        use swa_nsa::{AutomatonId, EdgeId};
        let prefix: NsaTrace = (0..time)
            .map(|i| SyncEvent {
                time: i,
                transition: Transition::Internal {
                    participant: (
                        AutomatonId::from_raw(u32::try_from(i % 5).unwrap()),
                        EdgeId::from_raw(u32::try_from(i % 3).unwrap()),
                    ),
                },
            })
            .collect();
        Arc::new(Checkpoint {
            snapshot: Snapshot {
                state: State::from_parts(
                    vec![],
                    vec![ClockVal {
                        value: time,
                        running: time % 2 == 0,
                    }],
                    vec![var, time * 2, 7],
                    time,
                ),
                steps: u64::try_from(time).unwrap_or(0),
                stats: SimStats::default(),
                trace_len: u64::try_from(prefix.len()).unwrap(),
            },
            prefix,
            stop: StopReason::HorizonReached,
        })
    }

    #[test]
    fn delta_ladder_reconstructs_byte_identically() {
        let recorder = Arc::new(MetricsRecorder::new());
        let store = ShardedCheckpointStore::new(1 << 22).with_recorder(recorder.clone());
        let key = canonical_config(&config(10));
        let originals: Vec<_> = [100, 200, 300, 400]
            .into_iter()
            .map(ladder_checkpoint)
            .collect();
        for cp in &originals {
            store.insert(&key, cp.clone());
        }
        let stats = store.stats();
        assert!(stats.bytes_saved > 0, "ladder rungs must delta-encode");
        assert_eq!(
            stats.delta_chain_len,
            1 + 2 + 3,
            "rungs 2-4 chain at depth 1, 2, 3"
        );
        assert_eq!(
            recorder.counter_value("checkpoint.bytes_saved"),
            stats.bytes_saved
        );
        assert_eq!(recorder.counter_value("checkpoint.delta_chain_len"), 6);
        // Every rung reconstructs bit-for-bit, including the interior ones.
        for cp in &originals {
            let got = store.lookup_latest(&key, cp.time()).unwrap();
            assert_eq!(got.snapshot.to_bytes(), cp.snapshot.to_bytes());
            assert_eq!(got.prefix, cp.prefix);
            assert_eq!(got.stop, cp.stop);
        }
        // And the resident footprint is far below full-fidelity storage.
        let full: usize = originals
            .iter()
            .map(|c| c.approx_bytes() + ENTRY_OVERHEAD)
            .sum();
        assert!(
            stats.bytes * 4 < full,
            "delta ladder uses {} bytes, full storage {}",
            stats.bytes,
            full
        );
    }

    #[test]
    fn replacing_a_rung_cascades_its_dependents() {
        let store = ShardedCheckpointStore::new(1 << 22);
        let key = canonical_config(&config(10));
        for t in [100, 200, 300] {
            store.insert(&key, ladder_checkpoint(t));
        }
        assert_eq!(store.stats().entries, 3);
        // Re-inserting different content at t=200 invalidates the rung at
        // t=300, which was encoded against the old bytes.
        store.insert(&key, ladder_checkpoint_with_var(200, 999));
        assert_eq!(store.stats().entries, 2, "the t=300 delta must not survive");
        assert_eq!(store.lookup_latest(&key, i64::MAX).unwrap().time(), 200);
        let got = store.lookup_latest(&key, 200).unwrap();
        assert_eq!(
            got.snapshot.to_bytes(),
            ladder_checkpoint_with_var(200, 999).snapshot.to_bytes()
        );
    }

    #[test]
    fn evicting_a_chain_root_drops_the_whole_chain() {
        let key_a = canonical_config(&config(10));
        let key_b = canonical_config(&config(40));
        // Measure the ladder's resident size on a roomy store first.
        let probe = ShardedCheckpointStore::with_shards(1 << 22, 1);
        for t in [100, 200, 300] {
            probe.insert(&key_a, ladder_checkpoint(t));
        }
        let ladder_bytes = probe.stats().bytes;
        let b = bulky_checkpoint(5);
        let b_cost = encoded_cost(&b) + key_b.bytes.len();

        let store = ShardedCheckpointStore::with_shards(ladder_bytes + b_cost - 1, 1);
        for t in [100, 200, 300] {
            store.insert(&key_a, ladder_checkpoint(t));
        }
        assert_eq!(store.stats().entries, 3);
        store.insert(&key_b, b);
        // The LRU victim is the chain root at t=100; its dependents go
        // with it rather than dangling undecodable.
        assert!(store.lookup_latest(&key_a, i64::MAX).is_none());
        assert_eq!(store.lookup_latest(&key_b, i64::MAX).unwrap().time(), 5);
        assert_eq!(store.stats().evictions, 3);
    }

    #[test]
    fn delta_chains_are_bounded_and_restart_with_a_full_rung() {
        let store = ShardedCheckpointStore::new(1 << 24);
        let key = canonical_config(&config(10));
        let times: Vec<i64> = (1..=i64::from(MAX_DELTA_CHAIN) + 4)
            .map(|i| i * 50)
            .collect();
        for &t in &times {
            store.insert(&key, ladder_checkpoint(t));
        }
        // Chains: rung 1 full, rungs 2..=9 at depths 1..=8, rung 10 full
        // again, rungs 11-12 at depths 1-2.
        let expected: u64 = (1..=u64::from(MAX_DELTA_CHAIN)).sum::<u64>() + 1 + 2;
        assert_eq!(store.stats().delta_chain_len, expected);
        for &t in &times {
            let got = store.lookup_latest(&key, t).unwrap();
            let want = ladder_checkpoint(t);
            assert_eq!(got.snapshot.to_bytes(), want.snapshot.to_bytes());
            assert_eq!(got.prefix, want.prefix);
        }
    }

    #[test]
    fn concurrent_access_is_safe_and_consistent() {
        let store = Arc::new(ShardedCheckpointStore::new(1 << 20));
        let keys: Vec<_> = (0..8).map(|i| canonical_config(&config(10 + i))).collect();
        std::thread::scope(|s| {
            for t in 0..4 {
                let store = store.clone();
                let keys = &keys;
                s.spawn(move || {
                    for round in 0..100 {
                        for (i, key) in keys.iter().enumerate() {
                            if (i + t) % 2 == 0 {
                                store.insert(key, checkpoint(round));
                            } else {
                                let _ = store.lookup_latest(key, i64::MAX);
                            }
                        }
                    }
                });
            }
        });
        let stats = store.stats();
        assert_eq!(stats.hits + stats.misses, 4 * 100 * 4);
        assert!(stats.entries > 0);
    }
}
