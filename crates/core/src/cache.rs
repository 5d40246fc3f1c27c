//! The content-addressed verdict cache: O(1) answers for repeated
//! analysis requests.
//!
//! The paper's Sect. 4 integration — and the `swa-serve` analysis service
//! built on it — issues many near-identical requests: speculative search
//! ladders revisit configurations the window-synthesis quantization has
//! already produced, and clients of a long-running service resubmit the
//! same configuration freely. Simulating each duplicate wastes the very
//! speed the single-run approach buys, so verdicts are cached under the
//! [`canon`](crate::canon) content hash.
//!
//! Design:
//!
//! * **sharded**: the key's low bits pick one of N shards, each behind its
//!   own mutex, so concurrent server workers rarely contend;
//! * **byte-budget LRU**: every entry is costed (canonical bytes + verdict
//!   footprint) against a fixed budget; insertion evicts
//!   least-recently-used entries until the shard fits;
//! * **collision-proof**: an entry stores its full canonical encoding and
//!   a lookup compares it byte-for-byte, so a 128-bit hash collision costs
//!   a miss, never a wrong verdict;
//! * **observable**: hits/misses/insertions/evictions are counted
//!   internally ([`CacheStats`]) and, when a [`Recorder`] is attached,
//!   emitted as `cache.*` counters next to every other metric the
//!   workspace produces — through one counter path, so the two agree;
//! * **optionally durable**: a cache opened through
//!   [`open_state_dir`](crate::storage::open_state_dir) keeps a disk tier
//!   (see [`crate::storage`]) under its memory tier. A memory miss falls
//!   through to disk, a disk hit is promoted into memory, and the lookup
//!   is counted once, after both tiers have answered.
//!
//! The shards, the LRU tick book and the counter path are shared with the
//! checkpoint store ([`crate::checkpoint`]).
//!
//! Only *successful* analyses are cached. Errors (invalid configurations,
//! simulation failures) are never stored: they are cheap to reproduce and
//! their diagnoses depend on request options the key normalizes away.

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use swa_ima::PartitionId;

use crate::canon::{CacheKey, CanonicalRequest};
use crate::ladder::DecidedBy;
use crate::obs::Recorder;
use crate::pipeline::AnalysisReport;
use crate::storage::{decode_verdict, encode_verdict, DiskTier, StorageOptions, VerdictIndex};
use crate::store::{Lru, Shards, Tally, DEFAULT_SHARDS, ENTRY_OVERHEAD};

/// The cacheable summary of one successful analysis: everything a repeated
/// request (or the search loop's repair rule) needs, without the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedVerdict {
    /// The schedulability verdict.
    pub schedulable: bool,
    /// The hyperperiod the analysis covered.
    pub hyperperiod: i64,
    /// Number of jobs analyzed.
    pub jobs: usize,
    /// Number of jobs that missed.
    pub missed_jobs: usize,
    /// Partitions with at least one missed job (sorted, deduplicated) —
    /// what the search's iterative repair widens.
    pub missing_partitions: Vec<PartitionId>,
    /// Which analysis tier produced the verdict (provenance, stored
    /// alongside the verdict — the canonical request bytes and cache key
    /// are unaffected). Ladder-decided entries carry no job-level counts:
    /// `jobs`/`missed_jobs` are zero and `missing_partitions` is the
    /// tier's coarse attribution.
    pub decided_by: DecidedBy,
}

impl CachedVerdict {
    /// Summarizes a full analysis report into its cacheable form.
    #[must_use]
    pub fn from_report(report: &AnalysisReport) -> Self {
        Self::from_analysis(&report.analysis)
    }

    /// Summarizes a schedulability analysis into its cacheable form.
    #[must_use]
    pub fn from_analysis(analysis: &crate::Analysis) -> Self {
        let mut missing: Vec<PartitionId> =
            analysis.missed_jobs().map(|j| j.task.partition).collect();
        missing.sort_unstable();
        missing.dedup();
        Self {
            schedulable: analysis.schedulable,
            hyperperiod: analysis.hyperperiod,
            jobs: analysis.jobs.len(),
            missed_jobs: analysis.missed_jobs().count(),
            missing_partitions: missing,
            decided_by: DecidedBy::Simulation,
        }
    }

    /// Summarizes an analytic ladder decision into its cacheable form.
    /// The configuration supplies the hyperperiod; job-level counts are
    /// unavailable without simulation and stay zero.
    #[must_use]
    pub fn from_ladder(
        decision: &crate::ladder::LadderDecision,
        config: &swa_ima::Configuration,
    ) -> Self {
        let missing = decision
            .verdict
            .diagnosis()
            .map(|d| d.missing_partitions.clone())
            .unwrap_or_default();
        Self {
            schedulable: decision.verdict.is_schedulable(),
            hyperperiod: config.hyperperiod().unwrap_or(0),
            jobs: 0,
            missed_jobs: 0,
            missing_partitions: missing,
            decided_by: decision.decided_by,
        }
    }

    /// The typed verdict of the cached analysis (an unschedulable verdict
    /// carries the cached miss attribution; module names can be resolved
    /// against a configuration with
    /// [`verdict_in`](Self::verdict_in)).
    #[must_use]
    pub fn verdict(&self) -> crate::Verdict {
        if self.schedulable {
            crate::Verdict::Schedulable
        } else {
            crate::Verdict::unschedulable(self.missed_jobs, self.missing_partitions.clone())
        }
    }

    /// As [`verdict`](Self::verdict), naming the modules that own the
    /// missing partitions (resolved through `config`'s binding).
    #[must_use]
    pub fn verdict_in(&self, config: &swa_ima::Configuration) -> crate::Verdict {
        let mut verdict = self.verdict();
        if let crate::Verdict::Unschedulable { diagnosis } = &mut verdict {
            diagnosis.attribute_modules(config);
        }
        verdict
    }

    /// Approximate heap footprint, used for the cache's byte budget.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.missing_partitions.len() * std::mem::size_of::<PartitionId>()
    }
}

/// Counter snapshot of a cache's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing (or a hash collision).
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted to honor the byte budget.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Bytes currently charged against the budget.
    pub bytes: usize,
}

impl CacheStats {
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

/// A verdict cache: the abstraction the search loop and the server inject.
///
/// Implementations must be thread-safe; the server shares one cache across
/// all its workers.
pub trait VerdictCache: Send + Sync {
    /// Returns the cached verdict for a canonical request, if present.
    fn lookup(&self, request: &CanonicalRequest) -> Option<Arc<CachedVerdict>>;

    /// Stores a verdict under the request's key.
    fn insert(&self, request: &CanonicalRequest, verdict: Arc<CachedVerdict>);

    /// A snapshot of the cache's activity counters.
    fn stats(&self) -> CacheStats;
}

/// One resident cache entry.
struct Entry {
    /// Full canonical bytes, compared on lookup so collisions are inert.
    canon: Box<[u8]>,
    verdict: Arc<CachedVerdict>,
    /// The LRU tick of the entry's last touch.
    tick: u64,
    /// Bytes charged against the shard budget.
    cost: usize,
}

/// One shard: an LRU map behind its own lock.
#[derive(Default)]
struct Shard {
    map: HashMap<CacheKey, Entry>,
    lru: Lru<CacheKey>,
    bytes: usize,
}

impl Shard {
    /// Evicts oldest entries until the shard fits its budget; returns how
    /// many entries were evicted.
    fn evict_to(&mut self, budget: usize) -> u64 {
        let mut evicted = 0;
        while self.bytes > budget {
            let Some(key) = self.lru.pop_oldest() else {
                break;
            };
            if let Some(entry) = self.map.remove(&key) {
                self.bytes -= entry.cost;
                evicted += 1;
            }
        }
        evicted
    }
}

/// A sharded, byte-budgeted, LRU [`VerdictCache`], optionally durable:
/// opened through [`open_state_dir`](crate::storage::open_state_dir) it
/// keeps a disk tier under the memory tier.
pub struct ShardedVerdictCache {
    shards: Shards<Shard>,
    disk: Option<DiskTier<VerdictIndex>>,
    tally: Tally,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for ShardedVerdictCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedVerdictCache")
            .field("shards", &self.shards)
            .field("durable", &self.disk.is_some())
            .field("recorder", &self.tally.attached())
            .finish()
    }
}

impl ShardedVerdictCache {
    /// A memory-only cache with the given total byte budget.
    #[must_use]
    pub fn new(budget_bytes: usize) -> Self {
        Self::with_shards(budget_bytes, DEFAULT_SHARDS)
    }

    /// A cache with an explicit shard count (≥ 1; 0 is clamped to 1).
    pub(crate) fn with_shards(budget_bytes: usize, shards: usize) -> Self {
        Self {
            shards: Shards::new(budget_bytes, shards),
            disk: None,
            tally: Tally::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// A durable cache: a memory tier of `budget_bytes` over the disk tier
    /// under `dir`, counting into `recorder`.
    pub(crate) fn open(
        dir: &Path,
        budget_bytes: usize,
        options: StorageOptions,
        recorder: Option<Arc<dyn Recorder>>,
    ) -> io::Result<Self> {
        let mut cache = Self::new(budget_bytes);
        cache.tally = Tally::new(recorder);
        cache.disk = Some(DiskTier::open(dir, options, cache.tally.clone())?);
        Ok(cache)
    }

    /// The disk tier of a durable store.
    #[cfg(test)]
    pub(crate) fn disk(&self) -> &DiskTier<VerdictIndex> {
        self.disk.as_ref().expect("durable store")
    }

    /// Attaches an observability sink: every hit/miss/insertion/eviction
    /// is also emitted as a `cache.*` counter.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.tally = Tally::new(Some(recorder));
        self
    }

    fn lookup_memory(&self, request: &CanonicalRequest) -> Option<Arc<CachedVerdict>> {
        let mut guard = self.shards.lock(request.key);
        let shard = &mut *guard;
        // A key match alone is not a hit: the canonical bytes must agree,
        // so a hash collision can never serve a wrong verdict.
        let entry = shard
            .map
            .get_mut(&request.key)
            .filter(|entry| *entry.canon == *request.bytes)?;
        entry.tick = shard.lru.retick(entry.tick, request.key);
        Some(Arc::clone(&entry.verdict))
    }

    /// Stores a verdict in the memory tier only (an insert, or a disk hit
    /// being promoted).
    fn remember(&self, request: &CanonicalRequest, verdict: Arc<CachedVerdict>) {
        let cost = request.bytes.len() + verdict.approx_bytes() + ENTRY_OVERHEAD;
        if cost > self.shards.budget {
            // An entry larger than a whole shard could only thrash; treat
            // it as immediately evicted.
            self.tally.count(&self.evictions, "cache.evictions", 1);
            return;
        }
        let mut guard = self.shards.lock(request.key);
        let shard = &mut *guard;
        // Replace any previous entry under this key (e.g. a collision
        // victim) before charging the new cost.
        if let Some(old) = shard.map.remove(&request.key) {
            shard.lru.forget(old.tick);
            shard.bytes -= old.cost;
        }
        let tick = shard.lru.touch(request.key);
        shard.map.insert(
            request.key,
            Entry {
                canon: request.bytes.clone().into_boxed_slice(),
                verdict,
                tick,
                cost,
            },
        );
        shard.bytes += cost;
        let evicted = shard.evict_to(self.shards.budget);
        drop(guard);
        self.tally.count(&self.insertions, "cache.insertions", 1);
        self.tally
            .count(&self.evictions, "cache.evictions", evicted);
    }
}

impl VerdictCache for ShardedVerdictCache {
    fn lookup(&self, request: &CanonicalRequest) -> Option<Arc<CachedVerdict>> {
        let found = self.lookup_memory(request).or_else(|| {
            let disk = self.disk.as_ref()?;
            let found = disk.find(
                request.key,
                &request.bytes,
                i64::MIN,
                i64::MAX,
                decode_verdict,
            );
            let Some(verdict) = found.map(Arc::new) else {
                disk.missed();
                return None;
            };
            self.remember(request, Arc::clone(&verdict));
            Some(verdict)
        });
        match found {
            Some(_) => self.tally.count(&self.hits, "cache.hits", 1),
            None => self.tally.count(&self.misses, "cache.misses", 1),
        }
        found
    }

    fn insert(&self, request: &CanonicalRequest, verdict: Arc<CachedVerdict>) {
        self.remember(request, Arc::clone(&verdict));
        if let Some(disk) = &self.disk {
            disk.append(Some(&encode_verdict(request.key, &request.bytes, &verdict)));
        }
    }

    fn stats(&self) -> CacheStats {
        let (entries, bytes) = self.shards.each().fold((0, 0), |(entries, bytes), s| {
            (entries + s.map.len(), bytes + s.bytes)
        });
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::{canonicalize, hash_bytes};
    use crate::obs::MetricsRecorder;
    use swa_ima::{
        Configuration, CoreRef, CoreType, CoreTypeId, Module, ModuleId, Partition, SchedulerKind,
        Task, Window,
    };

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

    fn verdict(schedulable: bool) -> Arc<CachedVerdict> {
        Arc::new(CachedVerdict {
            schedulable,
            hyperperiod: 50,
            jobs: 1,
            missed_jobs: usize::from(!schedulable),
            missing_partitions: if schedulable {
                vec![]
            } else {
                vec![PartitionId::from_raw(0)]
            },
            decided_by: DecidedBy::Simulation,
        })
    }

    #[test]
    fn lookup_roundtrip_and_counters() {
        let recorder = Arc::new(MetricsRecorder::new());
        let cache = ShardedVerdictCache::new(1 << 20).with_recorder(recorder.clone());
        let req = canonicalize(&config(10), 1);

        assert!(cache.lookup(&req).is_none());
        cache.insert(&req, verdict(true));
        let hit = cache.lookup(&req).expect("cached");
        assert!(hit.schedulable);

        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes > 0);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(recorder.counter_value("cache.hits"), 1);
        assert_eq!(recorder.counter_value("cache.misses"), 1);
        assert_eq!(recorder.counter_value("cache.insertions"), 1);
    }

    #[test]
    fn distinct_requests_do_not_alias() {
        let cache = ShardedVerdictCache::new(1 << 20);
        let a = canonicalize(&config(10), 1);
        let b = canonicalize(&config(40), 1);
        cache.insert(&a, verdict(true));
        assert!(cache.lookup(&b).is_none());
    }

    #[test]
    fn hash_collision_is_a_miss_not_a_wrong_verdict() {
        let cache = ShardedVerdictCache::new(1 << 20);
        let real = canonicalize(&config(10), 1);
        // Forge a request with the same key but different canonical bytes
        // (what a 128-bit collision would look like).
        let forged = CanonicalRequest {
            key: real.key,
            bytes: canonicalize(&config(40), 1).bytes,
        };
        cache.insert(&real, verdict(true));
        assert!(cache.lookup(&forged).is_none(), "collision must miss");
        // And inserting the forged entry replaces rather than corrupts.
        cache.insert(&forged, verdict(false));
        assert!(!cache.lookup(&forged).expect("cached").schedulable);
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        // Single shard so the LRU order is global and observable.
        let probe = canonicalize(&config(10), 1);
        let entry_cost = probe.bytes.len() + verdict(true).approx_bytes() + ENTRY_OVERHEAD;
        let cache = ShardedVerdictCache::with_shards(entry_cost * 2 + entry_cost / 2, 1);

        let reqs: Vec<_> = (0..3).map(|i| canonicalize(&config(10 + i), 1)).collect();
        cache.insert(&reqs[0], verdict(true));
        cache.insert(&reqs[1], verdict(true));
        // Touch req 0 so req 1 becomes the LRU victim.
        assert!(cache.lookup(&reqs[0]).is_some());
        cache.insert(&reqs[2], verdict(true));

        assert!(cache.lookup(&reqs[0]).is_some(), "recently used survives");
        assert!(cache.lookup(&reqs[1]).is_none(), "LRU entry evicted");
        assert!(cache.lookup(&reqs[2]).is_some(), "new entry resident");
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert!(stats.bytes <= entry_cost * 2 + entry_cost / 2);
    }

    /// Regression: re-inserting an existing key must *replace* its byte
    /// accounting, not add to it. A double-charge here slowly shrinks the
    /// effective budget until the cache evicts everything it holds.
    #[test]
    fn replacing_an_existing_key_does_not_double_charge_bytes() {
        let cache = ShardedVerdictCache::with_shards(1 << 20, 1);
        let req = canonicalize(&config(10), 1);

        // Two verdicts with different footprints for the same key.
        let small = verdict(true); // no missing partitions
        let large = verdict(false); // one missing partition
        assert!(large.approx_bytes() > small.approx_bytes());

        cache.insert(&req, small.clone());
        let expected_small = req.bytes.len() + small.approx_bytes() + ENTRY_OVERHEAD;
        assert_eq!(cache.stats().bytes, expected_small);

        // Replace with the larger verdict: accounted bytes must equal the
        // resident entry exactly, with no residue from the first insert.
        cache.insert(&req, large.clone());
        let expected_large = req.bytes.len() + large.approx_bytes() + ENTRY_OVERHEAD;
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, expected_large);

        // Replace back with the smaller one: accounting shrinks too.
        cache.insert(&req, small);
        assert_eq!(cache.stats().bytes, expected_small);

        // Many repeated replacements leave the accounting unchanged, so
        // the rest of the budget stays usable for other keys.
        for _ in 0..100 {
            cache.insert(&req, large.clone());
        }
        assert_eq!(cache.stats().bytes, expected_large);
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.stats().evictions, 0, "no phantom bytes to evict");
    }

    #[test]
    fn oversized_entries_are_rejected_as_evictions() {
        let cache = ShardedVerdictCache::with_shards(64, 1);
        let req = canonicalize(&config(10), 1);
        cache.insert(&req, verdict(true));
        assert!(cache.lookup(&req).is_none());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn from_report_summarizes_misses() {
        let report = crate::analyze_configuration(&config(60)).unwrap();
        assert!(!report.schedulable());
        let v = CachedVerdict::from_report(&report);
        assert!(!v.schedulable);
        assert!(v.missed_jobs > 0);
        assert_eq!(v.missing_partitions, vec![PartitionId::from_raw(0)]);
        assert_eq!(v.jobs, report.analysis.jobs.len());

        let ok = CachedVerdict::from_report(&crate::analyze_configuration(&config(10)).unwrap());
        assert!(ok.schedulable);
        assert!(ok.missing_partitions.is_empty());
    }

    #[test]
    fn sharding_spreads_keys() {
        let cache = ShardedVerdictCache::new(1 << 20);
        let mut used = std::collections::HashSet::new();
        for i in 0..64 {
            let key = hash_bytes(&[i]);
            used.insert((key.lo as usize) % cache.shards.len());
        }
        assert!(
            used.len() > 4,
            "64 keys landed in only {} shards",
            used.len()
        );
    }

    #[test]
    fn concurrent_access_is_safe_and_consistent() {
        let cache = Arc::new(ShardedVerdictCache::new(1 << 20));
        let reqs: Vec<_> = (0..8).map(|i| canonicalize(&config(10 + i), 1)).collect();
        std::thread::scope(|s| {
            for t in 0..4 {
                let cache = cache.clone();
                let reqs = &reqs;
                s.spawn(move || {
                    for _ in 0..200 {
                        for (i, req) in reqs.iter().enumerate() {
                            if (i + t) % 2 == 0 {
                                cache.insert(req, verdict(true));
                            } else {
                                let _ = cache.lookup(req);
                            }
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert!(stats.entries <= 8);
        assert_eq!(stats.hits + stats.misses, 4 * 200 * 4);
    }
}
