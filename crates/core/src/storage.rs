//! Durable tiered storage for verdicts and checkpoints.
//!
//! The in-memory stores ([`crate::cache`], [`crate::checkpoint`]) die with
//! the process: restarting a long-running `swa serve` instance throws away
//! its entire working set and re-simulates everything. This module adds a
//! **disk tier** underneath them, so a verdict or checkpoint computed once
//! survives restarts and is promoted back into memory on first touch.
//!
//! Layout — one directory per store, holding append-only **segment
//! files** (`seg-000000.log`, `seg-000001.log`, …):
//!
//! ```text
//! segment  := header record*
//! header   := magic "SWAS" | format version u8 | kind u8
//! record   := payload_len u32 LE | fnv1a64(payload) u64 LE | payload
//! ```
//!
//! * **Crash-safe re-open**: segments are scanned in order on open; the
//!   first record whose length or checksum does not verify ends the
//!   segment's valid prefix, and the file is truncated back to it. A
//!   torn tail (kill mid-append) therefore costs exactly the record being
//!   written — everything before it survives, and a corrupt record is
//!   never served.
//! * **In-memory index**: opening replays every live record into a
//!   key → location index (checkpoints: key → time ladder); lookups read
//!   one record by offset, verify its checksum *and* its full canonical
//!   bytes (collisions cost a miss, never a wrong verdict — same contract
//!   as the memory tiers).
//! * **Supersede + compaction**: re-inserting a key appends a new record
//!   and marks the old location dead. When dead bytes outgrow live bytes
//!   a background thread rewrites the live records into fresh segments
//!   and deletes the old files; a crash mid-compaction is safe because
//!   new segments have higher ids and replay order lets them supersede.
//! * **Memory-tier promotion**: a disk hit inserts the entry into the
//!   sharded memory store, so repeated touches are served at memory
//!   speed.
//!
//! Activity is observable through `storage.*` counters on an attached
//! [`Recorder`]: `appends`, `bytes_appended`, `disk_hits`, `disk_misses`,
//! `promotions`, `compactions`, `torn_drops`, `errors`.
//!
//! Disk failures are contained: a failed read or append is counted and
//! the store degrades to memory-only behavior for that operation — the
//! analysis path never sees an I/O error.

use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use swa_ima::PartitionId;
use swa_nsa::{Snapshot, StopReason};

use crate::cache::{CacheStats, CachedVerdict, ShardedVerdictCache, VerdictCache};
use crate::canon::{CacheKey, CanonicalConfig, CanonicalRequest};
use crate::checkpoint::{Checkpoint, CheckpointStats, CheckpointStore, ShardedCheckpointStore};
use crate::delta;
use crate::obs::Recorder;

/// Segment file magic.
const MAGIC: [u8; 4] = *b"SWAS";
/// Bumped whenever the record encoding changes; a segment with a foreign
/// version is treated as fully torn rather than misread.
const FORMAT_VERSION: u8 = 1;
/// Segment kind tags, so a verdict log can never be opened as a
/// checkpoint log.
const KIND_VERDICT: u8 = 1;
const KIND_CHECKPOINT: u8 = 2;
/// Bytes of segment header (magic + version + kind).
const HEADER_LEN: u64 = 6;
/// Bytes of record framing (length + checksum) before the payload.
const RECORD_HEADER: u64 = 12;
/// Upper bound on one record's payload; anything larger in a length field
/// is corruption, not data.
const MAX_RECORD: u32 = 64 * 1024 * 1024;

/// FNV-1a over `bytes` — the workspace's zero-dependency checksum.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Tuning knobs for a disk tier.
#[derive(Debug, Clone)]
pub struct StorageOptions {
    /// Roll to a new segment once the active one exceeds this size.
    pub segment_bytes: u64,
    /// Compact only once at least this many dead bytes accumulated (and
    /// dead outweighs live) — avoids churning tiny stores.
    pub compact_min_dead: u64,
    /// Run compaction on a background thread. Disable for deterministic
    /// tests and drive [`compact_now`](TieredVerdictCache::compact_now)
    /// manually.
    pub background_compaction: bool,
}

impl Default for StorageOptions {
    fn default() -> Self {
        Self {
            segment_bytes: 8 * 1024 * 1024,
            compact_min_dead: 1024 * 1024,
            background_compaction: true,
        }
    }
}

/// Counter snapshot of one disk tier's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Segment files on disk.
    pub segments: usize,
    /// Records reachable through the index.
    pub live_records: usize,
    /// Bytes of live records (framing included).
    pub live_bytes: u64,
    /// Bytes of superseded records awaiting compaction.
    pub dead_bytes: u64,
    /// Torn or corrupt tails dropped across all opens.
    pub torn_drops: u64,
    /// Compaction passes completed.
    pub compactions: u64,
    /// Lookups served from disk (after a memory miss).
    pub disk_hits: u64,
    /// Memory misses the disk could not answer either.
    pub disk_misses: u64,
    /// Disk hits promoted into the memory tier.
    pub promotions: u64,
    /// Records appended.
    pub appends: u64,
    /// I/O or decode failures absorbed (the operation degraded to
    /// memory-only instead of erroring).
    pub errors: u64,
}

/// Location of one record inside the segment log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Loc {
    seg: u64,
    offset: u64,
    len: u32,
}

impl Loc {
    /// On-disk footprint including framing.
    fn cost(self) -> u64 {
        RECORD_HEADER + u64::from(self.len)
    }
}

/// The append-only segment log: files, framing, accounting. Typed record
/// contents and the index live in the wrappers below.
struct Log {
    dir: PathBuf,
    kind: u8,
    options: StorageOptions,
    /// id → current file length, every segment on disk.
    segments: BTreeMap<u64, u64>,
    active_id: u64,
    active: File,
    live_bytes: u64,
    dead_bytes: u64,
    torn_drops: u64,
    compactions: u64,
}

impl Log {
    fn segment_path(dir: &Path, id: u64) -> PathBuf {
        dir.join(format!("seg-{id:06}.log"))
    }

    /// Creates a segment file with its header, returning the open handle.
    fn create_segment(dir: &Path, id: u64, kind: u8) -> io::Result<File> {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(Self::segment_path(dir, id))?;
        let mut header = [0u8; HEADER_LEN as usize];
        header[..4].copy_from_slice(&MAGIC);
        header[4] = FORMAT_VERSION;
        header[5] = kind;
        file.write_all(&header)?;
        file.flush()?;
        Ok(file)
    }

    /// Opens (or creates) the log, replaying every valid record into
    /// `sink` in write order and truncating torn tails in place.
    fn open(
        dir: &Path,
        kind: u8,
        options: StorageOptions,
        sink: &mut dyn FnMut(Loc, &[u8]),
    ) -> io::Result<Log> {
        fs::create_dir_all(dir)?;
        let mut ids: Vec<u64> = Vec::new();
        for entry in fs::read_dir(dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(id) = name
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".log"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                ids.push(id);
            }
        }
        ids.sort_unstable();

        let mut segments = BTreeMap::new();
        let mut live_bytes = 0u64;
        let mut torn_drops = 0u64;
        for &id in &ids {
            let path = Self::segment_path(dir, id);
            let bytes = fs::read(&path)?;
            let mut valid = 0u64;
            if bytes.len() >= HEADER_LEN as usize
                && bytes[..4] == MAGIC
                && bytes[4] == FORMAT_VERSION
                && bytes[5] == kind
            {
                valid = HEADER_LEN;
                loop {
                    let at = valid as usize;
                    let Some(frame) = bytes.get(at..at + RECORD_HEADER as usize) else {
                        break;
                    };
                    let len = u32::from_le_bytes(frame[..4].try_into().expect("4 bytes"));
                    let sum = u64::from_le_bytes(frame[4..12].try_into().expect("8 bytes"));
                    if len > MAX_RECORD {
                        break;
                    }
                    let start = at + RECORD_HEADER as usize;
                    let Some(payload) = bytes.get(start..start + len as usize) else {
                        break;
                    };
                    if fnv1a64(payload) != sum {
                        break;
                    }
                    let loc = Loc {
                        seg: id,
                        offset: valid,
                        len,
                    };
                    live_bytes += loc.cost();
                    sink(loc, payload);
                    valid += loc.cost();
                }
            }
            if valid < bytes.len() as u64 {
                // Torn tail (or foreign header): drop the unverifiable
                // suffix so it can never shadow a future append.
                torn_drops += 1;
                let file = OpenOptions::new().write(true).open(&path)?;
                file.set_len(valid)?;
            }
            if valid == 0 {
                // Nothing valid at all — not even the header. Remove the
                // file; a fresh segment will take the id range over.
                fs::remove_file(&path)?;
            } else {
                segments.insert(id, valid);
            }
        }

        let active_id = segments.keys().next_back().copied().map_or(0, |max| max)
            .max(ids.last().copied().map_or(0, |m| m));
        let (active_id, active) = match segments.get(&active_id) {
            Some(_) => {
                let file = OpenOptions::new()
                    .append(true)
                    .open(Self::segment_path(dir, active_id))?;
                (active_id, file)
            }
            None => {
                let file = Self::create_segment(dir, active_id, kind)?;
                segments.insert(active_id, HEADER_LEN);
                (active_id, file)
            }
        };

        Ok(Log {
            dir: dir.to_path_buf(),
            kind,
            options,
            segments,
            active_id,
            active,
            live_bytes,
            dead_bytes: 0,
            torn_drops,
            compactions: 0,
        })
    }

    /// Appends one record, rolling to a new segment when the active one
    /// is full. The new record is counted live.
    fn append(&mut self, payload: &[u8]) -> io::Result<Loc> {
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|&l| l <= MAX_RECORD)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "record too large"))?;
        let active_len = self.segments[&self.active_id];
        if active_len > HEADER_LEN
            && active_len + RECORD_HEADER + u64::from(len) > self.options.segment_bytes
        {
            let next = self.active_id + 1;
            self.active = Self::create_segment(&self.dir, next, self.kind)?;
            self.active_id = next;
            self.segments.insert(next, HEADER_LEN);
        }
        let offset = self.segments[&self.active_id];
        let mut frame = [0u8; RECORD_HEADER as usize];
        frame[..4].copy_from_slice(&len.to_le_bytes());
        frame[4..12].copy_from_slice(&fnv1a64(payload).to_le_bytes());
        self.active.write_all(&frame)?;
        self.active.write_all(payload)?;
        self.active.flush()?;
        let loc = Loc {
            seg: self.active_id,
            offset,
            len,
        };
        *self.segments.get_mut(&self.active_id).expect("active") += loc.cost();
        self.live_bytes += loc.cost();
        Ok(loc)
    }

    /// Reads and verifies one record.
    fn read(&self, loc: Loc) -> io::Result<Vec<u8>> {
        let mut file = File::open(Self::segment_path(&self.dir, loc.seg))?;
        file.seek(SeekFrom::Start(loc.offset))?;
        let mut frame = [0u8; RECORD_HEADER as usize];
        file.read_exact(&mut frame)?;
        let len = u32::from_le_bytes(frame[..4].try_into().expect("4 bytes"));
        let sum = u64::from_le_bytes(frame[4..12].try_into().expect("8 bytes"));
        if len != loc.len {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "record length drift"));
        }
        let mut payload = vec![0u8; len as usize];
        file.read_exact(&mut payload)?;
        if fnv1a64(&payload) != sum {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "record checksum mismatch"));
        }
        Ok(payload)
    }

    /// Moves a superseded record from the live to the dead account.
    fn mark_dead(&mut self, loc: Loc) {
        self.live_bytes = self.live_bytes.saturating_sub(loc.cost());
        self.dead_bytes += loc.cost();
    }

    /// True once compaction would reclaim more than it keeps.
    fn needs_compaction(&self) -> bool {
        self.dead_bytes >= self.options.compact_min_dead && self.dead_bytes > self.live_bytes
    }

    /// Starts a fresh active segment past every current id and returns
    /// the ids it left behind. Used by compaction: live records are
    /// re-appended into the fresh segment *before* the old files are
    /// deleted, so a crash in between leaves a log that still replays
    /// correctly (higher ids supersede on re-open).
    fn begin_rewrite(&mut self) -> io::Result<Vec<u64>> {
        let old: Vec<u64> = self.segments.keys().copied().collect();
        let next = self.active_id + 1;
        self.active = Self::create_segment(&self.dir, next, self.kind)?;
        self.active_id = next;
        self.segments.insert(next, HEADER_LEN);
        Ok(old)
    }

    /// Deletes the given segments and resets the dead account — the end
    /// of a compaction pass.
    fn finish_rewrite(&mut self, old: &[u64], rewritten_live: u64) -> io::Result<()> {
        for &id in old {
            self.segments.remove(&id);
            fs::remove_file(Self::segment_path(&self.dir, id))?;
        }
        self.live_bytes = rewritten_live;
        self.dead_bytes = 0;
        self.compactions += 1;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Record codecs
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked little-endian reader over a record payload.
struct Rd<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Rd<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let out = self.bytes.get(self.at..self.at + n)?;
        self.at += n;
        Some(out)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn i64(&mut self) -> Option<i64> {
        Some(i64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn done(&self) -> bool {
        self.at == self.bytes.len()
    }
}

fn stop_to_byte(stop: StopReason) -> u8 {
    match stop {
        StopReason::HorizonReached => 0,
        StopReason::Quiescent => 1,
    }
}

fn stop_from_byte(b: u8) -> Option<StopReason> {
    match b {
        0 => Some(StopReason::HorizonReached),
        1 => Some(StopReason::Quiescent),
        _ => None,
    }
}

/// Verdict record: key, canonical request bytes, verdict fields.
fn encode_verdict(key: CacheKey, canon: &[u8], v: &CachedVerdict) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + canon.len());
    put_u64(&mut out, key.hi);
    put_u64(&mut out, key.lo);
    put_u32(&mut out, canon.len() as u32);
    out.extend_from_slice(canon);
    out.push(u8::from(v.schedulable));
    put_i64(&mut out, v.hyperperiod);
    put_u64(&mut out, v.jobs as u64);
    put_u64(&mut out, v.missed_jobs as u64);
    put_u32(&mut out, v.missing_partitions.len() as u32);
    for p in &v.missing_partitions {
        put_u32(&mut out, p.raw());
    }
    out.push(v.decided_by.to_byte());
    out
}

fn decode_verdict(payload: &[u8]) -> Option<(CacheKey, Vec<u8>, CachedVerdict)> {
    let mut r = Rd { bytes: payload, at: 0 };
    let key = CacheKey {
        hi: r.u64()?,
        lo: r.u64()?,
    };
    let canon_len = r.u32()? as usize;
    let canon = r.take(canon_len)?.to_vec();
    let schedulable = match r.u8()? {
        0 => false,
        1 => true,
        _ => return None,
    };
    let hyperperiod = r.i64()?;
    let jobs = usize::try_from(r.u64()?).ok()?;
    let missed_jobs = usize::try_from(r.u64()?).ok()?;
    let n_missing = r.u32()? as usize;
    if n_missing > payload.len() {
        return None;
    }
    let mut missing = Vec::with_capacity(n_missing);
    for _ in 0..n_missing {
        missing.push(PartitionId::from_raw(r.u32()?));
    }
    let decided_by = crate::ladder::DecidedBy::from_byte(r.u8()?)?;
    if !r.done() {
        return None;
    }
    Some((
        key,
        canon,
        CachedVerdict {
            schedulable,
            hyperperiod,
            jobs,
            missed_jobs,
            missing_partitions: missing,
            decided_by,
        },
    ))
}

/// Reads the cache key every record kind leads with.
fn decode_record_key(payload: &[u8]) -> Option<CacheKey> {
    let mut r = Rd { bytes: payload, at: 0 };
    Some(CacheKey {
        hi: r.u64()?,
        lo: r.u64()?,
    })
}

/// Checkpoint record: key, canonical config bytes, time, stop, serialized
/// snapshot, varint-packed event prefix.
fn encode_checkpoint(key: CacheKey, canon: &[u8], cp: &Checkpoint) -> Option<Vec<u8>> {
    let events = cp.prefix.events();
    let n_events = u32::try_from(events.len()).ok()?;
    let snap = cp.snapshot.to_bytes();
    let packed = delta::encode_events(events, 0);
    let mut out = Vec::with_capacity(64 + canon.len() + snap.len() + packed.len());
    put_u64(&mut out, key.hi);
    put_u64(&mut out, key.lo);
    put_u32(&mut out, canon.len() as u32);
    out.extend_from_slice(canon);
    put_i64(&mut out, cp.time());
    out.push(stop_to_byte(cp.stop));
    put_u32(&mut out, u32::try_from(snap.len()).ok()?);
    out.extend_from_slice(&snap);
    put_u32(&mut out, n_events);
    put_u32(&mut out, u32::try_from(packed.len()).ok()?);
    out.extend_from_slice(&packed);
    Some(out)
}

/// Decodes just enough of a checkpoint record to index it.
fn decode_checkpoint_head(payload: &[u8]) -> Option<(CacheKey, i64)> {
    let mut r = Rd { bytes: payload, at: 0 };
    let key = CacheKey {
        hi: r.u64()?,
        lo: r.u64()?,
    };
    let canon_len = r.u32()? as usize;
    r.take(canon_len)?;
    let time = r.i64()?;
    Some((key, time))
}

fn decode_checkpoint(payload: &[u8]) -> Option<(CacheKey, Vec<u8>, Checkpoint)> {
    let mut r = Rd { bytes: payload, at: 0 };
    let key = CacheKey {
        hi: r.u64()?,
        lo: r.u64()?,
    };
    let canon_len = r.u32()? as usize;
    let canon = r.take(canon_len)?.to_vec();
    let _time = r.i64()?;
    let stop = stop_from_byte(r.u8()?)?;
    let snap_len = r.u32()? as usize;
    let snapshot = Snapshot::from_bytes(r.take(snap_len)?).ok()?;
    let n_events = r.u32()? as usize;
    let packed_len = r.u32()? as usize;
    let prefix = delta::decode_events(r.take(packed_len)?, 0, n_events)?
        .into_iter()
        .collect();
    if !r.done() {
        return None;
    }
    Some((
        key,
        canon,
        Checkpoint {
            snapshot,
            prefix,
            stop,
        },
    ))
}

// ---------------------------------------------------------------------------
// Shared counter plumbing + background compactor
// ---------------------------------------------------------------------------

/// Atomic counters shared by the tiered store and its compactor thread.
#[derive(Default)]
struct Counters {
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    promotions: AtomicU64,
    appends: AtomicU64,
    errors: AtomicU64,
}

fn bump(
    recorder: &Option<Arc<dyn Recorder>>,
    counter: &AtomicU64,
    name: &str,
    delta: u64,
) {
    counter.fetch_add(delta, Ordering::Relaxed);
    if delta > 0 {
        if let Some(r) = recorder {
            r.counter(name, delta);
        }
    }
}

/// What the background thread needs from a typed disk tier.
trait Compactable: Send {
    /// Compacts if worthwhile; `Ok(true)` when a pass ran.
    fn compact_if_needed(&mut self) -> io::Result<bool>;
}

enum CompactorState {
    Idle,
    Pending,
    Shutdown,
}

struct CompactorShared {
    state: Mutex<CompactorState>,
    cv: Condvar,
}

/// Handle to the background compaction thread; dropping the owning store
/// shuts it down and joins it.
struct Compactor {
    shared: Arc<CompactorShared>,
    handle: Option<JoinHandle<()>>,
}

impl Compactor {
    fn spawn<D: Compactable + 'static>(
        disk: Arc<Mutex<D>>,
        recorder: Option<Arc<dyn Recorder>>,
        errors: Arc<AtomicU64>,
    ) -> Compactor {
        let shared = Arc::new(CompactorShared {
            state: Mutex::new(CompactorState::Idle),
            cv: Condvar::new(),
        });
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("swa-storage-compact".to_string())
            .spawn(move || loop {
                let mut state = thread_shared.state.lock().expect("unpoisoned");
                loop {
                    match *state {
                        CompactorState::Shutdown => return,
                        CompactorState::Pending => break,
                        CompactorState::Idle => {
                            state = thread_shared.cv.wait(state).expect("unpoisoned");
                        }
                    }
                }
                *state = CompactorState::Idle;
                drop(state);
                let result = disk.lock().expect("unpoisoned").compact_if_needed();
                match result {
                    Ok(ran) => {
                        if ran {
                            if let Some(r) = &recorder {
                                r.counter("storage.compactions", 1);
                            }
                        }
                    }
                    Err(_) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                        if let Some(r) = &recorder {
                            r.counter("storage.errors", 1);
                        }
                    }
                }
            })
            .expect("spawn compactor thread");
        Compactor {
            shared,
            handle: Some(handle),
        }
    }

    fn signal(&self) {
        let mut state = self.shared.state.lock().expect("unpoisoned");
        if !matches!(*state, CompactorState::Shutdown) {
            *state = CompactorState::Pending;
            self.shared.cv.notify_all();
        }
    }
}

impl Drop for Compactor {
    fn drop(&mut self) {
        *self.shared.state.lock().expect("unpoisoned") = CompactorState::Shutdown;
        self.shared.cv.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Verdict tier
// ---------------------------------------------------------------------------

/// The verdict disk tier: segment log plus a key → location index.
struct VerdictDisk {
    log: Log,
    index: HashMap<CacheKey, Loc>,
}

impl VerdictDisk {
    fn open(dir: &Path, options: StorageOptions) -> io::Result<(Self, u64)> {
        let mut index: HashMap<CacheKey, Loc> = HashMap::new();
        let mut superseded: Vec<Loc> = Vec::new();
        let log = Log::open(dir, KIND_VERDICT, options, &mut |loc, payload| {
            // Index by key without decoding the whole record; replay
            // order makes later records supersede earlier ones.
            if let Some(key) = decode_record_key(payload) {
                if let Some(old) = index.insert(key, loc) {
                    superseded.push(old);
                }
            }
        })?;
        let mut disk = VerdictDisk { log, index };
        for loc in superseded {
            disk.log.mark_dead(loc);
        }
        let torn = disk.log.torn_drops;
        Ok((disk, torn))
    }

    /// Rewrites live records into fresh segments and deletes the old.
    fn compact(&mut self) -> io::Result<()> {
        let old = self.log.begin_rewrite()?;
        let keys: Vec<CacheKey> = self.index.keys().copied().collect();
        let mut live = 0u64;
        for key in keys {
            let loc = self.index[&key];
            let payload = self.log.read(loc)?;
            let new_loc = self.log.append(&payload)?;
            live += new_loc.cost();
            self.index.insert(key, new_loc);
        }
        self.log.finish_rewrite(&old, live)
    }
}

impl Compactable for VerdictDisk {
    fn compact_if_needed(&mut self) -> io::Result<bool> {
        if self.log.needs_compaction() {
            self.compact()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }
}

/// A [`VerdictCache`] with a sharded in-memory tier over a durable
/// segment-log disk tier. See the module docs for the format and the
/// promotion/compaction behavior.
pub struct TieredVerdictCache {
    mem: ShardedVerdictCache,
    disk: Arc<Mutex<VerdictDisk>>,
    recorder: Option<Arc<dyn Recorder>>,
    counters: Counters,
    errors_shared: Arc<AtomicU64>,
    compactor: Option<Compactor>,
}

impl std::fmt::Debug for TieredVerdictCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredVerdictCache")
            .field("recorder", &self.recorder.is_some())
            .field("background", &self.compactor.is_some())
            .finish()
    }
}

impl TieredVerdictCache {
    /// Opens (or creates) the store under `dir` with a memory tier of
    /// `memory_bytes` and default [`StorageOptions`].
    ///
    /// # Errors
    ///
    /// Propagates directory and segment-file I/O failures. Torn tails are
    /// not errors — they are truncated and counted.
    pub fn open(dir: impl AsRef<Path>, memory_bytes: usize) -> io::Result<Self> {
        Self::open_with(dir, memory_bytes, StorageOptions::default(), None)
    }

    /// [`open`](Self::open) with explicit options and an optional
    /// [`Recorder`] for `storage.*` / `cache.*` counters.
    ///
    /// # Errors
    ///
    /// Propagates directory and segment-file I/O failures.
    pub fn open_with(
        dir: impl AsRef<Path>,
        memory_bytes: usize,
        options: StorageOptions,
        recorder: Option<Arc<dyn Recorder>>,
    ) -> io::Result<Self> {
        let background = options.background_compaction;
        let (disk, torn) = VerdictDisk::open(dir.as_ref(), options)?;
        if torn > 0 {
            if let Some(r) = &recorder {
                r.counter("storage.torn_drops", torn);
            }
        }
        let mut mem = ShardedVerdictCache::new(memory_bytes);
        if let Some(r) = &recorder {
            mem = mem.with_recorder(Arc::clone(r));
        }
        let disk = Arc::new(Mutex::new(disk));
        let errors_shared = Arc::new(AtomicU64::new(0));
        let compactor = background.then(|| {
            Compactor::spawn(Arc::clone(&disk), recorder.clone(), Arc::clone(&errors_shared))
        });
        Ok(Self {
            mem,
            disk,
            recorder,
            counters: Counters::default(),
            errors_shared,
            compactor,
        })
    }

    /// Runs a compaction pass now if one is worthwhile, synchronously.
    ///
    /// # Errors
    ///
    /// Propagates segment-file I/O failures.
    pub fn compact_now(&self) -> io::Result<bool> {
        self.disk
            .lock()
            .expect("unpoisoned")
            .compact_if_needed()
    }

    /// Counter snapshot of the disk tier.
    pub fn disk_stats(&self) -> StorageStats {
        let disk = self.disk.lock().expect("unpoisoned");
        StorageStats {
            segments: disk.log.segments.len(),
            live_records: disk.index.len(),
            live_bytes: disk.log.live_bytes,
            dead_bytes: disk.log.dead_bytes,
            torn_drops: disk.log.torn_drops,
            compactions: disk.log.compactions,
            disk_hits: self.counters.disk_hits.load(Ordering::Relaxed),
            disk_misses: self.counters.disk_misses.load(Ordering::Relaxed),
            promotions: self.counters.promotions.load(Ordering::Relaxed),
            appends: self.counters.appends.load(Ordering::Relaxed),
            errors: self.counters.errors.load(Ordering::Relaxed)
                + self.errors_shared.load(Ordering::Relaxed),
        }
    }
}

impl VerdictCache for TieredVerdictCache {
    fn lookup(&self, request: &CanonicalRequest) -> Option<Arc<CachedVerdict>> {
        if let Some(hit) = self.mem.lookup(request) {
            return Some(hit);
        }
        let disk = self.disk.lock().expect("unpoisoned");
        let Some(&loc) = disk.index.get(&request.key) else {
            drop(disk);
            bump(
                &self.recorder,
                &self.counters.disk_misses,
                "storage.disk_misses",
                1,
            );
            return None;
        };
        let payload = match disk.log.read(loc) {
            Ok(payload) => payload,
            Err(_) => {
                drop(disk);
                bump(&self.recorder, &self.counters.errors, "storage.errors", 1);
                return None;
            }
        };
        drop(disk);
        match decode_verdict(&payload) {
            // Full canonical comparison: a key collision is a miss, never
            // a wrong verdict — exactly the memory tier's contract.
            Some((_, canon, verdict)) if canon == request.bytes => {
                let verdict = Arc::new(verdict);
                bump(
                    &self.recorder,
                    &self.counters.disk_hits,
                    "storage.disk_hits",
                    1,
                );
                self.mem.insert(request, Arc::clone(&verdict));
                bump(
                    &self.recorder,
                    &self.counters.promotions,
                    "storage.promotions",
                    1,
                );
                Some(verdict)
            }
            Some(_) => {
                bump(
                    &self.recorder,
                    &self.counters.disk_misses,
                    "storage.disk_misses",
                    1,
                );
                None
            }
            None => {
                bump(&self.recorder, &self.counters.errors, "storage.errors", 1);
                None
            }
        }
    }

    fn insert(&self, request: &CanonicalRequest, verdict: Arc<CachedVerdict>) {
        self.mem.insert(request, Arc::clone(&verdict));
        let payload = encode_verdict(request.key, &request.bytes, &verdict);
        let mut disk = self.disk.lock().expect("unpoisoned");
        match disk.log.append(&payload) {
            Ok(loc) => {
                if let Some(old) = disk.index.insert(request.key, loc) {
                    disk.log.mark_dead(old);
                }
                let wants_compaction = disk.log.needs_compaction();
                drop(disk);
                bump(
                    &self.recorder,
                    &self.counters.appends,
                    "storage.appends",
                    1,
                );
                if let Some(r) = &self.recorder {
                    r.counter("storage.bytes_appended", RECORD_HEADER + payload.len() as u64);
                }
                if wants_compaction {
                    if let Some(c) = &self.compactor {
                        c.signal();
                    }
                }
            }
            Err(_) => {
                drop(disk);
                bump(&self.recorder, &self.counters.errors, "storage.errors", 1);
            }
        }
    }

    fn stats(&self) -> CacheStats {
        // Memory-tier view, with disk hits folded in: a lookup served
        // from the durable tier was counted as a memory miss on the way
        // down, so it is reclassified as a hit here. Byte/entry gauges
        // stay memory-tier; the disk side is `disk_stats` and the
        // `storage.*` counters.
        let mut stats = self.mem.stats();
        let disk_hits = self.counters.disk_hits.load(Ordering::Relaxed);
        stats.hits += disk_hits;
        stats.misses = stats.misses.saturating_sub(disk_hits);
        stats
    }
}

// ---------------------------------------------------------------------------
// Checkpoint tier
// ---------------------------------------------------------------------------

/// The checkpoint disk tier: segment log plus a key → time-ladder index.
struct CheckpointDisk {
    log: Log,
    index: HashMap<CacheKey, BTreeMap<i64, Loc>>,
}

impl CheckpointDisk {
    fn open(dir: &Path, options: StorageOptions) -> io::Result<(Self, u64)> {
        let mut index: HashMap<CacheKey, BTreeMap<i64, Loc>> = HashMap::new();
        let mut superseded: Vec<Loc> = Vec::new();
        let log = Log::open(dir, KIND_CHECKPOINT, options, &mut |loc, payload| {
            if let Some((key, time)) = decode_checkpoint_head(payload) {
                if let Some(old) = index.entry(key).or_default().insert(time, loc) {
                    superseded.push(old);
                }
            }
        })?;
        let mut disk = CheckpointDisk { log, index };
        for loc in superseded {
            disk.log.mark_dead(loc);
        }
        let torn = disk.log.torn_drops;
        Ok((disk, torn))
    }

    /// Latest indexed time at or before `max_time` for `key`.
    fn best_time(&self, key: CacheKey, max_time: i64) -> Option<i64> {
        self.index
            .get(&key)?
            .range(..=max_time)
            .next_back()
            .map(|(&t, _)| t)
    }

    fn live_records(&self) -> usize {
        self.index.values().map(BTreeMap::len).sum()
    }

    fn compact(&mut self) -> io::Result<()> {
        let old = self.log.begin_rewrite()?;
        let entries: Vec<(CacheKey, i64)> = self
            .index
            .iter()
            .flat_map(|(&k, ladder)| ladder.keys().map(move |&t| (k, t)))
            .collect();
        let mut live = 0u64;
        for (key, time) in entries {
            let loc = self.index[&key][&time];
            let payload = self.log.read(loc)?;
            let new_loc = self.log.append(&payload)?;
            live += new_loc.cost();
            self.index
                .get_mut(&key)
                .expect("slot present")
                .insert(time, new_loc);
        }
        self.log.finish_rewrite(&old, live)
    }
}

impl Compactable for CheckpointDisk {
    fn compact_if_needed(&mut self) -> io::Result<bool> {
        if self.log.needs_compaction() {
            self.compact()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }
}

/// A [`CheckpointStore`] with a sharded in-memory tier over a durable
/// segment-log disk tier. One configuration owns a ladder of checkpoint
/// records at increasing simulated times, and a lookup serves the best of
/// both tiers (promoting a disk win into memory).
pub struct TieredCheckpointStore {
    mem: ShardedCheckpointStore,
    disk: Arc<Mutex<CheckpointDisk>>,
    recorder: Option<Arc<dyn Recorder>>,
    counters: Counters,
    errors_shared: Arc<AtomicU64>,
    compactor: Option<Compactor>,
}

impl std::fmt::Debug for TieredCheckpointStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredCheckpointStore")
            .field("recorder", &self.recorder.is_some())
            .field("background", &self.compactor.is_some())
            .finish()
    }
}

impl TieredCheckpointStore {
    /// Opens (or creates) the store under `dir` with a memory tier of
    /// `memory_bytes` and default [`StorageOptions`].
    ///
    /// # Errors
    ///
    /// Propagates directory and segment-file I/O failures.
    pub fn open(dir: impl AsRef<Path>, memory_bytes: usize) -> io::Result<Self> {
        Self::open_with(dir, memory_bytes, StorageOptions::default(), None)
    }

    /// [`open`](Self::open) with explicit options and an optional
    /// [`Recorder`].
    ///
    /// # Errors
    ///
    /// Propagates directory and segment-file I/O failures.
    pub fn open_with(
        dir: impl AsRef<Path>,
        memory_bytes: usize,
        options: StorageOptions,
        recorder: Option<Arc<dyn Recorder>>,
    ) -> io::Result<Self> {
        let background = options.background_compaction;
        let (disk, torn) = CheckpointDisk::open(dir.as_ref(), options)?;
        if torn > 0 {
            if let Some(r) = &recorder {
                r.counter("storage.torn_drops", torn);
            }
        }
        let mut mem = ShardedCheckpointStore::new(memory_bytes);
        if let Some(r) = &recorder {
            mem = mem.with_recorder(Arc::clone(r));
        }
        let disk = Arc::new(Mutex::new(disk));
        let errors_shared = Arc::new(AtomicU64::new(0));
        let compactor = background.then(|| {
            Compactor::spawn(Arc::clone(&disk), recorder.clone(), Arc::clone(&errors_shared))
        });
        Ok(Self {
            mem,
            disk,
            recorder,
            counters: Counters::default(),
            errors_shared,
            compactor,
        })
    }

    /// Runs a compaction pass now if one is worthwhile, synchronously.
    ///
    /// # Errors
    ///
    /// Propagates segment-file I/O failures.
    pub fn compact_now(&self) -> io::Result<bool> {
        self.disk
            .lock()
            .expect("unpoisoned")
            .compact_if_needed()
    }

    /// Counter snapshot of the disk tier.
    pub fn disk_stats(&self) -> StorageStats {
        let disk = self.disk.lock().expect("unpoisoned");
        StorageStats {
            segments: disk.log.segments.len(),
            live_records: disk.live_records(),
            live_bytes: disk.log.live_bytes,
            dead_bytes: disk.log.dead_bytes,
            torn_drops: disk.log.torn_drops,
            compactions: disk.log.compactions,
            disk_hits: self.counters.disk_hits.load(Ordering::Relaxed),
            disk_misses: self.counters.disk_misses.load(Ordering::Relaxed),
            promotions: self.counters.promotions.load(Ordering::Relaxed),
            appends: self.counters.appends.load(Ordering::Relaxed),
            errors: self.counters.errors.load(Ordering::Relaxed)
                + self.errors_shared.load(Ordering::Relaxed),
        }
    }
}

impl CheckpointStore for TieredCheckpointStore {
    fn lookup_latest(&self, config: &CanonicalConfig, max_time: i64) -> Option<Arc<Checkpoint>> {
        let mem_hit = self.mem.lookup_latest(config, max_time);
        let disk = self.disk.lock().expect("unpoisoned");
        let disk_time = disk.best_time(config.key, max_time);
        // The disk only needs to be consulted when it can beat memory.
        let beats_mem = match (&mem_hit, disk_time) {
            (_, None) => false,
            (Some(mem), Some(t)) => t > mem.time(),
            (None, Some(_)) => true,
        };
        if !beats_mem {
            if mem_hit.is_none() {
                drop(disk);
                bump(
                    &self.recorder,
                    &self.counters.disk_misses,
                    "storage.disk_misses",
                    1,
                );
            }
            return mem_hit;
        }
        // Walk the disk ladder downward until a record verifies; stale or
        // collided records cost misses, never a wrong resume.
        let candidates: Vec<Loc> = disk
            .index
            .get(&config.key)
            .map(|ladder| {
                ladder
                    .range(..=max_time)
                    .rev()
                    .map(|(_, &loc)| loc)
                    .collect()
            })
            .unwrap_or_default();
        for loc in candidates {
            let Ok(payload) = disk.log.read(loc) else {
                bump(&self.recorder, &self.counters.errors, "storage.errors", 1);
                continue;
            };
            match decode_checkpoint(&payload) {
                Some((_, canon, cp)) if canon == config.bytes => {
                    if mem_hit.as_ref().is_some_and(|m| m.time() >= cp.time()) {
                        break; // remaining disk rungs are older than memory
                    }
                    drop(disk);
                    let cp = Arc::new(cp);
                    bump(
                        &self.recorder,
                        &self.counters.disk_hits,
                        "storage.disk_hits",
                        1,
                    );
                    self.mem.insert(config, Arc::clone(&cp));
                    bump(
                        &self.recorder,
                        &self.counters.promotions,
                        "storage.promotions",
                        1,
                    );
                    return Some(cp);
                }
                Some(_) => continue,
                None => {
                    bump(&self.recorder, &self.counters.errors, "storage.errors", 1);
                    continue;
                }
            }
        }
        drop(disk);
        if mem_hit.is_none() {
            bump(
                &self.recorder,
                &self.counters.disk_misses,
                "storage.disk_misses",
                1,
            );
        }
        mem_hit
    }

    fn insert(&self, config: &CanonicalConfig, checkpoint: Arc<Checkpoint>) {
        self.mem.insert(config, Arc::clone(&checkpoint));
        let Some(payload) = encode_checkpoint(config.key, &config.bytes, &checkpoint) else {
            bump(&self.recorder, &self.counters.errors, "storage.errors", 1);
            return;
        };
        let time = checkpoint.time();
        let mut disk = self.disk.lock().expect("unpoisoned");
        match disk.log.append(&payload) {
            Ok(loc) => {
                if let Some(old) = disk.index.entry(config.key).or_default().insert(time, loc)
                {
                    disk.log.mark_dead(old);
                }
                let wants_compaction = disk.log.needs_compaction();
                drop(disk);
                bump(
                    &self.recorder,
                    &self.counters.appends,
                    "storage.appends",
                    1,
                );
                if let Some(r) = &self.recorder {
                    r.counter("storage.bytes_appended", RECORD_HEADER + payload.len() as u64);
                }
                if wants_compaction {
                    if let Some(c) = &self.compactor {
                        c.signal();
                    }
                }
            }
            Err(_) => {
                drop(disk);
                bump(&self.recorder, &self.counters.errors, "storage.errors", 1);
            }
        }
    }

    fn stats(&self) -> CheckpointStats {
        // Same reclassification as the verdict tier: resumes served from
        // disk were memory misses on the way down.
        let mut stats = self.mem.stats();
        let disk_hits = self.counters.disk_hits.load(Ordering::Relaxed);
        stats.hits += disk_hits;
        stats.misses = stats.misses.saturating_sub(disk_hits);
        stats
    }
}

/// Opens both tiered stores under one state directory (`<dir>/verdicts`,
/// `<dir>/checkpoints`). A zero `checkpoint_bytes` budget disables the
/// checkpoint store, mirroring the in-memory configuration knobs.
///
/// # Errors
///
/// Propagates directory and segment-file I/O failures.
pub fn open_state_dir(
    dir: impl AsRef<Path>,
    cache_bytes: usize,
    checkpoint_bytes: usize,
    recorder: Option<Arc<dyn Recorder>>,
) -> io::Result<(Arc<TieredVerdictCache>, Option<Arc<TieredCheckpointStore>>)> {
    let dir = dir.as_ref();
    let verdicts = Arc::new(TieredVerdictCache::open_with(
        dir.join("verdicts"),
        cache_bytes,
        StorageOptions::default(),
        recorder.clone(),
    )?);
    let checkpoints = if checkpoint_bytes > 0 {
        Some(Arc::new(TieredCheckpointStore::open_with(
            dir.join("checkpoints"),
            checkpoint_bytes,
            StorageOptions::default(),
            recorder,
        )?))
    } else {
        None
    };
    Ok((verdicts, checkpoints))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::{canonical_config, canonicalize};
    use crate::obs::MetricsRecorder;
    use swa_ima::{
        Configuration, CoreRef, CoreType, CoreTypeId, Module, ModuleId, Partition, SchedulerKind,
        Task, Window,
    };
    use swa_nsa::semantics::Transition;
    use swa_nsa::state::ClockVal;
    use swa_nsa::{AutomatonId, EdgeId, NsaTrace, SimStats, State, SyncEvent};

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
            jobs: 3,
            missed_jobs: usize::from(!schedulable),
            missing_partitions: if schedulable {
                vec![]
            } else {
                vec![PartitionId::from_raw(0)]
            },
            decided_by: crate::ladder::DecidedBy::Simulation,
        })
    }

    fn checkpoint(time: i64) -> Arc<Checkpoint> {
        let prefix: NsaTrace = (0..time.min(40))
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
        let trace_len = u64::try_from(prefix.len()).unwrap();
        Arc::new(Checkpoint {
            snapshot: Snapshot {
                state: State::from_parts(
                    vec![],
                    vec![ClockVal {
                        value: time,
                        running: true,
                    }],
                    vec![time, 7],
                    time,
                ),
                steps: u64::try_from(time).unwrap_or(0),
                stats: SimStats::default(),
                trace_len,
            },
            prefix,
            stop: StopReason::HorizonReached,
        })
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "swa-storage-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Foreground-only options so tests are deterministic.
    fn fg() -> StorageOptions {
        StorageOptions {
            background_compaction: false,
            compact_min_dead: 1,
            ..StorageOptions::default()
        }
    }

    #[test]
    fn verdict_roundtrip_survives_reopen() {
        let dir = tmp_dir("verdict-reopen");
        let reqs: Vec<_> = (0..5).map(|i| canonicalize(&config(10 + i), 1)).collect();
        {
            let store = TieredVerdictCache::open_with(&dir, 1 << 20, fg(), None).unwrap();
            for (i, req) in reqs.iter().enumerate() {
                store.insert(req, verdict(i % 2 == 0));
            }
            assert_eq!(store.disk_stats().appends, 5);
        }
        let store = TieredVerdictCache::open_with(&dir, 1 << 20, fg(), None).unwrap();
        assert_eq!(store.disk_stats().live_records, 5);
        for (i, req) in reqs.iter().enumerate() {
            let hit = store.lookup(req).expect("disk tier must answer");
            assert_eq!(hit.schedulable, i % 2 == 0);
            assert_eq!(*hit, *verdict(i % 2 == 0));
        }
        let stats = store.disk_stats();
        assert_eq!(stats.disk_hits, 5);
        assert_eq!(stats.promotions, 5);
        assert_eq!(stats.torn_drops, 0, "a clean shutdown loses nothing");
        assert_eq!(stats.errors, 0, "no absorbed I/O errors");
        // Promoted: the second lookup is a pure memory hit.
        assert!(store.lookup(&reqs[0]).is_some());
        assert_eq!(store.disk_stats().disk_hits, 5, "no extra disk read");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verdict_disk_collision_is_a_miss() {
        let dir = tmp_dir("verdict-collision");
        let store = TieredVerdictCache::open_with(&dir, 1 << 20, fg(), None).unwrap();
        let real = canonicalize(&config(10), 1);
        store.insert(&real, verdict(true));
        // Same key, different canonical bytes — what a 128-bit collision
        // would look like. Restrict to a fresh store so the memory tier
        // cannot answer first.
        drop(store);
        let store = TieredVerdictCache::open_with(&dir, 1 << 20, fg(), None).unwrap();
        let forged = CanonicalRequest {
            key: real.key,
            bytes: canonicalize(&config(40), 1).bytes,
        };
        assert!(store.lookup(&forged).is_none(), "collision must miss");
        assert_eq!(store.disk_stats().disk_misses, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_prior_records_survive() {
        let dir = tmp_dir("torn-tail");
        let reqs: Vec<_> = (0..3).map(|i| canonicalize(&config(10 + i), 1)).collect();
        {
            let store = TieredVerdictCache::open_with(&dir, 1 << 20, fg(), None).unwrap();
            for req in &reqs {
                store.insert(req, verdict(true));
            }
        }
        // Simulate a kill mid-append: chop bytes off the segment tail so
        // the last record's checksum cannot verify.
        let seg = dir.join("seg-000000.log");
        let len = fs::metadata(&seg).unwrap().len();
        let file = OpenOptions::new().write(true).open(&seg).unwrap();
        file.set_len(len - 5).unwrap();
        drop(file);

        let recorder = Arc::new(MetricsRecorder::new());
        let store = TieredVerdictCache::open_with(
            &dir,
            1 << 20,
            fg(),
            Some(recorder.clone() as Arc<dyn Recorder>),
        )
        .unwrap();
        let stats = store.disk_stats();
        assert_eq!(stats.torn_drops, 1, "exactly one torn tail dropped");
        assert_eq!(stats.live_records, 2, "prior records survive");
        assert_eq!(recorder.counter_value("storage.torn_drops"), 1);
        assert!(store.lookup(&reqs[0]).is_some());
        assert!(store.lookup(&reqs[1]).is_some());
        assert!(store.lookup(&reqs[2]).is_none(), "torn record never served");

        // And appends continue cleanly after the truncation.
        store.insert(&reqs[2], verdict(false));
        drop(store);
        let store = TieredVerdictCache::open_with(&dir, 1 << 20, fg(), None).unwrap();
        assert!(!store.lookup(&reqs[2]).unwrap().schedulable);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_segment_corruption_never_serves_the_corrupt_record() {
        let dir = tmp_dir("mid-corrupt");
        let reqs: Vec<_> = (0..3).map(|i| canonicalize(&config(10 + i), 1)).collect();
        let offsets: Vec<u64>;
        {
            let store = TieredVerdictCache::open_with(&dir, 1 << 20, fg(), None).unwrap();
            for req in &reqs {
                store.insert(req, verdict(true));
            }
            let disk = store.disk.lock().unwrap();
            let mut offs: Vec<u64> = disk.index.values().map(|l| l.offset).collect();
            offs.sort_unstable();
            offsets = offs;
        }
        // Flip a byte inside the *second* record's payload.
        let seg = dir.join("seg-000000.log");
        let mut bytes = fs::read(&seg).unwrap();
        let at = usize::try_from(offsets[1] + RECORD_HEADER + 2).unwrap();
        bytes[at] ^= 0xff;
        fs::write(&seg, &bytes).unwrap();

        let store = TieredVerdictCache::open_with(&dir, 1 << 20, fg(), None).unwrap();
        // The valid prefix ends before the corrupt record; everything
        // after it is gone with it, but the first record still serves.
        assert!(store.lookup(&reqs[0]).is_some());
        assert!(store.lookup(&reqs[1]).is_none());
        assert!(store.disk_stats().torn_drops >= 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn supersede_and_compact_reclaims_dead_bytes() {
        let dir = tmp_dir("compact");
        let store = TieredVerdictCache::open_with(&dir, 1 << 20, fg(), None).unwrap();
        let req = canonicalize(&config(10), 1);
        let keeper = canonicalize(&config(11), 1);
        store.insert(&keeper, verdict(true));
        for i in 0..20 {
            store.insert(&req, verdict(i % 2 == 0));
        }
        let before = store.disk_stats();
        assert_eq!(before.live_records, 2);
        assert!(before.dead_bytes > before.live_bytes);
        assert!(store.compact_now().unwrap(), "compaction must run");
        let after = store.disk_stats();
        assert_eq!(after.dead_bytes, 0);
        assert_eq!(after.compactions, 1);
        assert!(after.live_bytes < before.live_bytes + before.dead_bytes);
        // Latest values survive compaction and a reopen.
        assert!(!store.lookup(&req).unwrap().schedulable);
        drop(store);
        let store = TieredVerdictCache::open_with(&dir, 1 << 20, fg(), None).unwrap();
        assert!(!store.lookup(&req).unwrap().schedulable);
        assert!(store.lookup(&keeper).unwrap().schedulable);
        assert_eq!(store.disk_stats().segments, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_roll_at_the_size_limit() {
        let dir = tmp_dir("roll");
        let options = StorageOptions {
            segment_bytes: 256,
            background_compaction: false,
            ..StorageOptions::default()
        };
        let store = TieredVerdictCache::open_with(&dir, 1 << 20, options.clone(), None).unwrap();
        let reqs: Vec<_> = (0..8).map(|i| canonicalize(&config(10 + i), 1)).collect();
        for req in &reqs {
            store.insert(req, verdict(true));
        }
        assert!(store.disk_stats().segments > 1, "log must roll");
        drop(store);
        let store = TieredVerdictCache::open_with(&dir, 1 << 20, options, None).unwrap();
        for req in &reqs {
            assert!(store.lookup(req).is_some());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_ladder_survives_reopen_and_promotes() {
        let dir = tmp_dir("ckpt-reopen");
        let recorder = Arc::new(MetricsRecorder::new());
        let key = canonical_config(&config(10));
        {
            let store = TieredCheckpointStore::open_with(&dir, 1 << 20, fg(), None).unwrap();
            for t in [100, 200, 300] {
                store.insert(&key, checkpoint(t));
            }
        }
        let store = TieredCheckpointStore::open_with(
            &dir,
            1 << 20,
            fg(),
            Some(recorder.clone() as Arc<dyn Recorder>),
        )
        .unwrap();
        assert_eq!(store.disk_stats().live_records, 3);
        // Disk answers the ladder query after a restart, byte-identically.
        let got = store.lookup_latest(&key, 250).expect("disk rung");
        assert_eq!(got.time(), 200);
        assert_eq!(got.snapshot.to_bytes(), checkpoint(200).snapshot.to_bytes());
        assert_eq!(got.prefix, checkpoint(200).prefix);
        assert_eq!(recorder.counter_value("storage.disk_hits"), 1);
        assert_eq!(recorder.counter_value("storage.promotions"), 1);
        // Promotion: same query now answered from memory.
        assert_eq!(store.lookup_latest(&key, 250).unwrap().time(), 200);
        assert_eq!(store.disk_stats().disk_hits, 1);
        // A later rung still comes from disk when memory has only t=200.
        assert_eq!(store.lookup_latest(&key, 1000).unwrap().time(), 300);
        assert_eq!(store.disk_stats().disk_hits, 2);
        assert!(store.lookup_latest(&key, 99).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_collision_is_a_miss_not_a_wrong_resume() {
        let dir = tmp_dir("ckpt-collision");
        let real = canonical_config(&config(10));
        {
            let store = TieredCheckpointStore::open_with(&dir, 1 << 20, fg(), None).unwrap();
            store.insert(&real, checkpoint(100));
        }
        let store = TieredCheckpointStore::open_with(&dir, 1 << 20, fg(), None).unwrap();
        let forged = CanonicalConfig {
            key: real.key,
            bytes: canonical_config(&config(40)).bytes,
        };
        assert!(store.lookup_latest(&forged, 1000).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_same_time_replace_supersedes_on_disk() {
        let dir = tmp_dir("ckpt-replace");
        let key = canonical_config(&config(10));
        {
            let store = TieredCheckpointStore::open_with(&dir, 1 << 20, fg(), None).unwrap();
            store.insert(&key, checkpoint(100));
            store.insert(&key, checkpoint(100));
            let stats = store.disk_stats();
            assert_eq!(stats.live_records, 1);
            assert!(stats.dead_bytes > 0, "replaced record is dead");
        }
        let store = TieredCheckpointStore::open_with(&dir, 1 << 20, fg(), None).unwrap();
        assert_eq!(store.disk_stats().live_records, 1);
        assert_eq!(store.lookup_latest(&key, 1000).unwrap().time(), 100);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_compaction_preserves_the_ladder() {
        let dir = tmp_dir("ckpt-compact");
        let key = canonical_config(&config(10));
        let store = TieredCheckpointStore::open_with(&dir, 1 << 20, fg(), None).unwrap();
        for _ in 0..10 {
            for t in [100, 200] {
                store.insert(&key, checkpoint(t));
            }
        }
        assert!(store.compact_now().unwrap());
        assert_eq!(store.disk_stats().dead_bytes, 0);
        drop(store);
        let store = TieredCheckpointStore::open_with(&dir, 1 << 20, fg(), None).unwrap();
        assert_eq!(store.disk_stats().live_records, 2);
        assert_eq!(store.lookup_latest(&key, 1000).unwrap().time(), 200);
        assert_eq!(store.lookup_latest(&key, 150).unwrap().time(), 100);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn background_compactor_runs_and_shuts_down() {
        let dir = tmp_dir("bg-compact");
        let options = StorageOptions {
            background_compaction: true,
            compact_min_dead: 1,
            ..StorageOptions::default()
        };
        let store = TieredVerdictCache::open_with(&dir, 1 << 20, options, None).unwrap();
        let req = canonicalize(&config(10), 1);
        for i in 0..50 {
            store.insert(&req, verdict(i % 2 == 0));
        }
        // The background thread is signalled on insert; give it a moment.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while store.disk_stats().compactions == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(10));
            // Keep generating dead bytes in case the signal raced.
            store.insert(&req, verdict(true));
        }
        assert!(store.disk_stats().compactions >= 1, "compactor never ran");
        drop(store); // Drop joins the thread; hanging here is the bug.
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_state_dir_wires_both_stores() {
        let dir = tmp_dir("state-dir");
        {
            let (verdicts, checkpoints) = open_state_dir(&dir, 1 << 20, 1 << 20, None).unwrap();
            let checkpoints = checkpoints.expect("enabled");
            verdicts.insert(&canonicalize(&config(10), 1), verdict(true));
            checkpoints.insert(&canonical_config(&config(10)), checkpoint(100));
        }
        let (verdicts, checkpoints) = open_state_dir(&dir, 1 << 20, 1 << 20, None).unwrap();
        assert!(verdicts.lookup(&canonicalize(&config(10), 1)).is_some());
        assert!(checkpoints
            .unwrap()
            .lookup_latest(&canonical_config(&config(10)), 1000)
            .is_some());
        let (_, disabled) = open_state_dir(&dir, 1 << 20, 0, None).unwrap();
        assert!(disabled.is_none());
        fs::remove_dir_all(&dir).unwrap();
    }
}
