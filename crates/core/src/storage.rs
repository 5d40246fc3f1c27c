//! The durable tier of the verdict and checkpoint stores.
//!
//! A memory-only store ([`crate::cache`], [`crate::checkpoint`]) dies with
//! the process: restarting a long-running `swa serve` instance throws away
//! its entire working set and re-simulates everything. A store opened
//! through [`open_state_dir`] keeps a **disk tier** under its memory tier,
//! so a verdict or checkpoint computed once survives restarts and is
//! promoted back into memory on first touch. Both stores share one disk
//! tier implementation; only its index differs (verdicts map a key to a
//! record, checkpoints map a key to a time ladder).
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
//! * **In-memory index**: opening replays every live record into the
//!   index; lookups read one record by offset, verify its checksum *and*
//!   its full canonical bytes (collisions cost a miss, never a wrong
//!   verdict — same contract as the memory tier).
//! * **Supersede + compaction**: re-inserting a key appends a new record
//!   and marks the old location dead. When dead bytes outgrow live bytes
//!   a background thread rewrites the live records into fresh segments
//!   and deletes the old files; a crash mid-compaction is safe because
//!   new segments have higher ids and replay order lets them supersede.
//! * **Memory-tier promotion**: a disk hit is stored in the memory tier
//!   (without being appended again), so repeated touches are served at
//!   memory speed. The store counts the lookup once, after both tiers
//!   have answered: a disk hit is a `cache.hits` / `checkpoint.hits`.
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
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use swa_ima::PartitionId;
use swa_nsa::{Snapshot, StopReason};

use crate::cache::{CachedVerdict, ShardedVerdictCache};
use crate::canon::CacheKey;
use crate::checkpoint::{Checkpoint, ShardedCheckpointStore};
use crate::delta;
use crate::obs::Recorder;
use crate::store::Tally;

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

/// Tuning of a disk tier. Production stores use the default; tests
/// shrink the thresholds and drive compaction by hand.
#[derive(Debug, Clone)]
pub(crate) struct StorageOptions {
    /// Roll to a new segment once the active one exceeds this size.
    pub(crate) segment_bytes: u64,
    /// Compact only once at least this many dead bytes accumulated (and
    /// dead outweighs live) — avoids churning tiny stores.
    pub(crate) compact_min_dead: u64,
    /// Run compaction on a background thread.
    pub(crate) background_compaction: bool,
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

/// Gauges of one disk tier (its activity counters are the `storage.*`
/// counters on the recorder).
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StorageStats {
    /// Segment files on disk.
    pub(crate) segments: usize,
    /// Records reachable through the index.
    pub(crate) live_records: usize,
    /// Bytes of live records (framing included).
    pub(crate) live_bytes: u64,
    /// Bytes of superseded records awaiting compaction.
    pub(crate) dead_bytes: u64,
}

/// Location of one record inside the segment log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Loc {
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
/// contents and the index live in [`DiskTier`].
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

        let active_id = segments
            .keys()
            .next_back()
            .copied()
            .map_or(0, |max| max)
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
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "record length drift",
            ));
        }
        let mut payload = vec![0u8; len as usize];
        file.read_exact(&mut payload)?;
        if fnv1a64(&payload) != sum {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "record checksum mismatch",
            ));
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
pub(crate) fn encode_verdict(key: CacheKey, canon: &[u8], v: &CachedVerdict) -> Vec<u8> {
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

/// Decodes a verdict record into its canonical request bytes and verdict.
pub(crate) fn decode_verdict(payload: &[u8]) -> Option<(&[u8], CachedVerdict)> {
    // Skip the leading key: the index already matched it.
    let mut r = Rd {
        bytes: payload,
        at: 16,
    };
    let canon_len = r.u32()? as usize;
    let canon = r.take(canon_len)?;
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
    let mut r = Rd {
        bytes: payload,
        at: 0,
    };
    Some(CacheKey {
        hi: r.u64()?,
        lo: r.u64()?,
    })
}

/// Checkpoint record: key, canonical config bytes, time, stop, serialized
/// snapshot, varint-packed event prefix.
pub(crate) fn encode_checkpoint(key: CacheKey, canon: &[u8], cp: &Checkpoint) -> Option<Vec<u8>> {
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
    let mut r = Rd {
        bytes: payload,
        at: 0,
    };
    let key = CacheKey {
        hi: r.u64()?,
        lo: r.u64()?,
    };
    let canon_len = r.u32()? as usize;
    r.take(canon_len)?;
    let time = r.i64()?;
    Some((key, time))
}

/// Decodes a checkpoint record into its canonical config bytes and
/// checkpoint.
pub(crate) fn decode_checkpoint(payload: &[u8]) -> Option<(&[u8], Checkpoint)> {
    // Skip the leading key: the index already matched it.
    let mut r = Rd {
        bytes: payload,
        at: 16,
    };
    let canon_len = r.u32()? as usize;
    let canon = r.take(canon_len)?;
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
        canon,
        Checkpoint {
            snapshot,
            prefix,
            stop,
        },
    ))
}

// ---------------------------------------------------------------------------
// Background compactor
// ---------------------------------------------------------------------------

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
    /// Spawns a thread that runs `pass` once per [`signal`](Self::signal).
    fn spawn(mut pass: impl FnMut() + Send + 'static) -> Compactor {
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
                pass();
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
// Disk tier
// ---------------------------------------------------------------------------

/// What distinguishes the verdict and checkpoint disk tiers: the segment
/// kind and how records are indexed.
pub(crate) trait DiskIndex: Default + Send + 'static {
    /// The segment kind tag.
    const KIND: u8;

    /// Indexes the record `payload` stored at `loc`; returns the location
    /// it supersedes.
    fn put(&mut self, payload: &[u8], loc: Loc) -> Option<Loc>;

    /// The locations of `key`'s records taken in `(after, upto]`, newest
    /// first.
    fn newest(&self, key: CacheKey, after: i64, upto: i64) -> impl Iterator<Item = Loc> + '_;

    /// Every live location, for compaction to rewrite in place.
    fn locs_mut(&mut self) -> impl Iterator<Item = &mut Loc> + '_;
}

/// Verdicts: key → its latest record. Verdicts carry no time, so the
/// `(after, upto]` window of [`DiskIndex::newest`] does not apply.
pub(crate) type VerdictIndex = HashMap<CacheKey, Loc>;

impl DiskIndex for VerdictIndex {
    const KIND: u8 = KIND_VERDICT;

    fn put(&mut self, payload: &[u8], loc: Loc) -> Option<Loc> {
        // Index by key without decoding the whole record.
        self.insert(decode_record_key(payload)?, loc)
    }

    fn newest(&self, key: CacheKey, _: i64, _: i64) -> impl Iterator<Item = Loc> + '_ {
        self.get(&key).copied().into_iter()
    }

    fn locs_mut(&mut self) -> impl Iterator<Item = &mut Loc> + '_ {
        self.values_mut()
    }
}

/// Checkpoints: key → time ladder of records.
pub(crate) type CheckpointIndex = HashMap<CacheKey, BTreeMap<i64, Loc>>;

impl DiskIndex for CheckpointIndex {
    const KIND: u8 = KIND_CHECKPOINT;

    fn put(&mut self, payload: &[u8], loc: Loc) -> Option<Loc> {
        let (key, time) = decode_checkpoint_head(payload)?;
        self.entry(key).or_default().insert(time, loc)
    }

    fn newest(&self, key: CacheKey, after: i64, upto: i64) -> impl Iterator<Item = Loc> + '_ {
        let window = (Bound::Excluded(after), Bound::Included(upto));
        self.get(&key)
            .filter(|_| after < upto)
            .into_iter()
            .flat_map(move |ladder| ladder.range(window).rev().map(|(_, &loc)| loc))
    }

    fn locs_mut(&mut self) -> impl Iterator<Item = &mut Loc> + '_ {
        self.values_mut().flat_map(BTreeMap::values_mut)
    }
}

/// The log and its index, behind the tier's lock.
struct Disk<I> {
    log: Log,
    index: I,
}

impl<I: DiskIndex> Disk<I> {
    /// Rewrites every live record into fresh segments and deletes the old
    /// ones, if dead bytes outweigh live ones; `Ok(true)` when a pass ran.
    fn compact_if_needed(&mut self) -> io::Result<bool> {
        if !self.log.needs_compaction() {
            return Ok(false);
        }
        let old = self.log.begin_rewrite()?;
        let log = &mut self.log;
        let mut live = 0u64;
        for loc in self.index.locs_mut() {
            let payload = log.read(*loc)?;
            *loc = log.append(&payload)?;
            live += loc.cost();
        }
        self.log.finish_rewrite(&old, live)?;
        Ok(true)
    }

    /// One counted compaction pass (the background thread's body).
    fn compact(disk: &Mutex<Self>, tally: &Tally) -> bool {
        match disk.lock().expect("unpoisoned").compact_if_needed() {
            Ok(ran) => {
                tally.emit("storage.compactions", u64::from(ran));
                ran
            }
            Err(_) => {
                tally.emit("storage.errors", 1);
                false
            }
        }
    }
}

/// The durable tier under one store: the segment log, the store's index
/// over it, the background compactor and the `storage.*` counters.
pub(crate) struct DiskTier<I> {
    disk: Arc<Mutex<Disk<I>>>,
    tally: Tally,
    compactor: Option<Compactor>,
}

impl<I: DiskIndex> DiskTier<I> {
    /// Opens (or creates) the log under `dir`, replaying every valid
    /// record into the index. Torn tails are not errors: they are
    /// truncated and counted.
    pub(crate) fn open(dir: &Path, options: StorageOptions, tally: Tally) -> io::Result<Self> {
        let background = options.background_compaction;
        let mut index = I::default();
        let mut superseded = Vec::new();
        // Replay order makes later records supersede earlier ones.
        let mut log = Log::open(dir, I::KIND, options, &mut |loc, payload| {
            superseded.extend(index.put(payload, loc));
        })?;
        for loc in superseded {
            log.mark_dead(loc);
        }
        tally.emit("storage.torn_drops", log.torn_drops);
        let disk = Arc::new(Mutex::new(Disk { log, index }));
        let compactor = background.then(|| {
            let (disk, tally) = (Arc::clone(&disk), tally.clone());
            Compactor::spawn(move || {
                Disk::compact(&disk, &tally);
            })
        });
        Ok(Self {
            disk,
            tally,
            compactor,
        })
    }

    /// Appends one record (`None`: the entry could not be encoded, which
    /// counts as an error) and supersedes the key's previous record.
    pub(crate) fn append(&self, payload: Option<&[u8]>) {
        let mut disk = self.disk.lock().expect("unpoisoned");
        let Some((payload, Ok(loc))) = payload.map(|p| (p, disk.log.append(p))) else {
            drop(disk);
            self.tally.emit("storage.errors", 1);
            return;
        };
        if let Some(old) = disk.index.put(payload, loc) {
            disk.log.mark_dead(old);
        }
        let wants_compaction = disk.log.needs_compaction();
        drop(disk);
        self.tally.emit("storage.appends", 1);
        self.tally.emit("storage.bytes_appended", loc.cost());
        if wants_compaction {
            if let Some(c) = &self.compactor {
                c.signal();
            }
        }
    }

    /// The newest of `key`'s records taken in `(after, upto]` whose
    /// canonical bytes equal `canon`. Unreadable or undecodable records
    /// count as errors and collided ones as skipped, so neither is ever
    /// served. The caller promotes what this returns into memory.
    pub(crate) fn find<T>(
        &self,
        key: CacheKey,
        canon: &[u8],
        after: i64,
        upto: i64,
        decode: impl Fn(&[u8]) -> Option<(&[u8], T)>,
    ) -> Option<T> {
        let disk = self.disk.lock().expect("unpoisoned");
        let mut found = None;
        for loc in disk.index.newest(key, after, upto) {
            let Ok(payload) = disk.log.read(loc) else {
                self.tally.emit("storage.errors", 1);
                continue;
            };
            match decode(&payload) {
                Some((stored, value)) if stored == canon => {
                    found = Some(value);
                    break;
                }
                Some(_) => {}
                None => self.tally.emit("storage.errors", 1),
            }
        }
        drop(disk);
        if found.is_some() {
            self.tally.emit("storage.disk_hits", 1);
            self.tally.emit("storage.promotions", 1);
        }
        found
    }

    /// Counts a lookup neither tier could answer.
    pub(crate) fn missed(&self) {
        self.tally.emit("storage.disk_misses", 1);
    }

    /// Runs a compaction pass now if one is worthwhile, synchronously.
    #[cfg(test)]
    pub(crate) fn compact_now(&self) -> bool {
        Disk::compact(&self.disk, &self.tally)
    }

    #[cfg(test)]
    pub(crate) fn stats(&self) -> StorageStats {
        let mut disk = self.disk.lock().expect("unpoisoned");
        StorageStats {
            segments: disk.log.segments.len(),
            live_records: disk.index.locs_mut().count(),
            live_bytes: disk.log.live_bytes,
            dead_bytes: disk.log.dead_bytes,
        }
    }
}

/// Opens both durable stores under one state directory (`<dir>/verdicts`,
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
) -> io::Result<(
    Arc<ShardedVerdictCache>,
    Option<Arc<ShardedCheckpointStore>>,
)> {
    let dir = dir.as_ref();
    let verdicts = ShardedVerdictCache::open(
        &dir.join("verdicts"),
        cache_bytes,
        StorageOptions::default(),
        recorder.clone(),
    )?;
    let checkpoints = if checkpoint_bytes > 0 {
        Some(Arc::new(ShardedCheckpointStore::open(
            &dir.join("checkpoints"),
            checkpoint_bytes,
            StorageOptions::default(),
            recorder,
        )?))
    } else {
        None
    };
    Ok((Arc::new(verdicts), checkpoints))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::VerdictCache;
    use crate::canon::{canonical_config, canonicalize, CanonicalConfig, CanonicalRequest};
    use crate::checkpoint::CheckpointStore;
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
        let dir =
            std::env::temp_dir().join(format!("swa-storage-test-{tag}-{}", std::process::id()));
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

    /// A durable verdict cache under `dir` with a fresh recorder.
    fn verdicts(
        dir: &Path,
        options: StorageOptions,
    ) -> (ShardedVerdictCache, Arc<MetricsRecorder>) {
        let recorder = Arc::new(MetricsRecorder::new());
        let sink = Some(recorder.clone() as Arc<dyn Recorder>);
        (
            ShardedVerdictCache::open(dir, 1 << 20, options, sink).unwrap(),
            recorder,
        )
    }

    /// A durable checkpoint store under `dir` with a fresh recorder.
    fn checkpoints(
        dir: &Path,
        options: StorageOptions,
    ) -> (ShardedCheckpointStore, Arc<MetricsRecorder>) {
        let recorder = Arc::new(MetricsRecorder::new());
        let sink = Some(recorder.clone() as Arc<dyn Recorder>);
        (
            ShardedCheckpointStore::open(dir, 1 << 20, options, sink).unwrap(),
            recorder,
        )
    }

    #[test]
    fn verdict_roundtrip_survives_reopen() {
        let dir = tmp_dir("verdict-reopen");
        let reqs: Vec<_> = (0..5).map(|i| canonicalize(&config(10 + i), 1)).collect();
        {
            let (store, recorder) = verdicts(&dir, fg());
            for (i, req) in reqs.iter().enumerate() {
                store.insert(req, verdict(i % 2 == 0));
            }
            assert_eq!(recorder.counter_value("storage.appends"), 5);
        }
        let (store, recorder) = verdicts(&dir, fg());
        assert_eq!(store.disk().stats().live_records, 5);
        for (i, req) in reqs.iter().enumerate() {
            let hit = store.lookup(req).expect("disk tier must answer");
            assert_eq!(hit.schedulable, i % 2 == 0);
            assert_eq!(*hit, *verdict(i % 2 == 0));
        }
        assert_eq!(recorder.counter_value("storage.disk_hits"), 5);
        assert_eq!(recorder.counter_value("storage.promotions"), 5);
        assert_eq!(
            recorder.counter_value("storage.torn_drops"),
            0,
            "a clean shutdown loses nothing"
        );
        assert_eq!(
            recorder.counter_value("storage.errors"),
            0,
            "no absorbed I/O errors"
        );
        // Promoted: the second lookup is a pure memory hit.
        assert!(store.lookup(&reqs[0]).is_some());
        assert_eq!(
            recorder.counter_value("storage.disk_hits"),
            5,
            "no extra disk read"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_verdict_record_with_the_retired_tier_byte_reads_back_as_a_hit() {
        // Byte 2 tagged verdicts of the retired RTC curve-interface tier;
        // logs written before its removal still hold such records.
        let dir = tmp_dir("verdict-retired-tier");
        let req = canonicalize(&config(10), 1);
        let laddered = CachedVerdict {
            decided_by: crate::ladder::DecidedBy::WindowRta,
            ..(*verdict(true)).clone()
        };
        let mut record = encode_verdict(req.key, &req.bytes, &laddered);
        *record.last_mut().unwrap() = 2;
        {
            let (store, _) = verdicts(&dir, fg());
            store.disk().append(Some(&record));
        }
        let (store, recorder) = verdicts(&dir, fg());
        let hit = store.lookup(&req).expect("the old record must answer");
        assert_eq!(*hit, laddered);
        assert_eq!(recorder.counter_value("storage.disk_hits"), 1);
        assert_eq!(recorder.counter_value("storage.errors"), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verdict_disk_collision_is_a_miss() {
        let dir = tmp_dir("verdict-collision");
        let (store, _) = verdicts(&dir, fg());
        let real = canonicalize(&config(10), 1);
        store.insert(&real, verdict(true));
        // Same key, different canonical bytes — what a 128-bit collision
        // would look like. Restrict to a fresh store so the memory tier
        // cannot answer first.
        drop(store);
        let (store, recorder) = verdicts(&dir, fg());
        let forged = CanonicalRequest {
            key: real.key,
            bytes: canonicalize(&config(40), 1).bytes,
        };
        assert!(store.lookup(&forged).is_none(), "collision must miss");
        assert_eq!(recorder.counter_value("storage.disk_misses"), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_prior_records_survive() {
        let dir = tmp_dir("torn-tail");
        let reqs: Vec<_> = (0..3).map(|i| canonicalize(&config(10 + i), 1)).collect();
        {
            let (store, _) = verdicts(&dir, fg());
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

        let (store, recorder) = verdicts(&dir, fg());
        assert_eq!(
            recorder.counter_value("storage.torn_drops"),
            1,
            "exactly one torn tail dropped"
        );
        assert_eq!(
            store.disk().stats().live_records,
            2,
            "prior records survive"
        );
        assert!(store.lookup(&reqs[0]).is_some());
        assert!(store.lookup(&reqs[1]).is_some());
        assert!(store.lookup(&reqs[2]).is_none(), "torn record never served");

        // And appends continue cleanly after the truncation.
        store.insert(&reqs[2], verdict(false));
        drop(store);
        let (store, _) = verdicts(&dir, fg());
        assert!(!store.lookup(&reqs[2]).unwrap().schedulable);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_segment_corruption_never_serves_the_corrupt_record() {
        let dir = tmp_dir("mid-corrupt");
        let reqs: Vec<_> = (0..3).map(|i| canonicalize(&config(10 + i), 1)).collect();
        let offsets: Vec<u64>;
        {
            let (store, _) = verdicts(&dir, fg());
            for req in &reqs {
                store.insert(req, verdict(true));
            }
            let disk = store.disk().disk.lock().unwrap();
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

        let (store, recorder) = verdicts(&dir, fg());
        // The valid prefix ends before the corrupt record; everything
        // after it is gone with it, but the first record still serves.
        assert!(store.lookup(&reqs[0]).is_some());
        assert!(store.lookup(&reqs[1]).is_none());
        assert!(recorder.counter_value("storage.torn_drops") >= 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn supersede_and_compact_reclaims_dead_bytes() {
        let dir = tmp_dir("compact");
        let (store, recorder) = verdicts(&dir, fg());
        let req = canonicalize(&config(10), 1);
        let keeper = canonicalize(&config(11), 1);
        store.insert(&keeper, verdict(true));
        for i in 0..20 {
            store.insert(&req, verdict(i % 2 == 0));
        }
        let before = store.disk().stats();
        assert_eq!(before.live_records, 2);
        assert!(before.dead_bytes > before.live_bytes);
        assert!(store.disk().compact_now(), "compaction must run");
        let after = store.disk().stats();
        assert_eq!(after.dead_bytes, 0);
        assert_eq!(recorder.counter_value("storage.compactions"), 1);
        assert!(after.live_bytes < before.live_bytes + before.dead_bytes);
        // Latest values survive compaction and a reopen.
        assert!(!store.lookup(&req).unwrap().schedulable);
        drop(store);
        let (store, _) = verdicts(&dir, fg());
        assert!(!store.lookup(&req).unwrap().schedulable);
        assert!(store.lookup(&keeper).unwrap().schedulable);
        assert_eq!(store.disk().stats().segments, 1);
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
        let (store, _) = verdicts(&dir, options.clone());
        let reqs: Vec<_> = (0..8).map(|i| canonicalize(&config(10 + i), 1)).collect();
        for req in &reqs {
            store.insert(req, verdict(true));
        }
        assert!(store.disk().stats().segments > 1, "log must roll");
        drop(store);
        let (store, _) = verdicts(&dir, options);
        for req in &reqs {
            assert!(store.lookup(req).is_some());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_ladder_survives_reopen_and_promotes() {
        let dir = tmp_dir("ckpt-reopen");
        let key = canonical_config(&config(10));
        {
            let (store, _) = checkpoints(&dir, fg());
            for t in [100, 200, 300] {
                store.insert(&key, checkpoint(t));
            }
        }
        let (store, recorder) = checkpoints(&dir, fg());
        assert_eq!(store.disk().stats().live_records, 3);
        // Disk answers the ladder query after a restart, byte-identically.
        let got = store.lookup_latest(&key, 250).expect("disk rung");
        assert_eq!(got.time(), 200);
        assert_eq!(got.snapshot.to_bytes(), checkpoint(200).snapshot.to_bytes());
        assert_eq!(got.prefix, checkpoint(200).prefix);
        assert_eq!(recorder.counter_value("storage.disk_hits"), 1);
        assert_eq!(recorder.counter_value("storage.promotions"), 1);
        // Promotion: same query now answered from memory.
        assert_eq!(store.lookup_latest(&key, 250).unwrap().time(), 200);
        assert_eq!(recorder.counter_value("storage.disk_hits"), 1);
        // A later rung still comes from disk when memory has only t=200.
        assert_eq!(store.lookup_latest(&key, 1000).unwrap().time(), 300);
        assert_eq!(recorder.counter_value("storage.disk_hits"), 2);
        assert!(store.lookup_latest(&key, 99).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_collision_is_a_miss_not_a_wrong_resume() {
        let dir = tmp_dir("ckpt-collision");
        let real = canonical_config(&config(10));
        {
            let (store, _) = checkpoints(&dir, fg());
            store.insert(&real, checkpoint(100));
        }
        let (store, _) = checkpoints(&dir, fg());
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
            let (store, _) = checkpoints(&dir, fg());
            store.insert(&key, checkpoint(100));
            store.insert(&key, checkpoint(100));
            let stats = store.disk().stats();
            assert_eq!(stats.live_records, 1);
            assert!(stats.dead_bytes > 0, "replaced record is dead");
        }
        let (store, _) = checkpoints(&dir, fg());
        assert_eq!(store.disk().stats().live_records, 1);
        assert_eq!(store.lookup_latest(&key, 1000).unwrap().time(), 100);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_compaction_preserves_the_ladder() {
        let dir = tmp_dir("ckpt-compact");
        let key = canonical_config(&config(10));
        let (store, _) = checkpoints(&dir, fg());
        for _ in 0..10 {
            for t in [100, 200] {
                store.insert(&key, checkpoint(t));
            }
        }
        assert!(store.disk().compact_now());
        assert_eq!(store.disk().stats().dead_bytes, 0);
        drop(store);
        let (store, _) = checkpoints(&dir, fg());
        assert_eq!(store.disk().stats().live_records, 2);
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
        let (store, recorder) = verdicts(&dir, options);
        let req = canonicalize(&config(10), 1);
        for i in 0..50 {
            store.insert(&req, verdict(i % 2 == 0));
        }
        // The background thread is signalled on insert; give it a moment.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while recorder.counter_value("storage.compactions") == 0
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(std::time::Duration::from_millis(10));
            // Keep generating dead bytes in case the signal raced.
            store.insert(&req, verdict(true));
        }
        assert!(
            recorder.counter_value("storage.compactions") >= 1,
            "compactor never ran"
        );
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

    /// `(hits, misses, full hits)`.
    type Counts = (u64, u64, u64);

    fn recorded(recorder: &MetricsRecorder, layer: &str) -> Counts {
        let count = |name: &str| recorder.counter_value(&format!("{layer}.{name}"));
        (count("hits"), count("misses"), count("full_hits"))
    }

    /// One stored verdict looked up twice, then one never stored; durable
    /// stores answer after a reopen, so the first hit comes from disk.
    fn verdict_counts(durable: bool) -> (Counts, Counts) {
        let dir = tmp_dir(&format!("count-verdicts-{durable}"));
        let (stored, absent) = (canonicalize(&config(10), 1), canonicalize(&config(11), 1));
        let (cache, recorder) = if durable {
            verdicts(&dir, fg()).0.insert(&stored, verdict(true));
            verdicts(&dir, fg())
        } else {
            let recorder = Arc::new(MetricsRecorder::new());
            let cache = ShardedVerdictCache::new(1 << 20).with_recorder(recorder.clone());
            cache.insert(&stored, verdict(true));
            (cache, recorder)
        };
        for req in [&stored, &stored, &absent] {
            let _ = cache.lookup(req);
        }
        let stats = cache.stats();
        let _ = fs::remove_dir_all(&dir);
        ((stats.hits, stats.misses, 0), recorded(&recorder, "cache"))
    }

    /// Rungs at 100, 200 and 300 looked up at ≤250, ≤250, ≤1000, ≤99 and
    /// ≤300; durable stores answer after a reopen, from both tiers.
    fn checkpoint_counts(durable: bool) -> (Counts, Counts) {
        let dir = tmp_dir(&format!("count-checkpoints-{durable}"));
        let key = canonical_config(&config(10));
        let fill = |store: &ShardedCheckpointStore| {
            for t in [100, 200, 300] {
                store.insert(&key, checkpoint(t));
            }
        };
        let (store, recorder) = if durable {
            fill(&checkpoints(&dir, fg()).0);
            checkpoints(&dir, fg())
        } else {
            let recorder = Arc::new(MetricsRecorder::new());
            let store = ShardedCheckpointStore::new(1 << 20).with_recorder(recorder.clone());
            fill(&store);
            (store, recorder)
        };
        for max_time in [250, 250, 1000, 99, 300] {
            let _ = store.lookup_latest(&key, max_time);
        }
        let stats = store.stats();
        let _ = fs::remove_dir_all(&dir);
        (
            (stats.hits, stats.misses, stats.full_hits),
            recorded(&recorder, "checkpoint"),
        )
    }

    /// Every store counts each lookup once, after both tiers answered:
    /// `stats()` and the recorder agree with the true counts whether the
    /// store is memory-only or durable.
    #[test]
    fn every_store_counts_each_lookup_once() {
        type Case = fn(bool) -> (Counts, Counts);
        let cases: [(&str, Case, Counts); 2] = [
            ("verdict", verdict_counts, (2, 1, 0)),
            ("checkpoint", checkpoint_counts, (4, 1, 1)),
        ];
        for (store, run, truth) in cases {
            for durable in [false, true] {
                let (stats, recorder) = run(durable);
                assert_eq!(stats, truth, "{store} store, durable={durable}: stats()");
                assert_eq!(
                    recorder, truth,
                    "{store} store, durable={durable}: recorder"
                );
            }
        }
    }

    /// A rung served from disk that covers the requested horizon is a
    /// full hit, exactly as a memory-served one is.
    #[test]
    fn a_disk_rung_covering_the_horizon_is_a_full_hit() {
        let dir = tmp_dir("disk-full-hit");
        let key = canonical_config(&config(10));
        checkpoints(&dir, fg()).0.insert(&key, checkpoint(100));
        let (store, recorder) = checkpoints(&dir, fg());
        assert_eq!(store.lookup_latest(&key, 100).unwrap().time(), 100);
        assert_eq!(recorder.counter_value("storage.disk_hits"), 1);
        assert_eq!(store.stats().full_hits, 1);
        assert_eq!(recorder.counter_value("checkpoint.full_hits"), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Pins the on-disk format: one fixed verdict and one fixed checkpoint
    /// written through `open_state_dir` produce segment files with these
    /// exact FNV-1a hashes. A state dir written by an earlier build must
    /// keep opening and answering, so a change here is a format change
    /// (bump `FORMAT_VERSION`), never a re-pin.
    #[test]
    fn state_dir_segment_bytes_are_pinned() {
        let dir = tmp_dir("format-pin");
        let req = canonicalize(&config(10), 1);
        let key = canonical_config(&config(10));
        {
            let (verdicts, checkpoints) = open_state_dir(&dir, 1 << 20, 1 << 20, None).unwrap();
            verdicts.insert(&req, verdict(false));
            checkpoints.expect("enabled").insert(&key, checkpoint(100));
        }
        let hash = |sub: &str| fnv1a64(&fs::read(dir.join(sub).join("seg-000000.log")).unwrap());
        assert_eq!(
            hash("verdicts"),
            0x7904_3bfc_de5d_6856,
            "verdict segment bytes drifted"
        );
        assert_eq!(
            hash("checkpoints"),
            0xe7e0_e418_9852_9df6,
            "checkpoint segment bytes drifted"
        );
        let (verdicts, checkpoints) = open_state_dir(&dir, 1 << 20, 1 << 20, None).unwrap();
        assert_eq!(verdicts.lookup(&req).as_deref(), Some(&*verdict(false)));
        let got = checkpoints.unwrap().lookup_latest(&key, 1000).unwrap();
        assert_eq!(got.snapshot.to_bytes(), checkpoint(100).snapshot.to_bytes());
        assert_eq!(got.prefix, checkpoint(100).prefix);
        fs::remove_dir_all(&dir).unwrap();
    }
}
