//! Span capture for the traced run, measured strictly from outside the
//! program: the suite times its own calls into public functions, wraps
//! the public `VerdictCache` / `CheckpointStore` traits in timing
//! decorators, and listens on the public `Recorder` trait.
//!
//! Spans are kept in memory and written out as JSONL when the run ends.
//! [`Tracer::attribute`] turns them into per-layer self wall time: at
//! every instant of a request the deepest active spans share the
//! elapsed time, so concurrent spans on two threads each get half of
//! it, and the layers' self times sum to the request's wall time.
//! Work the program reports only as a duration (the `Recorder` phase
//! spans and the batch engine's per-phase sums) is carved out of the
//! self time of the span it was reported under.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use swa_core::{
    CacheKey, CacheStats, CachedVerdict, CanonicalConfig, CanonicalRequest, Checkpoint,
    CheckpointStats, CheckpointStore, Recorder, VerdictCache,
};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (`0` is "no span").
    pub id: u64,
    /// The enclosing span, `0` for a request root.
    pub parent: u64,
    /// The request (workload operation) the span belongs to.
    pub request: u64,
    /// The layer the span's self time is charged to, optionally followed
    /// by `:` and a detail (see [`layer_of`]).
    pub name: String,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Busy time the program reported without an interval, charged inside
/// the self time of `parent`.
#[derive(Debug, Clone)]
struct Aggregate {
    parent: u64,
    layer: &'static str,
    busy_ns: f64,
}

/// Where calls arriving from inside the program (decorators, recorder)
/// are attached: the request and span the workload is currently in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Context {
    /// Current request id.
    pub request: u64,
    /// Current innermost span id.
    pub parent: u64,
}

#[derive(Default)]
struct Data {
    spans: Vec<Span>,
    aggregates: Vec<Aggregate>,
    next_id: u64,
    /// Synthetic batch spans: id → worker count seen in the batch metrics.
    batch_workers: HashMap<u64, usize>,
}

/// Per-name busy time and call counts (for per-call means).
#[derive(Debug, Clone, Copy, Default)]
struct CallStats {
    total: Duration,
    calls: u64,
}

/// In-memory span and counter store.
pub struct Tracer {
    origin: Instant,
    data: Mutex<Data>,
    context: Mutex<Context>,
    counters: Mutex<BTreeMap<String, f64>>,
    calls: Mutex<BTreeMap<String, CallStats>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer; its clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            data: Mutex::new(Data {
                next_id: 1,
                ..Data::default()
            }),
            context: Mutex::new(Context::default()),
            counters: Mutex::new(BTreeMap::new()),
            calls: Mutex::new(BTreeMap::new()),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// The current attachment point.
    #[must_use]
    pub fn context(&self) -> Context {
        *self.context.lock().expect("tracer context lock")
    }

    fn set_context(&self, context: Context) {
        *self.context.lock().expect("tracer context lock") = context;
    }

    fn alloc_id(&self) -> u64 {
        let mut data = self.data.lock().expect("tracer data lock");
        let id = data.next_id;
        data.next_id += 1;
        id
    }

    /// Records a finished interval under `context`; returns its id.
    pub fn record(&self, context: Context, name: &str, start: Instant, end: Instant) -> u64 {
        let id = self.alloc_id();
        self.push(id, context, name, start, end);
        id
    }

    fn push(&self, id: u64, context: Context, name: &str, start: Instant, end: Instant) {
        self.add_call(name, end.saturating_duration_since(start), 1);
        let span = Span {
            id,
            parent: context.parent,
            request: context.request,
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.data.lock().expect("tracer data lock").spans.push(span);
    }

    /// Runs `f` inside a new span charged to `name`, nested under the
    /// current context (which `f` sees as its parent).
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let outer = self.context();
        let id = self.alloc_id();
        self.set_context(Context {
            request: outer.request,
            parent: id,
        });
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.set_context(outer);
        self.push(id, outer, name, start, end);
        out
    }

    /// Runs `f` as the root span of request `request`.
    pub fn root<R>(&self, request: u64, name: &str, f: impl FnOnce() -> R) -> R {
        let outer = self.context();
        self.set_context(Context { request, parent: 0 });
        let out = self.span(name, f);
        self.set_context(outer);
        out
    }

    /// Charges `busy` of `layer` inside the current span's self time.
    pub fn aggregate(&self, layer: &'static str, busy: Duration) {
        let parent = self.context().parent;
        self.aggregate_under(parent, layer, busy);
    }

    /// Charges `busy` of `layer` inside the self time of span `parent`.
    pub fn aggregate_under(&self, parent: u64, layer: &'static str, busy: Duration) {
        #[allow(clippy::cast_precision_loss)]
        let busy_ns = busy.as_nanos() as f64;
        self.data
            .lock()
            .expect("tracer data lock")
            .aggregates
            .push(Aggregate {
                parent,
                layer,
                busy_ns,
            });
    }

    /// Adds to a counter.
    pub fn count(&self, name: &str, delta: f64) {
        *self
            .counters
            .lock()
            .expect("tracer counter lock")
            .entry(name.to_string())
            .or_default() += delta;
    }

    /// A counter's value (0 if never touched).
    #[must_use]
    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .lock()
            .expect("tracer counter lock")
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    fn add_call(&self, name: &str, total: Duration, calls: u64) {
        let mut map = self.calls.lock().expect("tracer call lock");
        let slot = map.entry(name.to_string()).or_default();
        slot.total += total;
        slot.calls += calls;
    }

    /// Mean duration per call of `name` in milliseconds (0 when never
    /// called).
    #[must_use]
    pub fn mean_ms(&self, name: &str) -> f64 {
        let map = self.calls.lock().expect("tracer call lock");
        map.get(name).map_or(0.0, |s| {
            if s.calls == 0 {
                0.0
            } else {
                #[allow(clippy::cast_precision_loss)]
                let calls = s.calls as f64;
                s.total.as_secs_f64() * 1e3 / calls
            }
        })
    }

    /// Summed duration of `name`.
    #[must_use]
    pub fn total(&self, name: &str) -> Duration {
        self.calls
            .lock()
            .expect("tracer call lock")
            .get(name)
            .map_or(Duration::ZERO, |s| s.total)
    }

    /// Worker busy time over worker capacity (wall × workers) across every
    /// batch run seen (0 when none ran).
    #[must_use]
    pub fn batch_busy_frac(&self) -> f64 {
        let data = self.data.lock().expect("tracer data lock");
        #[allow(clippy::cast_precision_loss)]
        let capacity: f64 = data
            .spans
            .iter()
            .filter_map(|s| {
                let workers = data.batch_workers.get(&s.id)?;
                Some((s.end_ns - s.start_ns) as f64 * *workers as f64)
            })
            .sum();
        drop(data);
        if capacity > 0.0 {
            self.counter("batch.busy_ns") / capacity
        } else {
            0.0
        }
    }

    fn spans(&self) -> Vec<Span> {
        self.data.lock().expect("tracer data lock").spans.clone()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    /// Per-layer self wall time (ns), summed over every request, and the
    /// summed wall time of the request roots.
    #[must_use]
    pub fn attribute(&self) -> (BTreeMap<String, f64>, f64) {
        let data = self.data.lock().expect("tracer data lock");
        let mut by_request: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
        for s in &data.spans {
            by_request.entry(s.request).or_default().push(s);
        }
        let mut self_ns: HashMap<u64, f64> = HashMap::new();
        let mut root_total = 0.0;
        for spans in by_request.values() {
            root_total += request_self_times(spans, &mut self_ns);
        }
        let mut aggs: HashMap<u64, Vec<&Aggregate>> = HashMap::new();
        for a in &data.aggregates {
            aggs.entry(a.parent).or_default().push(a);
        }
        let mut layers: BTreeMap<String, f64> = BTreeMap::new();
        for s in &data.spans {
            let own = self_ns.get(&s.id).copied().unwrap_or(0.0);
            // Aggregated busy time was spread over the batch's workers, so
            // it fills the span's wall time at 1/workers per busy unit.
            #[allow(clippy::cast_precision_loss)]
            let weight = 1.0 / data.batch_workers.get(&s.id).copied().unwrap_or(1).max(1) as f64;
            let carved: Vec<(&str, f64)> = aggs
                .get(&s.id)
                .map(|v| v.iter().map(|a| (a.layer, a.busy_ns * weight)).collect())
                .unwrap_or_default();
            let busy: f64 = carved.iter().map(|(_, b)| b).sum();
            let scale = if busy > own && busy > 0.0 {
                own / busy
            } else {
                1.0
            };
            for (layer, b) in carved {
                *layers.entry(layer.to_string()).or_default() += b * scale;
            }
            *layers.entry(layer_of(&s.name).to_string()).or_default() += own - busy * scale;
        }
        (layers, root_total)
    }
}

/// The layer a span name charges: the part before any `:` (a span named
/// `fastsim:free` is fastsim's cost, counted apart from `fastsim` calls).
#[must_use]
pub fn layer_of(name: &str) -> &str {
    name.split(':').next().unwrap_or(name)
}

/// Sweep-line self time for one request's spans; returns the root wall
/// time. At every instant the active spans with no active child share
/// the elapsed time equally.
fn request_self_times(spans: &[&Span], self_ns: &mut HashMap<u64, f64>) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let root_total = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .sum();
    // (time, is_start, span); ends sort before starts at the same instant.
    let mut events: Vec<(u64, bool, &Span)> = spans
        .iter()
        .filter(|s| s.end_ns > s.start_ns)
        .flat_map(|s| [(s.start_ns, true, *s), (s.end_ns, false, *s)])
        .collect();
    events.sort_unstable_by_key(|&(t, start, s)| (t, start, s.id));
    let mut active: Vec<&Span> = Vec::new();
    let mut active_children: HashMap<u64, usize> = HashMap::new();
    let mut i = 0;
    while i < events.len() {
        let now = events[i].0;
        while let Some(&(_, start, s)) = events.get(i).filter(|e| e.0 == now) {
            let children = active_children.entry(s.parent).or_default();
            if start {
                active.push(s);
                *children += 1;
            } else {
                active.retain(|a| a.id != s.id);
                *children -= 1;
            }
            i += 1;
        }
        let Some(&(next, _, _)) = events.get(i) else {
            break;
        };
        let leaves: Vec<u64> = active
            .iter()
            .map(|s| s.id)
            .filter(|id| active_children.get(id).copied().unwrap_or(0) == 0)
            .collect();
        #[allow(clippy::cast_precision_loss)]
        let share = (next - now) as f64 / leaves.len().max(1) as f64;
        for id in leaves {
            *self_ns.entry(id).or_default() += share;
        }
    }
    root_total
}

/// Per-thread bookkeeping that tells a composition write-back (an
/// insert of the whole key right after per-module lookup hits) from an
/// ordinary insert.
#[derive(Default, Clone, Copy)]
struct ProbeState {
    missed: Option<CacheKey>,
    hits_since: u32,
}

/// Timing decorator over a [`VerdictCache`].
pub struct TracedCache {
    inner: Arc<dyn VerdictCache>,
    tracer: Arc<Tracer>,
    probes: Mutex<HashMap<ThreadId, ProbeState>>,
}

impl TracedCache {
    /// Wraps `inner`.
    #[must_use]
    pub fn new(inner: Arc<dyn VerdictCache>, tracer: Arc<Tracer>) -> Self {
        Self {
            inner,
            tracer,
            probes: Mutex::new(HashMap::new()),
        }
    }
}

impl VerdictCache for TracedCache {
    fn lookup(&self, request: &CanonicalRequest) -> Option<Arc<CachedVerdict>> {
        let context = self.tracer.context();
        let start = Instant::now();
        let out = self.inner.lookup(request);
        self.tracer.record(context, "cache", start, Instant::now());
        self.tracer.count("cache.lookups", 1.0);
        let mut probes = self.probes.lock().expect("probe lock");
        let state = probes.entry(std::thread::current().id()).or_default();
        if out.is_some() {
            self.tracer.count("cache.hits", 1.0);
            if state.missed.is_some() {
                state.hits_since += 1;
            }
        } else {
            *state = ProbeState {
                missed: Some(request.key),
                hits_since: 0,
            };
        }
        out
    }

    fn insert(&self, request: &CanonicalRequest, verdict: Arc<CachedVerdict>) {
        let composed = {
            let mut probes = self.probes.lock().expect("probe lock");
            let state = probes.entry(std::thread::current().id()).or_default();
            let composed = state.missed == Some(request.key) && state.hits_since > 0;
            *state = ProbeState::default();
            composed
        };
        let context = self.tracer.context();
        let start = Instant::now();
        self.inner.insert(request, verdict);
        let layer = if composed { "compose" } else { "cache" };
        self.tracer.record(context, layer, start, Instant::now());
        if composed {
            self.tracer.count("compose.hits", 1.0);
        }
        self.tracer.count("cache.inserts", 1.0);
    }

    fn stats(&self) -> CacheStats {
        self.inner.stats()
    }
}

/// Timing decorator over a [`CheckpointStore`].
pub struct TracedCheckpoints {
    inner: Arc<dyn CheckpointStore>,
    tracer: Arc<Tracer>,
}

impl TracedCheckpoints {
    /// Wraps `inner`.
    #[must_use]
    pub fn new(inner: Arc<dyn CheckpointStore>, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

impl CheckpointStore for TracedCheckpoints {
    fn lookup_latest(&self, config: &CanonicalConfig, max_time: i64) -> Option<Arc<Checkpoint>> {
        let context = self.tracer.context();
        let start = Instant::now();
        let out = self.inner.lookup_latest(config, max_time);
        self.tracer
            .record(context, "checkpoint", start, Instant::now());
        self.tracer.count("checkpoint.lookups", 1.0);
        if let Some(cp) = &out {
            self.tracer.count("checkpoint.hits", 1.0);
            if cp.time() >= max_time {
                self.tracer.count("checkpoint.full_hits", 1.0);
            }
        }
        out
    }

    fn insert(&self, config: &CanonicalConfig, checkpoint: Arc<Checkpoint>) {
        let context = self.tracer.context();
        let start = Instant::now();
        self.inner.insert(config, checkpoint);
        self.tracer
            .record(context, "checkpoint", start, Instant::now());
        self.tracer.count("checkpoint.inserts", 1.0);
    }

    fn stats(&self) -> CheckpointStats {
        self.inner.stats()
    }
}

/// The layer an analyzer phase span is charged to.
fn phase_layer(name: &str) -> Option<&'static str> {
    match name {
        "build" => Some("instance"),
        "compile" => Some("bytecode"),
        "simulate" => Some("fastsim"),
        "analyze" => Some("analysis"),
        _ => None,
    }
}

/// A [`Recorder`] that turns the program's own emissions into trace
/// entries: counters pass through, analyzer phase spans become
/// aggregates of the current span, each batch run becomes a synthetic
/// `batch` span holding its phase sums, and a ladder evaluation is
/// timed from its `ladder.evaluated` counter to its verdict counter.
pub struct CaptureRecorder {
    tracer: Arc<Tracer>,
    /// Per thread: the open synthetic batch span.
    batch: Mutex<HashMap<ThreadId, u64>>,
    /// Per thread: when the running ladder evaluation started.
    ladder: Mutex<HashMap<ThreadId, (Context, Instant)>>,
}

impl CaptureRecorder {
    /// A recorder feeding `tracer`.
    #[must_use]
    pub fn new(tracer: Arc<Tracer>) -> Self {
        Self {
            tracer,
            batch: Mutex::new(HashMap::new()),
            ladder: Mutex::new(HashMap::new()),
        }
    }
}

impl Recorder for CaptureRecorder {
    fn counter(&self, name: &str, delta: u64) {
        #[allow(clippy::cast_precision_loss)]
        self.tracer.count(name, delta as f64);
        let thread = std::thread::current().id();
        match name {
            "ladder.evaluated" => {
                let context = self.tracer.context();
                self.ladder
                    .lock()
                    .expect("ladder lock")
                    .insert(thread, (context, Instant::now()));
            }
            "ladder.decided" | "ladder.undecided" => {
                if let Some((context, start)) =
                    self.ladder.lock().expect("ladder lock").remove(&thread)
                {
                    self.tracer.record(context, "ladder", start, Instant::now());
                }
            }
            "batch.checks" if self.batch.lock().expect("batch lock").contains_key(&thread) => {
                for layer in ["instance", "bytecode", "fastsim", "analysis"] {
                    self.tracer.add_call(layer, Duration::ZERO, delta);
                }
            }
            _ => {}
        }
    }

    fn span(&self, name: &str, elapsed: Duration) {
        let thread = std::thread::current().id();
        if let Some(layer) = phase_layer(name) {
            self.tracer.add_call(layer, elapsed, 1);
            self.tracer.aggregate(layer, elapsed);
            // Analyzer runs (not batch sums) are the ones whose step and
            // op counters the recorder also sees.
            self.tracer.count(&format!("recorded.{name}"), 1.0);
            if name == "simulate" {
                self.tracer
                    .count("recorded.simulate_ns", elapsed.as_secs_f64() * 1e9);
            }
            return;
        }
        if name == "batch.wall" {
            let end = Instant::now();
            let id = self
                .tracer
                .record(self.tracer.context(), "batch", end - elapsed, end);
            self.batch.lock().expect("batch lock").insert(thread, id);
            return;
        }
        let Some(&batch) = self.batch.lock().expect("batch lock").get(&thread) else {
            return;
        };
        if let Some(layer) = name.strip_prefix("batch.").and_then(phase_layer) {
            self.tracer.add_call(layer, elapsed, 0);
            self.tracer.aggregate_under(batch, layer, elapsed);
        } else if name.starts_with("batch.worker.") && name.ends_with(".busy") {
            *self
                .tracer
                .data
                .lock()
                .expect("tracer data lock")
                .batch_workers
                .entry(batch)
                .or_default() += 1;
            self.tracer
                .count("batch.busy_ns", elapsed.as_secs_f64() * 1e9);
        }
    }
}

/// Renders a layer → value map for diagnostics.
#[must_use]
pub fn render_layers(layers: &BTreeMap<String, f64>, total: f64) -> String {
    let mut out = String::new();
    let mut rows: Vec<(&String, &f64)> = layers.iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(a.1));
    for (name, v) in rows {
        if *v > 0.0 {
            let _ = write!(out, " {name}={:.1}%", 100.0 * v / total.max(1.0));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(t: &Tracer, ns: u64) -> Instant {
        t.origin + Duration::from_nanos(ns)
    }

    #[test]
    fn nested_spans_attribute_self_time() {
        let t = Tracer::new();
        let root = Context {
            request: 1,
            parent: 0,
        };
        let r = t.record(root, "suite", at(&t, 0), at(&t, 100));
        let inner = Context {
            request: 1,
            parent: r,
        };
        t.record(inner, "xmlio", at(&t, 10), at(&t, 30));
        t.record(inner, "fastsim", at(&t, 30), at(&t, 90));
        let (layers, total) = t.attribute();
        assert_eq!(total, 100.0);
        assert_eq!(layers["suite"], 20.0);
        assert_eq!(layers["xmlio"], 20.0);
        assert_eq!(layers["fastsim"], 60.0);
    }

    #[test]
    fn concurrent_leaves_share_time_and_aggregates_carve_self_time() {
        let t = Tracer::new();
        let root = Context {
            request: 7,
            parent: 0,
        };
        let r = t.record(root, "search", at(&t, 0), at(&t, 100));
        let inner = Context {
            request: 7,
            parent: r,
        };
        // Two overlapping leaves on two threads over [20, 60).
        t.record(inner, "cache", at(&t, 20), at(&t, 60));
        t.record(inner, "checkpoint", at(&t, 20), at(&t, 60));
        // 30 ns of simulation reported as a bare duration.
        t.aggregate_under(r, "fastsim", Duration::from_nanos(30));
        let (layers, total) = t.attribute();
        assert_eq!(total, 100.0);
        assert_eq!(layers["cache"], 20.0);
        assert_eq!(layers["checkpoint"], 20.0);
        assert_eq!(layers["fastsim"], 30.0);
        assert_eq!(layers["search"], 30.0);
        let sum: f64 = layers.values().sum();
        assert!((sum - total).abs() < 1e-9);
    }

    #[test]
    fn oversubscribed_aggregates_are_scaled_into_the_span() {
        let t = Tracer::new();
        let r = t.record(
            Context {
                request: 1,
                parent: 0,
            },
            "sweep",
            at(&t, 0),
            at(&t, 10),
        );
        t.aggregate_under(r, "fastsim", Duration::from_nanos(15));
        t.aggregate_under(r, "instance", Duration::from_nanos(5));
        let (layers, _) = t.attribute();
        assert!((layers["fastsim"] - 7.5).abs() < 1e-9);
        assert!((layers["instance"] - 2.5).abs() < 1e-9);
        assert!(layers["sweep"].abs() < 1e-9);
    }

    #[test]
    fn span_helper_nests_and_restores_context() {
        let t = Tracer::new();
        t.root(3, "suite", || {
            t.span("xmlio", || std::thread::sleep(Duration::from_millis(1)));
            assert_eq!(t.context().request, 3);
        });
        assert_eq!(t.context(), Context::default());
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.parent == 0).expect("root");
        let child = spans.iter().find(|s| s.parent != 0).expect("child");
        assert_eq!(child.parent, root.id);
        assert!(t.mean_ms("xmlio") >= 1.0);
    }
}
