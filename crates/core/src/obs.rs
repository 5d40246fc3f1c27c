//! Unified observability: one zero-dependency layer for every metric the
//! workspace emits.
//!
//! Before this module each crate carried its own ad-hoc metrics structs
//! ([`RunMetrics`] in the pipeline, [`BatchMetrics`] in the batch engine,
//! compile stats in the bytecode layer) and every binary hand-rolled its
//! own JSON. They now share one vocabulary:
//!
//! * a [`Recorder`] trait — monotonic **counters** (`sim.steps`,
//!   `compile.ops`, `sim.wheel_wakeups`, …), wall-clock **spans**
//!   (`build`, `compile`, `simulate`, `analyze`) and optional simulation
//!   **events** — with a no-op default implementation so the hot path
//!   pays nothing when nobody is listening;
//! * [`MetricsRecorder`], an in-memory aggregator with a hand-rolled
//!   [`to_json`](MetricsRecorder::to_json) (the workspace is deliberately
//!   free of external crates);
//! * [`JsonlSink`], a line-per-event JSON log of the simulation trace for
//!   offline forensics.
//!
//! The legacy structs still exist — they are the *snapshot* form of the
//! same data and remain on [`AnalysisReport`](crate::AnalysisReport) /
//! [`BatchOutcome`](crate::BatchOutcome) — but they are defined here and
//! know how to [`record_to`](RunMetrics::record_to) any recorder.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Duration;

/// A sink for metrics and simulation events.
///
/// Every method has a no-op default body, so `&NoopRecorder` (or any
/// partial implementation) costs one virtual call per emission and the
/// simulator's per-step path is never instrumented unless
/// [`wants_events`](Recorder::wants_events) opts in.
pub trait Recorder: Send + Sync {
    /// Adds `delta` to the monotonic counter `name`.
    fn counter(&self, name: &str, delta: u64) {
        let _ = (name, delta);
    }

    /// Records one completed timing span `name` of length `elapsed`.
    fn span(&self, name: &str, elapsed: Duration) {
        let _ = (name, elapsed);
    }

    /// Records one simulation event (`kind` is a short tag such as
    /// `"sync"`, `time` the model time, `text` a rendered description).
    /// Only called when [`wants_events`](Recorder::wants_events) is true.
    fn event(&self, kind: &str, time: i64, text: &str) {
        let _ = (kind, time, text);
    }

    /// Whether per-event forwarding should be wired up at all. Emitters
    /// must check this before paying any per-event rendering cost.
    fn wants_events(&self) -> bool {
        false
    }
}

/// The do-nothing recorder (the default everywhere).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// Accumulated statistics of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Summed elapsed time across all recordings.
    pub total: Duration,
    /// Number of recordings.
    pub count: u64,
}

/// An in-memory aggregating recorder: counters sum, spans accumulate
/// total time and a count. Thread-safe (the batch engine records from
/// worker threads).
#[derive(Debug, Default)]
pub struct MetricsRecorder {
    counters: Mutex<BTreeMap<String, u64>>,
    spans: Mutex<BTreeMap<String, SpanStats>>,
}

impl MetricsRecorder {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of all counters.
    #[must_use]
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.counters.lock().expect("unpoisoned").clone()
    }

    /// Snapshot of all spans.
    #[must_use]
    pub fn spans(&self) -> BTreeMap<String, SpanStats> {
        self.spans.lock().expect("unpoisoned").clone()
    }

    /// Current value of one counter (0 if never recorded).
    #[must_use]
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .expect("unpoisoned")
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Total accumulated time of one span (zero if never recorded).
    #[must_use]
    pub fn span_total(&self, name: &str) -> Duration {
        self.spans
            .lock()
            .expect("unpoisoned")
            .get(name)
            .map_or(Duration::ZERO, |s| s.total)
    }

    /// Renders the snapshot as a self-contained JSON document:
    /// `{"counters": {..}, "spans": {"name": {"seconds": s, "count": n}}}`.
    /// Keys are emitted in sorted order, so output is deterministic.
    #[must_use]
    pub fn to_json(&self) -> String {
        let counters = self.counters();
        let spans = self.spans();
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, value)) in counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{}\": {value}", json_escape(name));
        }
        if counters.is_empty() {
            out.push_str("},\n");
        } else {
            out.push_str("\n  },\n");
        }
        out.push_str("  \"spans\": {");
        for (i, (name, s)) in spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {{\"seconds\": {:.6}, \"count\": {}}}",
                json_escape(name),
                s.total.as_secs_f64(),
                s.count
            );
        }
        if spans.is_empty() {
            out.push_str("}\n}\n");
        } else {
            out.push_str("\n  }\n}\n");
        }
        out
    }
}

impl Recorder for MetricsRecorder {
    fn counter(&self, name: &str, delta: u64) {
        let mut map = self.counters.lock().expect("unpoisoned");
        if let Some(slot) = map.get_mut(name) {
            *slot = slot.saturating_add(delta);
        } else {
            map.insert(name.to_owned(), delta);
        }
    }

    fn span(&self, name: &str, elapsed: Duration) {
        let mut map = self.spans.lock().expect("unpoisoned");
        let slot = map.entry(name.to_owned()).or_default();
        slot.total += elapsed;
        slot.count += 1;
    }
}

/// A recorder that appends one JSON object per simulation event to a
/// writer (typically a file): the machine-readable twin of `--trace`.
///
/// Counters and spans are accepted too (one line each, `"kind": "counter"`
/// / `"kind": "span"`), so a single sink can capture a whole run.
pub struct JsonlSink {
    out: Mutex<BufWriter<Box<dyn Write + Send>>>,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

impl JsonlSink {
    /// A sink appending to the file at `path` (truncating any previous
    /// content).
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`std::fs::File::create`] failure.
    pub fn create(path: &Path) -> io::Result<Self> {
        Ok(Self::to_writer(Box::new(std::fs::File::create(path)?)))
    }

    /// A sink writing to an arbitrary writer (tests use `Vec<u8>` via a
    /// wrapper).
    #[must_use]
    pub fn to_writer(out: Box<dyn Write + Send>) -> Self {
        Self {
            out: Mutex::new(BufWriter::new(out)),
        }
    }

    /// Flushes buffered lines to the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O failure.
    pub fn flush(&self) -> io::Result<()> {
        self.out.lock().expect("unpoisoned").flush()
    }

    fn line(&self, line: &str) {
        let mut out = self.out.lock().expect("unpoisoned");
        // An unwritable sink must not abort an otherwise-sound analysis;
        // the final flush() surfaces persistent failures.
        let _ = writeln!(out, "{line}");
    }
}

impl Recorder for JsonlSink {
    fn counter(&self, name: &str, delta: u64) {
        self.line(&format!(
            "{{\"kind\": \"counter\", \"name\": \"{}\", \"delta\": {delta}}}",
            json_escape(name)
        ));
    }

    fn span(&self, name: &str, elapsed: Duration) {
        self.line(&format!(
            "{{\"kind\": \"span\", \"name\": \"{}\", \"seconds\": {:.6}}}",
            json_escape(name),
            elapsed.as_secs_f64()
        ));
    }

    fn event(&self, kind: &str, time: i64, text: &str) {
        self.line(&format!(
            "{{\"kind\": \"{}\", \"time\": {time}, \"text\": \"{}\"}}",
            json_escape(kind),
            json_escape(text)
        ));
    }

    fn wants_events(&self) -> bool {
        true
    }
}

/// Broadcasts every emission to each inner recorder (e.g. an aggregating
/// [`MetricsRecorder`] plus a [`JsonlSink`] event log).
#[derive(Default)]
pub struct Fanout<'a> {
    sinks: Vec<&'a dyn Recorder>,
}

impl std::fmt::Debug for Fanout<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fanout")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl<'a> Fanout<'a> {
    /// An empty fan-out (equivalent to [`NoopRecorder`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a recorder to the fan-out.
    #[must_use]
    pub fn with(mut self, sink: &'a dyn Recorder) -> Self {
        self.sinks.push(sink);
        self
    }
}

impl Recorder for Fanout<'_> {
    fn counter(&self, name: &str, delta: u64) {
        for s in &self.sinks {
            s.counter(name, delta);
        }
    }

    fn span(&self, name: &str, elapsed: Duration) {
        for s in &self.sinks {
            s.span(name, elapsed);
        }
    }

    fn event(&self, kind: &str, time: i64, text: &str) {
        for s in &self.sinks {
            if s.wants_events() {
                s.event(kind, time, text);
            }
        }
    }

    fn wants_events(&self) -> bool {
        self.sinks.iter().any(|s| s.wants_events())
    }
}

/// Escapes a string for inclusion in a JSON string literal.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Snapshot metrics structs (moved here from `pipeline` and `batch`; those
// modules re-export them for compatibility).
// ---------------------------------------------------------------------------

/// Cost of lowering the instance's guards, invariants and updates to
/// bytecode.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileMetrics {
    /// Wall-clock time spent compiling.
    pub time: Duration,
    /// Number of bytecode programs emitted.
    pub programs: usize,
    /// Total instruction count across all programs.
    pub ops: usize,
}

/// Wall-clock timings of each pipeline phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunMetrics {
    /// Time to construct the NSA instance (Algorithm 1).
    pub build: Duration,
    /// Cost of the bytecode compilation pass over the instance.
    pub compile: CompileMetrics,
    /// Time to interpret the model over one hyperperiod.
    pub simulate: Duration,
    /// Time to extract the system trace and analyze it.
    pub analyze: Duration,
    /// Number of synchronization events in the model trace.
    pub nsa_events: usize,
    /// Number of action transitions taken.
    pub steps: u64,
    /// Event-wheel wakeups consumed by the fast simulation loop (0 when
    /// the generic loop ran).
    pub wheel_wakeups: u64,
}

impl RunMetrics {
    /// Total wall-clock time of the run.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.build + self.compile.time + self.simulate + self.analyze
    }

    /// Emits this snapshot into `recorder` under the canonical names
    /// (spans `build`/`compile`/`simulate`/`analyze`, counters
    /// `compile.programs`, `compile.ops`, `sim.events`, `sim.steps`,
    /// `sim.wheel_wakeups`).
    pub fn record_to(&self, recorder: &dyn Recorder) {
        recorder.span("build", self.build);
        recorder.span("compile", self.compile.time);
        recorder.span("simulate", self.simulate);
        recorder.span("analyze", self.analyze);
        recorder.counter("compile.programs", self.compile.programs as u64);
        recorder.counter("compile.ops", self.compile.ops as u64);
        recorder.counter("sim.events", self.nsa_events as u64);
        recorder.counter("sim.steps", self.steps);
        recorder.counter("sim.wheel_wakeups", self.wheel_wakeups);
    }
}

/// Work accounting for one worker thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerStats {
    /// Time spent inside candidate evaluations.
    pub busy: Duration,
    /// Candidates this worker evaluated.
    pub checks: usize,
}

/// Aggregated timing of a batch run, extending the per-candidate
/// [`RunMetrics`] with batch-level totals.
#[derive(Debug, Clone, Default)]
pub struct BatchMetrics {
    /// Wall-clock time of the whole batch.
    pub wall: Duration,
    /// Summed instance-construction time across evaluated candidates.
    pub build: Duration,
    /// Summed bytecode-compilation time across evaluated candidates.
    pub compile: Duration,
    /// Summed interpretation time across evaluated candidates.
    pub simulate: Duration,
    /// Summed trace-extraction + analysis time across evaluated candidates.
    pub analyze: Duration,
    /// Candidates actually evaluated (including any raced beyond a
    /// winner).
    pub checks: usize,
    /// Per-worker accounting, indexed by worker id.
    pub workers: Vec<WorkerStats>,
}

impl BatchMetrics {
    /// Throughput: candidates evaluated per wall-clock second.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn checks_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.checks as f64 / secs
        } else {
            0.0
        }
    }

    /// Mean fraction of the wall time workers spent evaluating
    /// candidates (1.0 = every worker busy the whole run).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn utilization(&self) -> f64 {
        let denom = self.wall.as_secs_f64() * self.workers.len() as f64;
        if denom > 0.0 {
            self.workers.iter().map(|w| w.busy.as_secs_f64()).sum::<f64>() / denom
        } else {
            0.0
        }
    }

    /// Emits this snapshot into `recorder`: spans `batch.wall` and the
    /// per-phase sums, counters `batch.checks` and per-worker
    /// `batch.worker.N.checks` / spans `batch.worker.N.busy`.
    pub fn record_to(&self, recorder: &dyn Recorder) {
        recorder.span("batch.wall", self.wall);
        recorder.span("batch.build", self.build);
        recorder.span("batch.compile", self.compile);
        recorder.span("batch.simulate", self.simulate);
        recorder.span("batch.analyze", self.analyze);
        recorder.counter("batch.checks", self.checks as u64);
        for (i, w) in self.workers.iter().enumerate() {
            recorder.span(&format!("batch.worker.{i}.busy"), w.busy);
            recorder.counter(&format!("batch.worker.{i}.checks"), w.checks as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_accepts_everything() {
        let r = NoopRecorder;
        r.counter("x", 1);
        r.span("y", Duration::from_millis(1));
        r.event("sync", 0, "e");
        assert!(!r.wants_events());
    }

    #[test]
    fn metrics_recorder_aggregates() {
        let r = MetricsRecorder::new();
        r.counter("sim.steps", 3);
        r.counter("sim.steps", 4);
        r.span("simulate", Duration::from_millis(10));
        r.span("simulate", Duration::from_millis(5));
        assert_eq!(r.counter_value("sim.steps"), 7);
        assert_eq!(r.counter_value("missing"), 0);
        let spans = r.spans();
        assert_eq!(spans["simulate"].count, 2);
        assert_eq!(spans["simulate"].total, Duration::from_millis(15));
        assert!(!r.wants_events());
    }

    #[test]
    fn metrics_json_is_well_formed_and_sorted() {
        let r = MetricsRecorder::new();
        r.counter("b.second", 2);
        r.counter("a.first", 1);
        r.span("simulate", Duration::from_millis(250));
        let json = r.to_json();
        let a = json.find("a.first").expect("a.first present");
        let b = json.find("b.second").expect("b.second present");
        assert!(a < b, "keys sorted:\n{json}");
        assert!(json.contains("\"seconds\": 0.250000"), "{json}");
        assert!(json.contains("\"count\": 1"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn empty_metrics_json_is_still_valid() {
        let json = MetricsRecorder::new().to_json();
        assert!(json.contains("\"counters\": {}"), "{json}");
        assert!(json.contains("\"spans\": {}"), "{json}");
    }

    #[test]
    fn jsonl_sink_writes_one_object_per_line() {
        use std::sync::{Arc, Mutex as StdMutex};

        #[derive(Clone)]
        struct Shared(Arc<StdMutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let buf = Shared(Arc::new(StdMutex::new(Vec::new())));
        let sink = JsonlSink::to_writer(Box::new(buf.clone()));
        assert!(sink.wants_events());
        sink.event("sync", 25, "task \"a\" start");
        sink.counter("sim.steps", 2);
        sink.span("simulate", Duration::from_millis(1));
        sink.flush().unwrap();

        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[0].contains("\"time\": 25"));
        assert!(lines[0].contains("task \\\"a\\\" start"), "escaped quote");
        assert!(lines[1].contains("\"delta\": 2"));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn fanout_broadcasts_and_gates_events() {
        let a = MetricsRecorder::new();
        let b = MetricsRecorder::new();
        let f = Fanout::new().with(&a).with(&b);
        f.counter("x", 2);
        assert_eq!(a.counter_value("x"), 2);
        assert_eq!(b.counter_value("x"), 2);
        // No sink wants events → the fan-out doesn't either.
        assert!(!f.wants_events());
    }

    #[test]
    fn json_escape_handles_control_and_quotes() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn run_metrics_record_to_uses_canonical_names() {
        let r = MetricsRecorder::new();
        let m = RunMetrics {
            build: Duration::from_millis(1),
            compile: CompileMetrics {
                time: Duration::from_millis(2),
                programs: 7,
                ops: 99,
            },
            simulate: Duration::from_millis(3),
            analyze: Duration::from_millis(4),
            nsa_events: 11,
            steps: 13,
            wheel_wakeups: 5,
        };
        m.record_to(&r);
        assert_eq!(r.counter_value("compile.programs"), 7);
        assert_eq!(r.counter_value("compile.ops"), 99);
        assert_eq!(r.counter_value("sim.events"), 11);
        assert_eq!(r.counter_value("sim.steps"), 13);
        assert_eq!(r.counter_value("sim.wheel_wakeups"), 5);
        assert_eq!(r.span_total("simulate"), Duration::from_millis(3));
        assert_eq!(r.span_total("build"), Duration::from_millis(1));
    }

    #[test]
    fn batch_metrics_record_to_covers_workers() {
        let r = MetricsRecorder::new();
        let m = BatchMetrics {
            wall: Duration::from_millis(10),
            checks: 4,
            workers: vec![
                WorkerStats {
                    busy: Duration::from_millis(6),
                    checks: 3,
                },
                WorkerStats {
                    busy: Duration::from_millis(4),
                    checks: 1,
                },
            ],
            ..BatchMetrics::default()
        };
        m.record_to(&r);
        assert_eq!(r.counter_value("batch.checks"), 4);
        assert_eq!(r.counter_value("batch.worker.0.checks"), 3);
        assert_eq!(r.counter_value("batch.worker.1.checks"), 1);
        assert_eq!(r.span_total("batch.wall"), Duration::from_millis(10));
        assert_eq!(r.span_total("batch.worker.1.busy"), Duration::from_millis(4));
    }
}
