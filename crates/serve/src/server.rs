//! The analysis server: request lifecycle and graceful shutdown. The
//! accept loop, socket timeouts and connection drain are the front end
//! it shares with the router (`front.rs`).
//!
//! # Request lifecycle
//!
//! ```text
//! accept → handler thread → parse (400/413/422)
//!        → canonicalize → cache lookup ──hit──────────────→ 200 cached:true
//!        → single-flight gate (followers wait for leader, then re-lookup)
//!        → deadline already expired? → 504
//!        → shutting down? → 503
//!        → bounded pool try_submit ──full──→ 429
//!        → worker runs the Analyzer, inserts verdict, replies
//!        → handler renders 200 cached:false (or 500/504)
//! ```
//!
//! **Single-flight**: when several clients submit the *same* canonical
//! request concurrently, only the first (the leader) simulates; the rest
//! park on a per-key gate and re-probe the cache once the leader
//! finishes. Combined with the content-addressed cache this gives the
//! "exactly one simulation per distinct configuration" guarantee the
//! end-to-end tests assert via `serve.analyses`.
//!
//! **Deadlines** are cooperative, like batch-analysis cancellation: they
//! are checked before enqueue and again when a worker picks the job up;
//! an in-flight simulation is never interrupted (its verdict still lands
//! in the cache for the next caller) but the waiting handler responds 504
//! as soon as the deadline passes.
//!
//! **Graceful shutdown** (`/shutdown` or [`Server::begin_shutdown`])
//! stops accepting, lets active connections finish, then drains the
//! worker pool — queued jobs are *invoked* with the cancelled flag so
//! every waiting client hears 503 rather than a dropped connection.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use swa_core::{
    canonicalize, open_state_dir, Analyzer, CacheStats, CachedVerdict, CanonicalRequest,
    CheckpointStats, CheckpointStore, LadderMode, MetricsRecorder, Recorder,
    ShardedCheckpointStore, ShardedVerdictCache, VerdictCache,
};

use swa_sweep::{render_step_json, run_sweep, SweepEngine, SweepError, SweepEvent};

use crate::front::{Front, Service, Shared, IO_TIMEOUT};
use crate::http::{write_chunk, write_chunked_end, write_chunked_head, Request};
use crate::pool::{Job, WorkerPool};
use crate::request::{parse_analyze, parse_sweep, render_error, render_verdict, AnalyzeRequest};
use crate::resilience::LoadShedder;

/// How often a follower parked on a single-flight gate re-checks its
/// deadline while waiting for the leader.
const GATE_WAIT_SLICE: Duration = Duration::from_millis(25);

/// How many times a follower may lose the re-probe race (leader failed or
/// bypassed the cache) before giving up with 503.
const MAX_FLIGHT_ATTEMPTS: usize = 4;

/// Server construction options.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Analysis worker threads.
    pub workers: usize,
    /// Bounded queue depth in front of the workers (backpressure beyond
    /// it: 429).
    pub queue_depth: usize,
    /// Verdict-cache byte budget.
    pub cache_bytes: usize,
    /// Checkpoint-store byte budget (`0` disables warm starts). Clients
    /// that re-analyze a configuration at a longer horizon resume the
    /// earlier request's simulation instead of replaying it.
    pub checkpoint_bytes: usize,
    /// Analyze decomposable configurations per module and cache each
    /// module's verdict under its own key, so a request that edits one
    /// module still hits warm entries for every unchanged sibling. The
    /// composed verdict is identical to the whole-configuration verdict;
    /// non-decomposable requests (cross-module messages, topologies)
    /// fall back transparently.
    pub compositional: bool,
    /// Durable state directory. When set, verdicts and checkpoints live
    /// in tiered stores (memory over append-only segment files), so a
    /// restarted server answers previously-seen configurations from disk
    /// instead of re-simulating them. `None` keeps the original
    /// memory-only stores.
    pub state_dir: Option<PathBuf>,
    /// Socket read/write timeout on accepted connections, so a stalling
    /// client cannot pin a handler thread; timed-out requests get 408.
    /// `Duration::ZERO` disables the timeouts.
    pub io_timeout: Duration,
    /// Max concurrently handled `/analyze` requests before shedding with
    /// an immediate 429 — checked *before* the body is parsed, in front
    /// of the worker queue's own backpressure. `0` picks a default
    /// scaled to the pool (`(workers + queue_depth) * 4`, leaving room
    /// for cache hits and single-flight followers).
    pub shed_inflight: usize,
    /// Analytic admission pre-filter: run the verdict ladder
    /// (`swa_core::ladder`, tiers T0–T2) on single-hyperperiod `/analyze`
    /// requests before the worker pool. Decided requests are answered —
    /// and cached — without occupying a worker; the response's
    /// `decided_by` field names the tier. Off by default; `no_cache` and
    /// `explain` requests always take the full simulation path.
    pub ladder: LadderMode,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get),
            queue_depth: 64,
            cache_bytes: 16 * 1024 * 1024,
            checkpoint_bytes: 16 * 1024 * 1024,
            compositional: false,
            state_dir: None,
            io_timeout: IO_TIMEOUT,
            shed_inflight: 0,
            ladder: LadderMode::Off,
        }
    }
}

/// A running analysis server.
///
/// Dropping the handle shuts the server down gracefully.
#[derive(Debug)]
pub struct Server {
    front: Front<Inner>,
}

impl Server {
    /// Binds, spawns the accept loop, and returns immediately.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(options: &ServeOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(&options.addr)?;
        let recorder = Arc::new(MetricsRecorder::new());
        let (cache, checkpoints) = match &options.state_dir {
            Some(dir) => open_state_dir(
                dir,
                options.cache_bytes,
                options.checkpoint_bytes,
                Some(recorder.clone() as Arc<dyn Recorder>),
            )?,
            None => (
                Arc::new(
                    ShardedVerdictCache::new(options.cache_bytes)
                        .with_recorder(recorder.clone() as Arc<dyn Recorder>),
                ),
                (options.checkpoint_bytes > 0).then(|| {
                    Arc::new(
                        ShardedCheckpointStore::new(options.checkpoint_bytes)
                            .with_recorder(recorder.clone() as Arc<dyn Recorder>),
                    )
                }),
            ),
        };
        let cache: Arc<dyn VerdictCache> = cache;
        let checkpoints = checkpoints.map(|c| c as Arc<dyn CheckpointStore>);
        let shed_limit = if options.shed_inflight == 0 {
            (options.workers + options.queue_depth) * 4
        } else {
            options.shed_inflight
        };
        let mut analyzer = Analyzer::configure()
            .recorder(recorder.clone() as Arc<dyn Recorder>)
            .cache(Arc::clone(&cache))
            .compositional(options.compositional);
        if let Some(store) = &checkpoints {
            analyzer = analyzer.checkpoints(Arc::clone(store));
        }
        let inner = Inner {
            recorder,
            cache,
            checkpoints,
            analyzer,
            compositional: options.compositional,
            ladder: options.ladder,
            pool: WorkerPool::new(options.workers, options.queue_depth),
            gates: Mutex::new(HashMap::new()),
            shedder: LoadShedder::new(shed_limit),
        };
        Ok(Server {
            front: Front::start(listener, options.io_timeout, inner)?,
        })
    }

    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// The server's metrics sink (`serve.*`, `cache.*`, and per-run
    /// simulation counters all land here).
    #[must_use]
    pub fn recorder(&self) -> Arc<MetricsRecorder> {
        Arc::clone(&self.front.service().recorder)
    }

    /// Current checkpoint-store statistics (all zero when warm starts are
    /// disabled).
    #[must_use]
    pub fn checkpoint_stats(&self) -> CheckpointStats {
        self.front.service().checkpoint_stats()
    }

    /// Current verdict-cache statistics.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.front.service().cache.stats()
    }

    /// Initiates shutdown without waiting: stop accepting, then (in the
    /// accept thread) drain active connections and the worker pool.
    pub fn begin_shutdown(&self) {
        self.front.begin_shutdown();
    }

    /// Blocks until the server has fully shut down (all connections
    /// finished, worker pool drained and joined). Call after
    /// [`begin_shutdown`](Self::begin_shutdown), or let `/shutdown`
    /// trigger it remotely.
    pub fn join(self) {
        self.front.join();
    }

    /// Convenience: [`begin_shutdown`](Self::begin_shutdown) +
    /// [`join`](Self::join).
    pub fn shutdown(self) {
        self.begin_shutdown();
        self.join();
    }
}

/// The analysis service behind the front end, shared by every handler
/// thread.
struct Inner {
    recorder: Arc<MetricsRecorder>,
    cache: Arc<dyn VerdictCache>,
    /// Warm-start store shared across requests; `None` when disabled.
    checkpoints: Option<Arc<dyn CheckpointStore>>,
    /// The resolver every cached request goes through: the server's
    /// recorder, cache, checkpoints and compositional mode. Requests
    /// clone it and add their own horizon and `explain`.
    analyzer: Analyzer<'static>,
    /// Per-module reuse for every sweep (the analyzer carries the same
    /// mode for `/analyze`).
    compositional: bool,
    /// Analytic admission pre-filter mode (see [`ServeOptions::ladder`]).
    ladder: LadderMode,
    pool: WorkerPool,
    /// Single-flight gates, keyed by canonical request key.
    gates: Mutex<HashMap<swa_core::CacheKey, Arc<Gate>>>,
    /// Inflight ceiling checked before any per-request work.
    shedder: LoadShedder,
}

impl Inner {
    fn checkpoint_stats(&self) -> CheckpointStats {
        self.checkpoints
            .as_ref()
            .map(|s| s.stats())
            .unwrap_or_default()
    }
}

impl Service for Inner {
    const PREFIX: &'static str = "serve";
    const NAME: &'static str = "server";
    const ROUTES: &'static [(&'static str, &'static str)] = &[
        ("GET", "/healthz"),
        ("GET", "/metrics"),
        ("POST", "/analyze"),
        ("POST", "/sweep"),
    ];

    fn recorder(&self) -> &MetricsRecorder {
        &self.recorder
    }

    fn handle(
        inner: &Arc<Self>,
        front: &Shared<Self>,
        request: &Request,
        stream: &mut TcpStream,
    ) -> Option<(u16, String)> {
        let path = request.path.as_str();
        match path {
            "/healthz" => return Some((200, render_health(front))),
            "/metrics" => return Some((200, render_metrics(inner))),
            _ => {}
        }
        // Shed before parsing: the queue-full 429 only fires after a
        // parse, canonicalize, and cache probe, which is already too much
        // work to spend per request when the box is saturated. The permit
        // spans the whole handler (cache hit, gate wait, simulation, or
        // streamed sweep alike).
        let Some(_permit) = inner.shedder.try_acquire() else {
            inner.recorder.counter("serve.shed", 1);
            return Some((
                429,
                render_error("overloaded", "server at inflight capacity; retry later"),
            ));
        };
        inner.recorder.counter("serve.requests", 1);
        if path == "/analyze" {
            Some(analyze(inner, front, &request.body))
        } else {
            sweep_stream(inner, front, stream, &request.body)
        }
    }

    /// Flags queued analysis jobs so they reply quickly instead of
    /// simulating; nothing is discarded.
    fn shutdown_begun(&self) {
        self.pool.cancel();
    }

    /// Runs the jobs still queued (with the cancelled flag set) once no
    /// connection can enqueue more.
    fn drained(&self) {
        self.pool.shutdown();
    }
}

/// A single-flight gate: followers wait here while the leader simulates.
#[derive(Default)]
struct Gate {
    done: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn open(&self) {
        *self.done.lock().expect("unpoisoned") = true;
        self.cv.notify_all();
    }

    /// Waits until the gate opens or `deadline` passes; true = opened.
    fn wait(&self, deadline: Option<Instant>) -> bool {
        let mut done = self.done.lock().expect("unpoisoned");
        while !*done {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return false;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(done, GATE_WAIT_SLICE)
                .expect("unpoisoned");
            done = guard;
        }
        true
    }
}

/// RAII single-flight leadership: removes the gate entry and opens the
/// gate on drop, so *every* leader exit path — success, analysis error,
/// deadline 504, worker panic unwinding through the handler — releases
/// waiting followers. A leaked gate would make all future requests for
/// that key hang until their own deadlines.
struct GateGuard<'a> {
    inner: &'a Inner,
    key: swa_core::CacheKey,
    gate: Arc<Gate>,
}

impl Drop for GateGuard<'_> {
    fn drop(&mut self) {
        self.inner
            .gates
            .lock()
            .expect("unpoisoned")
            .remove(&self.key);
        self.gate.open();
    }
}

/// Handles `POST /sweep`: parse/admission errors are returned as plain
/// buffered responses; once the sweep is admitted the response switches
/// to `Transfer-Encoding: chunked` (and `None` is returned) and forwards
/// one JSON line per refinement step, ending with the canonical report
/// line (byte-equal to the `swa sweep --json` CLI output for the same
/// request).
fn sweep_stream(
    inner: &Arc<Inner>,
    front: &Shared<Inner>,
    stream: &mut TcpStream,
    body: &[u8],
) -> Option<(u16, String)> {
    let parsed = match parse_sweep(body) {
        Ok(parsed) => parsed,
        Err(e) => return Some(e.reply()),
    };
    if front.is_shutting_down() {
        return Some((503, render_error("shutting-down", "server is shutting down")));
    }
    let deadline = parsed
        .deadline_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));

    let (line_tx, line_rx) = mpsc::channel::<String>();
    let job_inner = Arc::clone(inner);
    let job: Job = Box::new(move |ctx| {
        if ctx.is_cancelled() {
            let _ = line_tx.send(render_error(
                "shutting-down",
                "server cancelled the sweep during shutdown",
            ));
            return;
        }
        job_inner.recorder.counter("serve.sweeps", 1);
        // The server's compositional mode widens per-module reuse for
        // every sweep probe; a request asking for it explicitly keeps it.
        let mut options = parsed.options;
        options.compositional = options.compositional || job_inner.compositional;
        let mut engine = match SweepEngine::new(parsed.config, options) {
            Ok(engine) => engine,
            Err(e) => {
                job_inner.recorder.counter("serve.errors", 1);
                let _ = line_tx.send(render_error("sweep-failed", &e.to_string()));
                return;
            }
        };
        engine = engine
            .cache(Arc::clone(&job_inner.cache))
            .recorder(job_inner.recorder.clone() as Arc<dyn Recorder>);
        if let Some(store) = &job_inner.checkpoints {
            engine = engine.checkpoints(Arc::clone(store));
        }
        let result = run_sweep(
            &mut engine,
            parsed.axis,
            parsed.per_task,
            |event| {
                if let SweepEvent::Step(step) = event {
                    let _ = line_tx.send(render_step_json(step));
                }
            },
            || ctx.is_cancelled() || deadline.is_some_and(|d| Instant::now() >= d),
        );
        let final_line = match result {
            Ok(report) => report.render_json(),
            Err(SweepError::Aborted) => {
                if ctx.is_cancelled() {
                    render_error("shutting-down", "server cancelled the sweep during shutdown")
                } else {
                    deadline_expired(&job_inner).1
                }
            }
            Err(e) => {
                job_inner.recorder.counter("serve.errors", 1);
                render_error("sweep-failed", &e.to_string())
            }
        };
        let _ = line_tx.send(final_line);
    });

    if inner.pool.try_submit(job).is_err() {
        inner.recorder.counter("serve.rejected", 1);
        return Some((
            429,
            render_error("overloaded", "analysis queue is full; retry later"),
        ));
    }

    // Committed: from here on the response is chunked. Any error below is
    // delivered as an in-stream JSON line, never a status code.
    if write_chunked_head(stream, 200).is_err() {
        return None;
    }
    // The deadline bounds waiting between lines; the worker also polls it
    // between probes and aborts cooperatively.
    loop {
        match recv_until(&line_rx, deadline) {
            Ok(Some(line)) => {
                if write_chunk(stream, &line).is_err() {
                    return None;
                }
            }
            // Sender dropped: the worker sent its final line and finished.
            Ok(None) => break,
            Err(_) => {
                let (_, body) = deadline_expired(inner);
                let _ = write_chunk(stream, &body);
                break;
            }
        }
    }
    let _ = write_chunked_end(stream);
    None
}

fn render_health(front: &Shared<Inner>) -> String {
    format!(
        "{{\"status\":\"ok\",\"shutting_down\":{},\"active_connections\":{}}}",
        front.is_shutting_down(),
        front.active_connections(),
    )
}

fn render_metrics(inner: &Inner) -> String {
    let stats = inner.cache.stats();
    let ckpt = inner.checkpoint_stats();
    format!(
        "{{\"cache\":{{\"entries\":{},\"bytes\":{},\"hit_rate\":{:.4}}},\
         \"checkpoints\":{{\"entries\":{},\"bytes\":{},\"bytes_saved\":{},\"delta_chain_len\":{}}},\
         \"metrics\":{}}}",
        stats.entries,
        stats.bytes,
        stats.hit_rate(),
        ckpt.entries,
        ckpt.bytes,
        ckpt.bytes_saved,
        ckpt.delta_chain_len,
        inner.recorder.to_json(),
    )
}

/// What a worker reports back to the waiting handler.
enum JobReply {
    Done {
        verdict: Arc<CachedVerdict>,
        check: Duration,
    },
    Cancelled,
    DeadlineExpired,
    Failed(String),
}

fn analyze(inner: &Arc<Inner>, front: &Shared<Inner>, body: &[u8]) -> (u16, String) {
    let parsed = match parse_analyze(body) {
        Ok(parsed) => parsed,
        Err(e) => return e.reply(),
    };
    let deadline = parsed
        .deadline_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let canon = canonicalize(&parsed.config, parsed.hyperperiods);
    // `no_cache` asks for a fresh simulation: no verdict cache and no
    // warm start, on the whole configuration.
    let analyzer = if parsed.no_cache {
        Analyzer::configure().recorder(inner.recorder.clone() as Arc<dyn Recorder>)
    } else {
        inner.analyzer.clone()
    }
    .horizon(parsed.hyperperiods)
    .explain(parsed.explain);

    if parsed.no_cache {
        // Cache bypass also skips single-flight: the client explicitly
        // asked for a fresh simulation.
        return run_leader(inner, parsed, analyzer, &canon, deadline);
    }

    for _ in 0..MAX_FLIGHT_ATTEMPTS {
        // Under compositional mode a miss on the whole key still composes
        // a cached answer when every module's verdict is warm (the
        // composed verdict is inserted back under the whole key).
        if let Some(verdict) = analyzer.lookup(&parsed.config) {
            return (200, render_verdict(&verdict, true, canon.key, 0.0));
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return deadline_expired(inner);
        }
        if front.is_shutting_down() {
            return (503, render_error("shutting-down", "server is shutting down"));
        }
        let gate = {
            let mut gates = inner.gates.lock().expect("unpoisoned");
            match gates.get(&canon.key) {
                Some(gate) => Err(Arc::clone(gate)),
                None => {
                    let gate = Arc::new(Gate::default());
                    gates.insert(canon.key, Arc::clone(&gate));
                    Ok(gate)
                }
            }
        };
        match gate {
            Ok(gate) => {
                // Leader: simulate. The guard removes the gate entry and
                // opens it on drop — every exit path from run_leader
                // (verdict, analysis error, 504, worker panic) releases
                // the followers.
                let _lead = GateGuard {
                    inner,
                    key: canon.key,
                    gate,
                };
                return run_leader(inner, parsed, analyzer, &canon, deadline);
            }
            Err(gate) => {
                // Follower: wait for the leader, then re-probe the cache.
                if !gate.wait(deadline) {
                    return deadline_expired(inner);
                }
            }
        }
    }
    (
        503,
        render_error("retry", "request kept losing the cache race; retry"),
    )
}

/// Runs one analysis on the worker pool and renders the response.
fn run_leader(
    inner: &Arc<Inner>,
    parsed: AnalyzeRequest,
    analyzer: Analyzer<'static>,
    canon: &CanonicalRequest,
    deadline: Option<Instant>,
) -> (u16, String) {
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return deadline_expired(inner);
    }
    // Analytic admission: a ladder-decided request never touches the
    // worker pool, and its verdict is cached. Skipped for `no_cache`
    // (explicit fresh simulation); the analyzer skips multi-hyperperiod
    // and `explain` requests itself.
    let started = Instant::now();
    let ladder = if parsed.no_cache {
        LadderMode::Off
    } else {
        inner.ladder
    };
    if let Some(verdict) = analyzer.decide(&parsed.config, ladder) {
        inner.cache.insert(canon, Arc::clone(&verdict));
        inner.recorder.counter("serve.ladder_decided", 1);
        #[allow(clippy::cast_precision_loss)]
        let check_ms = started.elapsed().as_secs_f64() * 1e3;
        return (200, render_verdict(&verdict, false, canon.key, check_ms));
    }
    let (reply_tx, reply_rx) = mpsc::channel::<JobReply>();
    let job_inner = Arc::clone(inner);
    let job: Job = Box::new(move |ctx| {
        if ctx.is_cancelled() {
            let _ = reply_tx.send(JobReply::Cancelled);
            return;
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            let _ = reply_tx.send(JobReply::DeadlineExpired);
            return;
        }
        let started = Instant::now();
        // With a cache attached the analyzer inserts the verdict itself
        // (per module too, when compositional).
        let result = analyzer.analyze(&parsed.config);
        job_inner.recorder.counter("serve.analyses", 1);
        let reply = match result {
            Ok(report) => JobReply::Done {
                verdict: Arc::new(CachedVerdict::from_report(&report)),
                check: started.elapsed(),
            },
            Err(e) => JobReply::Failed(e.to_string()),
        };
        let _ = reply_tx.send(reply);
    });

    if inner.pool.try_submit(job).is_err() {
        inner.recorder.counter("serve.rejected", 1);
        return (
            429,
            render_error("overloaded", "analysis queue is full; retry later"),
        );
    }

    // The deadline bounds waiting: a simulation already running is never
    // interrupted.
    let Ok(reply) = recv_until(&reply_rx, deadline) else {
        return deadline_expired(inner);
    };

    match reply {
        Some(JobReply::Done { verdict, check }) => {
            #[allow(clippy::cast_precision_loss)]
            let check_ms = check.as_secs_f64() * 1e3;
            (200, render_verdict(&verdict, false, canon.key, check_ms))
        }
        Some(JobReply::Cancelled) => (
            503,
            render_error("shutting-down", "server cancelled the request during shutdown"),
        ),
        Some(JobReply::DeadlineExpired) => deadline_expired(inner),
        Some(JobReply::Failed(message)) => {
            inner.recorder.counter("serve.errors", 1);
            (500, render_error("analysis-failed", &message))
        }
        None => {
            inner.recorder.counter("serve.errors", 1);
            (500, render_error("internal", "worker dropped the request"))
        }
    }
}

/// Waits for a worker's next message: `Ok(None)` once the worker hung up,
/// `Err` when `deadline` passes first. A passed deadline still gets a
/// final 1 ms grace poll.
fn recv_until<T>(
    rx: &mpsc::Receiver<T>,
    deadline: Option<Instant>,
) -> Result<Option<T>, mpsc::RecvTimeoutError> {
    let Some(deadline) = deadline else {
        return Ok(rx.recv().ok());
    };
    let remaining = deadline.saturating_duration_since(Instant::now());
    match rx.recv_timeout(remaining.max(Duration::from_millis(1))) {
        Ok(message) => Ok(Some(message)),
        Err(mpsc::RecvTimeoutError::Disconnected) => Ok(None),
        Err(timeout) => Err(timeout),
    }
}

/// Counts an expired request deadline and renders its 504.
fn deadline_expired(inner: &Inner) -> (u16, String) {
    inner.recorder.counter("serve.deadline_expired", 1);
    (504, render_error("deadline", "request deadline expired"))
}
