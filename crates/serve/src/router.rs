//! Multi-instance serving: consistent-hash routing of canonical cache
//! keys across N backend servers.
//!
//! A [`HashRing`] places 64 virtual nodes per backend on a 64-bit ring;
//! a request's canonical key hashes to a point and walks clockwise to
//! the first backend. Two properties matter for a verdict-cache fleet:
//!
//! * **Affinity** — the same configuration always lands on the same
//!   backend, so each backend's memory/disk tiers see a stable shard of
//!   the keyspace instead of N copies of everything.
//! * **Minimal disruption** — adding or removing a backend remaps only
//!   the keys owned by the virtual nodes that moved (~1/N of the space),
//!   not the whole fleet's working set.
//!
//! [`forward_analyze`] is the shared forwarding loop (used by the
//! `swa serve --route` router process *and* by client-side sharding in
//! `swa request`): walk the ring order, skip open-breaker backends,
//! retry transient failures with jittered backoff, fail over to the next
//! backend, 502 only when every backend is exhausted.
//!
//! Failure taxonomy on a hop:
//! * connect/transport error → breaker failure; retry this backend with
//!   backoff, then fail over;
//! * `429` (backend queue full) → retry with backoff, **no** breaker
//!   penalty (backpressure is the backend working as designed), then
//!   spill over to the next backend;
//! * `503` (backend shutting down) → breaker failure; fail over at once;
//! * anything else (200, 4xx, 500, 504) → a real answer for *this*
//!   request; return it verbatim and record the backend healthy.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;

use swa_core::{canonicalize, MetricsRecorder, Recorder};

use crate::client::{self, HttpResponse};
use crate::front::{Front, Service, Shared, IO_TIMEOUT};
use crate::http::Request;
use crate::request::{parse_analyze, render_error};
use crate::resilience::{Backoff, BreakerOptions, CircuitBreaker, LoadShedder, RetryPolicy};

/// Virtual nodes per backend — enough that a 2–16 backend fleet splits
/// the keyspace within a few percent of even.
const REPLICAS: usize = 64;

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A consistent-hash ring over backend addresses.
#[derive(Debug, Clone)]
pub struct HashRing {
    backends: Vec<String>,
    /// Sorted (point, backend index) pairs.
    points: Vec<(u64, usize)>,
}

impl HashRing {
    /// Builds the ring; backend order does not matter (placement depends
    /// only on each address string).
    #[must_use]
    pub fn new(backends: Vec<String>) -> Self {
        let mut points = Vec::with_capacity(backends.len() * REPLICAS);
        for (i, addr) in backends.iter().enumerate() {
            for replica in 0..REPLICAS {
                points.push((fnv1a64(format!("{addr}#{replica}").as_bytes()), i));
            }
        }
        points.sort_unstable();
        Self { backends, points }
    }

    /// The backend addresses, in construction order (the indices returned
    /// by [`order`](Self::order) refer to this slice).
    #[must_use]
    pub fn backends(&self) -> &[String] {
        &self.backends
    }

    /// Every backend index in ring order starting at `shard`'s position:
    /// the first entry is the key's owner, the rest are its failover
    /// sequence.
    #[must_use]
    pub fn order(&self, shard: u64) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.backends.len());
        if self.points.is_empty() {
            return out;
        }
        let start = self.points.partition_point(|&(p, _)| p < shard);
        for k in 0..self.points.len() {
            let (_, backend) = self.points[(start + k) % self.points.len()];
            if !out.contains(&backend) {
                out.push(backend);
                if out.len() == self.backends.len() {
                    break;
                }
            }
        }
        out
    }

    /// The owning backend for `shard` (`None` on an empty ring).
    #[must_use]
    pub fn owner(&self, shard: u64) -> Option<usize> {
        self.order(shard).first().copied()
    }
}

/// What [`forward_analyze`] did, for the caller's accounting.
#[derive(Debug)]
pub struct ForwardOutcome {
    /// The response to relay to the client.
    pub response: HttpResponse,
    /// Index (into [`HashRing::backends`]) that answered.
    pub backend: usize,
    /// Same-backend retries spent across all hops.
    pub retries: u32,
    /// Backends given up on before the answering one.
    pub failovers: u32,
}

/// Forwards one `/analyze` body along `shard`'s ring order. See the
/// module docs for the retry/failover taxonomy. `breakers`, when given,
/// must be parallel to `ring.backends()`.
///
/// # Errors
///
/// Returns a description of the last failure once every backend is
/// exhausted (the caller maps it to 502).
pub fn forward_analyze(
    ring: &HashRing,
    breakers: Option<&[CircuitBreaker]>,
    retry: &RetryPolicy,
    shard: u64,
    body: &str,
    mut on_breaker_opened: impl FnMut(usize),
) -> Result<ForwardOutcome, String> {
    let mut last_error = "no backends configured".to_string();
    let mut retries = 0u32;
    let mut failovers = 0u32;
    for (hop, &backend) in ring.order(shard).iter().enumerate() {
        if hop > 0 {
            failovers += 1;
        }
        let breaker = breakers.map(|b| &b[backend]);
        if breaker.is_some_and(|b| !b.allow()) {
            last_error = format!("backend {} circuit open", ring.backends()[backend]);
            continue;
        }
        let addr = &ring.backends()[backend];
        let mut backoff = Backoff::new(retry.clone(), shard ^ fnv1a64(addr.as_bytes()));
        loop {
            match client::post(addr.as_str(), "/analyze", body) {
                Ok(resp) if resp.status == 429 => {
                    // Backpressure: the backend is healthy, just full.
                    last_error = format!("backend {addr} overloaded (429)");
                    match backoff.next_delay() {
                        Some(delay) => {
                            retries += 1;
                            std::thread::sleep(delay);
                        }
                        None => break, // spill over to the next backend
                    }
                }
                Ok(resp) if resp.status == 503 => {
                    last_error = format!("backend {addr} shutting down (503)");
                    if let Some(b) = breaker {
                        if b.record_failure() {
                            on_breaker_opened(backend);
                        }
                    }
                    break;
                }
                Ok(resp) => {
                    // 200, 4xx, 500, 504: a definitive answer for this
                    // request — relay it.
                    if let Some(b) = breaker {
                        b.record_success();
                    }
                    return Ok(ForwardOutcome {
                        response: resp,
                        backend,
                        retries,
                        failovers,
                    });
                }
                Err(e) => {
                    last_error = format!("backend {addr} unreachable: {e}");
                    let opened = breaker.is_some_and(CircuitBreaker::record_failure);
                    if opened {
                        on_breaker_opened(backend);
                    }
                    match backoff.next_delay() {
                        Some(delay) if !opened => {
                            retries += 1;
                            std::thread::sleep(delay);
                        }
                        _ => break,
                    }
                }
            }
        }
    }
    Err(last_error)
}

/// Router construction options.
#[derive(Debug, Clone)]
pub struct RouterOptions {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Backend `swa serve` addresses to shard across.
    pub backends: Vec<String>,
    /// Per-hop retry budget and delay shape.
    pub retry: RetryPolicy,
    /// Per-backend circuit-breaker thresholds.
    pub breaker: BreakerOptions,
    /// Max concurrently forwarded requests before shedding (`0` =
    /// unlimited).
    pub shed_inflight: usize,
}

impl Default for RouterOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            backends: Vec::new(),
            retry: RetryPolicy::default(),
            breaker: BreakerOptions::default(),
            shed_inflight: 256,
        }
    }
}

/// A running router (`swa serve --route`): a thin consistent-hash
/// forwarding tier in front of N backend servers. Speaks the same
/// `/analyze`, `/healthz`, `/metrics`, `/shutdown` surface; `/shutdown`
/// stops the router only — backends are owned by their own processes.
#[derive(Debug)]
pub struct Router {
    front: Front<RouterInner>,
}

/// The forwarding service behind the front end.
struct RouterInner {
    recorder: Arc<MetricsRecorder>,
    ring: HashRing,
    /// Parallel to `ring.backends()`.
    breakers: Vec<CircuitBreaker>,
    retry: RetryPolicy,
    shedder: LoadShedder,
}

impl Service for RouterInner {
    const PREFIX: &'static str = "route";
    const NAME: &'static str = "router";
    const ROUTES: &'static [(&'static str, &'static str)] = &[
        ("GET", "/healthz"),
        ("GET", "/metrics"),
        ("POST", "/analyze"),
    ];

    fn recorder(&self) -> &MetricsRecorder {
        &self.recorder
    }

    fn handle(
        inner: &Arc<Self>,
        _front: &Shared<Self>,
        request: &Request,
        _stream: &mut TcpStream,
    ) -> Option<(u16, String)> {
        Some(match request.path.as_str() {
            "/healthz" => (
                200,
                format!(
                    "{{\"status\":\"ok\",\"role\":\"router\",\"backends\":{},\"breakers_open\":{}}}",
                    inner.ring.backends().len(),
                    inner.breakers.iter().filter(|b| b.is_open()).count(),
                ),
            ),
            "/metrics" => (
                200,
                format!("{{\"metrics\":{}}}", inner.recorder.to_json()),
            ),
            _ => forward(inner, &request.body),
        })
    }
}

impl Router {
    /// Binds, spawns the accept loop, and returns immediately.
    ///
    /// # Errors
    ///
    /// Propagates bind failures; rejects an empty backend list.
    pub fn start(options: &RouterOptions) -> io::Result<Router> {
        if options.backends.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "router needs at least one backend",
            ));
        }
        let listener = TcpListener::bind(&options.addr)?;
        let breakers = options
            .backends
            .iter()
            .map(|_| CircuitBreaker::new(options.breaker.clone()))
            .collect();
        let inner = RouterInner {
            recorder: Arc::new(MetricsRecorder::new()),
            ring: HashRing::new(options.backends.clone()),
            breakers,
            retry: options.retry.clone(),
            shedder: LoadShedder::new(options.shed_inflight),
        };
        Ok(Router {
            front: Front::start(listener, IO_TIMEOUT, inner)?,
        })
    }

    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// The router's metrics sink (`route.*` and `breaker.*` counters).
    #[must_use]
    pub fn recorder(&self) -> Arc<MetricsRecorder> {
        Arc::clone(&self.front.service().recorder)
    }

    /// Initiates shutdown without waiting.
    pub fn begin_shutdown(&self) {
        self.front.begin_shutdown();
    }

    /// Blocks until the router has fully shut down.
    pub fn join(self) {
        self.front.join();
    }

    /// [`begin_shutdown`](Self::begin_shutdown) + [`join`](Self::join).
    pub fn shutdown(self) {
        self.begin_shutdown();
        self.join();
    }
}

fn forward(inner: &Arc<RouterInner>, body: &[u8]) -> (u16, String) {
    inner.recorder.counter("route.requests", 1);
    // Shed before parsing: when the router is saturated the cheapest
    // thing to do with a request is nothing at all.
    let Some(_permit) = inner.shedder.try_acquire() else {
        inner.recorder.counter("route.shed", 1);
        return (
            429,
            render_error("overloaded", "router at inflight capacity; retry later"),
        );
    };
    let parsed = match parse_analyze(body) {
        Ok(parsed) => parsed,
        Err(e) => return e.reply(),
    };
    let canon = canonicalize(&parsed.config, parsed.hyperperiods);
    let shard = canon.key.hi ^ canon.key.lo;
    let body = std::str::from_utf8(body).expect("parse_analyze accepted the body as UTF-8");
    let recorder = &inner.recorder;
    let result = forward_analyze(
        &inner.ring,
        Some(&inner.breakers),
        &inner.retry,
        shard,
        body,
        |_| recorder.counter("breaker.opened", 1),
    );
    match result {
        Ok(outcome) => {
            inner.recorder.counter("route.forwarded", 1);
            inner
                .recorder
                .counter("route.retries", u64::from(outcome.retries));
            inner
                .recorder
                .counter("route.failovers", u64::from(outcome.failovers));
            (outcome.response.status, outcome.response.body)
        }
        Err(message) => {
            inner.recorder.counter("route.exhausted", 1);
            (
                502,
                render_error("backends-unavailable", &message),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn ring3() -> HashRing {
        HashRing::new(vec![
            "127.0.0.1:7001".to_string(),
            "127.0.0.1:7002".to_string(),
            "127.0.0.1:7003".to_string(),
        ])
    }

    #[test]
    fn every_backend_owns_a_share_of_the_keyspace() {
        let ring = ring3();
        let mut owned: HashMap<usize, usize> = HashMap::new();
        for i in 0..10_000u64 {
            *owned
                .entry(ring.owner(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).unwrap())
                .or_default() += 1;
        }
        assert_eq!(owned.len(), 3, "every backend owns keys");
        for (&backend, &count) in &owned {
            assert!(
                count > 1_000,
                "backend {backend} owns only {count}/10000 keys — ring badly skewed"
            );
        }
    }

    #[test]
    fn order_lists_every_backend_once_owner_first() {
        let ring = ring3();
        for shard in [0u64, 1, u64::MAX, 0xdead_beef] {
            let order = ring.order(shard);
            assert_eq!(order.len(), 3);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "order must be distinct");
            assert_eq!(order[0], ring.owner(shard).unwrap());
        }
    }

    #[test]
    fn removing_a_backend_only_remaps_its_own_keys() {
        let full = ring3();
        let without_last = HashRing::new(vec![
            "127.0.0.1:7001".to_string(),
            "127.0.0.1:7002".to_string(),
        ]);
        for i in 0..2_000u64 {
            let shard = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let before = full.owner(shard).unwrap();
            if before < 2 {
                assert_eq!(
                    without_last.owner(shard).unwrap(),
                    before,
                    "surviving backends must keep their keys"
                );
            }
        }
    }

    #[test]
    fn empty_ring_owns_nothing() {
        let ring = HashRing::new(vec![]);
        assert!(ring.owner(7).is_none());
        assert!(ring.order(7).is_empty());
    }

    #[test]
    fn forward_exhausts_unreachable_backends() {
        // Nothing listens on these ports; the forward must fail cleanly
        // (and quickly — retry budget of 1 means no sleeps at all).
        let ring = HashRing::new(vec![
            "127.0.0.1:1".to_string(),
            "127.0.0.1:2".to_string(),
        ]);
        let retry = RetryPolicy {
            attempts: 1,
            ..RetryPolicy::default()
        };
        let mut opened = 0;
        let result = forward_analyze(&ring, None, &retry, 42, "{}", |_| opened += 1);
        let err = result.expect_err("no backend can answer");
        assert!(err.contains("unreachable"), "got: {err}");
    }

    #[test]
    fn forward_skips_open_breakers() {
        let ring = HashRing::new(vec!["127.0.0.1:1".to_string()]);
        let breakers = vec![CircuitBreaker::new(BreakerOptions {
            failure_threshold: 1,
            cooldown: std::time::Duration::from_secs(60),
        })];
        breakers[0].record_failure();
        let retry = RetryPolicy {
            attempts: 1,
            ..RetryPolicy::default()
        };
        let err = forward_analyze(&ring, Some(&breakers), &retry, 42, "{}", |_| {})
            .expect_err("breaker is open");
        assert!(err.contains("circuit open"), "got: {err}");
    }
}
