//! # swa-serve — a long-running schedulability-analysis service
//!
//! The paper's headline result is that *one deterministic simulated run*
//! decides schedulability (Sect. 3), and its Sect. 4 search tool issues
//! many analysis requests over near-identical configurations — exactly
//! the shape of a request-serving system. This crate turns the analyzer
//! into such a service:
//!
//! * **hand-rolled HTTP/1.1** over [`std::net::TcpListener`] ([`http`]) —
//!   the workspace builds with zero external dependencies, so both the
//!   protocol and the JSON request envelope ([`json`], [`request`]) are
//!   implemented here;
//! * a **content-addressed verdict cache** (`swa_core::{canon, cache}`):
//!   requests are canonicalized and hashed, so a repeated configuration
//!   returns in O(1) with `"cached": true` and *without re-simulating* —
//!   a per-key single-flight gate extends the guarantee to concurrent
//!   duplicates;
//! * a **bounded worker pool** ([`pool`]) with non-blocking admission
//!   (full queue ⇒ 429), cooperative per-request deadlines (⇒ 504), and
//!   drain-on-cancel shutdown: every accepted job is invoked, never
//!   silently dropped;
//! * **observability endpoints**: `/healthz`, and `/metrics` exporting
//!   the `swa_core` [`MetricsRecorder`](swa_core::MetricsRecorder) JSON
//!   (cache hit/miss/eviction counters included) plus live cache gauges;
//! * **one HTTP front end** for the [`Server`] and the consistent-hash
//!   [`Router`]: a crate-private module owns the accept loop, the socket
//!   timeouts (a stalled client gets 408), reading the request, the
//!   shared `/shutdown`/405/404 routes, the connection drain and the
//!   start/join/shutdown handle; each process supplies only its own
//!   routes and shutdown hooks.
//!
//! ## Endpoints
//!
//! | Endpoint         | Purpose                                        |
//! |------------------|------------------------------------------------|
//! | `POST /analyze`  | Analyze a configuration (JSON envelope)        |
//! | `POST /sweep`    | Sensitivity sweep, streamed as chunked NDJSON: |
//! |                  | one line per refinement step, final line = the |
//! |                  | canonical report (byte-equal to the CLI's)     |
//! | `GET /healthz`   | Liveness probe                                 |
//! | `GET /metrics`   | Cache gauges + full metrics JSON               |
//! | `POST /shutdown` | Graceful shutdown (drains in-flight work)      |
//!
//! ```no_run
//! use swa_serve::{client, Server, ServeOptions};
//!
//! let server = Server::start(&ServeOptions::default())?;
//! let body = r#"{"config_xml": "<configuration>…</configuration>"}"#;
//! let response = client::post(server.local_addr(), "/analyze", body)?;
//! println!("{}", response.body);
//! server.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::module_name_repetitions)]

pub mod client;
mod front;
pub mod http;
pub mod json;
pub mod pool;
pub mod request;
pub mod resilience;
pub mod router;
pub mod server;

pub use client::{HttpResponse, StreamedResponse};
pub use json::{Json, JsonError};
pub use pool::{Job, JobContext, WorkerPool};
pub use request::{
    parse_analyze, parse_sweep, render_error, render_verdict, AnalyzeRequest, RequestError,
    SweepRequest,
};
pub use resilience::{Backoff, CircuitBreaker, LoadShedder, RetryPolicy};
pub use router::{forward_analyze, ForwardOutcome, HashRing, Router, RouterOptions};
pub use server::{ServeOptions, Server};
