//! End-to-end server tests over a loopback socket.
//!
//! These exercise the full stack — real TCP connections, the hand-rolled
//! HTTP layer, the JSON envelope, the single-flight verdict cache, and
//! the worker pool — and prove the PR's headline guarantee: concurrent
//! duplicate configurations trigger **exactly one** simulation (asserted
//! via the in-process `Recorder` counters, not response inspection
//! alone).

use std::sync::Arc;
use std::time::Duration;

use swa_core::obs::json_escape;
use swa_ima::{
    Configuration, CoreRef, CoreType, CoreTypeId, Module, ModuleId, Partition, SchedulerKind, Task,
    Window,
};
use swa_serve::{client, Json, ServeOptions, Server};

fn small_config(wcet: i64) -> Configuration {
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

fn envelope(config: &Configuration, extra: &str) -> String {
    format!(
        "{{\"config_xml\":\"{}\"{}}}",
        json_escape(&swa_xmlio::configuration_to_xml(config)),
        extra
    )
}

fn test_options() -> ServeOptions {
    ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        queue_depth: 32,
        cache_bytes: 4 * 1024 * 1024,
        checkpoint_bytes: 4 * 1024 * 1024,
        ..ServeOptions::default()
    }
}

fn start_server() -> Server {
    Server::start(&test_options()).expect("bind loopback server")
}

/// A configuration that passes request validation but fails analysis:
/// the message's worst-case delay (60) does not fit within its sender's
/// period (50), which the model build rejects (`DelayExceedsPeriod`)
/// after the request layer has already accepted the envelope.
fn failing_config() -> Configuration {
    use swa_ima::{Message, TaskRef};
    Configuration {
        core_types: vec![CoreType::new("ct")],
        modules: vec![Module::homogeneous("M", 1, CoreTypeId::from_raw(0))],
        partitions: vec![
            Partition::new(
                "P0",
                SchedulerKind::Fpps,
                vec![Task::new("send", 1, vec![5], 50)],
            ),
            Partition::new(
                "P1",
                SchedulerKind::Fpps,
                vec![Task::new("recv", 1, vec![5], 50)],
            ),
        ],
        binding: vec![
            CoreRef::new(ModuleId::from_raw(0), 0),
            CoreRef::new(ModuleId::from_raw(0), 0),
        ],
        windows: vec![vec![Window::new(0, 25)], vec![Window::new(25, 50)]],
        messages: vec![Message::new(
            "too-slow",
            TaskRef::new(swa_ima::PartitionId::from_raw(0), 0),
            TaskRef::new(swa_ima::PartitionId::from_raw(1), 0),
            60,
            60,
        )],
    }
}

fn two_module_config(wcet_b: i64) -> Configuration {
    Configuration {
        core_types: vec![CoreType::new("ct")],
        modules: vec![
            Module::homogeneous("MA", 1, CoreTypeId::from_raw(0)),
            Module::homogeneous("MB", 1, CoreTypeId::from_raw(0)),
        ],
        partitions: vec![
            Partition::new(
                "PA",
                SchedulerKind::Fpps,
                vec![Task::new("a", 1, vec![10], 50)],
            ),
            Partition::new(
                "PB",
                SchedulerKind::Fpps,
                vec![Task::new("b", 1, vec![wcet_b], 50)],
            ),
        ],
        binding: vec![
            CoreRef::new(ModuleId::from_raw(0), 0),
            CoreRef::new(ModuleId::from_raw(1), 0),
        ],
        windows: vec![vec![Window::new(0, 50)], vec![Window::new(0, 50)]],
        messages: vec![],
    }
}

#[test]
fn compositional_server_reuses_unchanged_modules_across_edits() {
    let server = Server::start(&ServeOptions {
        compositional: true,
        ..test_options()
    })
    .expect("bind loopback server");
    let addr = server.local_addr();

    let first = client::post(addr, "/analyze", &envelope(&two_module_config(10), "")).unwrap();
    assert_eq!(first.status, 200, "body: {}", first.body);
    let doc = Json::parse(&first.body).unwrap();
    assert_eq!(doc.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(doc.get("schedulable").and_then(Json::as_bool), Some(true));
    let recorder = server.recorder();
    assert_eq!(recorder.counter_value("serve.analyses"), 1);
    // One verdict per module plus the composed whole-configuration entry.
    assert_eq!(recorder.counter_value("cache.insertions"), 3);

    // An exact repeat is a whole-key cache hit.
    let repeat = client::post(addr, "/analyze", &envelope(&two_module_config(10), "")).unwrap();
    let doc = Json::parse(&repeat.body).unwrap();
    assert_eq!(doc.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(recorder.counter_value("serve.analyses"), 1);

    // Editing one module simulates again, but the unchanged sibling
    // resumes from its checkpoint: a full hit, not a fresh simulation.
    let edited = client::post(addr, "/analyze", &envelope(&two_module_config(20), "")).unwrap();
    assert_eq!(edited.status, 200, "body: {}", edited.body);
    let doc = Json::parse(&edited.body).unwrap();
    assert_eq!(doc.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(doc.get("schedulable").and_then(Json::as_bool), Some(true));
    assert!(
        server.checkpoint_stats().full_hits >= 1,
        "unchanged module should warm-start from its checkpoint"
    );
    server.shutdown();
}

#[test]
fn concurrent_duplicate_requests_simulate_exactly_once() {
    let server = start_server();
    let addr = server.local_addr();
    let body = Arc::new(envelope(&small_config(10), ""));

    const CLIENTS: usize = 6;
    let responses: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let body = Arc::clone(&body);
                s.spawn(move || client::post(addr, "/analyze", body.as_str()).expect("post"))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });

    let mut fresh = 0;
    let mut cached = 0;
    for resp in &responses {
        assert_eq!(resp.status, 200, "body: {}", resp.body);
        let doc = Json::parse(&resp.body).expect("valid JSON response");
        assert_eq!(doc.get("schedulable").and_then(Json::as_bool), Some(true));
        match doc.get("cached").and_then(Json::as_bool) {
            Some(false) => fresh += 1,
            Some(true) => cached += 1,
            other => panic!("missing cached marker: {other:?}"),
        }
    }
    assert_eq!(fresh, 1, "exactly one request may simulate");
    assert_eq!(cached, CLIENTS - 1);

    // The authoritative proof: the Recorder counted one simulation.
    let recorder = server.recorder();
    assert_eq!(recorder.counter_value("serve.analyses"), 1);
    assert_eq!(recorder.counter_value("serve.requests"), CLIENTS as u64);
    assert_eq!(recorder.counter_value("cache.insertions"), 1);
    assert!(recorder.counter_value("cache.hits") >= (CLIENTS - 1) as u64);
    server.shutdown();
}

#[test]
fn distinct_configurations_each_simulate() {
    let server = start_server();
    let addr = server.local_addr();
    for wcet in [5, 10, 15] {
        let resp = client::post(addr, "/analyze", &envelope(&small_config(wcet), "")).unwrap();
        assert_eq!(resp.status, 200);
    }
    assert_eq!(server.recorder().counter_value("serve.analyses"), 3);
    server.shutdown();
}

#[test]
fn no_cache_bypasses_the_cache() {
    let server = start_server();
    let addr = server.local_addr();
    let body = envelope(&small_config(10), ",\"no_cache\":true");
    for _ in 0..2 {
        let resp = client::post(addr, "/analyze", &body).unwrap();
        assert_eq!(resp.status, 200);
        let doc = Json::parse(&resp.body).unwrap();
        assert_eq!(doc.get("cached").and_then(Json::as_bool), Some(false));
    }
    assert_eq!(server.recorder().counter_value("serve.analyses"), 2);
    server.shutdown();
}

/// The deprecated `"engine"` field is ignored like any unknown field: a
/// request that differs only by it hits the same cache entry and gets a
/// byte-identical answer.
#[test]
fn a_deprecated_engine_field_changes_nothing() {
    let server = start_server();
    let addr = server.local_addr();
    let plain = envelope(&small_config(10), "");
    let first = client::post(addr, "/analyze", &plain).unwrap();
    assert_eq!(first.status, 200, "body: {}", first.body);
    let doc = Json::parse(&first.body).unwrap();
    assert_eq!(doc.get("cached").and_then(Json::as_bool), Some(false));

    let cached = client::post(addr, "/analyze", &plain).unwrap();
    let with_engine = client::post(
        addr,
        "/analyze",
        &envelope(&small_config(10), ",\"engine\":\"ast\""),
    )
    .unwrap();
    assert_eq!(with_engine.status, 200, "body: {}", with_engine.body);
    let doc = Json::parse(&with_engine.body).unwrap();
    assert_eq!(doc.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(with_engine.body, cached.body);
    assert_eq!(server.recorder().counter_value("serve.analyses"), 1);
    server.shutdown();
}

#[test]
fn longer_horizon_request_warm_starts_from_an_earlier_one() {
    let server = start_server();
    let addr = server.local_addr();
    let config = small_config(10);

    // First request checkpoints its end state…
    let first = client::post(addr, "/analyze", &envelope(&config, "")).unwrap();
    assert_eq!(first.status, 200);
    assert_eq!(server.checkpoint_stats().insertions, 1);

    // …and a longer-horizon re-analysis of the same configuration resumes
    // it (the verdict cache cannot serve this: the horizon differs).
    let longer = client::post(addr, "/analyze", &envelope(&config, ",\"hyperperiods\":3")).unwrap();
    assert_eq!(longer.status, 200);
    let doc = Json::parse(&longer.body).unwrap();
    assert_eq!(doc.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(doc.get("schedulable").and_then(Json::as_bool), Some(true));

    let stats = server.checkpoint_stats();
    assert_eq!(stats.hits, 1, "the longer run resumed the first one");
    let recorder = server.recorder();
    assert_eq!(recorder.counter_value("checkpoint.hits"), 1);
    assert_eq!(recorder.counter_value("serve.analyses"), 2);
    server.shutdown();
}

#[test]
fn no_cache_also_bypasses_warm_starts() {
    let server = start_server();
    let addr = server.local_addr();
    let config = small_config(10);
    client::post(addr, "/analyze", &envelope(&config, "")).unwrap();
    let resp = client::post(
        addr,
        "/analyze",
        &envelope(&config, ",\"hyperperiods\":2,\"no_cache\":true"),
    )
    .unwrap();
    assert_eq!(resp.status, 200);
    let stats = server.checkpoint_stats();
    assert_eq!(stats.hits, 0);
    assert_eq!(
        stats.insertions, 1,
        "only the cache-honoring request checkpointed"
    );
    server.shutdown();
}

#[test]
fn expired_deadline_returns_504_without_simulating() {
    let server = start_server();
    let addr = server.local_addr();
    let resp = client::post(
        addr,
        "/analyze",
        &envelope(&small_config(10), ",\"deadline_ms\":0"),
    )
    .unwrap();
    assert_eq!(resp.status, 504, "body: {}", resp.body);
    let doc = Json::parse(&resp.body).unwrap();
    assert_eq!(doc.get("error").and_then(Json::as_str), Some("deadline"));
    let recorder = server.recorder();
    assert_eq!(recorder.counter_value("serve.analyses"), 0);
    assert!(recorder.counter_value("serve.deadline_expired") >= 1);
    server.shutdown();
}

#[test]
fn graceful_shutdown_finishes_in_flight_requests() {
    let server = start_server();
    let addr = server.local_addr();
    // A heavier request so shutdown genuinely overlaps the simulation.
    let heavy = envelope(&swa_workload::table1_config(2000), "");

    let in_flight = std::thread::spawn(move || client::post(addr, "/analyze", &heavy));
    std::thread::sleep(Duration::from_millis(30));
    server.begin_shutdown();
    server.join();

    // The in-flight request was answered, not dropped: either it finished
    // (200) or shutdown cancelled it cooperatively (503) — never a
    // connection error.
    let resp = in_flight.join().expect("client thread").expect("response");
    assert!(
        resp.status == 200 || resp.status == 503,
        "unexpected status {}: {}",
        resp.status,
        resp.body
    );

    // After shutdown the port no longer accepts work.
    let after = client::post(addr, "/analyze", &envelope(&small_config(10), ""));
    match after {
        Err(_) => {}
        Ok(resp) => assert_eq!(resp.status, 503),
    }
}

#[test]
fn health_metrics_and_error_paths() {
    let server = start_server();
    let addr = server.local_addr();

    let health = client::get(addr, "/healthz").unwrap();
    assert_eq!(health.status, 200);
    let doc = Json::parse(&health.body).unwrap();
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));

    // A miss + hit pair so the metrics have something to show.
    let body = envelope(&small_config(10), "");
    assert_eq!(client::post(addr, "/analyze", &body).unwrap().status, 200);
    assert_eq!(client::post(addr, "/analyze", &body).unwrap().status, 200);

    let metrics = client::get(addr, "/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let doc = Json::parse(&metrics.body).unwrap();
    let cache = doc.get("cache").expect("cache gauges");
    assert_eq!(cache.get("entries").and_then(Json::as_u64), Some(1));
    for counter in [
        "cache.hits",
        "cache.misses",
        "cache.insertions",
        "serve.analyses",
    ] {
        assert!(
            metrics.body.contains(counter),
            "/metrics missing {counter}: {}",
            metrics.body
        );
    }

    // Error paths: unknown endpoint, wrong method, malformed JSON, bad
    // model.
    assert_eq!(client::get(addr, "/nope").unwrap().status, 404);
    assert_eq!(client::get(addr, "/analyze").unwrap().status, 405);
    assert_eq!(client::post(addr, "/analyze", "{oops").unwrap().status, 400);
    assert_eq!(
        client::post(addr, "/analyze", "{\"config_xml\":\"<x/>\"}")
            .unwrap()
            .status,
        422
    );
    server.shutdown();
}

/// Satellite regression: an analysis *error* must release the
/// single-flight gate. Before the RAII guard, the leader only removed
/// the gate entry on the success path — after a failure every subsequent
/// request for the same key parked on the dead gate until its deadline.
#[test]
fn failed_analysis_releases_the_single_flight_gate() {
    let server = start_server();
    let addr = server.local_addr();
    let body = envelope(&failing_config(), "");

    let first = client::post(addr, "/analyze", &body).unwrap();
    assert_eq!(first.status, 500, "body: {}", first.body);

    // With a leaked gate this second request would wait out its deadline
    // and answer 504; with the guard it becomes a fresh leader and fails
    // the same way the first one did.
    let second = client::post(
        addr,
        "/analyze",
        &envelope(&failing_config(), ",\"deadline_ms\":2000"),
    )
    .unwrap();
    assert_eq!(
        second.status, 500,
        "second request must re-run, not hang on the dead gate: {}",
        second.body
    );
    server.shutdown();
}

/// Satellite regression: a client that opens a connection and stalls
/// mid-request must be timed out with 408, not pin the handler thread.
#[test]
fn stalling_client_gets_408() {
    use std::io::{Read, Write};
    let server = Server::start(&ServeOptions {
        io_timeout: Duration::from_millis(100),
        ..test_options()
    })
    .expect("bind loopback server");
    let addr = server.local_addr();

    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"POST /analyze HTTP/1.1\r\nContent-Le")
        .unwrap();
    // …and stall. The server must give up at its io_timeout and close
    // with a 408 instead of waiting forever.
    let mut response = String::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.read_to_string(&mut response).unwrap();
    assert!(
        response.starts_with("HTTP/1.1 408"),
        "expected 408 for a stalled request, got: {response:?}"
    );
    assert_eq!(server.recorder().counter_value("serve.timeouts"), 1);
    server.shutdown();
}

/// The router shares the server's front end: a client stalling mid-request
/// gets 408 at the fixed 5 s socket timeout, and a silent connection
/// delays `Router::shutdown` by at most that timeout instead of forever.
#[test]
fn stalling_client_cannot_hang_the_router() {
    use std::io::{Read, Write};
    use swa_serve::{Router, RouterOptions};
    let backend = start_server();
    let router = Router::start(&RouterOptions {
        backends: vec![backend.local_addr().to_string()],
        ..RouterOptions::default()
    })
    .expect("bind router");
    let addr = router.local_addr();

    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"POST /analyze HTTP/1.1\r\nContent-Le")
        .unwrap();
    let mut response = String::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let _ = stream.read_to_string(&mut response);
    assert!(
        response.starts_with("HTTP/1.1 408"),
        "expected 408 for a request stalled at the router, got: {response:?}"
    );
    assert_eq!(router.recorder().counter_value("route.timeouts"), 1);

    // A second client connects and sends nothing. Shutdown runs on a
    // watchdog thread so a pinned connection fails the test, not hangs it.
    let _silent = std::net::TcpStream::connect(addr).unwrap();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        router.shutdown();
        let _ = done_tx.send(());
    });
    assert!(
        done_rx.recv_timeout(Duration::from_secs(15)).is_ok(),
        "Router::shutdown() still blocked by a silent client after 15 s"
    );
    backend.shutdown();
}

fn temp_state_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("swa-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Tentpole end-to-end: a server restarted against the same --state-dir
/// answers a previously-seen configuration from the disk tier — marked
/// cached, byte-equal verdict, zero new simulations.
#[test]
fn restart_answers_from_the_disk_tier_without_resimulating() {
    let state_dir = temp_state_dir("restart");
    let options = ServeOptions {
        state_dir: Some(state_dir.clone()),
        ..test_options()
    };
    let body = envelope(&small_config(10), "");

    let first_body;
    {
        let server = Server::start(&options).expect("bind first server");
        let first = client::post(server.local_addr(), "/analyze", &body).unwrap();
        assert_eq!(first.status, 200, "body: {}", first.body);
        let doc = Json::parse(&first.body).unwrap();
        assert_eq!(doc.get("cached").and_then(Json::as_bool), Some(false));
        assert_eq!(server.recorder().counter_value("serve.analyses"), 1);
        first_body = first.body;
        server.shutdown();
    }

    let server = Server::start(&options).expect("bind restarted server");
    let second = client::post(server.local_addr(), "/analyze", &body).unwrap();
    assert_eq!(second.status, 200, "body: {}", second.body);
    let first_doc = Json::parse(&first_body).unwrap();
    let doc = Json::parse(&second.body).unwrap();
    assert_eq!(
        doc.get("cached").and_then(Json::as_bool),
        Some(true),
        "restart must serve from the durable tier: {}",
        second.body
    );
    // The restarted process never simulated anything.
    assert_eq!(
        server.recorder().counter_value("serve.analyses"),
        0,
        "restart re-simulated instead of reading the disk tier"
    );
    // Verdict fields are identical pre/post restart.
    for field in [
        "schedulable",
        "verdict",
        "hyperperiod",
        "jobs",
        "missed_jobs",
        "key",
    ] {
        assert_eq!(
            doc.get(field).map(|v| format!("{v:?}")),
            first_doc.get(field).map(|v| format!("{v:?}")),
            "verdict field {field} drifted across the restart"
        );
    }
    // The disk-served lookup is one cache hit in the /metrics counters.
    let metrics = client::get(server.local_addr(), "/metrics").unwrap();
    let metrics_doc = Json::parse(&metrics.body).unwrap();
    let counter = |name: &str| {
        metrics_doc
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    assert_eq!(counter("cache.hits"), 1, "{}", metrics.body);
    assert_eq!(counter("cache.misses"), 0, "{}", metrics.body);
    server.shutdown();
    std::fs::remove_dir_all(&state_dir).ok();
}

/// Tentpole end-to-end: `POST /sweep` streams progressive refinement
/// steps as chunked NDJSON, and the final line is the canonical report —
/// byte-equal to what an in-process [`swa_sweep::run_sweep`] over the
/// same request produces (the CLI `--json` path calls exactly that).
#[test]
fn sweep_endpoint_streams_steps_and_matches_the_library_report() {
    use swa_sweep::{run_sweep, Axis, SweepEngine, SweepOptions};
    let server = start_server();
    let addr = server.local_addr();
    let config = small_config(10);
    let body = envelope(&config, ",\"tolerance\":0.05,\"per_task\":true");

    let resp = client::post_lines(addr, "/sweep", &body).expect("streamed response");
    assert_eq!(resp.status, 200, "lines: {:?}", resp.lines);
    assert!(
        resp.lines.len() >= 2,
        "expected progressive step lines before the report: {:?}",
        resp.lines
    );
    for step in &resp.lines[..resp.lines.len() - 1] {
        let doc = Json::parse(step).expect("step lines are valid JSON");
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("step"));
        assert!(doc.get("factor").and_then(Json::as_f64).is_some());
    }

    let mut options = SweepOptions::default();
    options.search.tolerance = 0.05;
    let mut engine = SweepEngine::new(config, options).unwrap();
    let expected = run_sweep(&mut engine, Axis::WcetScale, true, |_| {}, || false)
        .unwrap()
        .render_json();
    assert_eq!(
        resp.lines.last().unwrap(),
        &expected,
        "final line must be byte-equal to the library/CLI report"
    );

    // The sweep ran through the shared Analyzer stack: probes simulated
    // and the `sweep.*` counter family landed in the server recorder.
    let recorder = server.recorder();
    assert!(recorder.counter_value("serve.sweeps") >= 1);
    assert!(recorder.counter_value("sweep.probes") > 0);
    assert!(recorder.counter_value("sweep.simulated") > 0);

    // A repeat of the same sweep is answered from the verdict cache and
    // the engine memo: zero new simulations, same final line.
    let simulated_before = recorder.counter_value("sweep.simulated");
    let repeat = client::post_lines(addr, "/sweep", &body).expect("repeat response");
    assert_eq!(repeat.lines.last().unwrap(), &expected);
    assert_eq!(
        recorder.counter_value("sweep.simulated"),
        simulated_before,
        "warm repeat must reuse cached verdicts, not simulate"
    );
    assert!(recorder.counter_value("sweep.cache_hits") > 0);
    server.shutdown();
}

/// `/sweep` error paths reuse the `/analyze` status-code contract before
/// the stream commits.
#[test]
fn sweep_endpoint_rejects_bad_requests_without_streaming() {
    let server = start_server();
    let addr = server.local_addr();
    // Wrong method.
    assert_eq!(client::get(addr, "/sweep").unwrap().status, 405);
    // Malformed JSON → 400, invalid model → 422, bad axis → 400.
    assert_eq!(
        client::post_lines(addr, "/sweep", "{oops").unwrap().status,
        400
    );
    assert_eq!(
        client::post_lines(addr, "/sweep", "{\"config_xml\":\"<x/>\"}")
            .unwrap()
            .status,
        422
    );
    let bad_axis = envelope(&small_config(10), ",\"axis\":\"voltage\"");
    assert_eq!(
        client::post_lines(addr, "/sweep", &bad_axis)
            .unwrap()
            .status,
        400
    );
    server.shutdown();
}

/// Router end-to-end: consistent-hash forwarding across two live
/// backends preserves the cached-verdict contract, and a dead backend in
/// the ring is failed over transparently.
#[test]
fn router_shards_and_fails_over() {
    use swa_serve::{Router, RouterOptions};
    let backend_a = start_server();
    let backend_b = start_server();
    let router = Router::start(&RouterOptions {
        backends: vec![
            backend_a.local_addr().to_string(),
            backend_b.local_addr().to_string(),
        ],
        ..RouterOptions::default()
    })
    .expect("bind router");
    let addr = router.local_addr();

    // Distinct configs spread over the ring; each is simulated exactly
    // once fleet-wide and cached on its owning backend.
    for wcet in [10, 20, 30, 40] {
        let body = envelope(&small_config(wcet), "");
        let first = client::post(addr, "/analyze", &body).unwrap();
        assert_eq!(first.status, 200, "body: {}", first.body);
        let doc = Json::parse(&first.body).unwrap();
        assert_eq!(doc.get("cached").and_then(Json::as_bool), Some(false));
        let second = client::post(addr, "/analyze", &body).unwrap();
        let doc = Json::parse(&second.body).unwrap();
        assert_eq!(
            doc.get("cached").and_then(Json::as_bool),
            Some(true),
            "ring affinity must route the repeat to the same backend: {}",
            second.body
        );
    }
    let total_analyses = backend_a.recorder().counter_value("serve.analyses")
        + backend_b.recorder().counter_value("serve.analyses");
    assert_eq!(
        total_analyses, 4,
        "each config simulated exactly once fleet-wide"
    );
    assert_eq!(router.recorder().counter_value("route.requests"), 8);
    assert_eq!(router.recorder().counter_value("route.forwarded"), 8);

    // Health endpoint speaks for the router itself.
    let health = client::get(addr, "/healthz").unwrap();
    assert!(
        health.body.contains("\"role\":\"router\""),
        "{}",
        health.body
    );
    router.shutdown();

    // Failover: a ring with one dead backend still answers through the
    // live one, for every key.
    let router = Router::start(&RouterOptions {
        backends: vec![
            "127.0.0.1:9".to_string(),
            backend_a.local_addr().to_string(),
        ],
        retry: swa_serve::RetryPolicy { attempts: 1 },
        ..RouterOptions::default()
    })
    .expect("bind failover router");
    for wcet in [10, 20, 30, 40] {
        let response = client::post(
            router.local_addr(),
            "/analyze",
            &envelope(&small_config(wcet), ""),
        )
        .unwrap();
        assert_eq!(response.status, 200, "failover failed: {}", response.body);
    }
    router.shutdown();
    backend_a.shutdown();
    backend_b.shutdown();
}

/// The router forwards every body without reading it, so a malformed or
/// invalid request gets the backend's own status and body bytes.
#[test]
fn router_relays_the_backends_answer_to_bad_bodies() {
    use swa_serve::{Router, RouterOptions};
    let backend = start_server();
    let router = Router::start(&RouterOptions {
        backends: vec![backend.local_addr().to_string()],
        ..RouterOptions::default()
    })
    .expect("bind router");
    let mut invalid = small_config(10);
    invalid.windows = vec![vec![Window::new(0, 60)]];
    let bodies: [(&str, Vec<u8>, u16); 5] = [
        ("not JSON", b"config_xml=<configuration/>".to_vec(), 400),
        ("non-UTF-8", b"{\"config_xml\":\"\xff\"}".to_vec(), 400),
        ("no config_xml", b"{\"hyperperiods\":1}".to_vec(), 400),
        (
            "bad hyperperiods",
            envelope(&small_config(10), ",\"hyperperiods\":\"two\"").into_bytes(),
            400,
        ),
        ("invalid model", envelope(&invalid, "").into_bytes(), 422),
    ];
    for (what, body, status) in &bodies {
        let direct = client::post(backend.local_addr(), "/analyze", body).unwrap();
        let routed = client::post(router.local_addr(), "/analyze", body).unwrap();
        assert_eq!(direct.status, *status, "{what}: {}", direct.body);
        assert_eq!(routed.status, direct.status, "{what}");
        assert_eq!(routed.body, direct.body, "{what}");
    }
    assert_eq!(router.recorder().counter_value("route.requests"), 5);
    assert_eq!(router.recorder().counter_value("route.forwarded"), 5);
    assert_eq!(backend.recorder().counter_value("serve.analyses"), 0);
    router.shutdown();
    backend.shutdown();
}

#[test]
fn ladder_admission_decides_without_simulating() {
    use swa_core::LadderMode;
    let server = Server::start(&ServeOptions {
        ladder: LadderMode::Full,
        ..test_options()
    })
    .expect("bind ladder server");
    let addr = server.local_addr();

    // A comfortably schedulable single task with the whole hyperperiod
    // granted: tier T1 (window-supply RTA) decides it at admission.
    let yes = client::post(addr, "/analyze", &envelope(&small_config(10), "")).unwrap();
    assert_eq!(yes.status, 200, "{}", yes.body);
    let doc = Json::parse(&yes.body).unwrap();
    assert_eq!(
        doc.get("verdict").and_then(Json::as_str),
        Some("schedulable")
    );
    assert_eq!(
        doc.get("decided_by").and_then(Json::as_str),
        Some("t1-window-rta")
    );
    assert_eq!(doc.get("cached").and_then(Json::as_bool), Some(false));

    // Demand 30 against a 25-tick window: tier T0 rejects analytically.
    let mut starved = small_config(30);
    starved.windows = vec![vec![Window::new(0, 25)]];
    let no = client::post(addr, "/analyze", &envelope(&starved, "")).unwrap();
    assert_eq!(no.status, 200, "{}", no.body);
    let doc = Json::parse(&no.body).unwrap();
    assert_eq!(
        doc.get("verdict").and_then(Json::as_str),
        Some("unschedulable")
    );
    assert_eq!(
        doc.get("decided_by").and_then(Json::as_str),
        Some("t0-utilization")
    );

    // Neither request reached the worker pool.
    assert_eq!(server.recorder().counter_value("serve.analyses"), 0);
    assert_eq!(server.recorder().counter_value("serve.ladder_decided"), 2);

    // Ladder verdicts are cached: the repeat is a hit with the same
    // provenance.
    let repeat = client::post(addr, "/analyze", &envelope(&small_config(10), "")).unwrap();
    let doc = Json::parse(&repeat.body).unwrap();
    assert_eq!(doc.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(
        doc.get("decided_by").and_then(Json::as_str),
        Some("t1-window-rta")
    );

    // `no_cache` opts out of the pre-filter: the same configuration now
    // takes the full simulation path and reports simulation provenance.
    let fresh = client::post(
        addr,
        "/analyze",
        &envelope(&small_config(10), ",\"no_cache\":true"),
    )
    .unwrap();
    let doc = Json::parse(&fresh.body).unwrap();
    assert_eq!(
        doc.get("decided_by").and_then(Json::as_str),
        Some("simulation")
    );
    assert_eq!(server.recorder().counter_value("serve.analyses"), 1);

    // The ladder and the simulation agree on both configurations.
    let fresh_no =
        client::post(addr, "/analyze", &envelope(&starved, ",\"no_cache\":true")).unwrap();
    let doc = Json::parse(&fresh_no.body).unwrap();
    assert_eq!(
        doc.get("verdict").and_then(Json::as_str),
        Some("unschedulable")
    );
    assert_eq!(
        doc.get("decided_by").and_then(Json::as_str),
        Some("simulation")
    );
    server.shutdown();
}
