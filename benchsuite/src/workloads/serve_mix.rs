//! `serve-mix`: a closed loop of two clients, each on its own loopback
//! connection per request, against an in-process `swa_serve::Server`
//! (two workers, ladder `Full`, compositional, durable state directory).
//! A client sends its next request only after the previous reply. The
//! per-client class mix is fixed: 30% cold (a configuration never sent
//! before), 35% warm repeats, 15% one-module edits of an earlier
//! configuration, 10% ladder-decidable (overloaded, so the T0 bound
//! answers), and 10% duplicates (both clients send the same new
//! configuration at once, so single-flight engages). Configurations are
//! ~500/1,500/3,000 jobs at 60/30/10%. A session replays this plan
//! against a fresh server; sessions repeat until the budget is spent.
//!
//! Chosen because it is the only workload with HTTP, JSON, request
//! parsing, pool queueing, single-flight and disk appends on the
//! critical path, with cache hits running beside inserts.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use swa_core::obs::json_escape;
use swa_core::{
    canonicalize, compositional_lookup, Analyzer, LadderMode, NoopRecorder, ShardedVerdictCache,
    VerdictLadder,
};
use swa_ima::{Configuration, CoreRef, SchedulerKind};
use swa_serve::{parse_analyze, Json, ServeOptions, Server};
use swa_workload::{industrial_config, Rng64};
use swa_xmlio::{configuration_from_xml, configuration_to_xml};

use super::{end_to_end, per_layer, rate, write_trace, Rounds, RunArgs};
use crate::gen::{fnv1a, modular_spec, sub_seed};
use crate::report::{Metric, Outcome};
use crate::stats;
use crate::trace::{Context, Tracer};

/// Request classes and their per-client share (percent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Class {
    Cold,
    Warm,
    Edit,
    Ladder,
    Dup,
}

const MIX: [(Class, usize); 5] = [
    (Class::Cold, 30),
    (Class::Warm, 35),
    (Class::Edit, 15),
    (Class::Ladder, 10),
    (Class::Dup, 10),
];

impl Class {
    fn label(self) -> &'static str {
        match self {
            Class::Cold => "cold",
            Class::Warm => "warm",
            Class::Edit => "edit",
            Class::Ladder => "ladder",
            Class::Dup => "dup",
        }
    }
}

/// One planned request: its class and the body it sends.
#[derive(Debug, Clone, Copy)]
struct Planned {
    class: Class,
    body: usize,
}

/// The inputs: every distinct body and each client's request sequence
/// for one session.
pub(crate) struct Plan {
    bodies: Vec<String>,
    configs: Vec<Configuration>,
    clients: [Vec<Planned>; 2],
}

/// Demand over one hyperperiod exceeds window supply somewhere — the
/// necessary-bound test the ladder's T0 tier applies.
fn overloaded(config: &Configuration) -> bool {
    let Some(l) = config.hyperperiod() else {
        return false;
    };
    let demand = |p: usize| -> i64 {
        config.partitions[p]
            .tasks
            .iter()
            .map(|t| t.wcet.first().copied().unwrap_or(0) * (l / t.period))
            .sum()
    };
    let mut per_core: HashMap<CoreRef, i64> = HashMap::new();
    for p in 0..config.partitions.len() {
        let supply = swa_ima::window::total_window_time(&config.windows[p]);
        if demand(p) > supply {
            return true;
        }
        *per_core.entry(config.binding[p]).or_default() += demand(p);
    }
    per_core.values().any(|&d| d > l)
}

/// A configuration the ladder cannot decide: FPPS/FPNPS/EDF partitions
/// (FPNPS is outside T1/T2) within every window supply (so T0 passes).
fn contested(seed: u64, jobs: u64) -> Configuration {
    let mut config = industrial_config(&modular_spec(jobs, 0.5, 0.0, seed));
    for (i, p) in config.partitions.iter_mut().enumerate() {
        p.scheduler = match i % 3 {
            0 => SchedulerKind::Fpnps,
            1 => SchedulerKind::Fpps,
            _ => SchedulerKind::Edf,
        };
    }
    assert!(
        !overloaded(&config),
        "generated serve configurations fit their windows"
    );
    config
}

/// An overloaded configuration: partition 0's WCETs grow until its
/// demand exceeds its window supply.
fn overloaded_config(seed: u64, jobs: u64) -> Configuration {
    let mut config = contested(seed, jobs);
    let mut factor = 2;
    while !overloaded(&config) {
        for t in &mut config.partitions[0].tasks {
            for w in &mut t.wcet {
                *w = (*w * factor).min(t.period);
            }
        }
        factor += 1;
        assert!(factor < 64, "partition 0 can always be overloaded");
    }
    config
}

/// A one-module edit: one task's WCET moves by ~10%, upward unless that
/// would overload its partition.
fn edited(config: &Configuration, seed: u64) -> Configuration {
    let mut rng = Rng64::seed_from_u64(seed);
    let p = rng.gen_range(config.partitions.len());
    let t = rng.gen_range(config.partitions[p].tasks.len());
    let mut out = config.clone();
    let wcet = out.partitions[p].tasks[t].wcet[0];
    let step = (wcet / 10).max(1);
    out.partitions[p].tasks[t].wcet[0] = wcet + step;
    if overloaded(&out) || wcet + step > out.partitions[p].tasks[t].period {
        out.partitions[p].tasks[t].wcet[0] = (wcet - step).max(1);
    }
    if out == *config {
        out.partitions[p].tasks[t].deadline -= 1;
    }
    out
}

fn body_of(config: &Configuration) -> String {
    format!(
        "{{\"config_xml\":\"{}\"}}",
        json_escape(&configuration_to_xml(config))
    )
}

/// Size classes in a fixed 60/30/10 proportion: every ten draws hold
/// six small, three medium and one large.
#[derive(Default)]
struct SizeDeck(Vec<usize>);

impl SizeDeck {
    fn draw(&mut self, rng: &mut Rng64) -> usize {
        if self.0.is_empty() {
            self.0 = vec![0, 0, 0, 0, 0, 0, 1, 1, 1, 2];
            rng.shuffle(&mut self.0);
        }
        self.0.pop().expect("refilled deck")
    }
}

/// A random earlier entry of size class `size`, or of any size when the
/// client has none of that class yet.
fn pick(rng: &mut Rng64, seen: &[usize], size_of: &[usize], size: usize) -> usize {
    let same: Vec<usize> = seen
        .iter()
        .copied()
        .filter(|&b| size_of[b] == size)
        .collect();
    let pool = if same.is_empty() { seen } else { &same };
    pool[rng.gen_range(pool.len())]
}

/// Builds the session plan for one seed. Every request slot — new or
/// repeated configuration alike — draws its size class from a deck, so
/// each seed sends the same share of large bodies.
fn plan(seed: u64, per_client: usize, sizes: [u64; 3]) -> Plan {
    let mut rng = Rng64::seed_from_u64(sub_seed(seed, 500));
    let count = |share: usize| (per_client * share + 50) / 100;
    let dups = count(10);
    // Duplicate slots coincide for both clients (never the first slot).
    let mut slots: Vec<usize> = (1..per_client).collect();
    rng.shuffle(&mut slots);
    let mut dup_slots: Vec<usize> = slots[..dups].to_vec();
    dup_slots.sort_unstable();

    let mut configs: Vec<Configuration> = Vec::new();
    let mut size_of: Vec<usize> = Vec::new();
    let fresh = |configs: &mut Vec<Configuration>,
                 size_of: &mut Vec<usize>,
                 size: usize,
                 overload: bool| {
        let s = sub_seed(seed, 1000 + configs.len() as u64);
        let jobs = sizes[size];
        configs.push(if overload {
            overloaded_config(s, jobs)
        } else {
            contested(s, jobs)
        });
        size_of.push(size);
        configs.len() - 1
    };
    let mut dup_deck = SizeDeck::default();
    let dup_configs: Vec<usize> = (0..dups)
        .map(|_| {
            let size = dup_deck.draw(&mut rng);
            fresh(&mut configs, &mut size_of, size, false)
        })
        .collect();

    let mut clients: [Vec<Planned>; 2] = [Vec::new(), Vec::new()];
    for client in &mut clients {
        let mut classes: Vec<Class> = Vec::new();
        for (class, share) in MIX {
            if class != Class::Dup {
                classes.extend(std::iter::repeat_n(class, count(share)));
            }
        }
        classes.resize(per_client - dups, Class::Cold);
        rng.shuffle(&mut classes);
        // The first request must be cold: warm repeats and edits refer
        // to earlier requests of the same client.
        if let Some(i) = classes.iter().position(|&c| c == Class::Cold) {
            classes.swap(0, i);
        }
        let mut classes = classes.into_iter();
        let mut deck = SizeDeck::default();
        let mut history: Vec<usize> = Vec::new();
        let mut editable: Vec<usize> = Vec::new();
        let mut dup_iter = dup_configs.iter();
        for slot in 0..per_client {
            let (class, body) = if dup_slots.binary_search(&slot).is_ok() {
                let b = *dup_iter.next().expect("one config per duplicate slot");
                editable.push(b);
                (Class::Dup, b)
            } else {
                let class = classes.next().expect("one class per slot");
                let size = deck.draw(&mut rng);
                let b = match class {
                    Class::Cold => {
                        let b = fresh(&mut configs, &mut size_of, size, false);
                        editable.push(b);
                        b
                    }
                    Class::Ladder => fresh(&mut configs, &mut size_of, size, true),
                    Class::Warm => pick(&mut rng, &history, &size_of, size),
                    Class::Edit => {
                        let base = pick(&mut rng, &editable, &size_of, size);
                        let s = sub_seed(seed, 5000 + configs.len() as u64);
                        configs.push(edited(&configs[base], s));
                        size_of.push(size_of[base]);
                        editable.push(configs.len() - 1);
                        configs.len() - 1
                    }
                    Class::Dup => unreachable!("duplicates are placed by slot"),
                };
                (class, b)
            };
            history.push(body);
            client.push(Planned { class, body });
        }
    }
    let bodies = configs.iter().map(body_of).collect();
    Plan {
        bodies,
        configs,
        clients,
    }
}

/// The fields of a 200 response the checks use.
#[derive(Debug, Clone)]
struct Reply {
    cached: bool,
    decided_by: String,
    schedulable: bool,
    key: String,
    jobs: u64,
    missed_jobs: u64,
    check_ms: f64,
    /// Everything but `cached` and `check_ms`.
    masked: String,
}

impl Reply {
    fn parse(body: &str) -> Option<Self> {
        let doc = Json::parse(body).ok()?;
        let s = |k: &str| doc.get(k).and_then(Json::as_str).map(str::to_string);
        let n = |k: &str| doc.get(k).and_then(Json::as_u64);
        let verdict = s("verdict")?;
        let decided_by = s("decided_by")?;
        let schedulable = doc.get("schedulable").and_then(Json::as_bool)?;
        let key = s("key")?;
        let (hyperperiod, jobs, missed_jobs) = (n("hyperperiod")?, n("jobs")?, n("missed_jobs")?);
        Some(Self {
            cached: doc.get("cached").and_then(Json::as_bool)?,
            masked: format!(
                "{verdict}|{schedulable}|{decided_by}|{hyperperiod}|{jobs}|{missed_jobs}"
            ),
            decided_by,
            schedulable,
            key,
            jobs,
            missed_jobs,
            check_ms: doc.get("check_ms").and_then(Json::as_f64)?,
        })
    }
}

/// Client-side phases of one request: connect, send, wait for the first
/// byte, read.
type Phases = [(Instant, Instant); 4];

/// One completed request.
#[derive(Debug, Clone)]
struct Record {
    class: Class,
    body: usize,
    status: u16,
    reply: Option<Reply>,
    error: Option<String>,
    ms: f64,
    phases: Phases,
}

/// One request over a fresh loopback connection, timed by phase.
fn exchange(addr: SocketAddr, body: &str) -> io::Result<(u16, String, Phases)> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    let t1 = Instant::now();
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_write_timeout(Some(Duration::from_secs(60)))?;
    let head = format!(
        "POST /analyze HTTP/1.1\r\nHost: swa-serve\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    let t2 = Instant::now();
    let mut raw = vec![0u8; 1];
    stream.read_exact(&mut raw)?;
    let t3 = Instant::now();
    stream.read_to_end(&mut raw)?;
    let t4 = Instant::now();
    let text = String::from_utf8(raw).map_err(|_| io::Error::other("response is not UTF-8"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::other("response without a header terminator"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::other("malformed status line"))?;
    Ok((
        status,
        body.to_string(),
        [(t0, t1), (t1, t2), (t2, t3), (t3, t4)],
    ))
}

/// The server's `/metrics` document, reduced to counters and span
/// totals (seconds, count).
#[derive(Debug, Default)]
struct ServerMetrics {
    counters: BTreeMap<String, f64>,
    spans: BTreeMap<String, (f64, f64)>,
    cache_bytes: f64,
    checkpoint_bytes: f64,
}

impl ServerMetrics {
    fn add(&mut self, body: &str) -> Option<()> {
        let doc = Json::parse(body).ok()?;
        let metrics = doc.get("metrics")?;
        if let Some(Json::Obj(pairs)) = metrics.get("counters") {
            for (k, v) in pairs {
                *self.counters.entry(k.clone()).or_default() += v.as_f64().unwrap_or(0.0);
            }
        }
        if let Some(Json::Obj(pairs)) = metrics.get("spans") {
            for (k, v) in pairs {
                let slot = self.spans.entry(k.clone()).or_default();
                slot.0 += v.get("seconds").and_then(Json::as_f64).unwrap_or(0.0);
                slot.1 += v.get("count").and_then(Json::as_f64).unwrap_or(0.0);
            }
        }
        let bytes = |section: &str| {
            doc.get(section)
                .and_then(|s| s.get("bytes"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        self.cache_bytes = self.cache_bytes.max(bytes("cache"));
        self.checkpoint_bytes = self.checkpoint_bytes.max(bytes("checkpoints"));
        Some(())
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    fn span(&self, name: &str) -> (f64, f64) {
        self.spans.get(name).copied().unwrap_or_default()
    }
}

/// Plays the plan once against a fresh server.
fn session(
    plan: &Plan,
    dir: &PathBuf,
    metrics: &mut ServerMetrics,
) -> io::Result<(Vec<Record>, Duration)> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)?;
    let server = Server::start(&ServeOptions {
        workers: 2,
        compositional: true,
        ladder: LadderMode::Full,
        state_dir: Some(dir.clone()),
        ..ServeOptions::default()
    })?;
    let addr = server.local_addr();
    let barrier = Barrier::new(2);
    let start = Instant::now();
    // Client-major order: request `c * per_client + slot`.
    let records: Vec<Record> = std::thread::scope(|scope| {
        let clients: Vec<_> = plan
            .clients
            .iter()
            .map(|client| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut mine = Vec::with_capacity(client.len());
                    for req in client {
                        if req.class == Class::Dup {
                            barrier.wait();
                        }
                        let t = Instant::now();
                        let result = exchange(addr, &plan.bodies[req.body]);
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        mine.push(match result {
                            Ok((status, body, phases)) => Record {
                                class: req.class,
                                body: req.body,
                                status,
                                reply: if status == 200 {
                                    Reply::parse(&body)
                                } else {
                                    None
                                },
                                error: (status != 200).then(|| body.clone()),
                                ms,
                                phases,
                            },
                            Err(e) => Record {
                                class: req.class,
                                body: req.body,
                                status: 0,
                                reply: None,
                                error: Some(e.to_string()),
                                ms,
                                phases: [(t, t); 4],
                            },
                        });
                    }
                    mine
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let busy = start.elapsed();
    let scraped = swa_serve::client::get(addr, "/metrics")?;
    metrics
        .add(&scraped.body)
        .ok_or_else(|| io::Error::other("unparseable /metrics document"))?;
    server.shutdown();
    std::fs::remove_dir_all(dir)?;
    Ok((records, busy))
}

/// Per-body offline replay of the server's request-side layers (ns).
#[derive(Debug, Clone, Copy)]
struct Replay {
    json: f64,
    xmlio: f64,
    ima: f64,
    request: f64,
    canon: f64,
    cache: f64,
    ladder: f64,
}

fn replay(body: &str) -> Replay {
    let ns = |t: Instant| t.elapsed().as_secs_f64() * 1e9;
    let t = Instant::now();
    let doc = Json::parse(body).expect("planned bodies are JSON");
    let json = ns(t);
    let xml = doc
        .get("config_xml")
        .and_then(Json::as_str)
        .expect("config_xml");
    let t = Instant::now();
    let config = configuration_from_xml(xml).expect("planned XML parses");
    let xmlio = ns(t);
    let t = Instant::now();
    let _ = config.validate();
    let ima = ns(t);
    let t = Instant::now();
    let _ = parse_analyze(body.as_bytes());
    let request = (ns(t) - json - xmlio - ima).max(0.0);
    let t = Instant::now();
    let _ = canonicalize(&config, 1);
    let canon = ns(t);
    let empty = ShardedVerdictCache::new(1 << 20);
    let t = Instant::now();
    let _ = compositional_lookup(&empty, &config, 1);
    let cache = ns(t);
    let t = Instant::now();
    let _ = VerdictLadder::new(LadderMode::Full).evaluate(&config, &NoopRecorder);
    let ladder = ns(t);
    Replay {
        json,
        xmlio,
        ima,
        request,
        canon,
        cache,
        ladder,
    }
}

/// Checks every response and the achieved class mix.
fn check_records(plan: &Plan, records: &[Record], seed: u64, smoke: bool, outcome: &mut Outcome) {
    let mut by_key: HashMap<&str, &str> = HashMap::new();
    let mut matched: BTreeMap<Class, usize> = BTreeMap::new();
    for r in records {
        outcome.attempted += 1;
        let Some(reply) = &r.reply else {
            outcome.fail(format!(
                "{} request: status {} {}",
                r.class.label(),
                r.status,
                r.error.as_deref().unwrap_or("")
            ));
            continue;
        };
        match by_key.get(reply.key.as_str()) {
            None => {
                by_key.insert(&reply.key, &reply.masked);
            }
            Some(first) => outcome.check(*first == reply.masked, || {
                format!("key {}: {} then {}", reply.key, first, reply.masked)
            }),
        }
        let analysed = !reply.cached && reply.decided_by == "simulation";
        let as_planned = match r.class {
            Class::Cold | Class::Edit => analysed,
            Class::Warm => reply.cached,
            Class::Ladder => !reply.cached && reply.decided_by.starts_with("t0"),
            Class::Dup => analysed || reply.cached,
        };
        if as_planned {
            *matched.entry(r.class).or_default() += 1;
        }
    }
    // Exactly one of each duplicate pair simulates; the other follows.
    #[allow(clippy::cast_precision_loss)]
    let followers = records
        .iter()
        .filter(|r| r.class == Class::Dup && r.reply.as_ref().is_some_and(|x| x.cached))
        .count() as f64;
    #[allow(clippy::cast_precision_loss)]
    let dups = records.iter().filter(|r| r.class == Class::Dup).count() as f64;
    #[allow(clippy::cast_precision_loss)]
    let total = records.len().max(1) as f64;
    let mut summary = String::from("achieved mix:");
    for (class, target) in MIX {
        #[allow(clippy::cast_precision_loss)]
        let share = matched.get(&class).copied().unwrap_or(0) as f64 / total;
        #[allow(clippy::cast_precision_loss)]
        let target = target as f64 / 100.0;
        summary.push_str(&format!(" {}={:.1}%", class.label(), 100.0 * share));
        if !smoke && (share - target).abs() > 0.02 {
            outcome.fail(format!(
                "calibration guard: {} requests behaved as planned in {:.1}% of requests, target {:.0}% ± 2%",
                class.label(),
                100.0 * share,
                100.0 * target
            ));
        }
    }
    summary.push_str(&format!(
        "; {followers} of {dups} duplicates followed a leader"
    ));
    eprintln!("serve-mix: {summary}");
    outcome.check(followers * 2.0 == dups, || {
        format!(
            "{followers} of {dups} duplicate requests were answered by a follower, expected half"
        )
    });

    // A seeded 10% sample is re-checked against a direct analysis.
    let mut rng = Rng64::seed_from_u64(sub_seed(seed, 600));
    let mut direct: HashMap<usize, Option<(bool, u64, u64)>> = HashMap::new();
    for r in records {
        let Some(reply) = &r.reply else { continue };
        if rng.gen_range(10) != 0 {
            continue;
        }
        outcome.attempted += 1;
        let truth = *direct.entry(r.body).or_insert_with(|| {
            Analyzer::new(&plan.configs[r.body]).run().ok().map(|rep| {
                let missed = rep.analysis.missed_jobs().count() as u64;
                (rep.schedulable(), rep.analysis.jobs.len() as u64, missed)
            })
        });
        let ok = truth.is_some_and(|(schedulable, jobs, missed)| {
            reply.schedulable == schedulable
                && (reply.decided_by != "simulation"
                    || (reply.jobs == jobs && reply.missed_jobs == missed))
        });
        outcome.check(ok, || {
            format!(
                "body {}: served {} but direct analysis gives {truth:?}",
                r.body, reply.masked
            )
        });
    }
}

/// Requests per client in one session.
pub(crate) const PER_CLIENT: usize = 100;
const SMOKE_PER_CLIENT: usize = 20;

/// The session plan of one seed, with its digest.
pub(crate) fn inputs(seed: u64, smoke: bool) -> (Plan, u64) {
    let plan = if smoke {
        plan(seed, SMOKE_PER_CLIENT, [25, 75, 150])
    } else {
        plan(seed, PER_CLIENT, [500, 1500, 3000])
    };
    let mut digest_input = plan.bodies.concat();
    for c in &plan.clients {
        for p in c {
            digest_input.push_str(&format!("{}:{};", p.class.label(), p.body));
        }
    }
    let digest = fnv1a(digest_input.as_bytes());
    (plan, digest)
}

/// Runs the workload.
#[must_use]
pub fn run(args: &RunArgs) -> Outcome {
    let per_client = if args.smoke {
        SMOKE_PER_CLIENT
    } else {
        PER_CLIENT
    };
    let mut outcome = Outcome::default();
    let (plan, setup_s) = super::timed_setup(3, &mut outcome, || inputs(args.seed, args.smoke));

    let dir = crate::report::results_dir()
        .join("tmp")
        .join(format!("serve-{}", std::process::id()));
    let requests = 2 * per_client;
    // Sessions replay the plan until the budget is spent; each request
    // slot's latency is its median over the sessions.
    let phase = |budget: Duration, metrics: &mut ServerMetrics, outcome: &mut Outcome| {
        let start = Instant::now();
        let mut records: Vec<Record> = Vec::new();
        let mut rounds = Rounds::new(requests);
        while rounds.walls.is_empty() || start.elapsed() < budget {
            match session(&plan, &dir, metrics) {
                Ok((r, busy)) => {
                    for (i, rec) in r.iter().enumerate() {
                        rounds.per_op[i].push(rec.ms);
                    }
                    rounds.walls.push(busy);
                    records.extend(r);
                }
                Err(e) => {
                    outcome.fail(format!("session: {e}"));
                    break;
                }
            }
        }
        (records, rounds)
    };

    let untraced_budget = if args.trace {
        args.budget() / 2
    } else {
        args.budget()
    };
    let mut metrics = ServerMetrics::default();
    let (records, untraced) = phase(untraced_budget, &mut metrics, &mut outcome);
    check_records(&plan, &records, args.seed, args.smoke, &mut outcome);
    let slot_medians = untraced.op_medians();
    for (class, _) in MIX {
        let ms: Vec<f64> = plan
            .clients
            .iter()
            .flatten()
            .zip(&slot_medians)
            .filter(|(p, _)| p.class == class)
            .map(|(_, ms)| *ms)
            .collect();
        outcome.info.push(Metric::new(
            &format!("serve.{}.p50_ms", class.label()),
            stats::percentile(&ms, 50.0),
            "ms",
        ));
    }

    if args.trace {
        let tracer = Arc::new(Tracer::new());
        let mut traced_metrics = ServerMetrics::default();
        let (records, traced) = phase(args.budget() / 2, &mut traced_metrics, &mut outcome);
        check_records(&plan, &records, args.seed, args.smoke, &mut outcome);
        let values = trace_requests(&plan, &records, &traced_metrics, &tracer);
        write_trace(args, &tracer, &mut outcome);
        outcome.metrics = per_layer(args.workload, &tracer, values, &untraced, &traced);
    } else {
        outcome.metrics = end_to_end(args.workload, setup_s, &slot_medians, &untraced);
    }
    outcome
}

/// Lays each traced request out as client-side spans and splits the
/// server's share of it across layers: the request-side layers by their
/// offline replay cost for the same body, the analysis by its reported
/// `check_ms` in the proportions of the server's own phase spans.
fn trace_requests(
    plan: &Plan,
    records: &[Record],
    server: &ServerMetrics,
    tracer: &Tracer,
) -> BTreeMap<&'static str, f64> {
    let mut replays: HashMap<usize, Replay> = HashMap::new();
    for r in records {
        replays
            .entry(r.body)
            .or_insert_with(|| replay(&plan.bodies[r.body]));
    }
    let leader_check_ms: f64 = records
        .iter()
        .filter_map(|r| r.reply.as_ref())
        .filter(|x| !x.cached && x.decided_by == "simulation")
        .map(|x| x.check_ms)
        .sum();
    let phases: Vec<(&'static str, f64)> = [
        ("instance", "build"),
        ("bytecode", "compile"),
        ("fastsim", "simulate"),
        ("analysis", "analyze"),
    ]
    .into_iter()
    .map(|(layer, span)| (layer, server.span(span).0 * 1e3))
    .collect();
    let phase_ms: f64 = phases.iter().map(|(_, ms)| ms).sum();
    let denom = leader_check_ms.max(phase_ms).max(f64::MIN_POSITIVE);

    let (mut xmlio_ns, mut ima_ns) = (0.0, 0.0);
    for (i, r) in records.iter().enumerate() {
        let root = tracer.record(
            Context {
                request: i as u64 + 1,
                parent: 0,
            },
            "suite",
            r.phases[0].0,
            r.phases[3].1,
        );
        let ctx = Context {
            request: i as u64 + 1,
            parent: root,
        };
        let mut wait = 0;
        for (k, (a, b)) in r.phases.iter().enumerate() {
            let id = tracer.record(ctx, "serve", *a, *b);
            if k == 2 {
                wait = id;
            }
        }
        let rp = replays[&r.body];
        let leader = r.reply.as_ref().is_some_and(|x| !x.cached);
        let ns = Duration::from_secs_f64;
        for (layer, v) in [
            ("json", rp.json),
            ("xmlio", rp.xmlio),
            ("ima", rp.ima),
            ("request", rp.request),
            ("canon", rp.canon),
            ("cache", rp.cache),
        ] {
            tracer.aggregate_under(wait, layer, ns(v / 1e9));
        }
        xmlio_ns += rp.xmlio;
        ima_ns += rp.ima;
        if leader {
            tracer.aggregate_under(wait, "ladder", ns(rp.ladder / 1e9));
        }
        if let Some(x) = r
            .reply
            .as_ref()
            .filter(|x| !x.cached && x.decided_by == "simulation")
        {
            for (layer, ms) in &phases {
                tracer.aggregate_under(wait, layer, ns(x.check_ms * ms / denom / 1e3));
            }
            tracer.aggregate_under(
                wait,
                "analyzer",
                ns(x.check_ms * (1.0 - phase_ms / denom) / 1e3),
            );
        }
    }

    let c = |name: &str| server.counter(name);
    let mean_ms = |span: &str| {
        let (s, n) = server.span(span);
        rate(s * 1e3, n)
    };
    #[allow(clippy::cast_precision_loss)]
    let n = records.len().max(1) as f64;
    #[allow(clippy::cast_precision_loss)]
    let followers = records
        .iter()
        .filter(|r| r.class == Class::Dup && r.reply.as_ref().is_some_and(|x| x.cached))
        .count() as f64;
    [
        ("xmlio.parse_ms", xmlio_ns / n / 1e6),
        ("ima.validate_ms", ima_ns / n / 1e6),
        ("instance.build_ms", mean_ms("build")),
        ("bytecode.compile_ms", mean_ms("compile")),
        ("fastsim.run_ms", mean_ms("simulate")),
        ("analysis.extract_ms", mean_ms("analyze")),
        ("fastsim.steps", c("sim.steps")),
        (
            "fastsim.steps_per_s",
            rate(c("sim.steps"), server.span("simulate").0),
        ),
        ("fastsim.wheel_wakeups", c("sim.wheel_wakeups")),
        (
            "bytecode.ops",
            rate(c("compile.ops"), server.span("compile").1),
        ),
        ("cache.lookups", c("cache.hits") + c("cache.misses")),
        (
            "cache.hit_rate",
            rate(c("cache.hits"), c("cache.hits") + c("cache.misses")),
        ),
        ("cache.bytes", server.cache_bytes),
        ("compose.modules", c("compose.modules")),
        ("ladder.evaluated", c("ladder.evaluated")),
        (
            "ladder.decide_rate",
            rate(c("ladder.decided"), c("ladder.evaluated")),
        ),
        ("ladder.t0", c("ladder.t0_unschedulable")),
        ("ladder.t1", c("ladder.t1_schedulable")),
        ("ladder.t2", c("ladder.t2_schedulable")),
        (
            "checkpoint.lookups",
            c("checkpoint.hits") + c("checkpoint.misses"),
        ),
        (
            "checkpoint.hit_rate",
            rate(
                c("checkpoint.hits"),
                c("checkpoint.hits") + c("checkpoint.misses"),
            ),
        ),
        ("checkpoint.full_hits", c("checkpoint.full_hits")),
        ("checkpoint.bytes", server.checkpoint_bytes),
        ("storage.bytes_appended", c("storage.bytes_appended")),
        ("storage.disk_hits", c("storage.disk_hits")),
        ("storage.errors", c("storage.errors")),
        ("serve.analyses", c("serve.analyses")),
        ("serve.ladder_decided", c("serve.ladder_decided")),
        ("serve.followers", followers),
        ("serve.shed", c("serve.shed")),
        ("serve.rejected", c("serve.rejected")),
    ]
    .into_iter()
    .collect()
}
