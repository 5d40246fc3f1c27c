//! # swa-cli — the `swa` command-line tool
//!
//! The operational face of the toolchain: read an XML configuration (the
//! paper's Sect. 4 interface), analyze/verify/model-check/search it, and
//! report. Every command is a library function returning its output and
//! exit code, so the whole CLI is unit-testable without spawning
//! processes.
//!
//! ```console
//! swa analyze  config.xml [--trace out.xml]   # schedulability verdict
//! swa validate config.xml                     # structural validation
//! swa verify   config.xml [--exhaustive]      # observer verification
//! swa mc       config.xml [--max-states N]    # model-checking baseline
//! swa search   config.xml [--out found.xml]   # configuration search
//! swa dot      config.xml [--automaton NAME]  # Graphviz export
//! ```
//!
//! Exit codes: `0` success/schedulable, `2` analyzable but negative verdict
//! (unschedulable, violations found, nothing found), `1` usage or input
//! error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

use swa_core::{Analyzer, CheckpointStore, SystemModel, Verdict, VerdictCache};
use swa_ima::Configuration;
use swa_ima::Topology;
use swa_schedtool::{search_with, DesignProblem, SearchOptions};
use swa_xmlio::{
    configuration_from_xml, configuration_to_xml, configuration_with_topology_from_xml,
    trace_to_xml,
};

/// The result of running one CLI command: the process exit code, the text
/// for stdout, and optional files to write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandOutcome {
    /// Process exit code (`0` ok, `2` negative verdict, `1` error).
    pub exit_code: i32,
    /// Text to print to stdout.
    pub stdout: String,
    /// Files to write: `(path, contents)`.
    pub files: Vec<(String, String)>,
}

impl CommandOutcome {
    fn ok(stdout: String) -> Self {
        Self {
            exit_code: 0,
            stdout,
            files: Vec::new(),
        }
    }

    fn verdict(positive: bool, stdout: String) -> Self {
        Self {
            exit_code: if positive { 0 } else { 2 },
            stdout,
            files: Vec::new(),
        }
    }

    fn error(message: impl Into<String>) -> Self {
        Self {
            exit_code: 1,
            stdout: message.into(),
            files: Vec::new(),
        }
    }
}

/// Usage text.
pub const USAGE: &str = "\
swa — stopwatch-automata schedulability analysis for modular computer systems

USAGE:
    swa <command> <config.xml> [options]

COMMANDS:
    analyze     run the model and report the schedulability verdict
                  --trace <file>      also write the system trace as XML
                  --gantt             print an ASCII Gantt chart
                  --explain           if interpretation fails, print a
                                      structured diagnosis of the stuck
                                      state (blocked edges, failing guard
                                      atoms, frozen clocks)
                  --metrics-out <file>  write phase timings and step
                                      counters as JSON
                  --compositional     analyze decomposable configurations
                                      per module and compose the verdicts
                                      (identical verdict; falls back when
                                      modules share messages)
    validate    structural validation + dispatch-tie warnings
    verify      observer verification (Fig. 2 + Sect. 3 requirements)
                  --exhaustive        also model-check all interleavings
                  --max-states <n>    state cap for --exhaustive (default 1000000)
                  --metrics-out <file>  write verification metrics as JSON
    mc          schedulability by exhaustive model checking (the baseline)
                  --max-states <n>    state cap (default 10000000)
    sweep       parametric sensitivity: binary-search the breakdown factor
                (largest scale that stays schedulable) with certified
                bracketing bounds, via the same Analyzer/cache stack
                  --axis <spec>       wcet (default), period, offset, or
                                      wcet:<partition>/<task>
                  --tolerance <t>     certified bracket width (default 0.01)
                  --max-probes <n>    hard probe budget (default 64)
                  --samples <n>       presample the factor range first
                                      (exposes non-monotone islands)
                  --chains            gate each probe on end-to-end chain
                                      latency over the data-flow chains
                  --chain-bound <n>   worst-latency bound for --chains
                  --per-task          also compute per-task WCET slack
                  --json              print the canonical single-line JSON
                                      report (byte-equal to POST /sweep's
                                      final line) instead of the table
                  --hyperperiods <n>  analysis span per probe (default 1)
                  --compositional     per-module probe analysis and caching
                  --ladder <mode>     analytic probe pre-filter: off
                                      (default), fast (T0 utilization +
                                      T1 window RTA), or full (+ T2 RTC
                                      curve check); sound, so the
                                      certified breakdown is unchanged
                  --cache-bytes <n>   verdict-cache budget shared by all
                                      probes (default 16 MiB; 0 = off)
                  --checkpoint-bytes <n>  warm-start probe simulations
                                      (default 16 MiB; 0 = off)
                  --metrics-out <file>  write the sweep.* reuse counters
                                      and phase timings as JSON
    search      treat the file as a design problem (binding and windows are
                recomputed) and search for a schedulable configuration
                  --out <file>        write the found configuration as XML
                  --max-iterations <n>  search budget (default 20)
                  --parallel <n>      worker threads for candidate checks
                                      (default 0 = one per core; any value
                                      finds the same configuration)
                  --speculation <n>   candidates proposed per round (default 4)
                  --cache-bytes <n>   reuse a content-addressed verdict cache
                                      across candidates (0 = off; stats are
                                      printed at the end)
                  --checkpoint-bytes <n>  warm-start repeated candidate
                                      simulations from checkpoints (0 = off;
                                      stats are printed at the end)
                  --compositional     cache and warm-start per module, so a
                                      candidate that edits one partition
                                      reuses every unchanged module's entry
                  --ladder <mode>     analytic candidate pre-filter: off
                                      (default), fast, or full; decided
                                      candidates skip simulation and the
                                      found configuration is unchanged
                  --state-dir <dir>   durable verdict/checkpoint storage:
                                      verdicts survive across runs on disk
    serve       run the analysis server (no <config.xml>; blocks until a
                POST /shutdown arrives)
                  --addr <host:port>  bind address (default 127.0.0.1:7341;
                                      port 0 picks an ephemeral port)
                  --workers <n>       analysis worker threads (default: cores)
                  --queue <n>         bounded request queue depth (default 64)
                  --cache-bytes <n>   verdict-cache byte budget (default 16 MiB)
                  --checkpoint-bytes <n>  checkpoint-store byte budget for
                                      warm-starting longer-horizon repeats
                                      (default 16 MiB; 0 = off)
                  --state-dir <dir>   durable tiered storage: verdicts and
                                      checkpoints persist across restarts
                  --io-timeout-ms <n> per-connection socket read/write
                                      timeout (default 5000; 0 = none)
                  --shed <n>          max in-flight requests before shedding
                                      with 429 (default: pool capacity × 4)
                  --addr-file <file>  write the bound address to a file
                                      (resolves port 0 for scripts)
                  --compositional     per-module verdict caching: an edited
                                      request reuses unchanged modules
                  --ladder <mode>     analytic admission pre-filter (off,
                                      fast, full): decided requests are
                                      answered without a worker; responses
                                      carry their deciding tier in
                                      \"decided_by\"
                  --route <a,b,…>     router mode: no local analysis —
                                      consistent-hash requests across the
                                      listed backends with retry, failover,
                                      and per-backend circuit breakers
                  --retries <n>       router mode: attempts per request
                                      (default 3, including the first)
    request     talk to a running server (no local analysis)
                  swa request <addr> <config.xml> [--hyperperiods <n>]
                      [--deadline-ms <n>] [--explain] [--no-cache]
                  swa request <addr> <config.xml> --sweep [--axis <spec>]
                      [--tolerance <t>] [--max-probes <n>] [--samples <n>]
                      [--chains] [--chain-bound <n>] [--per-task]
                      [--deadline-ms <n>]
                    streams POST /sweep: one JSON line per refinement
                    step; the final line is the canonical report
                  swa request <addr> --health | --metrics | --shutdown
                <addr> may be a comma-separated list: analyses are routed
                client-side by consistent hash with failover; control
                commands are fanned out to every listed server
    dot         export Graphviz DOT
                  --automaton <name>  one automaton instead of the network
    uppaal      export the NSA instance as UPPAAL 4.x XML

EXIT CODES:
    0  success / positive verdict
    2  negative verdict (unschedulable, violations, nothing found)
    1  usage or input error
";

/// Parses and runs a full argument vector (excluding the program name),
/// reading the configuration file from disk.
///
/// This is the `main` entry point; tests prefer [`run_on`] with an
/// in-memory configuration.
#[must_use]
pub fn run(args: &[String]) -> CommandOutcome {
    let Some(command) = args.first() else {
        return CommandOutcome::error(USAGE);
    };
    if command == "help" || command == "--help" || command == "-h" {
        return CommandOutcome::ok(USAGE.to_string());
    }
    // Server-mode commands take no <config.xml> positional.
    if command == "serve" {
        return cmd_serve(&args[1..]);
    }
    if command == "request" {
        return cmd_request(&args[1..]);
    }
    let Some(path) = args.get(1) else {
        return CommandOutcome::error(format!("missing <config.xml> argument\n\n{USAGE}"));
    };
    let xml = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => return CommandOutcome::error(format!("cannot read {path}: {e}")),
    };
    let (config, topology) = match configuration_with_topology_from_xml(&xml) {
        Ok(c) => c,
        Err(e) => return CommandOutcome::error(format!("cannot parse {path}: {e}")),
    };
    run_with_topology(command, &config, topology.as_ref(), &args[2..])
}

/// Runs one command against an already-loaded configuration.
#[must_use]
pub fn run_on(command: &str, config: &Configuration, options: &[String]) -> CommandOutcome {
    run_with_topology(command, config, None, options)
}

/// Runs one command with an optional switched-network topology (affects
/// commands that build the model).
#[must_use]
pub fn run_with_topology(
    command: &str,
    config: &Configuration,
    topology: Option<&Topology>,
    options: &[String],
) -> CommandOutcome {
    match command {
        "analyze" => cmd_analyze(config, topology, options),
        "validate" => cmd_validate(config),
        "verify" => cmd_verify(config, topology, options),
        "mc" => cmd_mc(config, topology, options),
        "search" => cmd_search(config, options),
        "sweep" => cmd_sweep(config, options),
        "dot" => cmd_dot(config, topology, options),
        "uppaal" => cmd_uppaal(config, topology),
        other => CommandOutcome::error(format!("unknown command {other:?}\n\n{USAGE}")),
    }
}

fn build_model(
    config: &Configuration,
    topology: Option<&Topology>,
) -> Result<SystemModel, swa_core::ModelError> {
    SystemModel::build_with_topology(config, topology)
}

fn flag_value<'a>(options: &'a [String], name: &str) -> Option<&'a str> {
    options
        .iter()
        .position(|o| o == name)
        .and_then(|i| options.get(i + 1))
        .map(String::as_str)
}

fn has_flag(options: &[String], name: &str) -> bool {
    options.iter().any(|o| o == name)
}

fn parse_usize(options: &[String], name: &str, default: usize) -> Result<usize, String> {
    match flag_value(options, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name} expects an integer, got {v:?}")),
    }
}

fn parse_ladder(options: &[String]) -> Result<swa_core::LadderMode, String> {
    match flag_value(options, "--ladder") {
        None => Ok(swa_core::LadderMode::Off),
        Some(v) => v.parse().map_err(|e| format!("--ladder: {e}")),
    }
}

/// The storage flags `search`, `sweep` and `serve` share, parsed in one
/// place; each command passes its own byte-budget defaults. `sweep` has
/// no `--state-dir` and ignores it.
struct StoreFlags<'a> {
    cache_bytes: usize,
    checkpoint_bytes: usize,
    state_dir: Option<&'a str>,
}

fn parse_store_flags(
    options: &[String],
    cache_bytes: usize,
    checkpoint_bytes: usize,
) -> Result<StoreFlags<'_>, String> {
    Ok(StoreFlags {
        cache_bytes: parse_usize(options, "--cache-bytes", cache_bytes)?,
        checkpoint_bytes: parse_usize(options, "--checkpoint-bytes", checkpoint_bytes)?,
        state_dir: flag_value(options, "--state-dir"),
    })
}

fn cmd_analyze(
    config: &Configuration,
    topology: Option<&Topology>,
    options: &[String],
) -> CommandOutcome {
    let metrics_out = flag_value(options, "--metrics-out");
    let recorder = metrics_out.map(|_| std::sync::Arc::new(swa_core::MetricsRecorder::new()));
    let mut analyzer = Analyzer::new(config)
        .topology_opt(topology)
        .explain(has_flag(options, "--explain"))
        .compositional(has_flag(options, "--compositional"));
    if let Some(r) = &recorder {
        analyzer = analyzer.recorder(r.clone());
    }
    let report = match analyzer.run() {
        Ok(r) => r,
        // A Diagnosed error's Display already carries the rendered
        // forensic report, so --explain needs no extra handling here.
        Err(e) => return CommandOutcome::error(format!("analysis failed: {e}")),
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "configuration: {} partitions, {} tasks, {} messages, {} jobs over L = {}",
        config.partitions.len(),
        config.tasks().count(),
        config.messages.len(),
        report.analysis.jobs.len(),
        report.analysis.hyperperiod
    );
    let _ = writeln!(
        out,
        "model: built in {:?}, compiled in {:?} ({} programs, {} ops), interpreted in {:?} ({} events)",
        report.metrics.build,
        report.metrics.compile.time,
        report.metrics.compile.programs,
        report.metrics.compile.ops,
        report.metrics.simulate,
        report.metrics.nsa_events
    );
    out.push('\n');
    out.push_str(&report.analysis.summary());
    if has_flag(options, "--gantt") {
        out.push('\n');
        out.push_str(&swa_core::render_gantt(config, &report.analysis, 100));
    }

    let mut outcome = CommandOutcome::verdict(report.schedulable(), out);
    if let Some(trace_path) = flag_value(options, "--trace") {
        outcome
            .files
            .push((trace_path.to_string(), trace_to_xml(&report.trace)));
    }
    if let (Some(path), Some(r)) = (metrics_out, &recorder) {
        outcome.files.push((path.to_string(), r.to_json()));
    }
    outcome
}

fn cmd_validate(config: &Configuration) -> CommandOutcome {
    match config.validate() {
        Ok(()) => {
            let mut out = String::from("configuration is structurally valid\n");
            let warnings = config.dispatch_tie_warnings();
            if warnings.is_empty() {
                out.push_str("dispatch is tie-free: analyses are interleaving-independent\n");
            } else {
                for w in &warnings {
                    let _ = writeln!(out, "warning: {w}");
                }
            }
            // Per-core utilization with the Liu & Layland sufficient bound
            // as a first sanity indicator (the model gives the exact
            // verdict; this is the quick analytical glance).
            out.push('\n');
            out.push_str("core utilization (Liu & Layland RM bound in parentheses):\n");
            for (core, _) in config.cores() {
                let partitions: Vec<_> = config.partitions_on(core).collect();
                if partitions.is_empty() {
                    continue;
                }
                let tasks: usize = partitions
                    .iter()
                    .filter_map(|&p| config.partition(p))
                    .map(|p| p.tasks.len())
                    .sum();
                let u = config.core_utilization(core);
                let bound = swa_rta::liu_layland_bound(tasks);
                let _ = writeln!(
                    out,
                    "  {core}: {u:.3} over {tasks} tasks (bound {bound:.3}{})",
                    if u <= bound {
                        " — within the sufficient bound"
                    } else {
                        " — exceeds the bound; rely on the exact analysis"
                    }
                );
            }
            CommandOutcome::ok(out)
        }
        Err(errors) => {
            let mut out = format!("configuration is invalid ({} problems):\n", errors.len());
            for e in &errors {
                let _ = writeln!(out, "  - {e}");
            }
            CommandOutcome {
                exit_code: 2,
                stdout: out,
                files: Vec::new(),
            }
        }
    }
}

fn cmd_verify(
    config: &Configuration,
    topology: Option<&Topology>,
    options: &[String],
) -> CommandOutcome {
    let model = match build_model(config, topology) {
        Ok(m) => m,
        Err(e) => return CommandOutcome::error(format!("model construction failed: {e}")),
    };
    let metrics_out = flag_value(options, "--metrics-out");
    let recorder = metrics_out.map(|_| swa_core::MetricsRecorder::new());
    let mut out = String::new();
    let sim = match match &recorder {
        Some(r) => swa_mc::verify_by_simulation_recorded(&model, config, r),
        None => swa_mc::verify_by_simulation(&model, config),
    } {
        Ok(r) => r,
        Err(e) => return CommandOutcome::error(format!("verification failed: {e}")),
    };
    let _ = writeln!(
        out,
        "runtime monitoring: {} ({} observers)",
        if sim.ok() {
            "no violations"
        } else {
            "VIOLATIONS"
        },
        sim.observers
    );
    let mut all_ok = sim.ok();
    for v in &sim.violations {
        let _ = writeln!(out, "  !! {v}");
    }
    if has_flag(options, "--exhaustive") {
        let max_states = match parse_usize(options, "--max-states", 1_000_000) {
            Ok(v) => v,
            Err(e) => return CommandOutcome::error(e),
        };
        let mc = match swa_mc::verify_by_model_checking(&model, config, max_states) {
            Ok(r) => r,
            Err(e) => return CommandOutcome::error(format!("model checking failed: {e}")),
        };
        let _ = writeln!(
            out,
            "model checking: {} ({} product states)",
            if mc.ok() {
                "bad locations unreachable"
            } else {
                "VIOLATIONS"
            },
            mc.states
        );
        for v in &mc.violations {
            let _ = writeln!(out, "  !! {v}");
        }
        all_ok &= mc.ok();
    }
    let mut outcome = CommandOutcome::verdict(all_ok, out);
    if let (Some(path), Some(r)) = (metrics_out, &recorder) {
        outcome.files.push((path.to_string(), r.to_json()));
    }
    outcome
}

fn cmd_mc(
    config: &Configuration,
    topology: Option<&Topology>,
    options: &[String],
) -> CommandOutcome {
    let max_states = match parse_usize(options, "--max-states", 10_000_000) {
        Ok(v) => v,
        Err(e) => return CommandOutcome::error(e),
    };
    let model = match build_model(config, topology) {
        Ok(m) => m,
        Err(e) => return CommandOutcome::error(format!("model construction failed: {e}")),
    };
    let verdict = match swa_mc::check_schedulable_mc_capped(&model, max_states) {
        Ok(v) => v,
        Err(e) => return CommandOutcome::error(format!("model checking failed: {e}")),
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "model checking explored {} states, {} transitions{}",
        verdict.states,
        verdict.transitions,
        if verdict.truncated {
            " (TRUNCATED by the state cap — verdict is only sound if negative)"
        } else {
            ""
        }
    );
    // A truncated positive explored only part of the state space, so the
    // typed verdict is Undecided; a truncated *negative* found a concrete
    // violation and stands.
    let typed = if verdict.schedulable && verdict.truncated {
        Verdict::Undecided
    } else if verdict.schedulable {
        Verdict::Schedulable
    } else {
        Verdict::unschedulable(0, Vec::new())
    };
    let _ = writeln!(out, "verdict: {typed}");
    let _ = writeln!(out, "schedulable: {}", verdict.schedulable);
    CommandOutcome::verdict(verdict.schedulable, out)
}

fn cmd_search(config: &Configuration, options: &[String]) -> CommandOutcome {
    let max_iterations = match parse_usize(options, "--max-iterations", 20) {
        Ok(v) => v,
        Err(e) => return CommandOutcome::error(e),
    };
    let parallelism = match parse_usize(options, "--parallel", 0) {
        Ok(v) => v,
        Err(e) => return CommandOutcome::error(e),
    };
    let speculation = match parse_usize(options, "--speculation", 4) {
        Ok(v) => v,
        Err(e) => return CommandOutcome::error(e),
    };
    let ladder = match parse_ladder(options) {
        Ok(v) => v,
        Err(e) => return CommandOutcome::error(e),
    };
    let StoreFlags {
        cache_bytes,
        checkpoint_bytes,
        state_dir,
    } = match parse_store_flags(options, 0, 0) {
        Ok(v) => v,
        Err(e) => return CommandOutcome::error(e),
    };
    // `--state-dir` gives the stores a disk tier, so verdicts (and
    // checkpoints) survive across search invocations.
    let (cache, checkpoints) = if let Some(dir) = state_dir {
        let budget = if cache_bytes > 0 { cache_bytes } else { 16 << 20 };
        match swa_core::open_state_dir(dir, budget, checkpoint_bytes, None) {
            Ok((verdicts, checkpoints)) => (Some(verdicts), checkpoints),
            Err(e) => {
                return CommandOutcome::error(format!("cannot open --state-dir {dir}: {e}"))
            }
        }
    } else {
        (
            (cache_bytes > 0)
                .then(|| std::sync::Arc::new(swa_core::ShardedVerdictCache::new(cache_bytes))),
            (checkpoint_bytes > 0).then(|| {
                std::sync::Arc::new(swa_core::ShardedCheckpointStore::new(checkpoint_bytes))
            }),
        )
    };
    let mut analyzer = Analyzer::configure()
        .compositional(has_flag(options, "--compositional"));
    if let Some(c) = &cache {
        analyzer = analyzer.cache(c.clone());
    }
    if let Some(s) = &checkpoints {
        analyzer = analyzer.checkpoints(s.clone());
    }
    // The ladder's `ladder.*` counters need a sink to land in; attach
    // one only when pre-filtering is on (the default path stays
    // recorder-free).
    let ladder_recorder = (ladder != swa_core::LadderMode::Off)
        .then(|| std::sync::Arc::new(swa_core::MetricsRecorder::new()));
    if let Some(r) = &ladder_recorder {
        analyzer = analyzer.recorder(r.clone());
    }
    let problem = DesignProblem::from_configuration(config);
    let outcome = match search_with(
        &problem,
        &SearchOptions {
            max_iterations,
            parallelism,
            speculation,
            ladder,
            ..SearchOptions::default()
        },
        &analyzer,
    ) {
        Ok(o) => o,
        Err(e) => return CommandOutcome::error(format!("search failed: {e}")),
    };
    let mut out = String::new();
    for it in &outcome.iterations {
        let _ = writeln!(
            out,
            "iteration {}: verdict={} missed_jobs={} check={:?}",
            it.index,
            it.verdict.label(),
            it.missed_jobs,
            it.check_time
        );
    }
    if let Some(r) = &ladder_recorder {
        let _ = writeln!(
            out,
            "ladder ({ladder}): {} evaluated, {} decided (t0={} t1={} t2={}), {} forwarded to simulation",
            r.counter_value("ladder.evaluated"),
            r.counter_value("ladder.decided"),
            r.counter_value("ladder.t0_unschedulable"),
            r.counter_value("ladder.t1_schedulable"),
            r.counter_value("ladder.t2_schedulable"),
            r.counter_value("ladder.undecided"),
        );
    }
    if let Some(cache) = &cache {
        let s = cache.stats();
        let _ = writeln!(
            out,
            "verdict cache: {} hits / {} lookups ({:.1}% hit rate), {} insertions, {} evictions",
            s.hits,
            s.hits + s.misses,
            s.hit_rate() * 100.0,
            s.insertions,
            s.evictions
        );
    }
    if let Some(store) = &checkpoints {
        let s = store.stats();
        let _ = writeln!(
            out,
            "checkpoints: {} hits ({} full) / {} lookups ({:.1}% hit rate), {} insertions, {} evictions",
            s.hits,
            s.full_hits,
            s.hits + s.misses,
            s.hit_rate() * 100.0,
            s.insertions,
            s.evictions
        );
    }
    match outcome.configuration {
        Some(found) => {
            let _ = writeln!(
                out,
                "schedulable configuration found after {} iteration(s)",
                outcome.iterations.len()
            );
            let xml = configuration_to_xml(&found);
            let mut result = CommandOutcome::ok(out);
            if let Some(path) = flag_value(options, "--out") {
                result.files.push((path.to_string(), xml));
            } else {
                result.stdout.push('\n');
                result.stdout.push_str(&xml);
            }
            result
        }
        None => {
            let _ = writeln!(out, "no schedulable configuration found");
            CommandOutcome {
                exit_code: 2,
                stdout: out,
                files: Vec::new(),
            }
        }
    }
}

fn cmd_sweep(config: &Configuration, options: &[String]) -> CommandOutcome {
    use swa_sweep::{run_sweep, Axis, SweepEngine, SweepOptions};
    let mut sweep_options = SweepOptions::default();
    if let Some(v) = flag_value(options, "--tolerance") {
        match v.parse::<f64>() {
            Ok(t) if t.is_finite() && t > 0.0 => sweep_options.search.tolerance = t,
            _ => {
                return CommandOutcome::error(format!(
                    "--tolerance expects a positive number, got {v:?}"
                ))
            }
        }
    }
    match parse_usize(options, "--max-probes", sweep_options.search.max_probes) {
        Ok(v) => sweep_options.search.max_probes = v,
        Err(e) => return CommandOutcome::error(e),
    }
    match parse_usize(options, "--samples", sweep_options.search.presamples) {
        Ok(v) => sweep_options.search.presamples = v,
        Err(e) => return CommandOutcome::error(e),
    }
    match parse_usize(options, "--hyperperiods", 1) {
        Ok(v) => match u32::try_from(v) {
            Ok(v) => sweep_options.hyperperiods = v,
            Err(_) => return CommandOutcome::error("--hyperperiods out of range".to_string()),
        },
        Err(e) => return CommandOutcome::error(e),
    }
    sweep_options.chains = has_flag(options, "--chains");
    if let Some(v) = flag_value(options, "--chain-bound") {
        match v.parse::<i64>() {
            Ok(bound) if bound >= 0 => {
                sweep_options.chains = true;
                sweep_options.chain_bound = Some(bound);
            }
            _ => {
                return CommandOutcome::error(format!(
                    "--chain-bound expects a non-negative integer, got {v:?}"
                ))
            }
        }
    }
    sweep_options.compositional = has_flag(options, "--compositional");
    sweep_options.ladder = match parse_ladder(options) {
        Ok(v) => v,
        Err(e) => return CommandOutcome::error(e),
    };
    let axis = match Axis::parse(flag_value(options, "--axis").unwrap_or("wcet"), config) {
        Ok(axis) => axis,
        Err(e) => return CommandOutcome::error(format!("--axis: {e}")),
    };
    let StoreFlags {
        cache_bytes,
        checkpoint_bytes,
        ..
    } = match parse_store_flags(options, 16 << 20, 16 << 20) {
        Ok(v) => v,
        Err(e) => return CommandOutcome::error(e),
    };

    let recorder = std::sync::Arc::new(swa_core::MetricsRecorder::new());
    let mut engine = match SweepEngine::new(config.clone(), sweep_options) {
        Ok(engine) => engine,
        Err(e) => return CommandOutcome::error(format!("sweep failed: {e}")),
    };
    engine = engine.recorder(recorder.clone());
    if cache_bytes > 0 {
        engine = engine.cache(std::sync::Arc::new(swa_core::ShardedVerdictCache::new(
            cache_bytes,
        )));
    }
    if checkpoint_bytes > 0 {
        engine = engine.checkpoints(std::sync::Arc::new(
            swa_core::ShardedCheckpointStore::new(checkpoint_bytes),
        ));
    }
    let report = match run_sweep(
        &mut engine,
        axis,
        has_flag(options, "--per-task"),
        |_| {},
        || false,
    ) {
        Ok(report) => report,
        Err(e) => return CommandOutcome::error(format!("sweep failed: {e}")),
    };

    let out = if has_flag(options, "--json") {
        // The canonical single-line report — byte-equal to the final line
        // of a `POST /sweep` stream for the same request. Timings and
        // counters deliberately live in --metrics-out, not here.
        let mut line = report.render_json();
        line.push('\n');
        line
    } else {
        let mut table = report.render_table();
        let probes = recorder.counter_value("sweep.probes");
        let simulated = recorder.counter_value("sweep.simulated");
        #[allow(clippy::cast_precision_loss)]
        let reuse_rate = if probes > 0 {
            (probes - simulated) as f64 / probes as f64
        } else {
            0.0
        };
        let _ = writeln!(
            table,
            "\nreuse: {probes} probes, {simulated} simulated, {} cache hits, {} memo hits, {} ladder hits ({:.1}% reused)",
            recorder.counter_value("sweep.cache_hits"),
            recorder.counter_value("sweep.memo_hits"),
            recorder.counter_value("sweep.ladder_hits"),
            reuse_rate * 100.0,
        );
        table
    };
    let mut outcome = CommandOutcome::verdict(report.breakdown.breakdown().is_some(), out);
    if let Some(path) = flag_value(options, "--metrics-out") {
        outcome.files.push((path.to_string(), recorder.to_json()));
    }
    outcome
}

fn cmd_serve(options: &[String]) -> CommandOutcome {
    // Router mode: `--route a,b,c` turns this process into a
    // consistent-hash forwarder over existing backends — no local
    // analysis, no cache.
    if let Some(backends) = flag_value(options, "--route") {
        return cmd_route(options, backends);
    }
    let mut serve_options = swa_serve::ServeOptions {
        addr: flag_value(options, "--addr")
            .unwrap_or("127.0.0.1:7341")
            .to_string(),
        ..swa_serve::ServeOptions::default()
    };
    match parse_usize(options, "--workers", 0) {
        Ok(0) => {}
        Ok(v) => serve_options.workers = v,
        Err(e) => return CommandOutcome::error(e),
    }
    match parse_usize(options, "--queue", serve_options.queue_depth) {
        Ok(v) => serve_options.queue_depth = v,
        Err(e) => return CommandOutcome::error(e),
    }
    let stores = match parse_store_flags(
        options,
        serve_options.cache_bytes,
        serve_options.checkpoint_bytes,
    ) {
        Ok(v) => v,
        Err(e) => return CommandOutcome::error(e),
    };
    serve_options.cache_bytes = stores.cache_bytes;
    serve_options.checkpoint_bytes = stores.checkpoint_bytes;
    if let Some(dir) = stores.state_dir {
        serve_options.state_dir = Some(std::path::PathBuf::from(dir));
    }
    serve_options.compositional = has_flag(options, "--compositional");
    match parse_usize(options, "--io-timeout-ms", 5000) {
        Ok(ms) => serve_options.io_timeout = std::time::Duration::from_millis(ms as u64),
        Err(e) => return CommandOutcome::error(e),
    }
    match parse_usize(options, "--shed", serve_options.shed_inflight) {
        Ok(v) => serve_options.shed_inflight = v,
        Err(e) => return CommandOutcome::error(e),
    }
    serve_options.ladder = match parse_ladder(options) {
        Ok(v) => v,
        Err(e) => return CommandOutcome::error(e),
    };

    let server = match swa_serve::Server::start(&serve_options) {
        Ok(s) => s,
        Err(e) => {
            return CommandOutcome::error(format!(
                "cannot start server on {}: {e}",
                serve_options.addr
            ))
        }
    };
    let local = server.local_addr();
    // The address file must exist while the server runs (scripts poll it
    // to learn an ephemeral port), so it is written eagerly rather than
    // returned in `files`.
    if let Some(path) = flag_value(options, "--addr-file") {
        if let Err(e) = std::fs::write(path, local.to_string()) {
            server.shutdown();
            return CommandOutcome::error(format!("cannot write {path}: {e}"));
        }
    }

    let recorder = server.recorder();
    // Blocks until a client POSTs /shutdown; the handle drains in-flight
    // work before returning.
    server.join();

    let mut out = format!("served on {local} until shutdown\n");
    let _ = writeln!(
        out,
        "requests={} analyses={} rejected={} deadline_expired={} errors={}",
        recorder.counter_value("serve.requests"),
        recorder.counter_value("serve.analyses"),
        recorder.counter_value("serve.rejected"),
        recorder.counter_value("serve.deadline_expired"),
        recorder.counter_value("serve.errors"),
    );
    if serve_options.ladder != swa_core::LadderMode::Off {
        let _ = writeln!(
            out,
            "ladder ({}): decided={} (t0={} t1={} t2={}) undecided={}",
            serve_options.ladder,
            recorder.counter_value("serve.ladder_decided"),
            recorder.counter_value("ladder.t0_unschedulable"),
            recorder.counter_value("ladder.t1_schedulable"),
            recorder.counter_value("ladder.t2_schedulable"),
            recorder.counter_value("ladder.undecided"),
        );
    }
    let _ = writeln!(
        out,
        "cache: hits={} misses={} insertions={} evictions={}",
        recorder.counter_value("cache.hits"),
        recorder.counter_value("cache.misses"),
        recorder.counter_value("cache.insertions"),
        recorder.counter_value("cache.evictions"),
    );
    let _ = writeln!(
        out,
        "checkpoints: hits={} full_hits={} misses={} insertions={} evictions={} bytes_saved={} delta_chain_len={}",
        recorder.counter_value("checkpoint.hits"),
        recorder.counter_value("checkpoint.full_hits"),
        recorder.counter_value("checkpoint.misses"),
        recorder.counter_value("checkpoint.insertions"),
        recorder.counter_value("checkpoint.evictions"),
        recorder.counter_value("checkpoint.bytes_saved"),
        recorder.counter_value("checkpoint.delta_chain_len"),
    );
    if serve_options.state_dir.is_some() {
        let _ = writeln!(
            out,
            "storage: appends={} disk_hits={} disk_misses={} promotions={} compactions={} torn_drops={} errors={}",
            recorder.counter_value("storage.appends"),
            recorder.counter_value("storage.disk_hits"),
            recorder.counter_value("storage.disk_misses"),
            recorder.counter_value("storage.promotions"),
            recorder.counter_value("storage.compactions"),
            recorder.counter_value("storage.torn_drops"),
            recorder.counter_value("storage.errors"),
        );
    }
    CommandOutcome::ok(out)
}

fn cmd_route(options: &[String], backends: &str) -> CommandOutcome {
    let backends: Vec<String> = backends
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect();
    if backends.is_empty() {
        return CommandOutcome::error("--route expects a comma-separated backend list".to_string());
    }
    let mut router_options = swa_serve::RouterOptions {
        addr: flag_value(options, "--addr")
            .unwrap_or("127.0.0.1:7341")
            .to_string(),
        backends,
        ..swa_serve::RouterOptions::default()
    };
    match parse_usize(options, "--retries", router_options.retry.attempts as usize) {
        Ok(v) => match u32::try_from(v) {
            Ok(v) if v >= 1 => router_options.retry.attempts = v,
            _ => return CommandOutcome::error("--retries expects an integer ≥ 1".to_string()),
        },
        Err(e) => return CommandOutcome::error(e),
    }
    match parse_usize(options, "--shed", router_options.shed_inflight) {
        Ok(v) => router_options.shed_inflight = v,
        Err(e) => return CommandOutcome::error(e),
    }

    let router = match swa_serve::Router::start(&router_options) {
        Ok(r) => r,
        Err(e) => {
            return CommandOutcome::error(format!(
                "cannot start router on {}: {e}",
                router_options.addr
            ))
        }
    };
    let local = router.local_addr();
    if let Some(path) = flag_value(options, "--addr-file") {
        if let Err(e) = std::fs::write(path, local.to_string()) {
            router.shutdown();
            return CommandOutcome::error(format!("cannot write {path}: {e}"));
        }
    }

    let recorder = router.recorder();
    router.join();

    let mut out = format!("routed on {local} until shutdown\n");
    let _ = writeln!(
        out,
        "route: requests={} forwarded={} retries={} failovers={} shed={} exhausted={} breaker_opened={}",
        recorder.counter_value("route.requests"),
        recorder.counter_value("route.forwarded"),
        recorder.counter_value("route.retries"),
        recorder.counter_value("route.failovers"),
        recorder.counter_value("route.shed"),
        recorder.counter_value("route.exhausted"),
        recorder.counter_value("breaker.opened"),
    );
    CommandOutcome::ok(out)
}

fn cmd_request(args: &[String]) -> CommandOutcome {
    let Some(addr_arg) = args.first() else {
        return CommandOutcome::error(format!("request: missing <addr> argument\n\n{USAGE}"));
    };
    // `<addr>` may be a comma-separated fleet.
    let addrs: Vec<String> = addr_arg
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect();
    if addrs.is_empty() {
        return CommandOutcome::error(format!("request: empty <addr> argument\n\n{USAGE}"));
    }
    // Control-plane shortcuts need no configuration and fan out to every
    // listed server (so `--shutdown` can stop a whole fleet).
    let control: Option<fn(&str) -> std::io::Result<swa_serve::HttpResponse>> =
        if has_flag(args, "--health") {
            Some(|addr| swa_serve::client::get(addr, "/healthz"))
        } else if has_flag(args, "--metrics") {
            Some(|addr| swa_serve::client::get(addr, "/metrics"))
        } else if has_flag(args, "--shutdown") {
            Some(|addr| swa_serve::client::post(addr, "/shutdown", ""))
        } else {
            None
        };
    if let Some(call) = control {
        let mut out = String::new();
        let mut exit_code = 0;
        for addr in &addrs {
            match call(addr.as_str()) {
                Ok(resp) => {
                    if resp.status != 200 {
                        exit_code = 1;
                    }
                    if addrs.len() > 1 {
                        let _ = writeln!(out, "{addr}: {}", resp.body);
                    } else {
                        out.push_str(&resp.body);
                    }
                }
                Err(e) => {
                    exit_code = 1;
                    let _ = writeln!(out, "request to {addr} failed: {e}");
                }
            }
        }
        return CommandOutcome {
            exit_code,
            stdout: out,
            files: Vec::new(),
        };
    }

    let Some(path) = args.get(1).filter(|p| !p.starts_with("--")) else {
        return CommandOutcome::error(format!(
            "request: missing <config.xml> argument (or --health/--metrics/--shutdown)\n\n{USAGE}"
        ));
    };
    let xml = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => return CommandOutcome::error(format!("cannot read {path}: {e}")),
    };
    let hyperperiods = match parse_usize(args, "--hyperperiods", 1) {
        Ok(v) => v,
        Err(e) => return CommandOutcome::error(e),
    };
    if has_flag(args, "--sweep") {
        return request_sweep(&addrs, &xml, args);
    }
    let mut body = format!("{{\"config_xml\":\"{}\"", swa_core::obs::json_escape(&xml));
    let _ = write!(body, ",\"hyperperiods\":{hyperperiods}");
    if let Some(deadline) = flag_value(args, "--deadline-ms") {
        match deadline.parse::<u64>() {
            Ok(ms) => {
                let _ = write!(body, ",\"deadline_ms\":{ms}");
            }
            Err(_) => {
                return CommandOutcome::error(format!(
                    "--deadline-ms expects an integer, got {deadline:?}"
                ))
            }
        }
    }
    if has_flag(args, "--explain") {
        body.push_str(",\"explain\":true");
    }
    if has_flag(args, "--no-cache") {
        body.push_str(",\"no_cache\":true");
    }
    body.push('}');

    let response = if addrs.len() == 1 {
        swa_serve::client::post(addrs[0].as_str(), "/analyze", &body)
            .map_err(|e| format!("request to {} failed: {e}", addrs[0]))
    } else {
        // Client-side sharding: the same consistent-hash ring the router
        // uses, so repeats of a configuration land on the backend that
        // cached it, with failover past dead backends.
        let config = match configuration_from_xml(&xml) {
            Ok(c) => c,
            Err(e) => return CommandOutcome::error(format!("cannot parse {path}: {e}")),
        };
        let canon = swa_core::canonicalize(&config, u32::try_from(hyperperiods).unwrap_or(u32::MAX));
        let shard = canon.key.hi ^ canon.key.lo;
        let ring = swa_serve::HashRing::new(addrs.clone());
        swa_serve::forward_analyze(
            &ring,
            None,
            &swa_serve::RetryPolicy::default(),
            shard,
            &body,
            |_| {},
        )
        .map(|outcome| outcome.response)
    };
    match response {
        Ok(resp) => {
            let exit_code = if resp.status == 200 {
                let schedulable = swa_serve::Json::parse(&resp.body)
                    .ok()
                    .and_then(|doc| doc.get("schedulable").and_then(swa_serve::Json::as_bool));
                i32::from(schedulable != Some(true)) * 2
            } else {
                1
            };
            CommandOutcome {
                exit_code,
                stdout: resp.body,
                files: Vec::new(),
            }
        }
        Err(e) => CommandOutcome::error(e),
    }
}

/// `swa request <addr> <config.xml> --sweep …`: posts a `/sweep` request
/// and prints the streamed NDJSON lines as they were received — the final
/// line is the canonical report, byte-equal to `swa sweep … --json` for
/// the same parameters.
fn request_sweep(addrs: &[String], xml: &str, args: &[String]) -> CommandOutcome {
    let mut body = format!("{{\"config_xml\":\"{}\"", swa_core::obs::json_escape(xml));
    if let Some(axis) = flag_value(args, "--axis") {
        let _ = write!(body, ",\"axis\":\"{}\"", swa_core::obs::json_escape(axis));
    }
    if let Some(v) = flag_value(args, "--tolerance") {
        match v.parse::<f64>() {
            Ok(t) if t.is_finite() && t > 0.0 => {
                let _ = write!(body, ",\"tolerance\":{t}");
            }
            _ => {
                return CommandOutcome::error(format!(
                    "--tolerance expects a positive number, got {v:?}"
                ))
            }
        }
    }
    for (flag, field) in [
        ("--max-probes", "max_probes"),
        ("--samples", "samples"),
        ("--chain-bound", "chain_bound"),
        ("--hyperperiods", "hyperperiods"),
        ("--deadline-ms", "deadline_ms"),
    ] {
        if let Some(v) = flag_value(args, flag) {
            match v.parse::<u64>() {
                Ok(n) => {
                    let _ = write!(body, ",\"{field}\":{n}");
                }
                Err(_) => {
                    return CommandOutcome::error(format!("{flag} expects an integer, got {v:?}"))
                }
            }
        }
    }
    if has_flag(args, "--chains") || flag_value(args, "--chain-bound").is_some() {
        body.push_str(",\"chains\":true");
    }
    if has_flag(args, "--per-task") {
        body.push_str(",\"per_task\":true");
    }
    body.push('}');

    // Streaming goes to a single server (no client-side sharding: the
    // progressive lines are one conversation).
    match swa_serve::client::post_lines(addrs[0].as_str(), "/sweep", &body) {
        Ok(resp) => {
            let mut out = String::new();
            for line in &resp.lines {
                let _ = writeln!(out, "{line}");
            }
            let exit_code = if resp.status == 200 {
                // Positive iff the final report found a breakdown factor.
                let found = resp.lines.last().is_some_and(|line| {
                    swa_serve::Json::parse(line).ok().is_some_and(|doc| {
                        doc.get("status").and_then(swa_serve::Json::as_str) == Some("done")
                            && doc
                                .get("search")
                                .and_then(|s| s.get("breakdown"))
                                .and_then(swa_serve::Json::as_f64)
                                .is_some()
                    })
                });
                if found {
                    0
                } else {
                    2
                }
            } else {
                1
            };
            CommandOutcome {
                exit_code,
                stdout: out,
                files: Vec::new(),
            }
        }
        Err(e) => CommandOutcome::error(format!("request to {} failed: {e}", addrs[0])),
    }
}

fn cmd_dot(
    config: &Configuration,
    topology: Option<&Topology>,
    options: &[String],
) -> CommandOutcome {
    let model = match build_model(config, topology) {
        Ok(m) => m,
        Err(e) => return CommandOutcome::error(format!("model construction failed: {e}")),
    };
    match flag_value(options, "--automaton") {
        None => CommandOutcome::ok(swa_nsa::dot::network_to_dot(model.network())),
        Some(name) => match model.network().automaton_by_name(name) {
            Some(aid) => CommandOutcome::ok(swa_nsa::dot::automaton_to_dot(
                model.network().automaton(aid),
                Some(model.network()),
            )),
            None => {
                let names: Vec<&str> = model
                    .network()
                    .automata()
                    .iter()
                    .map(|a| a.name.as_str())
                    .collect();
                CommandOutcome::error(format!(
                    "no automaton named {name:?}; available: {}",
                    names.join(", ")
                ))
            }
        },
    }
}

fn cmd_uppaal(config: &Configuration, topology: Option<&Topology>) -> CommandOutcome {
    let model = match build_model(config, topology) {
        Ok(m) => m,
        Err(e) => return CommandOutcome::error(format!("model construction failed: {e}")),
    };
    match swa_nsa::uppaal::network_to_uppaal(model.network()) {
        Ok(xml) => CommandOutcome::ok(xml),
        Err(e) => CommandOutcome::error(format!("uppaal export failed: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swa_ima::{
        CoreRef, CoreType, CoreTypeId, Module, ModuleId, Partition, SchedulerKind, Task, Window,
    };

    fn config(schedulable: bool) -> Configuration {
        let wcet = if schedulable { 10 } else { 60 };
        Configuration {
            core_types: vec![CoreType::new("ct")],
            modules: vec![Module::homogeneous("M", 1, CoreTypeId::from_raw(0))],
            partitions: vec![Partition::new(
                "P",
                SchedulerKind::Fpps,
                vec![
                    Task::new("a", 2, vec![wcet], 50),
                    Task::new("b", 1, vec![10], 50),
                ],
            )],
            binding: vec![CoreRef::new(ModuleId::from_raw(0), 0)],
            windows: vec![vec![Window::new(0, 50)]],
            messages: vec![],
        }
    }

    fn opts(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn analyze_reports_verdicts_with_exit_codes() {
        let ok = run_on("analyze", &config(true), &[]);
        assert_eq!(ok.exit_code, 0);
        assert!(ok.stdout.contains("schedulable: true"));

        let bad = run_on("analyze", &config(false), &[]);
        assert_eq!(bad.exit_code, 2);
        assert!(bad.stdout.contains("schedulable: false"));
    }

    #[test]
    fn analyze_prints_gantt_when_asked() {
        let out = run_on("analyze", &config(true), &opts(&["--gantt"]));
        assert_eq!(out.exit_code, 0);
        assert!(out.stdout.contains('#'), "{}", out.stdout);
        assert!(out.stdout.contains('─'), "{}", out.stdout);
    }

    #[test]
    fn analyze_metrics_out_emits_json() {
        let out = run_on(
            "analyze",
            &config(true),
            &opts(&["--metrics-out", "m.json"]),
        );
        assert_eq!(out.exit_code, 0, "{}", out.stdout);
        let (path, json) = out
            .files
            .iter()
            .find(|(p, _)| p == "m.json")
            .expect("metrics file emitted");
        assert_eq!(path, "m.json");
        assert!(json.contains("\"sim.steps\""), "{json}");
        assert!(json.contains("\"compile.programs\""), "{json}");
        assert!(json.contains("\"simulate\""), "{json}");
        assert!(json.contains("\"build\""), "{json}");
    }

    #[test]
    fn analyze_explain_flag_is_accepted_on_sound_models() {
        let out = run_on("analyze", &config(true), &opts(&["--explain"]));
        assert_eq!(out.exit_code, 0, "{}", out.stdout);
        assert!(out.stdout.contains("schedulable: true"));
    }

    #[test]
    fn verify_metrics_out_records_observer_verdicts() {
        let out = run_on(
            "verify",
            &config(true),
            &opts(&["--metrics-out", "v.json"]),
        );
        assert_eq!(out.exit_code, 0, "{}", out.stdout);
        let (_, json) = out
            .files
            .iter()
            .find(|(p, _)| p == "v.json")
            .expect("metrics file emitted");
        assert!(json.contains("\"mc.observers\""), "{json}");
        assert!(json.contains("\"mc.violations\""), "{json}");
        assert!(json.contains("\"verify\""), "{json}");
    }

    #[test]
    fn analyze_writes_trace_file_when_asked() {
        let out = run_on("analyze", &config(true), &opts(&["--trace", "t.xml"]));
        assert_eq!(out.files.len(), 1);
        assert_eq!(out.files[0].0, "t.xml");
        assert!(out.files[0].1.contains("<trace>"));
    }

    #[test]
    fn validate_reports_ties() {
        let mut c = config(true);
        c.partitions[0].tasks[1].priority = 2; // tie with task a
        let out = run_on("validate", &c, &[]);
        assert_eq!(out.exit_code, 0);
        assert!(out.stdout.contains("warning:"), "{}", out.stdout);
    }

    #[test]
    fn validate_reports_utilization() {
        let out = run_on("validate", &config(true), &[]);
        assert_eq!(out.exit_code, 0);
        assert!(out.stdout.contains("core utilization"), "{}", out.stdout);
        assert!(out.stdout.contains("0.400"), "{}", out.stdout);
    }

    #[test]
    fn validate_rejects_invalid() {
        let mut c = config(true);
        c.windows[0] = vec![];
        let out = run_on("validate", &c, &[]);
        assert_eq!(out.exit_code, 2);
        assert!(out.stdout.contains("invalid"));
    }

    #[test]
    fn verify_runs_both_modes() {
        let out = run_on("verify", &config(true), &opts(&["--exhaustive"]));
        assert_eq!(out.exit_code, 0, "{}", out.stdout);
        assert!(out.stdout.contains("runtime monitoring: no violations"));
        assert!(out.stdout.contains("bad locations unreachable"));
    }

    #[test]
    fn mc_matches_simulation() {
        let out = run_on("mc", &config(true), &[]);
        assert_eq!(out.exit_code, 0, "{}", out.stdout);
        assert!(out.stdout.contains("schedulable: true"));
        let out = run_on("mc", &config(false), &[]);
        assert_eq!(out.exit_code, 2);
    }

    #[test]
    fn search_finds_and_emits_xml() {
        let out = run_on("search", &config(true), &[]);
        assert_eq!(out.exit_code, 0, "{}", out.stdout);
        assert!(out.stdout.contains("<configuration>"));
    }

    #[test]
    fn search_finds_the_same_configuration_at_any_parallelism() {
        // Compare the emitted configuration XML only: iteration lines carry
        // wall-clock check times that naturally differ between runs.
        let found_xml = |out: &CommandOutcome| {
            let at = out.stdout.find("<configuration>").expect("xml in output");
            out.stdout[at..].to_string()
        };
        let sequential = run_on("search", &config(true), &opts(&["--parallel", "1"]));
        let parallel = run_on("search", &config(true), &opts(&["--parallel", "4"]));
        assert_eq!(sequential.exit_code, 0, "{}", sequential.stdout);
        assert_eq!(found_xml(&sequential), found_xml(&parallel));
    }

    #[test]
    fn search_with_cache_bytes_reports_stats_and_same_result() {
        let found_xml = |out: &CommandOutcome| {
            let at = out.stdout.find("<configuration>").expect("xml in output");
            out.stdout[at..].to_string()
        };
        let plain = run_on("search", &config(true), &[]);
        let cached = run_on(
            "search",
            &config(true),
            &opts(&["--cache-bytes", "1048576"]),
        );
        assert_eq!(cached.exit_code, 0, "{}", cached.stdout);
        assert!(cached.stdout.contains("verdict cache:"), "{}", cached.stdout);
        assert!(cached.stdout.contains("hit rate"), "{}", cached.stdout);
        assert_eq!(found_xml(&plain), found_xml(&cached));
        // Without the flag, no cache line appears.
        assert!(!plain.stdout.contains("verdict cache:"));

        let warm = run_on(
            "search",
            &config(true),
            &opts(&["--checkpoint-bytes", "4194304"]),
        );
        assert_eq!(warm.exit_code, 0, "{}", warm.stdout);
        assert!(warm.stdout.contains("checkpoints:"), "{}", warm.stdout);
        assert_eq!(found_xml(&plain), found_xml(&warm));
        assert!(!plain.stdout.contains("checkpoints:"));
    }

    #[test]
    fn search_with_ladder_reports_tiers_and_same_result() {
        let found_xml = |out: &CommandOutcome| {
            let at = out.stdout.find("<configuration>").expect("xml in output");
            out.stdout[at..].to_string()
        };
        let plain = run_on("search", &config(true), &[]);
        let laddered = run_on("search", &config(true), &opts(&["--ladder", "full"]));
        assert_eq!(laddered.exit_code, 0, "{}", laddered.stdout);
        assert!(laddered.stdout.contains("ladder (full):"), "{}", laddered.stdout);
        assert_eq!(found_xml(&plain), found_xml(&laddered));
        assert!(!plain.stdout.contains("ladder ("));

        let bad = run_on("search", &config(true), &opts(&["--ladder", "turbo"]));
        assert_ne!(bad.exit_code, 0);
        assert!(bad.stdout.contains("unknown ladder mode"), "{}", bad.stdout);
    }

    #[test]
    fn sweep_with_ladder_reports_hits_and_same_breakdown() {
        let json_line = |args: &[String]| run_on("sweep", &config(true), args);
        let base = json_line(&opts(&["--json", "--tolerance", "0.05"]));
        let laddered = json_line(&opts(&["--json", "--tolerance", "0.05", "--ladder", "fast"]));
        assert_eq!(base.exit_code, 0, "{}", base.stdout);
        // Sound pre-filtering cannot move the certified breakdown: the
        // canonical JSON report is byte-identical.
        assert_eq!(base.stdout, laddered.stdout);

        let table = run_on("sweep", &config(true), &opts(&["--ladder", "fast"]));
        assert!(table.stdout.contains("ladder hits"), "{}", table.stdout);
    }

    #[test]
    fn sweep_reports_breakdown_with_certificate() {
        let out = run_on("sweep", &config(true), &[]);
        assert_eq!(out.exit_code, 0, "{}", out.stdout);
        assert!(out.stdout.contains("breakdown:"), "{}", out.stdout);
        assert!(out.stdout.contains("certified"), "{}", out.stdout);
        assert!(out.stdout.contains("reuse:"), "{}", out.stdout);
    }

    #[test]
    fn sweep_json_is_a_single_deterministic_line() {
        let args = opts(&["--json", "--tolerance", "0.05", "--per-task"]);
        let first = run_on("sweep", &config(true), &args);
        assert_eq!(first.exit_code, 0, "{}", first.stdout);
        assert!(first.stdout.starts_with("{\"status\":\"done\""), "{}", first.stdout);
        assert_eq!(first.stdout.lines().count(), 1);
        assert!(first.stdout.contains("\"per_task\":[{"), "{}", first.stdout);
        // Deterministic across runs — the serve/CLI agreement contract.
        let second = run_on("sweep", &config(true), &args);
        assert_eq!(first.stdout, second.stdout);
    }

    #[test]
    fn sweep_per_task_axis_and_metrics_out() {
        let out = run_on(
            "sweep",
            &config(true),
            &opts(&["--axis", "wcet:P/b", "--metrics-out", "s.json"]),
        );
        assert_eq!(out.exit_code, 0, "{}", out.stdout);
        assert!(out.stdout.contains("wcet:P/b"), "{}", out.stdout);
        let (_, json) = out
            .files
            .iter()
            .find(|(p, _)| p == "s.json")
            .expect("metrics file emitted");
        assert!(json.contains("\"sweep.probes\""), "{json}");
        assert!(json.contains("\"sweep.simulated\""), "{json}");
    }

    #[test]
    fn sweep_rejects_bad_flags() {
        assert_eq!(
            run_on("sweep", &config(true), &opts(&["--axis", "voltage"])).exit_code,
            1
        );
        assert_eq!(
            run_on("sweep", &config(true), &opts(&["--axis", "wcet:P/zz"])).exit_code,
            1
        );
        assert_eq!(
            run_on("sweep", &config(true), &opts(&["--tolerance", "0"])).exit_code,
            1
        );
        assert_eq!(
            run_on("sweep", &config(true), &opts(&["--chain-bound", "-3"])).exit_code,
            1
        );
    }

    #[test]
    fn store_flags_report_the_same_error_on_every_command() {
        let bad = opts(&["--checkpoint-bytes", "x"]);
        let expected = "--checkpoint-bytes expects an integer, got \"x\"";
        let mut serve_args = opts(&["serve"]);
        serve_args.extend(bad.iter().cloned());
        for out in [
            run_on("search", &config(true), &bad),
            run_on("sweep", &config(true), &bad),
            run(&serve_args),
        ] {
            assert_eq!(out.exit_code, 1, "{}", out.stdout);
            assert_eq!(out.stdout, expected);
        }
    }

    #[test]
    fn unschedulable_base_sweeps_downward_to_a_feasible_factor() {
        // The unschedulable fixture overloads the window at factor 1.0;
        // the search scans down and still finds the breakdown bracket.
        let out = run_on("sweep", &config(false), &opts(&["--json"]));
        assert_eq!(out.exit_code, 0, "{}", out.stdout);
        assert!(out.stdout.contains("\"base\":{\"schedulable\":false"), "{}", out.stdout);
    }

    #[test]
    fn serve_and_request_roundtrip_with_cache_marker() {
        let dir = std::env::temp_dir().join("swa_cli_serve_test");
        std::fs::create_dir_all(&dir).unwrap();
        let config_path = dir.join("config.xml");
        std::fs::write(&config_path, configuration_to_xml(&config(true))).unwrap();
        let addr_file = dir.join("addr.txt");
        let _ = std::fs::remove_file(&addr_file);

        let addr_file_arg = addr_file.to_str().unwrap().to_string();
        let server_thread = std::thread::spawn(move || {
            run(&opts(&[
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--addr-file",
                &addr_file_arg,
            ]))
        });
        // Wait for the server to publish its ephemeral address.
        let addr = {
            let mut waited = 0;
            loop {
                if let Ok(addr) = std::fs::read_to_string(&addr_file) {
                    if !addr.is_empty() {
                        break addr;
                    }
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
                waited += 1;
                assert!(waited < 250, "server never published its address");
            }
        };
        let config_arg = config_path.to_str().unwrap();

        let health = run(&opts(&["request", &addr, "--health"]));
        assert_eq!(health.exit_code, 0, "{}", health.stdout);
        assert!(health.stdout.contains("\"ok\""));

        let first = run(&opts(&["request", &addr, config_arg]));
        assert_eq!(first.exit_code, 0, "{}", first.stdout);
        assert!(first.stdout.contains("\"cached\":false"), "{}", first.stdout);

        let second = run(&opts(&["request", &addr, config_arg]));
        assert_eq!(second.exit_code, 0, "{}", second.stdout);
        assert!(second.stdout.contains("\"cached\":true"), "{}", second.stdout);

        // Identical verdicts either way.
        let verdict = |s: &str| s.contains("\"schedulable\":true");
        assert_eq!(verdict(&first.stdout), verdict(&second.stdout));

        let metrics = run(&opts(&["request", &addr, "--metrics"]));
        assert_eq!(metrics.exit_code, 0);
        assert!(metrics.stdout.contains("cache.hits"), "{}", metrics.stdout);

        let shutdown = run(&opts(&["request", &addr, "--shutdown"]));
        assert_eq!(shutdown.exit_code, 0, "{}", shutdown.stdout);

        let served = server_thread.join().unwrap();
        assert_eq!(served.exit_code, 0, "{}", served.stdout);
        assert!(served.stdout.contains("analyses=1"), "{}", served.stdout);
        assert!(served.stdout.contains("cache: hits=1"), "{}", served.stdout);
    }

    #[test]
    fn request_sweep_streams_and_matches_the_local_cli() {
        let dir = std::env::temp_dir().join(format!("swa_cli_sweep_req_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let config_path = dir.join("config.xml");
        std::fs::write(&config_path, configuration_to_xml(&config(true))).unwrap();
        let addr_file = dir.join("addr.txt");
        let _ = std::fs::remove_file(&addr_file);

        let addr_file_arg = addr_file.to_str().unwrap().to_string();
        let server_thread = std::thread::spawn(move || {
            run(&opts(&[
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--addr-file",
                &addr_file_arg,
            ]))
        });
        let addr = {
            let mut waited = 0;
            loop {
                if let Ok(addr) = std::fs::read_to_string(&addr_file) {
                    if !addr.is_empty() {
                        break addr;
                    }
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
                waited += 1;
                assert!(waited < 250, "server never published its address");
            }
        };

        let streamed = run(&opts(&[
            "request",
            &addr,
            config_path.to_str().unwrap(),
            "--sweep",
            "--tolerance",
            "0.05",
        ]));
        assert_eq!(streamed.exit_code, 0, "{}", streamed.stdout);
        let lines: Vec<&str> = streamed.stdout.lines().collect();
        assert!(lines.len() >= 2, "expected progressive lines:\n{}", streamed.stdout);
        for step in &lines[..lines.len() - 1] {
            assert!(step.starts_with("{\"status\":\"step\""), "{step}");
        }

        // The final streamed line is byte-equal to the local CLI's --json.
        let local = run_on(
            "sweep",
            &config(true),
            &opts(&["--json", "--tolerance", "0.05"]),
        );
        assert_eq!(local.exit_code, 0, "{}", local.stdout);
        assert_eq!(
            format!("{}\n", lines.last().unwrap()),
            local.stdout,
            "serve and CLI reports must agree byte-for-byte"
        );

        let shutdown = run(&opts(&["request", &addr, "--shutdown"]));
        assert_eq!(shutdown.exit_code, 0, "{}", shutdown.stdout);
        server_thread.join().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn request_errors_cleanly_without_a_server() {
        // Port 1 on loopback is never listening.
        let out = run(&opts(&["request", "127.0.0.1:1", "--health"]));
        assert_eq!(out.exit_code, 1);
        assert!(out.stdout.contains("failed"), "{}", out.stdout);

        let out = run(&opts(&["request", "127.0.0.1:1"]));
        assert_eq!(out.exit_code, 1);
        assert!(out.stdout.contains("config.xml"), "{}", out.stdout);
    }

    #[test]
    fn dot_exports_network_and_single_automaton() {
        let out = run_on("dot", &config(true), &[]);
        assert_eq!(out.exit_code, 0);
        assert!(out.stdout.contains("digraph network"));

        let out = run_on("dot", &config(true), &opts(&["--automaton", "T0_P_a"]));
        assert_eq!(out.exit_code, 0, "{}", out.stdout);
        assert!(out.stdout.contains("digraph"));

        let out = run_on("dot", &config(true), &opts(&["--automaton", "nope"]));
        assert_eq!(out.exit_code, 1);
        assert!(out.stdout.contains("available:"));
    }

    #[test]
    fn uppaal_export_produces_nta() {
        let out = run_on("uppaal", &config(true), &[]);
        assert_eq!(out.exit_code, 0, "{}", out.stdout);
        assert!(out.stdout.contains("<nta>"));
        assert!(out.stdout.contains("system "));
    }

    #[test]
    fn unknown_command_and_bad_flags_error() {
        assert_eq!(run_on("frobnicate", &config(true), &[]).exit_code, 1);
        let out = run_on("mc", &config(true), &opts(&["--max-states", "NaN"]));
        assert_eq!(out.exit_code, 1);
    }

    #[test]
    fn run_reads_files_and_reports_missing() {
        let out = run(&opts(&["analyze", "/nonexistent/file.xml"]));
        assert_eq!(out.exit_code, 1);
        assert!(out.stdout.contains("cannot read"));

        let out = run(&opts(&["help"]));
        assert_eq!(out.exit_code, 0);
        assert!(out.stdout.contains("USAGE"));

        let out = run(&[]);
        assert_eq!(out.exit_code, 1);
    }

    #[test]
    fn topology_in_the_file_routes_messages() {
        use swa_ima::{Message, PartitionId, Switch, TaskRef};
        // Producer/consumer on two modules with a routed message.
        let mut c = config(true);
        c.modules.push(swa_ima::Module::homogeneous(
            "M2",
            1,
            CoreTypeId::from_raw(0),
        ));
        c.partitions.push(Partition::new(
            "Q",
            SchedulerKind::Fpps,
            vec![Task::new("r", 1, vec![5], 50)],
        ));
        c.binding.push(CoreRef::new(ModuleId::from_raw(1), 0));
        c.windows.push(vec![Window::new(0, 50)]);
        c.messages.push(Message::new(
            "vl",
            TaskRef::new(PartitionId::from_raw(0), 0),
            TaskRef::new(PartitionId::from_raw(1), 0),
            1,
            4,
        ));
        let topology = swa_ima::Topology::new(vec![Switch::new("SW", 6)])
            .with_route(swa_ima::MessageId::from_raw(0), vec![0]);
        let xml = swa_xmlio::configuration_with_topology_to_xml(&c, Some(&topology));

        let dir = std::env::temp_dir().join("swa_cli_topo_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("config.xml");
        std::fs::write(&path, &xml).unwrap();
        let out = run(&opts(&["analyze", path.to_str().unwrap()]));
        assert_eq!(out.exit_code, 0, "{}", out.stdout);
        // The consumer starts at sender completion (10) + 6 + 4 = 20; with
        // no topology it would start at 14. The verdict plus the summary's
        // response time reflect the routed delay.
        assert!(out.stdout.contains("wcrt=25"), "{}", out.stdout);
    }

    #[test]
    fn run_roundtrips_through_a_real_file() {
        let dir = std::env::temp_dir().join("swa_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("config.xml");
        std::fs::write(&path, configuration_to_xml(&config(true))).unwrap();
        let out = run(&opts(&["analyze", path.to_str().unwrap()]));
        assert_eq!(out.exit_code, 0, "{}", out.stdout);
        assert!(out.stdout.contains("schedulable: true"));
    }

    #[test]
    fn search_state_dir_reuses_verdicts_across_invocations() {
        let dir = std::env::temp_dir().join(format!("swa_cli_state_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let state = dir.to_str().unwrap().to_string();

        let first = run_on("search", &config(true), &opts(&["--state-dir", &state]));
        assert_eq!(first.exit_code, 0, "{}", first.stdout);
        assert!(first.stdout.contains("verdict cache:"), "{}", first.stdout);

        // A fresh invocation (fresh in-memory tier) answers from disk: at
        // least one hit, and it finds the same configuration.
        let second = run_on("search", &config(true), &opts(&["--state-dir", &state]));
        assert_eq!(second.exit_code, 0, "{}", second.stdout);
        let hits: u64 = second
            .stdout
            .lines()
            .find(|l| l.starts_with("verdict cache:"))
            .and_then(|l| l.split_whitespace().nth(2))
            .and_then(|n| n.parse().ok())
            .expect("hit count in summary");
        assert!(hits >= 1, "durable tier served no hits: {}", second.stdout);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_route_rejects_an_empty_backend_list() {
        let out = run(&opts(&["serve", "--route", " , "]));
        assert_eq!(out.exit_code, 1);
        assert!(out.stdout.contains("--route"), "{}", out.stdout);
    }
}
