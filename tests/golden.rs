//! Golden-trace regression corpus.
//!
//! Each fixture in `tests/fixtures/` pins one scheduling behavior the
//! paper's model distinguishes — FPPS preemption, FPNPS blocking (with a
//! deadline miss it causes), EDF deadline ordering, and virtual-link
//! delivery over both shared memory and the switched network. For each
//! one the corpus stores the configuration (`<name>.xml`), the expected
//! system trace (`<name>.trace.xml`, via [`swa::xmlio`]'s `trace_io`) and
//! the expected verdict (`<name>.verdict.txt`). The error-path fixtures
//! (time lock, Zeno run) are hand-built NSA networks whose expected
//! diagnosis renderings are pinned the same way.
//!
//! A mismatch fails with a line-level diff of the rendered traces, so a
//! semantics change shows *which event moved*, not just "bytes differ".
//! Intentional changes re-bless the corpus with:
//!
//! ```console
//! SWA_UPDATE_GOLDEN=1 cargo test --test golden
//! ```

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use swa::ima::{
    Configuration, CoreRef, CoreType, Message, Module, Partition, SchedulerKind, Task, TaskRef,
    Window,
};
use swa::ima::{CoreTypeId, ModuleId, PartitionId};
use swa::nsa::{
    AutomatonBuilder, ClockAtom, CmpOp, DiagnosisKind, Edge, EvalEngine, Guard, Invariant,
    NetworkBuilder, SimError, Simulator,
};
use swa::xmlio::{configuration_from_xml, configuration_to_xml, trace_from_xml, trace_to_xml};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn blessing() -> bool {
    std::env::var_os("SWA_UPDATE_GOLDEN").is_some()
}

/// Compares `actual` against the golden file, blessing it instead when
/// `SWA_UPDATE_GOLDEN` is set. Fails with a line diff on mismatch.
fn assert_golden(name: &str, file: &str, actual: &str) {
    let path = fixture_dir().join(file);
    if blessing() {
        std::fs::create_dir_all(fixture_dir()).expect("create fixture dir");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with SWA_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    if expected == actual {
        return;
    }
    panic!(
        "golden mismatch for {name} ({file}):\n{}",
        line_diff(&expected, actual)
    );
}

/// A minimal unified-style diff: every differing line, with a little
/// context, so the failure names the event that moved.
fn line_diff(expected: &str, actual: &str) -> String {
    let e: Vec<&str> = expected.lines().collect();
    let a: Vec<&str> = actual.lines().collect();
    let mut out = String::new();
    let n = e.len().max(a.len());
    let mut shown = 0usize;
    for i in 0..n {
        let el = e.get(i).copied();
        let al = a.get(i).copied();
        if el == al {
            continue;
        }
        if shown == 0 {
            if let Some(ctx) = i.checked_sub(1).and_then(|j| e.get(j)) {
                let _ = writeln!(out, "    {ctx}");
            }
        }
        if let Some(l) = el {
            let _ = writeln!(out, "  - {l}");
        }
        if let Some(l) = al {
            let _ = writeln!(out, "  + {l}");
        }
        shown += 1;
        if shown >= 20 {
            let _ = writeln!(
                out,
                "  ... ({} expected / {} actual lines total)",
                e.len(),
                a.len()
            );
            break;
        }
    }
    if out.is_empty() {
        out.push_str("  (traces differ only in trailing whitespace)");
    }
    out
}

/// The stable verdict rendering stored in `<name>.verdict.txt`.
fn render_verdict(report: &swa::AnalysisReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "schedulable: {}", report.schedulable());
    let _ = writeln!(
        out,
        "missed_jobs: {}",
        report.analysis.missed_jobs().count()
    );
    for j in report.analysis.missed_jobs() {
        let _ = writeln!(
            out,
            "miss: partition={} task={} job={} deadline={}",
            j.task.partition.raw(),
            j.task.task,
            j.job,
            j.abs_deadline
        );
    }
    out
}

/// Runs one config fixture end to end: XML round-trip, analysis, golden
/// trace and golden verdict.
fn check_config_fixture(name: &str, config: &Configuration) {
    config
        .validate()
        .unwrap_or_else(|e| panic!("{name}: invalid fixture: {e:?}"));
    let xml = configuration_to_xml(config);
    assert_golden(name, &format!("{name}.xml"), &xml);
    // The checked-in XML — not just the in-memory value — must analyze
    // identically: parse it back and run the analysis on the parsed copy.
    let parsed = configuration_from_xml(&xml).expect("fixture XML parses");
    assert_eq!(
        &parsed, config,
        "{name}: XML round-trip changed the configuration"
    );

    let report = swa::analyze_configuration(&parsed).expect("fixture analyzes");
    let trace_xml = trace_to_xml(&report.trace);
    assert_golden(name, &format!("{name}.trace.xml"), &trace_xml);
    assert_golden(
        name,
        &format!("{name}.verdict.txt"),
        &render_verdict(&report),
    );

    // The stored golden trace must itself parse back to the same trace.
    if !blessing() {
        let stored = std::fs::read_to_string(fixture_dir().join(format!("{name}.trace.xml")))
            .expect("golden trace exists");
        assert_eq!(
            trace_from_xml(&stored).expect("golden trace parses"),
            report.trace,
            "{name}: golden trace does not round-trip"
        );
    }
}

fn one_core_config(partitions: Vec<Partition>, windows: Vec<Vec<Window>>) -> Configuration {
    let core = CoreRef::new(ModuleId::from_raw(0), 0);
    let binding = vec![core; partitions.len()];
    Configuration {
        core_types: vec![CoreType::new("generic")],
        modules: vec![Module::homogeneous("M0", 1, CoreTypeId::from_raw(0))],
        partitions,
        binding,
        windows,
        messages: Vec::new(),
    }
}

/// FPPS: the high-priority task preempts the low-priority one at its
/// second release, inside a two-partition window schedule.
#[test]
fn golden_fpps_preemption() {
    let config = one_core_config(
        vec![
            Partition::new(
                "P0",
                SchedulerKind::Fpps,
                vec![
                    Task::new("hi", 2, vec![3], 10),
                    Task::new("lo", 1, vec![6], 20),
                ],
            ),
            Partition::new(
                "P1",
                SchedulerKind::Fpps,
                vec![Task::new("solo", 1, vec![2], 20)],
            ),
        ],
        vec![
            vec![Window::new(0, 7), Window::new(10, 17)],
            vec![Window::new(7, 10), Window::new(17, 20)],
        ],
    );
    check_config_fixture("fpps", &config);
}

/// FPNPS: the long low-priority job starts first and blocks the
/// high-priority task past its constrained deadline — a miss *caused by
/// non-preemption* (the same workload under FPPS is schedulable).
#[test]
fn golden_fpnps_blocking_miss() {
    let mk = |kind| {
        one_core_config(
            vec![Partition::new(
                "P0",
                kind,
                vec![
                    Task::new("urgent", 2, vec![2], 10)
                        .with_deadline(4)
                        .with_offset(1),
                    Task::new("bulk", 1, vec![6], 10),
                ],
            )],
            vec![vec![Window::new(0, 10)]],
        )
    };
    check_config_fixture("fpnps", &mk(SchedulerKind::Fpnps));

    // The control experiment is part of the regression: preemption fixes
    // exactly this miss.
    let fpps = swa::analyze_configuration(&mk(SchedulerKind::Fpps)).unwrap();
    assert!(fpps.schedulable(), "the FPPS control must be schedulable");
}

/// EDF: equal periods, distinct deadlines — the earlier-deadline task
/// runs first regardless of declaration order.
#[test]
fn golden_edf_deadline_order() {
    let config = one_core_config(
        vec![Partition::new(
            "P0",
            SchedulerKind::Edf,
            vec![
                Task::new("late", 1, vec![3], 10).with_deadline(9),
                Task::new("soon", 1, vec![2], 10).with_deadline(4),
            ],
        )],
        vec![vec![Window::new(0, 10)]],
    );
    check_config_fixture("edf", &config);
}

/// Virtual links: one message through shared memory (same module), one
/// through the switched network (cross-module), with window placement
/// that only works because the delays are what the model says they are.
#[test]
fn golden_virtual_link_delivery() {
    let m0 = ModuleId::from_raw(0);
    let m1 = ModuleId::from_raw(1);
    let config = Configuration {
        core_types: vec![CoreType::new("generic")],
        modules: vec![
            Module::homogeneous("M0", 1, CoreTypeId::from_raw(0)),
            Module::homogeneous("M1", 1, CoreTypeId::from_raw(0)),
        ],
        partitions: vec![
            Partition::new(
                "sender",
                SchedulerKind::Fpps,
                vec![Task::new("s", 1, vec![2], 20)],
            ),
            Partition::new(
                "mem_rx",
                SchedulerKind::Fpps,
                vec![Task::new("rm", 1, vec![2], 20)],
            ),
            Partition::new(
                "net_rx",
                SchedulerKind::Fpps,
                vec![Task::new("rn", 1, vec![2], 20)],
            ),
        ],
        binding: vec![
            CoreRef::new(m0, 0),
            CoreRef::new(m0, 0),
            CoreRef::new(m1, 0),
        ],
        windows: vec![
            vec![Window::new(0, 4)],
            vec![Window::new(4, 8)],
            vec![Window::new(8, 12)],
        ],
        messages: vec![
            Message::new(
                "vl_mem",
                TaskRef::new(PartitionId::from_raw(0), 0),
                TaskRef::new(PartitionId::from_raw(1), 0),
                1,
                5,
            ),
            Message::new(
                "vl_net",
                TaskRef::new(PartitionId::from_raw(0), 0),
                TaskRef::new(PartitionId::from_raw(2), 0),
                1,
                5,
            ),
        ],
    };
    check_config_fixture("virtual_link", &config);
}

/// Time lock: the invariant forces action by t = 5 but the only edge
/// needs c >= 10. Both engines must produce the pinned diagnosis.
#[test]
fn golden_timelock_diagnosis() {
    let mut nb = NetworkBuilder::new();
    let c = nb.clock("c");
    let mut a = AutomatonBuilder::new("stuck");
    let l0 = a.location_with_invariant("l0", Invariant::upper_bound(c, 5));
    let l1 = a.location("l1");
    a.edge(
        Edge::new(l0, l1)
            .with_guard(Guard::always().and_clock(ClockAtom::new(c, CmpOp::Ge, 10)))
            .with_label("go"),
    );
    nb.automaton(a.finish(l0));
    let network = nb.build().unwrap();

    for engine in [EvalEngine::Ast, EvalEngine::Bytecode] {
        let err = Simulator::new(&network)
            .horizon(100)
            .engine(engine)
            .run_explained()
            .unwrap_err();
        assert!(
            matches!(err.error, SimError::TimeLock { .. }),
            "{:?}",
            err.error
        );
        let diagnosis = err.diagnosis.expect("diagnosis captured");
        assert_eq!(diagnosis.kind, DiagnosisKind::TimeLock);
        assert_golden("timelock", "timelock.diagnosis.txt", &diagnosis.render());
    }
}

/// Zeno run: an unguarded self-loop fires forever at t = 0. Both engines
/// must produce the pinned diagnosis naming the repeating cycle.
#[test]
fn golden_zeno_diagnosis() {
    let mut nb = NetworkBuilder::new();
    let mut a = AutomatonBuilder::new("spin");
    let l0 = a.location("l0");
    a.edge(Edge::new(l0, l0).with_label("again"));
    nb.automaton(a.finish(l0));
    let network = nb.build().unwrap();

    for engine in [EvalEngine::Ast, EvalEngine::Bytecode] {
        let err = Simulator::new(&network)
            .horizon(10)
            .max_steps_per_instant(64)
            .engine(engine)
            .run_explained()
            .unwrap_err();
        assert!(
            matches!(err.error, SimError::ZenoViolation { time: 0, .. }),
            "{:?}",
            err.error
        );
        let diagnosis = err.diagnosis.expect("diagnosis captured");
        assert_eq!(diagnosis.kind, DiagnosisKind::Zeno);
        assert_golden("zeno", "zeno.diagnosis.txt", &diagnosis.render());
    }
}

/// The corpus itself is pinned: a fixture file that exists on disk but is
/// no longer produced by any test would rot silently.
#[test]
fn corpus_has_no_stray_fixtures() {
    let expected = [
        "fpps.xml",
        "fpps.trace.xml",
        "fpps.verdict.txt",
        "fpnps.xml",
        "fpnps.trace.xml",
        "fpnps.verdict.txt",
        "edf.xml",
        "edf.trace.xml",
        "edf.verdict.txt",
        "virtual_link.xml",
        "virtual_link.trace.xml",
        "virtual_link.verdict.txt",
        "timelock.diagnosis.txt",
        "zeno.diagnosis.txt",
    ];
    let mut found: Vec<String> = std::fs::read_dir(fixture_dir())
        .expect("fixture dir exists (run with SWA_UPDATE_GOLDEN=1 once)")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    found.sort();
    let mut want: Vec<&str> = expected.to_vec();
    want.sort_unstable();
    assert_eq!(found, want, "fixture corpus drifted");
}
