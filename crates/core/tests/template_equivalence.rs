//! Template equivalence: building each automaton from a per-shape
//! template plus a per-instance parameter frame must produce exactly the
//! network the per-instance construction produced.
//!
//! For a seeded corpus covering every scheduler template (FPPS, FPNPS,
//! EDF, round-robin), non-zero release offsets, tasks with 0, 1 and 2+
//! input messages, routed virtual-link chains, one- and two-hyperperiod
//! spans and modular design-loop-style systems, each configuration's
//! model is checked three ways:
//!
//! 1. the UPPAAL export of the expanded network hashes to the value
//!    pinned from the per-instance construction (the export walks every
//!    location, invariant, guard, sync and update of every automaton);
//! 2. the relocated bytecode of every instance equals, op for op, a
//!    direct compile of its expanded automaton;
//! 3. the compile statistics equal the pinned ones, and no corpus
//!    scheduler (at most 26 tasks) compiles a dominance query: below
//!    `MIN_DOMINANCE_K` the programs are exactly the quantifier loops.

use swa_core::{Analyzer, SystemModel};
use swa_ima::{
    Configuration, CoreRef, CoreType, CoreTypeId, Message, MessageId, Module, ModuleId, Partition,
    PartitionId, SchedulerKind, Switch, Task, TaskRef, Topology, Window,
};
use swa_nsa::uppaal::network_to_uppaal;
use swa_nsa::{ChannelKind, Network, NetworkBuilder};
use swa_workload::{industrial_config, spec_with_jobs, IndustrialSpec};

/// FNV-1a, stable across Rust releases.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// splitmix64 finaliser, for per-configuration sub-seeds.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn small_spec(seed: u64, messages: f64) -> IndustrialSpec {
    IndustrialSpec {
        modules: 2,
        cores_per_module: 1,
        partitions_per_core: 2,
        tasks_per_partition: 5,
        core_utilization: 0.5,
        message_fraction: messages,
        seed,
        ..IndustrialSpec::default()
    }
}

fn with_scheduler(mut config: Configuration, kind: SchedulerKind) -> Configuration {
    for p in &mut config.partitions {
        p.scheduler = kind;
    }
    config
}

/// Partition `i` runs FPPS, FPNPS, EDF or round-robin by `i % 4`.
fn mixed(mut config: Configuration) -> Configuration {
    for (i, p) in config.partitions.iter_mut().enumerate() {
        p.scheduler = match i % 4 {
            0 => SchedulerKind::Fpps,
            1 => SchedulerKind::Fpnps,
            2 => SchedulerKind::Edf,
            _ => SchedulerKind::RoundRobin { quantum: 3 },
        };
    }
    config
}

/// Gives every task that neither sends nor receives a message a non-zero
/// release offset (a third of its period, staggered by index).
fn with_offsets(mut config: Configuration) -> Configuration {
    let linked: Vec<TaskRef> = config
        .messages
        .iter()
        .flat_map(|m| [m.sender, m.receiver])
        .collect();
    for (j, p) in config.partitions.iter_mut().enumerate() {
        for (k, t) in p.tasks.iter_mut().enumerate() {
            let tr = TaskRef::new(
                PartitionId::from_raw(u32::try_from(j).unwrap()),
                u32::try_from(k).unwrap(),
            );
            if !linked.contains(&tr) && k % 2 == 1 {
                t.offset = (t.period / 3 + i64::try_from(k).unwrap()) % t.period;
            }
        }
    }
    config
}

/// Two modules; the consumer partition has tasks with 0, 1, 2 and 3
/// input messages, some crossing modules.
fn fan_in_config(kind: SchedulerKind) -> Configuration {
    let tr = |p: u32, t: u32| TaskRef::new(PartitionId::from_raw(p), t);
    Configuration {
        core_types: vec![CoreType::new("generic")],
        modules: vec![
            Module::homogeneous("M1", 1, CoreTypeId::from_raw(0)),
            Module::homogeneous("M2", 1, CoreTypeId::from_raw(0)),
        ],
        partitions: vec![
            Partition::new(
                "producers",
                kind,
                vec![
                    Task::new("p0", 3, vec![4], 100),
                    Task::new("p1", 2, vec![5], 100),
                    Task::new("p2", 1, vec![3], 100),
                    Task::new("solo", 0, vec![2], 50).with_offset(7),
                ],
            ),
            Partition::new(
                "consumers",
                kind,
                vec![
                    Task::new("none", 4, vec![3], 50),
                    Task::new("one", 3, vec![4], 100),
                    Task::new("two", 2, vec![5], 100),
                    Task::new("three", 1, vec![6], 100),
                ],
            ),
        ],
        binding: vec![
            CoreRef::new(ModuleId::from_raw(0), 0),
            CoreRef::new(ModuleId::from_raw(1), 0),
        ],
        windows: vec![
            vec![Window::new(0, 40), Window::new(50, 90)],
            vec![Window::new(0, 100)],
        ],
        messages: vec![
            Message::new("m0", tr(0, 0), tr(1, 1), 1, 6),
            Message::new("m1", tr(0, 0), tr(1, 2), 1, 7),
            Message::new("m2", tr(0, 1), tr(1, 2), 1, 5),
            Message::new("m3", tr(0, 0), tr(1, 3), 1, 4),
            Message::new("m4", tr(0, 1), tr(1, 3), 1, 8),
            Message::new("m5", tr(0, 2), tr(1, 3), 1, 3),
        ],
    }
}

/// Routes for the fan-in configuration: a one-switch and a three-switch
/// chain, the rest direct.
fn fan_in_topology() -> Topology {
    Topology::new(vec![
        Switch::new("SW1", 2),
        Switch::new("SW2", 3),
        Switch::new("SW3", 1),
    ])
    .with_route(MessageId::from_raw(0), vec![0])
    .with_route(MessageId::from_raw(3), vec![0, 1, 2])
}

/// A design-loop-style modular system: one core per module, two
/// partitions per core, the module count scaling with the job count.
#[allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_precision_loss
)]
fn modular_config(seed: u64, jobs: u64, messages: f64) -> Configuration {
    let tasks_needed = ((jobs as f64 / 3.75).ceil() as usize).max(1);
    let modules = tasks_needed.div_ceil(52).max(2);
    let mut config = industrial_config(&IndustrialSpec {
        modules,
        cores_per_module: 1,
        partitions_per_core: 2,
        tasks_per_partition: tasks_needed.div_ceil(modules * 2).clamp(1, 26),
        core_utilization: 0.5,
        message_fraction: messages,
        seed,
        ..IndustrialSpec::default()
    });
    let slack: Vec<bool> = config
        .messages
        .iter()
        .map(|m| config.task(m.sender).is_some_and(|t| t.period >= 200))
        .collect();
    let mut keep = slack.into_iter();
    config.messages.retain(|_| keep.next().unwrap_or(false));
    config
}

/// One corpus entry: a label, the configuration, an optional topology
/// and the number of hyperperiods analysed.
struct Case {
    label: &'static str,
    config: Configuration,
    topology: Option<Topology>,
    hyperperiods: u32,
}

fn case(label: &'static str, config: Configuration) -> Case {
    Case {
        label,
        config,
        topology: None,
        hyperperiods: 1,
    }
}

fn corpus() -> Vec<Case> {
    let s = |i| sub_seed(17, i);
    let mut cases = vec![
        case(
            "fpps",
            with_scheduler(
                industrial_config(&small_spec(s(0), 0.3)),
                SchedulerKind::Fpps,
            ),
        ),
        case(
            "fpnps",
            with_scheduler(
                industrial_config(&small_spec(s(1), 0.3)),
                SchedulerKind::Fpnps,
            ),
        ),
        case(
            "edf",
            with_scheduler(
                industrial_config(&small_spec(s(2), 0.3)),
                SchedulerKind::Edf,
            ),
        ),
        case(
            "rr",
            with_scheduler(
                industrial_config(&small_spec(s(3), 0.3)),
                SchedulerKind::RoundRobin { quantum: 2 },
            ),
        ),
        case("mixed", mixed(industrial_config(&small_spec(s(4), 0.2)))),
        case(
            "offsets",
            with_offsets(mixed(industrial_config(&small_spec(s(5), 0.2)))),
        ),
        case("fan_in_fpps", fan_in_config(SchedulerKind::Fpps)),
        case("fan_in_edf", fan_in_config(SchedulerKind::Edf)),
        case(
            "fan_in_rr",
            fan_in_config(SchedulerKind::RoundRobin { quantum: 4 }),
        ),
        case("modular_fpps", modular_config(s(6), 400, 0.0)),
        case("modular_links", modular_config(s(7), 200, 0.2)),
        case("modular_fpnps_edf", {
            let mut c = modular_config(s(8), 400, 0.0);
            for (i, p) in c.partitions.iter_mut().enumerate() {
                p.scheduler = if i % 2 == 0 {
                    SchedulerKind::Fpnps
                } else {
                    SchedulerKind::Edf
                };
            }
            c
        }),
    ];
    cases.push(Case {
        label: "fan_in_routed",
        config: fan_in_config(SchedulerKind::Fpps),
        topology: Some(fan_in_topology()),
        hyperperiods: 1,
    });
    cases.push(Case {
        label: "fan_in_routed_fpnps_h2",
        config: fan_in_config(SchedulerKind::Fpnps),
        topology: Some(fan_in_topology()),
        hyperperiods: 2,
    });
    cases.push(Case {
        hyperperiods: 2,
        ..case(
            "offsets_h2",
            with_offsets(mixed(industrial_config(&small_spec(s(9), 0.2)))),
        )
    });
    cases.push(Case {
        hyperperiods: 2,
        ..case("modular_h2", modular_config(s(10), 300, 0.2))
    });
    cases
}

fn build(c: &Case) -> SystemModel {
    c.config
        .validate()
        .unwrap_or_else(|e| panic!("{}: invalid corpus configuration: {e:?}", c.label));
    SystemModel::build_spanning_with_topology(&c.config, c.topology.as_ref(), c.hyperperiods)
        .unwrap_or_else(|e| panic!("{}: build failed: {e}", c.label))
}

/// `(label, UPPAAL export hash, compiled programs, compiled ops)`, as
/// produced by the per-instance construction.
const PINNED: &[(&str, u64, usize, usize)] = &[
    ("fpps", 0x0a68_9035_72ee_a747, 958, 2686),
    ("fpnps", 0x7c59_5c84_1b27_d0b0, 849, 2117),
    ("edf", 0x8ace_3a3d_3872_235c, 958, 2686),
    ("rr", 0xe088_97cc_b99f_8bca, 946, 2474),
    ("mixed", 0x8bec_0882_a50d_51cf, 924, 2485),
    ("offsets", 0x73b5_e81d_68f0_8da1, 960, 2537),
    ("fan_in_fpps", 0x4f81_3632_e50d_57b1, 381, 1156),
    ("fan_in_edf", 0xfe40_eda1_2083_4d63, 381, 1156),
    ("fan_in_rr", 0xbba4_a59d_88d8_3876, 377, 1062),
    ("modular_fpps", 0xe335_fa98_f29a_d2f9, 3843, 12471),
    ("modular_links", 0xc533_244e_50a8_3784, 2110, 6646),
    ("modular_fpnps_edf", 0x2ac4_a046_a1c8_e858, 3678, 11316),
    ("fan_in_routed", 0x77cb_7a4d_3e98_0969, 409, 1184),
    ("fan_in_routed_fpnps_h2", 0x28e5_c068_536b_160e, 383, 974),
    ("offsets_h2", 0x8cf9_089e_e861_e4ce, 908, 2453),
    ("modular_h2", 0x150b_6389_2110_dea0, 2923, 9355),
];

#[test]
fn expanded_networks_and_compile_stats_match_the_pinned_construction() {
    let mut seen = Vec::new();
    for c in corpus() {
        let model = build(&c);
        let network = model.network();
        let uppaal = network_to_uppaal(network)
            .unwrap_or_else(|e| panic!("{}: export failed: {e}", c.label));
        let stats = network.compiled().stats();
        assert_eq!(
            network.compiled().dominance_queries(),
            0,
            "{}: dominance query below the threshold",
            c.label
        );
        seen.push((c.label, fnv1a(uppaal.as_bytes()), stats.programs, stats.ops));
    }
    for s in &seen {
        println!("    (\"{}\", 0x{:016x}, {}, {}),", s.0, s.1, s.2, s.3);
    }
    assert_eq!(
        seen.len(),
        PINNED.len(),
        "corpus and pinned table differ in size"
    );
    for (got, want) in seen.iter().zip(PINNED) {
        assert_eq!(
            got, want,
            "{}: expanded network or compile stats changed",
            want.0
        );
    }
}

/// The same network built the per-instance way: every expanded automaton
/// added as its own one-instance template, so it compiles directly.
fn expanded(network: &Network) -> Network {
    let mut nb = NetworkBuilder::new();
    for c in network.clocks() {
        if c.starts_running {
            nb.clock(c.name.clone());
        } else {
            nb.stopped_clock(c.name.clone());
        }
    }
    for v in network.vars() {
        nb.var(v.name.clone(), v.init, v.min, v.max);
    }
    for a in network.arrays() {
        nb.array(a.name.clone(), a.init.clone(), a.min, a.max);
    }
    for ch in network.channels() {
        match ch.kind {
            ChannelKind::Binary => nb.binary_channel(ch.name.clone()),
            ChannelKind::Broadcast => nb.broadcast_channel(ch.name.clone()),
        };
    }
    for a in network.automata() {
        nb.automaton(a.clone());
    }
    nb.build().expect("the expanded network is valid")
}

#[test]
fn relocated_programs_equal_a_direct_compile_of_every_instance() {
    for c in corpus() {
        let model = build(&c);
        let network = model.network();
        let direct = expanded(network);
        assert!(
            &direct == network,
            "{}: expansion changed the model",
            c.label
        );
        assert!(
            direct.compiled() == network.compiled(),
            "{}: relocated programs differ from a direct compile",
            c.label
        );
    }
}

/// Paper-scale seed 1, input 0 of the benchmark suite: 3,336 tasks from
/// two task shapes and 8 schedulers from three scheduler shapes, 417
/// tasks each. Every scheduler quantifier gains one dominance query: two
/// per task plus `continue` and `go_idle` for the three FPPS and two EDF
/// schedulers (836 each), one per task plus `go_idle` for the three FPNPS
/// ones (418 each), 5,434 in all; the quantifier loops themselves are
/// unchanged (332,037 ops without the queries).
#[test]
fn paper_scale_compile_stats_are_unchanged() {
    let mut config = industrial_config(&spec_with_jobs(12_500, sub_seed(1, 100)));
    for (i, p) in config.partitions.iter_mut().enumerate() {
        p.scheduler = match i % 3 {
            0 => SchedulerKind::Fpps,
            1 => SchedulerKind::Fpnps,
            _ => SchedulerKind::Edf,
        };
    }
    let model = SystemModel::build(&config).expect("paper-scale builds");
    let stats = model.network().compiled().stats();
    assert_eq!(model.network().compiled().dominance_queries(), 5_434);
    assert_eq!((stats.programs, stats.ops), (111_852, 355_441 + 5_434));
    assert!(expanded(model.network()).compiled() == model.network().compiled());
}

/// The templated and the directly built network simulate identically,
/// every case to completion (the `offsets` cases included: their releases
/// run through the `max_offset` extension of the horizon).
#[test]
fn templated_and_direct_models_simulate_identically() {
    for c in corpus() {
        let model = build(&c);
        let direct = expanded(model.network());
        let direct = swa_nsa::Simulator::new(&direct)
            .horizon(model.horizon())
            .run();
        let templated = model.simulate();
        assert_eq!(
            templated, direct,
            "{}: templated and direct networks differ",
            c.label
        );
        let outcome = templated.unwrap_or_else(|e| panic!("{}: simulation failed: {e}", c.label));
        let report = Analyzer::new(&c.config)
            .horizon(c.hyperperiods)
            .topology_opt(c.topology.as_ref())
            .run()
            .unwrap_or_else(|e| panic!("{}: analysis failed: {e}", c.label));
        assert_eq!(report.metrics.steps, outcome.steps, "{}", c.label);
    }
}
