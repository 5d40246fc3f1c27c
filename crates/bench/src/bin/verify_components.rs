//! Experiment F2 — observer verification of the concrete automata types
//! (the paper's Fig. 2 and the Sect. 3 requirement set): bad locations must
//! be unreachable for every scheduler implementation across a parameter
//! sweep, checked both by runtime monitoring and by exhaustive product
//! exploration.
//!
//! Usage: `cargo run --release -p swa-bench --bin verify_components`

#![forbid(unsafe_code)]

use swa_core::SystemModel;
use swa_ima::{
    Configuration, CoreRef, CoreType, CoreTypeId, Module, ModuleId, Partition, SchedulerKind, Task,
    Window,
};
use swa_mc::observers::fig2_dot;
use swa_mc::verify::{verify_by_model_checking, verify_by_simulation};

fn sweep_config(kind: SchedulerKind, c1: i64, c2: i64, p1: i64, p2: i64) -> Configuration {
    let l = swa_ima::util::lcm(p1, p2).expect("periods fit");
    Configuration {
        core_types: vec![CoreType::new("generic")],
        modules: vec![Module::homogeneous("M1", 1, CoreTypeId::from_raw(0))],
        partitions: vec![Partition::new(
            "P1",
            kind,
            vec![
                Task::new("t1", 2, vec![c1], p1),
                Task::new("t2", 1, vec![c2], p2),
            ],
        )],
        binding: vec![CoreRef::new(ModuleId::from_raw(0), 0)],
        windows: vec![vec![Window::new(0, l)]],
        messages: vec![],
    }
}

fn main() {
    println!("Observer verification (Fig. 2 + Sect. 3 requirements)");
    println!();

    // Print the Fig. 2 observer itself.
    let demo = sweep_config(SchedulerKind::Fpps, 2, 3, 10, 20);
    let model = SystemModel::build(&demo).expect("valid config");
    println!("Fig. 2 observer (partition 0) as Graphviz DOT:");
    println!("{}", fig2_dot(&model, 0));

    let params: Vec<(i64, i64, i64, i64)> = vec![
        (1, 1, 5, 10),
        (2, 3, 10, 10),
        (3, 2, 10, 20),
        (4, 1, 10, 5),
        (5, 5, 20, 40),
        (7, 2, 20, 10),
    ];
    let kinds = [
        SchedulerKind::Fpps,
        SchedulerKind::Fpnps,
        SchedulerKind::Edf,
    ];

    let mut checked = 0;
    let mut violations = 0;
    let mut states_total = 0usize;
    for kind in kinds {
        for &(c1, c2, p1, p2) in &params {
            let config = sweep_config(kind, c1, c2, p1, p2);
            let model = SystemModel::build(&config).expect("valid config");

            let sim = verify_by_simulation(&model, &config).expect("simulation verify");
            let mc = verify_by_model_checking(&model, &config, 10_000_000).expect("mc verify");
            checked += 1;
            states_total += mc.states;
            let ok = sim.ok() && mc.ok();
            if !ok {
                violations += 1;
            }
            println!(
                "{kind:<5} C=({c1},{c2}) P=({p1},{p2}): simulation {} ({} observers), \
                 model checking {} ({} states)",
                if sim.ok() { "ok" } else { "VIOLATED" },
                sim.observers,
                if mc.ok() { "ok" } else { "VIOLATED" },
                mc.states
            );
            for v in sim.violations.iter().chain(&mc.violations) {
                println!("    !! {v}");
            }
        }
    }

    println!();
    println!(
        "{checked} (scheduler, parameters) valuations checked, {violations} violations, \
         {states_total} product states explored"
    );
    println!(
        "verdict: bad locations {}",
        if violations == 0 {
            "UNREACHABLE for all components (paper's Sect. 3 result reproduced)"
        } else {
            "REACHABLE — component requirement violated!"
        }
    );
    assert_eq!(violations, 0, "observer violations found");
}
