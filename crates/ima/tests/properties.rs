//! Seeded property checks of the configuration domain: window algebra,
//! gcd/lcm arithmetic, and validation coherence on generated
//! configurations.

use swa_ima::util::{gcd, lcm, lcm_all};
use swa_ima::window::{normalize_windows, total_window_time};
use swa_ima::{
    Configuration, CoreRef, CoreType, CoreTypeId, Module, ModuleId, Partition, SchedulerKind, Task,
    Window,
};
use swa_workload::rng::Rng64;

const CASES: usize = 256;

/// A uniform draw from `[lo, hi)`.
fn draw(rng: &mut Rng64, lo: i64, hi: i64) -> i64 {
    lo + i64::try_from(rng.gen_range(usize::try_from(hi - lo).unwrap())).unwrap()
}

fn window(rng: &mut Rng64) -> Window {
    let start = draw(rng, 0, 50);
    Window::new(start, start + draw(rng, 1, 20))
}

/// Overlap is symmetric and agrees with the instant-level definition.
#[test]
fn overlap_is_symmetric_and_pointwise() {
    let mut rng = Rng64::seed_from_u64(1);
    for _ in 0..CASES {
        let (a, b) = (window(&mut rng), window(&mut rng));
        assert_eq!(a.overlaps(b), b.overlaps(a), "{a:?} {b:?}");
        let pointwise =
            (a.start.min(b.start)..a.end.max(b.end)).any(|t| a.contains(t) && b.contains(t));
        assert_eq!(a.overlaps(b), pointwise, "{a:?} {b:?}");
    }
}

/// Normalization yields sorted, pairwise-disjoint, non-adjacent windows
/// covering exactly the same instants.
#[test]
fn normalization_preserves_coverage() {
    let mut rng = Rng64::seed_from_u64(2);
    for _ in 0..CASES {
        let ws: Vec<Window> = (0..rng.gen_range(8)).map(|_| window(&mut rng)).collect();
        let normalized = normalize_windows(ws.clone());
        for pair in normalized.windows(2) {
            assert!(pair[0].end < pair[1].start, "{ws:?} → {normalized:?}");
        }
        for t in 0..80i64 {
            let before = ws.iter().any(|w| w.contains(t));
            let after = normalized.iter().any(|w| w.contains(t));
            assert_eq!(before, after, "instant {t}: {ws:?} → {normalized:?}");
        }
        // Total time only shrinks by removed overlap.
        assert!(total_window_time(&normalized) <= total_window_time(&ws));
    }
}

/// gcd divides both arguments; lcm is a common multiple bounded below by
/// both; `lcm_all` is divisible by every input.
#[test]
fn gcd_lcm_algebra() {
    let mut rng = Rng64::seed_from_u64(3);
    for _ in 0..CASES {
        let (a, b) = (draw(&mut rng, 1, 10_000), draw(&mut rng, 1, 10_000));
        let g = gcd(a, b);
        assert!(g > 0 && a % g == 0 && b % g == 0, "gcd({a}, {b}) = {g}");
        let l = lcm(a, b).unwrap();
        assert!(
            l % a == 0 && l % b == 0 && l >= a.max(b),
            "lcm({a}, {b}) = {l}"
        );
        assert_eq!(g * l, a * b);

        let xs: Vec<i64> = (0..1 + rng.gen_range(5))
            .map(|_| draw(&mut rng, 1, 500))
            .collect();
        let l = lcm_all(xs.iter().copied()).unwrap();
        assert!(xs.iter().all(|&x| l % x == 0), "lcm_all({xs:?}) = {l}");
    }
}

/// Well-formed single-core configurations validate, and the derived
/// quantities are consistent.
#[test]
fn wellformed_configs_validate() {
    let mut rng = Rng64::seed_from_u64(4);
    // A failure case an earlier generator found: one task of period 10.
    let regression = vec![(1, 10, 0)];
    let generated = (0..CASES).map(|_| {
        (0..1 + rng.gen_range(5))
            .map(|_| {
                let period = [10, 20, 40][rng.gen_range(3)];
                (draw(&mut rng, 1, 5), period, draw(&mut rng, 0, 10))
            })
            .collect::<Vec<(i64, i64, i64)>>()
    });
    for tasks in std::iter::once(regression).chain(generated) {
        let task_vec: Vec<Task> = tasks
            .iter()
            .enumerate()
            .map(|(i, &(wcet, period, prio))| {
                Task::new(format!("t{i}"), prio, vec![wcet.min(period)], period)
            })
            .collect();
        let expected_l = lcm_all(tasks.iter().map(|&(_, p, _)| p)).unwrap();
        let config = Configuration {
            core_types: vec![CoreType::new("ct")],
            modules: vec![Module::homogeneous("M", 1, CoreTypeId::from_raw(0))],
            partitions: vec![Partition::new("P", SchedulerKind::Fpps, task_vec)],
            binding: vec![CoreRef::new(ModuleId::from_raw(0), 0)],
            windows: vec![vec![Window::new(0, expected_l)]],
            messages: vec![],
        };
        config.validate().unwrap();
        let l = config.hyperperiod().unwrap();
        assert_eq!(l, expected_l, "{tasks:?}");
        assert!(l == 10 || l == 20 || l == 40);
        // Job count equals the sum of L / P.
        let expected: i64 = tasks.iter().map(|&(_, p, _)| l / p).sum();
        assert_eq!(
            config.job_count().unwrap(),
            u64::try_from(expected).unwrap()
        );
        let core = CoreRef::new(ModuleId::from_raw(0), 0);
        assert!(config.core_utilization(core) > 0.0, "{tasks:?}");
    }
}

/// Each way of corrupting a valid configuration is detected.
#[test]
fn corrupted_configs_are_rejected() {
    for which in 0..4 {
        let mut config = Configuration {
            core_types: vec![CoreType::new("ct")],
            modules: vec![Module::homogeneous("M", 1, CoreTypeId::from_raw(0))],
            partitions: vec![Partition::new(
                "P",
                SchedulerKind::Fpps,
                vec![Task::new("t", 1, vec![5], 20)],
            )],
            binding: vec![CoreRef::new(ModuleId::from_raw(0), 0)],
            windows: vec![vec![Window::new(0, 20)]],
            messages: vec![],
        };
        config.validate().unwrap();
        match which {
            0 => config.partitions[0].tasks[0].period = -1,
            1 => config.partitions[0].tasks[0].wcet = vec![],
            2 => config.binding[0] = CoreRef::new(ModuleId::from_raw(7), 0),
            _ => config.windows[0] = vec![Window::new(5, 5)],
        }
        assert!(config.validate().is_err(), "corruption {which} accepted");
    }
}
