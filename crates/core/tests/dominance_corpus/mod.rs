//! The dominance-index corpus shared by the engine and snapshot
//! differential suites: configurations whose main partition is sized
//! around and far above [`MIN_DOMINANCE_K`], the least partition size
//! whose scheduler quantifiers the bytecode answers from tournament
//! trees. A three-task partition shares the core and comes first, so the
//! main partition's ranked cells start at global task index 3, not 0.
//!
//! Each partition is heavily overloaded (WCETs of 1–4 against periods of
//! 100 and 200, two windows per 200-tick frame), so most of its tasks are
//! ready at every scheduling decision. Releases are staggered over four
//! offsets, so jobs arrive while others run and preempt them. Priorities
//! come from `0..4` and every job of one period and offset shares its
//! absolute deadline, so equal priorities and equal deadlines exercise
//! the lower-index tie-break.

use swa_ima::{
    Configuration, CoreRef, CoreType, CoreTypeId, Module, ModuleId, Partition, SchedulerKind, Task,
    Window,
};
use swa_nsa::bytecode::MIN_DOMINANCE_K;
use swa_workload::Rng64;

/// The policies whose scheduler quantifiers the index answers.
pub const KINDS: [SchedulerKind; 3] = [
    SchedulerKind::Fpps,
    SchedulerKind::Fpnps,
    SchedulerKind::Edf,
];

/// Partition sizes: just below and at the threshold, then well above it.
pub const SIZES: [usize; 5] = [MIN_DOMINANCE_K - 1, MIN_DOMINANCE_K, 128, 256, 512];

/// One seeded configuration whose main partition has `k` tasks, all
/// partitions under `kind`.
#[must_use]
pub fn ready_heavy(k: usize, kind: SchedulerKind, seed: u64) -> Configuration {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut draw = |n: usize| i64::try_from(rng.gen_range(n)).expect("small draw");
    let mut tasks = |name: &str, count: usize| -> Vec<Task> {
        (0..count)
            .map(|i| {
                let period = [100, 200][usize::try_from(draw(2)).expect("index")];
                let offset = [0, 10, 25, 40][usize::try_from(draw(4)).expect("index")];
                Task::new(format!("{name}{i}"), draw(4), vec![1 + draw(4)], period)
                    .with_offset(offset)
            })
            .collect()
    };
    let core = CoreRef::new(ModuleId::from_raw(0), 0);
    Configuration {
        core_types: vec![CoreType::new("generic")],
        modules: vec![Module::homogeneous("M1", 1, CoreTypeId::from_raw(0))],
        partitions: vec![
            Partition::new("lead", kind, tasks("l", 3)),
            Partition::new("main", kind, tasks("t", k)),
        ],
        binding: vec![core, core],
        windows: vec![
            vec![Window::new(80, 100), Window::new(180, 200)],
            vec![Window::new(0, 80), Window::new(100, 180)],
        ],
        messages: Vec::new(),
    }
}
