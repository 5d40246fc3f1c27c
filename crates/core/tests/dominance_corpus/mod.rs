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
    Configuration, CoreRef, CoreType, CoreTypeId, Message, Module, ModuleId, Partition,
    PartitionId, SchedulerKind, Task, TaskRef, Window,
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
    let lead = tasks("l", 3);
    two_partitions(kind, lead, tasks("t", k), Vec::new())
}

/// Situations around a scheduling decision, each a configuration whose
/// main partition of `k` tasks runs under `kind` behind the same
/// three-task lead partition:
///
/// * `idle`: unit jobs released a few at a time, so the partition often
///   has no ready task and goes idle;
/// * `ties`: one priority, period and offset for every task, so every
///   key ties (equal priorities, equal absolute deadlines) and the lowest
///   ready index must win;
/// * `busy winner`: a long job of the lowest priority and the latest
///   deadline starts first and the others arrive while it runs, so the
///   scheduler decides with a task running while a ready task outranks it;
/// * `parked receivers`: messages from each even task to the next odd
///   one, released 50 ticks later, so deliveries find the receiving task
///   in a location without the receive edge.
#[must_use]
pub fn situations(k: usize, kind: SchedulerKind) -> [(&'static str, Configuration); 4] {
    let main = |task: &dyn Fn(i64) -> Task| -> Vec<Task> {
        (0..i64::try_from(k).expect("small partition"))
            .map(task)
            .collect()
    };
    let lead = || {
        (0..3)
            .map(|i| Task::new(format!("l{i}"), i, vec![2], 200).with_offset(10 * i))
            .collect()
    };
    let idle = main(&|i| Task::new(format!("t{i}"), i % 4, vec![1], 200).with_offset(i * 7 % 200));
    let ties = main(&|i| Task::new(format!("t{i}"), 1, vec![1 + i % 3], 100));
    let busy = main(&|i| match i {
        0 => Task::new("t0", 0, vec![30], 200),
        _ => Task::new(format!("t{i}"), 1 + i % 3, vec![1 + i % 2], 100).with_offset(5 + i % 20),
    });
    let chain = main(&|i| {
        Task::new(format!("t{i}"), i % 4, vec![1 + i % 3], 100).with_offset(50 * (i % 2))
    });
    let main_partition = PartitionId::from_raw(1);
    let messages = (0..u32::try_from(k / 2).expect("small partition"))
        .map(|j| {
            Message::new(
                format!("m{j}"),
                TaskRef::new(main_partition, 2 * j),
                TaskRef::new(main_partition, 2 * j + 1),
                3,
                3,
            )
        })
        .collect();
    [
        ("idle", two_partitions(kind, lead(), idle, Vec::new())),
        ("ties", two_partitions(kind, lead(), ties, Vec::new())),
        (
            "busy winner",
            two_partitions(kind, lead(), busy, Vec::new()),
        ),
        (
            "parked receivers",
            two_partitions(kind, lead(), chain, messages),
        ),
    ]
}

/// The lead partition and the main one on one core, both under `kind`,
/// with two windows each per 200-tick frame.
fn two_partitions(
    kind: SchedulerKind,
    lead: Vec<Task>,
    main: Vec<Task>,
    messages: Vec<Message>,
) -> Configuration {
    let core = CoreRef::new(ModuleId::from_raw(0), 0);
    Configuration {
        core_types: vec![CoreType::new("generic")],
        modules: vec![Module::homogeneous("M1", 1, CoreTypeId::from_raw(0))],
        partitions: vec![
            Partition::new("lead", kind, lead),
            Partition::new("main", kind, main),
        ],
        binding: vec![core, core],
        windows: vec![
            vec![Window::new(80, 100), Window::new(180, 200)],
            vec![Window::new(0, 80), Window::new(100, 180)],
        ],
        messages,
    }
}
