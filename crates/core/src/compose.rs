//! Module decomposition for compositional analysis.
//!
//! ARINC-653-style partition windows make modules *temporally isolated*:
//! a core's schedule is decided entirely by the partitions bound to it,
//! their windows and their tasks, so a configuration whose modules do not
//! exchange messages decomposes into independent per-module
//! sub-configurations whose analyses compose exactly — the compositional
//! decomposition the avionics line of work exploits (Han et al.,
//! arXiv:1807.11570, arXiv:1803.11050). [`decompose`] performs and
//! *validates* that split; configurations it cannot prove independent fall
//! back to whole-configuration analysis, soundly and explicitly
//! ([`FallbackReason`]).
//!
//! Two conditions gate the decomposition:
//!
//! 1. **No cross-module virtual links.** A message between partitions
//!    bound to different modules couples the receiver's data-readiness to
//!    the sender's schedule, so neither module can be analyzed alone.
//!    Intra-module messages survive the split (with partition ids
//!    remapped); any cross-module message forces
//!    [`FallbackReason::CrossModuleMessage`].
//! 2. **Hyperperiod preservation.** Partition windows repeat with the
//!    *whole* configuration's hyperperiod `L`, and `Configuration`
//!    validation requires every window to end by `L`. A module whose own
//!    task periods produce a smaller LCM would re-validate its inherited
//!    windows against the wrong period — a different schedule, not a
//!    refactoring — so every module must satisfy `L_module == L`
//!    ([`FallbackReason::HyperperiodMismatch`] otherwise). Harmonic period
//!    menus (the common avionics practice and this workspace's generator
//!    default) satisfy this whenever each module contains a task of the
//!    longest period.
//!
//! When both hold, the per-module analyses are *exactly* the whole
//! analysis restricted to each module's tasks: [`compose_analysis`]
//! stitches them back together into an [`Analysis`] equal to the
//! whole-configuration one (the compositional differential suite enforces
//! equality on both evaluation engines).

use std::collections::HashMap;
use std::sync::Arc;

use swa_ima::{Configuration, CoreRef, ModuleId, PartitionId, TaskRef};

use crate::analysis::{Analysis, JobOutcome};
use crate::cache::{CachedVerdict, VerdictCache};
use crate::canon::canonicalize;
use crate::ladder::DecidedBy;

/// Why a configuration must be analyzed whole instead of per module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FallbackReason {
    /// A virtual link connects partitions on different modules; their
    /// schedules are coupled through data readiness.
    CrossModuleMessage {
        /// Name of the offending message.
        message: String,
    },
    /// A module's own task periods produce a hyperperiod smaller than the
    /// whole configuration's, so its windows cannot be re-validated in
    /// isolation.
    HyperperiodMismatch {
        /// Name of the offending module.
        module: String,
    },
    /// The configuration has no modules.
    NoModules,
    /// The configuration has no partitions (nothing to decompose; the
    /// whole analysis is vacuous anyway).
    NoPartitions,
    /// The configuration is structurally inconsistent (arity mismatches,
    /// dangling references, hyperperiod overflow); whole-configuration
    /// analysis will report the precise validation errors.
    Invalid,
}

impl std::fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::CrossModuleMessage { message } => {
                write!(f, "message {message:?} crosses a module boundary")
            }
            Self::HyperperiodMismatch { module } => {
                write!(f, "module {module:?} has a smaller hyperperiod than the configuration")
            }
            Self::NoModules => f.write_str("the configuration has no modules"),
            Self::NoPartitions => f.write_str("the configuration has no partitions"),
            Self::Invalid => f.write_str("the configuration is structurally invalid"),
        }
    }
}

/// One module's extracted sub-configuration, plus the mapping back into
/// the parent configuration's partition ids.
#[derive(Debug, Clone)]
pub struct ModulePart {
    /// The module's id in the parent configuration.
    pub module: ModuleId,
    /// The module's name (for composed diagnoses).
    pub name: String,
    /// The self-contained sub-configuration: all core types, exactly this
    /// module (renumbered to module 0), its partitions (densely
    /// renumbered), their windows, and the module's internal messages.
    pub sub: Configuration,
    /// Global [`PartitionId`] of each sub-configuration partition, indexed
    /// by local partition id.
    pub partitions: Vec<PartitionId>,
}

impl ModulePart {
    /// Maps a sub-configuration partition id back to the parent's.
    #[must_use]
    pub fn global_partition(&self, local: PartitionId) -> PartitionId {
        self.partitions[local.index()]
    }

    /// Maps a sub-configuration task reference back to the parent's.
    #[must_use]
    pub fn global_task(&self, local: TaskRef) -> TaskRef {
        TaskRef::new(self.global_partition(local.partition), local.task)
    }
}

/// The outcome of attempting a per-module decomposition.
#[derive(Debug, Clone)]
pub enum Decomposition {
    /// The configuration split into independent per-module parts (modules
    /// without partitions are omitted — they run no jobs).
    Modules(Vec<ModulePart>),
    /// The configuration must be analyzed whole, for the stated reason.
    Whole(FallbackReason),
}

impl Decomposition {
    /// The parts, when the configuration decomposed.
    #[must_use]
    pub fn parts(&self) -> Option<&[ModulePart]> {
        match self {
            Self::Modules(parts) => Some(parts),
            Self::Whole(_) => None,
        }
    }
}

/// Splits a configuration into independent per-module sub-configurations,
/// or reports why it cannot (see the module docs for the soundness
/// conditions).
///
/// The split is purely structural: names, schedulers, task parameters,
/// windows and intra-module messages are preserved verbatim; only ids are
/// renumbered (the module to 0, its partitions densely from 0, message
/// endpoints accordingly). Each part's sub-configuration is therefore a
/// valid stand-alone configuration with the same hyperperiod as the
/// parent, and its canonical key depends only on this module's content —
/// never on sibling modules or on module ordering.
#[must_use]
pub fn decompose(config: &Configuration) -> Decomposition {
    if config.modules.is_empty() {
        return Decomposition::Whole(FallbackReason::NoModules);
    }
    if config.partitions.is_empty() {
        return Decomposition::Whole(FallbackReason::NoPartitions);
    }
    if config.binding.len() != config.partitions.len()
        || config.windows.len() != config.partitions.len()
    {
        return Decomposition::Whole(FallbackReason::Invalid);
    }
    let Some(hyperperiod) = config.hyperperiod() else {
        return Decomposition::Whole(FallbackReason::Invalid);
    };

    // Classify every virtual link: an endpoint on an unknown module is a
    // validation problem, endpoints on two modules couple their schedules.
    for m in &config.messages {
        let (Some(s), Some(r)) = (
            config.bound_core(m.sender.partition),
            config.bound_core(m.receiver.partition),
        ) else {
            return Decomposition::Whole(FallbackReason::Invalid);
        };
        if s.module != r.module {
            return Decomposition::Whole(FallbackReason::CrossModuleMessage {
                message: m.name.clone(),
            });
        }
    }

    // Group partitions by owning module, preserving the global order.
    let mut owned: Vec<Vec<usize>> = vec![Vec::new(); config.modules.len()];
    for (pi, core) in config.binding.iter().enumerate() {
        let mi = core.module.index();
        if mi >= config.modules.len() {
            return Decomposition::Whole(FallbackReason::Invalid);
        }
        owned[mi].push(pi);
    }

    let mut parts = Vec::new();
    for (mi, partition_indices) in owned.iter().enumerate() {
        if partition_indices.is_empty() {
            continue; // no partitions, no jobs: nothing to analyze
        }
        let partitions: Vec<PartitionId> = partition_indices
            .iter()
            .map(|&pi| PartitionId::from_raw(u32::try_from(pi).expect("partition count fits u32")))
            .collect();
        let local: HashMap<PartitionId, PartitionId> = partitions
            .iter()
            .enumerate()
            .map(|(li, &pid)| {
                (
                    pid,
                    PartitionId::from_raw(u32::try_from(li).expect("partition count fits u32")),
                )
            })
            .collect();

        let mut sub = Configuration {
            core_types: config.core_types.clone(),
            modules: vec![config.modules[mi].clone()],
            partitions: Vec::with_capacity(partition_indices.len()),
            binding: Vec::with_capacity(partition_indices.len()),
            windows: Vec::with_capacity(partition_indices.len()),
            messages: Vec::new(),
        };
        for &pi in partition_indices {
            sub.partitions.push(config.partitions[pi].clone());
            sub.binding
                .push(CoreRef::new(ModuleId::from_raw(0), config.binding[pi].core));
            sub.windows.push(config.windows[pi].clone());
        }
        // The cross-module scan above guarantees a message is either fully
        // inside this module or fully outside it.
        for m in &config.messages {
            if let (Some(&ls), Some(&lr)) = (
                local.get(&m.sender.partition),
                local.get(&m.receiver.partition),
            ) {
                let mut msg = m.clone();
                msg.sender = TaskRef::new(ls, m.sender.task);
                msg.receiver = TaskRef::new(lr, m.receiver.task);
                sub.messages.push(msg);
            }
        }

        if sub.hyperperiod() != Some(hyperperiod) {
            return Decomposition::Whole(FallbackReason::HyperperiodMismatch {
                module: config.modules[mi].name.clone(),
            });
        }
        parts.push(ModulePart {
            module: ModuleId::from_raw(u32::try_from(mi).expect("module count fits u32")),
            name: config.modules[mi].name.clone(),
            sub,
            partitions,
        });
    }
    Decomposition::Modules(parts)
}

/// Stitches per-module analyses back into the whole-configuration
/// analysis: every job and task-stat record is remapped to its global
/// partition id and re-ordered into the parent's partition-major task
/// order, so the result equals what whole-configuration analysis produces
/// on a decomposable configuration.
#[must_use]
pub fn compose_analysis(parts: &[ModulePart], analyses: &[Analysis]) -> Analysis {
    assert_eq!(parts.len(), analyses.len(), "one analysis per part");
    let hyperperiod = analyses.iter().map(|a| a.hyperperiod).max().unwrap_or(0);
    let mut jobs = Vec::new();
    let mut task_stats = Vec::new();
    for (part, a) in parts.iter().zip(analyses) {
        for j in &a.jobs {
            let mut j = j.clone();
            j.task = part.global_task(j.task);
            jobs.push(j);
        }
        for ts in &a.task_stats {
            let mut ts = ts.clone();
            ts.task = part.global_task(ts.task);
            task_stats.push(ts);
        }
    }
    // Whole-configuration order: partition-major, tasks in declaration
    // order, jobs by index.
    jobs.sort_by_key(|j| (j.task.partition.raw(), j.task.task, j.job));
    task_stats.sort_by_key(|ts| (ts.task.partition.raw(), ts.task.task));
    let schedulable = jobs.iter().all(JobOutcome::is_ok);
    Analysis {
        schedulable,
        jobs,
        task_stats,
        hyperperiod,
    }
}

/// Composes per-module cached verdicts into the whole-configuration
/// cached verdict (conjunction of schedulability, sums of job counts,
/// union of missing partitions remapped to global ids). The composed
/// verdict is labelled [`DecidedBy::Simulation`] only when every part is;
/// otherwise it carries the first ladder-decided part's tier, since its
/// job counts miss that part.
#[must_use]
pub fn compose_cached(parts: &[ModulePart], verdicts: &[Arc<CachedVerdict>]) -> CachedVerdict {
    assert_eq!(parts.len(), verdicts.len(), "one verdict per part");
    // The job counts are exact only when every part was simulated; a part
    // decided by the ladder contributes none, so the composed verdict
    // carries the first such part's tier.
    let decided_by = verdicts
        .iter()
        .map(|v| v.decided_by)
        .find(|&d| d != DecidedBy::Simulation)
        .unwrap_or(DecidedBy::Simulation);
    let mut out = CachedVerdict {
        schedulable: true,
        hyperperiod: 0,
        jobs: 0,
        missed_jobs: 0,
        missing_partitions: Vec::new(),
        decided_by,
    };
    for (part, v) in parts.iter().zip(verdicts) {
        out.schedulable &= v.schedulable;
        out.hyperperiod = out.hyperperiod.max(v.hyperperiod);
        out.jobs += v.jobs;
        out.missed_jobs += v.missed_jobs;
        out.missing_partitions
            .extend(v.missing_partitions.iter().map(|&p| part.global_partition(p)));
    }
    out.missing_partitions.sort_unstable();
    out.missing_partitions.dedup();
    out
}

/// Cache lookup with per-module composition: answers from the whole-config
/// key when possible, otherwise — for decomposable configurations — from
/// the per-module keys when *every* module's verdict is cached (the
/// composed whole-config entry is inserted back, so the next identical
/// request is a direct hit). Returns `None` when the verdict genuinely
/// requires analysis.
///
/// This is the delta-aware reuse path: after one partition of one module
/// is edited, every *unchanged* module still answers from the cache, and
/// only the edited module needs fresh analysis before the next composed
/// lookup succeeds.
pub fn compositional_lookup(
    cache: &dyn VerdictCache,
    config: &Configuration,
    hyperperiods: u32,
) -> Option<Arc<CachedVerdict>> {
    let whole = canonicalize(config, hyperperiods);
    if let Some(v) = cache.lookup(&whole) {
        return Some(v);
    }
    let Decomposition::Modules(parts) = decompose(config) else {
        return None;
    };
    let mut verdicts = Vec::with_capacity(parts.len());
    for part in &parts {
        verdicts.push(cache.lookup(&canonicalize(&part.sub, hyperperiods))?);
    }
    let composed = Arc::new(compose_cached(&parts, &verdicts));
    cache.insert(&whole, composed.clone());
    Some(composed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swa_ima::{
        CoreType, CoreTypeId, Message, Module, Partition, SchedulerKind, Task, Window,
    };

    /// Two modules, two partitions each, no messages; every partition has
    /// a task at the longest period so both modules share the full
    /// hyperperiod (200).
    fn two_module_config() -> Configuration {
        let ct = CoreTypeId::from_raw(0);
        Configuration {
            core_types: vec![CoreType::new("generic")],
            modules: vec![
                Module::homogeneous("M1", 1, ct),
                Module::homogeneous("M2", 1, ct),
            ],
            partitions: vec![
                Partition::new(
                    "P1",
                    SchedulerKind::Fpps,
                    vec![
                        Task::new("a", 2, vec![5], 100),
                        Task::new("b", 1, vec![10], 200),
                    ],
                ),
                Partition::new(
                    "P2",
                    SchedulerKind::Fpps,
                    vec![Task::new("c", 1, vec![8], 200)],
                ),
                Partition::new(
                    "P3",
                    SchedulerKind::Edf,
                    vec![Task::new("d", 0, vec![12], 200)],
                ),
            ],
            binding: vec![
                CoreRef::new(ModuleId::from_raw(0), 0),
                CoreRef::new(ModuleId::from_raw(1), 0),
                CoreRef::new(ModuleId::from_raw(0), 0),
            ],
            windows: vec![
                vec![Window::new(0, 60), Window::new(100, 160)],
                vec![Window::new(0, 200)],
                vec![Window::new(60, 100), Window::new(160, 200)],
            ],
            messages: vec![],
        }
    }

    #[test]
    fn decomposes_along_module_boundaries() {
        let config = two_module_config();
        config.validate().unwrap();
        let Decomposition::Modules(parts) = decompose(&config) else {
            panic!("expected a decomposition");
        };
        assert_eq!(parts.len(), 2);
        // M1 owns P1 and P3 (global partitions 0 and 2), M2 owns P2.
        assert_eq!(parts[0].name, "M1");
        assert_eq!(
            parts[0].partitions,
            vec![PartitionId::from_raw(0), PartitionId::from_raw(2)]
        );
        assert_eq!(parts[1].name, "M2");
        assert_eq!(parts[1].partitions, vec![PartitionId::from_raw(1)]);
        // Every part is a valid stand-alone configuration with the
        // parent's hyperperiod.
        for part in &parts {
            part.sub.validate().unwrap();
            assert_eq!(part.sub.hyperperiod(), config.hyperperiod());
            assert_eq!(part.sub.modules.len(), 1);
        }
        // Remapping round-trips.
        assert_eq!(
            parts[0].global_task(TaskRef::new(PartitionId::from_raw(1), 0)),
            TaskRef::new(PartitionId::from_raw(2), 0)
        );
    }

    #[test]
    fn intra_module_messages_survive_with_remapped_ids() {
        let mut config = two_module_config();
        // P1 task "b" → P3 task "d": both on M1, both period 200.
        config.messages.push(Message::new(
            "m1_internal",
            TaskRef::new(PartitionId::from_raw(0), 1),
            TaskRef::new(PartitionId::from_raw(2), 0),
            1,
            7,
        ));
        config.validate().unwrap();
        let Decomposition::Modules(parts) = decompose(&config) else {
            panic!("expected a decomposition");
        };
        assert_eq!(parts[0].sub.messages.len(), 1);
        let m = &parts[0].sub.messages[0];
        assert_eq!(m.sender, TaskRef::new(PartitionId::from_raw(0), 1));
        assert_eq!(m.receiver, TaskRef::new(PartitionId::from_raw(1), 0));
        assert!(parts[1].sub.messages.is_empty());
        parts[0].sub.validate().unwrap();
    }

    #[test]
    fn cross_module_message_forces_whole_fallback() {
        let mut config = two_module_config();
        config.messages.push(Message::new(
            "crossing",
            TaskRef::new(PartitionId::from_raw(0), 1), // M1, period 200
            TaskRef::new(PartitionId::from_raw(1), 0), // M2, period 200
            1,
            7,
        ));
        config.validate().unwrap();
        let Decomposition::Whole(reason) = decompose(&config) else {
            panic!("expected a fallback");
        };
        assert_eq!(
            reason,
            FallbackReason::CrossModuleMessage {
                message: "crossing".into()
            }
        );
        assert!(reason.to_string().contains("crossing"));
    }

    #[test]
    fn hyperperiod_mismatch_forces_whole_fallback() {
        let mut config = two_module_config();
        // Shrink M2's only task to period 100: its isolated hyperperiod
        // (100) no longer matches the whole configuration's (200).
        config.partitions[1].tasks[0].period = 100;
        config.partitions[1].tasks[0].deadline = 100;
        config.windows[1] = vec![Window::new(0, 200)];
        let Decomposition::Whole(reason) = decompose(&config) else {
            panic!("expected a fallback");
        };
        assert_eq!(
            reason,
            FallbackReason::HyperperiodMismatch {
                module: "M2".into()
            }
        );
    }

    #[test]
    fn degenerate_configurations_fall_back() {
        assert!(matches!(
            decompose(&Configuration::new()),
            Decomposition::Whole(FallbackReason::NoModules)
        ));
        let mut no_partitions = two_module_config();
        no_partitions.partitions.clear();
        no_partitions.binding.clear();
        no_partitions.windows.clear();
        assert!(matches!(
            decompose(&no_partitions),
            Decomposition::Whole(FallbackReason::NoPartitions)
        ));
        let mut bad_arity = two_module_config();
        bad_arity.binding.pop();
        assert!(matches!(
            decompose(&bad_arity),
            Decomposition::Whole(FallbackReason::Invalid)
        ));
        let mut dangling = two_module_config();
        dangling.binding[1] = CoreRef::new(ModuleId::from_raw(9), 0);
        assert!(matches!(
            decompose(&dangling),
            Decomposition::Whole(FallbackReason::Invalid)
        ));
    }

    #[test]
    fn partition_less_modules_are_omitted() {
        let mut config = two_module_config();
        config
            .modules
            .push(Module::homogeneous("M3", 1, CoreTypeId::from_raw(0)));
        config.validate().unwrap();
        let Decomposition::Modules(parts) = decompose(&config) else {
            panic!("expected a decomposition");
        };
        assert_eq!(parts.len(), 2);
        assert!(parts.iter().all(|p| p.name != "M3"));
    }

    #[test]
    fn composed_analysis_equals_whole_analysis() {
        let config = two_module_config();
        let whole = crate::analyze_configuration(&config).unwrap();
        let Decomposition::Modules(parts) = decompose(&config) else {
            panic!("expected a decomposition");
        };
        let analyses: Vec<Analysis> = parts
            .iter()
            .map(|p| crate::analyze_configuration(&p.sub).unwrap().analysis)
            .collect();
        let composed = compose_analysis(&parts, &analyses);
        assert_eq!(composed, whole.analysis);
    }

    #[test]
    fn composed_cached_verdict_matches_whole() {
        let mut config = two_module_config();
        // Overload M2 so the composed diagnosis is non-trivial.
        config.partitions[1].tasks[0].wcet = vec![500];
        config.windows[1] = vec![Window::new(0, 100)];
        let whole =
            CachedVerdict::from_report(&crate::analyze_configuration(&config).unwrap());
        let Decomposition::Modules(parts) = decompose(&config) else {
            panic!("expected a decomposition");
        };
        let verdicts: Vec<Arc<CachedVerdict>> = parts
            .iter()
            .map(|p| {
                Arc::new(CachedVerdict::from_report(
                    &crate::analyze_configuration(&p.sub).unwrap(),
                ))
            })
            .collect();
        let composed = compose_cached(&parts, &verdicts);
        assert_eq!(composed, whole);
        assert!(!composed.schedulable);
        assert_eq!(composed.missing_partitions, vec![PartitionId::from_raw(1)]);
    }

    #[test]
    fn composed_provenance_is_simulation_only_when_every_part_is() {
        let config = two_module_config();
        let Decomposition::Modules(parts) = decompose(&config) else {
            panic!("expected a decomposition");
        };
        let simulated = |p: &ModulePart| {
            Arc::new(CachedVerdict::from_report(
                &crate::analyze_configuration(&p.sub).unwrap(),
            ))
        };
        let laddered = |p: &ModulePart, decided_by| {
            Arc::new(CachedVerdict {
                jobs: 0,
                missed_jobs: 0,
                decided_by,
                ..(*simulated(p)).clone()
            })
        };
        let (m1, m2) = (&parts[0], &parts[1]);
        let cases = [
            (vec![simulated(m1), simulated(m2)], DecidedBy::Simulation),
            (
                vec![simulated(m1), laddered(m2, DecidedBy::WindowRta)],
                DecidedBy::WindowRta,
            ),
            (
                vec![laddered(m1, DecidedBy::RtcInterface), simulated(m2)],
                DecidedBy::RtcInterface,
            ),
            (
                vec![
                    laddered(m1, DecidedBy::WindowRta),
                    laddered(m2, DecidedBy::RtcInterface),
                ],
                DecidedBy::WindowRta,
            ),
        ];
        for (verdicts, expected) in cases {
            let composed = compose_cached(&parts, &verdicts);
            assert_eq!(composed.decided_by, expected, "{verdicts:?}");
            assert!(composed.schedulable);
        }
    }

    #[test]
    fn compositional_lookup_composes_from_module_entries() {
        let cache = crate::ShardedVerdictCache::new(1 << 20);
        let config = two_module_config();
        let Decomposition::Modules(parts) = decompose(&config) else {
            panic!("expected a decomposition");
        };

        // Nothing cached: no answer.
        assert!(compositional_lookup(&cache, &config, 1).is_none());

        // Seed only the per-module entries (what analyzing *other*
        // configurations sharing these modules would have left behind).
        for part in &parts {
            let report = crate::analyze_configuration(&part.sub).unwrap();
            cache.insert(
                &canonicalize(&part.sub, 1),
                Arc::new(CachedVerdict::from_report(&report)),
            );
        }
        let composed = compositional_lookup(&cache, &config, 1).expect("composed");
        let whole = CachedVerdict::from_report(&crate::analyze_configuration(&config).unwrap());
        assert_eq!(*composed, whole);

        // The composed entry was inserted back: the next lookup is a
        // direct whole-config hit even with the module entries evicted.
        let before = cache.stats().hits;
        assert!(compositional_lookup(&cache, &config, 1).is_some());
        assert_eq!(cache.stats().hits, before + 1);
    }
}
