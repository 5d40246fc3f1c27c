//! Parallel explicit-state reachability.
//!
//! The sequential explorer ([`crate::explore::Explorer`]) is the faithful
//! Table 1 baseline; this module is the engineering follow-up: the same
//! search fanned out over worker threads with a sharded visited set and a
//! shared work stack. Monitors and witnesses are not supported here — use
//! the sequential explorer for those.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use swa_nsa::semantics::{any_committed, apply, enabled_transitions};
use swa_nsa::{Network, SimError, State};

use crate::explore::{delay_successor, ExploreOutcome};
use crate::visited::VisitedSet;

struct Shared<'n, F> {
    network: &'n Network,
    horizon: i64,
    max_states: usize,
    target: F,
    visited: VisitedSet,
    work: Mutex<Vec<State>>,
    idle: AtomicUsize,
    stop: AtomicBool,
    truncated: AtomicBool,
    found: Mutex<Option<State>>,
    error: Mutex<Option<SimError>>,
    transitions: AtomicU64,
}

impl<F: Fn(&Network, &State) -> bool + Sync> Shared<'_, F> {
    fn visit(&self, state: &State) -> bool {
        let fresh = self.visited.insert(state.fingerprint());
        if fresh && self.visited.len() >= self.max_states {
            self.truncated.store(true, Ordering::Relaxed);
            self.stop.store(true, Ordering::Relaxed);
        }
        fresh
    }

    fn report_found(&self, state: State) {
        let mut slot = self.found.lock().expect("unpoisoned");
        if slot.is_none() {
            *slot = Some(state);
        }
        self.stop.store(true, Ordering::Relaxed);
    }

    fn report_error(&self, e: SimError) {
        let mut slot = self.error.lock().expect("unpoisoned");
        if slot.is_none() {
            *slot = Some(e);
        }
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Expands one state; pushes unvisited successors onto `out`.
    fn expand(&self, state: &State, out: &mut Vec<State>) -> Result<(), SimError> {
        if state.time >= self.horizon {
            return Ok(());
        }
        let candidates = enabled_transitions(self.network, state)?;
        if candidates.is_empty() {
            if any_committed(self.network, state) {
                return Ok(());
            }
            let Some(delay) = delay_successor(self.network, state, self.horizon)? else {
                return Ok(());
            };
            let mut succ = state.clone();
            succ.advance(delay);
            self.transitions.fetch_add(1, Ordering::Relaxed);
            if (self.target)(self.network, &succ) {
                self.report_found(succ);
            } else if self.visit(&succ) {
                out.push(succ);
            }
            return Ok(());
        }
        for t in candidates {
            let mut succ = state.clone();
            match apply(self.network, &mut succ, &t) {
                Ok(()) => {}
                Err(SimError::InvariantViolated { .. }) => continue,
                Err(e) => return Err(e),
            }
            self.transitions.fetch_add(1, Ordering::Relaxed);
            if (self.target)(self.network, &succ) {
                self.report_found(succ);
                return Ok(());
            }
            if self.visit(&succ) {
                out.push(succ);
            }
        }
        Ok(())
    }
}

/// Explores all interleavings with `threads` workers, looking for a state
/// satisfying `target`.
///
/// Semantics match [`crate::explore::Explorer::reachable`] (same successor
/// relation, same hash-compacted visited set); only the exploration order
/// differs, which cannot change a reachability verdict.
///
/// # Errors
///
/// Propagates evaluation/update errors from the network semantics.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn reachable_parallel<F>(
    network: &Network,
    horizon: i64,
    threads: usize,
    max_states: usize,
    target: F,
) -> Result<ExploreOutcome, SimError>
where
    F: Fn(&Network, &State) -> bool + Sync,
{
    assert!(threads > 0, "need at least one worker");

    let initial = State::initial(network);
    if target(network, &initial) {
        return Ok(ExploreOutcome {
            states: 1,
            transitions: 0,
            target_state: Some(initial),
            witness: Some(Vec::new()),
            monitor_violations: Vec::new(),
            truncated: false,
        });
    }

    let shared = Shared {
        network,
        horizon,
        max_states,
        target,
        visited: VisitedSet::default(),
        work: Mutex::new(Vec::new()),
        idle: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        truncated: AtomicBool::new(false),
        found: Mutex::new(None),
        error: Mutex::new(None),
        transitions: AtomicU64::new(0),
    };
    shared.visit(&initial);
    shared.work.lock().expect("unpoisoned").push(initial);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut local: Vec<State> = Vec::new();
                let mut out: Vec<State> = Vec::new();
                loop {
                    if shared.stop.load(Ordering::Relaxed) {
                        return;
                    }
                    // Refill from the shared stack when the local one runs
                    // dry.
                    if local.is_empty() {
                        let mut work = shared.work.lock().expect("unpoisoned");
                        let take = work.len().div_ceil(threads).clamp(1, 256);
                        let n = take.min(work.len());
                        let at = work.len() - n;
                        local.extend(work.drain(at..));
                        drop(work);
                        if local.is_empty() {
                            // Nothing to do: maybe everyone is done.
                            let idle = shared.idle.fetch_add(1, Ordering::SeqCst) + 1;
                            if idle == threads && shared.work.lock().expect("unpoisoned").is_empty()
                            {
                                shared.stop.store(true, Ordering::Relaxed);
                                shared.idle.fetch_sub(1, Ordering::SeqCst);
                                return;
                            }
                            std::thread::yield_now();
                            shared.idle.fetch_sub(1, Ordering::SeqCst);
                            continue;
                        }
                    }
                    while let Some(state) = local.pop() {
                        if shared.stop.load(Ordering::Relaxed) {
                            return;
                        }
                        if let Err(e) = shared.expand(&state, &mut out) {
                            shared.report_error(e);
                            return;
                        }
                        // Keep a slice local; share the rest.
                        if out.len() > 64 {
                            let keep = out.split_off(out.len() - 16);
                            shared.work.lock().expect("unpoisoned").append(&mut out);
                            out = keep;
                        }
                    }
                    local.append(&mut out);
                    if local.is_empty() {
                        continue;
                    }
                    // Publish half of the local work for stealing.
                    if local.len() > 1 {
                        let half = local.split_off(local.len() / 2);
                        shared.work.lock().expect("unpoisoned").extend(half);
                    }
                }
            });
        }
    });

    if let Some(e) = shared.error.into_inner().expect("unpoisoned") {
        return Err(e);
    }
    let target_state = shared.found.into_inner().expect("unpoisoned");
    Ok(ExploreOutcome {
        states: shared.visited.len(),
        transitions: shared.transitions.load(Ordering::Relaxed),
        target_state,
        witness: None,
        monitor_violations: Vec::new(),
        truncated: shared.truncated.load(Ordering::Relaxed),
    })
}

/// Parallel schedulability check (the deadline-miss target of
/// [`crate::schedcheck::check_schedulable_mc`]).
///
/// # Errors
///
/// Propagates semantic errors from the exploration.
pub fn check_schedulable_mc_parallel(
    model: &swa_core::SystemModel,
    threads: usize,
) -> Result<crate::schedcheck::McVerdict, SimError> {
    let out = reachable_parallel(
        model.network(),
        model.horizon(),
        threads,
        usize::MAX,
        crate::schedcheck::deadline_missed(model),
    )?;
    Ok(crate::schedcheck::McVerdict {
        schedulable: !out.found(),
        states: out.states,
        transitions: out.transitions,
        truncated: out.truncated,
        witness: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_schedulable_mc;
    use swa_core::SystemModel;
    use swa_workload::table1_config;

    #[test]
    fn parallel_agrees_with_sequential_on_schedulable() {
        let config = table1_config(6);
        let model = SystemModel::build(&config).unwrap();
        let seq = check_schedulable_mc(&model).unwrap();
        for threads in [1, 2, 4, 8] {
            let par = check_schedulable_mc_parallel(&model, threads).unwrap();
            assert_eq!(par.schedulable, seq.schedulable, "{threads} threads");
            // Same reachable set (exploration order differs, the set does
            // not — both run to exhaustion when no miss exists).
            assert_eq!(par.states, seq.states, "{threads} threads");
        }
    }

    #[test]
    fn parallel_finds_misses() {
        use swa_ima::{
            Configuration, CoreRef, CoreType, CoreTypeId, Module, ModuleId, Partition,
            SchedulerKind, Task, Window,
        };
        let config = Configuration {
            core_types: vec![CoreType::new("ct")],
            modules: vec![Module::homogeneous("M", 1, CoreTypeId::from_raw(0))],
            partitions: vec![Partition::new(
                "P",
                SchedulerKind::Fpps,
                vec![
                    Task::new("a", 2, vec![8], 10),
                    Task::new("b", 1, vec![9], 20),
                ],
            )],
            binding: vec![CoreRef::new(ModuleId::from_raw(0), 0)],
            windows: vec![vec![Window::new(0, 20)]],
            messages: vec![],
        };
        let model = SystemModel::build(&config).unwrap();
        let par = check_schedulable_mc_parallel(&model, 4).unwrap();
        assert!(!par.schedulable);
    }

    #[test]
    fn truncation_reports() {
        let config = table1_config(8);
        let model = SystemModel::build(&config).unwrap();
        let out =
            reachable_parallel(model.network(), model.horizon(), 2, 100, |_, _| false).unwrap();
        assert!(out.truncated);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_panics() {
        let config = table1_config(3);
        let model = SystemModel::build(&config).unwrap();
        let _ = reachable_parallel(model.network(), model.horizon(), 0, 10, |_, _| false);
    }
}
