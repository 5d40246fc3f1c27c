//! Model-checking–based schedulability analysis: the baseline the paper
//! compares its approach against (Table 1).
//!
//! Instead of simulating one run, the checker explores **every**
//! interleaving of the NSA instance and asks whether a state is reachable
//! in which some job has missed its deadline (`is_failed[g] = 1`). With
//! many simultaneous events (independent jobs across partitions and cores)
//! the number of interleavings explodes combinatorially — which is exactly
//! the effect Table 1 measures.

use swa_core::SystemModel;
use swa_nsa::{Network, NsaTrace, SimError, State};

use crate::explore::Explorer;

/// Result of a model-checking schedulability run.
#[derive(Debug, Clone)]
pub struct McVerdict {
    /// `true` if no reachable state contains a deadline miss.
    pub schedulable: bool,
    /// Number of distinct states visited.
    pub states: usize,
    /// Number of transitions applied.
    pub transitions: u64,
    /// Whether exploration was truncated by the state cap (verdict is then
    /// only valid if a miss was found).
    pub truncated: bool,
    /// A counterexample run reaching the deadline miss, when requested with
    /// [`check_schedulable_mc_witnessed`]. Feed it to
    /// [`swa_core::extract_system_trace`] for job-level events.
    pub witness: Option<NsaTrace>,
}

/// Checks schedulability of a built model by exhaustive exploration.
///
/// # Errors
///
/// Propagates semantic errors from the underlying explorer.
pub fn check_schedulable_mc(model: &SystemModel) -> Result<McVerdict, SimError> {
    check_schedulable_mc_capped(model, usize::MAX)
}

/// As [`check_schedulable_mc`] with a state cap (for benchmarks that need
/// to bound the exponential baseline).
///
/// # Errors
///
/// Propagates semantic errors from the underlying explorer.
pub fn check_schedulable_mc_capped(
    model: &SystemModel,
    max_states: usize,
) -> Result<McVerdict, SimError> {
    run_check(model, max_states, false)
}

/// As [`check_schedulable_mc`], additionally reconstructing the
/// counterexample run when a deadline miss is reachable.
///
/// # Errors
///
/// Propagates semantic errors from the underlying explorer.
pub fn check_schedulable_mc_witnessed(
    model: &SystemModel,
    max_states: usize,
) -> Result<McVerdict, SimError> {
    run_check(model, max_states, true)
}

/// The deadline-miss target of both explorers: some job's `is_failed`
/// flag is set.
pub(crate) fn deadline_missed(model: &SystemModel) -> impl Fn(&Network, &State) -> bool + Sync {
    let network = model.network();
    let failed_array = model.map().is_failed;
    let offset = network.array_offset(failed_array);
    let len = network.array_len(failed_array);
    move |_, s| s.vars[offset..offset + len].contains(&1)
}

fn run_check(model: &SystemModel, max_states: usize, witness: bool) -> Result<McVerdict, SimError> {
    let mut explorer = Explorer::new(model.network(), model.horizon()).max_states(max_states);
    if witness {
        explorer = explorer.with_witness();
    }
    let out = explorer.reachable(deadline_missed(model))?;
    Ok(McVerdict {
        schedulable: !out.found(),
        states: out.states,
        transitions: out.transitions,
        truncated: out.truncated,
        witness: out.witness.map(|events| events.into_iter().collect()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use swa_core::analyze_configuration;
    use swa_ima::{
        Configuration, CoreRef, CoreType, CoreTypeId, Module, ModuleId, Partition, SchedulerKind,
        Task, Window,
    };

    fn config(tasks: Vec<Task>, window_end: i64, l: i64) -> Configuration {
        Configuration {
            core_types: vec![CoreType::new("generic")],
            modules: vec![Module::homogeneous("M1", 1, CoreTypeId::from_raw(0))],
            partitions: vec![Partition::new("P1", SchedulerKind::Fpps, tasks)],
            binding: vec![CoreRef::new(ModuleId::from_raw(0), 0)],
            windows: vec![vec![Window::new(0, window_end.min(l))]],
            messages: vec![],
        }
    }

    #[test]
    fn mc_and_simulation_agree_on_schedulable() {
        let c = config(
            vec![
                Task::new("a", 2, vec![3], 10),
                Task::new("b", 1, vec![4], 20),
            ],
            20,
            20,
        );
        let model = SystemModel::build(&c).unwrap();
        let mc = check_schedulable_mc(&model).unwrap();
        let sim = analyze_configuration(&c).unwrap();
        assert!(mc.schedulable);
        assert!(sim.schedulable());
        assert!(mc.states > 0);
    }

    #[test]
    fn mc_and_simulation_agree_on_unschedulable() {
        // Utilization > 1: b cannot finish.
        let c = config(
            vec![
                Task::new("a", 2, vec![8], 10),
                Task::new("b", 1, vec![9], 20),
            ],
            20,
            20,
        );
        let model = SystemModel::build(&c).unwrap();
        let mc = check_schedulable_mc(&model).unwrap();
        let sim = analyze_configuration(&c).unwrap();
        assert!(!mc.schedulable);
        assert!(!sim.schedulable());
    }

    #[test]
    fn witnessed_check_reconstructs_the_missing_job() {
        let c = config(
            vec![
                Task::new("a", 2, vec![8], 10),
                Task::new("b", 1, vec![9], 20),
            ],
            20,
            20,
        );
        let model = SystemModel::build(&c).unwrap();
        let verdict = check_schedulable_mc_witnessed(&model, usize::MAX).unwrap();
        assert!(!verdict.schedulable);
        let witness = verdict.witness.expect("counterexample recorded");
        // The witness is a valid run: translate it to system events and
        // confirm it exhibits a kill (a FIN for task b with partial work).
        let trace = swa_core::extract_system_trace(&model, &c, &witness);
        let analysis = swa_core::analyze(&c, &trace);
        assert!(analysis.jobs.iter().any(|j| !j.is_ok()));
    }

    #[test]
    fn mc_explores_more_than_one_run() {
        // Two same-priority-class independent tasks produce interleavings.
        let c = config(
            vec![
                Task::new("a", 2, vec![2], 10),
                Task::new("b", 1, vec![2], 10),
            ],
            10,
            10,
        );
        let model = SystemModel::build(&c).unwrap();
        let mc = check_schedulable_mc(&model).unwrap();
        let sim_steps = {
            let out = model.simulate().unwrap();
            out.steps
        };
        // The explorer applies at least as many transitions as one run.
        assert!(mc.transitions >= sim_steps);
    }
}
