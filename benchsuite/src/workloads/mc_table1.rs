//! `mc-table1`: the paper's Table 1 baseline. `table1_config(15)` (all
//! jobs released together, the worst case for interleavings) is
//! explored exhaustively by the sequential explorer until most of the
//! budget is spent, then once by the parallel explorer on two threads;
//! the verdict is checked against one simulated run.
//!
//! Chosen because it runs only the model checker — state successors and
//! the visited set — and bypasses the simulator's fast loop, the caches
//! and the server, so the time and memory of exhaustive exploration stay
//! visible on their own.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use swa_core::{Analyzer, SystemModel};
use swa_ima::Configuration;
use swa_mc::{check_schedulable_mc, check_schedulable_mc_parallel, McVerdict};
use swa_workload::table1_config;
use swa_xmlio::configuration_to_xml;

use super::{
    analyze_staged, end_to_end, measure, parse_valid, per_layer, write_trace, Rounds, RunArgs,
};
use crate::gen::fnv1a;
use crate::report::{current_rss_bytes, peak_rss_mb, Metric, Outcome};
use crate::stats;
use crate::trace::Tracer;

/// Share of the budget spent on sequential explorations; the parallel
/// exploration and the simulation cross-check fill the rest.
const SEQUENTIAL_SHARE: f64 = 0.7;

fn prepare(xml: &str) -> Result<(Configuration, SystemModel), String> {
    let config = parse_valid(xml)?;
    let model = SystemModel::build(&config).map_err(|e| e.to_string())?;
    Ok((config, model))
}

/// Checks one exploration against the first one and the invariants
/// every exhaustive run must satisfy.
fn check(
    outcome: &mut Outcome,
    first: &mut Option<McVerdict>,
    got: Result<McVerdict, String>,
    what: &str,
) {
    outcome.attempted += 1;
    match got {
        Err(e) => outcome.fail(format!("{what}: {e}")),
        Ok(v) => {
            outcome.check(!v.truncated, || format!("{what}: exploration truncated"));
            match first {
                None => *first = Some(v),
                Some(f) => outcome.check(
                    f.states == v.states && f.schedulable == v.schedulable,
                    || {
                        format!(
                            "{what}: {} states ({}) vs {} ({})",
                            v.states, v.schedulable, f.states, f.schedulable
                        )
                    },
                ),
            }
        }
    }
}

/// Sequential explorations until `budget` is spent (at least one).
fn explore_for(
    budget: Duration,
    model: &SystemModel,
    tracer: Option<&Tracer>,
    outcome: &mut Outcome,
    first: &mut Option<McVerdict>,
    bytes_per_state: &mut f64,
) -> Rounds {
    let mut request = 0;
    measure(budget, 1, |_| {
        request += 1;
        let rss_before = current_rss_bytes();
        let v = match tracer {
            Some(tr) => tr.root(request, "suite", || {
                tr.span("mc", || check_schedulable_mc(model))
            }),
            None => check_schedulable_mc(model),
        };
        if let (true, Ok(v)) = (bytes_per_state.is_nan(), &v) {
            #[allow(clippy::cast_precision_loss)]
            let per = (peak_rss_mb() * 1024.0 * 1024.0 - rss_before) / v.states.max(1) as f64;
            *bytes_per_state = per;
        }
        check(
            outcome,
            first,
            v.map_err(|e| e.to_string()),
            "sequential exploration",
        );
    })
}

fn jobs(smoke: bool) -> usize {
    if smoke {
        10
    } else {
        15
    }
}

/// The input (XML text) with its digest. Table 1's configuration does
/// not depend on the seed.
pub(crate) fn inputs(_seed: u64, smoke: bool) -> (String, u64) {
    let xml = configuration_to_xml(&table1_config(jobs(smoke)));
    let digest = fnv1a(xml.as_bytes());
    (xml, digest)
}

/// Runs the workload.
#[must_use]
pub fn run(args: &RunArgs) -> Outcome {
    let jobs = jobs(args.smoke);
    let mut outcome = Outcome::default();
    // Set-up is generating the input and building the model the checker
    // explores (Table 1 times the exploration alone).
    let ((config, model), setup_s) = super::timed_setup(5, &mut outcome, || {
        let (xml, digest) = inputs(args.seed, args.smoke);
        (
            prepare(&xml).expect("the Table 1 configuration is valid"),
            digest,
        )
    });

    let mut first = None;
    let mut bytes_per_state = f64::NAN;
    let sequential_budget = args
        .budget()
        .mul_f64(if args.trace { 0.5 } else { SEQUENTIAL_SHARE });
    let untraced = explore_for(
        sequential_budget,
        &model,
        None,
        &mut outcome,
        &mut first,
        &mut bytes_per_state,
    );

    let tracer = Arc::new(Tracer::new());
    let traced = if args.trace {
        explore_for(
            args.budget().mul_f64(0.5 * SEQUENTIAL_SHARE),
            &model,
            Some(&tracer),
            &mut outcome,
            &mut first,
            &mut bytes_per_state,
        )
    } else {
        Rounds::default()
    };

    let t = Instant::now();
    let parallel = tracer.root(1_000_000, "suite", || {
        tracer.span("mc", || check_schedulable_mc_parallel(&model, 2))
    });
    let parallel_s = t.elapsed().as_secs_f64();
    let parallel_states = parallel.as_ref().map_or(0, |v| v.states);
    check(
        &mut outcome,
        &mut first,
        parallel.map_err(|e| e.to_string()),
        "parallel exploration",
    );

    // The paper's claim: one simulated run decides what exhaustive
    // exploration decides. Traced, the run is split into its stages.
    let xml = configuration_to_xml(&config);
    let simulated = tracer.root(1_000_001, "suite", || {
        analyze_staged(&xml, &tracer).map(|s| (s.analysis.schedulable, s.steps))
    });
    let mc = first
        .as_ref()
        .map(|v| (v.states, v.transitions, v.schedulable));
    outcome.attempted += 1;
    match (&simulated, mc) {
        (Ok((schedulable, _)), Some((_, _, mc_schedulable))) => outcome.check(
            *schedulable == mc_schedulable
                && Analyzer::new(&config)
                    .run()
                    .is_ok_and(|r| r.schedulable() == *schedulable),
            || format!("simulation says {schedulable}, model checking {mc_schedulable}"),
        ),
        (Err(e), _) => outcome.fail(format!("simulation: {e}")),
        (_, None) => outcome.fail("no exploration completed".to_string()),
    }

    let (states, transitions, schedulable) = mc.unwrap_or_default();
    let seq_median_s = stats::median(&untraced.all()) / 1e3;
    outcome
        .info
        .push(Metric::new("mc.par_explore_s", parallel_s, "s"));
    #[allow(clippy::cast_precision_loss)]
    outcome.info.push(Metric::new(
        "mc.par_states",
        parallel_states as f64,
        "count",
    ));
    if args.trace {
        #[allow(clippy::cast_precision_loss)]
        let values: BTreeMap<&'static str, f64> = [
            ("mc.states", states as f64),
            ("mc.transitions", transitions as f64),
            ("mc.states_per_s", states as f64 / seq_median_s),
            ("mc.bytes_per_state", bytes_per_state),
            ("mc.par_speedup", seq_median_s / parallel_s),
            (
                "fastsim.steps",
                simulated.as_ref().map_or(0.0, |(_, steps)| *steps as f64),
            ),
        ]
        .into_iter()
        .collect();
        write_trace(args, &tracer, &mut outcome);
        outcome.metrics = per_layer(args.workload, &tracer, values, &untraced, &traced);
    } else {
        outcome.metrics = end_to_end(args.workload, setup_s, &untraced.all(), &untraced);
    }

    let digests: BTreeMap<String, String> = [
        (format!("jobs{jobs}.states"), states.to_string()),
        (format!("jobs{jobs}.schedulable"), schedulable.to_string()),
    ]
    .into_iter()
    .collect();
    // The input does not depend on the seed, so one blessing covers all.
    args.golden(&mut outcome, "any", digests);
    outcome
}
