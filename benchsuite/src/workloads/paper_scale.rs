//! `paper-scale`: eight seeded Sect. 4-scale configurations (~12,500
//! jobs each, one third of the partitions FPNPS and one third EDF),
//! handed over as XML text and each analysed cold — parse, validate,
//! simulate, no cache — cycling until the budget is spent.
//!
//! Chosen because the simulator pipeline does nearly all the work here
//! while the cache, ladder and server do none: a hot-loop gain shows
//! undiluted, and a resolver or serving change must show no change.

use std::collections::BTreeMap;
use std::sync::Arc;

use swa_core::{Analysis, Analyzer};
use swa_xmlio::configuration_to_xml;

use super::{
    analyze_staged, end_to_end, measure, parse_valid, per_layer, timed_setup, write_trace, RunArgs,
};
use crate::gen::{fnv1a, fnv_of, paper_scale_config};
use crate::report::Outcome;
use crate::trace::Tracer;

const CONFIGS: u64 = 8;

/// The checked result of one analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Verdict {
    schedulable: bool,
    signature: u64,
    steps: u64,
}

impl Verdict {
    fn of(analysis: &Analysis, steps: u64) -> Self {
        Self {
            schedulable: analysis.schedulable,
            signature: fnv_of(&analysis.signature()),
            steps,
        }
    }

    fn render(&self) -> String {
        format!(
            "{}:{:016x}:{}",
            if self.schedulable {
                "schedulable"
            } else {
                "unschedulable"
            },
            self.signature,
            self.steps
        )
    }
}

/// The untraced operation: exactly what a user of the library runs.
fn analyze(xml: &str) -> Result<Verdict, String> {
    let config = parse_valid(xml)?;
    let report = Analyzer::new(&config).run().map_err(|e| e.to_string())?;
    Ok(Verdict::of(&report.analysis, report.metrics.steps))
}

/// The traced operation: the same pipeline, one span per stage.
fn analyze_traced(
    xml: &str,
    tracer: &Tracer,
    counts: &mut BTreeMap<&'static str, f64>,
) -> Result<Verdict, String> {
    let staged = analyze_staged(xml, tracer)?;
    #[allow(clippy::cast_precision_loss)]
    {
        *counts.entry("fastsim.steps").or_default() += staged.steps as f64;
        *counts.entry("fastsim.wheel_wakeups").or_default() += staged.wheel_wakeups as f64;
        *counts.entry("bytecode.ops").or_default() += staged.ops as f64;
        *counts.entry("compiles").or_default() += 1.0;
    }
    let verdict = tracer.span("suite:digest", || {
        Verdict::of(&staged.analysis, staged.steps)
    });
    tracer.span("analysis:free", || drop(staged));
    Ok(verdict)
}

/// The inputs (XML texts) of one seed, with their digest.
pub(crate) fn inputs(seed: u64, smoke: bool) -> (Vec<String>, u64) {
    let jobs = if smoke { 625 } else { 12_500 };
    let xmls: Vec<String> = (0..CONFIGS)
        .map(|i| configuration_to_xml(&paper_scale_config(seed, i, jobs)))
        .collect();
    let digest = fnv1a(xmls.concat().as_bytes());
    (xmls, digest)
}

/// Runs the workload.
#[must_use]
pub fn run(args: &RunArgs) -> Outcome {
    let mut outcome = Outcome::default();
    let (inputs, setup_s) = timed_setup(3, &mut outcome, || inputs(args.seed, args.smoke));

    // The first analysis of each input fixes its expected verdict; every
    // later analysis (and the golden file) must agree with it.
    let mut expected: Vec<Option<Verdict>> = vec![None; inputs.len()];
    let mut check = |outcome: &mut Outcome, i: usize, got: Result<Verdict, String>| {
        outcome.attempted += 1;
        match got {
            Err(e) => outcome.fail(format!("input {i}: {e}")),
            Ok(v) => match &expected[i] {
                None => expected[i] = Some(v),
                Some(first) => outcome.check(*first == v, || {
                    format!("input {i}: {} then {}", first.render(), v.render())
                }),
            },
        }
    };

    let n = inputs.len();
    let untraced_budget = if args.trace {
        args.budget() / 2
    } else {
        args.budget()
    };
    let mut results = Vec::new();
    let untraced = measure(untraced_budget, n, |i| {
        results.push((i, analyze(&inputs[i])))
    });
    for (i, r) in results.drain(..) {
        check(&mut outcome, i, r);
    }

    if args.trace {
        let tracer = Arc::new(Tracer::new());
        let mut counts = BTreeMap::new();
        let mut request = 0;
        let traced = measure(args.budget() / 2, n, |i| {
            request += 1;
            let r = tracer.root(request, "suite", || {
                analyze_traced(&inputs[i], &tracer, &mut counts)
            });
            results.push((i, r));
        });
        for (i, r) in results.drain(..) {
            check(&mut outcome, i, r);
        }
        let compiles = counts.remove("compiles").unwrap_or(1.0);
        if let Some(ops) = counts.get_mut("bytecode.ops") {
            *ops /= compiles;
        }
        write_trace(args, &tracer, &mut outcome);
        outcome.metrics = per_layer(args.workload, &tracer, counts, &untraced, &traced);
    } else {
        // Percentiles over every analysis (about a hundred): a latency
        // per input would leave too few values for a tail.
        outcome.metrics = end_to_end(args.workload, setup_s, &untraced.all(), &untraced);
    }

    let digests: BTreeMap<String, String> = expected
        .iter()
        .enumerate()
        .filter_map(|(i, v)| v.as_ref().map(|v| (format!("input{i}"), v.render())))
        .collect();
    args.golden(&mut outcome, &args.seed.to_string(), digests);
    outcome
}
