//! Certified breakdown-factor search.
//!
//! Given a feasibility oracle over scale factors, [`breakdown_search`]
//! finds the *breakdown factor*: the largest factor that is still
//! feasible, bracketed by a certified interval `[lo, hi]` with
//! `oracle(lo) = feasible`, `oracle(hi) = infeasible` and `hi - lo ≤
//! tolerance`. The search is a geometric bracketing scan followed by
//! bisection, with a hard probe budget so it can never loop.
//!
//! Schedulability is monotone along WCET and period-rate axes in theory,
//! but a *measured* oracle can flip non-monotonically — quantized factors,
//! rounding at config boundaries, or chain-latency gating can all carve
//! feasible islands. The search therefore audits every probe it made: if
//! the record contains an inversion (an infeasible factor below a feasible
//! one), the result is reported as [`BreakdownOutcome::NonMonotone`] with
//! the *outer* bracketing interval and the list of flip points — never a
//! false ±tolerance certificate.

/// Options controlling a breakdown search.
#[derive(Debug, Clone)]
pub struct SearchOptions {
    /// Certified bracket width: the search refines until `hi - lo` is at
    /// most this (subject to the probe budget).
    pub tolerance: f64,
    /// Hard cap on oracle invocations; the search never exceeds it.
    pub max_probes: usize,
    /// First factor probed: 1.0, the base configuration.
    pub(crate) start: f64,
    /// Lower edge of the searched factor range: 1/64.
    pub(crate) min_factor: f64,
    /// Upper edge of the searched factor range: 64.
    pub(crate) max_factor: f64,
    /// When ≥ 2, probe this many evenly spaced factors across
    /// the factor range `[1/64, 64]` first (endpoints included). Presampling
    /// costs probes but exposes non-monotone islands that a pure
    /// bracketing scan would step over.
    pub presamples: usize,
}

impl Default for SearchOptions {
    fn default() -> Self {
        Self {
            tolerance: 0.01,
            max_probes: 64,
            start: 1.0,
            min_factor: 1.0 / 64.0,
            max_factor: 64.0,
            presamples: 0,
        }
    }
}

/// One refinement step, reported to the caller as it happens (drives the
/// progressive `POST /sweep` stream and `-v` CLI output).
#[derive(Debug, Clone, Copy)]
pub struct SearchStep {
    /// 1-based probe number.
    pub probe: usize,
    /// The factor probed.
    pub factor: f64,
    /// The oracle's verdict at this factor.
    pub feasible: bool,
    /// Best-known feasible lower bracket after this probe, if any.
    pub lo: Option<f64>,
    /// Best-known infeasible upper bracket after this probe, if any.
    pub hi: Option<f64>,
}

/// One oracle invocation, kept for the post-search monotonicity audit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeRecord {
    /// The factor probed.
    pub factor: f64,
    /// The oracle's verdict.
    pub feasible: bool,
}

/// How a breakdown search ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakdownOutcome {
    /// A certified bracket was found: `lo` feasible, `hi` infeasible,
    /// `hi - lo ≤ tolerance`.
    Converged,
    /// The probe record contains verdict inversions; `lo`/`hi` give the
    /// *outer* bracket (largest feasible / largest infeasible above it)
    /// and [`BreakdownResult::flips`] lists the inversion points. No
    /// ±tolerance certificate is claimed.
    NonMonotone,
    /// Every probed factor up to `max_factor` was feasible.
    Unbounded,
    /// Every probed factor down to `min_factor` was infeasible.
    InfeasibleEverywhere,
    /// The probe budget ran out before the bracket reached the tolerance;
    /// `lo`/`hi` hold the best (uncertified) bracket so far.
    ProbeBudgetExhausted,
}

/// Result of a breakdown search.
#[derive(Debug, Clone)]
pub struct BreakdownResult {
    /// How the search ended.
    pub outcome: BreakdownOutcome,
    /// Largest factor observed feasible (the breakdown estimate).
    pub lo: Option<f64>,
    /// Smallest infeasible factor above `lo`, when one was observed.
    pub hi: Option<f64>,
    /// Every oracle invocation, sorted by factor.
    pub records: Vec<ProbeRecord>,
    /// Monotonicity violations: pairs `(f_bad, f_good)` with `f_bad <
    /// f_good`, `f_bad` infeasible and `f_good` feasible.
    pub flips: Vec<(f64, f64)>,
}

impl BreakdownResult {
    /// The breakdown-factor estimate (largest observed feasible factor).
    #[must_use]
    pub fn breakdown(&self) -> Option<f64> {
        self.lo
    }

    /// Whether the result carries a ±`tolerance` certificate: converged,
    /// no flips, and the bracket is tight.
    #[must_use]
    pub fn certified(&self, tolerance: f64) -> bool {
        self.outcome == BreakdownOutcome::Converged
            && match (self.lo, self.hi) {
                (Some(lo), Some(hi)) => hi - lo <= tolerance + 1e-12,
                _ => false,
            }
    }
}

/// Runs the search. `oracle(factor)` decides feasibility; `on_step` is
/// invoked after every probe with the running bracket.
///
/// # Errors
///
/// Forwards the first error the oracle returns, abandoning the search.
pub fn breakdown_search<E>(
    opts: &SearchOptions,
    mut oracle: impl FnMut(f64) -> Result<bool, E>,
    mut on_step: impl FnMut(&SearchStep),
) -> Result<BreakdownResult, E> {
    let mut records: Vec<ProbeRecord> = Vec::new();
    let budget = opts.max_probes.max(1);
    let tolerance = if opts.tolerance > 0.0 {
        opts.tolerance
    } else {
        1e-9
    };

    // Running bracket: largest feasible factor and smallest infeasible
    // factor above it seen so far.
    let mut lo: Option<f64> = None;
    let mut hi: Option<f64> = None;

    let mut probe = |f: f64,
                     records: &mut Vec<ProbeRecord>,
                     lo: &mut Option<f64>,
                     hi: &mut Option<f64>|
     -> Result<bool, E> {
        // Reuse an earlier verdict for the same factor instead of
        // spending budget (bisection can revisit scan endpoints).
        let feasible = match records
            .iter()
            .find(|r| (r.factor - f).abs() < f64::EPSILON * f.abs().max(1.0))
        {
            Some(r) => r.feasible,
            None => {
                let v = oracle(f)?;
                records.push(ProbeRecord {
                    factor: f,
                    feasible: v,
                });
                v
            }
        };
        // Bracket maintenance assumes monotonicity; a non-monotone oracle
        // can invert lo/hi here, which stalls the bisection early — the
        // post-search audit then reports the flips and the outer bracket.
        if feasible {
            if lo.is_none_or(|l| f > l) {
                *lo = Some(f);
            }
        } else if f >= lo.unwrap_or(f64::NEG_INFINITY) && hi.is_none_or(|h| f < h) {
            *hi = Some(f);
        }
        on_step(&SearchStep {
            probe: records.len(),
            factor: f,
            feasible,
            lo: *lo,
            hi: *hi,
        });
        Ok(feasible)
    };

    // Phase 1: establish a bracket, either by presampling the whole range
    // or by a geometric scan from `start`.
    if opts.presamples >= 2 {
        let n = opts.presamples.min(budget);
        for i in 0..n {
            #[allow(clippy::cast_precision_loss)]
            let t = i as f64 / (n - 1) as f64;
            let f = opts.min_factor + t * (opts.max_factor - opts.min_factor);
            probe(f, &mut records, &mut lo, &mut hi)?;
        }
    } else {
        let first = probe(
            opts.start.clamp(opts.min_factor, opts.max_factor),
            &mut records,
            &mut lo,
            &mut hi,
        )?;
        let mut f = opts.start.clamp(opts.min_factor, opts.max_factor);
        if first {
            // Scan up until infeasible or the range edge.
            while hi.is_none() && records.len() < budget {
                if f >= opts.max_factor {
                    break;
                }
                f = (f * 2.0).min(opts.max_factor);
                probe(f, &mut records, &mut lo, &mut hi)?;
            }
        } else {
            // Scan down until feasible or the range edge.
            while lo.is_none() && records.len() < budget {
                if f <= opts.min_factor {
                    break;
                }
                f = (f / 2.0).max(opts.min_factor);
                probe(f, &mut records, &mut lo, &mut hi)?;
            }
        }
    }

    // Phase 2: bisect the bracket down to the tolerance.
    while let (Some(l), Some(h)) = (lo, hi) {
        if h - l <= tolerance || records.len() >= budget {
            break;
        }
        let mid = l + (h - l) / 2.0;
        if mid <= l || mid >= h {
            break; // bracket is below f64 resolution
        }
        probe(mid, &mut records, &mut lo, &mut hi)?;
    }

    // Phase 3: monotonicity audit over everything we observed.
    records.sort_by(|a, b| a.factor.total_cmp(&b.factor));
    let mut flips: Vec<(f64, f64)> = Vec::new();
    for (i, bad) in records.iter().enumerate() {
        if bad.feasible {
            continue;
        }
        if let Some(good) = records[i + 1..].iter().find(|r| r.feasible) {
            flips.push((bad.factor, good.factor));
        }
    }

    let outcome = if !flips.is_empty() {
        // Report the OUTER bracket: the largest feasible factor and the
        // largest infeasible factor overall (everything between them is
        // suspect), with no tolerance certificate.
        lo = records
            .iter()
            .filter(|r| r.feasible)
            .map(|r| r.factor)
            .fold(None, |acc: Option<f64>, x| {
                Some(acc.map_or(x, |a| a.max(x)))
            });
        hi = records
            .iter()
            .filter(|r| !r.feasible)
            .map(|r| r.factor)
            .fold(None, |acc: Option<f64>, x| {
                Some(acc.map_or(x, |a| a.max(x)))
            });
        BreakdownOutcome::NonMonotone
    } else {
        match (lo, hi) {
            (Some(l), Some(h)) if h - l <= tolerance => BreakdownOutcome::Converged,
            (Some(_), Some(_)) => BreakdownOutcome::ProbeBudgetExhausted,
            (Some(_), None) => BreakdownOutcome::Unbounded,
            (None, Some(_)) | (None, None) => BreakdownOutcome::InfeasibleEverywhere,
        }
    };

    Ok(BreakdownResult {
        outcome,
        lo,
        hi,
        records,
        flips,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    fn run(opts: &SearchOptions, mut oracle: impl FnMut(f64) -> bool) -> (BreakdownResult, usize) {
        let mut calls = 0;
        let result = breakdown_search::<Infallible>(
            opts,
            |f| {
                calls += 1;
                Ok(oracle(f))
            },
            |_| {},
        )
        .unwrap();
        (result, calls)
    }

    #[test]
    fn monotone_oracle_converges_certified() {
        let opts = SearchOptions::default();
        let (r, calls) = run(&opts, |f| f <= 2.37);
        assert_eq!(r.outcome, BreakdownOutcome::Converged);
        assert!(r.certified(opts.tolerance));
        let (lo, hi) = (r.lo.unwrap(), r.hi.unwrap());
        assert!(lo <= 2.37 && 2.37 <= hi, "bracket [{lo}, {hi}] misses 2.37");
        assert!(hi - lo <= opts.tolerance + 1e-12);
        assert!(calls <= opts.max_probes);
        assert!(r.flips.is_empty());
    }

    #[test]
    fn monotone_oracle_below_one_converges() {
        let opts = SearchOptions::default();
        let (r, _) = run(&opts, |f| f <= 0.4);
        assert_eq!(r.outcome, BreakdownOutcome::Converged);
        let (lo, hi) = (r.lo.unwrap(), r.hi.unwrap());
        assert!(lo <= 0.4 && 0.4 <= hi);
    }

    #[test]
    fn non_monotone_oracle_is_detected_not_certified() {
        // Feasible island: [min, 1.5) ∪ [2.0, 2.3). A naive bisection
        // could "converge" inside the hole; presampling exposes it.
        let opts = SearchOptions {
            presamples: 16,
            max_probes: 48,
            max_factor: 4.0,
            ..SearchOptions::default()
        };
        let (r, calls) = run(&opts, |f| f < 1.5 || (2.0..2.3).contains(&f));
        assert_eq!(r.outcome, BreakdownOutcome::NonMonotone);
        assert!(!r.flips.is_empty(), "flips must be reported");
        assert!(!r.certified(opts.tolerance), "no false certificate");
        assert!(calls <= opts.max_probes, "must terminate within budget");
        // Outer bracket: lo = largest feasible seen, hi = largest
        // infeasible seen, and lo < hi (the island ends before the edge).
        let (lo, hi) = (r.lo.unwrap(), r.hi.unwrap());
        assert!((2.0..2.3).contains(&lo), "lo {lo} should sit in the island");
        assert!(hi > lo, "outer bracket must contain the suspect region");
    }

    #[test]
    fn always_feasible_is_unbounded() {
        let (r, _) = run(&SearchOptions::default(), |_| true);
        assert_eq!(r.outcome, BreakdownOutcome::Unbounded);
        assert_eq!(r.lo, Some(64.0));
        assert_eq!(r.hi, None);
        assert!(!r.certified(0.01));
    }

    #[test]
    fn always_infeasible_is_infeasible_everywhere() {
        let (r, _) = run(&SearchOptions::default(), |_| false);
        assert_eq!(r.outcome, BreakdownOutcome::InfeasibleEverywhere);
        assert_eq!(r.lo, None);
        assert!(!r.certified(0.01));
    }

    #[test]
    fn probe_budget_is_a_hard_cap() {
        let opts = SearchOptions {
            max_probes: 3,
            ..SearchOptions::default()
        };
        let (r, calls) = run(&opts, |f| f <= 2.37);
        assert!(calls <= 3);
        assert_ne!(r.outcome, BreakdownOutcome::Converged);
        assert!(!r.certified(opts.tolerance), "no false certificate");
    }

    #[test]
    fn duplicate_factors_do_not_spend_budget() {
        let opts = SearchOptions {
            presamples: 5,
            max_probes: 64,
            ..SearchOptions::default()
        };
        let (r, calls) = run(&opts, |f| f <= 2.37);
        assert_eq!(calls, r.records.len(), "each factor probed exactly once");
    }

    #[test]
    fn oracle_errors_propagate() {
        let mut n = 0;
        let err = breakdown_search::<&'static str>(
            &SearchOptions::default(),
            |_| {
                n += 1;
                if n >= 2 {
                    Err("boom")
                } else {
                    Ok(true)
                }
            },
            |_| {},
        )
        .unwrap_err();
        assert_eq!(err, "boom");
    }

    #[test]
    fn steps_report_running_bracket() {
        let mut steps: Vec<SearchStep> = Vec::new();
        let r = breakdown_search::<Infallible>(
            &SearchOptions::default(),
            |f| Ok(f <= 2.37),
            |s| steps.push(*s),
        )
        .unwrap();
        assert_eq!(steps.len(), r.records.len());
        assert_eq!(steps.last().unwrap().probe, steps.len());
        // The final step's bracket matches the result.
        let last = steps.last().unwrap();
        assert_eq!(last.lo, r.lo);
        assert_eq!(last.hi, r.hi);
    }
}
