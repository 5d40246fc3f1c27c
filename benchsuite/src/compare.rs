//! `suite compare <parent results…> -- <change results…>`: the
//! choosing-metrics comparison rule over results files.
//!
//! Runs pair up by fingerprint (workload, seed, scale, seconds, input
//! digest, core count, thread mapping); a fingerprint present on one side
//! only is refused, so a smoke run is never compared with a full-size
//! baseline. Per workload and end-to-end metric the change is:
//!
//! * **improved** — it wins at least 9 of 10 pairs (ties count for
//!   neither) and the medians differ by more than the parent's
//!   inter-quartile spread;
//! * **unresolved** — otherwise, when the parent's spread exceeds the
//!   bound and not every change run beats every parent run;
//! * **worse** — its median is worse than the parent's by more than the
//!   bound;
//! * **no-worse** — anything else.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use swa_serve::Json;

use crate::report::END_TO_END;
use crate::stats::{median, quartiles};

/// One results file.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The fingerprint, as rendered (compared for equality).
    pub fingerprint: String,
    /// Workload name.
    pub workload: String,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

impl RunResult {
    /// Parses a results file body.
    ///
    /// # Errors
    ///
    /// A message naming what is missing.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text.trim()).map_err(|e| e.to_string())?;
        let fp = doc.get("fingerprint").ok_or("no fingerprint")?;
        let Json::Obj(fields) = fp else {
            return Err("fingerprint is not an object".into());
        };
        let fingerprint = fields
            .iter()
            .map(|(k, v)| format!("{k}={}", v.as_str().unwrap_or("?")))
            .collect::<Vec<_>>()
            .join(",");
        let workload = fp
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("fingerprint without workload")?
            .to_string();
        if doc.get("trace").and_then(Json::as_bool) == Some(true) {
            return Err("traced runs carry per-layer metrics; compare untraced runs".into());
        }
        let mut metrics = BTreeMap::new();
        if let Some(Json::Obj(pairs)) = doc.get("metrics") {
            for (k, v) in pairs {
                if let Some(x) = v.get("value").and_then(Json::as_f64) {
                    metrics.insert(k.clone(), x);
                }
            }
        }
        Ok(Self {
            fingerprint,
            workload,
            metrics,
        })
    }

    /// Reads and parses a results file.
    ///
    /// # Errors
    ///
    /// I/O or parse failures, with the path.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The comparison outcome for one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by the win and spread rule.
    Improved,
    /// Not worse by more than the bound.
    NoWorse,
    /// Worse by more than the bound.
    Worse,
    /// The parent's own spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoWorse => "no-worse",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges paired parent and change values of one metric. Returns the
/// verdict and the change's win fraction.
#[must_use]
pub fn judge(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> (Verdict, f64) {
    let better = |c: f64, p: f64| if lower_is_better { c < p } else { c > p };
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    #[allow(clippy::cast_precision_loss)]
    let win_frac = wins as f64 / pairs.max(1) as f64;
    let (mp, mc) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    let spread = q3 - q1;
    let worse_by = if lower_is_better {
        (mc - mp) / mp.abs()
    } else {
        (mp - mc) / mp.abs()
    };
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let verdict = if win_frac >= 0.9 && (mc - mp).abs() > spread && worse_by < 0.0 {
        Verdict::Improved
    } else if spread / mp.abs() > bound && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::NoWorse
    };
    (verdict, win_frac)
}

/// The end-to-end bounds declared in `BENCHMARK.json` (metric → bound).
///
/// # Errors
///
/// When the file is missing or malformed.
pub fn declared_bounds(path: &Path) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Json::Arr(items)) = doc.get("end_to_end") else {
        return Err(format!("{}: no end_to_end list", path.display()));
    };
    Ok(items
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

fn by_fingerprint(runs: &[RunResult]) -> BTreeMap<&str, Vec<&RunResult>> {
    let mut g: BTreeMap<&str, Vec<&RunResult>> = BTreeMap::new();
    for r in runs {
        g.entry(r.fingerprint.as_str()).or_default().push(r);
    }
    g
}

/// Pairs the runs and renders the comparison table.
///
/// # Errors
///
/// When a fingerprint appears on one side only, or the sides are empty.
pub fn compare(
    parents: &[RunResult],
    changes: &[RunResult],
    bounds: &BTreeMap<String, f64>,
) -> Result<String, String> {
    if parents.is_empty() || changes.is_empty() {
        return Err("both sides need at least one results file".into());
    }
    let (p, c) = (by_fingerprint(parents), by_fingerprint(changes));
    let unmatched: Vec<&str> = p
        .keys()
        .filter(|k| !c.contains_key(*k))
        .chain(c.keys().filter(|k| !p.contains_key(*k)))
        .copied()
        .collect();
    if !unmatched.is_empty() {
        return Err(format!(
            "refusing to compare runs whose workload fingerprints differ; unmatched: {}",
            unmatched.join(" | ")
        ));
    }
    // Pairs per workload, in fingerprint order.
    let mut pairs: BTreeMap<&str, Vec<(&RunResult, &RunResult)>> = BTreeMap::new();
    for (fp, ps) in &p {
        for (a, b) in ps.iter().zip(&c[fp]) {
            pairs.entry(a.workload.as_str()).or_default().push((a, b));
        }
    }
    let mut out = String::from(
        "workload metric parent_median parent_q1 parent_q3 change_median change_q1 change_q3 wins verdict\n",
    );
    for (workload, runs) in pairs {
        for &(name, _, lower) in END_TO_END {
            let values = |side: usize| -> Vec<f64> {
                runs.iter()
                    .filter_map(|(a, b)| if side == 0 { a } else { b }.metrics.get(name).copied())
                    .collect()
            };
            let (pv, cv) = (values(0), values(1));
            if pv.is_empty() || cv.is_empty() {
                continue;
            }
            let bound = bounds.get(name).copied().unwrap_or(0.0);
            let (verdict, wins) = judge(&pv, &cv, lower, bound);
            let (pq1, pq3) = quartiles(&pv);
            let (cq1, cq3) = quartiles(&cv);
            let _ = writeln!(
                out,
                "{workload} {name} {} {pq1} {pq3} {} {cq1} {cq3} {wins:.2} {}",
                median(&pv),
                median(&cv),
                verdict.label()
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_of_ten_wins_beyond_the_spread_is_an_improvement() {
        let parent = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05];
        let mut change: Vec<f64> = parent.iter().map(|p| p * 0.9).collect();
        assert_eq!(judge(&parent, &change, true, 0.05).0, Verdict::Improved);
        // Two losses out of ten: not an improvement, but not worse either.
        change[0] = 11.0;
        change[1] = 11.0;
        let (verdict, wins) = judge(&parent, &change, true, 0.05);
        assert_eq!(wins, 0.8);
        assert_eq!(verdict, Verdict::NoWorse);
    }

    #[test]
    fn a_gain_within_the_parent_spread_is_not_an_improvement() {
        let parent = [10.0, 12.0, 8.0, 11.0, 9.0, 10.5, 9.5, 11.5, 8.5, 10.0];
        let change: Vec<f64> = parent.iter().map(|p| p - 0.1).collect();
        let (verdict, wins) = judge(&parent, &change, true, 0.5);
        assert_eq!(wins, 1.0);
        assert_eq!(verdict, Verdict::NoWorse);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let parent = [10.0, 14.0, 6.0, 12.0, 8.0, 10.0, 13.0, 7.0, 11.0, 9.0];
        let change = [10.5; 10];
        assert_eq!(judge(&parent, &change, true, 0.05).0, Verdict::Unresolved);
        let change = [5.0; 10];
        assert_eq!(judge(&parent, &change, true, 0.05).0, Verdict::Improved);
    }

    #[test]
    fn higher_is_better_metrics_flip_the_direction() {
        let parent = [100.0; 10];
        let change = [80.0; 10];
        assert_eq!(judge(&parent, &change, false, 0.1).0, Verdict::Worse);
        assert_eq!(judge(&parent, &change, true, 0.1).0, Verdict::Improved);
    }

    fn result(fp: &str, workload: &str, p50: f64) -> RunResult {
        RunResult {
            fingerprint: fp.to_string(),
            workload: workload.to_string(),
            metrics: [("p50_ms".to_string(), p50)].into_iter().collect(),
        }
    }

    #[test]
    fn mismatched_fingerprints_are_refused() {
        let bounds = BTreeMap::new();
        let parent = vec![result("scale=full,seed=1", "paper-scale", 1.0)];
        let change = vec![result("scale=smoke,seed=1", "paper-scale", 1.0)];
        let err = compare(&parent, &change, &bounds).unwrap_err();
        assert!(err.contains("fingerprints differ"), "{err}");
        let table = compare(&parent, &parent, &bounds).expect("same fingerprints compare");
        assert!(table.contains("paper-scale p50_ms"), "{table}");
    }

    #[test]
    fn results_files_round_trip() {
        let text = r#"{"schema":1,"fingerprint":{"workload":"mc-table1","seed":"3"},"trace":false,"correct":true,"attempted":4,"failed":0,"metrics":{"p50_ms": {"value": 12.5, "unit": "ms"}},"info":{}}"#;
        let r = RunResult::parse(text).expect("parses");
        assert_eq!(r.workload, "mc-table1");
        assert_eq!(r.fingerprint, "workload=mc-table1,seed=3");
        assert_eq!(r.metrics["p50_ms"], 12.5);
    }
}
