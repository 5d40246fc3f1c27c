//! Sweep reports: the canonical JSON line, the progressive step lines,
//! and the human table.
//!
//! The canonical report JSON is **deterministic**: it contains only facts
//! of the parameter space (factors, verdicts, brackets), never timings or
//! reuse counters — so the `swa sweep` CLI and the `POST /sweep` endpoint
//! produce byte-identical final lines for the same request, whatever the
//! cache temperature. Timings and the `sweep.*` counters belong to
//! `--metrics-out` and the bench artifact.

use swa_core::obs::json_escape;

use crate::breakdown::{BreakdownOutcome, BreakdownResult, SearchStep};
use crate::engine::{Probe, TaskSensitivity};

/// The complete result of one sweep run (base probe, breakdown search,
/// optional per-task sensitivity vector).
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Stable axis label (`wcet`, `period`, `offset`, `wcet:<p>/<t>`).
    pub axis: String,
    /// The requested certificate tolerance.
    pub tolerance: f64,
    /// Whether probes were gated on chain latency.
    pub chains: bool,
    /// The probe at factor 1.0 (the unscaled configuration).
    pub base: Probe,
    /// The breakdown search along the primary axis.
    pub breakdown: BreakdownResult,
    /// Per-task WCET sensitivity, when requested.
    pub per_task: Vec<TaskSensitivity>,
}

/// Stable string form of a search outcome.
#[must_use]
pub fn outcome_label(outcome: BreakdownOutcome) -> &'static str {
    match outcome {
        BreakdownOutcome::Converged => "converged",
        BreakdownOutcome::NonMonotone => "non-monotone",
        BreakdownOutcome::Unbounded => "unbounded",
        BreakdownOutcome::InfeasibleEverywhere => "infeasible-everywhere",
        BreakdownOutcome::ProbeBudgetExhausted => "probe-budget-exhausted",
    }
}

fn json_f64(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), |x| format!("{x}"))
}

fn json_i64(v: Option<i64>) -> String {
    v.map_or_else(|| "null".to_string(), |x| format!("{x}"))
}

fn json_bool_opt(v: Option<bool>) -> String {
    v.map_or_else(|| "null".to_string(), |b| b.to_string())
}

fn json_breakdown(result: &BreakdownResult) -> String {
    let flips = result
        .flips
        .iter()
        .map(|(a, b)| format!("[{a},{b}]"))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"outcome\":\"{}\",\"breakdown\":{},\"lo\":{},\"hi\":{},\"probes\":{},\"flips\":[{}]}}",
        outcome_label(result.outcome),
        json_f64(result.breakdown()),
        json_f64(result.lo),
        json_f64(result.hi),
        result.records.len(),
        flips
    )
}

/// Renders one progressive refinement step as a single JSON line (no
/// trailing newline).
#[must_use]
pub fn render_step_json(step: &SearchStep) -> String {
    format!(
        "{{\"status\":\"step\",\"probe\":{},\"factor\":{},\"feasible\":{},\"lo\":{},\"hi\":{}}}",
        step.probe,
        step.factor,
        step.feasible,
        json_f64(step.lo),
        json_f64(step.hi)
    )
}

impl SweepReport {
    /// Whether the primary search produced a ±tolerance certificate.
    #[must_use]
    pub fn certified(&self) -> bool {
        self.breakdown.certified(self.tolerance)
    }

    /// Renders the canonical single-line JSON report (no trailing
    /// newline). Deterministic — see the module docs.
    #[must_use]
    pub fn render_json(&self) -> String {
        let per_task = self
            .per_task
            .iter()
            .map(|t| {
                format!(
                    "{{\"task\":\"{}\",\"slack\":{},\"search\":{}}}",
                    json_escape(&t.label),
                    json_f64(t.slack()),
                    json_breakdown(&t.result)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"status\":\"done\",\"axis\":\"{}\",\"tolerance\":{},\"chains\":{},\
             \"base\":{{\"schedulable\":{},\"chains_ok\":{},\"worst_chain_latency\":{}}},\
             \"certified\":{},\"search\":{},\"per_task\":[{}]}}",
            json_escape(&self.axis),
            self.tolerance,
            self.chains,
            self.base.schedulable,
            json_bool_opt(self.base.chains_ok),
            json_i64(self.base.worst_chain_latency),
            self.certified(),
            json_breakdown(&self.breakdown),
            per_task
        )
    }

    /// Renders the human-readable table.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("axis:       {}\n", self.axis));
        out.push_str(&format!(
            "base point: {}{}\n",
            if self.base.schedulable {
                "schedulable"
            } else {
                "NOT schedulable"
            },
            match (self.base.chains_ok, self.base.worst_chain_latency) {
                (Some(ok), worst) => format!(
                    ", chains {} (worst latency {})",
                    if ok { "ok" } else { "VIOLATED" },
                    worst.map_or_else(|| "-".to_string(), |w| w.to_string())
                ),
                (None, _) => String::new(),
            }
        ));
        out.push_str(&format!(
            "outcome:    {}\n",
            outcome_label(self.breakdown.outcome)
        ));
        match (self.breakdown.lo, self.breakdown.hi) {
            (Some(lo), Some(hi)) => {
                out.push_str(&format!(
                    "breakdown:  {lo} (bracket [{lo}, {hi}], width {}{})\n",
                    hi - lo,
                    if self.certified() {
                        format!(", certified ±{}", self.tolerance)
                    } else {
                        ", NOT certified".to_string()
                    }
                ));
            }
            (Some(lo), None) => {
                out.push_str(&format!(
                    "breakdown:  > {lo} (feasible up to the range edge)\n"
                ));
            }
            _ => out.push_str("breakdown:  none (infeasible everywhere probed)\n"),
        }
        if !self.breakdown.flips.is_empty() {
            out.push_str(&format!(
                "flips:      {} monotonicity violation(s) — bracketing interval only\n",
                self.breakdown.flips.len()
            ));
        }
        out.push_str(&format!("probes:     {}\n", self.breakdown.records.len()));
        if !self.per_task.is_empty() {
            out.push_str("\nper-task WCET sensitivity (ascending slack):\n");
            let mut rows: Vec<&TaskSensitivity> = self.per_task.iter().collect();
            rows.sort_by(|a, b| {
                let ka = a.slack().unwrap_or(f64::INFINITY);
                let kb = b.slack().unwrap_or(f64::INFINITY);
                ka.total_cmp(&kb).then_with(|| a.label.cmp(&b.label))
            });
            out.push_str(&format!(
                "  {:<28} {:>10} {:>10} {:>22}\n",
                "task", "breakdown", "slack", "outcome"
            ));
            for row in rows {
                out.push_str(&format!(
                    "  {:<28} {:>10} {:>10} {:>22}\n",
                    row.label,
                    row.result
                        .breakdown()
                        .map_or_else(|| "-".to_string(), |b| format!("{b:.4}")),
                    row.slack()
                        .map_or_else(|| "-".to_string(), |s| format!("{s:.4}")),
                    outcome_label(row.result.outcome)
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breakdown::ProbeRecord;
    use crate::engine::ProbeSource;
    use swa_ima::{PartitionId, TaskRef};

    fn sample_report() -> SweepReport {
        SweepReport {
            axis: "wcet".to_string(),
            tolerance: 0.01,
            chains: false,
            base: Probe {
                requested: 1.0,
                factor: 1.0,
                feasible: true,
                schedulable: true,
                chains_ok: None,
                worst_chain_latency: None,
                source: ProbeSource::Simulated,
                domain_edge: None,
            },
            breakdown: BreakdownResult {
                outcome: BreakdownOutcome::Converged,
                lo: Some(2.375),
                hi: Some(2.3828125),
                records: vec![
                    ProbeRecord {
                        factor: 1.0,
                        feasible: true,
                    },
                    ProbeRecord {
                        factor: 2.375,
                        feasible: true,
                    },
                    ProbeRecord {
                        factor: 2.3828125,
                        feasible: false,
                    },
                ],
                flips: vec![],
            },
            per_task: vec![TaskSensitivity {
                task: TaskRef::new(PartitionId::from_raw(0), 0),
                label: "P1/t1".to_string(),
                result: BreakdownResult {
                    outcome: BreakdownOutcome::Converged,
                    lo: Some(3.0),
                    hi: Some(3.0078125),
                    records: vec![],
                    flips: vec![],
                },
            }],
        }
    }

    #[test]
    fn json_is_single_line_and_stable() {
        let report = sample_report();
        let json = report.render_json();
        assert!(!json.contains('\n'));
        assert!(json.starts_with("{\"status\":\"done\",\"axis\":\"wcet\""));
        assert!(json.contains("\"certified\":true"));
        assert!(json.contains("\"breakdown\":2.375"));
        assert!(json.contains("\"per_task\":[{\"task\":\"P1/t1\",\"slack\":2,"));
        // Rendering twice is byte-identical (the serve/CLI agreement gate).
        assert_eq!(json, report.render_json());
    }

    #[test]
    fn step_json_shape() {
        let step = SearchStep {
            probe: 3,
            factor: 1.5,
            feasible: true,
            lo: Some(1.5),
            hi: None,
        };
        assert_eq!(
            render_step_json(&step),
            "{\"status\":\"step\",\"probe\":3,\"factor\":1.5,\"feasible\":true,\"lo\":1.5,\"hi\":null}"
        );
    }

    #[test]
    fn table_mentions_the_bracket_and_sorts_by_slack() {
        let mut report = sample_report();
        report.per_task.push(TaskSensitivity {
            task: TaskRef::new(PartitionId::from_raw(0), 1),
            label: "P1/t0".to_string(),
            result: BreakdownResult {
                outcome: BreakdownOutcome::Converged,
                lo: Some(1.5),
                hi: Some(1.5078125),
                records: vec![],
                flips: vec![],
            },
        });
        let table = report.render_table();
        assert!(table.contains("breakdown:  2.375"));
        assert!(table.contains("certified ±0.01"));
        // Tighter slack (P1/t0, 0.5) sorts before P1/t1 (2.0).
        let pos0 = table.find("P1/t0").unwrap();
        let pos1 = table.find("P1/t1").unwrap();
        assert!(pos0 < pos1, "ascending slack order:\n{table}");
    }

    #[test]
    fn non_monotone_table_flags_flips() {
        let mut report = sample_report();
        report.breakdown.outcome = BreakdownOutcome::NonMonotone;
        report.breakdown.flips = vec![(1.5, 2.0)];
        let table = report.render_table();
        assert!(table.contains("non-monotone"));
        assert!(table.contains("1 monotonicity violation"));
        assert!(table.contains("NOT certified"));
        let json = report.render_json();
        assert!(json.contains("\"flips\":[[1.5,2]]"));
        assert!(json.contains("\"certified\":false"));
    }
}
