//! Typed parameter axes.
//!
//! An [`Axis`] names one direction in configuration space along which a
//! sweep scales the base configuration by a single factor. Larger factors
//! always mean *more stress*: WCET axes multiply execution times by the
//! factor, the period axis *divides* periods by it (shorter periods =
//! higher rate), and the offset axis shifts release phases by a fraction
//! of each task's period (a perturbation axis, inherently non-monotone).
//!
//! [`Axis::apply`] produces a fully validated scaled [`Configuration`] or
//! a typed [`SweepError`] explaining which IMA boundary the factor ran
//! into — scaled parameters are never silently saturated.

use swa_ima::window::total_window_time;
use swa_ima::{Configuration, PartitionId, TaskRef};

use crate::error::SweepError;

/// One direction in parameter space, scaled by a single positive factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// Scale every task's WCET (on every core type) by the factor.
    WcetScale,
    /// Scale one task's WCET by the factor, leaving the rest untouched.
    TaskWcetScale(TaskRef),
    /// Divide every period by the factor (harmonic-ratio preserving):
    /// deadlines, offsets and partition windows shrink proportionally.
    PeriodScale,
    /// Shift every task's release offset by `round(period · factor)`,
    /// wrapped modulo its period. Non-monotone by nature.
    OffsetShift,
}

impl Axis {
    /// Parses an axis specification: `"wcet"`, `"period"`, `"offset"`, or
    /// `"wcet:<partition>/<task>"` (names as in the configuration).
    ///
    /// # Errors
    ///
    /// [`SweepError::UnknownAxis`] for an unrecognized spec,
    /// [`SweepError::UnknownTask`] when the named task does not exist.
    pub fn parse(spec: &str, config: &Configuration) -> Result<Self, SweepError> {
        match spec {
            "wcet" => Ok(Axis::WcetScale),
            "period" => Ok(Axis::PeriodScale),
            "offset" => Ok(Axis::OffsetShift),
            _ => {
                if let Some(path) = spec.strip_prefix("wcet:") {
                    let Some((pname, tname)) = path.split_once('/') else {
                        return Err(SweepError::UnknownTask(path.to_string()));
                    };
                    for (pi, p) in config.partitions.iter().enumerate() {
                        if p.name != pname {
                            continue;
                        }
                        for (ti, t) in p.tasks.iter().enumerate() {
                            if t.name == tname {
                                return Ok(Axis::TaskWcetScale(TaskRef::new(
                                    PartitionId::from_raw(
                                        u32::try_from(pi).expect("partition count fits u32"),
                                    ),
                                    u32::try_from(ti).expect("task count fits u32"),
                                )));
                            }
                        }
                    }
                    Err(SweepError::UnknownTask(path.to_string()))
                } else {
                    Err(SweepError::UnknownAxis(spec.to_string()))
                }
            }
        }
    }

    /// A stable human/JSON label for the axis (`wcet`, `period`, `offset`,
    /// or `wcet:<partition>/<task>`).
    #[must_use]
    pub fn label(&self, config: &Configuration) -> String {
        match self {
            Axis::WcetScale => "wcet".to_string(),
            Axis::PeriodScale => "period".to_string(),
            Axis::OffsetShift => "offset".to_string(),
            Axis::TaskWcetScale(tr) => match config.task(*tr) {
                Some(t) => {
                    let pname = config
                        .partition(tr.partition)
                        .map_or_else(|| tr.partition.to_string(), |p| p.name.clone());
                    format!("wcet:{pname}/{}", t.name)
                }
                None => format!("wcet:{tr}"),
            },
        }
    }

    /// Whether feasibility along this axis is expected to be monotone in
    /// the factor (more stress can only break, never repair). Offset
    /// shifts are phase perturbations and carry no such guarantee.
    #[must_use]
    pub fn is_monotone(&self) -> bool {
        !matches!(self, Axis::OffsetShift)
    }

    /// Applies the axis at the given factor to `base`, returning a scaled
    /// configuration that passed IMA validation.
    ///
    /// # Errors
    ///
    /// [`SweepError::NonPositiveFactor`] for factors that are not finite
    /// and positive; otherwise a typed boundary error (see
    /// [`SweepError::is_domain_edge`]) when the scaled parameters leave
    /// the IMA domain.
    pub fn apply(&self, base: &Configuration, factor: f64) -> Result<Configuration, SweepError> {
        if !factor.is_finite() || factor <= 0.0 {
            return Err(SweepError::NonPositiveFactor(factor));
        }
        let mut scaled = base.clone();
        match self {
            Axis::WcetScale => {
                for p in &mut scaled.partitions {
                    for t in &mut p.tasks {
                        scale_wcet_vec(&t.name, &mut t.wcet, factor)?;
                    }
                }
                check_window_capacity(&scaled)?;
            }
            Axis::TaskWcetScale(tr) => {
                let p = scaled
                    .partitions
                    .get_mut(tr.partition.index())
                    .ok_or_else(|| SweepError::UnknownTask(tr.to_string()))?;
                let t = p
                    .tasks
                    .get_mut(tr.task as usize)
                    .ok_or_else(|| SweepError::UnknownTask(tr.to_string()))?;
                scale_wcet_vec(&t.name, &mut t.wcet, factor)?;
                check_window_capacity(&scaled)?;
            }
            Axis::PeriodScale => scale_periods(&mut scaled, factor)?,
            Axis::OffsetShift => {
                for p in &mut scaled.partitions {
                    for t in &mut p.tasks {
                        #[allow(clippy::cast_precision_loss)]
                        let shift = round_scale(t.period, factor);
                        if t.period > 0 {
                            t.offset = (t.offset + shift).rem_euclid(t.period);
                        }
                    }
                }
            }
        }
        if let Err(errors) = scaled.validate() {
            let detail = errors
                .iter()
                .map(std::string::ToString::to_string)
                .collect::<Vec<_>>()
                .join("; ");
            return Err(SweepError::InvalidScaledConfig(detail));
        }
        Ok(scaled)
    }
}

/// `round(v · factor)` with overflow reported as an out-of-domain value
/// (`i64::MAX`), computed in `f64` — exact for the magnitudes IMA ticks
/// use (WCETs and periods are far below 2^53).
fn round_scale(v: i64, factor: f64) -> i64 {
    #[allow(clippy::cast_precision_loss)]
    let x = (v as f64 * factor).round();
    if x >= 9.0e18 {
        i64::MAX
    } else {
        #[allow(clippy::cast_possible_truncation)]
        let r = x as i64;
        r
    }
}

/// Scales every core-type entry of one task's WCET vector.
fn scale_wcet_vec(task: &str, wcet: &mut [i64], factor: f64) -> Result<(), SweepError> {
    for w in wcet {
        let scaled = round_scale(*w, factor);
        if scaled < 1 {
            return Err(SweepError::WcetUnderflow {
                task: task.to_string(),
                factor,
            });
        }
        *w = scaled;
    }
    Ok(())
}

/// Rejects configurations whose per-hyperperiod WCET demand exceeds the
/// window time granted to a partition — a provably unschedulable point,
/// reported as a typed boundary instead of letting a long simulation
/// discover it.
fn check_window_capacity(config: &Configuration) -> Result<(), SweepError> {
    let l = config.hyperperiod().ok_or(SweepError::NoHyperperiod)?;
    for (pi, p) in config.partitions.iter().enumerate() {
        let pid = PartitionId::from_raw(u32::try_from(pi).expect("partition count fits u32"));
        let mut demand: i64 = 0;
        for (ti, t) in p.tasks.iter().enumerate() {
            if t.period <= 0 {
                continue;
            }
            let tr = TaskRef::new(pid, u32::try_from(ti).expect("task count fits u32"));
            let wcet = config
                .effective_wcet(tr)
                .or_else(|| t.wcet.iter().copied().max())
                .unwrap_or(0);
            demand = demand.saturating_add(wcet.saturating_mul(l / t.period));
        }
        let capacity = config.windows.get(pi).map_or(0, |ws| total_window_time(ws));
        if demand > capacity {
            return Err(SweepError::WcetExceedsWindows {
                partition: p.name.clone(),
                demand,
                capacity,
            });
        }
    }
    Ok(())
}

/// Divides all periods by `factor`, preserving harmonic ratios: the
/// smallest period is scaled first and every other time parameter follows
/// the exact rational ratio `p_min' / p_min`, so a harmonic period menu
/// stays harmonic and the hyperperiod scales without drift.
fn scale_periods(config: &mut Configuration, factor: f64) -> Result<(), SweepError> {
    let Some((min_name, p_min)) = config
        .tasks()
        .map(|(_, t)| (t.name.clone(), t.period))
        .filter(|&(_, p)| p > 0)
        .min_by_key(|&(_, p)| p)
    else {
        return Ok(()); // no tasks: nothing to scale, validation will flag it
    };
    let p_min_scaled = round_scale(p_min, 1.0 / factor);
    if p_min_scaled < 1 {
        return Err(SweepError::PeriodUnderflow {
            task: min_name,
            factor,
        });
    }
    // Exact rational rescale by p_min'/p_min, rounding half up.
    let ratio = |v: i64| -> i64 {
        let n = i128::from(v) * i128::from(p_min_scaled) + i128::from(p_min) / 2;
        i64::try_from(n / i128::from(p_min)).unwrap_or(i64::MAX)
    };
    for p in &mut config.partitions {
        for t in &mut p.tasks {
            let new_period = ratio(t.period);
            if new_period < 1 {
                return Err(SweepError::PeriodUnderflow {
                    task: t.name.clone(),
                    factor,
                });
            }
            t.deadline = ratio(t.deadline).clamp(1, new_period);
            t.offset = ratio(t.offset).rem_euclid(new_period);
            t.period = new_period;
        }
    }
    for (pi, ws) in config.windows.iter_mut().enumerate() {
        for w in ws {
            w.start = ratio(w.start);
            w.end = ratio(w.end);
            if w.end <= w.start {
                let name = config
                    .partitions
                    .get(pi)
                    .map_or_else(|| format!("part{pi}"), |p| p.name.clone());
                return Err(SweepError::WindowCollapsed { partition: name });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use swa_ima::{CoreRef, CoreType, Module, ModuleId, Partition, SchedulerKind, Task, Window};

    /// One module, one core, one partition, two tasks (periods 50/100),
    /// windows covering the whole hyperperiod.
    fn config() -> Configuration {
        Configuration {
            core_types: vec![CoreType::new("generic")],
            modules: vec![Module::homogeneous(
                "M1",
                1,
                swa_ima::CoreTypeId::from_raw(0),
            )],
            partitions: vec![Partition::new(
                "P1",
                SchedulerKind::Fpps,
                vec![
                    Task::new("t1", 2, vec![10], 50).with_offset(5),
                    Task::new("t2", 1, vec![20], 100).with_deadline(80),
                ],
            )],
            binding: vec![CoreRef::new(ModuleId::from_raw(0), 0)],
            windows: vec![vec![Window::new(0, 100)]],
            messages: vec![],
        }
    }

    #[test]
    fn parse_known_axes() {
        let c = config();
        assert_eq!(Axis::parse("wcet", &c).unwrap(), Axis::WcetScale);
        assert_eq!(Axis::parse("period", &c).unwrap(), Axis::PeriodScale);
        assert_eq!(Axis::parse("offset", &c).unwrap(), Axis::OffsetShift);
        let per_task = Axis::parse("wcet:P1/t2", &c).unwrap();
        assert_eq!(
            per_task,
            Axis::TaskWcetScale(TaskRef::new(PartitionId::from_raw(0), 1))
        );
        assert_eq!(per_task.label(&c), "wcet:P1/t2");
        assert!(matches!(
            Axis::parse("jitter", &c),
            Err(SweepError::UnknownAxis(_))
        ));
        assert!(matches!(
            Axis::parse("wcet:P1/ghost", &c),
            Err(SweepError::UnknownTask(_))
        ));
        assert!(matches!(
            Axis::parse("wcet:no-slash", &c),
            Err(SweepError::UnknownTask(_))
        ));
    }

    #[test]
    fn rejects_non_positive_factors() {
        let c = config();
        for f in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                Axis::WcetScale.apply(&c, f),
                Err(SweepError::NonPositiveFactor(_))
            ));
        }
    }

    #[test]
    fn wcet_scale_rounds_and_validates() {
        let c = config();
        let scaled = Axis::WcetScale.apply(&c, 1.5).unwrap();
        assert_eq!(scaled.partitions[0].tasks[0].wcet, vec![15]);
        assert_eq!(scaled.partitions[0].tasks[1].wcet, vec![30]);
        // Periods and windows untouched.
        assert_eq!(scaled.partitions[0].tasks[0].period, 50);
        assert_eq!(scaled.windows, c.windows);
    }

    #[test]
    fn wcet_underflow_is_typed() {
        let c = config();
        let err = Axis::WcetScale.apply(&c, 0.01).unwrap_err();
        assert!(matches!(err, SweepError::WcetUnderflow { .. }));
        assert!(err.is_domain_edge());
    }

    #[test]
    fn wcet_beyond_window_capacity_is_typed() {
        let c = config();
        // Demand at factor 3: 30·2 + 60·1 = 120 > capacity 100.
        let err = Axis::WcetScale.apply(&c, 3.0).unwrap_err();
        match &err {
            SweepError::WcetExceedsWindows {
                partition,
                demand,
                capacity,
            } => {
                assert_eq!(partition, "P1");
                assert_eq!(*demand, 120);
                assert_eq!(*capacity, 100);
            }
            other => panic!("expected WcetExceedsWindows, got {other:?}"),
        }
        assert!(err.is_domain_edge());
    }

    #[test]
    fn per_task_scale_touches_only_one_task() {
        let c = config();
        let tr = TaskRef::new(PartitionId::from_raw(0), 0);
        let scaled = Axis::TaskWcetScale(tr).apply(&c, 2.0).unwrap();
        assert_eq!(scaled.partitions[0].tasks[0].wcet, vec![20]);
        assert_eq!(scaled.partitions[0].tasks[1].wcet, vec![20]);
    }

    #[test]
    fn period_scale_preserves_harmonic_ratio() {
        let c = config();
        // Factor 2 = twice the rate: periods 50/100 → 25/50.
        let scaled = Axis::PeriodScale.apply(&c, 2.0).unwrap();
        assert_eq!(scaled.partitions[0].tasks[0].period, 25);
        assert_eq!(scaled.partitions[0].tasks[1].period, 50);
        // Deadline, offset and windows follow the same ratio.
        assert_eq!(scaled.partitions[0].tasks[1].deadline, 40);
        assert_eq!(scaled.partitions[0].tasks[0].offset, 3); // round(5/2)
        assert_eq!(scaled.windows[0], vec![Window::new(0, 50)]);
        assert_eq!(scaled.hyperperiod(), Some(50));
        // Relaxing (factor < 1) stretches instead.
        let relaxed = Axis::PeriodScale.apply(&c, 0.5).unwrap();
        assert_eq!(relaxed.partitions[0].tasks[0].period, 100);
        assert_eq!(relaxed.hyperperiod(), Some(200));
    }

    #[test]
    fn period_underflow_and_window_collapse_are_typed() {
        let c = config();
        let err = Axis::PeriodScale.apply(&c, 1e9).unwrap_err();
        assert!(matches!(err, SweepError::PeriodUnderflow { .. }));
        assert!(err.is_domain_edge());

        let mut tiny = config();
        tiny.windows[0] = vec![Window::new(0, 1), Window::new(2, 100)];
        let err = Axis::PeriodScale.apply(&tiny, 10.0).unwrap_err();
        assert!(matches!(err, SweepError::WindowCollapsed { .. }));
        assert!(err.is_domain_edge());
    }

    #[test]
    fn offset_shift_wraps_modulo_period() {
        let c = config();
        // Shift by 0.5 of each period: t1 offset 5+25 = 30 (mod 50),
        // t2 offset 0+50 = 50 → 50 % 100 = 50... but deadline 80 keeps it
        // valid only if offset < period, which holds.
        let shifted = Axis::OffsetShift.apply(&c, 0.5).unwrap();
        assert_eq!(shifted.partitions[0].tasks[0].offset, 30);
        assert_eq!(shifted.partitions[0].tasks[1].offset, 50);
        // A full-period shift is the identity.
        let full = Axis::OffsetShift.apply(&c, 1.0).unwrap();
        assert_eq!(full.partitions[0].tasks[0].offset, 5);
        assert_eq!(full.partitions[0].tasks[1].offset, 0);
        assert!(!Axis::OffsetShift.is_monotone());
        assert!(Axis::WcetScale.is_monotone());
    }

    #[test]
    fn scaled_configs_always_validate() {
        let c = config();
        for f in [0.25, 0.5, 1.0, 1.3] {
            let scaled = Axis::WcetScale.apply(&c, f).unwrap();
            scaled.validate().unwrap();
        }
        for f in [0.5, 1.0, 2.0] {
            let scaled = Axis::PeriodScale.apply(&c, f).unwrap();
            scaled.validate().unwrap();
        }
    }
}
