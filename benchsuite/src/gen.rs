//! Seeded input generators. Every input the suite feeds the program is
//! derived from `--seed` here and nowhere else, so the same seed always
//! gives byte-identical inputs (and the same fingerprint digest).

use swa_ima::{Configuration, SchedulerKind};
use swa_workload::{industrial_config, spec_with_jobs, IndustrialSpec, Rng64};

/// An independent, well-mixed seed for one input stream of a run
/// (splitmix64 finaliser over the run seed and the stream id).
#[must_use]
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a: the digest of input fingerprints and golden outputs (stable
/// across Rust releases, unlike the standard library's hasher).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl std::hash::Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// FNV-1a over a byte string.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    use std::hash::Hasher;
    let mut h = Fnv::default();
    h.write(bytes);
    h.finish()
}

/// FNV-1a over any hashable value (fast enough to sit inside a timed
/// operation, unlike hashing its rendered text).
#[must_use]
pub fn fnv_of(value: &impl std::hash::Hash) -> u64 {
    use std::hash::Hasher;
    let mut h = Fnv::default();
    value.hash(&mut h);
    h.finish()
}

/// Rewrites partition `i` to FPPS, FPNPS or EDF by `i % 3`, so every
/// scheduler template of the model is simulated. Priorities stay as
/// generated (EDF ignores them).
pub fn mix_schedulers(config: &mut Configuration) {
    for (i, p) in config.partitions.iter_mut().enumerate() {
        p.scheduler = match i % 3 {
            0 => SchedulerKind::Fpps,
            1 => SchedulerKind::Fpnps,
            _ => SchedulerKind::Edf,
        };
    }
}

/// One paper-scale configuration: the generator's default structure
/// (2 modules × 2 cores × 2 partitions, FPPS, ~20% messages) sized to
/// `jobs`, with the schedulers mixed.
#[must_use]
pub fn paper_scale_config(seed: u64, index: u64, jobs: u64) -> Configuration {
    let mut config = industrial_config(&spec_with_jobs(jobs, sub_seed(seed, 100 + index)));
    mix_schedulers(&mut config);
    config
}

/// The three design-problem families of the design loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// FPPS, no messages: the analytic tiers T1/T2 apply.
    FppsPlain,
    /// FPPS with same-period virtual links (no composition across them).
    FppsMessages,
    /// Alternating FPNPS / EDF partitions, no messages.
    NonPreemptiveEdf,
}

impl Family {
    /// The family of problem `index` (families interleave so any prefix
    /// of the problem sequence is balanced).
    #[must_use]
    pub fn of(index: u64) -> Self {
        match index % 3 {
            0 => Self::FppsPlain,
            1 => Self::FppsMessages,
            _ => Self::NonPreemptiveEdf,
        }
    }
}

/// A multi-module spec of roughly `jobs` jobs: one core per module, two
/// partitions per core and at most 26 tasks per partition (denser
/// packings quantize small WCETs up to whole ticks and overload the
/// windows), scaling the module count instead.
#[allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_precision_loss
)]
#[must_use]
pub fn modular_spec(
    jobs: u64,
    utilization: f64,
    message_fraction: f64,
    seed: u64,
) -> IndustrialSpec {
    let tasks_needed = ((jobs as f64 / 3.75).ceil() as usize).max(1);
    let modules = tasks_needed.div_ceil(52).max(2);
    IndustrialSpec {
        modules,
        cores_per_module: 1,
        partitions_per_core: 2,
        tasks_per_partition: tasks_needed.div_ceil(modules * 2).clamp(1, 26),
        core_utilization: utilization,
        message_fraction,
        seed,
        ..IndustrialSpec::default()
    }
}

/// Design problem `index` of a run: a complete configuration of about
/// `jobs` jobs whose binding and windows the search discards. Families
/// interleave by index, so every run holds them in equal shares.
#[must_use]
pub fn design_config(seed: u64, index: u64, jobs: u64) -> Configuration {
    let s = sub_seed(seed, 200 + index);
    let mut jobs = jobs;
    let family = Family::of(index);
    // Virtual links delay their receivers' releases. Links between tasks
    // of period 200 or more leave the receiver a few frames of slack, so
    // the search still finds a configuration. Such problems neither
    // decompose nor fall to the analytic tiers — every sweep probe
    // simulates the whole system — so half the jobs keeps their visits
    // comparable in cost to the other families'.
    let messages = if family == Family::FppsMessages {
        jobs /= 2;
        0.2
    } else {
        0.0
    };
    let mut config = industrial_config(&modular_spec(jobs, 0.5, messages, s));
    let slack: Vec<bool> = config
        .messages
        .iter()
        .map(|m| config.task(m.sender).is_some_and(|t| t.period >= 200))
        .collect();
    let mut keep = slack.into_iter();
    config.messages.retain(|_| keep.next().unwrap_or(false));
    if family == Family::NonPreemptiveEdf {
        for (i, p) in config.partitions.iter_mut().enumerate() {
            p.scheduler = if i % 2 == 0 {
                SchedulerKind::Fpnps
            } else {
                SchedulerKind::Edf
            };
        }
    }
    config
}

/// The one-partition WCET edit a designer makes before revisiting a
/// problem: one seeded task of one seeded partition grows by ~10%.
#[must_use]
pub fn wcet_edit(config: &Configuration, seed: u64) -> Configuration {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut edited = config.clone();
    let p = rng.gen_range(edited.partitions.len());
    let t = rng.gen_range(edited.partitions[p].tasks.len());
    let task = &mut edited.partitions[p].tasks[t];
    for w in &mut task.wcet {
        *w = (*w + (*w / 10).max(1)).min(task.period);
    }
    edited
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_differ_per_stream_and_seed() {
        assert_ne!(sub_seed(1, 0), sub_seed(1, 1));
        assert_ne!(sub_seed(1, 0), sub_seed(2, 0));
        assert_eq!(sub_seed(7, 3), sub_seed(7, 3));
    }

    #[test]
    fn generators_are_deterministic_and_valid() {
        let a = paper_scale_config(1, 0, 400);
        assert_eq!(a, paper_scale_config(1, 0, 400));
        assert_ne!(a, paper_scale_config(2, 0, 400));
        a.validate().unwrap_or_else(|e| panic!("{e:?}"));
        for i in 0..3 {
            let c = design_config(1, i, 400);
            c.validate().unwrap_or_else(|e| panic!("{e:?}"));
            wcet_edit(&c, 9)
                .validate()
                .unwrap_or_else(|e| panic!("{e:?}"));
        }
    }
}
