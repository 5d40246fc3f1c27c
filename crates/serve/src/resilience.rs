//! Resilience primitives for multi-instance serving: bounded retry with
//! jittered exponential backoff, a per-backend circuit breaker, and
//! inflight-bounded load shedding.
//!
//! These are the std-only building blocks the router ([`crate::router`])
//! and the sharding client use on every hop:
//!
//! * [`Backoff`] — exponential delays with multiplicative jitter
//!   (splitmix64-derived, seeded per request) so a fleet of retrying
//!   clients never synchronizes into waves.
//! * [`CircuitBreaker`] — Closed → Open → HalfOpen. A backend that keeps
//!   failing is skipped outright for a cooldown instead of burning a
//!   retry budget per request on it; one probe re-closes it.
//! * [`LoadShedder`] — an inflight ceiling checked *before* any work is
//!   done on a request (parsing included). Unlike the worker pool's
//!   bounded queue (429 after parse + cache probe), shedding is the
//!   cheap first line of defense when a burst exceeds what the box
//!   should even read.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Delay before the first retry; doubles each retry.
const BASE_DELAY: Duration = Duration::from_millis(25);
/// Cap on any single retry delay.
const MAX_DELAY: Duration = Duration::from_secs(1);

/// Retry budget for one logical operation. Delays start at 25 ms,
/// double per retry and are capped at 1 s.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts including the first (1 = no retries).
    pub attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { attempts: 3 }
    }
}

/// Iterator-style backoff: each call to [`next_delay`](Self::next_delay)
/// consumes one retry from the policy's budget.
#[derive(Debug)]
pub struct Backoff {
    policy: RetryPolicy,
    used: u32,
    rng: u64,
}

impl Backoff {
    /// Starts a backoff sequence; `seed` decorrelates concurrent callers
    /// (any value works — a cache key, an address hash).
    #[must_use]
    pub fn new(policy: RetryPolicy, seed: u64) -> Self {
        Self {
            policy,
            used: 0,
            rng: seed,
        }
    }

    /// splitmix64 step — the workspace's standard tiny PRNG.
    fn next_u64(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The delay before the next retry, or `None` once the attempt budget
    /// is spent. Delays double per retry from 25 ms, capped at 1 s, then
    /// scaled by a jitter factor in `[0.5, 1.0)`.
    pub fn next_delay(&mut self) -> Option<Duration> {
        if self.used + 1 >= self.policy.attempts {
            return None;
        }
        let exp = self.used.min(16);
        self.used += 1;
        let raw = BASE_DELAY.saturating_mul(1u32 << exp).min(MAX_DELAY);
        #[allow(clippy::cast_precision_loss)]
        let jitter = 0.5 + (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 / 2.0;
        Some(raw.mul_f64(jitter))
    }

    /// Retries consumed so far.
    #[must_use]
    pub fn retries(&self) -> u32 {
        self.used
    }
}

/// Circuit breaker configuration: the router uses the default (3
/// failures, 5 s cooldown); tests shorten the cooldown.
#[derive(Debug, Clone)]
pub(crate) struct BreakerOptions {
    /// Consecutive failures that trip the breaker open.
    pub(crate) failure_threshold: u32,
    /// How long an open breaker rejects before allowing one probe.
    pub(crate) cooldown: Duration,
}

impl Default for BreakerOptions {
    fn default() -> Self {
        Self {
            failure_threshold: 3,
            cooldown: Duration::from_secs(5),
        }
    }
}

#[derive(Debug)]
enum BreakerState {
    /// Healthy; counts consecutive failures toward the threshold.
    Closed { failures: u32 },
    /// Tripped; rejects until the cooldown expires.
    Open { until: Instant },
    /// Cooldown expired; one probe decides open vs closed.
    HalfOpen,
}

/// A per-backend circuit breaker (Closed → Open → HalfOpen).
///
/// Failure accounting is the caller's: I/O errors and 5xx responses are
/// failures; backpressure (429) is not — a full queue is the backend
/// working as designed, and tripping on it would amplify the overload.
#[derive(Debug)]
pub struct CircuitBreaker {
    options: BreakerOptions,
    state: Mutex<BreakerState>,
}

impl CircuitBreaker {
    /// A closed breaker with the given thresholds.
    #[must_use]
    pub(crate) fn new(options: BreakerOptions) -> Self {
        Self {
            options,
            state: Mutex::new(BreakerState::Closed { failures: 0 }),
        }
    }

    /// Whether a request may proceed. An expired open breaker transitions
    /// to half-open and admits the caller as the probe.
    pub fn allow(&self) -> bool {
        let mut state = self.state.lock().expect("unpoisoned");
        match *state {
            BreakerState::Closed { .. } | BreakerState::HalfOpen => true,
            BreakerState::Open { until } => {
                if Instant::now() >= until {
                    *state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a success; returns true when this re-closed a tripped
    /// breaker (for `breaker.closed` accounting).
    pub fn record_success(&self) -> bool {
        let mut state = self.state.lock().expect("unpoisoned");
        let was_tripped = !matches!(*state, BreakerState::Closed { .. });
        *state = BreakerState::Closed { failures: 0 };
        was_tripped
    }

    /// Records a failure; returns true when this tripped the breaker open
    /// (for `breaker.opened` accounting).
    pub fn record_failure(&self) -> bool {
        let mut state = self.state.lock().expect("unpoisoned");
        match *state {
            BreakerState::Closed { failures } => {
                let failures = failures + 1;
                if failures >= self.options.failure_threshold {
                    *state = BreakerState::Open {
                        until: Instant::now() + self.options.cooldown,
                    };
                    true
                } else {
                    *state = BreakerState::Closed { failures };
                    false
                }
            }
            BreakerState::HalfOpen => {
                // The probe failed; re-open for another cooldown.
                *state = BreakerState::Open {
                    until: Instant::now() + self.options.cooldown,
                };
                true
            }
            BreakerState::Open { .. } => false,
        }
    }

    /// True while the breaker rejects traffic.
    pub fn is_open(&self) -> bool {
        matches!(
            *self.state.lock().expect("unpoisoned"),
            BreakerState::Open { until } if Instant::now() < until
        )
    }
}

/// Inflight-request ceiling; acquire a permit before doing any work.
#[derive(Debug)]
pub struct LoadShedder {
    /// 0 = unlimited.
    limit: usize,
    inflight: AtomicUsize,
}

impl LoadShedder {
    /// A shedder admitting at most `limit` concurrent holders (`0` for
    /// unlimited).
    #[must_use]
    pub fn new(limit: usize) -> Self {
        Self {
            limit,
            inflight: AtomicUsize::new(0),
        }
    }

    /// Tries to admit one request; `None` means shed it immediately. The
    /// permit releases its slot on drop, so every early-return path in
    /// the handler gives the slot back.
    pub fn try_acquire(&self) -> Option<ShedPermit<'_>> {
        if self.limit == 0 {
            return Some(ShedPermit { shedder: None });
        }
        let mut current = self.inflight.load(Ordering::Relaxed);
        loop {
            if current >= self.limit {
                return None;
            }
            match self.inflight.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    return Some(ShedPermit {
                        shedder: Some(self),
                    })
                }
                Err(observed) => current = observed,
            }
        }
    }

    /// Requests currently admitted.
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Relaxed)
    }
}

/// RAII inflight slot from [`LoadShedder::try_acquire`].
#[derive(Debug)]
pub struct ShedPermit<'a> {
    shedder: Option<&'a LoadShedder>,
}

impl Drop for ShedPermit<'_> {
    fn drop(&mut self) {
        if let Some(shedder) = self.shedder {
            shedder.inflight.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_budget_and_bounds() {
        let mut backoff = Backoff::new(RetryPolicy { attempts: 8 }, 42);
        let mut delays = Vec::new();
        while let Some(d) = backoff.next_delay() {
            delays.push(d);
        }
        assert_eq!(delays.len(), 7, "attempts=8 means 7 retries");
        assert_eq!(backoff.retries(), 7);
        // Jitter keeps each delay in [0.5, 1.0) of its nominal value, and
        // the nominal ladder doubles from 25 ms up to the 1 s cap.
        for (d, nominal) in delays.iter().zip([25u64, 50, 100, 200, 400, 800, 1000]) {
            assert!(d.as_millis() as u64 >= nominal / 2, "{d:?} < {nominal}/2");
            assert!(d.as_millis() as u64 <= nominal, "{d:?} > {nominal}");
        }
    }

    #[test]
    fn backoff_jitter_decorrelates_seeds() {
        let policy = RetryPolicy::default();
        let a = Backoff::new(policy.clone(), 1).next_delay().unwrap();
        let b = Backoff::new(policy, 2).next_delay().unwrap();
        assert_ne!(a, b, "different seeds must jitter differently");
    }

    #[test]
    fn breaker_trips_cools_down_and_recloses() {
        let breaker = CircuitBreaker::new(BreakerOptions {
            failure_threshold: 2,
            cooldown: Duration::from_millis(30),
        });
        assert!(breaker.allow());
        assert!(!breaker.record_failure(), "below threshold");
        assert!(breaker.allow());
        assert!(breaker.record_failure(), "threshold trips it open");
        assert!(!breaker.allow());
        assert!(breaker.is_open());
        std::thread::sleep(Duration::from_millis(40));
        assert!(breaker.allow(), "cooldown expired admits a probe");
        assert!(breaker.record_success(), "probe success re-closes");
        assert!(breaker.allow());
        assert!(!breaker.is_open());
    }

    #[test]
    fn breaker_halfopen_probe_failure_reopens() {
        let breaker = CircuitBreaker::new(BreakerOptions {
            failure_threshold: 1,
            cooldown: Duration::from_millis(20),
        });
        assert!(breaker.record_failure());
        std::thread::sleep(Duration::from_millis(30));
        assert!(breaker.allow());
        assert!(breaker.record_failure(), "failed probe re-opens");
        assert!(!breaker.allow());
    }

    #[test]
    fn shedder_limits_and_releases_on_drop() {
        let shedder = LoadShedder::new(2);
        let a = shedder.try_acquire().expect("slot 1");
        let _b = shedder.try_acquire().expect("slot 2");
        assert!(shedder.try_acquire().is_none(), "limit reached");
        assert_eq!(shedder.inflight(), 2);
        drop(a);
        assert_eq!(shedder.inflight(), 1);
        assert!(shedder.try_acquire().is_some(), "slot freed by drop");
    }

    #[test]
    fn shedder_zero_means_unlimited() {
        let shedder = LoadShedder::new(0);
        let permits: Vec<_> = (0..100).map(|_| shedder.try_acquire().unwrap()).collect();
        assert_eq!(shedder.inflight(), 0, "unlimited permits are untracked");
        drop(permits);
    }
}
