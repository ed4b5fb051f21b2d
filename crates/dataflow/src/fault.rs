//! Deterministic task-level fault injection.
//!
//! Real Spark clusters lose executors mid-stage; the scheduler reacts with
//! bounded per-task retries and speculative re-execution, and the paper's
//! RDD-based formulation inherits exactly that recovery story (§1, Zaharia
//! et al. NSDI 2012). To lock the engine's recovery machinery under test,
//! this module injects faults at *task granularity*: a pure function of
//! `(seed, stage, partition, attempt)` decides whether a given task attempt
//! crashes before producing output, crashes after computing its partition
//! (exercising discard-of-completed-work), or stalls like a straggler
//! (exercising speculative execution).
//!
//! Because the decision is a hash of the coordinates — there is no shared
//! RNG state — injection is reproducible regardless of executor thread
//! interleaving: the same seed always kills the same attempts.

use std::time::Duration;

/// What an injected fault does to the chosen task attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum InjectedFault {
    /// The attempt fails before computing anything (executor lost at
    /// launch).
    Crash,
    /// The attempt computes its partition, then fails before its output is
    /// committed (executor lost while reporting). Output must be
    /// discarded, not double-counted.
    LateCrash,
    /// The attempt stalls for the given duration before computing
    /// (straggler; the target of speculative execution).
    Delay(Duration),
}

/// Configuration for the engine's deterministic fault injector.
///
/// Probabilities are evaluated per `(stage, partition, attempt)` triple in
/// the order crash → late crash → delay; their sum should stay ≤ 1.
/// `max_faults_per_task` bounds how many attempts of one task are eligible
/// for injection, guaranteeing progress whenever it is smaller than the
/// cluster's `max_task_attempts`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed for the per-attempt hash; different seeds give independent
    /// fault schedules.
    pub seed: u64,
    /// Probability an eligible attempt crashes before computing.
    pub crash_probability: f64,
    /// Probability an eligible attempt crashes after computing.
    pub late_crash_probability: f64,
    /// Probability an eligible attempt is delayed.
    pub delay_probability: f64,
    /// Length of an injected delay, in milliseconds.
    pub delay_millis: u64,
    /// Attempts with index `>= max_faults_per_task` are never faulted, so
    /// a task can be killed at most this many times.
    pub max_faults_per_task: usize,
}

impl FaultConfig {
    /// Schedule that crashes eligible first attempts with `probability`.
    pub fn crashes(seed: u64, probability: f64) -> Self {
        assert!((0.0..=1.0).contains(&probability));
        FaultConfig {
            seed,
            crash_probability: probability,
            late_crash_probability: 0.0,
            delay_probability: 0.0,
            delay_millis: 0,
            max_faults_per_task: 1,
        }
    }

    /// Adds late crashes (fail after compute) with `probability`.
    pub fn with_late_crashes(mut self, probability: f64) -> Self {
        assert!((0.0..=1.0).contains(&probability));
        self.late_crash_probability = probability;
        self
    }

    /// Adds straggler delays of `millis` ms with `probability`.
    pub fn with_delays(mut self, probability: f64, millis: u64) -> Self {
        assert!((0.0..=1.0).contains(&probability));
        self.delay_probability = probability;
        self.delay_millis = millis;
        self
    }
}

/// Deterministic fault oracle: a stateless hash of the fault coordinates.
#[derive(Debug, Clone)]
pub(crate) struct FaultInjector {
    config: FaultConfig,
}

impl FaultInjector {
    /// Creates an injector for the given schedule.
    pub(crate) fn new(config: FaultConfig) -> Self {
        FaultInjector { config }
    }

    /// Decides the fate of `(stage, partition, attempt)`. Pure: the same
    /// coordinates always get the same answer.
    pub(crate) fn decide(
        &self,
        stage: usize,
        partition: usize,
        attempt: usize,
    ) -> Option<InjectedFault> {
        let c = &self.config;
        if attempt >= c.max_faults_per_task {
            return None;
        }
        let draw = unit_hash(c.seed, stage as u64, partition as u64, attempt as u64);
        if draw < c.crash_probability {
            Some(InjectedFault::Crash)
        } else if draw < c.crash_probability + c.late_crash_probability {
            Some(InjectedFault::LateCrash)
        } else if draw < c.crash_probability + c.late_crash_probability + c.delay_probability {
            Some(InjectedFault::Delay(Duration::from_millis(c.delay_millis)))
        } else {
            None
        }
    }
}

/// Hashes the fault coordinates into a uniform float in `[0, 1)` with two
/// rounds of SplitMix64 finalization.
fn unit_hash(seed: u64, stage: u64, partition: u64, attempt: u64) -> f64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stage.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(partition.wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(attempt.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    for _ in 0..2 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
    }
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let a = FaultInjector::new(FaultConfig::crashes(7, 0.5));
        let b = FaultInjector::new(FaultConfig::crashes(7, 0.5));
        for stage in 0..10 {
            for part in 0..10 {
                assert_eq!(a.decide(stage, part, 0), b.decide(stage, part, 0));
            }
        }
    }

    #[test]
    fn seeds_give_different_schedules() {
        let a = FaultInjector::new(FaultConfig::crashes(1, 0.5));
        let b = FaultInjector::new(FaultConfig::crashes(2, 0.5));
        let differs = (0..100).any(|p| a.decide(0, p, 0) != b.decide(0, p, 0));
        assert!(differs);
    }

    #[test]
    fn attempts_beyond_cap_never_faulted() {
        let inj = FaultInjector::new(FaultConfig {
            max_faults_per_task: 2,
            ..FaultConfig::crashes(3, 1.0)
        });
        for stage in 0..5 {
            for part in 0..5 {
                assert_eq!(inj.decide(stage, part, 0), Some(InjectedFault::Crash));
                assert_eq!(inj.decide(stage, part, 1), Some(InjectedFault::Crash));
                assert_eq!(inj.decide(stage, part, 2), None);
            }
        }
    }

    #[test]
    fn probabilities_partition_outcomes() {
        let inj = FaultInjector::new(
            FaultConfig::crashes(9, 0.3)
                .with_late_crashes(0.3)
                .with_delays(0.3, 5),
        );
        let (mut crash, mut late, mut delay, mut none) = (0, 0, 0, 0);
        for part in 0..2000 {
            match inj.decide(0, part, 0) {
                Some(InjectedFault::Crash) => crash += 1,
                Some(InjectedFault::LateCrash) => late += 1,
                Some(InjectedFault::Delay(d)) => {
                    assert_eq!(d, Duration::from_millis(5));
                    delay += 1;
                }
                None => none += 1,
            }
        }
        // ~30/30/30/10 split; generous tolerance.
        for (n, expect) in [(crash, 600), (late, 600), (delay, 600), (none, 200)] {
            assert!(
                (n as i64 - expect as i64).abs() < 200,
                "split off: {crash}/{late}/{delay}/{none}"
            );
        }
    }

    #[test]
    fn zero_probability_injects_nothing() {
        let inj = FaultInjector::new(FaultConfig::crashes(5, 0.0));
        assert!((0..100).all(|p| inj.decide(0, p, 0).is_none()));
    }
}
