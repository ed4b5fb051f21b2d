//! Chaos suite: task crashes, late crashes, delays and speculative
//! backups never change numerical results or shuffle counters. The
//! configurations are rows of the bit-identity oracle (`tests/oracle.rs`);
//! each test runs its group.

use cstf_integration_tests::oracle::{assert_replays, check_group, group};
use std::collections::HashSet;

cstf_integration_tests::oracle_groups!(
    coo_mttkrp_bit_identical_across_twenty_fault_schedules,
    qcoo_full_mode_cycle_bit_identical_under_faults,
    cp_als_iteration_bit_identical_under_faults,
    shuffle_metrics_not_double_counted_on_retry,
    speculation_under_injected_delays_is_bit_identical,
);

/// The same fault seed replays the same schedule, and distinct seeds give
/// distinct schedules.
#[test]
fn fault_schedules_replay_deterministically() {
    let name = "chaos::fault_schedules_replay_deterministically";
    let outcomes = check_group(name);
    for (row, outcome) in group(name).iter().zip(&outcomes) {
        assert_replays(row, outcome);
    }
    let failures: HashSet<u64> = outcomes
        .iter()
        .map(|o| o.metrics.total_task_failures())
        .collect();
    assert!(failures.len() > 1, "nine seeds all gave one schedule");
}
