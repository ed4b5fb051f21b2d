//! Memory-governed CP-ALS across crates. The bit-identity configurations
//! (COO and QCOO at a quarter of the working set, spilling or recomputing,
//! quiet and under task crashes) are rows of the bit-identity oracle
//! (`tests/oracle.rs`); the modeled cost of spilling and the sequence of
//! storage events a budgeted run logs are checked here.

use cstf_core::{CpAls, CpResult, Strategy};
use cstf_dataflow::prelude::*;
use cstf_dataflow::{Event, Meter, Note};
use cstf_integration_tests::oracle::Tensor;
use cstf_integration_tests::test_cluster;
use cstf_model::TimeModel;
use cstf_tensor::CooTensor;

cstf_integration_tests::oracle_groups!(
    cp_als_bit_identical_at_quarter_budget,
    cp_als_bit_identical_at_quarter_budget_under_chaos,
    memory_raw_recompute_path_matches_reference,
);

fn tensor() -> CooTensor {
    Tensor::LowRank74.build()
}

fn decompose(c: &Cluster, t: &CooTensor, strategy: Strategy, level: StorageLevel) -> CpResult {
    CpAls::new(2)
        .strategy(strategy)
        .max_iterations(2)
        .seed(7)
        .tensor_storage(level)
        .run(c, t)
        .unwrap()
}

fn budgeted_cluster(budget: u64) -> Cluster {
    Cluster::new(ClusterConfig::local(4).nodes(4).memory_budget(budget))
}

/// A budgeted run models strictly more simulated seconds than the
/// unbounded one: spill traffic is charged, not free.
#[test]
fn quarter_budget_run_models_slower_than_unbounded() {
    let t = tensor();
    let unbounded = {
        let c = test_cluster(4);
        let _ = decompose(&c, &t, Strategy::Qcoo, StorageLevel::MemoryAndDisk);
        (
            TimeModel::spark().job_time(&c.metrics().snapshot()),
            c.block_manager().peak_memory_bytes(),
        )
    };
    let c = budgeted_cluster(unbounded.1 / 4);
    let _ = decompose(&c, &t, Strategy::Qcoo, StorageLevel::MemoryAndDisk);
    let tight = TimeModel::spark().job_time(&c.metrics().snapshot());
    assert!(
        tight > unbounded.0,
        "budgeted run must model slower: {tight} vs {}",
        unbounded.0
    );
}

/// The storage events of a budgeted run, pinned in log order: `CpAls`
/// rank 2, 2 iterations, seed 7 on `LowRank74`, one executor thread and
/// four nodes, at a quarter of the unbudgeted run's peak. FNV-1a runs
/// over four fields per event: the meter, the owner kind (`rdd` or
/// `shuffle`), the owner's index in first-seen order (ids come from
/// process-wide counters) and the amount. One thread, because at four the
/// order of evictions varies between runs.
#[test]
fn budgeted_storage_log_is_pinned() {
    // (strategy, level, FNV-1a, [evicted, spill writes, spill reads,
    // recomputes] event counts)
    let pins = [
        (
            Strategy::Qcoo,
            StorageLevel::MemoryRaw,
            0xe037_e222_cda6_216c,
            [215, 121, 143, 96],
        ),
        (
            Strategy::Qcoo,
            StorageLevel::MemoryAndDisk,
            0x96fd_a2f7_65b4_e9bd,
            [215, 336, 173, 0],
        ),
        (
            Strategy::Coo,
            StorageLevel::MemoryRaw,
            0x93c8_3e1b_4e0d_5197,
            [108, 254, 198, 96],
        ),
        (
            Strategy::Coo,
            StorageLevel::MemoryAndDisk,
            0xd40e_1952_0ccb_f29f,
            [108, 362, 294, 0],
        ),
    ];
    let t = tensor();
    let one_thread = || ClusterConfig::local(1).nodes(4);
    for (strategy, level, hash, counts) in pins {
        let unbounded = Cluster::new(one_thread());
        let _ = decompose(&unbounded, &t, strategy, level);
        let budget = unbounded.block_manager().peak_memory_bytes() / 4;
        let c = Cluster::new(one_thread().memory_budget(budget));
        let _ = decompose(&c, &t, strategy, level);
        let storage = [
            Meter::Evicted,
            Meter::SpillWrite,
            Meter::SpillRead,
            Meter::Recompute,
        ];
        let mut owners: Vec<String> = Vec::new();
        let mut got_counts = [0u64; 4];
        let mut got = 0xcbf2_9ce4_8422_2325u64;
        for event in c.metrics().snapshot().events {
            let Event::Note {
                note:
                    Note::Metered {
                        meter,
                        owner,
                        amount,
                    },
                ..
            } = event
            else {
                continue;
            };
            let Some(column) = storage.iter().position(|m| *m == meter) else {
                continue;
            };
            got_counts[column] += 1;
            let kind = u64::from(owner.starts_with("shuffle-"));
            let index = match owners.iter().position(|o| *o == owner) {
                Some(i) => i,
                None => {
                    owners.push(owner);
                    owners.len() - 1
                }
            };
            for field in [column as u64, kind, index as u64, amount] {
                for byte in field.to_le_bytes() {
                    got = (got ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        assert_eq!(
            got_counts, counts,
            "{strategy:?} {level:?}: storage counts moved"
        );
        assert_eq!(
            got, hash,
            "{strategy:?} {level:?}: storage log moved (got {got:#018x})"
        );
    }
}
