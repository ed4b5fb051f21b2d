//! Chaos suite: deterministic task-level fault injection must never change
//! numerical results. Every test here compares a run on a cluster whose
//! [`FaultConfig`] kills, delays, or late-crashes task attempts against the
//! identical job on a fault-free cluster, and demands *bit-identical*
//! output — the executor's bounded retries, first-writer-wins commit and
//! speculative backups are invisible to the algorithm layer.

use cstf_core::factors::tensor_to_rdd;
use cstf_core::mttkrp::{mttkrp_coo, MttkrpOptions};
use cstf_core::qcoo::QcooState;
use cstf_core::{CpAls, Strategy};
use cstf_dataflow::prelude::*;
use cstf_integration_tests::{random_factors, test_cluster};
use cstf_tensor::random::{sparse_low_rank_tensor, RandomTensor};
use cstf_tensor::{CooTensor, DenseMatrix};

fn tensor() -> CooTensor {
    RandomTensor::new(vec![16, 13, 11])
        .nnz(350)
        .seed(71)
        .build()
}

/// A cluster whose injector crashes ~`probability` of first task attempts,
/// with enough attempt budget that every task still completes.
fn chaos_cluster(seed: u64, probability: f64) -> Cluster {
    Cluster::new(
        ClusterConfig::local(4)
            .nodes(4)
            .max_task_attempts(4)
            .faults(FaultConfig::crashes(seed, probability)),
    )
}

fn assert_bit_identical(a: &DenseMatrix, b: &DenseMatrix, what: &str) {
    assert_eq!(a.rows(), b.rows(), "{what}: row mismatch");
    assert_eq!(a.cols(), b.cols(), "{what}: col mismatch");
    // Bitwise, not approximate: retried/speculative attempts recompute the
    // exact same partition, so even the float bit patterns must agree.
    let (da, db) = (a.data(), b.data());
    for i in 0..da.len() {
        assert_eq!(
            da[i].to_bits(),
            db[i].to_bits(),
            "{what}: element {i} differs ({} vs {})",
            da[i],
            db[i]
        );
    }
}

/// COO-MTTKRP is bit-identical under 20 distinct fault schedules, each of
/// which actually kills at least one task attempt.
#[test]
fn coo_mttkrp_bit_identical_across_twenty_fault_schedules() {
    let t = tensor();
    let factors = random_factors(t.shape(), 2, 72);

    let clean = {
        let c = test_cluster(4);
        let rdd = tensor_to_rdd(&c, &t, 8).persist(StorageLevel::MemoryRaw);
        (0..t.order())
            .map(|m| mttkrp_coo(&c, &rdd, &factors, t.shape(), m, &MttkrpOptions::default()))
            .collect::<Result<Vec<_>, _>>()
            .unwrap()
    };

    for seed in 0..20u64 {
        let c = chaos_cluster(seed, 0.7);
        let rdd = tensor_to_rdd(&c, &t, 8).persist(StorageLevel::MemoryRaw);
        for (mode, expect) in clean.iter().enumerate() {
            let got = mttkrp_coo(
                &c,
                &rdd,
                &factors,
                t.shape(),
                mode,
                &MttkrpOptions::default(),
            )
            .unwrap();
            assert_bit_identical(&got, expect, &format!("seed {seed} mode {mode}"));
        }
        let m = c.metrics().snapshot();
        assert!(
            m.total_task_failures() >= 1,
            "seed {seed}: schedule injected no faults — the run proved nothing"
        );
        assert_eq!(
            m.total_task_retries(),
            m.total_task_failures(),
            "seed {seed}: every failure must be retried exactly once"
        );
    }
}

/// A full QCOO mode cycle (join → reduce chains with persisted state)
/// survives crash injection bit-identically.
#[test]
fn qcoo_full_mode_cycle_bit_identical_under_faults() {
    let t = tensor();
    let factors = random_factors(t.shape(), 2, 73);

    let run = |c: &Cluster| -> Vec<DenseMatrix> {
        let rdd = tensor_to_rdd(c, &t, 8).persist(StorageLevel::MemoryRaw);
        let mut q = QcooState::init(c, &rdd, &factors, t.shape(), 2, 8).unwrap();
        (0..t.order())
            .map(|mode| {
                let (out_mode, m) = q.step(&factors[q.next_join_mode()]).unwrap();
                assert_eq!(out_mode, mode);
                m
            })
            .collect()
    };

    let reference = run(&test_cluster(4));
    for seed in [3u64, 17, 40, 99] {
        let c = chaos_cluster(seed, 0.6);
        let faulty = run(&c);
        for (mode, (got, expect)) in faulty.iter().zip(&reference).enumerate() {
            assert_bit_identical(got, expect, &format!("seed {seed} qcoo mode {mode}"));
        }
        assert!(c.metrics().snapshot().total_task_failures() >= 1);
    }
}

/// Acceptance bar: a full CP-ALS iteration produces bit-identical
/// factor matrices and weights with and without injected faults.
#[test]
fn cp_als_iteration_bit_identical_under_faults() {
    let (tensor, _) = sparse_low_rank_tensor(&[30, 25, 20], 2, 8, 74);

    for strategy in [Strategy::Coo, Strategy::Qcoo] {
        let run = |c: &Cluster| {
            CpAls::new(2)
                .strategy(strategy)
                .max_iterations(1)
                .seed(7)
                .run(c, &tensor)
                .unwrap()
        };
        let clean = run(&test_cluster(4));
        let c = chaos_cluster(11, 0.7);
        let faulty = run(&c);

        assert_eq!(
            clean
                .kruskal
                .weights
                .iter()
                .map(|w| w.to_bits())
                .collect::<Vec<_>>(),
            faulty
                .kruskal
                .weights
                .iter()
                .map(|w| w.to_bits())
                .collect::<Vec<_>>(),
            "{strategy}: weights drifted under faults"
        );
        for (m, (a, b)) in clean
            .kruskal
            .factors
            .iter()
            .zip(&faulty.kruskal.factors)
            .enumerate()
        {
            assert_bit_identical(b, a, &format!("{strategy} factor {m}"));
        }
        assert!(
            c.metrics().snapshot().total_task_failures() >= 1,
            "{strategy}: no fault was actually injected"
        );
    }
}

/// Metrics regression: shuffle write/read byte and record counts must come
/// only from winning attempts — a retried map task may not double-register
/// its output.
#[test]
fn shuffle_metrics_not_double_counted_on_retry() {
    let t = tensor();
    let factors = random_factors(t.shape(), 2, 75);

    let run = |c: &Cluster| {
        let rdd = tensor_to_rdd(c, &t, 8).persist(StorageLevel::MemoryRaw);
        for mode in 0..t.order() {
            mttkrp_coo(
                c,
                &rdd,
                &factors,
                t.shape(),
                mode,
                &MttkrpOptions::default(),
            )
            .unwrap();
        }
        c.metrics().snapshot()
    };

    let clean = run(&test_cluster(4));
    // Early crashes (before compute) and late crashes (after the task body
    // produced its map output) must both leave the counters untouched.
    for faults in [
        FaultConfig::crashes(21, 0.8),
        FaultConfig::crashes(22, 0.4).with_late_crashes(0.4),
    ] {
        let c = Cluster::new(
            ClusterConfig::local(4)
                .nodes(4)
                .max_task_attempts(4)
                .faults(faults),
        );
        let faulty = run(&c);
        assert!(faulty.total_task_failures() >= 1, "schedule was a no-op");
        assert_eq!(clean.shuffle_count(), faulty.shuffle_count());
        for (cs, fs) in clean.stages().zip(faulty.stages()) {
            assert_eq!(
                cs.shuffle_write_records, fs.shuffle_write_records,
                "{}",
                fs.name
            );
            assert_eq!(
                cs.shuffle_write_bytes, fs.shuffle_write_bytes,
                "{}",
                fs.name
            );
            assert_eq!(
                cs.shuffle_read_records, fs.shuffle_read_records,
                "{}",
                fs.name
            );
            // A late-crashed attempt may have warmed the cache before dying
            // (block puts are idempotent side effects), so the winning retry
            // can legitimately compute *fewer* records — never more.
            assert!(
                fs.records_computed <= cs.records_computed,
                "{}: retry inflated records_computed ({} > {})",
                fs.name,
                fs.records_computed,
                cs.records_computed
            );
            assert_eq!(
                cs.remote_bytes_read + cs.local_bytes_read,
                fs.remote_bytes_read + fs.local_bytes_read,
                "{}: total shuffle read drifted",
                fs.name
            );
        }
    }
}

/// Injected delays plus speculative execution: backups race the stragglers,
/// losers are discarded, and the result — and every shuffle counter — is
/// still bit-identical to the quiet cluster's.
#[test]
fn speculation_under_injected_delays_is_bit_identical() {
    let t = tensor();
    let factors = random_factors(t.shape(), 2, 76);

    let run = |c: &Cluster| {
        let rdd = tensor_to_rdd(c, &t, 8).persist(StorageLevel::MemoryRaw);
        let out = mttkrp_coo(c, &rdd, &factors, t.shape(), 0, &MttkrpOptions::default()).unwrap();
        (out, c.metrics().snapshot())
    };

    let (clean, clean_m) = run(&test_cluster(4));
    let c = Cluster::new(
        ClusterConfig::local(4)
            .nodes(4)
            .speculation(1.2, 0.005)
            .faults(FaultConfig::crashes(31, 0.0).with_delays(0.5, 40)),
    );
    let (slow, slow_m) = run(&c);

    assert_bit_identical(&slow, &clean, "speculated mttkrp");
    assert_eq!(slow_m.total_task_failures(), 0, "delays are not failures");
    assert!(
        slow_m.total_speculative_won() <= slow_m.total_speculative_launched(),
        "wins cannot exceed launches"
    );
    for (cs, fs) in clean_m.stages().zip(slow_m.stages()) {
        assert_eq!(
            cs.shuffle_write_records, fs.shuffle_write_records,
            "{}: losing speculative duplicate double-counted its write",
            fs.name
        );
        assert_eq!(
            cs.shuffle_write_bytes, fs.shuffle_write_bytes,
            "{}",
            fs.name
        );
        assert_eq!(
            cs.shuffle_read_records, fs.shuffle_read_records,
            "{}",
            fs.name
        );
    }
}

/// The same fault seed replays the same schedule: failure counters are a
/// deterministic function of (seed, job), making chaos runs reproducible.
#[test]
fn fault_schedules_replay_deterministically() {
    let t = tensor();
    let factors = random_factors(t.shape(), 2, 77);

    let count = |seed: u64| {
        let c = chaos_cluster(seed, 0.5);
        let rdd = tensor_to_rdd(&c, &t, 8).persist(StorageLevel::MemoryRaw);
        mttkrp_coo(&c, &rdd, &factors, t.shape(), 0, &MttkrpOptions::default()).unwrap();
        c.metrics().snapshot().total_task_failures()
    };

    assert_eq!(count(42), count(42), "same seed must replay identically");
    // Distinct seeds should eventually disagree — check a small window.
    assert!(
        (0..8u64)
            .map(count)
            .collect::<std::collections::HashSet<_>>()
            .len()
            > 1,
        "eight seeds all produced identical schedules"
    );
}
