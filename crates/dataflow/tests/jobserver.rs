//! Job-server concurrency harness: per-job bit-identity across seeded
//! cross-job interleavings (quiet and with injected task delays), fair
//! vs FIFO pool ordering and dispatch position, cancellation mid-wave,
//! admission-cap auditing, winner-only metrics under interleaving, and
//! a proptest fairness-replay invariant.

use cstf_dataflow::prelude::*;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The shared multi-tenant cluster every concurrency test runs on.
fn shared_cluster() -> Cluster {
    Cluster::new(ClusterConfig::local(4).nodes(2).default_parallelism(8))
}

/// Per-variant input data: same key profile, different values per job.
fn job_data(variant: u64) -> Vec<(u64, i64)> {
    (0..300u64)
        .map(|i| (i % 19, (i as i64).wrapping_mul(29 + variant as i64) - 733))
        .collect()
}

/// The diamond lineage from the scheduler suite: two independent
/// shuffles off one base, a co-partitioned join, and a key-changing
/// shuffle on top — 3 shuffle-map waves plus the result wave.
fn diamond(c: &Cluster, data: &[(u64, i64)]) -> Rdd<(u64, f64)> {
    let base = c.parallelize(data.to_vec(), 4);
    let a = base.reduce_by_key_with(4, false, |x, y| x.wrapping_add(y));
    let b = base
        .map(|(k, v)| (k, v.wrapping_mul(3)))
        .reduce_by_key_with(4, false, |x, y| x ^ y);
    a.join_with(&b, 4)
        .map(|(k, (x, y))| (k % 7, x as f64 * 0.5 + y as f64 * 0.25))
        .reduce_by_key_with(4, false, |x, y| x + y)
}

fn bits(v: &[(u64, f64)]) -> Vec<(u64, u64)> {
    v.iter().map(|&(k, x)| (k, x.to_bits())).collect()
}

/// Solo baseline: the job variant run alone on a fresh cluster with the
/// forced-sequential scheduler — the bit-identity reference.
fn solo_baseline(variant: u64) -> (Vec<(u64, u64)>, JobMetrics) {
    let c = Cluster::new(
        ClusterConfig::local(4)
            .nodes(2)
            .default_parallelism(8)
            .sequential_stages(),
    );
    let out = diamond(&c, &job_data(variant)).collect();
    (bits(&out), c.metrics().snapshot())
}

const VARIANTS: u64 = 4;

/// N concurrent jobs on one server are pairwise bit-identical to their
/// solo sequential runs, across ≥ 20 seeded interleavings. Each seed
/// installs a different deterministic task-delay schedule (stage ids —
/// the fault injector's key — are allocated racily across jobs, so every
/// seed yields a genuinely different cross-job interleaving), proving
/// determinism without serializing the jobs.
#[test]
fn concurrent_jobs_bit_identical_across_seeded_interleavings() {
    let baselines: Vec<_> = (0..VARIANTS).map(solo_baseline).collect();
    for seed in 0..20u64 {
        let config = ClusterConfig::local(4)
            .nodes(2)
            .default_parallelism(8)
            .faults(FaultConfig::crashes(seed, 0.0).with_delays(0.4, 2));
        let c = Cluster::new(config);
        let server = JobServer::new(&c, JobServerConfig::fair(3));
        let handles: Vec<_> = (0..VARIANTS)
            .map(|v| {
                let data = job_data(v);
                server.submit(&format!("tenant-{v}"), move |c: &Cluster| {
                    bits(&diamond(c, &data).collect())
                })
            })
            .collect();
        for (v, h) in handles.into_iter().enumerate() {
            let out = h.join().completed().expect("job completed");
            assert_eq!(
                out, baselines[v].0,
                "seed {seed} changed job {v}'s results under interleaving"
            );
        }
        server.shutdown();
    }
}

/// Same harness under crash/late-crash chaos: bit-identity holds, and
/// the metrics are winner-only *per job* — each job's shuffle-byte
/// accounting equals its solo quiet run exactly, and every injected
/// failure is retried exactly once (the satellite-4 regression: the
/// folded stage-outcome latch keeps counters retry-invariant under
/// cross-job interleaving).
#[test]
fn chaos_interleavings_keep_metrics_winner_only_per_job() {
    let baselines: Vec<_> = (0..VARIANTS).map(solo_baseline).collect();
    for seed in 0..20u64 {
        let config = ClusterConfig::local(4)
            .nodes(2)
            .default_parallelism(8)
            .faults(FaultConfig::crashes(seed, 0.25).with_late_crashes(0.1));
        let c = Cluster::new(config);
        let server = JobServer::new(&c, JobServerConfig::fair(3));
        let handles: Vec<_> = (0..VARIANTS)
            .map(|v| {
                let data = job_data(v);
                server.submit(&format!("tenant-{v}"), move |c: &Cluster| {
                    bits(&diamond(c, &data).collect())
                })
            })
            .collect();
        let ids: Vec<usize> = handles.iter().map(|h| h.id()).collect();
        for (v, h) in handles.into_iter().enumerate() {
            let out = h.join().completed().expect("job completed");
            assert_eq!(out, baselines[v].0, "seed {seed} broke job {v}");
        }
        server.shutdown();
        let m = c.metrics().snapshot();
        for (v, &id) in ids.iter().enumerate() {
            let shuffle_bytes: u64 = m
                .stages_in_server_job(id)
                .map(|s| s.remote_bytes_read + s.local_bytes_read)
                .sum();
            assert_eq!(
                shuffle_bytes,
                baselines[v].1.total_shuffle_bytes(),
                "seed {seed}: job {v} leaked retry bytes into its stages"
            );
            assert_eq!(
                m.stages_in_server_job(id).count(),
                baselines[v].1.stages().count(),
                "seed {seed}: job {v} ran a different stage set"
            );
        }
        assert_eq!(
            m.total_task_retries(),
            m.total_task_failures(),
            "seed {seed}: a failure was not retried exactly once"
        );
    }
}

/// Fair vs FIFO dispatch order, asserted on the recorded start sequence.
/// With a paused cap-1 server and six queued jobs (three per pool, pool
/// `long` submitted first), FIFO head-of-line-blocks pool `short` behind
/// all of `long`; fair sharing dispatches `short` after a single `long`
/// job. The short pool's queueing is measured as its mean `start_seq`
/// (jobs dispatched ahead of it) rather than in wall-clock seconds, which
/// sub-millisecond jobs on a busy host do not order reliably.
#[test]
fn fair_pools_beat_fifo_on_queue_delay() {
    let run = |config: JobServerConfig| {
        let c = shared_cluster();
        let server = JobServer::new(&c, config.start_paused());
        let mut handles = Vec::new();
        for v in 0..3u64 {
            let data = job_data(v);
            handles.push(server.submit("long", move |c: &Cluster| {
                bits(&diamond(c, &data).collect())
            }));
        }
        for v in 0..3u64 {
            let data = job_data(v);
            handles.push(server.submit("short", move |c: &Cluster| {
                bits(&diamond(c, &data).collect())
            }));
        }
        server.resume();
        for h in handles {
            let _ = h.join().completed().expect("job completed");
        }
        server.shutdown();
        let m = c.metrics().snapshot();
        let mut order: Vec<_> = m
            .job_records()
            .map(|r| (r.start_seq, r.pool.clone()))
            .collect();
        order.sort();
        let pools: Vec<&str> = order.iter().map(|(_, p)| p.as_str()).collect();
        let short_starts: Vec<usize> = order
            .iter()
            .filter(|(_, p)| p == "short")
            .map(|&(s, _)| s)
            .collect();
        let mean = short_starts.iter().sum::<usize>() as f64 / short_starts.len() as f64;
        (
            pools.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            mean,
        )
    };

    let (fifo_order, fifo_ahead) = run(JobServerConfig::fifo(1)
        .pool("long", 1.0)
        .pool("short", 1.0));
    assert_eq!(
        fifo_order,
        vec!["long", "long", "long", "short", "short", "short"],
        "FIFO must dispatch in strict submission order"
    );

    let (fair_order, fair_ahead) = run(JobServerConfig::fair(1)
        .pool("long", 1.0)
        .pool("short", 1.0));
    // Cold start ties break by submission (a long job), then the pools
    // alternate: equal weights mean equal service shares.
    assert_eq!(
        fair_order,
        vec!["long", "short", "long", "short", "long", "short"],
        "fair sharing must alternate equally-weighted pools"
    );
    assert!(
        fair_ahead < fifo_ahead,
        "short-pool mean jobs dispatched ahead: fair {fair_ahead} should beat fifo {fifo_ahead}"
    );
}

/// Per-tenant weights shift the fair share: a weight-3 pool drains three
/// jobs for every one of a weight-1 pool once service accrues.
#[test]
fn fair_weights_shape_dispatch_order() {
    let c = shared_cluster();
    let server = JobServer::new(
        &c,
        JobServerConfig::fair(1)
            .pool("heavy", 3.0)
            .pool("light", 1.0)
            .start_paused(),
    );
    let mut handles = Vec::new();
    for v in 0..3u64 {
        let data = job_data(v);
        handles.push(server.submit("light", move |c: &Cluster| {
            bits(&diamond(c, &data).collect())
        }));
    }
    for v in 0..3u64 {
        let data = job_data(v);
        handles.push(server.submit("heavy", move |c: &Cluster| {
            bits(&diamond(c, &data).collect())
        }));
    }
    server.resume();
    for h in handles {
        let _ = h.join().completed().expect("job completed");
    }
    server.shutdown();
    let m = c.metrics().snapshot();
    let mut order: Vec<_> = m
        .job_records()
        .map(|r| (r.start_seq, r.pool.clone()))
        .collect();
    order.sort();
    let pools: Vec<&str> = order.iter().map(|(_, p)| p.as_str()).collect();
    // Cold-start tie goes to the earliest submission (light); after one
    // light job (w waves → 1.0 per weight) the heavy pool stays below
    // until it has run 3 jobs (3w/3 = w per weight ties, light is the
    // earlier submission), then the remaining light jobs drain.
    assert_eq!(
        pools,
        vec!["light", "heavy", "heavy", "heavy", "light", "light"],
        "weighted fair share should let the weight-3 pool run 3 jobs per light job"
    );
}

/// Cancelling a job mid-wave (tasks in flight) releases its pending
/// stages and leaves the cluster fully reusable: the next job on the
/// same cluster is bit-identical to its solo baseline.
#[test]
fn cancellation_mid_wave_leaves_cluster_reusable() {
    let c = shared_cluster();
    let server = JobServer::new(&c, JobServerConfig::fifo(1));
    let started = Arc::new(AtomicBool::new(false));
    let flag = started.clone();
    let victim = server.submit("t", move |c: &Cluster| {
        let flag = flag.clone();
        let data = job_data(0);
        let slow = c.parallelize(data, 8).map(move |(k, v)| {
            flag.store(true, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(25));
            (k, v)
        });
        bits(&diamond_from(&slow).collect())
    });
    // Wait until the victim's first wave has tasks running, then cancel.
    while !started.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(1));
    }
    victim.cancel();
    assert!(
        matches!(victim.join(), JobOutcome::Cancelled),
        "victim should be cancelled, not completed"
    );
    // The cluster must be reusable and deterministic afterwards.
    let baseline = solo_baseline(1);
    let data = job_data(1);
    let next = server.submit("t", move |c: &Cluster| bits(&diamond(c, &data).collect()));
    assert_eq!(
        next.join().completed().expect("next job completed"),
        baseline.0,
        "cluster state was corrupted by the cancelled job"
    );
    server.shutdown();
    let m = c.metrics().snapshot();
    assert!(m
        .job_records()
        .any(|r| r.outcome == JobOutcomeKind::Cancelled));
}

/// Builds the diamond on top of an existing base RDD (used by the
/// cancellation test to inject slow tasks into the first wave).
fn diamond_from(base: &Rdd<(u64, i64)>) -> Rdd<(u64, f64)> {
    let a = base.reduce_by_key_with(4, false, |x, y| x.wrapping_add(y));
    let b = base
        .map(|(k, v)| (k, v.wrapping_mul(3)))
        .reduce_by_key_with(4, false, |x, y| x ^ y);
    a.join_with(&b, 4)
        .map(|(k, (x, y))| (k % 7, x as f64 * 0.5 + y as f64 * 0.25))
        .reduce_by_key_with(4, false, |x, y| x + y)
}

/// The admission cap bounds true concurrency: a gauge incremented inside
/// every job closure never exceeds the cap, and neither does the
/// server's own high-water mark.
#[test]
fn admission_cap_never_exceeded() {
    let c = shared_cluster();
    const CAP: usize = 2;
    let server = JobServer::new(&c, JobServerConfig::fair(CAP));
    let gauge = Arc::new(AtomicUsize::new(0));
    let peak = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..8u64)
        .map(|v| {
            let gauge = gauge.clone();
            let peak = peak.clone();
            let data = job_data(v % VARIANTS);
            server.submit(&format!("tenant-{}", v % 3), move |c: &Cluster| {
                let now = gauge.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                let out = bits(&diamond(c, &data).collect());
                gauge.fetch_sub(1, Ordering::SeqCst);
                out
            })
        })
        .collect();
    for h in handles {
        let _ = h.join().completed().expect("job completed");
    }
    assert!(
        peak.load(Ordering::SeqCst) <= CAP,
        "closure gauge saw {} > cap {CAP} concurrent jobs",
        peak.load(Ordering::SeqCst)
    );
    assert!(server.peak_concurrent_jobs() <= CAP);
    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random job mixes and tenant weights: every submitted job
    /// completes (no pool is ever starved), the admission cap is never
    /// exceeded, and — replayed from the recorded dispatch order — every
    /// cap-1 fair dispatch picked a pool whose executed waves per unit
    /// weight were minimal among the pools that still had queued jobs
    /// (weighted share within accrual tolerance).
    #[test]
    fn random_mixes_never_starve_and_respect_cap(
        jobs_per_pool in prop::collection::vec(1usize..4, 2..4),
        raw_weights in prop::collection::vec(1u32..8, 2..4),
        cap in 1usize..3,
    ) {
        let pools = jobs_per_pool.len().min(raw_weights.len());
        let weights: Vec<f64> = raw_weights[..pools].iter().map(|&w| w as f64).collect();
        let c = shared_cluster();
        let mut config = JobServerConfig::fair(cap).start_paused();
        for (p, w) in weights.iter().enumerate() {
            config = config.pool(format!("pool-{p}"), *w);
        }
        let server = JobServer::new(&c, config);
        let mut handles = Vec::new();
        for (p, &n) in jobs_per_pool[..pools].iter().enumerate() {
            for v in 0..n as u64 {
                let data = job_data(v % VARIANTS);
                handles.push(server.submit(&format!("pool-{p}"), move |c: &Cluster| {
                    bits(&diamond(c, &data).collect())
                }));
            }
        }
        server.resume();
        for h in handles {
            prop_assert!(h.join().completed().is_some(), "a job starved or failed");
        }
        prop_assert!(server.peak_concurrent_jobs() <= cap);
        server.shutdown();

        let m = c.metrics().snapshot();
        let mut records: Vec<_> = m.job_records().cloned().collect();
        prop_assert_eq!(records.len(), jobs_per_pool[..pools].iter().sum::<usize>());
        if cap == 1 {
            // Replay the dispatch decisions: with one admission slot,
            // service accrual is strictly ordered, so at every dispatch
            // the picked pool's waves-per-weight must be minimal among
            // pools with jobs remaining.
            records.sort_by_key(|r| r.start_seq);
            let pool_of = |name: &str| -> usize {
                name.strip_prefix("pool-").unwrap().parse().unwrap()
            };
            let mut remaining = jobs_per_pool[..pools].to_vec();
            let mut service = vec![0.0f64; pools];
            for r in &records {
                let p = pool_of(&r.pool);
                let min_share = (0..pools)
                    .filter(|&q| remaining[q] > 0)
                    .map(|q| service[q] / weights[q])
                    .fold(f64::INFINITY, f64::min);
                prop_assert!(
                    service[p] / weights[p] <= min_share + 1e-9,
                    "dispatch of pool {p} violated fair share: {:?} / {:?}",
                    service, weights
                );
                remaining[p] -= 1;
                service[p] += r.waves as f64;
            }
        }
    }
}
