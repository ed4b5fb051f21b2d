//! Offered-load simulation of a job server: the modeled half of
//! `ablation_jobserver`.

use cstf_dataflow::metrics::percentile;

/// One job offered to [`offered_load`]: a pool index and a service demand
/// in simulated seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OfferedJob {
    /// Index into the weight vector.
    pub pool: usize,
    /// Seconds the job occupies one admission slot (price a real job with
    /// `cstf_model::TimeModel::job_critical_path`).
    pub service_secs: f64,
}

/// Per-pool latency breakdown of an offered-load simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolLoadStats {
    /// Pool index.
    pub pool: usize,
    /// Jobs this pool completed.
    pub jobs: usize,
    /// Median sojourn latency (completion − arrival), seconds.
    pub p50_latency_secs: f64,
    /// 99th-percentile sojourn latency, seconds.
    pub p99_latency_secs: f64,
    /// Mean seconds jobs waited before dispatch.
    pub mean_queue_delay_secs: f64,
}

/// Result of one [`offered_load`] run: latency and throughput at a fixed
/// submission rate — one point of the offered-load sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct OfferedLoadStats {
    /// Submission rate the sweep point was run at.
    pub rate_jobs_per_sec: f64,
    /// Completed jobs divided by the time the last one finished.
    pub throughput_jobs_per_sec: f64,
    /// Median sojourn latency across all jobs, seconds.
    pub p50_latency_secs: f64,
    /// 99th-percentile sojourn latency across all jobs, seconds.
    pub p99_latency_secs: f64,
    /// Per-pool breakdown, indexed by pool.
    pub pools: Vec<PoolLoadStats>,
}

/// Prices a [`cstf_dataflow::JobServer`] under offered load: a
/// deterministic discrete-event simulation of `max_concurrent_jobs`
/// servers fed jobs at a fixed submission rate, dispatching either FIFO
/// (strict submission order) or weighted-fair (least service per unit
/// weight among non-empty pools, earliest submission as the tie-break) —
/// the same policies the real server implements.
///
/// `jobs[i]` arrives at `i / rate_jobs_per_sec` seconds and occupies one
/// server for `service_secs`. `weights[p]` is pool `p`'s fair-share weight
/// (ignored under FIFO). Returns the p50/p99 sojourn latency (completion −
/// arrival), throughput, and per-pool queue-delay/latency breakdowns.
pub fn offered_load(
    jobs: &[OfferedJob],
    weights: &[f64],
    rate_jobs_per_sec: f64,
    max_concurrent_jobs: usize,
    fair: bool,
) -> OfferedLoadStats {
    assert!(rate_jobs_per_sec > 0.0, "submission rate must be positive");
    assert!(max_concurrent_jobs > 0, "need at least one server");
    let pools = weights.len().max(1);
    let arrival = |i: usize| i as f64 / rate_jobs_per_sec;
    // Per-pool FIFO queues of job indices, plus accrued service.
    let mut queues: Vec<std::collections::VecDeque<usize>> =
        (0..pools).map(|_| Default::default()).collect();
    let mut service_used = vec![0.0f64; pools];
    // (completion_time, job) for in-flight jobs; scan-min is fine at the
    // admission caps this models.
    let mut running: Vec<(f64, usize)> = Vec::new();
    let mut latency = vec![0.0f64; jobs.len()];
    let mut queue_delay = vec![0.0f64; jobs.len()];
    let mut next_arrival = 0usize;
    let mut now = 0.0f64;
    let mut last_completion = 0.0f64;
    let mut done = 0usize;
    while done < jobs.len() {
        // Admit every job that has arrived by `now`.
        while next_arrival < jobs.len() && arrival(next_arrival) <= now {
            let pool = jobs[next_arrival].pool.min(pools - 1);
            queues[pool].push_back(next_arrival);
            next_arrival += 1;
        }
        // Dispatch while a server is free and a job is queued.
        while running.len() < max_concurrent_jobs {
            let pick = if fair {
                // Least service per unit weight; earliest submission
                // breaks ties (including the all-zero start).
                queues
                    .iter()
                    .enumerate()
                    .filter(|(_, q)| !q.is_empty())
                    .min_by(|&(a, qa), &(b, qb)| {
                        let sa = service_used[a] / weights.get(a).copied().unwrap_or(1.0);
                        let sb = service_used[b] / weights.get(b).copied().unwrap_or(1.0);
                        sa.total_cmp(&sb).then(qa[0].cmp(&qb[0]))
                    })
                    .map(|(p, _)| p)
            } else {
                queues
                    .iter()
                    .enumerate()
                    .filter(|(_, q)| !q.is_empty())
                    .min_by_key(|(_, q)| q[0])
                    .map(|(p, _)| p)
            };
            let Some(pool) = pick else { break };
            let job = queues[pool].pop_front().expect("non-empty pool");
            queue_delay[job] = now - arrival(job);
            service_used[pool] += jobs[job].service_secs;
            running.push((now + jobs[job].service_secs, job));
        }
        // Advance to the next event: a completion, or an arrival if every
        // server would otherwise idle. Completions win ties so freed
        // servers redispatch before new work queues.
        let next_completion = running
            .iter()
            .map(|&(t, _)| t)
            .fold(f64::INFINITY, f64::min);
        let upcoming = (next_arrival < jobs.len()).then(|| arrival(next_arrival));
        now = match upcoming {
            Some(a) if a < next_completion => a,
            _ => next_completion,
        };
        if now == next_completion {
            let i = running
                .iter()
                .enumerate()
                .min_by(|a, b| a.1 .0.total_cmp(&b.1 .0))
                .map(|(i, _)| i)
                .expect("a completion exists");
            let (t, job) = running.swap_remove(i);
            latency[job] = t - arrival(job);
            last_completion = last_completion.max(t);
            done += 1;
        }
    }
    let pool_stats = (0..pools)
        .map(|p| {
            let members = (0..jobs.len()).filter(|&i| jobs[i].pool.min(pools - 1) == p);
            let (lats, delays): (Vec<f64>, Vec<f64>) =
                members.map(|i| (latency[i], queue_delay[i])).unzip();
            PoolLoadStats {
                pool: p,
                jobs: lats.len(),
                p50_latency_secs: percentile(&lats, 50.0),
                p99_latency_secs: percentile(&lats, 99.0),
                mean_queue_delay_secs: delays.iter().sum::<f64>() / delays.len().max(1) as f64,
            }
        })
        .collect();
    OfferedLoadStats {
        rate_jobs_per_sec,
        throughput_jobs_per_sec: if last_completion > 0.0 {
            jobs.len() as f64 / last_completion
        } else {
            0.0
        },
        p50_latency_secs: percentile(&latency, 50.0),
        p99_latency_secs: percentile(&latency, 99.0),
        pools: pool_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An alternating long/short workload on two pools: pool 0 is short
    /// jobs, pool 1 is long ones.
    fn mixed_offered_jobs(n: usize) -> Vec<OfferedJob> {
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    OfferedJob {
                        pool: 0,
                        service_secs: 0.1,
                    }
                } else {
                    OfferedJob {
                        pool: 1,
                        service_secs: 2.0,
                    }
                }
            })
            .collect()
    }

    #[test]
    fn offered_load_underload_latency_is_service_time() {
        // One job every 10 s against 0.1–2 s services: no queueing, so
        // every job's latency is its own service time.
        let jobs = mixed_offered_jobs(10);
        let stats = offered_load(&jobs, &[1.0, 1.0], 0.1, 2, false);
        assert_eq!(stats.pools[0].jobs, 5);
        assert_eq!(stats.pools[1].jobs, 5);
        assert!((stats.pools[0].p99_latency_secs - 0.1).abs() < 1e-9);
        assert!((stats.pools[1].p99_latency_secs - 2.0).abs() < 1e-9);
        assert!(stats.pools[0].mean_queue_delay_secs.abs() < 1e-9);
    }

    #[test]
    fn offered_load_fair_protects_short_jobs_at_saturation() {
        // Offered load far above capacity: FIFO head-of-line-blocks the
        // short pool behind long jobs; fair sharing keeps serving it.
        let jobs = mixed_offered_jobs(60);
        let fifo = offered_load(&jobs, &[1.0, 1.0], 5.0, 1, false);
        let fair = offered_load(&jobs, &[1.0, 1.0], 5.0, 1, true);
        assert!(
            fair.pools[0].p99_latency_secs < fifo.pools[0].p99_latency_secs,
            "fair short-pool p99 {} should beat fifo {}",
            fair.pools[0].p99_latency_secs,
            fifo.pools[0].p99_latency_secs
        );
        // Same total work either way, so throughput matches.
        assert!(
            (fair.throughput_jobs_per_sec - fifo.throughput_jobs_per_sec).abs()
                / fifo.throughput_jobs_per_sec
                < 0.05
        );
    }

    #[test]
    fn offered_load_is_deterministic() {
        let jobs = mixed_offered_jobs(40);
        let a = offered_load(&jobs, &[3.0, 1.0], 2.0, 2, true);
        let b = offered_load(&jobs, &[3.0, 1.0], 2.0, 2, true);
        assert_eq!(a, b);
    }
}
