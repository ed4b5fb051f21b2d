//! Simulated-cluster time model.
//!
//! The engine executes on one machine but records, per stage, the records
//! every task computed, the bytes shuffled across simulated node
//! boundaries, and the driver-declared disk traffic and job boundaries.
//! This module converts those counts into simulated wall-clock seconds for
//! a cluster of `n` nodes — the quantity on the y-axis of the paper's
//! Figures 2, 3 and 5.
//!
//! The model is deliberately simple and fully documented:
//!
//! ```text
//! stage_time = work_scale · (cpu + network) + overhead + recovery
//!   network  = remote_bytes_read / (network_bw_per_node × nodes)
//!   overhead = stage_latency + per_node_overhead × nodes
//!   recovery = retry_overhead × (task_failures + speculative_launched)
//!            + wasted_task_secs / core_speed
//!   cpu      = core_secs / (nodes × cores_per_node) / core_speed
//!   core_secs = max(records_computed, records_out) · ns_per_record
//!             + (shuffle_write_bytes + shuffle_read_bytes) · ns_per_shuffle_byte
//! metered event (disk, broadcast, spill bytes; job launch) — priced from
//! its meter's row of the event table in `crate::metrics`:
//!            = work_scale · bytes / (the row's bandwidth per node × nodes)
//!            | job_launch_secs
//! ```
//!
//! The CPU cost is modeled, not measured: it charges every record pass
//! (map/join/reduce pipeline work) and every shuffled byte (serialization,
//! copying, GC pressure — the dominant per-byte costs in JVM dataflow
//! engines). It is deterministic, reproducible across machines, and free
//! of the single-host bias of timing this engine's tasks (its in-memory
//! joins are far cheaper per record than Spark's serialized path, which
//! would otherwise understate CSTF-COO's extra join work).
//!
//! The `per_node_overhead × nodes` term models the growing synchronization
//! and scheduling cost of a barrier across more executors — the effect that
//! makes the paper's curves flatten between 16 and 32 nodes — and the
//! remote-bytes term models the shuffle volume CSTF-QCOO reduces.
//!
//! The `recovery` term prices fault tolerance: each failed or
//! speculatively-duplicated attempt pays a fixed re-scheduling cost
//! (`retry_overhead_secs`), plus the measured wall-clock time of the
//! discarded attempts themselves. Recovery work rides on spare cluster
//! capacity rather than growing with the dataset, so `work_scale` does not
//! multiply it. Fault-free runs have a zero recovery term, leaving the
//! model's deterministic outputs unchanged.
//!
//! `work_scale` reconciles scaled-down datasets with full-scale fixed
//! overheads: experiments run on tensors `s×` smaller than the paper's
//! (DESIGN.md), so each executed record stands for `s` real records. CPU,
//! network and disk terms scale by `s`; per-stage scheduling and job-launch
//! overheads — which a real cluster pays once regardless of data volume —
//! do not. Set it with [`TimeModel::with_work_scale`].
//!
//! # Critical-path aggregation
//!
//! Stages recorded by the [`crate::scheduler`] carry their job's DAG
//! (parents and wave). [`TimeModel::job_time`] prices each such job as the
//! **critical path** through its stage graph — independent stages of a
//! wave overlap, so the job costs the longest parent-to-result chain, not
//! the sum of all stages. Stages recorded outside the scheduler (synthetic
//! test logs) and non-stage events (disk, broadcast, spills) keep serial
//! pricing. [`TimeModel::job_time_serialized`] retains the pre-DAG plain
//! sum as the comparison baseline; skipped (already-materialized) stages
//! cost nothing under either model.

use crate::hash::FxHashSet;
use crate::metrics::{group_in_order, Event, JobMetrics, Note, Price, StageMetrics};
use serde::Serialize;

/// Which platform profile a job ran under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Platform {
    /// Spark-like: in-memory caching, cheap stage boundaries.
    Spark,
    /// Hadoop-like: job-per-MapReduce-round, disk between jobs.
    Hadoop,
}

/// Cost-model parameters converting measured work into simulated seconds.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TimeModel {
    /// Cores per simulated node (paper's Comet nodes: 24).
    pub cores_per_node: f64,
    /// Speed of a simulated core relative to the measuring host's core.
    pub core_speed: f64,
    /// Usable network bandwidth per node, bytes/second.
    pub network_bw_per_node: f64,
    /// Disk (HDFS) bandwidth per node, bytes/second.
    pub disk_bw_per_node: f64,
    /// Fixed cost of launching any stage (task scheduling, barrier).
    pub stage_latency_secs: f64,
    /// Additional per-node cost of a stage barrier.
    pub per_node_overhead_secs: f64,
    /// Fixed cost of launching one MapReduce job (Hadoop only; Spark jobs
    /// reuse live executors).
    pub job_launch_secs: f64,
    /// Fixed re-scheduling cost charged per failed task attempt and per
    /// speculative launch (detecting the loss, relaunching, refetching
    /// inputs).
    pub retry_overhead_secs: f64,
    /// Local-disk spill *write* throughput per node, bytes/second
    /// (serialize + write to executor-local scratch disk).
    pub spill_write_bw: f64,
    /// Local-disk spill *read* throughput per node, bytes/second. Lower
    /// than the write path: a reload pays the read **and** record
    /// deserialization.
    pub spill_read_bw: f64,
    /// Dataset scale compensation: CPU, network and disk terms are
    /// multiplied by this factor (1.0 = none). See the module docs.
    pub work_scale: f64,
    /// Modeled pipeline cost per record computed by a stage, nanoseconds.
    pub ns_per_record: f64,
    /// Modeled serialization/copy cost per shuffled byte (write + read),
    /// nanoseconds.
    pub ns_per_shuffle_byte: f64,
}

impl TimeModel {
    /// Profile for the Spark-like platform (CSTF).
    pub fn spark() -> Self {
        TimeModel {
            cores_per_node: 24.0,
            core_speed: 1.0,
            network_bw_per_node: 1.0e9,
            disk_bw_per_node: 0.4e9,
            stage_latency_secs: 0.3,
            per_node_overhead_secs: 0.1,
            job_launch_secs: 0.0,
            retry_overhead_secs: 0.3,
            // Executor-local scratch SSD; reads are slower end-to-end
            // because a reload also deserializes every record.
            spill_write_bw: 0.5e9,
            spill_read_bw: 0.35e9,
            work_scale: 1.0,
            // Calibrated against the paper's 4-node delicious3d point
            // (Figure 2a); see EXPERIMENTS.md.
            ns_per_record: 2_000.0,
            ns_per_shuffle_byte: 300.0,
        }
    }

    /// Profile for the Hadoop-like platform (BIGtensor): identical
    /// hardware, but each MapReduce job pays JVM/job-launch overhead and
    /// stage boundaries are costlier (output committed to disk).
    pub fn hadoop() -> Self {
        TimeModel {
            stage_latency_secs: 2.0,
            per_node_overhead_secs: 0.3,
            job_launch_secs: 25.0,
            // Hadoop restarts a whole JVM for a re-attempted task.
            retry_overhead_secs: 2.0,
            // Writable (de)serialization makes both spill paths costlier
            // than Spark's kryo-like path.
            spill_write_bw: 0.3e9,
            spill_read_bw: 0.2e9,
            // Hadoop's per-record path (MR context objects, writable
            // (de)serialization every stage) is costlier than Spark's.
            ns_per_record: 6_000.0,
            ns_per_shuffle_byte: 600.0,
            ..TimeModel::spark()
        }
    }

    /// Profile for a platform.
    pub fn for_platform(p: Platform) -> Self {
        match p {
            Platform::Spark => TimeModel::spark(),
            Platform::Hadoop => TimeModel::hadoop(),
        }
    }

    /// Sets the dataset-scale compensation factor (see module docs): pass
    /// the factor by which the experiment's tensor was scaled down from
    /// the full-size dataset.
    pub fn with_work_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0, "work scale must be positive");
        self.work_scale = scale;
        self
    }

    /// Simulated seconds for one stage on a cluster of
    /// `stage.node_cpu_secs.len()` nodes.
    pub fn stage_time(&self, stage: &StageMetrics) -> f64 {
        let nodes = stage.node_cpu_secs.len().max(1) as f64;
        let records = stage.records_computed.max(stage.records_out);
        let core_ns = records as f64 * self.ns_per_record
            + (stage.shuffle_write_bytes + stage.shuffle_read_bytes()) as f64
                * self.ns_per_shuffle_byte;
        let cpu = core_ns * 1e-9 / (nodes * self.cores_per_node) / self.core_speed;
        let network = stage.remote_bytes_read as f64 / (self.network_bw_per_node * nodes);
        let overhead = self.stage_latency_secs + self.per_node_overhead_secs * nodes;
        self.work_scale * (cpu + network) + overhead + self.recovery_time(stage)
    }

    /// Simulated seconds a stage spent on fault recovery: fixed relaunch
    /// overhead per failed/speculative attempt plus the measured time of
    /// the discarded attempts (see the module docs).
    pub fn recovery_time(&self, stage: &StageMetrics) -> f64 {
        self.retry_overhead_secs * (stage.task_failures + stage.speculative_launched) as f64
            + stage.wasted_task_secs / self.core_speed
    }

    /// Serial simulated seconds for one event on `nodes` nodes: a stage
    /// priced on its own, with no DAG overlap, or a metered amount priced
    /// by its meter's row of the event table. Everything else is free —
    /// an elided shuffle (that is the point), a skipped stage (it reuses
    /// materialized map outputs: no tasks ran) and a job-server lifecycle
    /// record (the job's stages are already in the log).
    fn event_time_serial(&self, e: &Event, nodes: usize) -> f64 {
        match e {
            Event::Stage(s) => self.stage_time(s),
            Event::Note {
                note: Note::Metered { meter, amount, .. },
                ..
            } => match meter.row().price {
                Price::Free => 0.0,
                Price::Fixed(secs) => secs(self),
                Price::Bandwidth(per_node) => {
                    self.work_scale * *amount as f64 / (per_node(self) * nodes.max(1) as f64)
                }
            },
            _ => 0.0,
        }
    }

    /// Simulated seconds for an entire recorded job log.
    ///
    /// Jobs recorded by the [`crate::scheduler`] (stages carrying a
    /// [`crate::metrics::StageDag`]) are priced as the critical path
    /// through their stage graph — see [`TimeModel::job_critical_path`],
    /// charged where the job's first stage appears; everything else
    /// (DAG-less stages, disk, broadcast, spill events) is summed serially.
    pub fn job_time(&self, metrics: &JobMetrics) -> f64 {
        let nodes = infer_nodes(metrics);
        let mut seen_jobs = FxHashSet::default();
        metrics
            .events
            .iter()
            .map(|e| {
                let dag_job = match e {
                    Event::Stage(s) => s.dag.as_ref().map(|d| d.job),
                    _ => None,
                };
                match dag_job {
                    Some(job) if seen_jobs.insert(job) => self.job_critical_path(metrics, job),
                    Some(_) => 0.0,
                    None => self.event_time_serial(e, nodes),
                }
            })
            .sum()
    }

    /// Pre-DAG aggregation: the plain serial sum of every event, pricing
    /// each stage as if it ran alone. Kept as the comparison baseline for
    /// the scheduler ablation (`ablation_scheduler`); equals
    /// [`TimeModel::job_time`] exactly when every job's stage graph is a
    /// chain.
    pub fn job_time_serialized(&self, metrics: &JobMetrics) -> f64 {
        let nodes = infer_nodes(metrics);
        metrics
            .events
            .iter()
            .map(|e| self.event_time_serial(e, nodes))
            .sum()
    }

    /// Critical-path simulated seconds for one scheduler job: the longest
    /// chain of stage times through the job's DAG,
    /// `finish(s) = stage_time(s) + max(finish(parent))`. Parents outside
    /// the log (skipped stages, whose map outputs were already
    /// materialized) contribute zero. The log records stages in
    /// wave-completion order, so every parent finishes before its child is
    /// visited.
    pub fn job_critical_path(&self, metrics: &JobMetrics, job: usize) -> f64 {
        let mut finish: crate::hash::FxHashMap<usize, f64> = Default::default();
        let mut longest = 0.0f64;
        for s in metrics.stages_in_job(job) {
            let dag = s.dag.as_ref().expect("stages_in_job yields DAG stages");
            let start = dag
                .parents
                .iter()
                .filter_map(|p| finish.get(p))
                .fold(0.0f64, |a, &b| a.max(b));
            let end = start + self.stage_time(s);
            finish.insert(s.stage_id, end);
            longest = longest.max(end);
        }
        longest
    }

    /// Serial-sum simulated seconds for one scheduler job — what the job
    /// would cost if its stages ran strictly one after another. The
    /// denominator of the critical-path / serialized ratio reported by
    /// [`crate::metrics::JobMetrics::render_report`].
    pub fn job_serialized(&self, metrics: &JobMetrics, job: usize) -> f64 {
        metrics.stages_in_job(job).map(|s| self.stage_time(s)).sum()
    }

    /// Simulated seconds per scope label, in first-seen order — drives the
    /// per-mode runtime bars of Figure 5.
    pub fn scope_times(&self, metrics: &JobMetrics) -> Vec<(String, f64)> {
        let nodes = infer_nodes(metrics);
        let scoped = metrics.events.iter().filter_map(|e| {
            let scope = match e {
                Event::Stage(s) => &s.scope,
                Event::Note { scope, .. } => scope,
                Event::JobFinished(_) => return None,
            };
            Some((scope.as_str(), self.event_time_serial(e, nodes)))
        });
        group_in_order(scoped, |total: &mut f64, secs| *total += secs)
            .into_iter()
            .map(|(scope, secs)| (scope.to_string(), secs))
            .collect()
    }

    /// Prices a [`crate::jobserver::JobServer`] under offered load: a
    /// deterministic discrete-event simulation of `max_concurrent_jobs`
    /// servers fed jobs at a fixed submission rate, dispatching either
    /// FIFO (strict submission order) or weighted-fair (least service per
    /// unit weight among non-empty pools, earliest submission as the
    /// tie-break) — the same policies the real server implements.
    ///
    /// `jobs[i]` arrives at `i / rate_jobs_per_sec` seconds and occupies
    /// one server for `service_secs` (use [`TimeModel::job_critical_path`]
    /// of a solo run to price a real job). `weights[p]` is pool `p`'s
    /// fair-share weight (ignored under FIFO). Returns the p50/p99 sojourn
    /// latency (completion − arrival), throughput, and per-pool
    /// queue-delay/latency breakdowns.
    pub fn offered_load(
        &self,
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
        // (completion_time, job) for in-flight jobs; scan-min is fine at
        // the admission caps this models.
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
            // Advance to the next event: a completion, or an arrival if
            // every server would otherwise idle. Completions win ties so
            // freed servers redispatch before new work queues.
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
                let lats: Vec<f64> = jobs
                    .iter()
                    .enumerate()
                    .filter(|(_, j)| j.pool.min(pools - 1) == p)
                    .map(|(i, _)| latency[i])
                    .collect();
                let delays: Vec<f64> = jobs
                    .iter()
                    .enumerate()
                    .filter(|(_, j)| j.pool.min(pools - 1) == p)
                    .map(|(i, _)| queue_delay[i])
                    .collect();
                PoolLoadStats {
                    pool: p,
                    jobs: lats.len(),
                    p50_latency_secs: crate::metrics::percentile(&lats, 50.0),
                    p99_latency_secs: crate::metrics::percentile(&lats, 99.0),
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
            p50_latency_secs: crate::metrics::percentile(&latency, 50.0),
            p99_latency_secs: crate::metrics::percentile(&latency, 99.0),
            pools: pool_stats,
        }
    }
}

/// One job offered to [`TimeModel::offered_load`]: a pool index and a
/// service demand in simulated seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OfferedJob {
    /// Index into the model's weight vector.
    pub pool: usize,
    /// Seconds the job occupies one admission slot (price a real job with
    /// [`TimeModel::job_critical_path`]).
    pub service_secs: f64,
}

/// Per-pool latency breakdown of an offered-load simulation.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
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

/// Result of one [`TimeModel::offered_load`] run: latency and throughput
/// at a fixed submission rate — one point of the offered-load sweep in
/// `ablation_jobserver`.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
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

/// Node count a log was recorded under (length of the per-node CPU vector).
pub fn infer_nodes(metrics: &JobMetrics) -> usize {
    metrics
        .stages()
        .map(|s| s.node_cpu_secs.len())
        .max()
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Counters, MetricsRegistry, StageKind};

    fn synth_stage(reg: &MetricsRegistry, nodes: usize, cpu_per_node: f64, remote: u64) {
        let mut c = reg.begin_stage("s", StageKind::ShuffleMap, nodes, None);
        for n in 0..nodes {
            c.record_task(n, cpu_per_node, 1);
        }
        c.counters.merge(&Counters {
            remote_bytes_read: remote,
            shuffle_read_records: 1,
            ..Counters::default()
        });
        reg.finish_stage(c);
    }

    #[test]
    fn stage_time_components_modeled() {
        let reg = MetricsRegistry::new();
        let mut c = reg.begin_stage("s", StageKind::ShuffleMap, 2, None);
        c.record_task(0, 0.0, 1_000_000); // 1M records out
        c.counters.merge(&Counters {
            shuffle_write_records: 1_000_000,
            shuffle_write_bytes: 50_000_000, // 50 MB written
            remote_bytes_read: 30_000_000,   // 50 MB read
            local_bytes_read: 20_000_000,
            shuffle_read_records: 1_000_000,
            ..Counters::default()
        });
        reg.finish_stage(c);
        let m = reg.snapshot();
        let s = m.stages().next().unwrap();
        let tm = TimeModel {
            ns_per_record: 1_000.0,
            ns_per_shuffle_byte: 10.0,
            ..TimeModel::spark()
        };
        // core_ns = 1e6·1000 + (50e6+50e6)·10 = 2e9 ns = 2 core-s over
        // 2 nodes × 24 cores → 2/48 s; network 30e6/(1e9·2) = 0.015;
        // plus stage overhead for 2 nodes.
        let expect = 2.0 / 48.0 + 0.015 + tm.stage_latency_secs + tm.per_node_overhead_secs * 2.0;
        assert!(
            (tm.stage_time(s) - expect).abs() < 1e-9,
            "{}",
            tm.stage_time(s)
        );
    }

    #[test]
    fn modeled_cpu_is_deterministic_across_node_counts_scaling() {
        // Modeled CPU divides fixed total work by nodes: doubling nodes
        // halves the cpu component exactly.
        let build = |nodes: usize| {
            let reg = MetricsRegistry::new();
            let mut c = reg.begin_stage("s", StageKind::ShuffleMap, nodes, None);
            c.record_task(0, 0.0, 1_000_000);
            reg.finish_stage(c);
            reg.snapshot()
        };
        let tm = TimeModel::spark();
        let overhead = |n: f64| tm.stage_latency_secs + tm.per_node_overhead_secs * n;
        let t4 = tm.job_time(&build(4)) - overhead(4.0);
        let t8 = tm.job_time(&build(8)) - overhead(8.0);
        assert!((t4 - 2.0 * t8).abs() < 1e-12);
    }

    #[test]
    fn more_nodes_reduce_network_time() {
        let tm = TimeModel::spark();
        let small = {
            let reg = MetricsRegistry::new();
            synth_stage(&reg, 4, 0.0, 8_000_000_000);
            tm.job_time(&reg.snapshot())
        };
        let large = {
            let reg = MetricsRegistry::new();
            synth_stage(&reg, 32, 0.0, 8_000_000_000);
            tm.job_time(&reg.snapshot())
        };
        // 8 GB over 4 nodes = 2 s of network; over 32 nodes = 0.25 s, but
        // per-node overhead rises. Network win dominates here.
        assert!(large < small);
    }

    #[test]
    fn per_node_overhead_grows_with_cluster() {
        let tm = TimeModel::spark();
        let t4 = {
            let reg = MetricsRegistry::new();
            synth_stage(&reg, 4, 0.0, 0);
            tm.job_time(&reg.snapshot())
        };
        let t32 = {
            let reg = MetricsRegistry::new();
            synth_stage(&reg, 32, 0.0, 0);
            tm.job_time(&reg.snapshot())
        };
        assert!(t32 > t4, "pure-overhead stage must cost more on 32 nodes");
    }

    #[test]
    fn hadoop_job_launch_counted() {
        let reg = MetricsRegistry::new();
        reg.record_job_boundary();
        reg.record_disk_read(800_000_000); // 0.8 GB
        let m = reg.snapshot();
        let tm = TimeModel::hadoop();
        // job launch + disk on 1 node: 0.8e9 / 0.4e9 = 2.0 s
        assert!((tm.job_time(&m) - (tm.job_launch_secs + 2.0)).abs() < 1e-9);
    }

    #[test]
    fn scope_times_split_by_label() {
        let reg = MetricsRegistry::new();
        reg.set_scope("A");
        synth_stage(&reg, 2, 1.0, 0);
        reg.set_scope("B");
        synth_stage(&reg, 2, 2.0, 0);
        synth_stage(&reg, 2, 3.0, 0);
        let tm = TimeModel::spark();
        let st = tm.scope_times(&reg.snapshot());
        assert_eq!(st.len(), 2);
        assert_eq!(st[0].0, "A");
        assert_eq!(st[1].0, "B");
        assert!(st[1].1 > st[0].1);
        let total: f64 = st.iter().map(|(_, t)| t).sum();
        assert!((total - tm.job_time(&reg.snapshot())).abs() < 1e-9);
    }

    /// Records a synthetic DAG stage of `records` records on 2 nodes,
    /// wired into `job` at `wave` with the given metric-id parents.
    /// Returns the stage's metric id.
    fn synth_dag_stage(
        reg: &MetricsRegistry,
        job: usize,
        wave: usize,
        parents: Vec<usize>,
        records: u64,
    ) -> usize {
        let dag = crate::metrics::StageDag {
            job,
            wave,
            parents,
            shuffle_id: None,
            server_job: None,
        };
        let mut c = reg.begin_stage("s", StageKind::ShuffleMap, 2, Some(dag));
        let id = c.stage_id;
        c.record_task(0, 0.0, records);
        reg.finish_stage(c);
        id
    }

    #[test]
    fn critical_path_overlaps_independent_stages() {
        // Diamond: A and B in wave 0, C depends on both. Critical path is
        // max(A, B) + C; the serialized baseline is A + B + C.
        let reg = MetricsRegistry::new();
        let job = reg.begin_job();
        let a = synth_dag_stage(&reg, job, 0, vec![], 2);
        let b = synth_dag_stage(&reg, job, 0, vec![], 5);
        synth_dag_stage(&reg, job, 1, vec![a, b], 1);
        let m = reg.snapshot();
        // One record costs one second on the stages' 2 × 24 cores.
        let tm = TimeModel {
            ns_per_record: 48e9,
            ..TimeModel::spark()
        };
        let per_stage = |cpu: f64| {
            cpu / tm.core_speed + tm.stage_latency_secs + tm.per_node_overhead_secs * 2.0
        };
        let critical = tm.job_critical_path(&m, job);
        let serialized = tm.job_serialized(&m, job);
        assert!((critical - (per_stage(5.0) + per_stage(1.0))).abs() < 1e-9);
        assert!((serialized - (per_stage(2.0) + per_stage(5.0) + per_stage(1.0))).abs() < 1e-9);
        assert!(critical < serialized);
        // job_time prices the whole DAG job once, as its critical path.
        assert!((tm.job_time(&m) - critical).abs() < 1e-9);
        assert!((tm.job_time_serialized(&m) - serialized).abs() < 1e-9);
    }

    #[test]
    fn critical_path_equals_serialized_for_chains() {
        let reg = MetricsRegistry::new();
        let job = reg.begin_job();
        let a = synth_dag_stage(&reg, job, 0, vec![], 2);
        let b = synth_dag_stage(&reg, job, 1, vec![a], 3);
        synth_dag_stage(&reg, job, 2, vec![b], 1);
        let m = reg.snapshot();
        let tm = TimeModel::spark();
        assert!((tm.job_critical_path(&m, job) - tm.job_serialized(&m, job)).abs() < 1e-12);
        assert!((tm.job_time(&m) - tm.job_time_serialized(&m)).abs() < 1e-12);
    }

    #[test]
    fn skipped_stages_and_absent_parents_cost_nothing() {
        let reg = MetricsRegistry::new();
        let job = reg.begin_job();
        // A materialized parent: skipped, so only a SkippedStage event.
        let skipped = reg.record_skipped_stage("shuffle-map(cached)", job, 7);
        synth_dag_stage(&reg, job, 0, vec![skipped], 2);
        let m = reg.snapshot();
        assert_eq!(m.skipped_stage_count(), 1);
        let tm = TimeModel::spark();
        // The skipped parent contributes zero start time.
        assert!((tm.job_critical_path(&m, job) - tm.job_serialized(&m, job)).abs() < 1e-12);
        assert!((tm.job_time(&m) - tm.job_time_serialized(&m)).abs() < 1e-12);
    }

    #[test]
    fn dag_less_logs_price_identically_under_both_models() {
        let reg = MetricsRegistry::new();
        synth_stage(&reg, 4, 1.0, 1_000_000);
        synth_stage(&reg, 4, 2.0, 0);
        reg.record_disk_write(500_000_000);
        let m = reg.snapshot();
        let tm = TimeModel::spark();
        assert!((tm.job_time(&m) - tm.job_time_serialized(&m)).abs() < 1e-12);
    }

    #[test]
    fn work_scale_multiplies_work_not_overhead() {
        let reg = MetricsRegistry::new();
        synth_stage(&reg, 4, 24.0, 4_000_000_000);
        let m = reg.snapshot();
        let s = m.stages().next().unwrap();
        let base = TimeModel::spark();
        let scaled = TimeModel::spark().with_work_scale(10.0);
        let overhead = base.stage_latency_secs + base.per_node_overhead_secs * 4.0;
        let base_work = base.stage_time(s) - overhead;
        let scaled_work = scaled.stage_time(s) - overhead;
        assert!((scaled_work - 10.0 * base_work).abs() < 1e-9);
        // Disk events scale too.
        let reg = MetricsRegistry::new();
        reg.record_disk_write(100);
        let disk = reg.snapshot();
        assert!((scaled.job_time(&disk) - 10.0 * base.job_time(&disk)).abs() < 1e-12);
    }

    #[test]
    fn recovery_cost_priced_per_failure_and_wasted_second() {
        let reg = MetricsRegistry::new();
        let mut clean = reg.begin_stage("s", StageKind::Result, 2, None);
        clean.record_task(0, 1.0, 10);
        reg.finish_stage(clean);
        let mut faulty = reg.begin_stage("s", StageKind::Result, 2, None);
        faulty.record_task(0, 1.0, 10);
        faulty.counters.merge(&Counters {
            task_failures: 2,
            task_retries: 2,
            speculative_launched: 1,
            wasted_task_secs: 0.5,
            ..Counters::default()
        });
        reg.finish_stage(faulty);
        let m = reg.snapshot();
        let stages: Vec<_> = m.stages().collect();
        let tm = TimeModel::spark();
        let expect = tm.retry_overhead_secs * 3.0 + 0.5 / tm.core_speed;
        assert!((tm.recovery_time(stages[1]) - expect).abs() < 1e-12);
        assert!((tm.stage_time(stages[1]) - tm.stage_time(stages[0]) - expect).abs() < 1e-9);
        // Recovery is not dataset-scaled.
        let scaled = TimeModel::spark().with_work_scale(10.0);
        assert!((scaled.recovery_time(stages[1]) - expect).abs() < 1e-12);
    }

    #[test]
    fn infer_nodes_from_log() {
        let reg = MetricsRegistry::new();
        synth_stage(&reg, 8, 0.0, 0);
        assert_eq!(infer_nodes(&reg.snapshot()), 8);
        assert_eq!(infer_nodes(&JobMetrics::default()), 1);
    }

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
        let tm = TimeModel::spark();
        let jobs = mixed_offered_jobs(10);
        let stats = tm.offered_load(&jobs, &[1.0, 1.0], 0.1, 2, false);
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
        let tm = TimeModel::spark();
        let jobs = mixed_offered_jobs(60);
        let fifo = tm.offered_load(&jobs, &[1.0, 1.0], 5.0, 1, false);
        let fair = tm.offered_load(&jobs, &[1.0, 1.0], 5.0, 1, true);
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
        let tm = TimeModel::spark();
        let jobs = mixed_offered_jobs(40);
        let a = tm.offered_load(&jobs, &[3.0, 1.0], 2.0, 2, true);
        let b = tm.offered_load(&jobs, &[3.0, 1.0], 2.0, 2, true);
        assert_eq!(a, b);
    }
}
