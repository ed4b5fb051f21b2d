//! [`TimeModel`]: the cost model of the crate docs, and its report view.

use cstf_dataflow::hash::{FxHashMap, FxHashSet};
use cstf_dataflow::metrics::{Event, Meter, Note};
use cstf_dataflow::{JobMetrics, StageMetrics};

/// Cost-model parameters converting measured work into simulated seconds.
#[derive(Debug, Clone, PartialEq)]
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
    /// multiplied by this factor (1.0 = none). See the crate docs.
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

    /// Sets the dataset-scale compensation factor (see the crate docs):
    /// pass the factor by which the experiment's tensor was scaled down
    /// from the full-size dataset.
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
    /// the discarded attempts (see the crate docs).
    pub fn recovery_time(&self, stage: &StageMetrics) -> f64 {
        self.retry_overhead_secs * (stage.task_failures + stage.speculative_launched) as f64
            + stage.wasted_task_secs / self.core_speed
    }

    /// Serial simulated seconds for one event on `nodes` nodes: a stage
    /// priced on its own, with no DAG overlap, or a metered amount priced
    /// by its meter. Everything else is free — an elided shuffle (that is
    /// the point), a skipped stage (it reuses materialized map outputs: no
    /// tasks ran) and a job-server lifecycle record (the job's stages are
    /// already in the log).
    fn event_time_serial(&self, e: &Event, nodes: usize) -> f64 {
        // Bytes moved at `per_node` bandwidth on every node at once, scaled
        // like every other data-volume term.
        let at = |bytes: u64, per_node: f64| {
            self.work_scale * bytes as f64 / (per_node * nodes.max(1) as f64)
        };
        match e {
            Event::Stage(s) => self.stage_time(s),
            Event::Note {
                note: Note::Metered { meter, amount, .. },
                ..
            } => match meter {
                Meter::DiskRead | Meter::DiskWrite => at(*amount, self.disk_bw_per_node),
                Meter::JobLaunch => self.job_launch_secs,
                // Tree-distributed, so aggregate bandwidth scales with nodes.
                Meter::Broadcast => at(*amount, self.network_bw_per_node),
                // Spills happen independently on every node.
                Meter::SpillWrite => at(*amount, self.spill_write_bw),
                Meter::SpillRead => at(*amount, self.spill_read_bw),
                // Eviction itself is free (a map removal), and so is noting
                // a recompute: the cost shows up as the recompute CPU of the
                // re-reading stage, which its own task metrics capture.
                Meter::Evicted | Meter::Recompute => 0.0,
            },
            _ => 0.0,
        }
    }

    /// Simulated seconds for an entire recorded job log.
    ///
    /// Jobs recorded by the [`cstf_dataflow::scheduler`] (stages carrying
    /// a [`cstf_dataflow::metrics::StageDag`]) are priced as the critical
    /// path through their stage graph — see [`TimeModel::job_critical_path`],
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
        let mut finish: FxHashMap<usize, f64> = Default::default();
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
    /// denominator of the critical-path / serialized ratio shown by
    /// [`TimeModel::render_report`].
    pub fn job_serialized(&self, metrics: &JobMetrics, job: usize) -> f64 {
        metrics.stages_in_job(job).map(|s| self.stage_time(s)).sum()
    }

    /// Simulated seconds per scope label, in first-seen order — drives the
    /// per-mode runtime bars of Figure 5.
    pub fn scope_times(&self, metrics: &JobMetrics) -> Vec<(String, f64)> {
        let nodes = infer_nodes(metrics);
        let mut totals: Vec<(String, f64)> = Vec::new();
        for e in &metrics.events {
            let scope = match e {
                Event::Stage(s) => &s.scope,
                Event::Note { scope, .. } => scope,
                Event::JobFinished(_) => continue,
            };
            let i = totals.iter().position(|(s, _)| s == scope);
            let i = i.unwrap_or_else(|| {
                totals.push((scope.clone(), 0.0));
                totals.len() - 1
            });
            totals[i].1 += self.event_time_serial(e, nodes);
        }
        totals
    }

    /// The engine's report with each job's STAGES header annotated by its
    /// critical-path and serialized seconds under this model, and their
    /// ratio — so stage-overlap wins are visible without reading the model.
    pub fn render_report(&self, metrics: &JobMetrics) -> String {
        metrics.render_report_annotated(|job| {
            let critical = self.job_critical_path(metrics, job);
            let serialized = self.job_serialized(metrics, job);
            let ratio = if serialized > 0.0 {
                critical / serialized
            } else {
                1.0
            };
            Some(format!(
                "critical-path {critical:.4} s / serialized {serialized:.4} s = {ratio:.2}"
            ))
        })
    }
}

/// Node count a log was recorded under (length of the per-node CPU vector).
fn infer_nodes(metrics: &JobMetrics) -> usize {
    metrics
        .stages()
        .map(|s| s.node_cpu_secs.len())
        .max()
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cstf_dataflow::metrics::{Counters, StageDag};
    use cstf_dataflow::StageKind;

    /// An empty stage of `nodes` nodes, as the engine opens one.
    fn open(stage_id: usize, scope: &str, kind: StageKind, nodes: usize) -> StageMetrics {
        StageMetrics {
            stage_id,
            dag: None,
            scope: scope.to_string(),
            name: "s".to_string(),
            kind,
            num_tasks: 0,
            records_out: 0,
            node_cpu_secs: vec![0.0; nodes],
            counters: Counters::default(),
        }
    }

    /// Records one finished task, as the engine does.
    fn task(s: &mut StageMetrics, node: usize, cpu_secs: f64, records_out: u64) {
        s.num_tasks += 1;
        s.records_out += records_out;
        s.node_cpu_secs[node] += cpu_secs;
    }

    fn log(stages: Vec<StageMetrics>) -> JobMetrics {
        let events = stages.into_iter().map(|s| Event::Stage(Box::new(s)));
        JobMetrics {
            events: events.collect(),
        }
    }

    fn metered(meter: Meter, amount: u64) -> Event {
        Event::Note {
            scope: String::new(),
            note: Note::Metered {
                meter,
                owner: String::new(),
                amount,
            },
        }
    }

    fn synth_stage(scope: &str, nodes: usize, cpu_per_node: f64, remote: u64) -> StageMetrics {
        let mut c = open(0, scope, StageKind::ShuffleMap, nodes);
        for n in 0..nodes {
            task(&mut c, n, cpu_per_node, 1);
        }
        c.counters.merge(&Counters {
            remote_bytes_read: remote,
            shuffle_read_records: 1,
            ..Counters::default()
        });
        c
    }

    #[test]
    fn stage_time_components_modeled() {
        let mut c = open(0, "", StageKind::ShuffleMap, 2);
        task(&mut c, 0, 0.0, 1_000_000); // 1M records out
        c.counters.merge(&Counters {
            shuffle_write_records: 1_000_000,
            shuffle_write_bytes: 50_000_000, // 50 MB written
            remote_bytes_read: 30_000_000,   // 50 MB read
            local_bytes_read: 20_000_000,
            shuffle_read_records: 1_000_000,
            ..Counters::default()
        });
        let m = log(vec![c]);
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
            let mut c = open(0, "", StageKind::ShuffleMap, nodes);
            task(&mut c, 0, 0.0, 1_000_000);
            log(vec![c])
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
        let small = tm.job_time(&log(vec![synth_stage("", 4, 0.0, 8_000_000_000)]));
        let large = tm.job_time(&log(vec![synth_stage("", 32, 0.0, 8_000_000_000)]));
        // 8 GB over 4 nodes = 2 s of network; over 32 nodes = 0.25 s, but
        // per-node overhead rises. Network win dominates here.
        assert!(large < small);
    }

    #[test]
    fn per_node_overhead_grows_with_cluster() {
        let tm = TimeModel::spark();
        let t4 = tm.job_time(&log(vec![synth_stage("", 4, 0.0, 0)]));
        let t32 = tm.job_time(&log(vec![synth_stage("", 32, 0.0, 0)]));
        assert!(t32 > t4, "pure-overhead stage must cost more on 32 nodes");
    }

    #[test]
    fn hadoop_job_launch_counted() {
        let m = JobMetrics {
            events: vec![
                metered(Meter::JobLaunch, 1),
                metered(Meter::DiskRead, 800_000_000), // 0.8 GB
            ],
        };
        let tm = TimeModel::hadoop();
        // job launch + disk on 1 node: 0.8e9 / 0.4e9 = 2.0 s
        assert!((tm.job_time(&m) - (tm.job_launch_secs + 2.0)).abs() < 1e-9);
    }

    #[test]
    fn scope_times_split_by_label() {
        let m = log(vec![
            synth_stage("A", 2, 1.0, 0),
            synth_stage("B", 2, 2.0, 0),
            synth_stage("B", 2, 3.0, 0),
        ]);
        let tm = TimeModel::spark();
        let st = tm.scope_times(&m);
        assert_eq!(st.len(), 2);
        assert_eq!(st[0].0, "A");
        assert_eq!(st[1].0, "B");
        assert!(st[1].1 > st[0].1);
        let total: f64 = st.iter().map(|(_, t)| t).sum();
        assert!((total - tm.job_time(&m)).abs() < 1e-9);
    }

    /// A synthetic DAG stage `id` of `records` records on 2 nodes, wired
    /// into `job` at `wave` with the given metric-id parents.
    fn synth_dag_stage(
        id: usize,
        job: usize,
        wave: usize,
        parents: Vec<usize>,
        records: u64,
    ) -> StageMetrics {
        let mut c = open(id, "", StageKind::ShuffleMap, 2);
        c.dag = Some(StageDag {
            job,
            wave,
            parents,
            shuffle_id: None,
            server_job: None,
        });
        task(&mut c, 0, 0.0, records);
        c
    }

    #[test]
    fn critical_path_overlaps_independent_stages() {
        // Diamond: A and B in wave 0, C depends on both. Critical path is
        // max(A, B) + C; the serialized baseline is A + B + C.
        let job = 0;
        let (a, b) = (0, 1);
        let m = log(vec![
            synth_dag_stage(a, job, 0, vec![], 2),
            synth_dag_stage(b, job, 0, vec![], 5),
            synth_dag_stage(2, job, 1, vec![a, b], 1),
        ]);
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
        let job = 0;
        let m = log(vec![
            synth_dag_stage(0, job, 0, vec![], 2),
            synth_dag_stage(1, job, 1, vec![0], 3),
            synth_dag_stage(2, job, 2, vec![1], 1),
        ]);
        let tm = TimeModel::spark();
        assert!((tm.job_critical_path(&m, job) - tm.job_serialized(&m, job)).abs() < 1e-12);
        assert!((tm.job_time(&m) - tm.job_time_serialized(&m)).abs() < 1e-12);
    }

    #[test]
    fn skipped_stages_and_absent_parents_cost_nothing() {
        let job = 0;
        // A materialized parent: skipped, so only a SkippedStage event.
        let skipped = 0;
        let m = JobMetrics {
            events: vec![
                Event::Note {
                    scope: String::new(),
                    note: Note::SkippedStage {
                        stage_id: skipped,
                        job,
                        name: "shuffle-map(cached)".to_string(),
                        shuffle_id: 7,
                    },
                },
                Event::Stage(Box::new(synth_dag_stage(1, job, 0, vec![skipped], 2))),
            ],
        };
        assert_eq!(m.skipped_stage_count(), 1);
        let tm = TimeModel::spark();
        // The skipped parent contributes zero start time.
        assert!((tm.job_critical_path(&m, job) - tm.job_serialized(&m, job)).abs() < 1e-12);
        assert!((tm.job_time(&m) - tm.job_time_serialized(&m)).abs() < 1e-12);
    }

    #[test]
    fn dag_less_logs_price_identically_under_both_models() {
        let mut m = log(vec![
            synth_stage("", 4, 1.0, 1_000_000),
            synth_stage("", 4, 2.0, 0),
        ]);
        m.events.push(metered(Meter::DiskWrite, 500_000_000));
        let tm = TimeModel::spark();
        assert!((tm.job_time(&m) - tm.job_time_serialized(&m)).abs() < 1e-12);
    }

    #[test]
    fn work_scale_multiplies_work_not_overhead() {
        let m = log(vec![synth_stage("", 4, 24.0, 4_000_000_000)]);
        let s = m.stages().next().unwrap();
        let base = TimeModel::spark();
        let scaled = TimeModel::spark().with_work_scale(10.0);
        let overhead = base.stage_latency_secs + base.per_node_overhead_secs * 4.0;
        let base_work = base.stage_time(s) - overhead;
        let scaled_work = scaled.stage_time(s) - overhead;
        assert!((scaled_work - 10.0 * base_work).abs() < 1e-9);
        // Disk events scale too.
        let disk = JobMetrics {
            events: vec![metered(Meter::DiskWrite, 100)],
        };
        assert!((scaled.job_time(&disk) - 10.0 * base.job_time(&disk)).abs() < 1e-12);
    }

    #[test]
    fn recovery_cost_priced_per_failure_and_wasted_second() {
        let mut clean = open(0, "", StageKind::Result, 2);
        task(&mut clean, 0, 1.0, 10);
        let mut faulty = open(1, "", StageKind::Result, 2);
        task(&mut faulty, 0, 1.0, 10);
        faulty.counters.merge(&Counters {
            task_failures: 2,
            task_retries: 2,
            speculative_launched: 1,
            wasted_task_secs: 0.5,
            ..Counters::default()
        });
        let m = log(vec![clean, faulty]);
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
        let m = log(vec![synth_stage("", 8, 0.0, 0)]);
        assert_eq!(infer_nodes(&m), 8);
        assert_eq!(infer_nodes(&JobMetrics::default()), 1);
    }
}
