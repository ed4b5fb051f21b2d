//! Simulated-cluster time model over a recorded [`cstf_dataflow`] log.
//!
//! The engine executes on one machine and only counts: per stage, the
//! records every task computed, the bytes shuffled across simulated node
//! boundaries, and the driver-declared disk traffic and job boundaries
//! ([`cstf_dataflow::JobMetrics`]). This crate converts those counts into
//! simulated wall-clock seconds for a cluster of `n` nodes — the quantity
//! on the y-axis of the paper's Figures 2, 3 and 5.
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
//! metered event (disk, broadcast, spill bytes; job launch) — priced by
//! its `Meter`:
//!            = work_scale · bytes / (the meter's bandwidth per node × nodes)
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
//! Stages recorded by the engine's DAG scheduler ([`cstf_dataflow::Job`])
//! carry their job's DAG (parents and wave). [`TimeModel::job_time`]
//! prices each such job as
//! the **critical path** through its stage graph — independent stages of a
//! wave overlap, so the job costs the longest parent-to-result chain, not
//! the sum of all stages. Stages recorded outside the scheduler (synthetic
//! test logs) and non-stage events (disk, broadcast, spills) keep serial
//! pricing. [`TimeModel::job_time_serialized`] retains the pre-DAG plain
//! sum as the comparison baseline; skipped (already-materialized) stages
//! cost nothing under either model. [`TimeModel::render_report`] shows
//! both per job in the engine's report.

mod sim;

pub use sim::TimeModel;

#[cfg(test)]
mod tests {
    use super::*;
    use cstf_dataflow::{Counters, Event, JobOutcomeKind, Meter, Note, StageDag};
    use cstf_dataflow::{JobMetrics, JobRecord, StageKind, StageMetrics};

    /// The engine's pinned log holding every event kind (two scopes, two
    /// storage owners, a skipped stage, a two-wave DAG job and two
    /// job-server pools), written out as the events its registry records.
    fn full_log() -> JobMetrics {
        let note = |scope: &str, note| Event::Note {
            scope: scope.to_string(),
            note,
        };
        let metered = |scope: &str, meter, owner: &str, amount| {
            let owner = owner.to_string();
            note(
                scope,
                Note::Metered {
                    meter,
                    owner,
                    amount,
                },
            )
        };
        let stage = |stage_id,
                     scope: &str,
                     name: &str,
                     kind,
                     dag,
                     tasks: &[(usize, f64, u64)],
                     counters| {
            let mut s = StageMetrics {
                stage_id,
                dag,
                scope: scope.to_string(),
                name: name.to_string(),
                kind,
                num_tasks: 0,
                records_out: 0,
                node_cpu_secs: vec![0.0; 2],
                counters,
            };
            for &(node, cpu_secs, records_out) in tasks {
                s.num_tasks += 1;
                s.records_out += records_out;
                s.node_cpu_secs[node] += cpu_secs;
            }
            Event::Stage(Box::new(s))
        };
        let dag = |wave, parents, shuffle_id| {
            Some(StageDag {
                job: 0,
                wave,
                parents,
                shuffle_id,
                server_job: Some(1),
            })
        };
        let record = |server_job, pool: &str, delay, run, outcome| {
            Event::JobFinished(JobRecord {
                server_job,
                tenant: format!("tenant-{server_job}"),
                pool: pool.to_string(),
                start_seq: server_job,
                queue_delay_secs: delay,
                run_secs: run,
                waves: 2 + server_job as u64,
                outcome,
            })
        };
        let (one, two) = ("MTTKRP-1", "MTTKRP-2");
        let events = vec![
            stage(
                0,
                one,
                "s",
                StageKind::ShuffleMap,
                None,
                &[(0, 0.5, 10), (1, 0.25, 20)],
                Counters {
                    shuffle_write_records: 10,
                    shuffle_write_bytes: 80,
                    remote_bytes_read: 100,
                    local_bytes_read: 50,
                    shuffle_read_records: 5,
                    ..Counters::default()
                },
            ),
            metered(one, Meter::DiskRead, "", 777),
            metered(one, Meter::DiskWrite, "", 555),
            metered(one, Meter::JobLaunch, "", 1),
            metered(one, Meter::Broadcast, "", 42),
            note(
                one,
                Note::SkippedShuffle {
                    name: "cogroup-right".to_string(),
                },
            ),
            metered(one, Meter::Evicted, "rdd-3", 4096),
            metered(one, Meter::SpillWrite, "rdd-3", 4096),
            metered(one, Meter::Evicted, "shuffle-1", 1000),
            note(
                two,
                Note::SkippedStage {
                    stage_id: 1,
                    job: 0,
                    name: "shuffle-map(partition_by)".to_string(),
                    shuffle_id: 7,
                },
            ),
            stage(
                2,
                two,
                "shuffle-map(join-left)",
                StageKind::ShuffleMap,
                dag(0, vec![1], Some(8)),
                &[(0, 0.5, 1000), (1, 0.25, 3000)],
                Counters {
                    records_computed: 6000,
                    shuffle_write_records: 4000,
                    shuffle_write_bytes: 64_000,
                    kernel_runs: 4,
                    kernel_max_subtask_records: 9,
                    kernel_arena_hits: 6,
                    task_failures: 3,
                    task_retries: 2,
                    speculative_launched: 1,
                    speculative_won: 1,
                    wasted_task_secs: 0.25,
                    ..Counters::default()
                },
            ),
            stage(
                3,
                two,
                "shuffle-map(join-right)",
                StageKind::ShuffleMap,
                dag(0, vec![], Some(9)),
                &[(0, 0.125, 20)],
                Counters {
                    shuffle_write_records: 20,
                    shuffle_write_bytes: 320,
                    ..Counters::default()
                },
            ),
            stage(
                4,
                two,
                "collect(map)",
                StageKind::Result,
                dag(1, vec![2, 3], None),
                &[(1, 0.0625, 4020)],
                Counters {
                    remote_bytes_read: 40_000,
                    local_bytes_read: 24_320,
                    shuffle_read_records: 4020,
                    ..Counters::default()
                },
            ),
            metered(two, Meter::SpillRead, "rdd-3", 2048),
            metered(two, Meter::Recompute, "shuffle-1", 1),
            metered(two, Meter::Recompute, "rdd-3", 1),
            record(0, "etl", 0.5, 2.0, JobOutcomeKind::Completed),
            record(1, "adhoc", 0.125, 0.25, JobOutcomeKind::Failed),
            record(2, "etl", 1.5, 0.0, JobOutcomeKind::Cancelled),
        ];
        JobMetrics { events }
    }

    /// The modeled report and every modeled second (to the bit) of
    /// [`full_log`] against the engine's pinned fixture, up to its
    /// accessor section — which the engine's `report_renders_every_event_kind`
    /// asserts on the same log recorded through its registry.
    #[test]
    fn modeled_report_and_seconds_of_the_pinned_log() {
        let m = full_log();
        let mut bits = String::new();
        for tm in [TimeModel::spark(), TimeModel::hadoop()] {
            let scopes: Vec<(String, u64)> = tm
                .scope_times(&m)
                .into_iter()
                .map(|(s, t)| (s, t.to_bits()))
                .collect();
            bits += &format!(
                "{:#x} {:#x} {:x?}\n",
                tm.job_time(&m).to_bits(),
                tm.job_time_serialized(&m).to_bits(),
                scopes
            );
        }
        let modeled = format!(
            "{}--- modeled seconds (bits): job_time, job_time_serialized, scope_times; spark then hadoop\n{bits}",
            TimeModel::spark().render_report(&m)
        );
        let fixture = include_str!("../../dataflow/tests/pinned/full_log.txt");
        let accessors = fixture
            .find("--- accessors\n")
            .expect("fixture has accessors");
        assert_eq!(modeled, fixture[..accessors]);
    }
}
