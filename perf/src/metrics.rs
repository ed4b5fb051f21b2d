//! The benchmark's metric tables: name, unit, direction and — for the
//! end-to-end metrics — the bound by which a later change may worsen them.
//! `BENCHMARK.json` repeats these tables; a unit test keeps the two equal.

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen
    /// before `compare` reports a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    // one timed repetition: a full CpAls::run on a fresh Cluster, or one 40-job burst
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    // (wall_s - median wall of the same run at max_iterations(0)) / ALS iterations executed
    EndToEnd {
        name: "iter_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    // read_tns_file + Cluster::new + the run at max_iterations(0): distribution, caching, pre-keying, queue init, release
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    // peak resident set of one full run: VmHWM, reset before the run and read after it
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    // (total_shuffle_bytes of the full run - of the 0-iteration run) / iterations; an exact count
    EndToEnd {
        name: "shuffle_bytes_iter",
        unit: "B",
        better: Better::Lower,
        bound: 0.02,
    },
    // jobs completed per second of wall_s (40 per burst; a CP-ALS run is one job)
    EndToEnd {
        name: "jobs_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
];

/// A metric of one layer, from the traced pass. No bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// True for counts the program makes that must repeat exactly on the
    /// same input (`compare` reports any difference).
    pub exact: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

pub const PER_LAYER: [PerLayer; 52] = [
    // cstf_tensor
    lower("tensor.io.read_tns_s", "s"),
    higher("tensor.io.read_mb_per_s", "MB/s"),
    lower("tensor.mttkrp.seq_s", "s"),
    higher("tensor.mttkrp.seq_mnnz_per_s", "Mnnz/s"),
    lower("tensor.mttkrp.par_s", "s"),
    exact("tensor.mttkrp.flops", "flop"),
    lower("tensor.seq_iter_s", "s"),
    lower("tensor.linalg.solve_s", "s"),
    lower("tensor.dense.gram_s", "s"),
    lower("tensor.kruskal.fit_s", "s"),
    lower("tensor.spmv.view_build_s", "s"),
    // cstf_dataflow: primitives in isolation
    lower("dataflow.executor.wave_us", "us"),
    lower("dataflow.jobserver.dispatch_us", "us"),
    lower("dataflow.jobserver.queue_delay_p50_ms", "ms"),
    higher("dataflow.jobserver.peak_concurrent", "count"),
    lower("dataflow.shuffle.partition_by_s", "s"),
    higher("dataflow.shuffle.mrec_per_s", "Mrec/s"),
    lower("dataflow.pair.join_s", "s"),
    lower("dataflow.pair.join_copart_s", "s"),
    lower("dataflow.pair.reduce_hash_s", "s"),
    lower("dataflow.kernel.reduce_sorted_s", "s"),
    lower("dataflow.cache.persist_s", "s"),
    lower("dataflow.cache.hit_read_s", "s"),
    // cstf_dataflow: counts from the workload's own run
    lower("dataflow.kernel.runs", "count"),
    lower("dataflow.kernel.max_subtask_records", "count"),
    higher("dataflow.kernel.arena_hit_rate", "ratio"),
    lower("dataflow.cache.peak_mb", "MB"),
    lower("dataflow.cache.evictions", "count"),
    lower("dataflow.cache.recomputes", "count"),
    lower("dataflow.cache.spilled_mb", "MB"),
    exact("dataflow.shuffle.count_per_iter", "count"),
    exact("dataflow.shuffle.records_per_iter", "count"),
    lower("dataflow.shuffle.remote_share", "ratio"),
    exact("dataflow.scheduler.stages_per_iter", "count"),
    exact("dataflow.scheduler.skipped_shuffles_per_iter", "count"),
    lower("dataflow.broadcast.mb_per_iter", "MB"),
    higher("dataflow.executor.busy_share", "ratio"),
    lower("dataflow.executor.task_retries", "count"),
    lower("dataflow.executor.watchdog_kills", "count"),
    // cstf_core
    lower("core.factors.tensor_to_rdd_s", "s"),
    lower("core.planner.plan_s", "s"),
    lower("core.mttkrp.call_s", "s"),
    lower("core.mttkrp.max_mode_s", "s"),
    lower("core.mttkrp.share", "ratio"),
    lower("core.cp_als.solve_share", "ratio"),
    lower("core.cp_als.fit_share", "ratio"),
    exact("core.cp_als.iters_to_tol", "count"),
    lower("core.cp_als.slowdown_vs_seq", "ratio"),
    lower("core.alloc.count_per_nnz_iter", "1/nnz"),
    lower("core.alloc.bytes_per_nnz_iter", "B/nnz"),
    lower("core.cost.pred_over_meas_elems", "ratio"),
    lower("core.trace.overhead_share", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{valid_name, Json};
    use crate::workloads::WORKLOADS;

    #[test]
    fn names_are_legal_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        assert!(names.iter().all(|n| valid_name(n)));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// workloads and metrics this binary emits.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| -> Vec<Json> {
            match doc.get(key) {
                Some(Json::Arr(items)) => items.clone(),
                other => panic!("{key}: {other:?}"),
            }
        };
        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(WORKLOADS.iter()) {
            assert_eq!(field(j, "name"), w.name);
            assert_eq!(field(j, "why"), w.why);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END.iter()) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.as_str());
            assert_eq!(j.num("bound"), Some(m.bound));
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(PER_LAYER.iter()) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.as_str());
        }
        assert_eq!(
            doc.num("run_seconds"),
            Some(crate::RUN_SECONDS as f64),
            "run_seconds"
        );
    }
}
