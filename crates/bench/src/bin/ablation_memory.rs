//! Ablation: memory-governed storage in CP-ALS.
//!
//! ```text
//! cargo run --release -p cstf-bench --bin ablation_memory -- \
//!     [--scale 4000] [--seed 0] [--nodes 8] [--iters 2] [--tiny]
//! ```
//!
//! Runs the QCOO pipeline under a sweep of block-manager budgets —
//! unbounded, then {1.0, 0.5, 0.25}× the unbounded run's working set
//! (its [`peak_memory_bytes`](cstf_dataflow::cache::BlockManager::peak_memory_bytes)
//! high-water mark) — with the tensor and queue RDDs persisted
//! `MemoryAndDisk`. Reports evicted bytes, spilled bytes, lineage
//! recomputes and modeled seconds per budget. Factors must stay
//! bit-identical to the unbounded reference at every fraction; the run
//! aborts otherwise.
//!
//! `--tiny` replaces the paper datasets with one small synthetic tensor
//! (the CI smoke configuration) and writes under `target/bench-tiny/`.
//! Results land in `results/BENCH_memory.json`; every number in it is
//! counted (bytes, recomputes) or modeled (seconds).

use cstf_bench::*;
use cstf_core::Strategy;
use cstf_dataflow::prelude::*;
use cstf_tensor::datasets::THIRD_ORDER;

const FRACTIONS: [Option<f64>; 4] = [None, Some(1.0), Some(0.5), Some(0.25)];

fn main() {
    let setup = Setup::from_env(4000.0, 8);
    let Setup {
        scale,
        seed,
        nodes,
        iters,
        tiny,
        ..
    } = setup;
    let model = spark_model(scale);

    let mut json_datasets = Vec::new();
    for (name, tensor) in setup.datasets(&THIRD_ORDER) {
        heading("Memory ablation", &name, &tensor);
        let under = |budget| RunSpec {
            storage: StorageLevel::MemoryAndDisk,
            budget,
            ..RunSpec::new(Strategy::Qcoo, nodes, iters, seed)
        };

        // Unbounded reference: fixes the bit-identity baseline and the
        // working-set size the budget fractions are cut from.
        let unbounded = under(None);
        let ref_cluster = unbounded.cluster();
        let reference = unbounded.run_on(&ref_cluster, &tensor);
        let working_set = ref_cluster.block_manager().peak_memory_bytes();
        assert!(working_set > 0, "reference run cached nothing");
        println!("working set (peak resident bytes): {working_set}");

        let mut report = Report::new([
            Col::new("budget", "fraction"),
            Col::new("budget bytes", "budget_bytes"),
            Col::new("evicted bytes", "evicted_bytes"),
            Col::new("spilled bytes", "spilled_bytes"),
            Col::data("spill_read_bytes"),
            Col::new("recomputes", "recompute_count"),
            Col::new("sim time", "sim_secs"),
            Col::data("bit_identical"),
        ]);
        for fraction in FRACTIONS {
            let budget = fraction.map(|f| (working_set as f64 * f).ceil() as u64);
            let spec = under(budget);
            let cluster = spec.cluster();
            let result = spec.run_on(&cluster, &tensor);
            let label = match fraction {
                None => "unbounded".to_string(),
                Some(f) => format!("{f:.2}x"),
            };
            assert_bit_identical(&reference, &result, &format!("{name}/{label}"));

            // The block manager's own counters: cached blocks only, where
            // the metrics log also counts spilled shuffle outputs.
            let bm = cluster.block_manager();
            let secs = model.job_time(&cluster.metrics().snapshot());
            report.row(vec![
                Cell::new(label, fraction),
                Cell::new(budget.map_or("-".to_string(), |b| b.to_string()), budget),
                bm.evicted_bytes().into(),
                bm.spilled_bytes().into(),
                bm.spill_read_bytes().into(),
                bm.recompute_count().into(),
                Cell::new(format!("{secs:.2} s"), Json::Fixed(secs, 6)),
                true.into(),
            ]);
        }
        report.print();
        json_datasets.push(Json::obj([
            ("dataset", Json::from(name)),
            ("nnz", tensor.nnz().into()),
            ("working_set_bytes", working_set.into()),
            ("budgets", report.json_rows()),
        ]));
    }

    let doc = Json::obj([
        ("experiment", Json::from("ablation_memory")),
        ("strategy", "QCOO".into()),
        ("storage", "MemoryAndDisk".into()),
        ("rank", PAPER_RANK.into()),
        ("nodes", nodes.into()),
        ("iterations", iters.into()),
        ("seed", seed.into()),
        ("tiny", tiny.into()),
        ("datasets", Json::Arr(json_datasets)),
    ]);
    write_json(&setup.results_dir(), "memory", &doc);
}
