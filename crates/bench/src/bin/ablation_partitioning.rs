//! Ablation: partitioner-aware scheduling in CP-ALS.
//!
//! ```text
//! cargo run --release -p cstf-bench --bin ablation_partitioning -- \
//!     [--scale 4000] [--seed 0] [--nodes 8] [--iters 2] [--tiny]
//! ```
//!
//! Runs the COO pipeline at the three partitioner-awareness levels —
//! `none` (every join shuffles both sides, the paper's Table 4
//! accounting), `co-partitioned-factors` (factor-row RDDs pre-hashed by
//! the join partitioner), and `pre-partitioned-tensor` (the tensor kept
//! keyed by each first-join mode) — and reports shuffle-map stages,
//! shuffle-write bytes and simulated seconds per CP-ALS iteration.
//! Factors must stay bit-identical across all levels, both on a quiet
//! cluster and under injected task crashes; the run aborts otherwise.
//!
//! `--tiny` replaces the paper datasets with one small synthetic tensor
//! (the CI smoke configuration) and writes under `target/bench-tiny/`.
//! Results land in `results/BENCH_partitioning.json`; every number in it
//! is counted (stages, bytes) or modeled (seconds).

use cstf_bench::*;
use cstf_core::{Partitioning, Strategy};
use cstf_tensor::datasets::THIRD_ORDER;

const LEVELS: [Partitioning; 3] = [
    Partitioning::None,
    Partitioning::CoPartitionedFactors,
    Partitioning::PrePartitionedTensor,
];

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
        heading("Partitioning ablation", &name, &tensor);
        let at = |partitioning| RunSpec {
            partitioning,
            ..RunSpec::new(Strategy::Coo, nodes, iters, seed)
        };
        // Reference run for the bit-identity check (quiet + chaos).
        let (_, reference) = at(Partitioning::None).run(&tensor);

        let mut report = Report::new([
            Col::new("partitioning", "level"),
            Col::new("shuffle stages/iter", "shuffle_stages_per_iter"),
            Col::new("skipped/iter", "skipped_shuffles_per_iter"),
            Col::new("shuffle bytes/iter", "shuffle_bytes_per_iter"),
            Col::new("sim time/iter", "sim_secs_per_iter"),
            Col::data("bit_identical"),
        ]);
        for level in LEVELS {
            let (metrics, result) = at(level).run(&tensor);
            assert_bit_identical(&reference, &result, &format!("{name}/{level} quiet"));
            let (_, chaotic) = at(level).under_chaos().run(&tensor);
            assert_bit_identical(&reference, &chaotic, &format!("{name}/{level} chaos"));

            let it = iters.max(1) as f64;
            let stages_per_iter = metrics.shuffle_count() as f64 / it;
            let skipped_per_iter = metrics.skipped_shuffle_count() as f64 / it;
            let bytes_per_iter = metrics.total_shuffle_bytes() as f64 / it;
            let secs_per_iter = model.job_time(&metrics) / it;
            report.row(vec![
                level.to_string().into(),
                Cell::new(format!("{stages_per_iter:.1}"), stages_per_iter),
                Cell::new(format!("{skipped_per_iter:.1}"), skipped_per_iter),
                Cell::new(format!("{:.3} MB", bytes_per_iter / 1e6), bytes_per_iter),
                Cell::new(
                    format!("{secs_per_iter:.2} s"),
                    Json::Fixed(secs_per_iter, 6),
                ),
                true.into(),
            ]);
        }
        report.print();
        json_datasets.push(Json::obj([
            ("dataset", Json::from(name)),
            ("nnz", tensor.nnz().into()),
            ("levels", report.json_rows()),
        ]));
    }

    let doc = Json::obj([
        ("experiment", Json::from("ablation_partitioning")),
        ("strategy", "COO".into()),
        ("rank", PAPER_RANK.into()),
        ("nodes", nodes.into()),
        ("iterations", iters.into()),
        ("seed", seed.into()),
        ("tiny", tiny.into()),
        ("datasets", Json::Arr(json_datasets)),
    ]);
    write_json(&setup.results_dir(), "partitioning", &doc);
}
