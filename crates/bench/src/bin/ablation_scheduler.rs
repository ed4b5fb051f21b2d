//! Ablation: DAG scheduling — critical-path vs serialized stage time.
//!
//! ```text
//! cargo run --release -p cstf-bench --bin ablation_scheduler -- \
//!     [--scale 4000] [--seed 0] [--iters 2] [--nodes 4] [--tiny]
//! ```
//!
//! The DAG scheduler runs independent shuffle-map stages of one job
//! concurrently, so a job costs its *critical path* through the stage
//! graph rather than the serial sum of its stages. This experiment
//! quantifies that for CP-ALS:
//!
//! * **COO** at `Partitioning::None` keeps the factor-side shuffle of
//!   every join alive as its own stage; those stages are independent of
//!   the tensor-side shuffles and overlap, so the critical path is
//!   strictly shorter than the serialized sum.
//! * **QCOO** builds a chain of queue-step stages with nothing to
//!   overlap, so the two models agree (ratio ≈ 1) — concurrency is free
//!   but worthless on a chain.
//!
//! Factors must stay bit-identical between the concurrent and
//! forced-sequential schedulers, quiet and under injected crashes; the
//! run aborts otherwise. `--tiny` is the CI smoke configuration (one
//! small synthetic tensor at `--nodes`); the full run sweeps the paper's
//! 4–32 node counts. Results land in `results/BENCH_scheduler.json`
//! (`target/bench-tiny/` under `--tiny`); its seconds are all modeled.

use cstf_bench::*;
use cstf_core::{Partitioning, Strategy};
use cstf_tensor::datasets::THIRD_ORDER;

const VARIANTS: [(Strategy, Partitioning); 2] = [
    (Strategy::Coo, Partitioning::None),
    (Strategy::Qcoo, Partitioning::CoPartitionedFactors),
];

fn main() {
    let setup = Setup::from_env(4000.0, 4);
    let Setup {
        scale,
        seed,
        iters,
        tiny,
        ..
    } = setup;
    let model = spark_model(scale);
    let node_counts = if tiny {
        vec![setup.nodes]
    } else {
        PAPER_NODE_COUNTS.to_vec()
    };

    let mut json_datasets = Vec::new();
    for (name, tensor) in setup.datasets(&THIRD_ORDER) {
        heading("Scheduler ablation", &name, &tensor);
        let mut report = Report::new([
            Col::new("strategy", "strategy"),
            Col::data("partitioning"),
            Col::new("nodes", "nodes"),
            Col::new("serialized/iter", "sim_secs_serialized_per_iter"),
            Col::new("critical-path/iter", "sim_secs_critical_path_per_iter"),
            Col::new("ratio", "critical_over_serialized"),
            Col::data("bit_identical"),
        ]);
        for &nodes in &node_counts {
            for (strategy, partitioning) in VARIANTS {
                let concurrent = RunSpec {
                    partitioning,
                    ..RunSpec::new(strategy, nodes, iters, seed)
                };
                let (metrics, result) = concurrent.run(&tensor);
                // Bit-identity bar: the concurrent scheduler must match
                // the forced-sequential baseline, quiet and under chaos.
                let sequential = RunSpec {
                    sequential: true,
                    ..concurrent.clone()
                };
                let (_, baseline) = sequential.run(&tensor);
                let what = format!("{name}/{strategy}/{nodes}n");
                assert_bit_identical(&baseline, &result, &format!("{what} quiet"));
                let (_, shaken) = concurrent.under_chaos().run(&tensor);
                assert_bit_identical(&baseline, &shaken, &format!("{what} chaos"));

                let it = iters.max(1) as f64;
                let critical = model.job_time(&metrics) / it;
                let serialized = model.job_time_serialized(&metrics) / it;
                assert!(
                    critical <= serialized + 1e-9,
                    "{what}: critical path above serial sum"
                );
                let ratio = critical / serialized;
                report.row(vec![
                    strategy.to_string().into(),
                    partitioning.to_string().into(),
                    nodes.into(),
                    Cell::new(format!("{serialized:.2} s"), Json::Fixed(serialized, 6)),
                    Cell::new(format!("{critical:.2} s"), Json::Fixed(critical, 6)),
                    Cell::new(format!("{ratio:.3}"), Json::Fixed(ratio, 6)),
                    true.into(),
                ]);
            }
        }
        report.print();
        json_datasets.push(Json::obj([
            ("dataset", Json::from(name)),
            ("nnz", tensor.nnz().into()),
            ("runs", report.json_rows()),
        ]));
    }

    let doc = Json::obj([
        ("experiment", Json::from("ablation_scheduler")),
        ("rank", PAPER_RANK.into()),
        ("iterations", iters.into()),
        ("seed", seed.into()),
        ("tiny", tiny.into()),
        ("datasets", Json::Arr(json_datasets)),
    ]);
    write_json(&setup.results_dir(), "scheduler", &doc);
}
