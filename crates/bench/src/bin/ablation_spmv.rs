//! Ablation: the DFacTo-SpMV MTTKRP strategy vs CSTF-COO and CSTF-QCOO.
//!
//! ```text
//! cargo run --release -p cstf-bench --bin ablation_spmv -- \
//!     [--scale 4000] [--nodes 8] [--iters 2] [--seed 0] [--tiny]
//! ```
//!
//! DFacTo (*Distributed Factorization of Tensors*) computes MTTKRP as a
//! chain of `N−1` sparse matrix–vector products: after the first
//! contraction only one row per *fiber* survives, so of its `2(N−1)`
//! shuffles per MTTKRP only the first two move nnz-sized data — the rest
//! are fiber-sized (`F ≤ nnz`). This experiment runs full CP-ALS under
//! all three strategies on the paper's third-order datasets plus a
//! fourth-order synthetic (where the fiber saving compounds), and
//! cross-checks the engine-measured shuffle traffic against the cost
//! model: the generic `Σ`-over-modes communication bounds for COO/QCOO
//! ([`cost::iteration_communication`]) and the exact per-mode
//! [`cost::spmv_mttkrp_communication`] fed by the real fiber counts
//! ([`cstf_tensor::spmv::fiber_counts`]). Results land in
//! `results/BENCH_spmv.json`: counted shuffles and bytes, predicted
//! elements, modeled seconds.
//!
//! `--tiny` shrinks every tensor to the CI smoke configuration and writes
//! under `target/bench-tiny/`.

use cstf_bench::*;
use cstf_core::cost;
use cstf_core::Strategy;
use cstf_tensor::datasets::THIRD_ORDER;
use cstf_tensor::random::RandomTensor;
use cstf_tensor::spmv::fiber_counts;
use cstf_tensor::CooTensor;

/// Cost-model elements shuffled per CP-ALS iteration: the §5 bounds for
/// COO/QCOO, the exact fiber-count sum for SpMV.
fn predicted_elements(strategy: Strategy, tensor: &CooTensor) -> u64 {
    let order = tensor.order();
    let nnz = tensor.nnz() as u64;
    let rank = PAPER_RANK as u64;
    match strategy {
        Strategy::DfactoSpmv => (0..order)
            .map(|mode| {
                let fibers: Vec<u64> = fiber_counts(tensor, mode)
                    .expect("valid mode")
                    .into_iter()
                    .map(|f| f as u64)
                    .collect();
                cost::spmv_mttkrp_communication(nnz, rank, &fibers)
            })
            .sum(),
        _ => cost::iteration_communication(strategy.cost_algorithm(), order, nnz, rank),
    }
}

fn main() {
    let mut setup = Setup::from_env(4000.0, 8);
    let Setup {
        nodes,
        iters,
        seed,
        tiny,
        ..
    } = setup;
    let spark = spark_model(setup.scale);

    // This experiment's smoke mode keeps the paper datasets (fiber
    // compression is the point) and shrinks them instead.
    if tiny {
        setup.scale = setup.scale.max(40_000.0);
    }
    let mut datasets = setup.paper_datasets(&THIRD_ORDER);
    let (shape4, nnz4) = if tiny {
        (vec![14u32, 12, 10, 8], 700usize)
    } else {
        (vec![80u32, 60, 50, 40], 30_000usize)
    };
    datasets.push((
        "synth4d".to_string(),
        RandomTensor::new(shape4).nnz(nnz4).seed(seed).build(),
    ));

    let mut json_datasets = Vec::new();
    for (name, tensor) in datasets {
        heading("SpMV ablation", &name, &tensor);
        let mut report = Report::new([
            Col::new("strategy", "strategy"),
            Col::new("shuffles/iter", "shuffles_per_iter"),
            Col::new("shuffle bytes/iter", "shuffle_bytes_per_iter"),
            Col::new("predicted elems/iter", "predicted_elements_per_iter"),
            Col::new("modeled time/iter", "modeled_secs_per_iter"),
        ]);
        let mut bytes_of = Vec::new();
        for strategy in [Strategy::Coo, Strategy::Qcoo, Strategy::DfactoSpmv] {
            let (m, _) = RunSpec::new(strategy, nodes, iters, seed).run(&tensor);
            let shuffle_bytes = mttkrp_shuffle_bytes(&m) / iters as u64;
            let secs = per_iteration_secs_amortized(&spark, &m, iters);
            let predicted = predicted_elements(strategy, &tensor);
            bytes_of.push(shuffle_bytes);
            report.row(vec![
                strategy.to_string().into(),
                (m.shuffle_count() / iters).into(),
                Cell::new(
                    format!("{:.2} MB", shuffle_bytes as f64 / 1e6),
                    shuffle_bytes,
                ),
                Cell::new(format!("{:.2} M elems", predicted as f64 / 1e6), predicted),
                Cell::new(format!("{secs:.1} s"), Json::Fixed(secs, 6)),
            ]);
        }
        report.print();
        let spmv_vs_coo = bytes_of[2] as f64 / (bytes_of[0] as f64).max(1.0);
        println!("SpMV shuffle bytes vs COO: {spmv_vs_coo:.2}x");
        json_datasets.push(Json::obj([
            ("dataset", Json::from(name)),
            ("order", tensor.order().into()),
            ("nnz", tensor.nnz().into()),
            ("spmv_vs_coo_bytes", Json::Fixed(spmv_vs_coo, 6)),
            ("strategies", report.json_rows()),
        ]));
    }

    let doc = Json::obj([
        ("experiment", Json::from("ablation_spmv")),
        ("rank", PAPER_RANK.into()),
        ("nodes", nodes.into()),
        ("iterations", iters.into()),
        ("seed", seed.into()),
        ("tiny", tiny.into()),
        ("datasets", Json::Arr(json_datasets)),
    ]);
    write_json(&setup.results_dir(), "spmv", &doc);
}
