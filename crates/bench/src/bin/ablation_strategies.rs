//! Ablation: shuffle-join CSTF (COO/QCOO) vs the broadcast-join extension.
//!
//! ```text
//! cargo run --release -p cstf-bench --bin ablation_strategies -- \
//!     [--scale 4000] [--nodes 8] [--iters 2] [--seed 0]
//! ```
//!
//! The paper fetches factor rows with shuffle joins. When factor matrices
//! fit in executor memory, broadcasting them removes every join: one
//! shuffle per MTTKRP (the final reduce) at the cost of
//! `Σ Iₘ·R × nodes` of broadcast traffic per MTTKRP. This experiment
//! compares all three strategies' per-iteration bytes and modeled time,
//! quantifying when the extension wins.

use cstf_bench::*;
use cstf_core::Strategy;
use cstf_tensor::datasets::THIRD_ORDER;

fn main() {
    let setup = Setup::from_env(4000.0, 8);
    let Setup {
        scale,
        seed,
        nodes,
        iters,
        ..
    } = setup;
    let spark = spark_model(scale);

    for (name, tensor) in setup.paper_datasets(&THIRD_ORDER) {
        heading("Strategy ablation", &name, &tensor);
        let mut report = Report::new([
            Col::new("strategy", "strategy"),
            Col::new("tensor shuffles/iter", "shuffles"),
            Col::new("shuffle bytes/iter", "shuffle_bytes"),
            Col::new("broadcast bytes/iter", "broadcast_bytes"),
            Col::new("modeled time/iter", "secs"),
        ]);
        for strategy in [
            Strategy::Coo,
            Strategy::Qcoo,
            Strategy::CooBroadcast,
            Strategy::DfactoSpmv,
        ] {
            let (m, _) = RunSpec::new(strategy, nodes, iters, seed).run(&tensor);
            let shuffle_bytes = mttkrp_shuffle_bytes(&m) / iters as u64;
            let broadcast = m.total_broadcast_bytes() / iters as u64;
            let secs = per_iteration_secs_amortized(&spark, &m, iters);
            report.row(vec![
                strategy.to_string().into(),
                (m.significant_shuffle_count(tensor.nnz() as u64 / 2) / iters).into(),
                format!("{:.2} MB", shuffle_bytes as f64 / 1e6).into(),
                format!("{:.2} MB", broadcast as f64 / 1e6).into(),
                format!("{secs:.1} s").into(),
            ]);
        }
        report.print();
        report.write_csv(&setup.results_dir(), &format!("ablation_strategies_{name}"));
    }
}
