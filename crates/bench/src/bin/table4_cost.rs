//! Table 4: cost comparison of BIGtensor, CSTF-COO and CSTF-QCOO for a
//! 3rd-order mode-1 MTTKRP — analytic model vs engine-measured.
//!
//! ```text
//! cargo run --release -p cstf-bench --bin table4_cost -- \
//!     [--scale 4000] [--rank 2] [--seed 0]
//! ```
//!
//! For each algorithm the binary runs exactly one mode-1 MTTKRP on a
//! synt3d-style tensor and compares Table 4's predictions with what the
//! engine actually did:
//!
//! * **Shuffles** — tensor-sized shuffle-map stages (factor-row sides of
//!   joins are orders of magnitude smaller and are excluded, as in the
//!   paper's counting).
//! * **Intermediate data** — elements carried per nonzero by the pipeline
//!   (measured from the records written to the reduce/rotation shuffle).
//! * **Flops** — the analytic count (identical for COO/QCOO, §5).

use cstf_bench::*;
use cstf_core::cost::{mttkrp_cost, Algorithm};
use cstf_dataflow::prelude::*;
use cstf_tensor::datasets::SYNT3D;

fn main() {
    let setup = Setup::from_env(4000.0, 8);
    let Setup { scale, seed, .. } = setup;
    let rank: usize = setup.args.parse("rank", PAPER_RANK);

    let tensor = SYNT3D.generate(scale, seed);
    let nnz = tensor.nnz() as u64;
    println!(
        "Table 4 reproduction: synt3d @ 1/{scale:.0}, nnz = {nnz}, R = {rank}, mode-1 MTTKRP\n"
    );
    let factors = random_factors(tensor.shape(), rank, seed);
    // (algorithm, stage whose shuffle carries the per-nonzero state)
    let columns = [
        (Algorithm::CstfCoo, Some("reduce_by_key")),
        (Algorithm::CstfQcoo, Some("cogroup-left")), // steady-state step
        (Algorithm::BigTensor, None),
    ];

    let mut report = Report::new([
        Col::new("algorithm", "algorithm"),
        Col::new("flops (model)", "flops_model"),
        Col::new("intermediate elems (model)", "intermediate_model"),
        Col::new("shuffles (model)", "shuffles_model"),
        Col::new("shuffles (measured)", "shuffles_measured"),
        Col::table("state shuffle payload"),
    ]);
    for (alg, state_stage) in columns {
        let c = Cluster::new(ClusterConfig::auto().nodes(8));
        let m = mode1_mttkrp(alg, &c, &tensor, &factors, 32);
        let meas_shuffles = m.significant_shuffle_count(nnz / 2);
        let state_bytes: u64 = m
            .stages()
            .filter(|s| state_stage.is_some_and(|stage| s.name.contains(stage)))
            .map(|s| s.shuffle_write_bytes)
            .sum();
        let model = mttkrp_cost(alg, 3, nnz, rank as u64, tensor.shape());
        let carried_elems = if state_bytes > 0 {
            // Subtract the per-record fixed overhead (key + coord + value
            // ≈ 28-32 bytes) to isolate the carried row payload.
            format!(
                "{:.1}·nnz·R",
                state_bytes as f64 / (nnz * rank as u64 * 8) as f64
            )
        } else {
            "(matricized)".to_string()
        };
        report.row(vec![
            alg.to_string().into(),
            model.flops.to_string().into(),
            model.intermediate_elements.to_string().into(),
            model.shuffles.into(),
            meas_shuffles.into(),
            carried_elems.into(),
        ]);
    }
    report.print();
    println!("\nPaper Table 4 (3rd order): BIGtensor 5nnzR / max(J+nnz,K+nnz) / 4 shuffles;");
    println!("CSTF-COO 3nnzR / nnzR / 3;  CSTF-QCOO 3nnzR / 2nnzR / 2.");
    report.write_csv(&setup.results_dir(), "table4_cost");
}
