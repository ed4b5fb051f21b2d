//! §5 in-text claim: QCOO reduces per-iteration communication by 1/N —
//! 33% / 25% / 20% for tensor orders 3 / 4 / 5 — analytic and measured.
//!
//! ```text
//! cargo run --release -p cstf-bench --bin order_sweep -- [--nnz 20000] [--seed 0]
//! ```
//!
//! For each order, one full CP-ALS iteration of COO and QCOO runs on a
//! random tensor and the engine's shuffled-byte totals are compared with
//! the analytic element counts. The measured saving is diluted below the
//! analytic bound because every shuffled record also carries its
//! coordinates and value (constant bytes the element-count model ignores);
//! both numbers are reported.

use cstf_bench::*;
use cstf_core::cost::{iteration_communication, qcoo_savings, Algorithm};
use cstf_core::Strategy;
use cstf_tensor::random::RandomTensor;

fn main() {
    // Synthetic tensors sized by --nnz on a fixed 8 nodes: only --seed is read.
    let setup = Setup::from_env(1.0, 8);
    let seed = setup.seed;
    let nnz: usize = setup.args.parse("nnz", 20_000);

    let mut report = Report::new([
        Col::new("order", "order"),
        Col::new("COO elems (model)", "coo_model"),
        Col::new("QCOO elems (model)", "qcoo_model"),
        Col::new("saving (model)", "saving_model"),
        Col::new("COO bytes", "coo_bytes"),
        Col::new("QCOO bytes", "qcoo_bytes"),
        Col::new("saving (measured)", "saving_measured"),
    ]);
    for order in [3usize, 4, 5] {
        let shape: Vec<u32> = (0..order).map(|m| 200 - 20 * m as u32).collect();
        let tensor = RandomTensor::new(shape).nnz(nnz).seed(seed).build();

        // One iteration each; steady-state traffic only (the one-off
        // "Other" scope — tensor distribution + queue init — is excluded).
        let (m_coo, _) = RunSpec::new(Strategy::Coo, 8, 1, seed).run(&tensor);
        let (m_qcoo, _) = RunSpec::new(Strategy::Qcoo, 8, 1, seed).run(&tensor);
        let coo_bytes = mttkrp_shuffle_bytes(&m_coo);
        let qcoo_bytes = mttkrp_shuffle_bytes(&m_qcoo);
        let measured_saving = 1.0 - qcoo_bytes as f64 / coo_bytes as f64;

        let model = |alg| iteration_communication(alg, order, nnz as u64, PAPER_RANK as u64);
        report.row(vec![
            order.into(),
            model(Algorithm::CstfCoo).to_string().into(),
            model(Algorithm::CstfQcoo).to_string().into(),
            format!("{:.0}%", qcoo_savings(order) * 100.0).into(),
            format!("{:.1} MB", coo_bytes as f64 / 1e6).into(),
            format!("{:.1} MB", qcoo_bytes as f64 / 1e6).into(),
            format!("{:.1}%", measured_saving * 100.0).into(),
        ]);
    }
    println!("QCOO communication savings by tensor order (§5):\n");
    report.print();
    println!("\nPaper §5: up to 33% / 25% / 20% for orders 3 / 4 / 5.");
    report.write_csv(&setup.results_dir(), "order_sweep");
}
