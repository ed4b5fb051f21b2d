//! Table 2: stage-by-stage workflow traces of a mode-1 MTTKRP for
//! BIGtensor, CSTF-COO and CSTF-QCOO.
//!
//! ```text
//! cargo run --release -p cstf-bench --bin table2_workflow -- [--nnz 500]
//! ```
//!
//! Runs each algorithm's mode-1 MTTKRP on a small tensor and prints the
//! engine's executed stages in order — the concrete realization of the
//! paper's Table 2 columns: which operators ran, how many records and
//! bytes each shuffle moved, and where the stage boundaries fell.

use cstf_bench::*;
use cstf_core::cost::Algorithm;
use cstf_dataflow::prelude::*;
use cstf_tensor::random::RandomTensor;

fn print_stages(title: &str, metrics: &JobMetrics) {
    println!("\n--- {title} ---");
    let mut report = Report::new([
        Col::table("stage"),
        Col::table("kind"),
        Col::table("name"),
        Col::table("tasks"),
        Col::table("records"),
        Col::table("shfl w recs"),
        Col::table("shfl w bytes"),
        Col::table("shfl r bytes"),
    ]);
    for s in metrics.stages() {
        report.row(vec![
            s.stage_id.into(),
            format!("{:?}", s.kind).into(),
            s.name.as_str().into(),
            s.num_tasks.into(),
            s.records_out.into(),
            s.shuffle_write_records.into(),
            s.shuffle_write_bytes.into(),
            s.shuffle_read_bytes().into(),
        ]);
    }
    report.print();
    println!(
        "shuffles: {} total, {} tensor-sized",
        metrics.shuffle_count(),
        metrics.significant_shuffle_count(250)
    );
}

fn main() {
    let args = Args::from_env();
    let nnz: usize = args.parse("nnz", 500);
    let rank = PAPER_RANK;
    let tensor = RandomTensor::new(vec![40, 30, 50]).nnz(nnz).seed(1).build();
    let factors = random_factors(tensor.shape(), rank, 2);
    println!(
        "Table 2 workflow traces: mode-1 MTTKRP, {} nonzeros, rank {rank}",
        tensor.nnz()
    );
    for (algorithm, column) in [
        (Algorithm::CstfCoo, "middle"),
        (Algorithm::CstfQcoo, "right"),
        (Algorithm::BigTensor, "left"),
    ] {
        let c = Cluster::new(ClusterConfig::local(4).nodes(4).default_parallelism(8));
        let metrics = mode1_mttkrp(algorithm, &c, &tensor, &factors, 8);
        print_stages(&format!("{algorithm} (Table 2, {column} column)"), &metrics);
    }
}
