//! Ablation: tensor RDD caching on vs off (paper §4.1 "Caching").
//!
//! ```text
//! cargo run --release -p cstf-bench --bin ablation_caching -- \
//!     [--scale 4000] [--nodes 8] [--iters 3] [--seed 0]
//! ```
//!
//! "Keeping the tensor in memory can improve the performance significantly
//! since the tensor data is reused across iterations" (§4.1). Without the
//! cache, every MTTKRP's first stage re-parses the source records
//! (visible in the engine's `records_computed` pipeline-work counter and
//! the modeled time).

use cstf_bench::*;
use cstf_core::Strategy;
use cstf_tensor::datasets::DELICIOUS3D;

fn main() {
    let setup = Setup::from_env(4000.0, 8);
    let Setup {
        scale, seed, nodes, ..
    } = setup;
    let iters: usize = setup.args.parse("iters", 3);
    let spark = spark_model(scale);

    let tensor = DELICIOUS3D.generate(scale, seed);
    println!(
        "Caching ablation: delicious3d (nnz {}), {nodes} nodes, {iters} iterations, CSTF-COO\n",
        tensor.nnz()
    );

    let mut report = Report::new([
        Col::new("tensor RDD", "mode"),
        Col::new("pipeline records computed", "pipeline_records"),
        Col::new("modeled time/iter", "secs_per_iter"),
    ]);
    let spec = RunSpec::new(Strategy::Coo, nodes, iters, seed);
    for cached in [true, false] {
        let cluster = spec.cluster();
        let solver = if cached {
            spec.solver()
        } else {
            spec.solver().no_tensor_cache()
        };
        let _ = solver.run(&cluster, &tensor).expect("run failed");
        let m = cluster.metrics().snapshot();
        let pipeline_records: u64 = m.stages().map(|s| s.records_computed).sum();
        let secs = per_iteration_secs_amortized(&spark, &m, iters);
        report.row(vec![
            if cached { "cached" } else { "uncached" }.into(),
            pipeline_records.into(),
            format!("{secs:.1} s").into(),
        ]);
    }
    report.print();
    report.write_csv(&setup.results_dir(), "ablation_caching");
}
