//! Figure 4: shuffle data read from remote and local processors during
//! one CP-ALS iteration, stacked per MTTKRP mode — COO vs QCOO on
//! delicious3d and flickr, 8 nodes.
//!
//! ```text
//! cargo run --release -p cstf-bench --bin fig4_comm -- \
//!     [--scale 2000] [--nodes 8] [--iters 2] [--seed 0]
//! ```
//!
//! These are the engine's exact byte counters (deterministic), the same
//! two quantities Spark's metrics service reports (§6.5). Per-MTTKRP
//! traffic is averaged over the executed iterations; one-off costs
//! (tensor distribution, queue initialization) are amortized over the
//! paper's 20 iterations and shown as the "Other" stack segment, matching
//! how a 20-iteration average would report them.
//!
//! Expected shape: QCOO reduces both totals (paper: 35% remote / 36%
//! local on delicious3d, 31% / 35% on flickr). Our measured savings are
//! smaller (≈15–25%) because this engine charges every record's
//! coordinates and value too, a constant the paper's `nnz·R` element
//! model ignores and which dominates at the paper's R = 2 — see
//! EXPERIMENTS.md.

use cstf_bench::*;
use cstf_core::Strategy;
use cstf_tensor::datasets::{DELICIOUS3D, FLICKR};

fn main() {
    let setup = Setup::from_env(2000.0, 8);
    let Setup {
        scale,
        nodes,
        iters,
        seed,
        ..
    } = setup;

    let mut report = Report::new([
        Col::new("dataset", "dataset"),
        Col::new("strategy", "strategy"),
        Col::new("scope", "scope"),
        Col::new("remote MB", "remote_bytes_per_iter"),
        Col::new("local MB", "local_bytes_per_iter"),
    ]);
    for (name, tensor) in setup.paper_datasets(&[DELICIOUS3D, FLICKR]) {
        heading(
            &format!("Figure 4 @ 1/{scale:.0}, {nodes} nodes"),
            &name,
            &tensor,
        );
        let mut totals = Vec::new();
        for strategy in [Strategy::Coo, Strategy::Qcoo] {
            let (metrics, _) = RunSpec::new(strategy, nodes, iters, seed).run(&tensor);
            let (mut remote_total, mut local_total) = (0.0f64, 0.0f64);
            for (scope, remote, local) in metrics.shuffle_bytes_by_scope() {
                let div = if scope.starts_with("MTTKRP") {
                    iters as f64
                } else {
                    PAPER_ITERATIONS as f64
                };
                let (r, l) = (remote as f64 / div, local as f64 / div);
                report.row(vec![
                    name.as_str().into(),
                    strategy.to_string().into(),
                    scope.into(),
                    Cell::new(format!("{:.3}", r / 1e6), Json::Fixed(r, 0)),
                    Cell::new(format!("{:.3}", l / 1e6), Json::Fixed(l, 0)),
                ]);
                remote_total += r;
                local_total += l;
            }
            println!(
                "{strategy}: {:.3} MB remote, {:.3} MB local per iteration",
                remote_total / 1e6,
                local_total / 1e6
            );
            totals.push((remote_total, local_total));
        }

        let remote_saving = 1.0 - totals[1].0 / totals[0].0;
        let local_saving = 1.0 - totals[1].1 / totals[0].1;
        println!(
            "{name}: QCOO reduces remote bytes by {:.1}% and local bytes by {:.1}% \
             (paper: {}% remote / {}% local)",
            remote_saving * 100.0,
            local_saving * 100.0,
            if name == "delicious3d" { 35 } else { 31 },
            if name == "delicious3d" { 36 } else { 35 },
        );
    }
    println!("\nStacked segments (per iteration):\n");
    report.print();
    report.write_csv(&setup.results_dir(), "fig4_comm");
}
