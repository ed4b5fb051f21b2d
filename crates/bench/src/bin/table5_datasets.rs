//! Table 5: summary of datasets — full-scale reference values and the
//! generated scaled stand-ins actually used by the experiments.
//!
//! ```text
//! cargo run --release -p cstf-bench --bin table5_datasets -- [--scale 2000] [--seed 0]
//! ```

use cstf_bench::*;
use cstf_tensor::datasets::ALL;

fn main() {
    // Generates datasets only — no cluster, so no node count.
    let setup = Setup::from_env(2000.0, 0);
    let Setup { scale, seed, .. } = setup;

    println!("Table 5 — full-scale datasets (paper reference):\n");
    let mut paper = Report::new([
        Col::table("Dataset"),
        Col::table("Order"),
        Col::table("Max mode size"),
        Col::table("nnz"),
        Col::table("Density"),
    ]);
    for spec in ALL {
        paper.row(vec![
            spec.name.into(),
            spec.order().into(),
            format!(
                "{:.1}M",
                *spec.full_shape.iter().max().unwrap() as f64 / 1e6
            )
            .into(),
            format!("{:.0}M", spec.full_nnz as f64 / 1e6).into(),
            format!("{:.1e}", spec.full_density()).into(),
        ]);
    }
    paper.print();

    println!("\nGenerated stand-ins @ 1/{scale:.0} (what the experiments run):\n");
    let mut generated = Report::new([
        Col::new("Dataset", "dataset"),
        Col::new("Order", "order"),
        Col::new("Max mode size", "max_mode"),
        Col::new("nnz", "nnz"),
        Col::new("Density", "density"),
        Col::table("Index skew"),
    ]);
    for spec in ALL {
        let t = spec.generate(scale, seed);
        generated.row(vec![
            spec.name.into(),
            t.order().into(),
            t.max_mode_size().into(),
            t.nnz().into(),
            Cell::new(format!("{:.1e}", t.density()), format!("{:e}", t.density())),
            format!("{:?}", spec.distribution).into(),
        ]);
    }
    generated.print();
    generated.write_csv(&setup.results_dir(), "table5_datasets");
}
