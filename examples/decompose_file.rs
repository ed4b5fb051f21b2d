//! CLI: decompose a FROSTT `.tns` tensor file and write the factors out.
//!
//! ```text
//! cargo run --release -p cstf-examples --bin decompose_file -- \
//!     <input.tns> [rank] [iterations] [coo|qcoo|broadcast|spmv|bigtensor]
//! ```
//!
//! Reads the tensor (1-based indices, one nonzero per line), runs CP-ALS
//! on a simulated 8-node cluster, prints convergence, and writes one
//! `factor_<mode>.txt` per mode (row-major, tab-separated) plus
//! `lambda.txt` next to the input. With no arguments, a demo tensor is
//! generated, written to a temp directory, and decomposed — so the
//! example is runnable out of the box.

use cstf_core::{CpAls, Strategy};
use cstf_dataflow::prelude::*;
use cstf_tensor::{io, random::sparse_low_rank_tensor};
use std::io::Write;
use std::path::{Path, PathBuf};

fn write_matrix(path: &Path, m: &cstf_tensor::DenseMatrix) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for row in m.rows_iter() {
        let line: Vec<String> = row.iter().map(|v| format!("{v:.12e}")).collect();
        writeln!(f, "{}", line.join("\t"))?;
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // Demo mode: no input file given.
    let input: PathBuf = match args.first() {
        Some(p) => PathBuf::from(p),
        None => {
            let dir = std::env::temp_dir().join("cstf_demo");
            std::fs::create_dir_all(&dir).expect("create temp dir");
            let path = dir.join("demo.tns");
            let (tensor, _) = sparse_low_rank_tensor(&[120, 100, 80], 3, 14, 7);
            io::write_tns_file(&tensor, &path).expect("write demo tensor");
            println!(
                "(no input given — wrote a demo tensor to {})",
                path.display()
            );
            path
        }
    };
    let rank: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(3);
    let iters: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(15);
    let strategy = match args.get(3) {
        Some(s) => s.parse::<Strategy>().unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        }),
        None => Strategy::Qcoo,
    };

    let tensor = match io::read_tns_file(&input) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error reading {}: {e}", input.display());
            std::process::exit(1);
        }
    };
    println!(
        "loaded {}: order {}, shape {:?}, {} nonzeros, density {:.2e}",
        input.display(),
        tensor.order(),
        tensor.shape(),
        tensor.nnz(),
        tensor.density()
    );

    let cluster = Cluster::new(ClusterConfig::auto().nodes(8));
    let result = CpAls::new(rank)
        .strategy(strategy)
        .max_iterations(iters)
        .tolerance(1e-7)
        .seed(1)
        .run(&cluster, &tensor)
        .unwrap_or_else(|e| {
            eprintln!("decomposition failed: {e}");
            std::process::exit(1);
        });

    println!(
        "rank-{rank} {strategy} decomposition: {} iterations, final fit {:.6}",
        result.stats.iterations, result.stats.final_fit
    );

    let dir = input.parent().unwrap_or_else(|| Path::new("."));
    for (mode, factor) in result.kruskal.factors.iter().enumerate() {
        let path = dir.join(format!("factor_{mode}.txt"));
        write_matrix(&path, factor).expect("write factor");
        println!(
            "wrote {} ({}x{})",
            path.display(),
            factor.rows(),
            factor.cols()
        );
    }
    let lambda_path = dir.join("lambda.txt");
    let mut f = std::fs::File::create(&lambda_path).expect("create lambda file");
    for l in &result.kruskal.weights {
        writeln!(f, "{l:.12e}").expect("write lambda");
    }
    println!("wrote {}", lambda_path.display());
}
