//! A tour of the Spark-like engine underneath CSTF.
//!
//! ```text
//! cargo run --release -p cstf-examples --bin engine_tour
//! ```
//!
//! CSTF's value proposition is built on RDD semantics: lazy lineage,
//! shuffles with measurable traffic, caching, broadcast, fault tolerance.
//! This example exercises each of them directly on a classic wordcount-ish
//! workload, prints the engine's stage report, then kills a node and shows
//! lineage recovery. A closing section tours the four MTTKRP strategies
//! through the planner's uniform API — the same `CpAls` builder drives
//! COO, QCOO, broadcast and DFacTo-SpMV with one flag flipped.

use cstf_core::{CpAls, Strategy};
use cstf_dataflow::prelude::*;
use cstf_model::TimeModel;
use cstf_tensor::random::RandomTensor;

fn main() {
    // 8 simulated nodes on local threads.
    let cluster = Cluster::new(ClusterConfig::auto().nodes(8));

    // "Log lines": level, subsystem, latency.
    let levels = ["INFO", "WARN", "ERROR"];
    let subsystems = ["auth", "db", "cache", "api"];
    let lines: Vec<(String, String, u64)> = (0..50_000u64)
        .map(|i| {
            (
                levels[(i % 17 % 3) as usize].to_string(),
                subsystems[(i % 23 % 4) as usize].to_string(),
                i % 250,
            )
        })
        .collect();
    println!("analyzing {} log lines on 8 simulated nodes", lines.len());

    // Lazy pipeline: nothing executes until an action.
    let logs = cluster
        .parallelize(lines, 32)
        .persist(StorageLevel::MemoryRaw);
    let errors = logs.filter(|(level, _, _)| level == "ERROR");

    // reduceByKey with map-side combining → per-subsystem error counts
    // (one shuffle).
    let partitions = cluster.config().default_parallelism;
    let mut error_counts = errors
        .map(|(_, subsystem, _)| (subsystem, 1u64))
        .reduce_by_key_with(partitions, true, |a, b| a + b)
        .collect();
    error_counts.sort();
    println!("\nerrors per subsystem: {error_counts:?}");

    // Broadcast join: severity weights shipped to every node, no shuffle.
    let weights = cluster.broadcast(
        [("INFO", 1u64), ("WARN", 10), ("ERROR", 100)]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<std::collections::BTreeMap<_, _>>(),
    );
    let weighted: u64 = logs
        .map(move |(level, _, latency)| weights[&level] * latency)
        .reduce(|a, b| a + b)
        .unwrap_or(0);
    println!("severity-weighted latency total: {weighted}");

    // Top three by latency: collect and sort on the driver (a stable
    // sort, so ties keep their partition order).
    let mut slowest = logs.collect();
    slowest.sort_by_key(|&(_, _, latency)| std::cmp::Reverse(latency));
    println!("\nslowest requests:");
    for (level, subsystem, latency) in slowest.into_iter().take(3) {
        println!("  {latency:>4} ms  {level:<5} {subsystem}");
    }

    // What did all of that cost? The engine kept score.
    println!("\n--- engine stage report ---");
    let log = cluster.metrics().snapshot();
    print!("{}", TimeModel::spark().render_report(&log));

    // Fault tolerance: kill a node, lose its cache + shuffle outputs,
    // recompute transparently from lineage.
    let (lost_blocks, lost_outputs) = cluster.simulate_node_failure(3);
    println!(
        "\nnode 3 failed: lost {lost_blocks} cached partitions and {lost_outputs} shuffle outputs"
    );
    let recount = errors.count();
    println!("error count after recovery: {recount} (recomputed from lineage)");

    // Finale: every MTTKRP strategy through one uniform driver loop. The
    // planner builds whatever each pipeline needs (pre-keyed tensor
    // copies, carried queue state, broadcast factors); `CpAls::run` never
    // branches on the strategy. Same seed → same initialization, so the
    // fits agree to floating-point tolerance while the shuffle structure
    // differs per strategy.
    println!("\n--- MTTKRP strategy tour (same tensor, same seed) ---");
    let tensor = RandomTensor::new(vec![40, 30, 25])
        .nnz(2_000)
        .seed(9)
        .build();
    for strategy in [
        Strategy::Coo,
        Strategy::Qcoo,
        Strategy::CooBroadcast,
        Strategy::DfactoSpmv,
    ] {
        let c = Cluster::new(ClusterConfig::auto().nodes(8));
        let result = CpAls::new(2)
            .strategy(strategy)
            .max_iterations(3)
            .seed(4)
            .run(&c, &tensor)
            .expect("decomposition");
        let m = c.metrics().snapshot();
        println!(
            "  {:<13} fit {:.6}  shuffles {:>3} (+{} skipped)",
            strategy.to_string(),
            result.stats.final_fit,
            m.shuffle_count(),
            m.skipped_shuffle_count(),
        );
    }
}
