//! The paper's evaluation (§6): Figures 2–5, Tables 2, 4 and 5, and the §5
//! order claim — one experiment each.

use crate::*;
use cstf_core::cost::{iteration_communication, mttkrp_cost, qcoo_savings, Algorithm};
use cstf_tensor::datasets::{ALL, DELICIOUS3D, FLICKR, FOURTH_ORDER, NELL1, SYNT3D, THIRD_ORDER};

/// Figure 2: CP-ALS runtime vs cluster size on 3rd-order tensors —
/// CSTF-COO, CSTF-QCOO and BIGtensor.
///
/// For every node count the three algorithms run the same scaled dataset
/// on a fresh simulated cluster; the recorded stage/disk/job events are
/// converted to per-iteration seconds with the documented time models
/// (Spark profile for CSTF, Hadoop profile for BIGtensor), both
/// compensated by the dataset scale factor.
///
/// Expected shape (paper §6.4): BIGtensor slowest everywhere with CSTF
/// speedups in the 2.2×–6.9× band; all curves decrease and flatten toward
/// 32 nodes; QCOO ≈ COO at 4 nodes, ahead at 16–32.
pub(crate) fn fig2_runtime(setup: &Setup) {
    runtime_vs_nodes("Figure 2", "fig2", setup, &THIRD_ORDER, true);
}

/// Figure 3: CP-ALS runtime vs cluster size on 4th-order tensors —
/// CSTF-COO vs CSTF-QCOO.
///
/// BIGtensor supports only 3rd-order tensors, so — as in the paper (§6.3)
/// — CSTF-COO is the baseline for 4th-order runs. Expected shape: QCOO
/// gains of 0.98×–1.7× growing with cluster size (paper reports
/// 1.06×–1.67× for delicious4d, 0.98×–1.27× for flickr).
pub(crate) fn fig3_runtime4d(setup: &Setup) {
    runtime_vs_nodes("Figure 3", "fig3", setup, &FOURTH_ORDER, false);
}

/// Figures 2 and 3 — modeled seconds per CP-ALS iteration vs cluster size
/// for CSTF-COO and CSTF-QCOO on every dataset of `paper_set` (or the one
/// `--dataset` names), against BIGtensor where it exists (`bigtensor`:
/// 3rd order only; 4th-order runs use COO as the baseline, §6.3). Writes
/// `<file>_<dataset>.csv`.
fn runtime_vs_nodes(
    title: &str,
    file: &str,
    setup: &Setup,
    paper_set: &[DatasetSpec],
    bigtensor: bool,
) {
    let (iters, seed) = (setup.iters, setup.seed);
    let (spark, hadoop) = (spark_model(setup.scale), hadoop_model(setup.scale));
    let mut cols = vec![
        Col::new("nodes", "nodes"),
        Col::new("COO (s)", "coo_s"),
        Col::new("QCOO (s)", "qcoo_s"),
    ];
    if bigtensor {
        cols.push(Col::new("BIGtensor (s)", "bigtensor_s"));
        cols.push(Col::new("COO speedup", "coo_speedup"));
        cols.push(Col::new("QCOO speedup", "qcoo_speedup"));
        cols.push(Col::new("QCOO vs COO", "qcoo_vs_coo"));
    } else {
        cols.push(Col::new("QCOO speedup", "qcoo_speedup"));
    }
    for (name, tensor) in setup.paper_datasets(&setup.selected(paper_set)) {
        heading(&format!("{title} @ 1/{:.0}", setup.scale), &name, &tensor);
        let mut report = Report::new(cols.clone());
        for n in setup.node_counts() {
            let secs = |strategy, model| {
                let (metrics, _) = RunSpec::new(strategy, n, iters, seed).run(&tensor);
                per_iteration_secs_amortized(model, &metrics, iters)
            };
            let t_coo = secs(Strategy::Coo, &spark);
            let t_qcoo = secs(Strategy::Qcoo, &spark);
            let mut row = vec![n.into(), Cell::fixed(t_coo, 1), Cell::fixed(t_qcoo, 1)];
            if bigtensor {
                let t_big = secs(Strategy::BigTensor, &hadoop);
                row.push(Cell::fixed(t_big, 1));
                row.push(Cell::fixed(t_big / t_coo, 2));
                row.push(Cell::fixed(t_big / t_qcoo, 2));
            }
            row.push(Cell::fixed(t_coo / t_qcoo, 2));
            report.row(row);
        }
        report.print();
        report.write_csv(&setup.results_dir(), &format!("{file}_{name}"));
    }
}

/// Figure 4: shuffle data read from remote and local processors during
/// one CP-ALS iteration, stacked per MTTKRP mode — COO vs QCOO on
/// delicious3d and flickr, 8 nodes.
///
/// These are the engine's exact byte counters (deterministic), the same
/// two quantities Spark's metrics service reports (§6.5). Per-MTTKRP
/// traffic is averaged over the executed iterations; one-off costs
/// (tensor distribution, queue initialization) are amortized over the
/// paper's 20 iterations and shown as the "Other" stack segment, matching
/// how a 20-iteration average would report them.
///
/// Expected shape: QCOO reduces both totals (paper: 35% remote / 36%
/// local on delicious3d, 31% / 35% on flickr). Our measured savings are
/// smaller (≈15–25%) because this engine charges every record's
/// coordinates and value too, a constant the paper's `nnz·R` element
/// model ignores and which dominates at the paper's R = 2 — see
/// EXPERIMENTS.md.
pub(crate) fn fig4_comm(setup: &Setup) {
    let mut report = Report::new([
        Col::new("dataset", "dataset"),
        Col::new("strategy", "strategy"),
        Col::new("scope", "scope"),
        Col::new("remote MB", "remote_bytes_per_iter"),
        Col::new("local MB", "local_bytes_per_iter"),
    ]);
    for (name, tensor) in setup.paper_datasets(&[DELICIOUS3D, FLICKR]) {
        heading(
            &format!("Figure 4 @ 1/{:.0}, {} nodes", setup.scale, setup.nodes),
            &name,
            &tensor,
        );
        let mut totals = Vec::new();
        for strategy in [Strategy::Coo, Strategy::Qcoo] {
            let spec = RunSpec::new(strategy, setup.nodes, setup.iters, setup.seed);
            let (metrics, _) = spec.run(&tensor);
            let (mut remote_total, mut local_total) = (0.0f64, 0.0f64);
            for (scope, remote, local) in metrics.shuffle_bytes_by_scope() {
                let r = amortized(&scope, remote as f64, setup.iters);
                let l = amortized(&scope, local as f64, setup.iters);
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

/// Figure 5: per-mode MTTKRP runtimes of CSTF-COO, CSTF-QCOO and
/// BIGtensor for 3rd-order CP-ALS on 4 nodes (nell1 and delicious3d).
///
/// The per-mode simulated time comes from the scope labels
/// (`MTTKRP-1..3`), averaged over the executed iterations. For QCOO the
/// queue-initialization cost — amortized over the paper's 20 iterations —
/// is charged to mode 1, reproducing the paper's observation that "the
/// runtime for MTTKRP along mode-1 in CSTF-QCOO exceeds CSTF-COO …
/// [due to] initialization of the Queue data structure" (§6.6). Expected
/// shape: both CSTF variants beat BIGtensor on every mode; QCOO mode-1
/// noticeably above COO mode-1; QCOO ≥ COO on later modes.
pub(crate) fn fig5_modes(setup: &Setup) {
    let (nodes, iters, seed) = (setup.nodes, setup.iters, setup.seed);
    let spark = spark_model(setup.scale);
    let hadoop = hadoop_model(setup.scale);

    for (name, tensor) in setup.paper_datasets(&setup.selected(&[NELL1, DELICIOUS3D])) {
        heading(
            &format!("Figure 5 @ 1/{:.0}, {nodes} nodes", setup.scale),
            &name,
            &tensor,
        );
        let metrics = |strategy| RunSpec::new(strategy, nodes, iters, seed).run(&tensor).0;
        let m_coo = metrics(Strategy::Coo);
        let m_qcoo = metrics(Strategy::Qcoo);
        let m_big = metrics(Strategy::BigTensor);

        // Per-mode seconds of one algorithm; `other` is the one-off cost.
        let per_mode = |model: &TimeModel, metrics: &JobMetrics, charge_other_to_mode1: bool| {
            let mut other = 0.0;
            let mut modes = [0.0f64; 3];
            for (scope, secs) in model.scope_times(metrics) {
                let secs = amortized(&scope, secs, iters);
                match scope.as_str() {
                    "MTTKRP-1" => modes[0] += secs,
                    "MTTKRP-2" => modes[1] += secs,
                    "MTTKRP-3" => modes[2] += secs,
                    _ => other += secs,
                }
            }
            if charge_other_to_mode1 {
                modes[0] += other;
            }
            modes
        };
        let coo = per_mode(&spark, &m_coo, false);
        let qcoo = per_mode(&spark, &m_qcoo, true); // queue init charged to mode 1
        let big = per_mode(&hadoop, &m_big, false);

        let mut report = Report::new([
            Col::data("dataset"),
            Col::new("", "mode"),
            Col::new("COO (s)", "coo_s"),
            Col::new("QCOO (s)", "qcoo_s"),
            Col::new("BIGtensor (s)", "bigtensor_s"),
            Col::table("COO speedup"),
            Col::table("QCOO speedup"),
        ]);
        let secs = |x: f64| Cell::new(format!("{x:.1}"), x);
        for m in 0..3 {
            report.row(vec![
                name.as_str().into(),
                Cell::new(format!("mode {}", m + 1), m + 1),
                secs(coo[m]),
                secs(qcoo[m]),
                secs(big[m]),
                Cell::fixed(big[m] / coo[m], 2),
                Cell::fixed(big[m] / qcoo[m], 2),
            ]);
        }
        report.print();
        println!("(QCOO mode-1 includes the queue-initialization overhead, as in the paper)");
        report.write_csv(&setup.results_dir(), &format!("fig5_{name}"));
    }
}

/// Table 2: stage-by-stage workflow traces of a mode-1 MTTKRP for
/// BIGtensor, CSTF-COO and CSTF-QCOO.
///
/// Runs each algorithm's mode-1 MTTKRP on a small tensor (500 nonzeros)
/// and prints the engine's executed stages in order — the concrete
/// realization of the paper's Table 2 columns: which operators ran, how
/// many records and bytes each shuffle moved, and where the stage
/// boundaries fell.
pub(crate) fn table2_workflow(_: &Setup) {
    let rank = PAPER_RANK;
    let tensor = RandomTensor::new(vec![40, 30, 50]).nnz(500).seed(1).build();
    let factors = random_factors(tensor.shape(), rank, 2);
    println!(
        "Table 2 workflow traces: mode-1 MTTKRP, {} nonzeros, rank {rank}",
        tensor.nnz()
    );
    for (strategy, column) in [
        (Strategy::Coo, "middle"),
        (Strategy::Qcoo, "right"),
        (Strategy::BigTensor, "left"),
    ] {
        let c = Cluster::new(ClusterConfig::local(4).nodes(4).default_parallelism(8));
        let metrics = mode1_mttkrp(strategy, &c, &tensor, &factors, 8);
        let algorithm = strategy.cost_algorithm();
        print_stages(&format!("{algorithm} (Table 2, {column} column)"), &metrics);
    }
}

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

/// Table 4: cost comparison of BIGtensor, CSTF-COO and CSTF-QCOO for a
/// 3rd-order mode-1 MTTKRP at the paper's rank — analytic model vs
/// engine-measured.
///
/// For each algorithm the experiment runs exactly one mode-1 MTTKRP on a
/// synt3d-style tensor and compares Table 4's predictions with what the
/// engine actually did:
///
/// * **Shuffles** — tensor-sized shuffle-map stages (factor-row sides of
///   joins are orders of magnitude smaller and are excluded, as in the
///   paper's counting).
/// * **Intermediate data** — elements carried per nonzero by the pipeline
///   (measured from the records written to the reduce/rotation shuffle).
/// * **Flops** — the analytic count (identical for COO/QCOO, §5).
pub(crate) fn table4_cost(setup: &Setup) {
    let (scale, rank) = (setup.scale, PAPER_RANK);
    let tensor = SYNT3D.generate(scale, setup.seed);
    let nnz = tensor.nnz() as u64;
    println!(
        "Table 4 reproduction: synt3d @ 1/{scale:.0}, nnz = {nnz}, R = {rank}, mode-1 MTTKRP\n"
    );
    let factors = random_factors(tensor.shape(), rank, setup.seed);
    // (strategy, stage whose shuffle carries the per-nonzero state)
    let columns = [
        (Strategy::Coo, Some("reduce_by_key")),
        (Strategy::Qcoo, Some("cogroup-left")), // steady-state step
        (Strategy::BigTensor, None),
    ];

    let mut report = Report::new([
        Col::new("algorithm", "algorithm"),
        Col::new("flops (model)", "flops_model"),
        Col::new("intermediate elems (model)", "intermediate_model"),
        Col::new("shuffles (model)", "shuffles_model"),
        Col::new("shuffles (measured)", "shuffles_measured"),
        Col::table("state shuffle payload"),
    ]);
    for (strategy, state_stage) in columns {
        let c = Cluster::new(ClusterConfig::auto().nodes(8));
        let m = mode1_mttkrp(strategy, &c, &tensor, &factors, 32);
        let alg = strategy.cost_algorithm();
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

/// Table 5: summary of datasets — full-scale reference values and the
/// generated scaled stand-ins actually used by the experiments.
pub(crate) fn table5_datasets(setup: &Setup) {
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

    println!(
        "\nGenerated stand-ins @ 1/{:.0} (what the experiments run):\n",
        setup.scale
    );
    let mut generated = Report::new([
        Col::new("Dataset", "dataset"),
        Col::new("Order", "order"),
        Col::new("Max mode size", "max_mode"),
        Col::new("nnz", "nnz"),
        Col::new("Density", "density"),
        Col::table("Index skew"),
    ]);
    for spec in ALL {
        let t = spec.generate(setup.scale, setup.seed);
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

/// §5 in-text claim: QCOO reduces per-iteration communication by 1/N —
/// 33% / 25% / 20% for tensor orders 3 / 4 / 5 — analytic and measured.
///
/// For each order, one full CP-ALS iteration of COO and QCOO runs on a
/// random tensor of 20 000 nonzeros on 8 nodes, and the engine's
/// shuffled-byte totals are compared with the analytic element counts.
/// The measured saving is diluted below the analytic bound because every
/// shuffled record also carries its coordinates and value (constant bytes
/// the element-count model ignores); both numbers are reported.
pub(crate) fn order_sweep(setup: &Setup) {
    let (seed, nnz) = (setup.seed, 20_000);
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
