//! Figure 17 — GCN speedup of NeuraChip Tile-16 over prior GNN accelerators.
//!
//! The per-dataset GCN-layer modeling is a `neura_lab` sweep over the GNN
//! suite, executed in parallel; the average speedups are checked against the
//! pinned golden values (strictly at paper scale, presence-only under
//! `NEURA_BENCH_SCALE_MULT`). Run with
//! `cargo run --release -p neura_bench --bin fig17` (add `--json [path]`
//! for a machine-readable artifact).

use neura_baselines::gnn::{speedup_over, GnnModel, GnnPlatform};
use neura_baselines::WorkloadProfile;
use neura_bench::{fmt, print_table, scaled_matrix, scaled_matrix_by_name};
use neura_chip::accelerator::Accelerator;
use neura_chip::config::ChipConfig;
use neura_chip::gcn::run_gcn_layer;
use neura_lab::golden::{self, slugify};
use neura_lab::{ArtifactSession, ExperimentSpec, RunRecord, Runner, SweepGrid};
use neura_sparse::gen::{feature_matrix, weight_matrix};
use neura_sparse::DatasetCatalog;

const HIDDEN_DIM: usize = 64;

fn main() {
    let scale_mult = neura_bench::scale_multiplier();
    let mut session = ArtifactSession::from_args("fig17", scale_mult);
    let runner = Runner::from_env();

    let baselines = GnnPlatform::FIGURE17_BASELINES;
    let mut headers = vec!["Dataset".to_string()];
    headers.extend(baselines.iter().map(|b| b.name().to_string()));

    let datasets = DatasetCatalog::gnn_suite();
    let spec = ExperimentSpec::new(
        "fig17",
        ChipConfig::tile_16(),
        SweepGrid::new().datasets(datasets.iter().map(|d| d.name)),
    );
    let results = runner.run_spec(&spec, |point| {
        let name = point.dataset.as_deref().expect("grid has a dataset axis");
        let dataset = datasets.iter().find(|d| d.name == name).expect("dataset in suite");
        let a = scaled_matrix(dataset, 8);
        let features = dataset.feature_dim.min(512);
        let profile = WorkloadProfile::from_aggregation(name, &a, features);
        baselines
            .iter()
            .map(|baseline| speedup_over(*baseline, &profile, features, HIDDEN_DIM))
            .collect::<Vec<f64>>()
    });

    let mut rows = Vec::new();
    let mut sums = vec![0.0f64; baselines.len()];
    for (point, speedups) in &results {
        let mut row = vec![point.dataset.clone().expect("dataset axis")];
        let mut record = point.record();
        for ((baseline, speedup), sum) in baselines.iter().zip(speedups).zip(&mut sums) {
            *sum += *speedup;
            row.push(fmt(*speedup, 2));
            record = record.unit_metric(slugify(baseline.name()), *speedup, "x");
        }
        rows.push(row);
        session.push(record);
    }
    let mut avg_row = vec!["Average".to_string()];
    let mut avg_record = RunRecord::new("fig17/average");
    for (baseline, sum) in baselines.iter().zip(&sums) {
        let average = sum / datasets.len() as f64;
        avg_row.push(fmt(average, 2));
        avg_record = avg_record.unit_metric(slugify(baseline.name()), average, "x");
    }
    rows.push(avg_row);
    session.push(avg_record);

    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table(
        "Figure 17: NeuraChip Tile-16 speedup over GNN accelerators (GCN layer)",
        &header_refs,
        &rows,
    );
    println!("\nPaper average speedups: EnGN 1.29x, GROW 1.58x, HyGCN 1.69x, FlowGNN 1.30x.");

    // Cycle-level evidence: one GCN layer on a Cora analog.
    let mut a = scaled_matrix_by_name("cora", 8);
    a.row_normalize();
    let x = feature_matrix(a.cols(), 32, 11);
    let w = weight_matrix(32, 16, 12);
    let mut chip = Accelerator::new(ChipConfig::tile_16());
    match run_gcn_layer(&mut chip, &a, &x, &w) {
        Ok(run) => {
            println!("\nSimulated GCN layer on the Cora analog (Tile-16):");
            println!("  aggregation cycles : {}", run.breakdown.aggregation_cycles);
            println!("  combination cycles : {}", run.breakdown.combination_cycles);
            println!("  layer GFLOP/s      : {:.2}", run.breakdown.gops);
            session.push(
                RunRecord::new("fig17/sim/cora")
                    .param("dataset", "cora")
                    .param("tile", "Tile-16")
                    .unit_metric(
                        "aggregation_cycles",
                        run.breakdown.aggregation_cycles as f64,
                        "cycles",
                    )
                    .unit_metric(
                        "combination_cycles",
                        run.breakdown.combination_cycles as f64,
                        "cycles",
                    )
                    .unit_metric("gops", run.breakdown.gops, "GFLOP/s"),
            );
        }
        Err(e) => println!("\nSimulated GCN layer failed: {e}"),
    }

    let artifact = session.finish();
    golden::check(&artifact, golden::fig17_goldens(), golden::Mode::from_scale_mult(scale_mult))
        .print_and_enforce("Figure 17");
}
