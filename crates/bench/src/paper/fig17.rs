//! Figure 17 — GCN speedup of NeuraChip Tile-16 over prior GNN accelerators.
//!
//! The per-dataset GCN-layer modeling is a `neura_lab` sweep over the GNN
//! suite, executed in parallel; the average speedups are checked against
//! `neura_lab::golden::fig17_goldens`.

use super::speedup_table;
use crate::{exit_wedged, scaled_matrix, scaled_matrix_by_name};
use neura_baselines::gnn::{speedup_over, GnnPlatform};
use neura_baselines::WorkloadProfile;
use neura_chip::accelerator::Accelerator;
use neura_chip::config::{ChipConfig, TileSize};
use neura_chip::gcn::run_gcn_layer;
use neura_lab::{Artifact, ExperimentSpec, RunRecord, Runner, SweepGrid};
use neura_sparse::gen::{feature_matrix, weight_matrix};
use neura_sparse::DatasetCatalog;

const HIDDEN_DIM: usize = 64;

pub(super) fn run(artifact: &mut Artifact) {
    let runner = Runner::from_env();

    let baselines = GnnPlatform::FIGURE17_BASELINES;

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

    speedup_table(
        artifact,
        "Figure 17: NeuraChip Tile-16 speedup over GNN accelerators (GCN layer)",
        &baselines.map(|b| b.name()),
        &results,
        "Average",
        "fig17/average",
        |column| column.iter().sum::<f64>() / column.len() as f64,
    );
    println!("\nPaper average speedups: EnGN 1.29x, GROW 1.58x, HyGCN 1.69x, FlowGNN 1.30x.");

    // Cycle-level evidence: one GCN layer on a Cora analog.
    let mut a = scaled_matrix_by_name("cora", 8);
    a.row_normalize();
    let x = feature_matrix(a.cols(), 32, 11);
    let w = weight_matrix(32, 16, 12);
    let mut chip = Accelerator::new(ChipConfig::tile_16());
    let run = run_gcn_layer(&mut chip, &a, &x, &w)
        .unwrap_or_else(|e| exit_wedged("paper", "cora", TileSize::Tile16, None, &e));
    let layer = &run.breakdown;
    println!("\nSimulated GCN layer on the Cora analog (Tile-16):");
    println!("  aggregation cycles : {}", layer.aggregation_cycles);
    println!("  combination cycles : {}", layer.combination_cycles);
    println!("  layer GFLOP/s      : {:.2}", layer.gops);
    artifact.push(
        RunRecord::new("fig17/sim/cora")
            .param("dataset", "cora")
            .param("tile", "Tile-16")
            .unit_metric("aggregation_cycles", layer.aggregation_cycles as f64, "cycles")
            .unit_metric("combination_cycles", layer.combination_cycles as f64, "cycles")
            .unit_metric("gops", layer.gops, "GFLOP/s"),
    );
}
