//! Figure 16 — SpGEMM speedup of NeuraChip Tile-16 over CPUs, GPUs and prior
//! SpGEMM accelerators, per dataset plus the geometric mean.
//!
//! The per-dataset modeling and the supporting cycle-level simulations are
//! parallel `neura_lab` sweeps over the dataset axis; the geometric-mean
//! speedups are checked against `neura_lab::golden::fig16_goldens`.

use super::speedup_table;
use crate::{catalog_dataset, scaled_matrix, scaled_matrix_by_name, MODEL_SCALE, SIM_SCALE};
use neura_baselines::spgemm::{geometric_mean, SpgemmModel, SpgemmPlatform};
use neura_baselines::WorkloadProfile;
use neura_chip::accelerator::Accelerator;
use neura_chip::config::ChipConfig;
use neura_lab::{fmt, print_table, ArtifactSession, ExperimentSpec, Runner, SweepGrid};
use neura_sparse::DatasetCatalog;

pub(super) fn run(session: &mut ArtifactSession) {
    let runner = Runner::from_env();

    let baselines = SpgemmPlatform::FIGURE16_BASELINES;
    let tile16 = SpgemmPlatform::NeuraChip { tile: 16 };

    // Modeled speedups: one sweep point per Table-1 dataset.
    let dataset_names: Vec<String> =
        DatasetCatalog::spgemm_suite().iter().map(|d| d.name.to_string()).collect();
    let spec = ExperimentSpec::new(
        "fig16",
        ChipConfig::tile_16(),
        SweepGrid::new().datasets(dataset_names),
    );
    let results = runner.run_spec(&spec, |point| {
        let dataset = point.dataset.as_deref().expect("grid has a dataset axis");
        let a = scaled_matrix_by_name(dataset, MODEL_SCALE);
        let profile = WorkloadProfile::from_square(dataset, &a);
        let ours = tile16.estimate(&profile);
        baselines
            .iter()
            .map(|baseline| ours.speedup_over(&baseline.estimate(&profile)))
            .collect::<Vec<f64>>()
    });

    speedup_table(
        session,
        "Figure 16: NeuraChip Tile-16 speedup over each platform",
        &baselines.map(|b| b.name()),
        &results,
        "G-Mean",
        "fig16/geomean",
        geometric_mean,
    );
    println!(
        "\nPaper geomean speedups: MKL 22.1x, cuSPARSE 17.1x, CUSP 13.3x, hipSPARSE 16.7x, \
         OuterSPACE 6.6x, SpArch 2.4x, Gamma 1.5x."
    );

    // Supporting evidence from the cycle-level simulator on a few small
    // analogs — a second sweep, one full simulation per point.
    println!("\nCycle-level Tile-16 simulation on small analogs (supporting evidence):");
    let sim_spec = ExperimentSpec::new(
        "fig16/sim",
        ChipConfig::tile_16(),
        SweepGrid::new().datasets(["facebook", "wiki-Vote", "p2p-Gnutella31", "ca-CondMat"]),
    );
    let sim_results = runner.run_spec(&sim_spec, |point| {
        let name = point.dataset.as_deref().expect("grid has a dataset axis");
        let dataset = catalog_dataset(name);
        let a = scaled_matrix(&dataset, SIM_SCALE.max(dataset.nodes / 2_000));
        let mut chip = Accelerator::new(point.config.clone());
        let run = chip.run_spgemm(&a, &a);
        (a.rows(), a.nnz(), run.map(|r| r.report))
    });
    let mut sim_rows = Vec::new();
    for (point, (nodes, edges, report)) in &sim_results {
        let name = point.dataset.clone().expect("dataset axis");
        match report {
            Ok(report) => {
                sim_rows.push(vec![
                    name,
                    nodes.to_string(),
                    edges.to_string(),
                    report.total_cycles.to_string(),
                    fmt(report.gops, 2),
                    fmt(report.core_utilization * 100.0, 1),
                ]);
                session.push(
                    point
                        .record()
                        .metric("sim_nodes", *nodes as f64)
                        .metric("sim_edges", *edges as f64)
                        .with_execution(report),
                );
            }
            Err(e) => sim_rows.push(vec![name, format!("simulation failed: {e}")]),
        }
    }
    print_table(
        "Simulated Tile-16 runs",
        &["Dataset", "Nodes (sim)", "Edges (sim)", "Cycles", "GOP/s", "Core util %"],
        &sim_rows,
    );
}
