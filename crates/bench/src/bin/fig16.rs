//! Figure 16 — SpGEMM speedup of NeuraChip Tile-16 over CPUs, GPUs and prior
//! SpGEMM accelerators, per dataset plus the geometric mean.
//!
//! The per-dataset modeling and the supporting cycle-level simulations are
//! `neura_lab` sweeps over the dataset axis, executed in parallel; the
//! geometric-mean speedups are checked against the pinned golden values
//! (strictly at paper scale, presence-only under `NEURA_BENCH_SCALE_MULT`).
//! Run with `cargo run --release -p neura_bench --bin fig16` (add `--json
//! [path]` for a machine-readable artifact).

use neura_baselines::spgemm::{geometric_mean, SpgemmModel, SpgemmPlatform};
use neura_baselines::WorkloadProfile;
use neura_bench::{fmt, print_table, scaled_matrix_by_name, MODEL_SCALE, SIM_SCALE};
use neura_chip::accelerator::Accelerator;
use neura_chip::config::ChipConfig;
use neura_lab::golden::{self, slugify};
use neura_lab::{ArtifactSession, ExperimentSpec, RunRecord, Runner, SweepGrid};
use neura_sparse::DatasetCatalog;

fn main() {
    let scale_mult = neura_bench::scale_multiplier();
    let mut session = ArtifactSession::from_args("fig16", scale_mult);
    let runner = Runner::from_env();

    let baselines = SpgemmPlatform::FIGURE16_BASELINES;
    let tile16 = SpgemmPlatform::NeuraChip { tile: 16 };
    let mut headers = vec!["Dataset".to_string()];
    headers.extend(baselines.iter().map(|b| b.name().to_string()));

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

    let mut rows = Vec::new();
    let mut per_baseline: Vec<Vec<f64>> = vec![Vec::new(); baselines.len()];
    for (point, speedups) in &results {
        let dataset = point.dataset.clone().expect("dataset axis");
        let mut row = vec![dataset];
        let mut record = point.record();
        for ((baseline, speedup), sink) in baselines.iter().zip(speedups).zip(&mut per_baseline) {
            sink.push(*speedup);
            row.push(fmt(*speedup, 2));
            record = record.unit_metric(slugify(baseline.name()), *speedup, "x");
        }
        rows.push(row);
        session.push(record);
    }

    let mut gmean_row = vec!["G-Mean".to_string()];
    let mut gmean_record = RunRecord::new("fig16/geomean");
    for (baseline, speedups) in baselines.iter().zip(&per_baseline) {
        let gmean = geometric_mean(speedups);
        gmean_row.push(fmt(gmean, 2));
        gmean_record = gmean_record.unit_metric(slugify(baseline.name()), gmean, "x");
    }
    rows.push(gmean_row);
    session.push(gmean_record);

    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table("Figure 16: NeuraChip Tile-16 speedup over each platform", &header_refs, &rows);
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
        let dataset = DatasetCatalog::by_name(name).expect("dataset exists");
        let a = neura_bench::scaled_matrix(&dataset, SIM_SCALE.max(dataset.nodes / 2_000));
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

    let artifact = session.finish();
    golden::check(&artifact, golden::fig16_goldens(), golden::Mode::from_scale_mult(scale_mult))
        .print_and_enforce("Figure 16");
}
