//! Figure 11 — architectural impact of the tile configuration on a GCN
//! (Cora) workload, normalised to Tile-4.
//!
//! The three tile sizes are a `neura_lab` sweep executed in parallel.

use crate::{exit_wedged, scaled_matrix_by_name};
use neura_chip::accelerator::Accelerator;
use neura_chip::config::{ChipConfig, TileSize};
use neura_chip::power::PowerModel;
use neura_lab::{fmt, print_table, ArtifactSession, ExperimentSpec, Runner, SweepGrid, SweepPoint};
use neura_sparse::gen::feature_matrix;

pub(super) fn run(session: &mut ArtifactSession) {
    let mut a = scaled_matrix_by_name("cora", 4);
    a.row_normalize();
    let x = feature_matrix(a.cols(), 16, 3);
    let power_model = PowerModel::calibrated();

    let spec = ExperimentSpec::new(
        "fig11",
        ChipConfig::tile_16(),
        SweepGrid::new().datasets(["cora"]).tile_sizes(TileSize::ALL),
    );
    let results = Runner::from_env().run_spec(&spec, |point| {
        let mut chip = Accelerator::new(point.config.clone());
        chip.run_aggregation(&a, &x)
            .unwrap_or_else(|e| exit_wedged("paper", "cora", point.config.tile_size, None, &e))
            .report
    });

    let power = |point: &SweepPoint| power_model.breakdown(&point.config).total_power_w();
    for (point, report) in &results {
        session.push(
            point
                .record()
                .unit_metric("power_w", power(point), "W")
                .metric("core_stall_cycles", report.core_stall_cycles as f64)
                .metric("core_busy_cycles", report.core_busy_cycles as f64)
                .metric("avg_in_flight_mem", report.avg_in_flight_mem)
                .with_execution(report),
        );
    }

    let (base_point, base) = &results[0];
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(point, report)| {
            vec![
                point.config.tile_size.name().to_string(),
                fmt(report.core_stall_cycles as f64 / (base.core_stall_cycles as f64).max(1.0), 3),
                fmt(report.cpi / base.cpi.max(1e-9), 3),
                fmt(report.ipc / base.ipc.max(1e-9), 3),
                fmt(report.avg_in_flight_mem / base.avg_in_flight_mem.max(1e-9), 3),
                fmt(power(point) / power(base_point).max(1e-9), 3),
                fmt(report.core_busy_cycles as f64 / (base.core_busy_cycles as f64).max(1.0), 3),
            ]
        })
        .collect();
    print_table(
        "Figure 11: architectural impact of tile configuration on Cora (normalised to Tile-4)",
        &["Config", "Stall cycles", "CPI", "IPC", "In-flight mem instx", "Power", "Busy cycles"],
        &rows,
    );
    println!(
        "\nPaper observations to compare against: larger tiles raise in-flight memory\n\
         instructions and power; CPI rises once DRAM cannot keep up; IPC improves\n\
         from Tile-4 to Tile-16 but saturates at Tile-64 under the 128 GB/s ceiling."
    );
}
