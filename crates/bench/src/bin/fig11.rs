//! Figure 11 — architectural impact of the tile configuration on a GCN
//! (Cora) workload, normalised to Tile-4.
//!
//! The three tile sizes are a `neura_lab` sweep executed in parallel. Run
//! with `cargo run --release -p neura_bench --bin fig11` (add `--json
//! [path]` for a machine-readable artifact).

use neura_bench::{fmt, print_table, scaled_matrix_by_name};
use neura_chip::accelerator::Accelerator;
use neura_chip::config::{ChipConfig, TileSize};
use neura_chip::power::PowerModel;
use neura_lab::{ArtifactSession, ExperimentSpec, Runner, SweepGrid};
use neura_sparse::gen::feature_matrix;

fn main() {
    let mut session = ArtifactSession::from_args("fig11", neura_bench::scale_multiplier());
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
        chip.run_aggregation(&a, &x).expect("simulation drains").report
    });

    struct Sample {
        tile: &'static str,
        stall: f64,
        cpi: f64,
        ipc: f64,
        in_flight: f64,
        power: f64,
        busy: f64,
    }

    let mut samples = Vec::new();
    for (point, report) in &results {
        let power = power_model.breakdown(&point.config).total_power_w();
        samples.push(Sample {
            tile: point.config.tile_size.name(),
            stall: report.core_stall_cycles as f64,
            cpi: report.cpi,
            ipc: report.ipc,
            in_flight: report.avg_in_flight_mem,
            power,
            busy: report.core_busy_cycles as f64,
        });
        session.push(
            point
                .record()
                .unit_metric("power_w", power, "W")
                .metric("core_stall_cycles", report.core_stall_cycles as f64)
                .metric("core_busy_cycles", report.core_busy_cycles as f64)
                .metric("avg_in_flight_mem", report.avg_in_flight_mem)
                .with_execution(report),
        );
    }

    let base = &samples[0];
    let rows: Vec<Vec<String>> = samples
        .iter()
        .map(|s| {
            vec![
                s.tile.to_string(),
                fmt(s.stall / base.stall.max(1.0), 3),
                fmt(s.cpi / base.cpi.max(1e-9), 3),
                fmt(s.ipc / base.ipc.max(1e-9), 3),
                fmt(s.in_flight / base.in_flight.max(1e-9), 3),
                fmt(s.power / base.power.max(1e-9), 3),
                fmt(s.busy / base.busy.max(1.0), 3),
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

    session.finish();
}
