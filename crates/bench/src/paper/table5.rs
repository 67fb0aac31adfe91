//! Table 5 — cross-platform SpGEMM comparison.
//!
//! Prints the static platform specifications, the modeled SpGEMM throughput
//! on the common matrix suite and the derived efficiency metrics, plus the
//! Tile-16 speedup row. Workload profiles are built in parallel on the
//! `neura_lab` runner and the NeuraChip throughput/speedup numbers are
//! checked against `neura_lab::golden::table5_goldens`.

use crate::{scaled_matrix, MODEL_SCALE};
use neura_baselines::spgemm::{geometric_mean, SpgemmModel, SpgemmPlatform};
use neura_baselines::WorkloadProfile;
use neura_lab::golden::slugify;
use neura_lab::{fmt, print_table, ArtifactSession, RunRecord, Runner};
use neura_sparse::DatasetCatalog;

pub(super) fn run(session: &mut ArtifactSession) {
    // Modeled throughput over the common (Table 1) matrix suite; profile
    // construction (graph generation + SpGEMM analysis) fans out over the
    // runner, the per-platform estimates are cheap arithmetic.
    let datasets = DatasetCatalog::spgemm_suite();
    let profiles: Vec<WorkloadProfile> = Runner::from_env().run(&datasets, |_, d| {
        WorkloadProfile::from_square(d.name, &scaled_matrix(d, MODEL_SCALE))
    });

    // Figure 16's seven baselines, then the three NeuraChip configurations.
    let neurachips = [4, 16, 64].map(|tile| SpgemmPlatform::NeuraChip { tile });
    let platforms = SpgemmPlatform::FIGURE16_BASELINES.into_iter().chain(neurachips);
    let tile16 = SpgemmPlatform::NeuraChip { tile: 16 };

    let mut rows = Vec::new();
    for platform in platforms {
        let spec = platform.spec();
        let modeled: Vec<f64> = profiles.iter().map(|p| platform.estimate(p).gops).collect();
        let mean_gops = modeled.iter().sum::<f64>() / modeled.len() as f64;
        let speedups: Vec<f64> = profiles
            .iter()
            .map(|p| tile16.estimate(p).speedup_over(&platform.estimate(p)))
            .collect();
        let speedup_geomean = geometric_mean(&speedups);
        rows.push(vec![
            spec.name.to_string(),
            spec.compute_units.to_string(),
            fmt(spec.frequency_ghz, 1),
            fmt(spec.peak_gflops, 0),
            fmt(spec.spgemm_gops_reference, 2),
            fmt(mean_gops, 2),
            fmt(spec.on_chip_memory_mb, 2),
            fmt(spec.off_chip_bandwidth_gbps, 0),
            spec.technology_nm.to_string(),
            spec.area_mm2.map(|a| fmt(a, 2)).unwrap_or_else(|| "-".into()),
            spec.power_w.map(|p| fmt(p, 2)).unwrap_or_else(|| "-".into()),
            spec.energy_efficiency().map(|e| fmt(e, 3)).unwrap_or_else(|| "-".into()),
            spec.area_efficiency().map(|e| fmt(e, 3)).unwrap_or_else(|| "-".into()),
            fmt(speedup_geomean, 2),
        ]);

        let mut record = RunRecord::new(format!("table5/{}", slugify(spec.name)))
            .param("platform", spec.name)
            .param("compute_units", spec.compute_units)
            .unit_metric("frequency_ghz", spec.frequency_ghz, "GHz")
            .unit_metric("peak_gflops", spec.peak_gflops, "GFLOP/s")
            .unit_metric("spgemm_gops_paper", spec.spgemm_gops_reference, "GOP/s")
            .unit_metric("mean_gops", mean_gops, "GOP/s")
            .unit_metric("on_chip_memory_mb", spec.on_chip_memory_mb, "MB")
            .unit_metric("off_chip_bandwidth_gbps", spec.off_chip_bandwidth_gbps, "GB/s")
            .unit_metric("technology_nm", spec.technology_nm as f64, "nm")
            .unit_metric("tile16_speedup_geomean", speedup_geomean, "x");
        if let Some(area) = spec.area_mm2 {
            record = record.unit_metric("area_mm2", area, "mm^2");
        }
        if let Some(power) = spec.power_w {
            record = record.unit_metric("power_w", power, "W");
        }
        if let Some(e) = spec.energy_efficiency() {
            record = record.unit_metric("gops_per_w", e, "GOP/s/W");
        }
        if let Some(e) = spec.area_efficiency() {
            record = record.unit_metric("gops_per_mm2", e, "GOP/s/mm^2");
        }
        session.push(record);
    }
    print_table(
        "Table 5: SpGEMM accelerator comparison",
        &[
            "Platform",
            "Compute Units",
            "Freq (GHz)",
            "Peak GFLOPs",
            "SpGEMM GOP/s (paper)",
            "SpGEMM GOP/s (model)",
            "On-chip MB",
            "Off-chip GB/s",
            "Tech (nm)",
            "Area mm^2",
            "Power W",
            "GOPS/W",
            "GOPS/mm^2",
            "Tile-16 speedup (geomean)",
        ],
        &rows,
    );
}
