//! Figure 14 — CPI histograms of the MMH1/2/4/8 instruction variants.
//!
//! Runs the same Cora-analog SpGEMM on the Tile-16 configuration with each
//! MMH tile height — a four-point `neura_lab` sweep executed in parallel —
//! and prints the per-instruction cycle-count histogram (percentage of
//! instructions per 25-cycle bin) plus the average, which is checked
//! against `neura_lab::golden::fig14_goldens`.

use super::{simulate, with_bins};
use crate::scaled_matrix_by_name;
use neura_chip::config::ChipConfig;
use neura_lab::{fmt, print_table, Artifact, ExperimentSpec, Runner, SweepGrid};

pub(super) fn run(artifact: &mut Artifact) {
    let a = scaled_matrix_by_name("cora", 4);

    let spec = ExperimentSpec::new(
        "fig14",
        ChipConfig::tile_16(),
        SweepGrid::new().datasets(["cora"]).mmh_tiles([1, 2, 4, 8]),
    );
    let results = Runner::from_env().run_spec(&spec, |point| simulate("cora", &a, point));

    let mut rows = Vec::new();
    let mut labels: Vec<String> = Vec::new();
    for (point, report) in &results {
        let hist = &report.mmh_cpi_histogram;
        if labels.is_empty() {
            labels = hist.bin_labels();
        }
        let percentages = hist.percentages();
        let mut row = vec![format!("MMH{}", point.config.mmh_tile), fmt(hist.mean(), 0)];
        row.extend(percentages.iter().map(|p| fmt(*p, 1)));
        rows.push(row);
        let record = point.record().with_execution(report);
        artifact.push(with_bins(record, "cpi_bin", &labels, &percentages));
    }

    let lead = ["Instruction", "Avg CPI"];
    let headers: Vec<&str> = lead.into_iter().chain(labels.iter().map(String::as_str)).collect();
    print_table(
        "Figure 14: CPI histogram (percentage of MMH instructions per cycle bin)",
        &headers,
        &rows,
    );
    println!(
        "\nPaper averages: MMH1 91, MMH2 123, MMH4 295, MMH8 877 cycles — larger tiles\n\
         trade higher per-instruction latency for fewer instructions; MMH4 balances the two."
    );
}
