//! Figure 15 — HACC completion-latency histogram: barrier-based eviction
//! (HACC-BE) versus rolling eviction (HACC-RE).
//!
//! The two eviction policies are a `neura_lab` sweep executed in parallel;
//! the mean latencies are checked against `neura_lab::golden::fig15_goldens`.

use super::{simulate_cora, with_bins};
use crate::scaled_matrix_by_name;
use neura_chip::config::{ChipConfig, EvictionPolicy};
use neura_lab::{fmt, print_table, ArtifactSession, ExperimentSpec, Runner, SweepGrid};

pub(super) fn run(session: &mut ArtifactSession) {
    let a = scaled_matrix_by_name("cora", 4);

    // The HashPad is scaled down with the dataset (the full 2048-line pad of
    // Tile-16 would never fill on a 512x-scaled graph, hiding the pressure
    // the paper's full-size runs exhibit).
    let mut base = ChipConfig::tile_16();
    base.mem.hashlines = 256;
    let spec = ExperimentSpec::new(
        "fig15",
        base,
        SweepGrid::new()
            .datasets(["cora"])
            .evictions([EvictionPolicy::Barrier, EvictionPolicy::Rolling]),
    );
    let results = Runner::from_env().run_spec(&spec, |point| simulate_cora(&a, point));

    let mut rows = Vec::new();
    let mut labels: Vec<String> = Vec::new();
    for (point, report) in &results {
        let hist = &report.hacc_latency_histogram;
        if labels.is_empty() {
            labels = hist.bin_labels();
        }
        let name = match point.config.eviction {
            EvictionPolicy::Barrier => "HACC-BE (barrier)",
            EvictionPolicy::Rolling => "HACC-RE (rolling)",
        };
        let mut row = vec![
            name.to_string(),
            fmt(hist.mean(), 0),
            report.peak_hashpad_occupancy.to_string(),
            report.hashpad_full_stalls.to_string(),
            report.total_cycles.to_string(),
        ];
        let percentages = hist.percentages();
        row.extend(percentages.iter().map(|p| fmt(*p, 1)));
        rows.push(row);
        let record = point.record().with_execution(report);
        session.push(with_bins(record, "latency_bin", &labels, &percentages));
    }

    let lead = ["Scheme", "Avg latency", "Peak pad occupancy", "Pad-full stalls", "Total cycles"];
    let headers: Vec<&str> = lead.into_iter().chain(labels.iter().map(String::as_str)).collect();
    print_table(
        "Figure 15: HACC latency histogram, barrier vs rolling eviction (% per 50-cycle bin)",
        &headers,
        &rows,
    );
    println!(
        "\nPaper averages: HACC-BE 872 cycles vs HACC-RE 347 cycles — rolling eviction\n\
         keeps partial products resident for far fewer cycles and avoids pad-full stalls."
    );
}
