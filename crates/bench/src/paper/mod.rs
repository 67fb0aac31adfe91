//! The paper's evaluation as one table: every table and figure the
//! reproduction regenerates is one module here — its spec, its rows, its
//! records — and one [`Row`] of [`ARTIFACTS`]. The `paper` binary drives
//! them: `cargo run --release -p neura_bench --bin paper -- <name>` (add
//! `--json [PATH]` for a machine-readable artifact) opens the session, calls
//! the row's `run`, writes the artifact and enforces the row's [`Check`].
//! Every row runs at paper scale, so every check is strict.

mod ablation;
mod fig11;
mod fig13;
mod fig14;
mod fig15;
mod fig16;
mod fig17;
mod table1;
mod table3;
mod table4;
mod table5;

use crate::exit_wedged;
use neura_chip::accelerator::{Accelerator, ExecutionReport};
use neura_lab::golden::{
    self, fig14_goldens, fig15_goldens, fig16_goldens, fig17_goldens, table1_bloat_order,
    table5_goldens, Golden, OrderGolden,
};
use neura_lab::{fmt, print_table, ArtifactSession, RunRecord, SweepPoint};
use neura_sparse::CsrMatrix;
use Check::{Order, Values};

/// One table or figure of the paper's evaluation.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// What `paper <name>` runs: the artifact's `"bin"` and default file stem.
    pub name: &'static str,
    /// What the paper calls it — the heading of its golden report.
    pub title: &'static str,
    /// Simulates, prints the tables and pushes the records.
    pub run: fn(&mut ArtifactSession),
    /// What the written artifact is held to.
    pub check: Check,
}

/// The pinned expectation an artifact is checked against once written.
#[derive(Debug, Clone, Copy)]
pub enum Check {
    /// Nothing pinned: running to completion is the check.
    None,
    /// Headline metrics within tolerance of their golden values.
    Values(fn() -> &'static [Golden]),
    /// One metric ranking a list of records in the pinned order.
    Order(fn() -> OrderGolden),
}

/// Every artifact, in the paper's order.
pub const ARTIFACTS: &[Row] = &[
    Row { name: "table1", title: "Table 1", run: table1::run, check: Order(table1_bloat_order) },
    Row { name: "table3", title: "Tables 2-3", run: table3::run, check: Check::None },
    Row { name: "table4", title: "Table 4", run: table4::run, check: Check::None },
    Row { name: "table5", title: "Table 5", run: table5::run, check: Values(table5_goldens) },
    Row { name: "fig11", title: "Figure 11", run: fig11::run, check: Check::None },
    Row { name: "fig13", title: "Figures 12-13", run: fig13::run, check: Check::None },
    Row { name: "fig14", title: "Figure 14", run: fig14::run, check: Values(fig14_goldens) },
    Row { name: "fig15", title: "Figure 15", run: fig15::run, check: Values(fig15_goldens) },
    Row { name: "fig16", title: "Figure 16", run: fig16::run, check: Values(fig16_goldens) },
    Row { name: "fig17", title: "Figure 17", run: fig17::run, check: Values(fig17_goldens) },
    Row { name: "ablation", title: "Section 3 ablations", run: ablation::run, check: Check::None },
];

/// Simulates `a · a` for one point of a Cora-analog sweep (Figures 14 and
/// 15, the ablations), or exits on a wedged run with its one-line
/// complaint.
fn simulate_cora(a: &CsrMatrix, point: &SweepPoint) -> ExecutionReport {
    Accelerator::new(point.config.clone())
        .run_spgemm(a, a)
        .unwrap_or_else(|e| exit_wedged("paper", "cora", point.config.tile_size, None, &e))
        .report
}

/// `record` with one `<prefix>_<bin>` metric per histogram bin, `labels`
/// naming the bins of `percentages`: the per-point records of Figures 14
/// and 15.
fn with_bins(record: RunRecord, prefix: &str, labels: &[String], percentages: &[f64]) -> RunRecord {
    labels.iter().zip(percentages).fold(record, |record, (label, &pct)| {
        record.unit_metric(format!("{prefix}_{}", golden::slugify(label)), pct, "%")
    })
}

/// The table Figures 16 and 17 share: one row and record per sweep point of
/// its speedups over `baselines`, closed by the `mean` of every column as
/// the `label` row and the `mean_id` record.
fn speedup_table(
    session: &mut ArtifactSession,
    title: &str,
    baselines: &[&str],
    results: &[(SweepPoint, Vec<f64>)],
    label: &str,
    mean_id: &str,
    mean: fn(&[f64]) -> f64,
) {
    let mut rows = Vec::new();
    let mut columns = vec![Vec::new(); baselines.len()];
    for (point, speedups) in results {
        let mut row = vec![point.dataset.clone().expect("dataset axis")];
        let mut record = point.record();
        for ((name, speedup), column) in baselines.iter().zip(speedups).zip(&mut columns) {
            column.push(*speedup);
            row.push(fmt(*speedup, 2));
            record = record.unit_metric(golden::slugify(name), *speedup, "x");
        }
        rows.push(row);
        session.push(record);
    }
    let mut mean_row = vec![label.to_string()];
    let mut mean_record = RunRecord::new(mean_id);
    for (name, column) in baselines.iter().zip(&columns) {
        let value = mean(column);
        mean_row.push(fmt(value, 2));
        mean_record = mean_record.unit_metric(golden::slugify(name), value, "x");
    }
    rows.push(mean_row);
    session.push(mean_record);
    let headers: Vec<&str> = ["Dataset"].into_iter().chain(baselines.iter().copied()).collect();
    print_table(title, &headers, &rows);
}
