//! Golden-value regression checks against the paper's headline numbers.
//!
//! A [`Golden`] pins one artifact metric to an expected value with a
//! relative tolerance. The expected values are the *model's* outputs at
//! paper scale (pinned when the golden was recorded), with the paper's
//! published number carried alongside for context — the check answers "did
//! the reproduction regress", while the `paper` column keeps the published
//! target visible in every report. The artifacts are always paper scale,
//! so every check is strict: the tolerance applies.

use crate::report::{fmt, print_table, Artifact};

/// One pinned expectation: `record`/`metric` inside an artifact must equal
/// `expected` within `rel_tol` (relative).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Golden {
    /// ID of the record holding the metric.
    pub record: &'static str,
    /// Metric name within the record.
    pub metric: &'static str,
    /// Pinned model output at paper scale.
    pub expected: f64,
    /// Relative tolerance (`0.02` = ±2 %).
    pub rel_tol: f64,
    /// The paper's published value, for context in reports.
    pub paper: Option<f64>,
}

/// The outcome of checking one [`Golden`].
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The expectation that was checked.
    pub golden: Golden,
    /// The value found in the artifact, if present.
    pub actual: Option<f64>,
    /// Whether the check passed.
    pub passed: bool,
}

impl Outcome {
    fn detail(&self) -> String {
        match self.actual {
            None => "metric missing".to_string(),
            Some(a) => {
                let rel = (a - self.golden.expected).abs() / self.golden.expected.abs();
                format!("Δ {:.2}% (tol {:.0}%)", rel * 100.0, self.golden.rel_tol * 100.0)
            }
        }
    }
}

/// Result of checking a golden table against an artifact.
#[derive(Debug, Clone)]
pub struct GoldenReport {
    /// One outcome per golden, in table order.
    pub outcomes: Vec<Outcome>,
}

impl GoldenReport {
    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.outcomes.iter().all(|o| o.passed)
    }

    /// Number of failed checks.
    pub(crate) fn failures(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.passed).count()
    }

    /// Prints the per-metric pass/fail table.
    pub(crate) fn print(&self, title: &str) {
        let rows: Vec<Vec<String>> = self
            .outcomes
            .iter()
            .map(|o| {
                vec![
                    o.golden.record.to_string(),
                    o.golden.metric.to_string(),
                    o.actual.map(|a| fmt(a, 3)).unwrap_or_else(|| "-".into()),
                    fmt(o.golden.expected, 3),
                    o.golden.paper.map(|p| fmt(p, 2)).unwrap_or_else(|| "-".into()),
                    if o.passed { "pass".into() } else { "FAIL".into() },
                    o.detail(),
                ]
            })
            .collect();
        print_table(
            &format!("{title} — golden checks (strict, paper scale)"),
            &["Record", "Metric", "Actual", "Expected", "Paper", "Status", "Detail"],
            &rows,
        );
    }

    /// Prints the table and terminates the process with exit code 1 when any
    /// check failed — the hook the artifact binaries call last.
    pub fn print_and_enforce(&self, title: &str) {
        self.print(title);
        enforce(title, "golden check", self.failures());
    }
}

/// The shared enforcement contract of every golden report: a non-zero
/// failure count prints one summary line on stderr and exits 1.
fn enforce(title: &str, kind: &str, failures: usize) {
    if failures > 0 {
        eprintln!("{title}: {failures} {kind}(s) failed");
        std::process::exit(1);
    }
}

/// A pinned *ordering* expectation: one metric, read from a list of
/// records, must be non-increasing across the list at paper scale. Used
/// where the paper's quantity of interest is a ranking (Table 1's bloat
/// severity across datasets) rather than a value.
#[derive(Debug, Clone, Copy)]
pub struct OrderGolden {
    /// Metric name read from every record.
    pub metric: &'static str,
    /// Record IDs, pinned in descending order of the metric.
    pub records: &'static [&'static str],
}

/// The outcome of one position in an [`OrderGolden`] check.
#[derive(Debug, Clone)]
pub struct OrderOutcome {
    /// The record checked at this position.
    pub record: &'static str,
    /// The metric value found, if present.
    pub actual: Option<f64>,
    /// Whether this position passed: present, finite and not greater than
    /// any predecessor.
    pub passed: bool,
}

/// Result of checking an [`OrderGolden`] against an artifact.
#[derive(Debug, Clone)]
pub struct OrderReport {
    /// The metric that was compared.
    pub metric: &'static str,
    /// One outcome per pinned record, in pinned order.
    pub outcomes: Vec<OrderOutcome>,
}

impl OrderReport {
    /// Whether every position passed.
    pub fn passed(&self) -> bool {
        self.outcomes.iter().all(|o| o.passed)
    }

    /// Number of failed positions.
    pub(crate) fn failures(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.passed).count()
    }

    /// Prints the per-position pass/fail table.
    pub(crate) fn print(&self, title: &str) {
        let rows: Vec<Vec<String>> = self
            .outcomes
            .iter()
            .enumerate()
            .map(|(i, o)| {
                vec![
                    format!("{}", i + 1),
                    o.record.to_string(),
                    o.actual.map(|a| fmt(a, 3)).unwrap_or_else(|| "-".into()),
                    if o.passed { "pass".into() } else { "FAIL".into() },
                ]
            })
            .collect();
        print_table(
            &format!("{title} — {} ordering (strict, paper scale — descending order)", self.metric),
            &["Rank", "Record", "Actual", "Status"],
            &rows,
        );
    }

    /// Prints the table and terminates the process with exit code 1 when
    /// any position failed — same contract as
    /// [`GoldenReport::print_and_enforce`].
    pub fn print_and_enforce(&self, title: &str) {
        self.print(title);
        enforce(title, "ordering check", self.failures());
    }
}

/// Checks a pinned ordering against the artifact: each record's metric
/// must be present, finite and no greater than *every* predecessor's (ties
/// allowed) — the comparison runs against the minimum seen so far, so a
/// single out-of-order spike does not mask later violations.
pub fn check_order(artifact: &Artifact, order: &OrderGolden) -> OrderReport {
    let mut min_so_far: Option<f64> = None;
    let outcomes = order
        .records
        .iter()
        .map(|&record| {
            let actual = artifact.record(record).and_then(|r| r.metric_value(order.metric));
            let passed =
                actual.is_some_and(|a| a.is_finite() && min_so_far.map(|m| a <= m).unwrap_or(true));
            // Only finite values participate in the running minimum — a NaN
            // or -inf position fails on its own without cascading failures
            // into every later (healthy) position.
            if let Some(a) = actual {
                if a.is_finite() && min_so_far.map(|m| a < m).unwrap_or(true) {
                    min_so_far = Some(a);
                }
            }
            OrderOutcome { record, actual, passed }
        })
        .collect();
    OrderReport { metric: order.metric, outcomes }
}

/// Checks every golden against the artifact.
pub fn check(artifact: &Artifact, goldens: &[Golden]) -> GoldenReport {
    let outcomes = goldens
        .iter()
        .map(|&golden| {
            let actual = artifact.record(golden.record).and_then(|r| r.metric_value(golden.metric));
            let passed = actual.is_some_and(|a| {
                a.is_finite()
                    && (a - golden.expected).abs() <= golden.rel_tol * golden.expected.abs()
            });
            Outcome { golden, actual, passed }
        })
        .collect();
    GoldenReport { outcomes }
}

/// Turns a display name into a stable slug used in record IDs and metric
/// names: lower-case, alphanumeric runs joined by single dashes
/// (`"Xeon E5 (MKL)"` → `"xeon-e5-mkl"`).
pub fn slugify(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    let mut pending_dash = false;
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            if pending_dash && !out.is_empty() {
                out.push('-');
            }
            pending_dash = false;
            out.push(c.to_ascii_lowercase());
        } else {
            pending_dash = true;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// The checked-in golden tables for the paper's headline artifacts.
//
// `expected` pins the model's paper-scale output (recorded 2026-07-31);
// `paper` is the value published in conf_isca_ShivdikarAJJAJKK24. The ±2 %
// tolerance absorbs the 2-decimal rounding the values were recorded at while
// still catching any real change in the models.
// ---------------------------------------------------------------------------

const TOL: f64 = 0.02;

/// Figure 16 — geometric-mean SpGEMM speedup of Tile-16 over each platform.
pub fn fig16_goldens() -> &'static [Golden] {
    const G: &[Golden] = &[
        gm("fig16/geomean", "xeon-e5-mkl", 16.93, Some(22.1)),
        gm("fig16/geomean", "nvidia-h100-cusparse", 12.05, Some(17.1)),
        gm("fig16/geomean", "nvidia-h100-cusp", 9.39, Some(13.3)),
        gm("fig16/geomean", "amd-mi100-hipsparse", 11.80, Some(16.7)),
        gm("fig16/geomean", "outerspace", 6.86, Some(6.6)),
        gm("fig16/geomean", "sparch", 2.26, Some(2.4)),
        gm("fig16/geomean", "gamma", 1.29, Some(1.5)),
    ];
    G
}

/// Figure 17 — average GCN-layer speedup of Tile-16 over each GNN platform.
#[allow(clippy::approx_constant)] // 3.14 is the measured HyGCN speedup, not π
pub fn fig17_goldens() -> &'static [Golden] {
    const G: &[Golden] = &[
        gm("fig17/average", "engn", 1.85, Some(1.29)),
        gm("fig17/average", "grow", 2.83, Some(1.58)),
        gm("fig17/average", "hygcn", 3.14, Some(1.69)),
        gm("fig17/average", "flowgnn", 1.66, Some(1.30)),
    ];
    G
}

/// Table 5 — modeled SpGEMM throughput of the three NeuraChip configurations
/// and the Tile-16 speedup geomeans over the CPU and the strongest prior
/// accelerator.
pub fn table5_goldens() -> &'static [Golden] {
    const G: &[Golden] = &[
        gm("table5/neurachip-tile-4", "mean_gops", 5.50, Some(5.15)),
        gm("table5/neurachip-tile-16", "mean_gops", 23.71, Some(24.75)),
        gm("table5/neurachip-tile-64", "mean_gops", 28.65, Some(30.69)),
        gm("table5/xeon-e5-mkl", "tile16_speedup_geomean", 16.93, Some(22.1)),
        gm("table5/gamma", "tile16_speedup_geomean", 1.29, Some(1.5)),
    ];
    G
}

/// Figure 14 — mean CPI of the MMH1/2/4/8 instruction variants on the Cora
/// analog. The absolute cycle counts differ from the paper's (the analog
/// workload is scaled), but the monotone increase with tile height — the
/// figure's message — is pinned along with the values.
pub fn fig14_goldens() -> &'static [Golden] {
    const G: &[Golden] = &[
        gm("fig14/cora/mmh1", "cpi", 501.62, Some(91.0)),
        gm("fig14/cora/mmh2", "cpi", 574.78, Some(123.0)),
        gm("fig14/cora/mmh4", "cpi", 698.19, Some(295.0)),
        gm("fig14/cora/mmh8", "cpi", 750.96, Some(877.0)),
    ];
    G
}

/// Figure 15 — mean HACC completion latency under barrier (HACC-BE) vs
/// rolling (HACC-RE) eviction. As in the paper, barrier eviction holds
/// partial products resident longer (higher mean latency).
pub fn fig15_goldens() -> &'static [Golden] {
    const G: &[Golden] = &[
        gm("fig15/cora/barrier", "avg_hacc_latency", 6.80, Some(872.0)),
        gm("fig15/cora/rolling", "avg_hacc_latency", 6.02, Some(347.0)),
    ];
    G
}

/// Table 1 — the SpGEMM suite ranked by measured memory bloat (descending),
/// pinned at paper scale (recorded 2026-07-31). The paper's point is which
/// graphs bloat worst, so the *ordering* is the reproduced quantity; the
/// FEM-style matrices (poisson3Da, filter3D, cop20k_A) lead and the
/// road/mesh graphs (mario002, roadNet-CA) trail, matching Table 1.
pub fn table1_bloat_order() -> OrderGolden {
    OrderGolden {
        metric: "bloat_percent",
        records: &[
            "table1/poisson3Da",
            "table1/filter3D",
            "table1/cop20k_A",
            "table1/2cubes_sphere",
            "table1/offshore",
            "table1/cage12",
            "table1/facebook",
            "table1/wiki-Vote",
            "table1/amazon0312",
            "table1/web-Google",
            "table1/email-Enron",
            "table1/cit-Patents",
            "table1/ca-CondMat",
            "table1/webbase-1M",
            "table1/patents_main",
            "table1/p2p-Gnutella31",
            "table1/scircuit",
            "table1/m133-b3",
            "table1/mario002",
            "table1/roadNet-CA",
        ],
    }
}

const fn gm(
    record: &'static str,
    metric: &'static str,
    expected: f64,
    paper: Option<f64>,
) -> Golden {
    Golden { record, metric, expected, rel_tol: TOL, paper }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::RunRecord;

    fn artifact_with(value: f64) -> Artifact {
        let mut artifact = Artifact::new("t", 1);
        artifact.push(RunRecord::new("t/r").metric("m", value));
        artifact
    }

    const PIN: &[Golden] =
        &[Golden { record: "t/r", metric: "m", expected: 10.0, rel_tol: 0.05, paper: None }];

    #[test]
    fn strict_mode_applies_relative_tolerance() {
        assert!(check(&artifact_with(10.4), PIN).passed());
        assert!(!check(&artifact_with(10.6), PIN).passed());
        assert!(!check(&artifact_with(f64::NAN), PIN).passed());
    }

    #[test]
    fn missing_metric_fails_in_both_modes() {
        let empty = Artifact::new("t", 1);
        assert_eq!(check(&empty, PIN).failures(), 1);
    }

    #[test]
    fn slugify_matches_platform_names() {
        assert_eq!(slugify("Xeon E5 (MKL)"), "xeon-e5-mkl");
        assert_eq!(slugify("NVIDIA H100 (cuSPARSE)"), "nvidia-h100-cusparse");
        assert_eq!(slugify("EnGN"), "engn");
        assert_eq!(slugify("  --weird--  "), "weird");
    }

    #[test]
    fn golden_tables_are_well_formed() {
        for table in
            [fig16_goldens(), fig17_goldens(), table5_goldens(), fig14_goldens(), fig15_goldens()]
        {
            for g in table {
                assert!(g.expected > 0.0 && g.rel_tol > 0.0, "{}/{}", g.record, g.metric);
            }
        }
        let order = table1_bloat_order();
        assert_eq!(order.records.len(), 20, "every Table 1 dataset is ranked");
        let unique: std::collections::HashSet<_> = order.records.iter().collect();
        assert_eq!(unique.len(), order.records.len());
    }

    fn ordered_artifact(values: &[f64]) -> Artifact {
        let mut artifact = Artifact::new("t", 1);
        for (i, &v) in values.iter().enumerate() {
            artifact.push(RunRecord::new(format!("t/r{i}")).metric("m", v));
        }
        artifact
    }

    const ORDER: OrderGolden = OrderGolden { metric: "m", records: &["t/r0", "t/r1", "t/r2"] };

    #[test]
    fn strict_ordering_accepts_descending_and_ties() {
        assert!(check_order(&ordered_artifact(&[3.0, 2.0, 2.0]), &ORDER).passed());
        let report = check_order(&ordered_artifact(&[3.0, 4.0, 2.0]), &ORDER);
        assert!(!report.passed());
        assert_eq!(report.failures(), 1);
        assert!(!report.outcomes[1].passed, "the out-of-order position is the failure");
    }

    #[test]
    fn strict_ordering_spike_does_not_mask_later_violations() {
        // Values compare against the minimum seen so far, not the previous
        // raw value: with [10, 50, 20] the 20 is out of rank too (> 10).
        let report = check_order(&ordered_artifact(&[10.0, 50.0, 20.0]), &ORDER);
        assert_eq!(report.failures(), 2);
        assert!(!report.outcomes[1].passed);
        assert!(!report.outcomes[2].passed);
    }

    #[test]
    fn strict_ordering_isolates_non_finite_values() {
        // A NaN fails its own position but must not poison the running
        // minimum and fail every later, correctly-ordered position.
        let report = check_order(&ordered_artifact(&[f64::NAN, 5.0, 3.0]), &ORDER);
        assert_eq!(report.failures(), 1);
        assert!(!report.outcomes[0].passed);
        assert!(report.outcomes[1].passed && report.outcomes[2].passed);
    }
}
