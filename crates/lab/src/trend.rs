//! Trend tracking across artifact runs: per-metric deltas between two
//! artifacts, so performance regressions become numbers instead of
//! eyeballed tables.
//!
//! [`diff`] matches two [`Artifact`]s record-by-record (by stable run ID)
//! and metric-by-metric (by name), producing a [`TrendReport`] of absolute
//! and relative deltas plus the metrics present on only one side — a
//! renamed or dropped metric is itself a change worth flagging. The `trend`
//! binary in `neura_bench` wraps this over artifact files or whole
//! `target/artifacts/` directories with a `--fail-above <pct>` threshold.

use std::path::Path;

use crate::report::{parse_json, Artifact};

/// One metric measured in both artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Run-record ID the metric belongs to.
    pub record: String,
    /// Metric name.
    pub metric: String,
    /// Value in the "before" artifact.
    pub before: f64,
    /// Value in the "after" artifact.
    pub after: f64,
}

impl MetricDelta {
    /// Absolute change (`after − before`).
    pub fn abs_delta(&self) -> f64 {
        self.after - self.before
    }

    /// Relative change in percent. Bit-identical values report exactly
    /// zero; a change away from a zero baseline has no meaningful relative
    /// size and reports infinity, so thresholds always catch it.
    pub fn rel_pct(&self) -> f64 {
        if self.before.to_bits() == self.after.to_bits() || self.before == self.after {
            0.0
        } else if self.before == 0.0 {
            f64::INFINITY
        } else {
            (self.after - self.before) / self.before.abs() * 100.0
        }
    }

    /// Whether the metric changed at all.
    pub fn changed(&self) -> bool {
        self.before != self.after
    }
}

/// The full comparison of two artifacts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrendReport {
    /// Metrics present in both artifacts, in "before" emission order.
    pub deltas: Vec<MetricDelta>,
    /// `record/metric` paths present only in the "before" artifact.
    pub only_in_before: Vec<String>,
    /// `record/metric` paths present only in the "after" artifact.
    pub only_in_after: Vec<String>,
    /// Structural mismatches worth surfacing (bin or scale differences).
    pub warnings: Vec<String>,
}

impl TrendReport {
    /// The deltas whose value actually changed.
    pub fn changed(&self) -> Vec<&MetricDelta> {
        self.deltas.iter().filter(|d| d.changed()).collect()
    }

    /// Largest absolute relative change in percent (0 when nothing
    /// changed; infinite when a metric moved away from a zero baseline).
    pub(crate) fn max_abs_rel_pct(&self) -> f64 {
        self.deltas.iter().map(|d| d.rel_pct().abs()).fold(0.0, f64::max)
    }

    /// Whether the two artifacts carry identical metrics with identical
    /// values.
    pub fn is_identical(&self) -> bool {
        self.only_in_before.is_empty()
            && self.only_in_after.is_empty()
            && self.deltas.iter().all(|d| !d.changed())
    }

    /// Whether the comparison crosses a failure threshold: some relative
    /// delta exceeds `pct` percent in magnitude, or a metric exists on only
    /// one side (a vanished metric is a regression the threshold cannot
    /// measure, so it always counts).
    pub fn exceeds(&self, pct: f64) -> bool {
        !self.only_in_before.is_empty()
            || !self.only_in_after.is_empty()
            || self.max_abs_rel_pct() > pct
    }
}

/// Compares two artifacts metric-by-metric.
pub fn diff(before: &Artifact, after: &Artifact) -> TrendReport {
    let mut report = TrendReport::default();
    if before.schema != after.schema {
        report.warnings.push(format!(
            "comparing artifacts of different schemas ({:?} vs {:?})",
            before.schema, after.schema
        ));
    }
    if before.bin != after.bin {
        report.warnings.push(format!(
            "comparing artifacts of different binaries ({:?} vs {:?})",
            before.bin, after.bin
        ));
    }
    if before.scale_mult != after.scale_mult {
        report.warnings.push(format!(
            "comparing different scale multipliers ({} vs {}) — deltas mix fidelities",
            before.scale_mult, after.scale_mult
        ));
    }
    for record in &before.records {
        let counterpart = after.record(&record.id);
        for metric in &record.metrics {
            match counterpart.and_then(|r| r.metric_value(&metric.name)) {
                Some(value) => report.deltas.push(MetricDelta {
                    record: record.id.clone(),
                    metric: metric.name.clone(),
                    before: metric.value,
                    after: value,
                }),
                None => report.only_in_before.push(format!("{}/{}", record.id, metric.name)),
            }
        }
    }
    for record in &after.records {
        let counterpart = before.record(&record.id);
        for metric in &record.metrics {
            if counterpart.and_then(|r| r.metric_value(&metric.name)).is_none() {
                report.only_in_after.push(format!("{}/{}", record.id, metric.name));
            }
        }
    }
    report
}

/// The worst-window p99s a timeline artifact carries: one
/// `(scope, worst_window_p99_ms)` pair per `{scope}/timeline` summary
/// record, in emission order. Empty for plain run artifacts, so callers
/// can use it to print a timeline-specific headline only when there is
/// one.
pub fn worst_window_p99s(artifact: &Artifact) -> Vec<(String, f64)> {
    artifact
        .records
        .iter()
        .filter_map(|r| {
            let scope = r.id.strip_suffix("/timeline")?;
            r.metric_value("worst_window_p99_ms").map(|v| (scope.to_string(), v))
        })
        .collect()
}

/// The worst-window stall fractions a chip-profile artifact carries: one
/// `(scope, worst_window_stall_frac)` pair per `{scope}/profile` summary
/// record, in emission order. Empty for run and timeline artifacts, so
/// callers can print a profile-specific headline only when there is one.
pub fn worst_window_stall_fracs(artifact: &Artifact) -> Vec<(String, f64)> {
    artifact
        .records
        .iter()
        .filter_map(|r| {
            let scope = r.id.strip_suffix("/profile")?;
            r.metric_value("worst_window_stall_frac").map(|v| (scope.to_string(), v))
        })
        .collect()
}

/// Reads and parses one artifact file.
///
/// # Errors
///
/// Returns a description when the file cannot be read, is not JSON, or does
/// not carry the artifact schema.
pub fn load_artifact(path: &Path) -> Result<Artifact, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = parse_json(&text).map_err(|e| format!("{} does not parse: {e}", path.display()))?;
    Artifact::from_json(&doc).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::RunRecord;

    fn artifact(cycles: f64, with_extra: bool) -> Artifact {
        let mut a = Artifact::new("demo", 1);
        let mut record =
            RunRecord::new("demo/a").metric("total_cycles", cycles).metric("gops", 3.25);
        if with_extra {
            record = record.metric("extra", 1.0);
        }
        a.push(record);
        a
    }

    #[test]
    fn self_diff_is_identical_and_zero() {
        let a = artifact(1000.0, false);
        let report = diff(&a, &a);
        assert!(report.is_identical());
        assert_eq!(report.max_abs_rel_pct(), 0.0);
        assert!(!report.exceeds(0.0));
        assert_eq!(report.deltas.len(), 2);
        assert!(report.changed().is_empty());
    }

    #[test]
    fn deltas_report_absolute_and_relative_change() {
        let report = diff(&artifact(1000.0, false), &artifact(1100.0, false));
        let d = &report.deltas[0];
        assert_eq!(d.metric, "total_cycles");
        assert!((d.abs_delta() - 100.0).abs() < 1e-12);
        assert!((d.rel_pct() - 10.0).abs() < 1e-12);
        assert!((report.max_abs_rel_pct() - 10.0).abs() < 1e-12);
        assert!(report.exceeds(5.0));
        assert!(!report.exceeds(15.0));
        assert_eq!(report.changed().len(), 1, "gops did not move");
    }

    #[test]
    fn missing_metrics_are_flagged_on_both_sides() {
        let report = diff(&artifact(1.0, true), &artifact(1.0, false));
        assert_eq!(report.only_in_before, vec!["demo/a/extra".to_string()]);
        assert!(report.only_in_after.is_empty());
        assert!(report.exceeds(1e9), "a vanished metric always fails a threshold");

        let report = diff(&artifact(1.0, false), &artifact(1.0, true));
        assert_eq!(report.only_in_after, vec!["demo/a/extra".to_string()]);
        assert!(!report.is_identical());
    }

    #[test]
    fn zero_baseline_changes_report_infinite_relative_delta() {
        let mut before = Artifact::new("demo", 1);
        before.push(RunRecord::new("demo/a").metric("m", 0.0));
        let mut after = Artifact::new("demo", 1);
        after.push(RunRecord::new("demo/a").metric("m", 2.0));
        let report = diff(&before, &after);
        assert!(report.deltas[0].rel_pct().is_infinite());
        assert!(report.exceeds(1e12));
    }

    #[test]
    fn bin_and_scale_mismatches_warn() {
        let before = artifact(1.0, false);
        let mut after = Artifact::new("other", 32);
        after.push(RunRecord::new("demo/a").metric("total_cycles", 1.0).metric("gops", 3.25));
        let report = diff(&before, &after);
        assert_eq!(report.warnings.len(), 2);
        assert!(report.is_identical(), "warnings do not make values differ");
    }

    #[test]
    fn schema_mismatches_warn_and_timeline_summaries_surface() {
        use crate::report::TIMELINE_SCHEMA;
        let mut timeline = Artifact::new("serve", 1).with_schema(TIMELINE_SCHEMA);
        timeline.push(RunRecord::new("flash/timeline").metric("windows", 50.0).unit_metric(
            "worst_window_p99_ms",
            420.0,
            "ms",
        ));
        timeline.push(RunRecord::new("flash/window/000").metric("served", 10.0));
        assert_eq!(worst_window_p99s(&timeline), vec![("flash".to_string(), 420.0)]);
        assert!(worst_window_p99s(&artifact(1.0, false)).is_empty());

        let report = diff(&artifact(1.0, false), &timeline);
        assert!(
            report.warnings.iter().any(|w| w.contains("different schemas")),
            "schema mismatch warns: {:?}",
            report.warnings
        );
        let round_trip = Artifact::from_json(&timeline.to_json()).unwrap();
        assert_eq!(round_trip, timeline, "timeline schema round-trips");
    }

    #[test]
    fn load_artifact_round_trips_and_reports_errors() {
        let dir = std::env::temp_dir().join(format!("neura_lab_trend_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("demo.json");
        artifact(5.0, false).write(&path).unwrap();
        let loaded = load_artifact(&path).unwrap();
        assert_eq!(loaded, artifact(5.0, false));
        assert!(load_artifact(&dir.join("missing.json")).is_err());
        std::fs::write(dir.join("bad.json"), "not json").unwrap();
        assert!(load_artifact(&dir.join("bad.json")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
