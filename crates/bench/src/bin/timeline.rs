//! Timeline summariser/asserter: reads a `neura_lab.timeline/v1`
//! artifact (as `serve --trace` writes) and prints one row per traced
//! scenario — window count and width, the worst window's p99 and when it
//! happened, the run-aggregate p99, crash-recovery accounting and the
//! worst windowed SLO attainment — so the *dynamics* of a run (the flash
//! crowd's spike window, the time to recover after a crash, a tenant
//! squeezed mid-run) become numbers a CI gate can hold. Run with
//! `cargo run --release -p neura_bench --bin timeline -- [PATH]`. Flags:
//!
//! - `PATH` — the timeline artifact (default
//!   `target/artifacts/timeline.json`)
//! - `--scope PREFIX` — only scenarios whose scope starts with `PREFIX`
//! - `--max-worst-p99-ms X` — exit 1 when any scenario's worst-window
//!   p99 exceeds `X` ms
//! - `--max-recovery-ms X` — exit 1 when any scenario's mean crash
//!   recovery exceeds `X` ms
//! - `--min-window-slo F` — exit 1 when any tenant's windowed SLO
//!   attainment dips below `F` in any window with completions
//!
//! Independent of the flags, the invariant `worst-window p99 >=
//! aggregate p99` is checked for every scenario (both sides come from
//! the same merged histograms, so by pigeonhole the maximum over windows
//! can never undercut the aggregate); a violation means a corrupt
//! artifact and exits 1.

use std::path::PathBuf;
use std::process::ExitCode;

use neura_lab::trend::load_artifact;
use neura_lab::{fmt, print_table, Artifact, Flags, RunRecord, TIMELINE_SCHEMA};

fn usage() -> String {
    "usage: timeline [PATH] [--scope PREFIX] [--max-worst-p99-ms X] [--max-recovery-ms X]\n\
     \x20               [--min-window-slo F]\n\
     \n\
     PATH                 timeline artifact (default: target/artifacts/timeline.json)\n\
     --scope PREFIX       only scenarios whose scope starts with PREFIX\n\
     --max-worst-p99-ms X fail when a worst-window p99 exceeds X ms\n\
     --max-recovery-ms X  fail when a mean crash recovery exceeds X ms\n\
     --min-window-slo F   fail when a tenant's windowed SLO attainment dips below F"
        .to_string()
}

/// One traced scenario's digest, pulled from its `{scope}/timeline`
/// summary record and `{scope}/window/NNN` window records.
struct ScopeSummary {
    scope: String,
    windows: f64,
    window_ms: f64,
    worst_window: f64,
    worst_start_ms: f64,
    worst_p99_ms: f64,
    aggregate_p99_ms: f64,
    recoveries: f64,
    recovery_ms: f64,
    /// The lowest windowed SLO attainment over (tenant, window) pairs
    /// with completions, with the tenant metric it came from.
    min_slo: Option<(String, f64)>,
}

fn summarise(artifact: &Artifact, scope_filter: Option<&str>) -> Vec<ScopeSummary> {
    let metric = |record: &RunRecord, name: &str| -> f64 {
        record.metric_value(name).unwrap_or_else(|| {
            eprintln!("{}: missing metric {name:?}", record.id);
            std::process::exit(1);
        })
    };
    artifact
        .records
        .iter()
        .filter_map(|record| {
            let scope = record.id.strip_suffix("/timeline")?;
            if let Some(prefix) = scope_filter {
                if !scope.starts_with(prefix) {
                    return None;
                }
            }
            // A windowed SLO metric only counts when the window actually
            // completed requests for the tenant: an idle window reports
            // attainment 1.0 by convention, and a window where a tenant
            // served nothing says nothing about its SLO.
            let window_prefix = format!("{scope}/window/");
            let mut min_slo: Option<(String, f64)> = None;
            for window in artifact.records.iter().filter(|r| r.id.starts_with(&window_prefix)) {
                for m in &window.metrics {
                    let Some(tenant) = m.name.strip_prefix("slo_") else { continue };
                    let served = window.metric_value(&format!("rps_{tenant}")).unwrap_or(0.0);
                    if served <= 0.0 {
                        continue;
                    }
                    if min_slo.as_ref().is_none_or(|(_, best)| m.value < *best) {
                        min_slo = Some((m.name.clone(), m.value));
                    }
                }
            }
            Some(ScopeSummary {
                scope: scope.to_string(),
                windows: metric(record, "windows"),
                window_ms: metric(record, "window_ms"),
                worst_window: metric(record, "worst_window"),
                worst_start_ms: metric(record, "worst_window_start_ms"),
                worst_p99_ms: metric(record, "worst_window_p99_ms"),
                aggregate_p99_ms: metric(record, "aggregate_p99_ms"),
                recoveries: metric(record, "recoveries"),
                recovery_ms: metric(record, "recovery_time_ms"),
                min_slo,
            })
        })
        .collect()
}

fn main() -> ExitCode {
    let mut path: Option<PathBuf> = None;
    let mut scope_filter: Option<String> = None;
    let mut max_worst_p99_ms: Option<f64> = None;
    let mut max_recovery_ms: Option<f64> = None;
    let mut min_window_slo: Option<f64> = None;

    let mut flags = Flags::from_env(usage());
    while let Some(arg) = flags.next() {
        let mut value =
            |flag: &str| flags.parsed(flag, "a non-negative number", Flags::non_negative);
        match arg.as_str() {
            "--scope" => scope_filter = Some(flags.value("--scope")),
            "--max-worst-p99-ms" => max_worst_p99_ms = Some(value("--max-worst-p99-ms")),
            "--max-recovery-ms" => max_recovery_ms = Some(value("--max-recovery-ms")),
            "--min-window-slo" => min_window_slo = Some(value("--min-window-slo")),
            "--help" | "-h" => flags.help(),
            other if other.starts_with("--") => {
                flags.bad_usage(&format!("unrecognised argument {other:?}"))
            }
            _ if path.is_none() => path = Some(PathBuf::from(arg)),
            other => flags.bad_usage(&format!("unexpected extra path {other:?}")),
        }
    }
    let path = path.unwrap_or_else(|| Artifact::default_path("timeline"));

    let artifact = match load_artifact(&path) {
        Ok(artifact) => artifact,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    if artifact.schema != TIMELINE_SCHEMA {
        eprintln!(
            "{}: schema {:?} is not a timeline artifact (expected {TIMELINE_SCHEMA:?}); \
             produce one with `serve --trace`",
            path.display(),
            artifact.schema
        );
        return ExitCode::FAILURE;
    }

    let summaries = summarise(&artifact, scope_filter.as_deref());
    if summaries.is_empty() {
        eprintln!("{}: no {{scope}}/timeline records match", path.display());
        return ExitCode::FAILURE;
    }

    let rows: Vec<Vec<String>> = summaries
        .iter()
        .map(|s| {
            vec![
                s.scope.strip_prefix("serve/").unwrap_or(&s.scope).to_string(),
                format!("{}", s.windows as u64),
                fmt(s.window_ms, 4),
                format!("#{} @{}ms", s.worst_window as u64, fmt(s.worst_start_ms, 3)),
                fmt(s.worst_p99_ms, 4),
                fmt(s.aggregate_p99_ms, 4),
                format!("{}", s.recoveries as u64),
                fmt(s.recovery_ms, 3),
                s.min_slo.as_ref().map_or_else(|| "-".to_string(), |(_, v)| fmt(*v, 3)),
            ]
        })
        .collect();
    print_table(
        &format!("Timeline: {} traced scenario(s) in {}", summaries.len(), path.display()),
        &[
            "Scenario",
            "Windows",
            "Win (ms)",
            "Worst win",
            "Worst p99 (ms)",
            "Agg p99 (ms)",
            "Recov",
            "Recov (ms)",
            "Min SLO",
        ],
        &rows,
    );

    let failures = gate_failures(&summaries, max_worst_p99_ms, max_recovery_ms, min_window_slo);
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("timeline: {failure}");
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// One message per scenario that breaks the windowing invariant or a bound
/// the command line set.
fn gate_failures(
    summaries: &[ScopeSummary],
    max_worst_p99_ms: Option<f64>,
    max_recovery_ms: Option<f64>,
    min_window_slo: Option<f64>,
) -> Vec<String> {
    let mut failures: Vec<String> = Vec::new();
    for s in summaries {
        if s.worst_p99_ms < s.aggregate_p99_ms {
            failures.push(format!(
                "{}: worst-window p99 {} ms undercut the aggregate p99 {} ms — the artifact \
                 violates the windowing invariant",
                s.scope,
                fmt(s.worst_p99_ms, 4),
                fmt(s.aggregate_p99_ms, 4)
            ));
        }
        if let Some(limit) = max_worst_p99_ms {
            if s.worst_p99_ms > limit {
                failures.push(format!(
                    "{}: worst-window p99 {} ms exceeds --max-worst-p99-ms {limit}",
                    s.scope,
                    fmt(s.worst_p99_ms, 4)
                ));
            }
        }
        if let Some(limit) = max_recovery_ms {
            if s.recovery_ms > limit {
                failures.push(format!(
                    "{}: mean crash recovery {} ms exceeds --max-recovery-ms {limit}",
                    s.scope,
                    fmt(s.recovery_ms, 3)
                ));
            }
        }
        if let (Some(floor), Some((metric, worst))) = (min_window_slo, s.min_slo.as_ref()) {
            if *worst < floor {
                failures.push(format!(
                    "{}: windowed {metric} dipped to {} below --min-window-slo {floor}",
                    s.scope,
                    fmt(*worst, 3)
                ));
            }
        }
    }
    failures
}
