//! Trend tracking across artifact runs: diffs two `neura_lab.artifact/v1`
//! files (or two directories of them) and prints per-metric absolute and
//! relative deltas, so perf regressions between runs become numbers
//! instead of eyeballed tables. Run with
//! `cargo run --release -p neura_bench --bin trend -- BEFORE AFTER`. Flags:
//!
//! - `BEFORE` / `AFTER` — artifact JSON files, or directories whose
//!   `*.json` files are matched by name (e.g. two saved copies of
//!   `target/artifacts/`); directory diffs end with a summary line
//!   counting compared pairs, changed metrics and files present on only
//!   one side
//! - `--fail-above PCT` — exit non-zero when any metric's relative delta
//!   exceeds `PCT` percent in magnitude, or when a metric/file exists on
//!   only one side (`--fail-above 0` fails on any change at all)
//!
//! `neura_lab.timeline/v1` artifacts diff like any other — per-window
//! records match by ID, so per-window deltas come out of the same table —
//! and additionally print a per-scope worst-window p99 before/after
//! headline, the number a windowed comparison is usually run for.
//! `neura_lab.profile/v1` chip-profile artifacts likewise headline the
//! per-scope worst-window stall fraction.
//!
//! Artifacts carrying wall-clock context as document meta (`sim_wall_s` —
//! see the serve binary's parallel-engine flags) headline the before/after
//! wall-clock ratio. Meta is measurement context, never
//! gated: `--fail-above` only ever fires on record metrics.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use neura_lab::trend::{self, TrendReport};
use neura_lab::{fmt, print_table, Artifact, Flags};

fn usage() -> String {
    "usage: trend [--fail-above PCT] BEFORE AFTER\n\
     \n\
     BEFORE, AFTER     artifact JSON files, or directories of *.json artifacts\n\
     \x20                 (directories are matched file-name by file-name)\n\
     --fail-above PCT  exit 1 when a relative delta exceeds PCT percent in\n\
     \x20                 magnitude or a metric/file exists on only one side"
        .to_string()
}

fn main() -> ExitCode {
    let mut fail_above: Option<f64> = None;
    let mut paths: Vec<PathBuf> = Vec::new();

    let mut flags = Flags::from_env(usage());
    while let Some(arg) = flags.next() {
        match arg.as_str() {
            "--fail-above" => {
                fail_above =
                    Some(flags.parsed("--fail-above", "a percentage", Flags::non_negative));
            }
            "--help" | "-h" => flags.help(),
            other if other.starts_with("--") => {
                flags.bad_usage(&format!("unrecognised argument {other:?}"))
            }
            _ => paths.push(PathBuf::from(arg)),
        }
    }
    let [before, after] = paths.as_slice() else {
        flags.bad_usage("expected exactly two paths (BEFORE and AFTER)");
    };

    let (pairs, unmatched) = match collect_pairs(before, after) {
        Ok(found) => found,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    let directory_mode = before.is_dir();
    let mut failed = !unmatched.is_empty();
    let mut changed_total = 0usize;
    let mut one_sided_metrics = 0usize;
    for path in &unmatched {
        println!("only on one side: {path}");
    }
    for (label, before_path, after_path) in &pairs {
        let (b, a) = match (trend::load_artifact(before_path), trend::load_artifact(after_path)) {
            (Ok(b), Ok(a)) => (b, a),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        let report = trend::diff(&b, &a);
        print_report(label, &report);
        print_worst_windows(label, &b, &a);
        print_wall_clock(label, &b, &a);
        changed_total += report.changed().len();
        one_sided_metrics += report.only_in_before.len() + report.only_in_after.len();
        if let Some(pct) = fail_above {
            if report.exceeds(pct) {
                failed = true;
            }
        }
    }
    if directory_mode {
        // Files present on only one side are changes the per-file reports
        // cannot show — count them in the summary next to the metric
        // deltas, so a vanished artifact is as loud as a regressed one.
        println!(
            "\ntrend summary: {} file pair(s) compared, {} changed metric(s), \
             {} metric(s) on one side only, {} file(s) on one side only",
            pairs.len(),
            changed_total,
            one_sided_metrics,
            unmatched.len()
        );
    }

    match fail_above {
        Some(pct) if failed => {
            eprintln!("\ntrend: deltas exceed the --fail-above {pct}% threshold");
            ExitCode::FAILURE
        }
        _ => ExitCode::SUCCESS,
    }
}

/// Resolves the two inputs into `(label, before, after)` artifact pairs
/// plus the file names present on only one side (directory mode).
#[allow(clippy::type_complexity)]
fn collect_pairs(
    before: &Path,
    after: &Path,
) -> Result<(Vec<(String, PathBuf, PathBuf)>, Vec<String>), String> {
    if before.is_dir() != after.is_dir() {
        return Err("BEFORE and AFTER must both be files or both be directories".to_string());
    }
    if !before.is_dir() {
        let label = before
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| before.display().to_string());
        return Ok((vec![(label, before.to_path_buf(), after.to_path_buf())], Vec::new()));
    }
    let names = |dir: &Path| -> Result<Vec<String>, String> {
        let mut found = Vec::new();
        let entries =
            std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".json") {
                found.push(name);
            }
        }
        found.sort();
        Ok(found)
    };
    let before_names = names(before)?;
    let after_names = names(after)?;
    let mut pairs = Vec::new();
    let mut unmatched = Vec::new();
    for name in &before_names {
        if after_names.contains(name) {
            pairs.push((name.clone(), before.join(name), after.join(name)));
        } else {
            unmatched.push(format!("{} (before only)", before.join(name).display()));
        }
    }
    for name in &after_names {
        if !before_names.contains(name) {
            unmatched.push(format!("{} (after only)", after.join(name).display()));
        }
    }
    Ok((pairs, unmatched))
}

fn print_report(label: &str, report: &TrendReport) {
    for warning in &report.warnings {
        println!("warning ({label}): {warning}");
    }
    let changed = report.changed();
    let identical = report.deltas.len() - changed.len();
    if report.is_identical() {
        println!("{label}: {} metrics, all identical", report.deltas.len());
        return;
    }
    let rows: Vec<Vec<String>> = changed
        .iter()
        .map(|d| {
            vec![
                d.record.clone(),
                d.metric.clone(),
                fmt(d.before, 4),
                fmt(d.after, 4),
                fmt(d.abs_delta(), 4),
                if d.rel_pct().is_infinite() {
                    "inf".to_string()
                } else {
                    format!("{:+.2}", d.rel_pct())
                },
            ]
        })
        .collect();
    if !rows.is_empty() {
        print_table(
            &format!("{label}: {} changed metric(s), {identical} identical", rows.len()),
            &["Record", "Metric", "Before", "After", "Delta", "Delta %"],
            &rows,
        );
    }
    for path in &report.only_in_before {
        println!("{label}: metric only in BEFORE: {path}");
    }
    for path in &report.only_in_after {
        println!("{label}: metric only in AFTER: {path}");
    }
}

/// Timeline artifacts carry a per-scope worst-window p99 — the headline a
/// windowed diff is usually run for — so print it next to the per-metric
/// table. Prints nothing for plain run artifacts.
fn print_worst_windows(label: &str, before: &Artifact, after: &Artifact) {
    let after_worst = trend::worst_window_p99s(after);
    for (scope, b) in trend::worst_window_p99s(before) {
        if let Some((_, a)) = after_worst.iter().find(|(s, _)| *s == scope) {
            println!("{label}: worst-window p99 [{scope}]: {} -> {} ms", fmt(b, 4), fmt(*a, 4));
        }
    }
    // Chip profiles headline the same way: the stall fraction of the
    // most-stalled window is what a profile diff is usually run for.
    let after_stall = trend::worst_window_stall_fracs(after);
    for (scope, b) in trend::worst_window_stall_fracs(before) {
        if let Some((_, a)) = after_stall.iter().find(|(s, _)| *s == scope) {
            println!(
                "{label}: worst-window stall fraction [{scope}]: {} -> {}",
                fmt(b, 4),
                fmt(*a, 4)
            );
        }
    }
}

/// Artifacts from the serve binary's parallel engine carry their sweep
/// wall-clock as document meta. The before/after ratio is the headline a
/// serial-vs-parallel comparison is run for, so print it when both sides
/// carry it — it never participates in `--fail-above` gating (wall time
/// varies run to run; only record metrics are byte-stable).
fn print_wall_clock(label: &str, before: &Artifact, after: &Artifact) {
    if let (Some(b), Some(a)) = (before.meta_value("sim_wall_s"), after.meta_value("sim_wall_s")) {
        let ratio = if a > 0.0 { b / a } else { f64::INFINITY };
        println!(
            "{label}: sim wall clock: {} -> {} s ({}x, not gated)",
            fmt(b, 4),
            fmt(a, 4),
            fmt(ratio, 2)
        );
    }
}
