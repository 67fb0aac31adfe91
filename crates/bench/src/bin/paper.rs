//! `paper <name> [--json [PATH]]` regenerates one row of
//! [`neura_bench::paper::ARTIFACTS`]; `paper all [--json]` runs every row in
//! the paper's order and stops at the first failed check. Every row runs at
//! paper scale; this is the one place that reads the command line, hands
//! each row its artifact, writes it and enforces the row's strict golden
//! check.

use neura_bench::paper::{Check, ARTIFACTS};
use neura_lab::golden;
use neura_lab::{Artifact, Flags, SCHEMA};
use std::path::PathBuf;

fn usage() -> String {
    let rows = ARTIFACTS.iter().map(|row| format!("\n  {:<9} {}", row.name, row.title));
    format!(
        "usage: paper <artifact>|all [--json [PATH]]\n\
         \n\
         --json [PATH]  write a machine-readable artifact ({SCHEMA}) to PATH (default:\n\
         \x20              target/artifacts/<artifact>.json, where `all` always writes)\n\
         \n\
         artifacts, in the paper's order (`all` stops at the first failed check):{}",
        rows.collect::<String>()
    )
}

fn main() {
    let mut flags = Flags::from_env(usage());
    let name = flags.next().unwrap_or_else(|| flags.bad_usage("missing artifact name"));
    let selected = match ARTIFACTS.iter().find(|row| row.name == name) {
        Some(row) => std::slice::from_ref(row),
        None if name == "all" => ARTIFACTS,
        None if name == "--help" || name == "-h" => flags.help(),
        None => flags.bad_usage(&format!("unknown artifact {name:?}")),
    };
    // `Some(None)` for a bare `--json`: every row to its default path.
    let mut json: Option<Option<String>> = None;
    while let Some(arg) = flags.next() {
        match arg.as_str() {
            "--json" => json = Some(flags.optional_path()),
            "--help" | "-h" => flags.help(),
            other => flags.bad_usage(&format!("unrecognised argument {other:?}")),
        }
    }
    if name == "all" && matches!(json, Some(Some(_))) {
        flags.bad_usage("`all` writes every artifact to its default path: --json takes no PATH");
    }

    for row in selected {
        let mut artifact = Artifact::new(row.name, 1);
        (row.run)(&mut artifact);
        if let Some(path) = &json {
            let path =
                path.as_ref().map_or_else(|| Artifact::default_path(row.name), PathBuf::from);
            artifact.write_or_exit(&path);
        }
        match row.check {
            Check::None => {}
            Check::Values(goldens) => {
                golden::check(&artifact, goldens()).print_and_enforce(row.title);
            }
            Check::Order(order) => {
                golden::check_order(&artifact, &order()).print_and_enforce(row.title);
            }
        }
    }
}
