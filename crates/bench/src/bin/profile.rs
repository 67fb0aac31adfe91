//! Chip-level profiling sweep: windowed cycle attribution and the stall
//! taxonomy from the cycle simulator, as a `neura_lab.profile/v1`
//! artifact.
//!
//! Runs one *profiled* cycle-level simulation per (dataset × tile × HBM
//! preset × shrink) cell — the accelerator's run loop feeds a
//! [`neura_chip::Profiler`] once per cycle — and emits, per cell, the
//! per-window busy/stall/idle split, the per-cause stall attribution
//! (operand fetch / HashPad full / NoC backpressure / dispatch
//! starvation), the exact NoC hop distribution and the DRAM-latency
//! percentiles. Every profile is checked against its conservation
//! invariant (each window's busy + stall + idle covers its cores and
//! cycles exactly, and the windows cover at most the run), and the run is
//! thread-count invariant: `NEURA_LAB_THREADS=2` and `=8` produce byte
//! identical artifacts.
//!
//! Run with `cargo run --release -p neura_bench --bin profile` (add
//! `--json [path]` for the artifact). Flags:
//!
//! - `--dataset NAME` — restrict to one dataset (repeatable; default:
//!   the whole Table-1 SpGEMM suite, all 20 datasets)
//! - `--tile T` — profile on this tile size, `t4|t16|t64` (repeatable;
//!   default: pair each dataset with its size-matched tier — smallest
//!   third Tile-4, middle Tile-16, largest Tile-64)
//! - `--hbm P` — restrict to one HBM preset, `hbm2|hbm2-dual|ddr4`
//!   (repeatable; default: all three)
//! - `--shrink N` — workload shrink factor (repeatable; default: 1)
//! - `--window CYCLES` — profile window width (default: 1024)
//! - `--max-stall-frac F` — exit non-zero when any cell's *worst window*
//!   stalls more than fraction `F` of its core-cycles
//!
//! Every cell runs at paper scale; a conservation violation in any cell
//! exits non-zero.
//!
//! The per-window attribution table prints for every cell when the sweep
//! has at most four cells, otherwise only for the most-stalled cell.

use neura_bench::{exit_wedged, price_class, sim_matrix_at_fidelity, ChipGrid, GridCell};
use neura_chip::profile::{Profile, Profiler, StallCause, DEFAULT_WINDOW_CYCLES};
use neura_lab::{fmt, print_table, profile_records, Artifact, Flags, Runner, PROFILE_SCHEMA};
use std::path::PathBuf;

fn usage() -> String {
    format!(
        "usage: profile [--json [PATH]] [--dataset NAME]... [--tile T]... [--hbm P]...\n\
         \x20              [--shrink N]... [--window CYCLES] [--max-stall-frac F]\n\
         \n\
         --json [PATH]          write a {PROFILE_SCHEMA} artifact (default:\n\
         \x20                      target/artifacts/profile.json)\n\
         --dataset NAME         profile this dataset (repeatable; default: the Table-1 suite)\n\
         --tile T               t4 | t16 | t64 (repeatable; default: size-matched tier)\n\
         --hbm P                hbm2 | hbm2-dual | ddr4 (repeatable; default: all three)\n\
         --shrink N             workload shrink factor (repeatable; default: 1)\n\
         --window CYCLES        profile window width in cycles (default: {DEFAULT_WINDOW_CYCLES})\n\
         --max-stall-frac F     fail when any cell's worst window stalls more than F"
    )
}

struct Args {
    grid: ChipGrid,
    window: u64,
    max_stall_frac: Option<f64>,
    json_path: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        grid: ChipGrid::default(),
        window: DEFAULT_WINDOW_CYCLES,
        max_stall_frac: None,
        json_path: None,
    };
    let mut flags = Flags::from_env(usage());
    while let Some(arg) = flags.next() {
        if parsed.grid.take_flag(&arg, &mut flags) {
            continue;
        }
        match arg.as_str() {
            "--window" => {
                parsed.window =
                    flags.parsed("--window", "a positive cycle count", Flags::at_least_one);
            }
            "--max-stall-frac" => {
                parsed.max_stall_frac =
                    Some(flags.parsed("--max-stall-frac", "a fraction in 0..=1", |f: &f64| {
                        (0.0..=1.0).contains(f)
                    }));
            }
            "--json" => parsed.json_path = Some(flags.artifact_path("profile")),
            "--help" | "-h" => flags.help(),
            other => flags.bad_usage(&format!("unrecognised argument {other:?}")),
        }
    }
    parsed
}

/// The artifact scope of one profiled cell.
fn scope(cell: &GridCell) -> String {
    format!("profile/{}/{}/{}/x{}", cell.dataset, cell.tile.label(), cell.hbm.name(), cell.shrink)
}

fn main() {
    let mut args = parse_args();
    let runner = Runner::from_env();
    let cells = args.grid.cells(&[1]);

    // One profiled cycle-level simulation per cell, fanned out on the lab
    // runner; the runner returns results in cell order, so the artifact
    // below is byte-identical across thread counts.
    let window = args.window;
    let profiles: Vec<Profile> = runner.run(&cells, move |_, cell: &GridCell| {
        let a = sim_matrix_at_fidelity(&cell.dataset, cell.shrink);
        let mut profiler = Profiler::new(window);
        if let Err(e) = price_class(&cell.config(), &a, true, Some(&mut profiler)) {
            exit_wedged("profile", &cell.dataset, cell.tile, Some(cell.hbm), &e);
        }
        profiler.into_profile()
    });

    let mut artifact = Artifact::new("profile", 1).with_schema(PROFILE_SCHEMA);
    let mut violations: Vec<String> = Vec::new();
    let mut rows = Vec::new();
    for (cell, profile) in cells.iter().zip(&profiles) {
        if let Err(message) = profile.check_conservation() {
            violations.push(format!("{}: {message}", scope(cell)));
        }
        let mut records = profile_records(&scope(cell), profile);
        records[0].params = cell.params();
        artifact.extend(records);

        let (worst, worst_frac) = profile.worst_window().unwrap_or((0, 0.0));
        rows.push(vec![
            cell.dataset.clone(),
            cell.tile.label().to_string(),
            cell.hbm.name().to_string(),
            profile.windows.len().to_string(),
            fmt(profile.stall_frac(), 4),
            worst.to_string(),
            fmt(worst_frac, 4),
            dominant_cause(profile).to_string(),
        ]);
    }

    print_table(
        "Chip profile: stall attribution per cell",
        &["Dataset", "Tile", "HBM", "Windows", "Stall frac", "Worst win", "Worst frac", "Dominant"],
        &rows,
    );

    // Per-window attribution: every cell for small sweeps, otherwise the
    // most-stalled cell only (paper-scale sweeps have dozens of cells).
    let detail: Vec<usize> = if cells.len() <= 4 {
        (0..cells.len()).collect()
    } else {
        let worst = (0..cells.len())
            .max_by(|&i, &j| {
                let fi = profiles[i].worst_window().map_or(0.0, |(_, f)| f);
                let fj = profiles[j].worst_window().map_or(0.0, |(_, f)| f);
                fi.partial_cmp(&fj).expect("stall fractions are finite")
            })
            .expect("at least one cell");
        vec![worst]
    };
    for &index in &detail {
        print_attribution(&cells[index], &profiles[index]);
    }

    println!(
        "\n{} cell(s) profiled with {}-cycle windows; stall causes attribute by the\n\
         dominant chip condition per cycle (HashPad full > NoC backpressure >\n\
         dispatch starvation > operand fetch), so buckets conserve exactly.",
        cells.len(),
        args.window,
    );

    if let Some(path) = &args.json_path {
        artifact.write_or_exit(path);
    }
    enforce_gates(&cells, &profiles, &violations, args.max_stall_frac);
}

/// The gates: a timeline that does not cover its run fails the run, and
/// `--max-stall-frac` bounds the worst window of every cell.
fn enforce_gates(
    cells: &[GridCell],
    profiles: &[Profile],
    violations: &[String],
    max_stall_frac: Option<f64>,
) {
    for violation in violations {
        eprintln!("conservation violation: {violation}");
    }
    let mut failed = !violations.is_empty();
    if let Some(bound) = max_stall_frac {
        for (cell, profile) in cells.iter().zip(profiles) {
            let (worst, frac) = profile.worst_window().unwrap_or((0, 0.0));
            if frac > bound {
                eprintln!(
                    "stall bound exceeded: {} window {worst} stalls {} > {bound}",
                    scope(cell),
                    fmt(frac, 4),
                );
                failed = true;
            }
        }
    }
    println!(
        "golden: conservation -> {}; stall bound {}",
        if violations.is_empty() { "pass" } else { "FAIL" },
        match max_stall_frac {
            Some(bound) => format!("<= {bound} -> {}", if failed { "checked" } else { "pass" }),
            None => "not requested".to_string(),
        },
    );
    if failed {
        eprintln!("profile: invariant gates failed");
        std::process::exit(1);
    }
}

/// The cause carrying the most stall cycles over the whole run.
fn dominant_cause(profile: &Profile) -> &'static str {
    StallCause::ALL
        .into_iter()
        .max_by_key(|&cause| profile.total(|w| w.stall_by_cause(cause)))
        .expect("four causes")
        .name()
}

/// Prints the per-window attribution table for one cell: the busy/stall/
/// idle split and the share of each stall cause, window by window.
fn print_attribution(cell: &GridCell, profile: &Profile) {
    let rows: Vec<Vec<String>> = profile
        .windows
        .iter()
        .enumerate()
        .map(|(w, window)| {
            let total = (window.busy + window.stall() + window.idle).max(1) as f64;
            let mut row = vec![
                w.to_string(),
                window.start_cycle.to_string(),
                window.cycles.to_string(),
                fmt(window.busy as f64 / total, 3),
                fmt(window.stall() as f64 / total, 3),
                fmt(window.idle as f64 / total, 3),
            ];
            for cause in StallCause::ALL {
                row.push(fmt(window.stall_by_cause(cause) as f64 / total, 3));
            }
            row.push(window.mmh_retired.to_string());
            row.push(window.hacc_retired.to_string());
            row
        })
        .collect();
    print_table(
        &format!("Per-window attribution: {}", scope(cell)),
        &[
            "Win", "Start", "Cycles", "Busy", "Stall", "Idle", "Fetch", "Pad", "NoC", "Disp",
            "MMH", "HACC",
        ],
        &rows,
    );
}
