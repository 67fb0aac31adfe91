//! `neura_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! one run of one workload. The last line of standard output is the JSON
//! result; the exit code is non-zero when any operation failed.

use std::path::PathBuf;
use std::process::ExitCode;

use neura_perf::run::{run, Options};
use neura_perf::workloads::{Sabotage, Scale, WORKLOADS};

const USAGE: &str = "usage: neura_perf --workload <chip-banded|chip-skewed|serve-fleet|model-tier>
                  [--seed N] [--seconds S] [--trace 0|1] [--scale full|tiny] [--out DIR]

  --workload W   the workload to run
  --seed N       every dataset and stream seed derives from it (default 1)
  --seconds S    how long the run measures (default 20)
  --trace 0|1    0: timed passes, end-to-end metrics; 1: traced pass and
                 isolated drives, per-layer metrics (default 0)
  --scale S      full: the frozen sizes; tiny: the self-tests' sizes
  --out DIR      where <workload>.json and trace-<workload>.json are written
                 (default benchmark/out)
  --sabotage K   product|conservation: inject a fault the checks must catch";

fn parse(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        scale: Scale::full(),
        sabotage: Sabotage::None,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut args = args;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?,
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--scale" => {
                opts.scale = match value()?.as_str() {
                    "full" => Scale::full(),
                    "tiny" => Scale::tiny(),
                    other => return Err(format!("--scale takes full or tiny, not {other:?}")),
                }
            }
            "--sabotage" => {
                opts.sabotage = match value()?.as_str() {
                    "product" => Sabotage::Product,
                    "conservation" => Sabotage::Conservation,
                    other => {
                        return Err(format!(
                            "--sabotage takes product or conservation, not {other:?}"
                        ))
                    }
                }
            }
            "--out" => opts.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unrecognised argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}, not {:?}", opts.workload));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(outcome) => {
            println!("{}", outcome.result_line());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("cannot write under {}: {e}", opts.out_dir.display());
            ExitCode::from(1)
        }
    }
}
