//! `neura_lab` — the experiment layer of the NeuraChip reproduction.
//!
//! Every paper figure/table binary used to be a bespoke serial loop that
//! printed a fixed-width table and threw its numbers away. This crate turns
//! those binaries into *experiments*: declarative sweeps, parallel
//! execution, machine-readable results and regression checks against the
//! paper's published numbers. Data flows through four modules in order:
//!
//! 1. **[`spec`]** — declare the experiment. An [`ExperimentSpec`] names a
//!    base [`ChipConfig`](neura_chip::config::ChipConfig) and a
//!    [`SweepGrid`] of axes to vary (dataset, tile size, compute mapping,
//!    eviction policy, MMH tile height, HashPad size).
//!    [`ExperimentSpec::points`] enumerates the cartesian product in a
//!    stable order with a stable run ID and derived seed per point.
//! 2. **`runner`** — execute it. [`Runner`] fans the points out over a
//!    scoped-thread work-stealing pool (a shared atomic cursor over the
//!    point list; `std` only) and collects results *in spec order*, so
//!    output is byte-identical regardless of the thread count.
//! 3. **`report`** — record what happened. Each point produces a
//!    [`RunRecord`] of parameters and [`Metric`]s; an [`Artifact`] bundles a
//!    binary's records and serialises them through the crate's own
//!    deterministic JSON emitter (the vendored `serde` is a no-op stub) to
//!    `target/artifacts/<bin>.json`. A mini JSON parser round-trips
//!    artifacts for tests and downstream tooling.
//! 4. **[`golden`]** — check it. Tolerance-checked comparison of emitted
//!    metrics against checked-in expected values for the paper's headline
//!    numbers (Table 5 throughput, Figure 16/17 speedup means, Table 1
//!    bloat ordering, Figure 14/15 histogram means), all at paper scale.
//!
//! On top of the sweep machinery sit two more modules: **[`tune`]** — a
//! successive-halving auto-tuner that *searches* the `ChipConfig` space
//! instead of replaying published design points: coarse grid in, per-rung
//! halving at increasing fidelity, and a `best_config` artifact that is
//! never worse than the paper default on the chosen objective — and
//! **[`trend`]**, which diffs two artifacts metric-by-metric so regressions
//! between runs show up as numbers (the `trend` binary adds a
//! `--fail-above` threshold on top).
//!
//! Binaries tie the stages together: each reads its flags once with
//! [`Flags`], `--json [PATH]` included, builds one [`Artifact`] and writes
//! it through [`Artifact::write_or_exit`], the one place an artifact is
//! written:
//!
//! ```no_run
//! use neura_lab::{Artifact, Flags, RunRecord};
//!
//! let mut json_path = None;
//! let mut flags = Flags::from_env("usage: demo [--json [PATH]]");
//! while let Some(arg) = flags.next() {
//!     match arg.as_str() {
//!         "--json" => json_path = Some(flags.artifact_path("demo")),
//!         other => flags.bad_usage(&format!("unrecognised argument {other:?}")),
//!     }
//! }
//! let mut artifact = Artifact::new("demo", 1);
//! artifact.push(RunRecord::new("demo/point").metric("total_cycles", 1234.0));
//! if let Some(path) = &json_path {
//!     artifact.write_or_exit(path); // target/artifacts/demo.json for a bare --json
//! }
//! ```

#![warn(missing_docs)]

pub mod golden;
mod report;
mod runner;
pub mod spec;
pub mod trend;
pub mod tune;

pub use report::{
    fmt, parse_json, print_table, profile_records, Artifact, JsonValue, Metric, RunRecord,
    PROFILE_SCHEMA, SCHEMA, TIMELINE_SCHEMA,
};
pub use runner::Runner;
pub use spec::{ExperimentSpec, SweepGrid, SweepPoint};
pub use trend::{MetricDelta, TrendReport};
pub use tune::{Evaluation, Objective, RungContext, TuneOutcome, TuneSpec, Tuner};

use std::path::PathBuf;

/// The positive integer in environment variable `name`, `None` when unset.
/// A value that is set but is not one (garbage, 0, overflow) ends the
/// process the way [`Flags::bad_usage`] does: the complaint on stderr, exit
/// code 2, nothing on stdout.
fn positive_env(name: &str) -> Option<usize> {
    let raw = std::env::var(name).ok()?;
    match raw.parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => {
            eprintln!("{name}={raw:?} is not a positive integer");
            std::process::exit(2);
        }
    }
}

/// Reader over a binary's command-line arguments: the one place that knows
/// how a flag takes its value, how `--json [PATH]`-style optional values
/// peek, and that a malformed command line prints the message and the usage
/// text on stderr and exits with code 2. Iterating yields the arguments
/// not yet consumed as a value.
#[derive(Debug)]
pub struct Flags {
    args: std::iter::Peekable<std::vec::IntoIter<String>>,
    usage: String,
}

impl Flags {
    /// A reader over `std::env::args()` (program name skipped).
    pub fn from_env(usage: impl Into<String>) -> Self {
        Self::new(usage, std::env::args().skip(1))
    }

    /// A reader over an explicit argument list.
    pub fn new(usage: impl Into<String>, args: impl IntoIterator<Item = String>) -> Self {
        let args: Vec<String> = args.into_iter().collect();
        Flags { args: args.into_iter().peekable(), usage: usage.into() }
    }

    /// The value of `flag`: the next argument, or a usage error without one.
    pub fn value(&mut self, flag: &str) -> String {
        self.args.next().unwrap_or_else(|| self.bad_usage(&format!("{flag} needs a value")))
    }

    /// The value of `flag` parsed as `T` and accepted by `valid`; anything
    /// else is the usage error `<flag> "<raw>" is not <what>`.
    pub fn parsed<T: std::str::FromStr>(
        &mut self,
        flag: &str,
        what: &str,
        valid: impl FnOnce(&T) -> bool,
    ) -> T {
        let raw = self.value(flag);
        match raw.parse::<T>() {
            Ok(parsed) if valid(&parsed) => parsed,
            _ => self.bad_usage(&format!("{flag} {raw:?} is not {what}")),
        }
    }

    /// The value of `flag` resolved by name through `lookup`; a name it does
    /// not know is the usage error `unknown <what> "<raw>"`.
    pub fn known<T>(
        &mut self,
        flag: &str,
        what: &str,
        lookup: impl FnOnce(&str) -> Option<T>,
    ) -> T {
        let raw = self.value(flag);
        lookup(&raw).unwrap_or_else(|| self.bad_usage(&format!("unknown {what} {raw:?}")))
    }

    /// The optional value of a `--flag [PATH]`: the next argument, consumed
    /// only when it does not itself start with `--`.
    pub fn optional_path(&mut self) -> Option<String> {
        self.args.next_if(|next| !next.starts_with("--"))
    }

    /// Where a `--json [PATH]`-style flag sends its artifact: the flag's
    /// optional value, or `target/artifacts/<stem>.json` without one.
    pub fn artifact_path(&mut self, stem: &str) -> PathBuf {
        self.optional_path().map_or_else(|| Artifact::default_path(stem), PathBuf::from)
    }

    /// Prints `message` and the usage text on stderr and exits with code 2.
    pub fn bad_usage(&self, message: &str) -> ! {
        eprintln!("{message}\n{}", self.usage);
        std::process::exit(2);
    }

    /// Prints the usage text on stdout and exits with code 0 (`--help`).
    pub fn help(&self) -> ! {
        println!("{}", self.usage);
        std::process::exit(0);
    }

    /// [`Self::parsed`] validator: a positive integer.
    pub fn at_least_one<T: From<u8> + PartialOrd>(n: &T) -> bool {
        *n >= T::from(1)
    }

    /// [`Self::parsed`] validator: a finite float above zero.
    pub fn positive(x: &f64) -> bool {
        x.is_finite() && *x > 0.0
    }

    /// [`Self::parsed`] validator: a finite float at or above zero.
    pub fn non_negative(x: &f64) -> bool {
        x.is_finite() && *x >= 0.0
    }
}

impl Iterator for Flags {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.args.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags::new("usage: demo", args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn bare_json_flag_uses_the_default_path() {
        let mut flags = flags(&["--json", "--no-meta"]);
        assert_eq!(flags.next().as_deref(), Some("--json"));
        assert_eq!(flags.artifact_path("demo"), Artifact::default_path("demo"));
        assert_eq!(flags.next().as_deref(), Some("--no-meta"));
        assert_eq!(flags.next(), None);
    }

    #[test]
    fn json_flag_accepts_an_explicit_path() {
        let mut flags = flags(&["--json", "out/run.json"]);
        assert_eq!(flags.next().as_deref(), Some("--json"));
        assert_eq!(flags.artifact_path("demo"), PathBuf::from("out/run.json"));
        assert_eq!(flags.next(), None);
    }

    #[test]
    fn write_or_exit_round_trips_through_the_parser() {
        let dir = std::env::temp_dir().join(format!("neura_lab_write_{}", std::process::id()));
        let path = dir.join("demo.json");
        let mut artifact = Artifact::new("demo", 1);
        artifact.push(RunRecord::new("demo/a").metric("m", 1.5));
        artifact.write_or_exit(&path);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(Artifact::from_json(&parse_json(&text).unwrap()).unwrap(), artifact);
        std::fs::remove_dir_all(&dir).ok();
    }
}
