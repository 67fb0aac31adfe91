//! Smoke tests proving every paper figure/table (one `paper all` run over
//! [`neura_bench::paper::ARTIFACTS`]) and every tool runs to completion,
//! emits a parseable machine-readable artifact, and emits the *same bytes*
//! as the commit before it.
//!
//! Each binary is executed as a real subprocess (the exact artifact `cargo
//! run` would launch). Every binary runs at paper scale, the only scale
//! there is, so every row holds the reproduction's own numbers (and
//! `paper`, `xval` and `profile` run their strict goldens). The rows of
//! [`INVOCATIONS`] execute concurrently on the same `neura_lab::Runner`
//! scoped-thread pool the binaries themselves use for their sweeps, in one
//! scratch directory; the rows of [`READERS`] — tools that read what a
//! first-phase row wrote — follow. Beyond exit status 0 and non-empty
//! stdout, each `--json` output must parse back through `neura_lab`'s
//! artifact parser with at least one record and at least one metric per
//! record, and every row is held to a digest of its numbers (see [`Pin`]).
//!
//! **The digest column is captured on the parent commit, never on the
//! change under test.** To (re)capture: copy this file over
//! `crates/bench/tests/bin_smoke.rs` in a checkout of the parent, run
//! `cargo test -p neura_bench --test bin_smoke all_binaries`, and copy the
//! `got` column of the mismatch report into the rows below. A row whose
//! simulated bytes are *meant* to move is re-pinned the same way, from the
//! commit that moved them, and its CHANGES.md entry says so.
//!
//! Every `--flag` a tool's `--help` documents must be passed by at least
//! one invocation in the tables of this file (see
//! `every_documented_flag_is_passed_by_some_invocation`), so a flag added
//! without a smoke row fails here.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use neura_lab::{parse_json, Artifact, RunRecord, Runner};

/// What a row's digest — FNV-1a-64 — is taken over.
#[derive(Debug, Clone, Copy)]
enum Pin {
    /// The artifact of this `bin` that the row's `--json <label>.json`
    /// wrote: parsed, its `meta` (the engine plan and thread count)
    /// cleared, and serialised again through `Artifact::to_bytes`.
    Artifact(&'static str),
    /// The bytes on stdout, for a tool whose product is what it prints.
    Stdout,
    /// What `paper all --json` left under `target/artifacts/`: one artifact
    /// per row of `neura_bench::paper::ARTIFACTS` and nothing else, each
    /// held to its [`PAPER_DIGESTS`] entry (the row's own digest is unused).
    PaperArtifacts,
}

/// One smoke invocation: a unique label (also the artifact file stem), the
/// binary path, what the digest pins, the arguments (split at whitespace),
/// and the digest.
type Invocation = (&'static str, &'static str, Pin, &'static str, u64);

const PAPER: &str = env!("CARGO_BIN_EXE_paper");
const SERVE: &str = env!("CARGO_BIN_EXE_serve");
const TUNE: &str = env!("CARGO_BIN_EXE_tune");
const XVAL: &str = env!("CARGO_BIN_EXE_xval");
const PROFILE: &str = env!("CARGO_BIN_EXE_profile");
const TIMELINE: &str = env!("CARGO_BIN_EXE_timeline");
const TREND: &str = env!("CARGO_BIN_EXE_trend");

/// The artifact digest of every row of `neura_bench::paper::ARTIFACTS`, in
/// its order.
const PAPER_DIGESTS: [(&str, u64); 11] = [
    ("table1", 0x37286a7b18f20e25),
    ("table3", 0xa3bdb5c690185c7a),
    ("table4", 0x458684d03378f1bd),
    ("table5", 0x56389c92b0134f49),
    ("fig11", 0x4319fae1cc22a231),
    ("fig13", 0x902b13499c7c65b5),
    ("fig14", 0xc82c75eb58394636),
    ("fig15", 0x9c72bb5ab875a0c8),
    ("fig16", 0xccc531dc7050a38e),
    ("fig17", 0x906c92c0a1e03bd2),
    ("ablation", 0xf45fe4da7de574a8),
];

const INVOCATIONS: [Invocation; 20] = [
    // All eleven paper artifacts from one process, at their default paths,
    // each under its strict golden.
    ("paper-all", PAPER, Pin::PaperArtifacts, "all --json", 0),
    // The one-artifact path: an explicit `--json <path>` (the digest is
    // fig14's entry of `PAPER_DIGESTS`), and no `--json` at all.
    ("fig14", PAPER, Pin::Artifact("fig14"), "fig14", PAPER_DIGESTS[6].1),
    ("paper-table1", PAPER, Pin::Stdout, "table1", 0xb194e6681520dad8),
    // Tuning all twenty datasets is a `just tune` job, not a smoke test;
    // one dataset proves the binary and its artifact schema end to end.
    ("tune", TUNE, Pin::Artifact("tune"), "--dataset cora", 0x81a62a03d41489f5),
    // The serve-aware objective: p99-under-load scoring through the
    // serving layer, budget-truncated so the smoke run stays cheap.
    (
        "tune-serve-p99",
        TUNE,
        Pin::Artifact("tune"),
        "--dataset cora --objective serve-p99 --budget 40",
        0xc6a9186d1995ac47,
    ),
    ("serve", SERVE, Pin::Artifact("serve"), "", 0xa390f060e99f0442),
    // The analytic fast path through the serving layer: same scenarios,
    // classes priced by the closed-form model instead of cycle sims.
    ("serve-analytic", SERVE, Pin::Artifact("serve"), "--cost-model analytic", 0x59e7076299ad2a53),
    // The third pricing model, in both binaries that take it: analytic
    // estimates rescaled through one cycle anchor per tile (`serve`), and
    // analytic screening with the final rung re-scored on the cycle oracle
    // (`tune`) — the `CostModel::Hybrid` arms nothing else runs.
    ("serve-hybrid", SERVE, Pin::Artifact("serve"), "--cost-model hybrid", 0x9ea8af84190ced74),
    (
        "tune-hybrid",
        TUNE,
        Pin::Artifact("tune"),
        "--dataset cora --cost-model hybrid",
        0x6b527566e84eb1ab,
    ),
    // A kernel objective that is not `cycles` through both tiers: the
    // analytic screening rungs and the cycle-level final rung score
    // energy-delay through the one `Objective::score`.
    (
        "tune-edp-hybrid",
        TUNE,
        Pin::Artifact("tune"),
        "--dataset cora --objective energy-delay --cost-model hybrid",
        0xa5019fd8259d1e43,
    ),
    // The flags of `serve` no default run passes, in three arms. An open
    // one: bursty arrivals at an explicit rate and duration, the batch
    // policy's knobs, a mixed fleet beside a plain one under cost-aware
    // dispatch and an autoscaler with its cadence set, a bounded queue,
    // two tenants (one rate-limited) and a crash-plus-flaky-provisioning
    // regime.
    (
        "serve-open-flags",
        SERVE,
        Pin::Artifact("serve"),
        "--arrival bursty --rps 200000 --duration 0.01 --dataset cora --policy batch --max-batch 4 \
         --batch-timeout-ms 0.05 --fleet t64x1+t4x2 --fleet t16x2 --dispatch cost --autoscale 1:4 \
         --provision-ms 0.5 --check-ms 0.1 --queue-bound 32 --tenant a:1 --tenant b:2:50000 \
         --fault crash1+pf0.5",
        0x615bc564a4225139,
    ),
    // A closed one: a client population with its think time, split into
    // lanes, on `--shards`.
    (
        "serve-closed-flags",
        SERVE,
        Pin::Artifact("serve"),
        "--clients 8 --think-ms 0.01 --lanes 2 --shards 2 --policy fifo --policy sjf",
        0xdd5ab9594ed338a0,
    ),
    // A zero-think closed loop: every client re-issues at its response's
    // finish, so the in-flight peak is exactly the client count (50). The
    // digest was captured on the commit that counts the peak in event
    // order; its parent rebuilt completions as `arrival + latency`, which
    // rounds past the next issue, and reported 51.
    (
        "serve-zero-think",
        SERVE,
        Pin::Artifact("serve"),
        "--clients 50 --think-ms 0 --shards 2 --policy fifo",
        0x238e29efe210a27d,
    ),
    // A library one: the overload scenario beside one plain arm, replayed
    // as two epoch fragments and traced into the timeline the `timeline`
    // row of `READERS` summarises.
    (
        "serve-scenario-flags",
        SERVE,
        Pin::Artifact("serve"),
        "--scenario overload --shards 1 --policy fifo --epochs 2 --window-ms 0.05 --no-meta \
         --trace serve-scenario-flags.timeline.json",
        0x6b253f6d516b8e44,
    ),
    // Cross-validation harness: two datasets prove the sampling loop, the
    // error-report schema and the accuracy golden (CI gates the whole
    // suite against `baselines/xval.json`).
    ("xval", XVAL, Pin::Artifact("xval"), "--dataset facebook --dataset wiki-Vote", 0xc7ce4387c4db58ee),
    (
        "xval-flags",
        XVAL,
        Pin::Artifact("xval"),
        "--dataset facebook --tile t4 --hbm hbm2 --frequency 1.5 --shrink 2",
        0x0b839709f2e8fa4f,
    ),
    // The two modes of `xval` that print instead of writing an artifact:
    // the raw sample table, and a refit (every tile x HBM group needs more
    // samples than coefficients, so the whole suite on every tile — at
    // shrink 16, where the undersized Tile-4 cells do not thrash).
    ("xval-dump", XVAL, Pin::Stdout, "--dump --dataset cora --tile t4", 0x2c103db372a8f2c7),
    (
        "xval-fit",
        XVAL,
        Pin::Stdout,
        "--fit --shrink 16 --tile t4 --tile t16 --tile t64",
        0xe1c9b81af6e7d604,
    ),
    // Chip profiler sweep: two datasets prove the windowed-attribution
    // loop and the profile artifact schema end to end (CI gates a
    // three-dataset slice against `baselines/profile.json`; a conservation
    // violation in any cell fails the run).
    (
        "profile",
        PROFILE,
        Pin::Artifact("profile"),
        "--dataset cora --dataset facebook",
        0x7c45846767197b1d,
    ),
    (
        "profile-flags",
        PROFILE,
        Pin::Artifact("profile"),
        "--dataset cora --tile t4 --hbm hbm2 --shrink 2 --window 512 --max-stall-frac 1",
        0xbaf737de956021d8,
    ),
];

/// The second phase: tools that read an artifact a row of [`INVOCATIONS`]
/// left in the scratch directory, pinned by what they print about it.
const READERS: [Invocation; 2] = [
    (
        "timeline-gates",
        TIMELINE,
        Pin::Stdout,
        "serve-scenario-flags.timeline.json --scope serve/scn-overload --max-worst-p99-ms 1e9 \
         --max-recovery-ms 1e9 --min-window-slo 0",
        0x15b5bba2842f7c65,
    ),
    // `tune` writes no meta, so a self-diff prints the same line every
    // time.
    ("trend-self", TREND, Pin::Stdout, "tune.json tune.json --fail-above 0", 0x872a348e6f931b4b),
];

/// The flag-taking binaries, each with one flag its `--help` must list —
/// for the six tools, one of their own that takes a value.
const TOOLS: [(&str, &str, &str); 7] = [
    ("paper", PAPER, "--json"),
    ("serve", SERVE, "--rps"),
    ("profile", PROFILE, "--shrink"),
    ("xval", XVAL, "--frequency"),
    ("tune", TUNE, "--budget"),
    ("timeline", TIMELINE, "--scope"),
    ("trend", TREND, "--fail-above"),
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Runs one row in `dir` and holds what it produced to the row's digest.
fn run_smoke(row: &Invocation, dir: &Path) -> Result<(), String> {
    let &(label, exe, pin, args, digest) = row;
    let mut command = Command::new(exe);
    command.current_dir(dir);
    command.args(args.split_whitespace());
    if let Pin::Artifact(_) = pin {
        command.arg("--json").arg(format!("{label}.json"));
    }
    let output = command.output().map_err(|e| format!("failed to spawn ({exe}): {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "exited with {:?}\nstderr:\n{}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    if output.stdout.is_empty() {
        return Err("produced no output on stdout".to_string());
    }
    match pin {
        Pin::Stdout => held_to(label, digest, fnv1a64(&output.stdout)),
        Pin::Artifact(bin) => {
            held_to(label, digest, artifact_digest(label, &dir.join(format!("{label}.json")), bin)?)
        }
        Pin::PaperArtifacts => {
            let written = dir.join("target/artifacts");
            let count = std::fs::read_dir(&written).map_err(|e| e.to_string())?.count();
            if count != PAPER_DIGESTS.len() {
                return Err(format!("left {count} files in {}", written.display()));
            }
            // Every mismatch, not the first: a re-pin copies the whole column.
            let moved: Vec<String> = PAPER_DIGESTS
                .iter()
                .filter_map(|&(name, digest)| {
                    let path = written.join(format!("{name}.json"));
                    artifact_digest(name, &path, name)
                        .and_then(|got| held_to(name, digest, got))
                        .err()
                })
                .collect();
            if moved.is_empty() {
                Ok(())
            } else {
                Err(moved.join("\n"))
            }
        }
    }
}

/// The digest of the artifact of `bin` at `path`, schema-checked on the way.
fn artifact_digest(label: &str, path: &Path, bin: &str) -> Result<u64, String> {
    let mut artifact = read_artifact(path, bin)?;
    check_artifact(label, &artifact)?;
    artifact.meta.clear();
    Ok(fnv1a64(artifact.to_bytes().as_bytes()))
}

fn held_to(label: &str, digest: u64, got: u64) -> Result<(), String> {
    if got != digest {
        return Err(format!(
            "moved the bytes its digest pins (see the file header before re-pinning):\n  \
             label    {label}\n  expected {digest:#018x}\n  got      {got:#018x}"
        ));
    }
    Ok(())
}

/// Parses the artifact at `path` and checks the schema contract: it names
/// `bin` and paper scale, and every record carries a metric.
fn read_artifact(path: &Path, bin: &str) -> Result<Artifact, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("did not write {}: {e}", path.display()))?;
    let artifact = Artifact::from_json(
        &parse_json(&text).map_err(|e| format!("artifact does not parse: {e}"))?,
    )
    .map_err(|e| format!("artifact schema mismatch: {e}"))?;
    if artifact.bin != bin {
        return Err(format!("artifact names bin {:?}, expected {bin:?}", artifact.bin));
    }
    if artifact.scale_mult != 1 {
        return Err(format!("artifact records scale_mult {}", artifact.scale_mult));
    }
    if artifact.records.is_empty() {
        return Err("artifact has no records".to_string());
    }
    for record in &artifact.records {
        if record.metrics.is_empty() {
            return Err(format!("record {:?} has no metrics", record.id));
        }
    }
    Ok(artifact)
}

/// What a binary's artifact must say beyond the schema.
fn check_artifact(label: &str, artifact: &Artifact) -> Result<(), String> {
    if artifact.bin == "tune" {
        let best = artifact
            .records
            .iter()
            .find(|r| r.id.ends_with("/best_config"))
            .ok_or("tuner artifact has no best_config record")?;
        if best.metric_value("objective_score").is_none() {
            return Err("best_config record lacks an objective_score metric".to_string());
        }
        if best.metric_value("improvement_vs_default").unwrap_or(0.0) < 1.0 {
            return Err("best_config is worse than the paper default".to_string());
        }
    }
    if label == "serve" {
        check_serve_artifact(artifact)?;
    }
    if artifact.bin == "xval" {
        let summary = artifact
            .records
            .iter()
            .find(|r| r.id == "xval/summary")
            .ok_or("xval artifact has no overall summary record")?;
        for metric in [
            "mean_abs_rel_error_pct",
            "worst_abs_rel_error_pct",
            "mean_bound_pct",
            "worst_bound_pct",
            "cells",
        ] {
            let value = summary
                .metric_value(metric)
                .ok_or(format!("xval summary lacks the {metric} metric"))?;
            if !value.is_finite() || value < 0.0 {
                return Err(format!("xval summary metric {metric} is not a sane value: {value}"));
            }
        }
        if !artifact.records.iter().any(|r| r.metric_value("rel_error_pct").is_some()) {
            return Err("xval artifact has no per-cell error records".to_string());
        }
    }
    Ok(())
}

/// A `<prefix>...<suffix>` summary record's metric, by ID shape (the
/// auto-calibrated rps segment in the middle is scale-dependent).
fn summary_metric(
    artifact: &Artifact,
    prefix: &str,
    suffix: &str,
    metric: &str,
) -> Result<f64, String> {
    summary_record(artifact, prefix, suffix)?
        .metric_value(metric)
        .ok_or(format!("summary {prefix}...{suffix} lacks the {metric} metric"))
}

fn summary_record<'a>(
    artifact: &'a Artifact,
    prefix: &str,
    suffix: &str,
) -> Result<&'a RunRecord, String> {
    artifact
        .records
        .iter()
        .find(|r| r.id.starts_with(prefix) && r.id.ends_with(suffix))
        .ok_or(format!("missing summary {prefix}...{suffix}"))
}

/// Serving-specific schema checks: every scenario summary carries tail
/// latency, throughput and capacity cost; more shards never worsen FIFO
/// p99 on one shared stream; the default comparison arms — heterogeneous
/// Tile-64+Tile-4 fleet with per-group records, a closed-loop twin of an
/// open-loop arm, and an autoscaled arm reporting shard-seconds — are all
/// present in the one artifact.
fn check_serve_artifact(artifact: &Artifact) -> Result<(), String> {
    let summaries: Vec<_> =
        artifact.records.iter().filter(|r| r.id.ends_with("/summary")).collect();
    if summaries.is_empty() {
        return Err("serve artifact has no scenario summaries".to_string());
    }
    for summary in &summaries {
        for metric in ["p99_latency_ms", "throughput_rps", "queue_depth_mean", "shard_seconds"] {
            if summary.metric_value(metric).is_none() {
                return Err(format!("summary {:?} lacks the {metric} metric", summary.id));
            }
        }
    }
    if !artifact.records.iter().any(|r| r.id.contains("/shard")) {
        return Err("serve artifact has no per-shard utilisation records".to_string());
    }

    // Shard scaling: the default arrival rate is auto-calibrated, so match
    // the fifo summaries by prefix and suffix instead of the exact rps.
    let fifo_p99 = |shards: usize| {
        summary_metric(
            artifact,
            "serve/poisson/rps",
            &format!("/t16x{shards}/least-loaded/fifo/summary"),
            "p99_latency_ms",
        )
    };
    let (s1, s2, s4) = (fifo_p99(1)?, fifo_p99(2)?, fifo_p99(4)?);
    if s2 > s1 + 1e-9 || s4 > s2 + 1e-9 {
        return Err(format!("p99 worsened with more shards: s1={s1} s2={s2} s4={s4}"));
    }

    // Heterogeneous arm: the mixed fleet's summary carries the cost metric
    // and both groups report utilisation.
    let mixed = "/t64x1+t4x4/affinity/fifo";
    summary_metric(artifact, "serve/poisson/rps", &format!("{mixed}/summary"), "shard_seconds")?;
    for group in ["t64", "t4"] {
        let record = artifact
            .records
            .iter()
            .find(|r| {
                r.id.starts_with("serve/poisson/rps")
                    && r.id.ends_with(&format!("{mixed}/group/{group}"))
            })
            .ok_or(format!("missing per-group record for {group} in the mixed fleet"))?;
        if record.metric_value("utilization").is_none()
            || record.metric_value("shard_seconds").is_none()
        {
            return Err(format!("group record {:?} lacks utilisation/cost metrics", record.id));
        }
    }

    // Closed-loop arm: bounded in-flight, with its open-loop twin (same
    // fleet, dispatch and policy) in the same artifact for comparison.
    let closed = summary_record(artifact, "serve/closed64/", "/t16x2/least-loaded/fifo/summary")?;
    let in_flight =
        closed.metric_value("max_in_flight").ok_or("closed-loop summary lacks max_in_flight")?;
    if in_flight > 64.0 {
        return Err(format!("closed loop exceeded its client count: {in_flight} in flight"));
    }
    summary_record(artifact, "serve/poisson/rps", "/t16x2/least-loaded/fifo/summary")?;

    // Autoscaled arm: p99 and shard-seconds cost side by side.
    let scaled_suffix = "/t16x1/least-loaded/fifo/as1-4/summary";
    for metric in ["p99_latency_ms", "shard_seconds", "scale_events"] {
        summary_metric(artifact, "serve/poisson/rps", scaled_suffix, metric)?;
    }

    check_scenario_arms(artifact)
}

/// Scenario-library checks: every named `scn-*` arm rides along with the
/// default sweep and reports sane shed/crash/recovery numbers — the
/// overload arm sheds hard against its bound while the fault-free plain
/// arms shed nothing, the rate-limited free tier is squeezed to its
/// token bucket, the crash arm recovers no faster than the provisioning
/// delay, and the degraded arm pays a visibly worse tail.
fn check_scenario_arms(artifact: &Artifact) -> Result<(), String> {
    for name in neura_serve::ScenarioSpec::names() {
        let prefix = format!("serve/scn-{name}/");
        let summary = summary_record(artifact, &prefix, "/summary")?;
        for metric in ["offered", "shed", "shed_rate", "crashes", "recoveries"] {
            if summary.metric_value(metric).is_none() {
                return Err(format!("scenario summary {:?} lacks {metric}", summary.id));
            }
        }
        let offered = summary.metric_value("offered").unwrap();
        let served = summary.metric_value("requests").unwrap_or(0.0);
        let shed = summary.metric_value("shed").unwrap();
        let shed_rate = summary.metric_value("shed_rate").unwrap();
        if !(0.0..=1.0).contains(&shed_rate) {
            return Err(format!("scn-{name} shed rate {shed_rate} outside [0, 1]"));
        }
        if served + shed != offered {
            return Err(format!(
                "scn-{name} loses requests: {served} served + {shed} shed != {offered} offered"
            ));
        }
    }

    // The overload arm sheds against its bound; the plain shard-scaling
    // arms (no bound, no faults) shed nothing.
    let overload = summary_record(artifact, "serve/scn-overload/", "/summary")?;
    if overload.metric_value("shed_rate").unwrap_or(0.0) <= 0.1 {
        return Err("the 3x overload arm barely shed".to_string());
    }
    let bound = 64.0;
    if overload.metric_value("queue_depth_max").unwrap_or(f64::INFINITY) > bound {
        return Err("the overload arm's backlog escaped its bound".to_string());
    }
    let plain = summary_record(artifact, "serve/poisson/rps", "/t16x4/least-loaded/fifo/summary")?;
    if plain.metric_value("shed").unwrap_or(f64::NAN) != 0.0 {
        return Err("an unbounded plain arm shed requests".to_string());
    }

    // The rate-limited free tier admits a trickle; gold reports its SLO.
    let free = summary_record(artifact, "serve/scn-tenants/", "/tenant/free")?;
    if free.metric_value("shed_rate").unwrap_or(0.0) <= 0.5 {
        return Err("the 1 rps free tier admitted more than its token bucket".to_string());
    }
    let gold = summary_record(artifact, "serve/scn-tenants/", "/tenant/gold")?;
    if gold.metric_value("slo_attainment").is_none() {
        return Err("the gold tenant lacks an slo_attainment metric".to_string());
    }

    // Crashes land, re-dispatch and recover no faster than provisioning.
    let crash = summary_record(artifact, "serve/scn-crash/", "/summary")?;
    if crash.metric_value("crashes").unwrap_or(0.0) < 1.0 {
        return Err("the crash arm injected no crashes".to_string());
    }
    if crash.metric_value("recoveries").unwrap_or(0.0) >= 1.0 {
        let recovery_ms = crash.metric_value("recovery_time_ms").unwrap_or(0.0);
        let delay_ms: f64 = crash
            .params
            .iter()
            .find(|(k, _)| k == "provision_delay_ms")
            .and_then(|(_, v)| v.parse().ok())
            .ok_or("the crash arm lacks a provision_delay_ms param")?;
        if recovery_ms < delay_ms - 1e-9 {
            return Err(format!(
                "crash recovery ({recovery_ms} ms) outpaced the provisioning delay ({delay_ms} ms)"
            ));
        }
    }

    // Degraded silicon pays a worse tail than the same-load crash arm's.
    let degraded = summary_record(artifact, "serve/scn-degraded/", "/summary")?;
    let degraded_p99 = degraded.metric_value("p99_latency_ms").unwrap_or(0.0);
    let crash_p99 = crash.metric_value("p99_latency_ms").unwrap_or(f64::INFINITY);
    if degraded_p99 <= crash_p99 {
        return Err(format!(
            "3x-degraded silicon p99 ({degraded_p99} ms) no worse than healthy ({crash_p99} ms)"
        ));
    }
    Ok(())
}

/// Every invocation, in parallel, through the lab runner: the writers,
/// then the readers of what they wrote. The paper digests are keyed by the
/// artifact table itself, name for name.
#[test]
fn all_binaries_run_and_emit_parseable_artifacts() {
    let table: Vec<&str> = neura_bench::paper::ARTIFACTS.iter().map(|a| a.name).collect();
    assert_eq!(table, PAPER_DIGESTS.map(|(name, _)| name), "PAPER_DIGESTS covers ARTIFACTS");

    let dir = std::env::temp_dir().join(format!("neura_bench_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create smoke artifact dir");

    let runner = Runner::from_env();
    let mut failures = Vec::new();
    for phase in [&INVOCATIONS[..], &READERS[..]] {
        let results = runner.run(phase, |_, row| run_smoke(row, &dir).map_err(|e| (row.0, e)));
        failures.extend(
            results
                .into_iter()
                .filter_map(Result::err)
                .map(|(label, error)| format!("{label}: {error}")),
        );
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        failures.is_empty(),
        "{} binary smoke failure(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// The `--flag` tokens of a usage text.
fn documented_flags(usage: &str) -> BTreeSet<String> {
    let word = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-';
    usage
        .split(|c: char| !word(c))
        .filter(|token| token.starts_with("--") && token.len() > 2)
        .map(str::to_string)
        .collect()
}

/// Every `--flag` in a tool's `--help` text is passed by at least one
/// invocation this file spawns from its tables — so the parser arm behind
/// it runs in tier-1, and a flag added later without a row fails here.
#[test]
fn every_documented_flag_is_passed_by_some_invocation() {
    for (bin, exe, value_flag) in TOOLS {
        let help = Command::new(exe).arg("--help").output().expect("spawn binary");
        assert!(help.status.success(), "{bin} --help failed");
        let documented = documented_flags(&String::from_utf8_lossy(&help.stdout));
        assert!(documented.contains(value_flag), "{bin}: --help does not list {value_flag}");

        let mut passed: BTreeSet<String> = BTreeSet::from([value_flag.to_string()]);
        for (_, _, pin, args, _) in INVOCATIONS.iter().chain(&READERS).filter(|row| row.1 == exe) {
            passed.extend(documented_flags(args));
            if let Pin::Artifact(_) = pin {
                passed.insert("--json".to_string());
            }
        }
        let missing: Vec<&String> = documented.difference(&passed).collect();
        assert!(missing.is_empty(), "{bin}: no invocation in bin_smoke.rs passes {missing:?}");
    }
}

/// A fleet with no Tile-16 group and no scenario arm prices no Tile-16
/// class and must not ask the cost table for one (`serve --fleet t64x1`
/// once panicked calibrating the scenario fleet it was not going to run).
#[test]
fn a_fleet_without_tile16_silicon_serves() {
    let output = Command::new(SERVE)
        .args(["--fleet", "t4x1", "--policy", "fifo"])
        .output()
        .expect("spawn serve");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "serve --fleet t4x1 failed:\n{stderr}");
    assert!(String::from_utf8_lossy(&output.stdout).contains("poisson/"), "no arm was replayed");
}

/// A fresh scratch directory for one test.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("neura_bench_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    dir
}

/// One tool launch of a test: the binary, a label (the artifact is written
/// to `<label>.json` in the test's scratch directory), the
/// `NEURA_LAB_THREADS` it runs under, and its other arguments, split at
/// whitespace (paths in them are relative to that directory).
type Launch = (&'static str, &'static str, &'static str, &'static str);

/// Runs one launch in `dir` and returns the text of the artifact it wrote.
fn launch(dir: &Path, &(exe, label, threads, args): &Launch) -> String {
    let path = dir.join(format!("{label}.json"));
    let output = Command::new(exe)
        .current_dir(dir)
        .arg("--json")
        .arg(&path)
        .args(args.split_whitespace())
        .env("NEURA_LAB_THREADS", threads)
        .output()
        .expect("spawn binary");
    assert!(
        output.status.success(),
        "{label} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    std::fs::read_to_string(&path).expect("artifact written")
}

/// Runs independent launches concurrently on the lab runner and returns
/// their artifacts in launch order.
fn launch_all<const N: usize>(dir: &Path, launches: [Launch; N]) -> [String; N] {
    let artifacts = Runner::from_env().run(&launches, |_, row| launch(dir, row));
    artifacts.try_into().expect("one artifact per launch")
}

/// The artifact of a plain `serve --no-meta` at two worker threads: the
/// reference the serve variants of four tests are held to, launched once
/// by whichever test asks first. `--no-meta` goes on every byte-compared
/// serve run: it strips the meta block, whose `threads` is the one part
/// that varies with the worker count.
fn plain_serve() -> &'static str {
    static PLAIN: OnceLock<String> = OnceLock::new();
    PLAIN.get_or_init(|| {
        let dir = scratch_dir("serve_plain");
        let bytes = launch(&dir, &(SERVE, "serve_plain", "2", "--no-meta"));
        std::fs::remove_dir_all(&dir).ok();
        bytes
    })
}

/// The traced serve run: `--trace` adds a `neura_lab.timeline/v1`
/// artifact that is byte-identical across `NEURA_LAB_THREADS`, leaves the
/// `serve.json` bytes exactly as an untraced run writes them (tracing is
/// pure observation), respects the windowing invariant (every scenario's
/// worst-window p99 at least matches — and on the flash/crash arms
/// strictly exceeds — the run-aggregate p99), recovers no faster than the
/// provisioning delay, and passes the `timeline` binary's checks.
#[test]
fn traced_serve_emits_a_thread_invariant_timeline() {
    let json_dir = scratch_dir("serve_trace");
    let [traced_two, traced_eight] = launch_all(
        &json_dir,
        [
            (SERVE, "serve_t2", "2", "--no-meta --trace timeline_t2.json"),
            (SERVE, "serve_t8", "8", "--no-meta --trace timeline_t8.json"),
        ],
    );
    assert_eq!(plain_serve(), traced_two, "tracing must not perturb the serve artifact");
    assert_eq!(traced_two, traced_eight);
    let timeline_two = json_dir.join("timeline_t2.json");
    let timeline_bytes = std::fs::read_to_string(&timeline_two).expect("timeline written");
    assert_eq!(
        timeline_bytes,
        std::fs::read_to_string(json_dir.join("timeline_t8.json")).expect("timeline written"),
        "timeline artifact bytes depend on the thread count"
    );

    let artifact = Artifact::from_json(&parse_json(&timeline_bytes).expect("timeline parses"))
        .expect("timeline follows the artifact schema");
    assert_eq!(artifact.schema, neura_lab::TIMELINE_SCHEMA);
    let summaries: Vec<_> = artifact
        .records
        .iter()
        .filter_map(|r| r.id.strip_suffix("/timeline").map(|scope| (scope, r)))
        .collect();
    assert!(!summaries.is_empty(), "the timeline artifact names no traced scenarios");
    for (scope, record) in &summaries {
        let worst = record.metric_value("worst_window_p99_ms").expect("worst-window p99");
        let aggregate = record.metric_value("aggregate_p99_ms").expect("aggregate p99");
        assert!(
            worst >= aggregate,
            "{scope}: worst-window p99 {worst} ms undercuts the aggregate {aggregate} ms"
        );
        // The dynamic arms are why the timeline exists: the spike the
        // aggregate hides must be strictly visible in the worst window.
        if scope.contains("scn-flash") || scope.contains("scn-crash") {
            assert!(
                worst > aggregate,
                "{scope}: worst-window p99 {worst} ms does not rise above the aggregate"
            );
        }
        if scope.contains("scn-crash") && record.metric_value("recoveries").unwrap_or(0.0) >= 1.0 {
            let recovery_ms = record.metric_value("recovery_time_ms").unwrap_or(0.0);
            let delay_ms: f64 = record
                .params
                .iter()
                .find(|(k, _)| k == "provision_delay_ms")
                .and_then(|(_, v)| v.parse().ok())
                .expect("the crash timeline carries the provisioning delay param");
            assert!(
                recovery_ms >= delay_ms - 1e-9,
                "{scope}: recovery ({recovery_ms} ms) outpaced provisioning ({delay_ms} ms)"
            );
        }
    }
    assert!(
        artifact.records.iter().any(|r| r.id.contains("/window/")),
        "the timeline artifact has no per-window records"
    );

    let timeline = Command::new(env!("CARGO_BIN_EXE_timeline"))
        .arg(&timeline_two)
        .output()
        .expect("spawn timeline");
    let stdout = String::from_utf8_lossy(&timeline.stdout);
    assert!(
        timeline.status.success(),
        "the timeline binary rejected a fresh artifact:\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&timeline.stderr)
    );
    assert!(stdout.contains("Timeline:"), "unexpected timeline output:\n{stdout}");
    // Pointing it at the (plain-schema) serve artifact must fail loudly.
    let wrong = Command::new(env!("CARGO_BIN_EXE_timeline"))
        .arg(json_dir.join("serve_t2.json"))
        .output()
        .expect("spawn timeline");
    assert!(!wrong.status.success(), "a plain run artifact is not a timeline");

    std::fs::remove_dir_all(&json_dir).ok();
}

/// The profiled runs: `profile` emits `neura_lab.profile/v1` artifacts
/// that are byte-identical across `NEURA_LAB_THREADS`, every profile
/// summary conserves its stall taxonomy and cycle split, and `trend`
/// headlines the worst-window stall fraction when diffing profile
/// artifacts.
#[test]
fn profiled_runs_emit_thread_invariant_conserving_profiles() {
    let json_dir = scratch_dir("profile");
    let [sweep_two, sweep_eight] = launch_all(
        &json_dir,
        [
            (PROFILE, "sweep_t2", "2", "--dataset cora --hbm hbm2"),
            (PROFILE, "sweep_t8", "8", "--dataset cora --hbm hbm2"),
        ],
    );

    // Byte-identical profiles at 2 vs 8 worker threads (the runner
    // collects in input order by contract).
    assert_eq!(sweep_two, sweep_eight, "profile.json bytes depend on the thread count");
    assert_profiles_conserve(&sweep_two);

    // trend understands the schema: a self-diff headlines the worst-window
    // stall fraction instead of warning about an unknown artifact.
    let trend = Command::new(env!("CARGO_BIN_EXE_trend"))
        .arg(json_dir.join("sweep_t2.json"))
        .arg(json_dir.join("sweep_t8.json"))
        .arg("--fail-above")
        .arg("0")
        .output()
        .expect("spawn trend");
    let stdout = String::from_utf8_lossy(&trend.stdout);
    assert!(
        trend.status.success(),
        "trend rejected identical profile artifacts:\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&trend.stderr)
    );
    assert!(
        stdout.contains("worst-window stall fraction"),
        "trend did not headline the stall fraction:\n{stdout}"
    );

    std::fs::remove_dir_all(&json_dir).ok();
}

/// A profile artifact carries the profile schema and conserves: taxonomy
/// buckets sum to the stall cycles and busy + stall + idle (epilogue
/// included) covers cores × total_cycles, per summary record.
fn assert_profiles_conserve(bytes: &str) {
    let artifact = Artifact::from_json(&parse_json(bytes).expect("profile parses"))
        .expect("profile follows the artifact schema");
    assert_eq!(artifact.schema, neura_lab::PROFILE_SCHEMA);
    let summaries: Vec<_> = artifact
        .records
        .iter()
        .filter_map(|r| r.id.strip_suffix("/profile").map(|scope| (scope, r)))
        .collect();
    assert!(!summaries.is_empty(), "the profile artifact names no profiled runs");
    for (scope, record) in &summaries {
        let metric = |name: &str| {
            record.metric_value(name).unwrap_or_else(|| panic!("{scope} lacks {name}"))
        };
        let buckets = metric("stall_operand_fetch")
            + metric("stall_hashpad_full")
            + metric("stall_noc_backpressure")
            + metric("stall_dispatch_starvation");
        assert_eq!(buckets, metric("stall_cycles"), "{scope}: taxonomy does not conserve");
        let split = metric("busy_cycles")
            + metric("stall_cycles")
            + metric("idle_cycles")
            + metric("epilogue_idle_cycles");
        assert_eq!(
            split,
            metric("cores") * metric("total_cycles"),
            "{scope}: cycle split does not conserve"
        );
        assert!(metric("worst_window_stall_frac") <= 1.0, "{scope}: stall frac > 1");
    }
    assert!(
        artifact.records.iter().any(|r| r.id.contains("/window/")),
        "the profile artifact has no per-window records"
    );
}

/// The two-tier cost model must not perturb the default pipeline: a bare
/// `serve` run and an explicit `--cost-model cycle` run write
/// byte-identical artifacts (the analytic tier is strictly opt-in), the
/// analytic run differs only where it should (it records its cost_model
/// param), and the `xval` harness is byte-identical across
/// `NEURA_LAB_THREADS` settings like every other artifact writer.
#[test]
fn cost_model_default_is_byte_identical_and_xval_is_thread_invariant() {
    let json_dir = scratch_dir("cost_model");
    let xval_args = "--dataset facebook --tile t4 --hbm hbm2";
    let [serve_cycle, serve_analytic, xval_two, xval_eight] = launch_all(
        &json_dir,
        [
            (SERVE, "serve_cycle", "2", "--no-meta --cost-model cycle"),
            (SERVE, "serve_analytic", "2", "--no-meta --cost-model analytic"),
            (XVAL, "xval_t2", "2", xval_args),
            (XVAL, "xval_t8", "8", xval_args),
        ],
    );

    let serve_default = plain_serve();
    assert_eq!(
        serve_default, serve_cycle,
        "an explicit --cost-model cycle run must be byte-identical to the default"
    );
    assert_ne!(
        serve_default, serve_analytic,
        "the analytic run must at least record its cost_model param"
    );
    assert!(
        serve_analytic.contains("cost_model"),
        "the analytic artifact must carry a cost_model param"
    );

    assert_eq!(xval_two, xval_eight, "xval artifact bytes depend on the thread count");

    std::fs::remove_dir_all(&json_dir).ok();
}

/// The serve artifact is byte-identical across `NEURA_LAB_THREADS`
/// settings; the `trend` binary reports zero delta (exit 0 with
/// `--fail-above 0`) when diffing an artifact against itself, and its
/// directory mode counts files present on only one side in the summary
/// line.
#[test]
fn serve_is_thread_invariant_and_trend_diffs_directories() {
    let json_dir = scratch_dir("serve_trend");
    let bytes_eight = launch(&json_dir, &(SERVE, "serve_t8", "8", "--no-meta"));
    let bytes_two = plain_serve();
    assert_eq!(bytes_two, bytes_eight, "serve artifact bytes depend on the thread count");

    let path_eight = json_dir.join("serve_t8.json");
    let trend = Command::new(env!("CARGO_BIN_EXE_trend"))
        .args(["--fail-above", "0"])
        .arg(&path_eight)
        .arg(&path_eight)
        .output()
        .expect("spawn trend");
    let stdout = String::from_utf8_lossy(&trend.stdout);
    assert!(
        trend.status.success(),
        "trend self-diff must report zero delta:\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&trend.stderr)
    );
    assert!(stdout.contains("all identical"), "unexpected trend output:\n{stdout}");

    // Directory mode: one matched pair plus one file present only in
    // BEFORE must be counted in the summary line and trip the threshold.
    let before_dir = json_dir.join("before");
    let after_dir = json_dir.join("after");
    std::fs::create_dir_all(&before_dir).unwrap();
    std::fs::create_dir_all(&after_dir).unwrap();
    std::fs::write(before_dir.join("serve.json"), bytes_two).unwrap();
    std::fs::write(after_dir.join("serve.json"), bytes_two).unwrap();
    std::fs::write(before_dir.join("extra.json"), bytes_two).unwrap();
    let trend_dirs = Command::new(env!("CARGO_BIN_EXE_trend"))
        .args(["--fail-above", "0"])
        .arg(&before_dir)
        .arg(&after_dir)
        .output()
        .expect("spawn trend on directories");
    let stdout = String::from_utf8_lossy(&trend_dirs.stdout);
    assert!(!trend_dirs.status.success(), "a file on one side must trip --fail-above 0:\n{stdout}");
    assert!(stdout.contains("extra.json (before only)"), "the one-sided file is named:\n{stdout}");
    assert!(
        stdout.contains(
            "trend summary: 1 file pair(s) compared, 0 changed metric(s), \
             0 metric(s) on one side only, 1 file(s) on one side only"
        ),
        "directory summary line counts pairs, changed metrics and one-sided files:\n{stdout}"
    );

    std::fs::remove_dir_all(&json_dir).ok();
}

/// A `--window-ms` a few zeros too small is a usage error that names the
/// smallest width the run's horizon accepts — not an attempt to allocate
/// one window per 0.1 ns (which aborted the process on a 37 GB request).
#[test]
fn a_timeline_window_too_narrow_for_the_horizon_exits_2() {
    let dir = std::env::temp_dir().join(format!("neura_narrow_window_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let output = Command::new(SERVE)
        .args(["--window-ms", "0.0000001", "--trace"])
        .arg(dir.join("timeline.json"))
        .arg("--json")
        .arg(dir.join("serve.json"))
        .output()
        .expect("spawn serve");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "exit code\n{stderr}");
    assert!(stderr.starts_with("--window-ms 1e-7 cuts the "), "complaint first\n{stderr}");
    assert!(stderr.contains("s horizon into more than"), "{stderr}");
    assert!(stderr.contains("the smallest width it accepts is --window-ms "), "{stderr}");
    assert!(stderr.contains("usage: serve "), "usage\n{stderr}");
    assert!(!dir.join("timeline.json").exists() && !dir.join("serve.json").exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// The six flag-taking tools share one command-line reader
/// (`neura_lab::Flags`): an unknown flag and a flag missing its value both
/// exit with code 2 and put the complaint plus the binary's own usage text
/// on stderr, before any simulation starts. So do the sizes `serve` takes
/// from its command line — a stream, a client population, a fleet, a crash
/// count, an epoch count — when they pass what a replay may allocate; so
/// does `xval --fit` on a grid it cannot fit; and so does `paper` for a
/// name its table lacks, a stray flag or a second path after a name, and
/// one `--json` path for all eleven artifacts. The one environment knob, `NEURA_LAB_THREADS`,
/// is held to the same exit when set to something that is not a positive
/// integer.
#[test]
fn malformed_command_lines_exit_2_with_the_usage_text() {
    for (bin, exe, value_flag) in TOOLS {
        let stray = "unrecognised argument \"--no-such-flag\"".to_string();
        let mut cases = if bin == "paper" {
            vec![
                (vec!["nosuch"], "unknown artifact \"nosuch\"".to_string()),
                (vec!["table1", "--no-such-flag"], stray),
                (vec!["all", "--json", "some/path"], "`all` writes every artifact to".into()),
                (vec!["table1", "--json", "a", "b"], "unrecognised argument \"b\"".into()),
            ]
        } else {
            vec![
                (vec!["--no-such-flag"], stray),
                (vec![value_flag], format!("{value_flag} needs a value")),
            ]
        };
        if bin == "serve" {
            // The epoch-width spelling of `--epochs`, the lane speed-up
            // demo and the class-pricing profiler (`profile` is the one
            // chip-profiling tool) are gone, not ignored.
            cases.push((vec!["--epoch-ms", "5"], "unrecognised argument \"--epoch-ms\"".into()));
            cases.push((vec!["--speedup"], "unrecognised argument \"--speedup\"".into()));
            cases.push((vec!["--profile"], "unrecognised argument \"--profile\"".into()));
            // An explicit rate keeps the 2 s default duration: 4e8 requests
            // once died allocating 5 GB, and 1e300 req/s never returned.
            let sized = [
                (vec!["--rps", "200000000"], "--rps 200000000.0 expects 400000000.0 requests"),
                (vec!["--rps", "1e300"], "--rps 1e300 expects 2e300 requests"),
                (vec!["--clients", "2000000000"], "--clients \"2000000000\" is not an integer"),
                (vec!["--shards", "100000000"], "fleet \"t16x100000000\" holds 100000000 shard"),
                // Every crash is drawn and queued before the replay starts:
                // two billion of them once aborted on a 32 GB allocation.
                (
                    vec!["--fault", "crash2000000000", "--shards", "1", "--policy", "fifo"],
                    "--fault \"crash2000000000\" is not a crashN/pfX/degGxM regime like \
                     crash2+pf0.5 (N within 1..=65536)",
                ),
                // Past the bound the engine clamps to, `meta.epochs` would
                // record a count the replay did not run.
                (vec!["--epochs", "1025"], "--epochs \"1025\" is not an integer within 1..=1024"),
                // The width is echoed as parsed: `{}` once spelled 1e-300
                // out in 300 digits.
                (
                    vec!["--rps", "100", "--window-ms", "1e-300", "--trace"],
                    "--window-ms 1e-300 cuts the",
                ),
            ];
            cases.extend(sized.map(|(args, complaint)| (args, complaint.to_string())));
        }
        if bin == "xval" {
            // Both once panicked with exit 101: a group too thin to fit is
            // refused before anything simulates, and one whose samples are
            // all alike (every graph at the 32-node floor) before anything
            // prints.
            let unfit = [
                (
                    vec!["--fit", "--dataset", "cora"],
                    "--fit needs more than 9 samples in every tile x HBM group; the t4/hbm2 \
                     group has 4",
                ),
                (
                    vec![
                        "--fit", "--shrink", "64", "--tile", "t4", "--tile", "t16", "--tile", "t64",
                    ],
                    "--fit cannot solve the t4/hbm2 group: its samples are too alike",
                ),
            ];
            cases.extend(unfit.map(|(args, complaint)| (args, complaint.to_string())));
        }
        for (args, complaint) in cases {
            let output = Command::new(exe).args(&args).output().expect("spawn binary");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(output.status.code(), Some(2), "{bin} {args:?}: exit code\n{stderr}");
            assert!(stderr.starts_with(&complaint), "{bin} {args:?}: complaint first\n{stderr}");
            assert!(stderr.contains(&format!("usage: {bin} ")), "{bin} {args:?}: usage\n{stderr}");
            assert!(output.stdout.is_empty(), "{bin} {args:?}: nothing may run before the exit");
            if args == ["nosuch"] {
                let listed = |a: &neura_bench::paper::Row| {
                    stderr.contains(&format!("\n  {:<9} {}", a.name, a.title))
                };
                assert!(neura_bench::paper::ARTIFACTS.iter().all(listed), "names\n{stderr}");
            }
        }
    }
    // A set-but-malformed environment knob ends the run the same way (no
    // usage text: no flag is at fault); it once panicked with exit 101.
    let output =
        Command::new(PAPER).arg("table1").env("NEURA_LAB_THREADS", "zero").output().expect("spawn");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "NEURA_LAB_THREADS=zero: exit code\n{stderr}");
    assert_eq!(stderr, "NEURA_LAB_THREADS=\"zero\" is not a positive integer\n");
    assert!(output.stdout.is_empty(), "NEURA_LAB_THREADS=zero: nothing may run before the exit");
}

/// A cell the chip cannot simulate ends `xval` and `profile` with exit code
/// 1 and one line naming the cell and the wedge: `cit-Patents` does not
/// drain on Tile-4 (both tools once panicked on it with exit 101).
#[test]
fn a_wedged_cell_exits_1_with_one_line() {
    let wedge = "simulation wedged: no progress after cycle 68935 \
                 (180345 partial products outstanding)";
    for (bin, exe) in [("xval", XVAL), ("profile", PROFILE)] {
        let output = Command::new(exe)
            .args(["--dataset", "cit-Patents", "--tile", "t4", "--hbm", "hbm2"])
            .output()
            .expect("spawn binary");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{bin}: exit code\n{stderr}");
        assert_eq!(stderr, format!("{bin}: cannot simulate cit-Patents on t4 at hbm2: {wedge}\n"));
    }
}
