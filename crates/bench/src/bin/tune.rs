//! `ChipConfig` auto-tuner: successive halving over a coarse design-space
//! grid, per dataset, with the paper-default Tile-16 chip as the baseline.
//!
//! The search grid covers the MMH tile height, HashPad size and the
//! scaling axes the paper does not sweep (NeuraCores per tile, router
//! buffering, HBM preset); early rungs run on further-shrunk workloads and
//! survivors are re-simulated at increasing fidelity (see
//! `neura_lab::tune`). A candidate the chip cannot finish — its run wedges
//! — scores `+inf`, so the ladder ranks it last, and its record carries the
//! cycle the run stopped moving at and the partial products it left
//! outstanding. Run with
//! `cargo run --release -p neura_bench --bin tune` (add `--json [path]`
//! for a machine-readable artifact). Flags:
//!
//! - `--dataset NAME` — tune for one dataset (repeatable; default: the
//!   whole Table-1 SpGEMM suite)
//! - `--objective cycles|energy-delay|speedup|serve-p99` — what to
//!   minimise (default `cycles`; `speedup` minimises execution time and
//!   reports the factor over the paper default; `serve-p99` scores each
//!   candidate by its p99 *serving* latency under a reference request
//!   stream — queueing included — calibrated to ~80% load on the
//!   paper-default chip, so the tuner optimises for tails under load
//!   instead of single-kernel cycles)
//! - `--budget N` — cap total simulations per dataset (rung 0, the full
//!   grid, plus one baseline run always execute; a truncated ladder stays
//!   at its reduced fidelity; default: unlimited, i.e. the full halving
//!   ladder)
//! - `--cost-model cycle|analytic|hybrid` — how rungs are priced (default
//!   `cycle`: every evaluation is a cycle-level simulation; `analytic`:
//!   every rung scores candidates with the closed-form
//!   `neura_chip::analytic` estimate in nanoseconds; `hybrid`: analytic
//!   screening on every rung except the last — only the final rung and the
//!   baseline comparison re-score on the cycle oracle, so the reported
//!   winner is simulator-verified at a fraction of the simulations)

use neura_bench::{exit_wedged, price_class, sim_matrix_at_fidelity, REQUEST_SHRINKS, STREAM_SEED};
use neura_chip::accelerator::{Accelerator, ChipError};
use neura_chip::analytic::{AnalyticModel, WorkloadFeatures};
use neura_chip::config::{ChipConfig, HbmPreset};
use neura_lab::spec::derive_seed;
use neura_lab::{
    fmt, print_table, Artifact, Evaluation, Flags, Objective, Runner, SweepGrid, TuneOutcome,
    TuneSpec, Tuner,
};
use neura_serve::cost::CostModel;
use neura_serve::{
    simulate_config_parallel, ArrivalProcess, CostTable, DispatchKind, EnginePlan, Policy,
    RequestClass, ServeConfig, ShardGroup, StreamSpec, Workload,
};
use neura_sparse::{CsrMatrix, DatasetCatalog};

/// The coarse search grid for one dataset. Every axis includes the paper
/// default, so the baseline configuration is itself a grid member.
fn tune_grid(dataset: &str) -> SweepGrid {
    SweepGrid::new()
        .datasets([dataset])
        .mmh_tiles([2, 4, 8])
        .hashlines([1024, 2048, 4096])
        .cores_per_tile([4, 8])
        .router_buffers([8, 16])
        .hbm_presets([HbmPreset::Hbm2, HbmPreset::Hbm2DualStack])
}

fn usage() -> String {
    "usage: tune [--json [PATH]] [--dataset NAME]... [--objective OBJ] [--budget N]\n\
     \x20           [--cost-model M]\n\
     \n\
     --json [PATH]    write a machine-readable artifact (default: target/artifacts/tune.json)\n\
     --dataset NAME   tune for this dataset (repeatable; default: the Table-1 SpGEMM suite)\n\
     --objective OBJ  cycles | energy-delay | speedup | serve-p99 (default: cycles;\n\
     \x20                serve-p99 scores p99 serving latency under a reference stream)\n\
     --budget N       max simulations per dataset; rung 0 + one baseline run always\n\
     \x20                execute, truncated ladders stay at reduced fidelity (default: unlimited)\n\
     --cost-model M   cycle | analytic | hybrid (default: cycle — every rung simulates;\n\
     \x20                analytic prices all rungs with the closed-form model; hybrid screens\n\
     \x20                with it and re-scores only the final rung + baseline on the oracle)"
        .to_string()
}

/// Which tier prices one evaluation: the cycle-level oracle (`true`) or
/// the closed-form analytic estimate. `hybrid` screens with the estimate
/// and keeps the oracle for the final rung and the baseline comparison.
fn exact_tier(cost_model: CostModel, is_final: bool) -> bool {
    match cost_model {
        CostModel::Cycle => true,
        CostModel::Analytic => false,
        CostModel::Hybrid => is_final,
    }
}

/// Prices the per-class costs of `config` on one rung's class workloads
/// (a matrix per [`REQUEST_SHRINKS`] entry), as a single-fingerprint cost
/// table, on the tier `exact` selects (see [`price_class`]).
///
/// # Errors
///
/// Returns [`ChipError::Wedged`] when the chip stops moving on a class.
fn class_costs(
    config: &ChipConfig,
    workloads: &[CsrMatrix],
    exact: bool,
) -> Result<CostTable, ChipError> {
    let mut costs = CostTable::new();
    let fingerprint = costs.register(config);
    for (shrink, a) in REQUEST_SHRINKS.into_iter().zip(workloads) {
        let cost = price_class(config, a, exact, None)?;
        costs.insert(&fingerprint, RequestClass { dataset: 0, shrink }, cost);
    }
    Ok(costs)
}

/// The evaluation of a candidate whose run wedged: a `+inf` score, ranked
/// last, with where the run stopped moving as its metrics.
fn wedged(error: ChipError) -> Evaluation {
    let ChipError::Wedged { cycle, outstanding_haccs } = error else {
        unreachable!("a self-product's operands agree in shape: {error}");
    };
    Evaluation::scored(f64::INFINITY)
        .with_metric("wedged_at_cycle", cycle as f64, "cycles")
        .with_metric("outstanding_haccs", outstanding_haccs as f64, "count")
}

/// The serve-p99 evaluator: every candidate serves the *same* reference
/// stream per fidelity — Poisson arrivals at ~80% of the paper-default
/// chip's capacity, ~2000 requests — on a single shard of its own silicon,
/// and is scored by the p99 latency of the replay. Queueing is part of the
/// score: a config that shaves service time also drains its queue sooner,
/// which is exactly the production trade-off single-kernel objectives miss.
fn run_serve_p99(
    tuner: &Tuner,
    runner: &Runner,
    dataset: &str,
    cost_model: CostModel,
) -> TuneOutcome {
    let baseline = tuner.spec().base.clone();
    // Reference-stream calibration follows the model's cheap tier (the
    // stream only sets arrivals and is identical for every candidate of a
    // rung, so the winner/baseline comparison stays fair either way).
    let exact_references = exact_tier(cost_model, false);
    let references: Vec<(usize, [CsrMatrix; 3], Workload)> = tuner
        .shrinks()
        .into_iter()
        .map(|rung_shrink| {
            let workloads =
                REQUEST_SHRINKS.map(|class| sim_matrix_at_fidelity(dataset, rung_shrink * class));
            let costs = class_costs(&baseline, &workloads, exact_references)
                .unwrap_or_else(|e| exit_wedged("tune", dataset, baseline.tile_size, None, &e));
            let classes = REQUEST_SHRINKS.map(|shrink| RequestClass { dataset: 0, shrink });
            let service_s = costs.mean_service_seconds(&baseline.fingerprint(), &classes);
            let rps = (0.8 / service_s).max(1.0).round();
            let duration_s = (2_000.0 / rps).clamp(1e-3, 2.0);
            let stream = StreamSpec {
                arrival: ArrivalProcess::Poisson,
                rps,
                duration_s,
                mix_size: 1,
                shrinks: REQUEST_SHRINKS.to_vec(),
                seed: derive_seed(STREAM_SEED, &format!("tune/{dataset}/x{rung_shrink}")),
            }
            .generate();
            (rung_shrink, workloads, Workload::Replay(stream))
        })
        .collect();
    tuner.run(runner, |point, ctx| {
        let (_, workloads, stream) = references
            .iter()
            .find(|(s, ..)| *s == ctx.shrink)
            .expect("every planned shrink has a reference stream");
        let costs =
            match class_costs(&point.config, workloads, exact_tier(cost_model, ctx.is_final)) {
                Ok(costs) => costs,
                Err(error) => return wedged(error),
            };
        let fleet = [ShardGroup::new("cand", point.config.clone(), 1)];
        let cfg = ServeConfig::new(Policy::Fifo, &fleet, DispatchKind::LeastLoaded, &costs);
        let outcome = simulate_config_parallel(stream, &cfg, &EnginePlan::serial());
        let p99 = outcome.latency_percentile_s(99.0);
        Evaluation::scored(p99)
            .with_metric("p99_latency_ms", p99 * 1e3, "ms")
            .with_metric("mean_latency_ms", outcome.mean_latency_s() * 1e3, "ms")
            .with_metric("throughput_rps", outcome.throughput_rps(), "req/s")
            .with_metric("queue_depth_mean", outcome.queue_depth_mean, "req")
    })
}

/// The kernel objectives (cycles, energy-delay, speedup): every candidate
/// multiplies the dataset's workload at the rung's fidelity — on the cycle
/// oracle, whose report backs the score and the record, or priced by the
/// analytic model in nanoseconds. Under `hybrid` the final rung and the
/// baseline re-score on the oracle, so the reported winner and its
/// improvement factor are simulator-verified.
fn run_kernel(
    tuner: &Tuner,
    runner: &Runner,
    dataset: &str,
    objective: Objective,
    cost_model: CostModel,
) -> TuneOutcome {
    // One workload per fidelity, generated up front so every rung (and
    // every thread) reuses the same deterministic matrix and features.
    let workloads: Vec<(usize, CsrMatrix, WorkloadFeatures)> = tuner
        .shrinks()
        .into_iter()
        .map(|shrink| {
            let a = sim_matrix_at_fidelity(dataset, shrink);
            let features = WorkloadFeatures::from_square(&a);
            (shrink, a, features)
        })
        .collect();
    tuner.run(runner, |point, ctx| {
        let (_, a, features) = workloads
            .iter()
            .find(|(shrink, ..)| *shrink == ctx.shrink)
            .expect("every planned shrink has a workload");
        if exact_tier(cost_model, ctx.is_final) {
            match Accelerator::new(point.config.clone()).run_spgemm(a, a) {
                Ok(run) => Evaluation::simulated(objective, &point.config, run.report),
                Err(error) => wedged(error),
            }
        } else {
            let config = &point.config;
            let cycles = AnalyticModel::calibrated().cycles(config, features);
            let score = objective.score(config, cycles, cycles * config.seconds_per_cycle());
            Evaluation::scored(score).with_metric("analytic_cycles", cycles, "cycles")
        }
    })
}

fn main() {
    let mut datasets: Vec<String> = Vec::new();
    let mut objective = Objective::Cycles;
    let mut budget = usize::MAX;
    let mut cost_model = CostModel::default();
    let mut json_path = None;

    let mut flags = Flags::from_env(usage());
    while let Some(arg) = flags.next() {
        match arg.as_str() {
            "--dataset" => datasets.push(neura_bench::dataset_flag(&mut flags)),
            "--objective" => {
                objective = flags.known("--objective", "objective", Objective::parse);
            }
            "--budget" => {
                budget = flags.parsed("--budget", "a positive integer", Flags::at_least_one);
            }
            "--cost-model" => {
                cost_model = flags.known("--cost-model", "cost model", CostModel::parse);
            }
            "--json" => json_path = Some(flags.artifact_path("tune")),
            "--help" | "-h" => flags.help(),
            other => flags.bad_usage(&format!("unrecognised argument {other:?}")),
        }
    }
    if datasets.is_empty() {
        datasets = DatasetCatalog::spgemm_suite().iter().map(|d| d.name.to_string()).collect();
    }

    let mut artifact = Artifact::new("tune", 1);
    let runner = Runner::from_env();

    let mut rows = Vec::new();
    for dataset in &datasets {
        let spec = TuneSpec::new("tune", ChipConfig::tile_16(), tune_grid(dataset), objective)
            .with_budget(budget);
        let tuner = Tuner::new(spec);
        let outcome = if objective == Objective::ServeP99 {
            run_serve_p99(&tuner, &runner, dataset, cost_model)
        } else {
            run_kernel(&tuner, &runner, dataset, objective, cost_model)
        };

        // Serving tails are sub-millisecond on the smaller datasets: print
        // them in ms so the table stays legible at every fidelity.
        let (scale, digits) = if objective == Objective::ServeP99 { (1e3, 4) } else { (1.0, 3) };
        rows.push(vec![
            dataset.clone(),
            outcome.best.id.strip_prefix("tune/").unwrap_or(&outcome.best.id).to_string(),
            fmt(outcome.best_score * scale, digits),
            fmt(outcome.baseline_score * scale, digits),
            fmt(outcome.improvement_vs_default(), 3),
            outcome.rungs.len().to_string(),
            outcome.evaluations.to_string(),
        ]);
        artifact.extend(outcome.records().iter().cloned());
    }

    print_table(
        &format!("Auto-tuner: best ChipConfig per dataset (objective: {})", objective.name()),
        &[
            "Dataset",
            "Best configuration",
            &format!(
                "Best ({})",
                if objective == Objective::ServeP99 { "ms" } else { objective.unit() }
            ),
            "Paper default",
            "Improvement",
            "Rungs",
            "Sims",
        ],
        &rows,
    );
    println!(
        "\nSuccessive halving over a {}-point grid per dataset (MMH tile x HashPad x\n\
         cores/tile x router buffer x HBM preset); early rungs simulate shrunk\n\
         workloads, survivors graduate to full fidelity. The best configuration is\n\
         compared against the paper-default Tile-16 chip at equal fidelity and seed,\n\
         so it is never worse on the chosen objective.",
        tune_grid("cora").len(),
    );

    if let Some(path) = &json_path {
        artifact.write_or_exit(path);
    }
}
