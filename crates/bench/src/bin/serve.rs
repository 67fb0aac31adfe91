//! Request-stream serving simulation: open- and closed-loop workloads,
//! batching policies, heterogeneous multi-chip sharding with class-aware
//! dispatch and an autoscaled arm, over the cycle-level NeuraChip model
//! (see `neura_serve`). Run with
//! `cargo run --release -p neura_bench --bin serve` (add `--json [path]`
//! for a machine-readable artifact). Flags:
//!
//! - `--arrival poisson|bursty` — arrival process (repeatable; default
//!   `poisson`)
//! - `--rps X` — mean arrival rate in requests/second (repeatable; default:
//!   auto-calibrated to ~80% offered load on one reference shard, so
//!   queueing is visible at every scale multiplier)
//! - `--policy fifo|sjf|batch` — scheduling/batching policy (repeatable;
//!   default: all three)
//! - `--shards N` — homogeneous Tile-16 fleet of N shards (repeatable;
//!   default fleets: 1, 2 and 4 Tile-16 shards)
//! - `--fleet SPEC` — fleet mix like `t16x4` or `t64x1+t4x4` (repeatable)
//! - `--dispatch least-loaded|affinity|cost` — dispatch policy
//!   (repeatable; default `least-loaded`)
//! - `--clients N` — add a closed-loop arm with N clients (repeatable)
//! - `--think-ms X` — closed-loop mean think time (default: derived from
//!   the memoised costs for ~80% offered load)
//! - `--autoscale MIN:MAX` — autoscale every scenario between MIN and MAX
//!   shards per group; `--provision-ms X` / `--check-ms X` tune the
//!   controller (defaults derived from the mean service time)
//! - `--duration SECONDS` — simulated horizon (default 2.0, shortened at
//!   the auto rate so streams stay ~20k requests)
//! - `--dataset NAME` — serving-mix dataset (repeatable; default cora,
//!   wiki-Vote, facebook)
//! - `--max-batch N` / `--batch-timeout-ms X` — knobs of the `batch` policy
//!   (the timeout defaults to 20x the mean service time)
//! - `--scenario NAME` — run a named library scenario arm (repeatable;
//!   `all` = the whole library; without the flag the whole library rides
//!   along with the default arms)
//! - `--queue-bound N` — bound every plain arm's backlog; arrivals beyond
//!   it are shed and accounted
//! - `--tenant SPEC` — a `name:weight[:limit_rps[:slo_ms]]` tenant
//!   (repeatable; wraps the plain open arms in a multi-tenant mix with
//!   token-bucket rate limits and per-tenant SLO attainment)
//! - `--fault SPEC` — a fault regime like `crash2+pf0.5+deg0x3.0` injected
//!   into the plain arms (seed-derived crash times, provisioning failure
//!   probability, degraded-group service multipliers)
//! - `--trace [PATH]` — record every scenario's request lifecycle and
//!   emit a windowed `neura_lab.timeline/v1` artifact beside the run
//!   artifact (default `target/artifacts/timeline.json`); `--window-ms X`
//!   fixes the window width (default: 1/50th of the horizon)
//! - `--profile [PATH]` — attach the chip profiler to the per-class cost
//!   simulations (cycle cost model only) and emit one
//!   `neura_lab.profile/v1` profile per (chip fingerprint, request class)
//!   beside the run artifact (default `target/artifacts/serve-profile.json`)
//! - `--epochs N` — run every scenario replay through the
//!   parallel-in-time engine (`neura_serve::engine`): the timeline splits
//!   into N equal epochs whose fragments replay concurrently and merge at
//!   the boundaries; the merged artifact is byte-identical to the serial
//!   replay
//! - `--lanes L` — split eligible closed-loop scenarios into L independent
//!   client/shard lanes that replay concurrently (a *scenario parameter*:
//!   results are thread-count invariant at a fixed lane count)
//! - `--no-meta` — suppress the wall-clock/engine meta fields in the
//!   artifact, so byte-comparison across thread counts stays exact
//!
//! Without fleet/dispatch/clients/autoscale flags, three comparison arms
//! ride along with the classic shard-scaling sweep: a heterogeneous
//! Tile-64+Tile-4 fleet against a homogeneous equal-shard Tile-16 fleet
//! under all three dispatch policies, a closed-loop arm directly
//! comparable to its open-loop twin, and an autoscaled arm reporting
//! shard-seconds cost against the p99 it buys — plus every scenario of
//! [`ScenarioSpec::library`] as a named `scn-*` arm on a two-shard Tile-16
//! fleet, its rate calibrated to `load x fleet capacity` (diurnal and
//! flash-crowd waves, a 3x overload against a bounded queue, a
//! rate-limited tenant mix, shard crashes recovering through the
//! autoscaler, and degraded silicon under flaky provisioning). Cycle
//! costs are memoised once per (chip fingerprint, request class) — groups
//! sharing silicon share the memo — and every serving arm of a workload
//! replays the identical demand.

use neura_baselines::workload::WorkloadProfile;
use neura_bench::{fmt, print_table, sim_matrix_at_fidelity, REQUEST_SHRINKS, STREAM_SEED};
use neura_chip::accelerator::Accelerator;
use neura_chip::analytic::WorkloadFeatures;
use neura_chip::config::{ChipConfig, TileSize};
use neura_chip::profile::{Profile, Profiler, DEFAULT_WINDOW_CYCLES};
use neura_lab::spec::derive_seed;
use neura_lab::{
    profile_records, Artifact, ArtifactSession, Flags, RunRecord, Runner, PROFILE_SCHEMA,
    TIMELINE_SCHEMA,
};
use neura_serve::cost::{analytic_class_cost, hybrid_scaled_cycles, CostModel};
use neura_serve::policy::{DEFAULT_BATCH_TIMEOUT_S, DEFAULT_MAX_BATCH};
use neura_serve::{
    simulate_config_parallel, simulate_config_traced_parallel, ArrivalProcess, AutoscalePolicy,
    ClassCost, CostTable, DispatchKind, EnginePlan, FaultSpec, FleetMix, Policy, RateShape,
    RequestClass, ScenarioSpec, ServeConfig, ServeScenario, ServeSweep, ShapedStream, TenantMix,
    TenantSpec, Timeline, Workload, WorkloadAxis, MAX_STREAM_REQUESTS, MAX_TIMELINE_WINDOWS,
};
use neura_sparse::DatasetCatalog;

/// Clients of the default closed-loop arm.
const DEFAULT_CLIENTS: usize = 64;

/// The most clients a `--clients` population may have: each gets its own
/// seeded RNG stream before the replay starts.
const MAX_CLIENTS: usize = 1 << 20;

/// The most shard slots one fleet may hold, however they are asked for
/// (`--shards`, `--fleet`, the upper bound of `--autoscale`): every slot is
/// allocated up front and every event walks all of them.
const MAX_FLEET_SHARDS: usize = 1 << 12;

fn usage() -> String {
    let mut text =
        "usage: serve [--json [PATH]] [--arrival A]... [--rps X]... [--policy P]... [--shards N]...\n\
     \x20            [--fleet SPEC]... [--dispatch D]... [--clients N]... [--think-ms X]\n\
     \x20            [--autoscale MIN:MAX] [--provision-ms X] [--check-ms X]\n\
     \x20            [--duration S] [--dataset NAME]... [--max-batch N] [--batch-timeout-ms X]\n\
     \x20            [--scenario NAME]... [--queue-bound N] [--tenant SPEC]... [--fault SPEC]\n\
     \x20            [--trace [PATH]] [--profile [PATH]] [--window-ms X] [--cost-model M]\n\
     \x20            [--epochs N] [--lanes L] [--no-meta]\n\
     \n\
     --json [PATH]         write a machine-readable artifact (default: target/artifacts/serve.json)\n\
     --arrival A           poisson | bursty (repeatable; default: poisson)\n\
     --rps X               mean arrival rate in requests/second (repeatable; default: auto,\n\
     \x20                    ~80% offered load on a single reference shard)\n\
     --policy P            fifo | sjf | batch (repeatable; default: fifo, sjf, batch)\n\
     --shards N            homogeneous Tile-16 fleet of N shards (repeatable)\n\
     --fleet SPEC          fleet mix, e.g. t16x4 or t64x1+t4x4 (repeatable; default: t16x1,\n\
     \x20                    t16x2, t16x4 plus hetero/closed/autoscaled comparison arms)\n\
     --dispatch D          least-loaded | affinity | cost (repeatable; default: least-loaded)\n\
     --clients N           add a closed-loop arm with N clients (repeatable)\n\
     --think-ms X          closed-loop mean think time (default: ~80% offered load)\n\
     --autoscale MIN:MAX   autoscale every scenario between MIN and MAX shards per group\n\
     --provision-ms X      autoscaler provisioning delay (default: 25x mean service)\n\
     --check-ms X          autoscaler decision interval (default: 5x mean service)\n\
     --duration S          simulated horizon in seconds (default: 2.0, shortened at the\n\
     \x20                    auto rate so streams stay ~20k requests)\n\
     --dataset NAME        serving-mix dataset (repeatable; default: cora, wiki-Vote, facebook)\n\
     --max-batch N         batch policy: largest batch size (default: 8)\n\
     --batch-timeout-ms X  batch policy: partial-batch flush timeout (default: 20x the\n\
     \x20                    mean service time)\n\
     --scenario NAME       named library scenario arm (repeatable; \"all\" = the whole library;\n\
     \x20                    default: the library rides along with the default arms)\n\
     --queue-bound N       bound every plain arm's backlog; arrivals beyond it are shed\n\
     --tenant SPEC         tenant as name:weight[:limit_rps[:slo_ms]] (repeatable; wraps the\n\
     \x20                    plain open arms in a multi-tenant mix; 0 = no limit / no SLO)\n\
     --fault SPEC          fault regime for the plain arms, e.g. crash2+pf0.5+deg0x3.0\n\
     --trace [PATH]        record request lifecycles and write a windowed neura_lab.timeline/v1\n\
     \x20                    artifact (default: target/artifacts/timeline.json)\n\
     --profile [PATH]      profile the per-class cost simulations (cycle cost model only) and\n\
     \x20                    write a neura_lab.profile/v1 artifact (default:\n\
     \x20                    target/artifacts/serve-profile.json)\n\
     --window-ms X         timeline window width (default: 1/50th of the horizon)\n\
     --cost-model M        cycle | analytic | hybrid — how request classes are priced\n\
     \x20                    (default: cycle = the cycle-accurate oracle; analytic = the\n\
     \x20                    closed-form neura_chip::analytic estimate, no simulations;\n\
     \x20                    hybrid = analytic rescaled through one cycle anchor per silicon)\n\
     --epochs N            replay each scenario as N parallel-in-time epoch fragments\n\
     \x20                    (merged results are byte-identical to the serial replay)\n\
     --lanes L             split eligible closed-loop scenarios into L parallel\n\
     \x20                    client/shard lanes (a scenario parameter, not a tuning knob)\n\
     --no-meta             omit wall-clock/engine meta fields from the artifact (exact\n\
     \x20                    byte-comparison across thread counts)\n\
     scenario library:"
        .to_string();
    for sc in ScenarioSpec::library() {
        text.push_str(&format!("\n       {:<10}{}", sc.name, sc.summary));
    }
    text
}

struct Args {
    arrivals: Vec<ArrivalProcess>,
    rps: Vec<f64>,
    policy_names: Vec<String>,
    fleets: Vec<FleetMix>,
    dispatches: Vec<DispatchKind>,
    clients: Vec<usize>,
    think_ms: Option<f64>,
    autoscale: Option<(usize, usize)>,
    provision_ms: Option<f64>,
    check_ms: Option<f64>,
    duration_s: f64,
    duration_given: bool,
    mix: Vec<String>,
    max_batch: usize,
    batch_timeout_s: f64,
    batch_timeout_given: bool,
    scenarios: Vec<String>,
    queue_bound: Option<usize>,
    tenants: Vec<TenantSpec>,
    fault: Option<String>,
    trace: bool,
    trace_path: Option<String>,
    profile: bool,
    profile_path: Option<String>,
    window_ms: Option<f64>,
    cost_model: CostModel,
    epochs: Option<usize>,
    lanes: Option<usize>,
    no_meta: bool,
    passthrough: Vec<String>,
}

fn parse_args() -> (Args, Flags) {
    let mut parsed = Args {
        arrivals: Vec::new(),
        rps: Vec::new(),
        policy_names: Vec::new(),
        fleets: Vec::new(),
        dispatches: Vec::new(),
        clients: Vec::new(),
        think_ms: None,
        autoscale: None,
        provision_ms: None,
        check_ms: None,
        duration_s: 2.0,
        duration_given: false,
        mix: Vec::new(),
        max_batch: DEFAULT_MAX_BATCH,
        batch_timeout_s: DEFAULT_BATCH_TIMEOUT_S,
        batch_timeout_given: false,
        scenarios: Vec::new(),
        queue_bound: None,
        tenants: Vec::new(),
        fault: None,
        trace: false,
        trace_path: None,
        profile: false,
        profile_path: None,
        window_ms: None,
        cost_model: CostModel::default(),
        epochs: None,
        lanes: None,
        no_meta: false,
        passthrough: Vec::new(),
    };
    let mut flags = Flags::from_env(usage());
    while let Some(arg) = flags.next() {
        match arg.as_str() {
            "--arrival" => {
                parsed.arrivals.push(flags.known(
                    "--arrival",
                    "arrival process",
                    ArrivalProcess::parse,
                ));
            }
            "--rps" => parsed.rps.push(flags.parsed("--rps", "a positive rate", Flags::positive)),
            "--policy" => {
                let raw = flags.value("--policy");
                if Policy::parse(&raw).is_none() {
                    flags.bad_usage(&format!("unknown policy {raw:?}"));
                }
                parsed.policy_names.push(raw);
            }
            "--shards" => {
                let n = flags.parsed("--shards", "a positive integer", Flags::at_least_one);
                parsed.fleets.push(FleetMix::uniform(TileSize::Tile16, n));
            }
            "--fleet" => {
                let raw = flags.value("--fleet");
                parsed.fleets.push(
                    FleetMix::parse(&raw).unwrap_or_else(|| {
                        flags.bad_usage(&format!("unparseable fleet mix {raw:?}"))
                    }),
                );
            }
            "--dispatch" => {
                parsed.dispatches.push(flags.known(
                    "--dispatch",
                    "dispatch policy",
                    DispatchKind::parse,
                ));
            }
            "--clients" => {
                parsed.clients.push(flags.parsed(
                    "--clients",
                    &format!("an integer within 1..={MAX_CLIENTS}"),
                    |n| (1..=MAX_CLIENTS).contains(n),
                ));
            }
            "--think-ms" => {
                parsed.think_ms =
                    Some(flags.parsed("--think-ms", "a think time", Flags::non_negative));
            }
            "--autoscale" => {
                let raw = flags.value("--autoscale");
                let bounds = raw.split_once(':').and_then(|(lo, hi)| {
                    let lo = lo.parse::<usize>().ok().filter(|&n| n >= 1)?;
                    let hi = hi.parse::<usize>().ok().filter(|&n| n >= lo)?;
                    Some((lo, hi))
                });
                parsed.autoscale = Some(bounds.unwrap_or_else(|| {
                    flags.bad_usage(&format!(
                        "--autoscale {raw:?} is not MIN:MAX with 1 <= MIN <= MAX"
                    ))
                }));
            }
            "--provision-ms" => {
                parsed.provision_ms =
                    Some(flags.parsed("--provision-ms", "a delay", Flags::non_negative));
            }
            "--check-ms" => {
                parsed.check_ms = Some(flags.parsed("--check-ms", "an interval", Flags::positive));
            }
            "--duration" => {
                parsed.duration_s =
                    flags.parsed("--duration", "a positive duration", Flags::positive);
                parsed.duration_given = true;
            }
            "--dataset" => {
                let name = flags.value("--dataset");
                if DatasetCatalog::by_name(&name).is_none() {
                    flags.bad_usage(&format!("dataset {name:?} is not in the catalog"));
                }
                parsed.mix.push(name);
            }
            "--max-batch" => {
                parsed.max_batch =
                    flags.parsed("--max-batch", "a positive integer", Flags::at_least_one);
            }
            "--batch-timeout-ms" => {
                let ms: f64 = flags.parsed("--batch-timeout-ms", "a timeout", Flags::non_negative);
                parsed.batch_timeout_s = ms / 1e3;
                parsed.batch_timeout_given = true;
            }
            "--scenario" => {
                let raw = flags.value("--scenario");
                if raw.eq_ignore_ascii_case("all") {
                    parsed.scenarios.extend(ScenarioSpec::names().iter().map(|n| n.to_string()));
                } else if let Some(spec) = ScenarioSpec::by_name(&raw) {
                    parsed.scenarios.push(spec.name.to_string());
                } else {
                    flags.bad_usage(&format!(
                        "unknown scenario {raw:?}; the library has: {}",
                        ScenarioSpec::names().join(", ")
                    ));
                }
            }
            "--queue-bound" => {
                parsed.queue_bound = Some(flags.parsed("--queue-bound", "an integer", |_| true));
            }
            "--tenant" => {
                let raw = flags.value("--tenant");
                let tenant = TenantMix::parse_tenant(&raw).unwrap_or_else(|| {
                    flags.bad_usage(&format!(
                        "--tenant {raw:?} is not name:weight[:limit_rps[:slo_ms]]"
                    ))
                });
                if parsed.tenants.iter().any(|t| t.name == tenant.name) {
                    flags.bad_usage(&format!("duplicate tenant name {:?}", tenant.name));
                }
                parsed.tenants.push(tenant);
            }
            "--fault" => {
                let raw = flags.value("--fault");
                // Validate the fragment now; the real spec is rebuilt per
                // arm with a seed derived from the arm's workload seed.
                if FaultSpec::parse(&raw, 0, 1.0).is_none() {
                    flags.bad_usage(&format!(
                        "--fault {raw:?} is not a crashN/pfX/degGxM regime like crash2+pf0.5"
                    ));
                }
                parsed.fault = Some(raw);
            }
            "--trace" => {
                parsed.trace = true;
                parsed.trace_path = flags.optional_path();
            }
            "--profile" => {
                parsed.profile = true;
                parsed.profile_path = flags.optional_path();
            }
            "--window-ms" => {
                parsed.window_ms =
                    Some(flags.parsed("--window-ms", "a positive width", Flags::positive));
            }
            "--cost-model" => {
                parsed.cost_model = flags.known("--cost-model", "cost model", CostModel::parse);
            }
            "--epochs" => {
                parsed.epochs =
                    Some(flags.parsed("--epochs", "a positive integer", Flags::at_least_one));
            }
            "--lanes" => {
                parsed.lanes =
                    Some(flags.parsed("--lanes", "a positive integer", Flags::at_least_one));
            }
            "--no-meta" => parsed.no_meta = true,
            "--help" | "-h" => flags.help(),
            // Only --json [PATH] is forwarded to the artifact session.
            "--json" => {
                parsed.passthrough.push(arg);
                parsed.passthrough.extend(flags.optional_path());
            }
            other => flags.bad_usage(&format!("unrecognised argument {other:?}")),
        }
    }
    if parsed.mix.is_empty() {
        parsed.mix = vec!["cora".to_string(), "wiki-Vote".to_string(), "facebook".to_string()];
    }
    (parsed, flags)
}

/// A stream is materialised whole before its replay starts, so a rate and
/// a duration whose product passes [`MAX_STREAM_REQUESTS`] are a usage
/// error here — not the panic `StreamSpec::generate` would answer with,
/// nor the allocation failure (or, at `--rps 1e300`, the endless loop) that
/// came before it.
fn refuse_oversized_stream(flags: &Flags, what: &str, rps: f64, duration_s: f64) {
    if rps * duration_s > MAX_STREAM_REQUESTS as f64 {
        flags.bad_usage(&format!(
            "{what} expects {:?} requests over the {duration_s:?} s duration, and a stream holds \
             at most {MAX_STREAM_REQUESTS}; the longest --duration that rate accepts is {:?}",
            rps * duration_s,
            MAX_STREAM_REQUESTS as f64 / rps
        ));
    }
}

/// Writes a side artifact (`--trace`, `--profile`) where its flag said, or
/// at its default path.
fn write_side_artifact(artifact: &Artifact, path: Option<&str>, default_stem: &str) {
    let path = path.map_or_else(|| Artifact::default_path(default_stem), std::path::PathBuf::from);
    artifact.write(&path).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("wrote {} ({} records)", path.display(), artifact.records.len());
}

fn main() {
    let (mut args, flags) = parse_args();
    // An explicit rate keeps --duration as typed, so its streams can be
    // sized before anything runs; the calibrated rates are checked below,
    // once the cost table they derive from exists.
    for &rps in &args.rps {
        refuse_oversized_stream(&flags, &format!("--rps {rps:?}"), rps, args.duration_s);
    }
    // Profiles come out of the per-class cycle simulations; the analytic
    // and hybrid models have no (or too few) simulations to attach to.
    if args.profile && args.cost_model != CostModel::Cycle {
        flags.bad_usage(&format!(
            "--profile requires the cycle cost model, but --cost-model {} prices classes \
             without per-class simulations",
            args.cost_model.name()
        ));
    }
    // The comparison arms only ride along when the user has not taken over
    // the fleet-shaped axes.
    let default_arms = args.fleets.is_empty()
        && args.dispatches.is_empty()
        && args.clients.is_empty()
        && args.autoscale.is_none();
    if args.fleets.is_empty() {
        args.fleets =
            vec![1, 2, 4].into_iter().map(|n| FleetMix::uniform(TileSize::Tile16, n)).collect();
    }
    // Every slot of a fleet is allocated before its replay starts — under
    // an autoscaler, up to its upper bound in every group.
    for mix in &args.fleets {
        let slots = mix.groups.iter().fold(0usize, |slots, group| {
            slots.saturating_add(args.autoscale.map_or(group.shards, |(_, max)| max))
        });
        if slots > MAX_FLEET_SHARDS {
            flags.bad_usage(&format!(
                "fleet {:?} holds {slots} shard slots, and a fleet may hold 1..={MAX_FLEET_SHARDS} \
                 (--shards, --fleet and the upper bound of --autoscale all count)",
                mix.id
            ));
        }
    }
    // An autoscaled group must start inside the controller's bounds; catch
    // the mismatch here as a usage error instead of a simulation panic.
    if let Some((min, max)) = args.autoscale {
        for mix in &args.fleets {
            for group in &mix.groups {
                if !(min..=max).contains(&group.shards) {
                    flags.bad_usage(&format!(
                        "--autoscale {min}:{max} is incompatible with fleet {:?}: group {:?} \
                         starts with {} shard(s); pass --fleet/--shards sizes within the bounds",
                        mix.id, group.name, group.shards
                    ));
                }
            }
        }
    }

    // A CLI fault regime that degrades a group no fleet has is a usage
    // error, not a mid-simulation panic.
    if let Some(raw) = &args.fault {
        let spec = FaultSpec::parse(raw, 0, 1.0).expect("validated at parse time");
        for mix in &args.fleets {
            for &(group, _) in &spec.degraded {
                if group >= mix.groups.len() {
                    flags.bad_usage(&format!(
                        "--fault {raw:?} degrades group {group}, but fleet {:?} only has {} \
                         group(s)",
                        mix.id,
                        mix.groups.len()
                    ));
                }
            }
        }
    }
    // Library scenarios: the explicit --scenario list wins; otherwise the
    // whole library rides along with the default comparison arms.
    let mut scenario_specs: Vec<ScenarioSpec> = if args.scenarios.is_empty() {
        if default_arms {
            ScenarioSpec::library()
        } else {
            Vec::new()
        }
    } else {
        args.scenarios
            .iter()
            .map(|name| ScenarioSpec::by_name(name).expect("validated at parse time"))
            .collect()
    };
    let mut seen = std::collections::HashSet::new();
    scenario_specs.retain(|s| seen.insert(s.name));

    let mut session =
        ArtifactSession::from_arg_list("serve", neura_bench::scale_multiplier(), args.passthrough);
    let runner = Runner::from_env();

    // The tile configurations any arm of this run can place shards on.
    let hetero_mix = FleetMix::mixed(&[(TileSize::Tile64, 1), (TileSize::Tile4, 4)]);
    let hetero_peer = FleetMix::uniform(TileSize::Tile16, 5);
    let mut tiles: Vec<TileSize> =
        args.fleets.iter().flat_map(|mix| mix.groups.iter().map(|g| g.config.tile_size)).collect();
    if default_arms {
        tiles.extend([TileSize::Tile4, TileSize::Tile16, TileSize::Tile64]);
    }
    if !scenario_specs.is_empty() {
        // Scenario arms always run on a two-shard Tile-16 fleet.
        tiles.push(TileSize::Tile16);
    }
    tiles.sort_by_key(|t| t.label());
    tiles.dedup();

    // Price one request per (chip fingerprint, class) pair into the shared
    // cost table; every scenario then replays against it. Fleets sharing a
    // configuration share the memo by construction. The default `cycle`
    // model measures each pair with one cycle-level simulation, fanned out
    // on the lab runner; `analytic` prices every pair with the closed-form
    // fast path (no simulations), and `hybrid` anchors the analytic
    // estimates to one cycle measurement per tile configuration.
    let classes: Vec<RequestClass> = args
        .mix
        .iter()
        .enumerate()
        .flat_map(|(dataset, _)| REQUEST_SHRINKS.map(|shrink| RequestClass { dataset, shrink }))
        .collect();
    let work: Vec<(TileSize, RequestClass)> =
        tiles.iter().flat_map(|&tile| classes.iter().map(move |&class| (tile, class))).collect();
    let (measured, chip_profiles): (Vec<ClassCost>, Vec<Option<Profile>>) = match args.cost_model {
        CostModel::Cycle => runner
            .run(&work, |_, (tile, class)| {
                let a = sim_matrix_at_fidelity(&args.mix[class.dataset], class.shrink);
                let mut chip = Accelerator::new(ChipConfig::for_tile_size(*tile));
                // With --profile, the chip profiler rides along on the same
                // memoised simulation; profiling off constructs nothing.
                let mut profiler = args.profile.then(|| Profiler::new(DEFAULT_WINDOW_CYCLES));
                let report = chip
                    .run_spgemm_profiled(&a, &a, profiler.as_mut())
                    .expect("simulation drains")
                    .report;
                let profile = WorkloadProfile::from_square(&args.mix[class.dataset], &a);
                (
                    ClassCost { cycles: report.total_cycles, flops: profile.flops() },
                    profiler.map(Profiler::into_profile),
                )
            })
            .into_iter()
            .unzip(),
        CostModel::Analytic => (
            runner.run(&work, |_, (tile, class)| {
                let a = sim_matrix_at_fidelity(&args.mix[class.dataset], class.shrink);
                let features = WorkloadFeatures::from_square(&a);
                analytic_class_cost(&ChipConfig::for_tile_size(*tile), &features)
            }),
            Vec::new(),
        ),
        CostModel::Hybrid => {
            // Symbolic features per class (cheap) plus one cycle-level
            // anchor simulation per tile: every other (tile, class) pair is
            // the analytic estimate rescaled through its tile's anchor.
            let class_features = runner.run(&classes, |_, class: &RequestClass| {
                let a = sim_matrix_at_fidelity(&args.mix[class.dataset], class.shrink);
                WorkloadFeatures::from_square(&a)
            });
            let anchor = classes[0];
            let anchors = runner.run(&tiles, |_, tile: &TileSize| {
                let a = sim_matrix_at_fidelity(&args.mix[anchor.dataset], anchor.shrink);
                let mut chip = Accelerator::new(ChipConfig::for_tile_size(*tile));
                chip.run_spgemm(&a, &a).expect("simulation drains").report.total_cycles
            });
            let priced = work
                .iter()
                .map(|&(tile, class)| {
                    let config = ChipConfig::for_tile_size(tile);
                    let tile_index = tiles.iter().position(|&t| t == tile).expect("tile listed");
                    let class_index =
                        classes.iter().position(|&c| c == class).expect("class listed");
                    let estimate = analytic_class_cost(&config, &class_features[class_index]);
                    let anchor_estimate = analytic_class_cost(&config, &class_features[0]).cycles;
                    ClassCost {
                        cycles: hybrid_scaled_cycles(
                            estimate.cycles,
                            anchors[tile_index],
                            anchor_estimate,
                        ),
                        flops: estimate.flops,
                    }
                })
                .collect();
            (priced, Vec::new())
        }
    };
    let mut costs = CostTable::new();
    for (&(tile, class), cost) in work.iter().zip(&measured) {
        let fp = costs.register(&ChipConfig::for_tile_size(tile));
        costs.insert(&fp, class, *cost);
        let service_ms = costs.service_seconds(&fp, class, 1) * 1e3;
        let mut record = RunRecord::new(format!(
            "serve/cost/{}/{}/x{}",
            tile.label(),
            args.mix[class.dataset],
            class.shrink
        ))
        .unit_metric("cycles", cost.cycles as f64, "cycles")
        .unit_metric("service_ms", service_ms, "ms")
        .metric("flops", cost.flops as f64);
        record.params.push(("tile".to_string(), tile.label().to_string()));
        record.params.push(("dataset".to_string(), args.mix[class.dataset].clone()));
        record.params.push(("shrink".to_string(), class.shrink.to_string()));
        if args.cost_model != CostModel::Cycle {
            record.params.push(("cost_model".to_string(), args.cost_model.name().to_string()));
        }
        session.push(record);
    }

    // Absolute request rates mean nothing across scale multipliers (a smoke
    // run's requests are thousands of times cheaper than paper-scale ones),
    // so every derived knob — arrival rate, batch timeout, think time,
    // autoscaler cadence — calibrates against the mean service time of the
    // first fleet's leading group. Derived from the memoised cycle costs,
    // so everything stays a pure function of the inputs.
    let ref_fp = args.fleets[0].groups[0].config.fingerprint();
    let mean_service_s = costs.mean_service_seconds(&ref_fp, &classes);
    if !args.batch_timeout_given {
        args.batch_timeout_s = mean_service_s * 20.0;
    }
    let policies: Vec<Policy> = if args.policy_names.is_empty() {
        vec![Policy::Fifo, Policy::Sjf, Policy::batch(args.max_batch, args.batch_timeout_s)]
    } else {
        args.policy_names
            .iter()
            .map(|name| match Policy::parse(name).expect("validated at parse time") {
                Policy::BatchByDataset { .. } => {
                    Policy::batch(args.max_batch, args.batch_timeout_s)
                }
                other => other,
            })
            .collect()
    };
    let mut duration_s = args.duration_s;
    if args.rps.is_empty() {
        let auto_rps = (0.8 / mean_service_s).max(1.0).round();
        // Keep auto-rated streams to ~20k requests so smoke runs (where a
        // request costs microseconds and the rate lands in the millions)
        // stay fast; an explicit --duration wins.
        if !args.duration_given {
            duration_s = f64::min(duration_s, (20_000.0 / auto_rps).max(1e-3));
        }
        println!(
            "auto arrival rate: {auto_rps} req/s (~80% of one reference shard's {:.4} ms mean \
             service), duration {duration_s:.4} s",
            mean_service_s * 1e3,
        );
        args.rps.push(auto_rps);
    }
    // Closed-loop think time: clients cycle once per (think + response), so
    // this targets ~80% offered load — for the user's first client count on
    // their first fleet, or for the default 64-client/two-shard arm.
    let think_s = args.think_ms.map(|ms| ms / 1e3).unwrap_or_else(|| {
        let clients = *args.clients.first().unwrap_or(&DEFAULT_CLIENTS) as f64;
        let shards = if default_arms { 2.0 } else { args.fleets[0].total_shards() as f64 };
        (clients * mean_service_s / (0.8 * shards) - mean_service_s).max(0.0)
    });
    let controller = |min: usize, max: usize| {
        AutoscalePolicy::new(min, max)
            .with_check_interval_s(args.check_ms.map(|ms| ms / 1e3).unwrap_or(mean_service_s * 5.0))
            .with_provision_delay_s(
                args.provision_ms.map(|ms| ms / 1e3).unwrap_or(mean_service_s * 25.0),
            )
    };

    let base = ServeSweep::new()
        .arrivals(if args.arrivals.is_empty() {
            vec![ArrivalProcess::Poisson]
        } else {
            args.arrivals.clone()
        })
        .rps(args.rps.clone())
        .think_s(think_s)
        .policies(policies.clone());
    let mut sweep = base
        .clone()
        .fleets(args.fleets.clone())
        .dispatches(if args.dispatches.is_empty() {
            vec![DispatchKind::LeastLoaded]
        } else {
            args.dispatches.clone()
        })
        .closed_clients(args.clients.clone());
    if let Some((min, max)) = args.autoscale {
        sweep = sweep.autoscale([Some(controller(min, max))]);
    }
    let mut scenarios = sweep.scenarios("serve", STREAM_SEED);

    if default_arms {
        // Heterogeneous arm: equal shards and aggregate peak throughput,
        // every dispatch policy, one shared stream.
        let hetero = base
            .clone()
            .policies([Policy::Fifo])
            .fleets([hetero_peer, hetero_mix])
            .dispatches(DispatchKind::ALL);
        // Closed-loop arm: the open twin (same fleet/policy/dispatch) runs
        // in the main sweep, so open and closed tails sit side by side.
        let closed = base
            .clone()
            .arrivals([])
            .rps([])
            .closed_clients([DEFAULT_CLIENTS])
            .policies([Policy::Fifo])
            .fleets([FleetMix::uniform(TileSize::Tile16, 2)]);
        // Autoscaled arm: one elastic Tile-16 group, cost vs latency.
        let autoscaled = base
            .clone()
            .policies([Policy::Fifo])
            .fleets([FleetMix::uniform(TileSize::Tile16, 1)])
            .autoscale([Some(controller(1, 4))]);
        for arm in [hetero, closed, autoscaled] {
            let offset = scenarios.len();
            for mut scenario in arm.scenarios("serve", STREAM_SEED) {
                scenario.index += offset;
                scenarios.push(scenario);
            }
        }
    }

    // Library scenario arms: each replays on a two-shard Tile-16 fleet at
    // a rate calibrated to `load x fleet capacity` — so "overload" means
    // 3x capacity at every scale multiplier — with elastic scenarios
    // under a 1..4-shard autoscaler whose provisioning path doubles as
    // the crash-recovery path.
    let scn_fleet = FleetMix::uniform(TileSize::Tile16, 2);
    let scn_service_s =
        costs.mean_service_seconds(&scn_fleet.groups[0].config.fingerprint(), &classes);
    for sc in &scenario_specs {
        let rps = (sc.load * scn_fleet.total_shards() as f64 / scn_service_s).max(1.0).round();
        let mut arm = base
            .clone()
            .arrivals([ArrivalProcess::Poisson])
            .rps([rps])
            .policies([Policy::Fifo])
            .fleets([scn_fleet.clone()])
            .dispatches([DispatchKind::LeastLoaded]);
        if sc.elastic {
            arm = arm.autoscale([Some(controller(1, 4))]);
        }
        let offset = scenarios.len();
        for mut scenario in arm.scenarios(&format!("serve/scn-{}", sc.name), STREAM_SEED) {
            scenario.index += offset;
            scenario.scenario = Some(sc.clone());
            scenarios.push(scenario);
        }
    }

    // Replay every scenario on the runner; results collect in sweep order,
    // so the artifact is byte-identical for any NEURA_LAB_THREADS. With
    // --trace, each replay additionally records its lifecycle trace and
    // folds it into a windowed timeline *inside* the worker — the bulky
    // per-event trace never outlives its scenario — and without the flag
    // the untraced entry point runs, so tracing costs nothing when off.
    let mix_len = args.mix.len();
    let window_s = args.window_ms.map(|ms| ms / 1e3).unwrap_or(duration_s / 50.0);
    // Every window of a timeline is allocated before the first event lands
    // in it, so a width a few zeros too small must not size one: a usage
    // error — before the replays for the horizon, and after them for a
    // replay that drained so long past it that its timeline was not built.
    let window_fits = |span_s: f64| span_s / window_s <= MAX_TIMELINE_WINDOWS as f64;
    let refuse_window = |span_s: f64, what: &str| -> ! {
        flags.bad_usage(&format!(
            "--window-ms {} cuts the {span_s} s {what} into more than {MAX_TIMELINE_WINDOWS} \
             timeline windows; the smallest width it accepts is --window-ms {}",
            args.window_ms.unwrap_or(window_s * 1e3),
            span_s * 1e3 / MAX_TIMELINE_WINDOWS as f64
        ))
    };
    if args.trace && !window_fits(duration_s) {
        refuse_window(duration_s, "horizon");
    }
    // The calibrated rates — the auto rate, the scenario arms' — now have
    // their duration: size every open-loop stream at the rate its
    // generator runs at, the shapes' peak, before the first is built.
    for scenario in &scenarios {
        if let WorkloadAxis::Open { rps, .. } = scenario.workload {
            let shapes = scenario.scenario.iter().flat_map(|sc| &sc.shapes);
            let peak_rps = rps * shapes.map(RateShape::peak).product::<f64>();
            refuse_oversized_stream(&flags, &scenario.id, peak_rps, duration_s);
        }
    }
    let cli_tenants = (!args.tenants.is_empty()).then(|| TenantMix::new(args.tenants.clone()));
    // The engine plan every replay runs under: serial unless --epochs /
    // --lanes asked for parallel-in-time fragments. The merged results
    // are byte-identical to the serial replay either way.
    let mut plan = EnginePlan::serial();
    if let Some(n) = args.epochs {
        plan = plan.with_epochs(n);
    }
    if let Some(l) = args.lanes {
        plan = plan.with_lanes(l);
    }
    let sweep_started = std::time::Instant::now();
    let outcomes = runner.run(&scenarios, |_, scenario: &ServeScenario| {
        let mut workload = scenario.workload_spec(duration_s, mix_len, &REQUEST_SHRINKS);
        // CLI tenants wrap the plain open arms (library arms carry their
        // own mix; closed loops have no admission gate to rate-limit).
        if scenario.scenario.is_none() {
            if let (Some(mix), Workload::Open(spec)) = (&cli_tenants, &workload) {
                workload = Workload::Shaped(ShapedStream::tenants_only(spec.clone(), mix.clone()));
            }
        }
        let fault = match &scenario.scenario {
            Some(sc) => sc.fault_spec(scenario.seed, duration_s),
            None => args.fault.as_ref().map(|raw| {
                FaultSpec::parse(raw, derive_seed(scenario.seed, "cli-fault"), duration_s)
                    .expect("validated at parse time")
            }),
        };
        let mut cfg =
            ServeConfig::new(scenario.policy, &scenario.fleet.groups, scenario.dispatch, &costs);
        cfg.autoscale = scenario.autoscale.as_ref();
        cfg.queue_bound =
            scenario.scenario.as_ref().and_then(|sc| sc.queue_bound).or(args.queue_bound);
        cfg.faults = fault.as_ref();
        if args.trace {
            let (outcome, trace) = simulate_config_traced_parallel(&workload, &cfg, &plan);
            let timeline = window_fits(outcome.makespan_s)
                .then(|| Timeline::build(&trace, &outcome, window_s));
            (outcome, timeline)
        } else {
            (simulate_config_parallel(&workload, &cfg, &plan), None)
        }
    });
    let longest_s = outcomes.iter().map(|(outcome, _)| outcome.makespan_s).fold(0.0, f64::max);
    if args.trace && !window_fits(longest_s) {
        refuse_window(longest_s, "makespan of the longest replay");
    }
    let sim_wall_s = sweep_started.elapsed().as_secs_f64();
    // Measurement context rides along as document-level meta — never gated
    // (trend diffs records only), and suppressed entirely by --no-meta so
    // CI can byte-compare artifacts across thread counts.
    if !args.no_meta {
        session.set_meta("sim_wall_s", sim_wall_s);
        session.set_meta("epochs", plan.epochs as f64);
        session.set_meta("lanes", plan.lanes as f64);
        session.set_meta("threads", runner.threads() as f64);
    }

    let mut timeline_artifact =
        Artifact::new("serve", neura_bench::scale_multiplier()).with_schema(TIMELINE_SCHEMA);
    let mut rows = Vec::new();
    for (scenario, (outcome, timeline)) in scenarios.iter().zip(&outcomes) {
        let shard_seconds = outcome.shard_seconds();
        let busy: f64 = outcome.group_stats.iter().map(|g| g.busy_s).sum();
        let util = if shard_seconds > 0.0 { busy / shard_seconds } else { 0.0 };
        let tails = outcome.latency_percentiles_s(&[50.0, 95.0, 99.0]);
        rows.push(vec![
            scenario.id.strip_prefix("serve/").unwrap_or(&scenario.id).to_string(),
            outcome.requests().to_string(),
            fmt(outcome.shed_rate(), 3),
            fmt(tails[0] * 1e3, 3),
            fmt(tails[1] * 1e3, 3),
            fmt(tails[2] * 1e3, 3),
            fmt(outcome.throughput_rps(), 1),
            fmt(util, 3),
            outcome.batch_sizes.len().to_string(),
            fmt(shard_seconds, 4),
        ]);
        let mut params = scenario.params();
        params.push(("mix".to_string(), args.mix.join("+")));
        params.push(("duration_s".to_string(), format!("{duration_s:?}")));
        if args.cost_model != CostModel::Cycle {
            params.push(("cost_model".to_string(), args.cost_model.name().to_string()));
        }
        session.extend(outcome.records(&scenario.id, &params));
        if let Some(timeline) = timeline {
            timeline_artifact.extend(timeline.records(&scenario.id, &params));
        }
    }

    print_table(
        "Serving scenarios: tail latency, throughput and capacity cost under load",
        &[
            "Scenario",
            "Requests",
            "Shed",
            "p50 (ms)",
            "p95 (ms)",
            "p99 (ms)",
            "Thr (req/s)",
            "Util",
            "Batches",
            "Shard-s",
        ],
        &rows,
    );
    println!(
        "\nEach scenario replays a deterministic {}-dataset workload on a fleet of\n\
         simulated chips: shard groups may mix tile sizes (class-aware dispatch\n\
         decides placement), closed-loop arms regenerate demand from completions,\n\
         and the autoscaled arm grows/shrinks capacity against its backlog. The\n\
         scn-* arms replay the production scenario library — rate waves, overload\n\
         against a bounded queue (Shed = shed rate), tenant rate limits, seeded\n\
         shard crashes and degraded silicon — all equally deterministic. Every\n\
         batch is charged a cycle cost memoised per (chip fingerprint x dataset x\n\
         request size) class ({} cycle-level simulations total). Serving arms of\n\
         the same workload share their seed, so they are directly comparable.",
        mix_len,
        work.len(),
    );
    match args.cost_model {
        CostModel::Cycle => {}
        CostModel::Analytic => println!(
            "cost model: analytic — every class cost above is a closed-form estimate \
             (0 cycle-level simulations; `xval` pins the error bound vs the oracle)."
        ),
        CostModel::Hybrid => println!(
            "cost model: hybrid — analytic class costs rescaled through one cycle-level \
             anchor simulation per tile configuration ({} simulations total).",
            tiles.len(),
        ),
    }

    if args.trace {
        write_side_artifact(&timeline_artifact, args.trace_path.as_deref(), "timeline");
    }

    if args.profile {
        // One chip profile per memoised (chip fingerprint, request class)
        // simulation — the exact cost-table entries the serving arms replay.
        let mut profile_artifact =
            Artifact::new("serve", neura_bench::scale_multiplier()).with_schema(PROFILE_SCHEMA);
        for ((tile, class), chip_profile) in work.iter().zip(&chip_profiles) {
            let chip_profile = chip_profile.as_ref().expect("cycle model profiles every pair");
            let scope =
                format!("serve/{}/{}/x{}", tile.label(), args.mix[class.dataset], class.shrink);
            if let Err(err) = chip_profile.check_conservation() {
                panic!("profile conservation violated for {scope}: {err}");
            }
            let mut records = profile_records(&scope, chip_profile);
            if let Some(first) = records.first_mut() {
                first.params.push(("tile".to_string(), tile.label().to_string()));
                first.params.push(("dataset".to_string(), args.mix[class.dataset].clone()));
                first.params.push(("shrink".to_string(), class.shrink.to_string()));
                first.params.push((
                    "fingerprint".to_string(),
                    ChipConfig::for_tile_size(*tile).fingerprint(),
                ));
            }
            profile_artifact.extend(records);
        }
        write_side_artifact(&profile_artifact, args.profile_path.as_deref(), "serve-profile");
    }

    session.finish();
}
