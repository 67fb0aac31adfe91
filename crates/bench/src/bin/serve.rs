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
//!   queueing is visible whatever the serving mix costs)
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
//! - `--epochs N` — run every scenario replay through the
//!   parallel-in-time engine (`neura_serve::engine`): the timeline splits
//!   into N equal epochs whose fragments replay concurrently and merge at
//!   the boundaries; the merged artifact is byte-identical to the serial
//!   replay (N above `neura_serve::engine::MAX_EPOCHS` is a usage error)
//! - `--lanes L` — split eligible closed-loop scenarios into L independent
//!   client/shard lanes that replay concurrently (a *scenario parameter*:
//!   results are thread-count invariant at a fixed lane count)
//! - `--no-meta` — suppress the engine meta fields (epochs, lanes,
//!   threads) in the artifact, so byte-comparison across thread counts
//!   stays exact
//!
//! Without fleet/dispatch/clients/autoscale flags, three comparison arms
//! ride along with the classic shard-scaling sweep — a heterogeneous
//! Tile-64+Tile-4 fleet against an equal-shard Tile-16 fleet under all
//! three dispatch policies, a closed-loop twin of an open-loop arm, an
//! autoscaled arm reporting shard-seconds against the p99 it buys — plus
//! every scenario of [`ScenarioSpec::library`] as a `scn-*` arm on a
//! two-shard Tile-16 fleet at `load x fleet capacity`.
//!
//! [`parse_args`] reads every flag once, into the type the run uses, and
//! `main` is then six phases, a function each: [`check_args`] holds the
//! arguments against each other and against what a replay may allocate, so
//! a misuse is a usage error before anything runs; [`price_classes`]
//! memoises one cost per (chip fingerprint, request class), groups sharing
//! silicon sharing the memo; [`calibrate`] derives every knob left open
//! from it; [`enumerate_arms`] lists the scenarios, [`replay`] runs them —
//! every arm of a workload on the identical demand — and [`emit_outcomes`]
//! writes them down.

use neura_bench::{
    exit_wedged, price_class, push_once, sim_matrix_at_fidelity, REQUEST_SHRINKS, STREAM_SEED,
};
use neura_chip::config::{ChipConfig, TileSize};
use neura_lab::spec::derive_seed;
use neura_lab::{fmt, print_table, Artifact, Flags, RunRecord, Runner, TIMELINE_SCHEMA};
use neura_serve::cost::{hybrid_scaled_cycles, CostModel};
use neura_serve::engine::MAX_EPOCHS;
use neura_serve::policy::DEFAULT_MAX_BATCH;
use neura_serve::{
    simulate_config_parallel, simulate_config_traced_parallel, ArrivalProcess, AutoscalePolicy,
    CostTable, DispatchKind, EnginePlan, FaultSpec, FleetMix, Policy, RateShape, RequestClass,
    ScenarioSpec, ServeConfig, ServeOutcome, ServeScenario, ServeSweep, TenantMix, TenantSpec,
    Timeline, Workload, WorkloadAxis, MAX_CRASHES, MAX_STREAM_REQUESTS, MAX_TIMELINE_WINDOWS,
};
use std::path::PathBuf;

/// The simulated horizon without `--duration`, in seconds.
const DEFAULT_DURATION_S: f64 = 2.0;

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
     \x20            [--trace [PATH]] [--window-ms X] [--cost-model M] [--epochs N]\n\
     \x20            [--lanes L] [--no-meta]\n\
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
     --window-ms X         timeline window width (default: 1/50th of the horizon)\n\
     --cost-model M        cycle | analytic | hybrid — how request classes are priced\n\
     \x20                    (default: cycle = the cycle-accurate oracle; analytic = the\n\
     \x20                    closed-form neura_chip::analytic estimate, no simulations;\n\
     \x20                    hybrid = analytic rescaled through one cycle anchor per silicon)\n\
     --epochs N            replay each scenario as N parallel-in-time epoch fragments\n\
     \x20                    (merged results are byte-identical to the serial replay)\n\
     --lanes L             split eligible closed-loop scenarios into L parallel\n\
     \x20                    client/shard lanes (a scenario parameter, not a tuning knob)\n\
     --no-meta             omit the engine meta fields from the artifact (exact\n\
     \x20                    byte-comparison across thread counts)\n\
     scenario library:"
        .to_string();
    for sc in ScenarioSpec::library() {
        text.push_str(&format!("\n       {:<10}{}", sc.name, sc.summary));
    }
    text
}

#[derive(Default)]
struct Args {
    arrivals: Vec<ArrivalProcess>,
    rps: Vec<f64>,
    clients: Vec<usize>,
    think_ms: Option<f64>,
    duration_s: Option<f64>,
    mix: Vec<String>,
    scenarios: Vec<ScenarioSpec>,
    tenants: Vec<TenantSpec>,
    /// As typed; the `batch` policy takes its knobs in [`calibrate`].
    policies: Vec<Policy>,
    max_batch: Option<usize>,
    batch_timeout_ms: Option<f64>,
    fleets: Vec<FleetMix>,
    dispatches: Vec<DispatchKind>,
    autoscale: Option<(usize, usize)>,
    provision_ms: Option<f64>,
    check_ms: Option<f64>,
    queue_bound: Option<usize>,
    /// The regime as typed, over a placeholder seed and window: every arm
    /// fills in its own (see [`replay`]).
    fault: Option<FaultSpec>,
    /// Where `--trace` writes its side artifact.
    trace: Option<PathBuf>,
    window_ms: Option<f64>,
    cost_model: CostModel,
    epochs: Option<usize>,
    lanes: Option<usize>,
    no_meta: bool,
    /// Where `--json` writes the run artifact.
    json: Option<PathBuf>,
}

impl Args {
    /// Reads the value of `arg` when it is one of the flags that shape the
    /// demand — what arrives, for how long, from whom — and returns whether
    /// it was. Every reader parses a value once, into the type the run uses.
    fn take_demand_flag(&mut self, arg: &str, flags: &mut Flags) -> bool {
        match arg {
            "--arrival" => {
                let arrival = flags.known(arg, "arrival process", ArrivalProcess::parse);
                push_once(flags, arg, &mut self.arrivals, arrival, |a| a.name().to_string());
            }
            "--rps" => {
                let rps = flags.parsed(arg, "a positive rate", Flags::positive);
                push_once(flags, arg, &mut self.rps, rps, |r| format!("{r:?}"));
            }
            "--clients" => {
                let clients = bounded(flags, arg, MAX_CLIENTS);
                push_once(flags, arg, &mut self.clients, clients, usize::to_string);
            }
            "--think-ms" => {
                self.think_ms = Some(flags.parsed(arg, "a think time", Flags::non_negative));
            }
            "--duration" => {
                self.duration_s = Some(flags.parsed(arg, "a positive duration", Flags::positive));
            }
            "--dataset" => neura_bench::dataset_flag(flags, &mut self.mix),
            "--scenario" => {
                let raw = flags.value(arg);
                if raw.eq_ignore_ascii_case("all") {
                    self.scenarios.extend(ScenarioSpec::library());
                } else if let Some(spec) = ScenarioSpec::by_name(&raw) {
                    self.scenarios.push(spec);
                } else {
                    flags.bad_usage(&format!(
                        "unknown scenario {raw:?}; the library has: {}",
                        ScenarioSpec::names().join(", ")
                    ));
                }
            }
            "--tenant" => {
                let raw = flags.value(arg);
                let tenant = TenantMix::parse_tenant(&raw).unwrap_or_else(|| {
                    flags.bad_usage(&format!(
                        "--tenant {raw:?} is not name:weight[:limit_rps[:slo_ms]]"
                    ))
                });
                if self.tenants.iter().any(|t| t.name == tenant.name) {
                    flags.bad_usage(&format!("duplicate tenant name {:?}", tenant.name));
                }
                self.tenants.push(tenant);
            }
            _ => return false,
        }
        true
    }

    /// [`Self::take_demand_flag`] for the flags that shape how the demand
    /// is served: the policy, the fleet and what goes wrong with it.
    fn take_serving_flag(&mut self, arg: &str, flags: &mut Flags) -> bool {
        match arg {
            "--policy" => {
                let policy = flags.known(arg, "policy", Policy::parse);
                push_once(flags, arg, &mut self.policies, policy, Policy::name);
            }
            "--max-batch" => {
                self.max_batch = Some(flags.parsed(arg, "a positive integer", Flags::at_least_one));
            }
            "--batch-timeout-ms" => {
                self.batch_timeout_ms = Some(flags.parsed(arg, "a timeout", Flags::non_negative));
            }
            "--shards" => {
                let n = flags.parsed(arg, "a positive integer", Flags::at_least_one);
                let fleet = FleetMix::uniform(TileSize::Tile16, n);
                push_once(flags, arg, &mut self.fleets, fleet, |f| f.id.clone());
            }
            "--fleet" => {
                let raw = flags.value(arg);
                let fleet = FleetMix::parse(&raw)
                    .unwrap_or_else(|| flags.bad_usage(&format!("unparseable fleet mix {raw:?}")));
                push_once(flags, arg, &mut self.fleets, fleet, |f| f.id.clone());
            }
            "--dispatch" => {
                let dispatch = flags.known(arg, "dispatch policy", DispatchKind::parse);
                push_once(flags, arg, &mut self.dispatches, dispatch, |d| d.name().to_string());
            }
            "--autoscale" => {
                let raw = flags.value(arg);
                let bounds = raw.split_once(':').and_then(|(lo, hi)| {
                    let lo = lo.parse::<usize>().ok().filter(|&n| n >= 1)?;
                    let hi = hi.parse::<usize>().ok().filter(|&n| n >= lo)?;
                    Some((lo, hi))
                });
                self.autoscale = Some(bounds.unwrap_or_else(|| {
                    flags.bad_usage(&format!(
                        "--autoscale {raw:?} is not MIN:MAX with 1 <= MIN <= MAX"
                    ))
                }));
            }
            "--provision-ms" => {
                self.provision_ms = Some(flags.parsed(arg, "a delay", Flags::non_negative));
            }
            "--check-ms" => {
                self.check_ms = Some(flags.parsed(arg, "an interval", Flags::positive));
            }
            "--queue-bound" => {
                self.queue_bound = Some(flags.parsed(arg, "an integer", |_| true));
            }
            "--fault" => {
                let raw = flags.value(arg);
                self.fault = Some(FaultSpec::parse(&raw, 0, 1.0).unwrap_or_else(|| {
                    flags.bad_usage(&format!(
                        "--fault {raw:?} is not a crashN/pfX/degGxM regime like crash2+pf0.5 \
                         (N within 1..={MAX_CRASHES})"
                    ))
                }));
            }
            _ => return false,
        }
        true
    }

    /// The last reader: the flags that shape the run itself — how classes
    /// are priced, how replays are split, what is written — or a refusal.
    fn take_run_flag(&mut self, arg: &str, flags: &mut Flags) {
        match arg {
            "--trace" => self.trace = Some(flags.artifact_path("timeline")),
            "--window-ms" => {
                self.window_ms = Some(flags.parsed(arg, "a positive width", Flags::positive));
            }
            "--cost-model" => {
                self.cost_model = flags.known(arg, "cost model", CostModel::parse);
            }
            "--epochs" => self.epochs = Some(bounded(flags, arg, MAX_EPOCHS)),
            "--lanes" => {
                self.lanes = Some(flags.parsed(arg, "a positive integer", Flags::at_least_one));
            }
            "--no-meta" => self.no_meta = true,
            "--json" => self.json = Some(flags.artifact_path("serve")),
            "--help" | "-h" => flags.help(),
            other => flags.bad_usage(&format!("unrecognised argument {other:?}")),
        }
    }
}

/// The value of `arg` as a count within `1..=max` (`--clients`, `--epochs`).
fn bounded(flags: &mut Flags, arg: &str, max: usize) -> usize {
    flags.parsed(arg, &format!("an integer within 1..={max}"), |n| (1..=max).contains(n))
}

fn parse_args() -> (Args, Flags) {
    let mut parsed = Args::default();
    let mut flags = Flags::from_env(usage());
    while let Some(arg) = flags.next() {
        if !parsed.take_demand_flag(&arg, &mut flags) && !parsed.take_serving_flag(&arg, &mut flags)
        {
            parsed.take_run_flag(&arg, &mut flags);
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

/// Phase 1 — checks the arguments against each other before anything runs
/// (a mismatch is a usage error, not a panic or an allocation failure
/// mid-simulation) and resolves the default fleets and scenario arms.
/// Returns whether the default comparison arms ride along.
fn check_args(args: &mut Args, flags: &Flags) -> bool {
    // An explicit rate keeps --duration as typed, so its streams can be
    // sized before anything runs; the calibrated rates are checked in
    // `replay`, once the cost table they derive from exists.
    for &rps in &args.rps {
        let duration_s = args.duration_s.unwrap_or(DEFAULT_DURATION_S);
        refuse_oversized_stream(flags, &format!("--rps {rps:?}"), rps, duration_s);
    }
    // The comparison arms only ride along when the user has not taken over
    // the fleet-shaped axes.
    let default_arms = args.fleets.is_empty()
        && args.dispatches.is_empty()
        && args.clients.is_empty()
        && args.autoscale.is_none();
    if args.fleets.is_empty() {
        args.fleets = [1, 2, 4].map(|n| FleetMix::uniform(TileSize::Tile16, n)).to_vec();
    }
    for mix in &args.fleets {
        // Every slot of a fleet is allocated before its replay starts —
        // under an autoscaler, up to its upper bound in every group.
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
        // An autoscaled group must start inside the controller's bounds.
        if let Some((min, max)) = args.autoscale {
            if let Some(group) = mix.groups.iter().find(|g| !(min..=max).contains(&g.shards)) {
                flags.bad_usage(&format!(
                    "--autoscale {min}:{max} is incompatible with fleet {:?}: group {:?} \
                     starts with {} shard(s); pass --fleet/--shards sizes within the bounds",
                    mix.id, group.name, group.shards
                ));
            }
        }
        // A fault regime can only degrade a group the fleet has.
        if let Some(fault) = &args.fault {
            if let Some((group, _)) = fault.degraded.iter().find(|(g, _)| *g >= mix.groups.len()) {
                flags.bad_usage(&format!(
                    "--fault {:?} degrades group {group}, but fleet {:?} only has {} group(s)",
                    fault.id(),
                    mix.id,
                    mix.groups.len()
                ));
            }
        }
    }
    // Library scenarios: the explicit --scenario list wins; otherwise the
    // whole library rides along with the default comparison arms.
    if args.scenarios.is_empty() && default_arms {
        args.scenarios = ScenarioSpec::library();
    }
    let mut seen = std::collections::HashSet::new();
    args.scenarios.retain(|s| seen.insert(s.name));
    default_arms
}

/// What [`price_classes`] hands the later phases: one memoised cost per
/// (tile, class) pair — `work`, tile-major — in the shared table.
struct Pricing {
    classes: Vec<RequestClass>,
    work: Vec<(TileSize, RequestClass)>,
    costs: CostTable,
}

/// Phase 2 — prices one request per (chip fingerprint, class) pair into the
/// shared cost table, on the lab runner, and records each cost; fleets
/// sharing a configuration share the memo by construction. `cycle` measures
/// each pair with one simulation, `analytic` estimates every pair in closed
/// form, and `hybrid` rescales the estimates through one anchor per tile:
/// its measurement of the first class over its estimate of it.
fn price_classes(
    args: &Args,
    default_arms: bool,
    runner: &Runner,
    artifact: &mut Artifact,
) -> Pricing {
    // The tile configurations any arm of this run can place shards on.
    let mut tiles: Vec<TileSize> =
        args.fleets.iter().flat_map(|mix| mix.groups.iter().map(|g| g.config.tile_size)).collect();
    if default_arms {
        tiles.extend(TileSize::ALL);
    }
    if !args.scenarios.is_empty() {
        tiles.extend(scenario_fleet().groups.iter().map(|g| g.config.tile_size));
    }
    tiles.sort_by_key(|t| t.label());
    tiles.dedup();
    let classes: Vec<RequestClass> = (0..args.mix.len())
        .flat_map(|dataset| REQUEST_SHRINKS.map(|shrink| RequestClass { dataset, shrink }))
        .collect();
    let work: Vec<(TileSize, RequestClass)> =
        tiles.iter().flat_map(|&tile| classes.iter().map(move |&class| (tile, class))).collect();

    let price = |tile, class: RequestClass, exact| {
        let a = sim_matrix_at_fidelity(&args.mix[class.dataset], class.shrink);
        price_class(&ChipConfig::for_tile_size(tile), &a, exact, None)
            .unwrap_or_else(|e| exit_wedged("serve", &args.mix[class.dataset], tile, None, &e))
    };
    let exact = args.cost_model == CostModel::Cycle;
    let mut priced = runner.run(&work, |_, &(tile, class)| price(tile, class, exact));
    if args.cost_model == CostModel::Hybrid {
        let anchors = runner.run(&tiles, |_, &tile| price(tile, classes[0], true).cycles);
        for (tile_costs, measured) in priced.chunks_mut(classes.len()).zip(anchors) {
            let estimate = tile_costs[0].cycles;
            for cost in tile_costs {
                cost.cycles = hybrid_scaled_cycles(cost.cycles, measured, estimate);
            }
        }
    }

    let mut costs = CostTable::new();
    for (&(tile, class), cost) in work.iter().zip(&priced) {
        let fp = costs.register(&ChipConfig::for_tile_size(tile));
        costs.insert(&fp, class, *cost);
        let id =
            format!("serve/cost/{}/{}/x{}", tile.label(), args.mix[class.dataset], class.shrink);
        let mut record = RunRecord::new(id)
            .param("tile", tile.label())
            .param("dataset", &args.mix[class.dataset])
            .param("shrink", class.shrink)
            .unit_metric("cycles", cost.cycles as f64, "cycles")
            .unit_metric("service_ms", costs.service_seconds(&fp, class, 1) * 1e3, "ms")
            .metric("flops", cost.flops as f64);
        if args.cost_model != CostModel::Cycle {
            record = record.param("cost_model", args.cost_model.name());
        }
        artifact.push(record);
    }
    Pricing { classes, work, costs }
}

/// The fleet every library scenario arm replays on.
fn scenario_fleet() -> FleetMix {
    FleetMix::uniform(TileSize::Tile16, 2)
}

/// What [`calibrate`] derives from the memoised costs.
struct Calibration {
    /// The demand and the policies every arm shares: arrivals x rates, the
    /// think time, the policies with the `batch` knobs filled in.
    base: ServeSweep,
    duration_s: f64,
    /// The 1..4-shard controller of the elastic arms; `--autoscale` swaps
    /// its own bounds in.
    elastic: AutoscalePolicy,
}

/// Phase 3 — calibrates every knob the command line left open. Absolute
/// rates mean nothing across serving mixes (a small dataset's requests are
/// orders of magnitude cheaper than a large one's), so arrival rate,
/// batch timeout, think time and autoscaler cadence all derive from the
/// memoised mean service time of the first fleet's leading group.
fn calibrate(args: &Args, default_arms: bool, pricing: &Pricing) -> Calibration {
    let ref_fp = args.fleets[0].groups[0].config.fingerprint();
    let mean_service_s = pricing.costs.mean_service_seconds(&ref_fp, &pricing.classes);
    let batch = Policy::batch(
        args.max_batch.unwrap_or(DEFAULT_MAX_BATCH),
        args.batch_timeout_ms.map_or(mean_service_s * 20.0, |ms| ms / 1e3),
    );
    let policies = if args.policies.is_empty() {
        vec![Policy::Fifo, Policy::Sjf, batch]
    } else {
        let knobs =
            |policy| if matches!(policy, Policy::BatchByDataset { .. }) { batch } else { policy };
        args.policies.iter().copied().map(knobs).collect()
    };
    let mut rps = args.rps.clone();
    let mut duration_s = args.duration_s.unwrap_or(DEFAULT_DURATION_S);
    if rps.is_empty() {
        let auto_rps = (0.8 / mean_service_s).max(1.0).round();
        // Keep auto-rated streams to ~20k requests so cheap mixes (where a
        // request costs microseconds and the rate lands in the millions)
        // stay fast; an explicit --duration wins.
        if args.duration_s.is_none() {
            duration_s = f64::min(duration_s, (20_000.0 / auto_rps).max(1e-3));
        }
        println!(
            "auto arrival rate: {auto_rps} req/s (~80% of one reference shard's {:.4} ms mean \
             service), duration {duration_s:.4} s",
            mean_service_s * 1e3,
        );
        rps.push(auto_rps);
    }
    // Closed-loop think time: clients cycle once per (think + response), so
    // this targets ~80% offered load — for the user's first client count on
    // their first fleet, or for the default 64-client/two-shard arm.
    let think_s = args.think_ms.map(|ms| ms / 1e3).unwrap_or_else(|| {
        let clients = *args.clients.first().unwrap_or(&DEFAULT_CLIENTS) as f64;
        let shards = if default_arms { 2.0 } else { args.fleets[0].total_shards() as f64 };
        (clients * mean_service_s / (0.8 * shards) - mean_service_s).max(0.0)
    });
    let base = ServeSweep::new()
        .arrivals(args.arrivals.clone())
        .rps(rps)
        .think_s(think_s)
        .policies(policies);
    let elastic = AutoscalePolicy::new(1, 4)
        .with_check_interval_s(args.check_ms.map_or(mean_service_s * 5.0, |ms| ms / 1e3))
        .with_provision_delay_s(args.provision_ms.map_or(mean_service_s * 25.0, |ms| ms / 1e3));
    Calibration { base, duration_s, elastic }
}

/// Phase 4 — enumerates the arms: the sweep the flags describe; with it,
/// unless the user took over the fleet-shaped axes, the three default
/// comparison arms; and one `scn-*` arm per library scenario.
fn enumerate_arms(
    args: &Args,
    default_arms: bool,
    pricing: &Pricing,
    cal: &Calibration,
) -> Vec<ServeScenario> {
    let Calibration { base, elastic, .. } = cal;
    let mut sweep = base
        .clone()
        .fleets(args.fleets.clone())
        .dispatches(args.dispatches.clone())
        .closed_clients(args.clients.clone());
    if let Some((min_shards, max_shards)) = args.autoscale {
        sweep =
            sweep.autoscale([Some(AutoscalePolicy { min_shards, max_shards, ..elastic.clone() })]);
    }
    let mut scenarios = sweep.scenarios("serve", STREAM_SEED);

    if default_arms {
        // Heterogeneous arm: equal shards and aggregate peak throughput,
        // every dispatch policy, one shared stream.
        let hetero = base
            .clone()
            .policies([Policy::Fifo])
            .fleets([
                FleetMix::uniform(TileSize::Tile16, 5),
                FleetMix::mixed(&[(TileSize::Tile64, 1), (TileSize::Tile4, 4)]),
            ])
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
            .autoscale([Some(elastic.clone())]);
        for arm in [hetero, closed, autoscaled] {
            scenarios.extend(arm.scenarios("serve", STREAM_SEED));
        }
    }

    // Library scenario arms: each replays on the scenario fleet at a rate
    // calibrated to `load x fleet capacity` — so "overload" means 3x
    // capacity whatever the mix costs — with elastic scenarios under a
    // 1..4-shard autoscaler whose provisioning path doubles as the
    // crash-recovery path.
    if args.scenarios.is_empty() {
        return scenarios;
    }
    let fleet = scenario_fleet();
    let service_s =
        pricing.costs.mean_service_seconds(&fleet.groups[0].config.fingerprint(), &pricing.classes);
    for sc in &args.scenarios {
        let rps = (sc.load * fleet.total_shards() as f64 / service_s).max(1.0).round();
        let mut arm = base
            .clone()
            .arrivals([ArrivalProcess::Poisson])
            .rps([rps])
            .policies([Policy::Fifo])
            .fleets([fleet.clone()]);
        if sc.elastic {
            arm = arm.autoscale([Some(elastic.clone())]);
        }
        for mut scenario in arm.scenarios(&format!("serve/scn-{}", sc.name), STREAM_SEED) {
            scenario.scenario = Some(sc.clone());
            scenarios.push(scenario);
        }
    }
    scenarios
}

/// Every window of a timeline is allocated before the first event lands in
/// it, so a width a few zeros too small must not size one: a usage error —
/// before the replays for the horizon, and after them for a replay that
/// drained so long past it that its timeline was not built.
fn refuse_narrow_window(flags: &Flags, args: &Args, window_s: f64, span_s: f64, what: &str) {
    if args.trace.is_some() && !window_fits(window_s, span_s) {
        flags.bad_usage(&format!(
            "--window-ms {:?} cuts the {span_s} s {what} into more than {MAX_TIMELINE_WINDOWS} \
             timeline windows; the smallest width it accepts is --window-ms {}",
            args.window_ms.unwrap_or(window_s * 1e3),
            span_s * 1e3 / MAX_TIMELINE_WINDOWS as f64
        ));
    }
}

fn window_fits(window_s: f64, span_s: f64) -> bool {
    span_s / window_s <= MAX_TIMELINE_WINDOWS as f64
}

/// Phase 5 — replays every arm on the runner under `plan`; results collect
/// in sweep order, so the artifact is byte-identical for any
/// `NEURA_LAB_THREADS`. Under `--trace` each replay folds its lifecycle
/// trace into a windowed timeline *inside* the worker — the bulky trace
/// never outlives its scenario; without it the untraced entry point runs.
fn replay(
    args: &Args,
    flags: &Flags,
    runner: &Runner,
    pricing: &Pricing,
    cal: &Calibration,
    scenarios: &[ServeScenario],
    plan: &EnginePlan,
) -> Vec<(ServeOutcome, Option<Timeline>)> {
    let duration_s = cal.duration_s;
    let window_s = args.window_ms.map_or(duration_s / 50.0, |ms| ms / 1e3);
    refuse_narrow_window(flags, args, window_s, duration_s, "horizon");
    // The calibrated rates — the auto rate, the scenario arms' — now have
    // their duration: size every open-loop stream at the rate its
    // generator runs at, the shapes' peak, before the first is built.
    for scenario in scenarios {
        if let WorkloadAxis::Open { rps, .. } = scenario.workload {
            let shapes = scenario.scenario.iter().flat_map(|sc| &sc.shapes);
            let peak_rps = rps * shapes.map(RateShape::peak).product::<f64>();
            refuse_oversized_stream(flags, &scenario.id, peak_rps, duration_s);
        }
    }
    let cli_tenants = (!args.tenants.is_empty()).then(|| TenantMix::new(args.tenants.clone()));
    let outcomes = runner.run(scenarios, |_, scenario: &ServeScenario| {
        let mut workload = scenario.workload_spec(duration_s, args.mix.len(), &REQUEST_SHRINKS);
        // CLI tenants join the plain open arms (library arms carry their
        // own mix; closed loops have no admission gate to rate-limit).
        if let (None, Workload::Shaped(shaped)) = (&scenario.scenario, &mut workload) {
            shaped.tenants.clone_from(&cli_tenants);
        }
        // A library arm brings its own regime; a plain arm takes the
        // --fault one, seeded from its workload over the run's horizon.
        let fault = match &scenario.scenario {
            Some(sc) => sc.fault_spec(scenario.seed, duration_s),
            None => args.fault.clone().map(|template| FaultSpec {
                seed: derive_seed(scenario.seed, "cli-fault"),
                window_s: duration_s,
                ..template
            }),
        };
        let mut cfg = ServeConfig::new(
            scenario.policy,
            &scenario.fleet.groups,
            scenario.dispatch,
            &pricing.costs,
        );
        cfg.autoscale = scenario.autoscale.as_ref();
        cfg.queue_bound =
            scenario.scenario.as_ref().and_then(|sc| sc.queue_bound).or(args.queue_bound);
        cfg.faults = fault.as_ref();
        if args.trace.is_some() {
            let (outcome, trace) = simulate_config_traced_parallel(&workload, &cfg, plan);
            let timeline = window_fits(window_s, outcome.makespan_s)
                .then(|| Timeline::build(&trace, &outcome, window_s));
            (outcome, timeline)
        } else {
            (simulate_config_parallel(&workload, &cfg, plan), None)
        }
    });
    let longest_s = outcomes.iter().map(|(outcome, _)| outcome.makespan_s).fold(0.0, f64::max);
    refuse_narrow_window(flags, args, window_s, longest_s, "makespan of the longest replay");
    outcomes
}

/// Phase 6 — every arm's records into the run artifact and its row into
/// the summary table, printed here; returns the timeline artifact (empty
/// without `--trace`).
fn emit_outcomes(
    args: &Args,
    duration_s: f64,
    scenarios: &[ServeScenario],
    outcomes: &[(ServeOutcome, Option<Timeline>)],
    artifact: &mut Artifact,
) -> Artifact {
    let mut timeline_artifact = Artifact::new("serve", 1).with_schema(TIMELINE_SCHEMA);
    let mut rows = Vec::new();
    for (scenario, (outcome, timeline)) in scenarios.iter().zip(outcomes) {
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
        artifact.extend(outcome.records(&scenario.id, &params));
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
    timeline_artifact
}

/// The reading guide under the table.
fn print_notes(args: &Args, pricing: &Pricing) {
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
        args.mix.len(),
        pricing.work.len(),
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
            pricing.work.len() / pricing.classes.len(),
        ),
    }
}

fn main() {
    let (mut args, flags) = parse_args();
    let default_arms = check_args(&mut args, &flags);
    let mut artifact = Artifact::new("serve", 1);
    let runner = Runner::from_env();
    let pricing = price_classes(&args, default_arms, &runner, &mut artifact);
    let cal = calibrate(&args, default_arms, &pricing);
    let scenarios = enumerate_arms(&args, default_arms, &pricing, &cal);

    // The engine plan every replay runs under: serial unless --epochs /
    // --lanes asked for parallel-in-time fragments. The merged results
    // are byte-identical to the serial replay either way.
    let plan = EnginePlan::serial()
        .with_epochs(args.epochs.unwrap_or(1))
        .with_lanes(args.lanes.unwrap_or(1));
    let outcomes = replay(&args, &flags, &runner, &pricing, &cal, &scenarios, &plan);
    // Measurement context rides along as document-level meta — never gated
    // (trend diffs records only), and suppressed entirely by --no-meta so
    // CI can byte-compare artifacts across thread counts.
    if !args.no_meta {
        artifact.set_meta("epochs", plan.epochs as f64);
        artifact.set_meta("lanes", plan.lanes as f64);
        artifact.set_meta("threads", runner.threads() as f64);
    }

    let timeline = emit_outcomes(&args, cal.duration_s, &scenarios, &outcomes, &mut artifact);
    print_notes(&args, &pricing);
    if let Some(path) = &args.trace {
        timeline.write_or_exit(path);
    }
    if let Some(path) = &args.json {
        artifact.write_or_exit(path);
    }
}
