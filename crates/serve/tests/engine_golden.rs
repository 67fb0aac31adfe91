//! Tier-1 golden for the serving event loop itself, the counterpart of
//! `crates/chip/tests/loop_golden.rs`.
//!
//! Every library scenario is replayed at ~1 500 requests under each
//! scheduling policy × each dispatch policy on a mixed Tile-4/16/64 fleet
//! priced from a synthetic cost table, and one hash per cell pins the
//! artifact bytes of [`ServeOutcome::records`], the `Debug` rendering of
//! the whole [`ServeOutcome`] (every per-request latency, batch size,
//! crash and scale event) and the lifecycle trace. Each cell runs traced
//! on the serial plan and untraced as 3 epoch fragments, and the two
//! outcomes must be equal; a closed loop is pinned serial and as 2 lanes.
//! The elastic and fault scenarios take the replay through autoscaling,
//! crash re-dispatch and epoch seams.
//!
//! The values were captured before the backlog, the dispatch path and the
//! seam state were rebuilt for speed, so a host-side optimisation of
//! `engine.rs` that moves a simulated number fails here rather than only
//! in `just serve-parallel`, which tier-1 does not run.
//!
//! A change that *means* to alter the serving model re-captures the
//! table: the failure message prints the rows to paste.

use neura_chip::config::{ChipConfig, TileSize};
use neura_lab::Artifact;
use neura_serve::{
    simulate_config_parallel, simulate_config_traced_parallel, ArrivalProcess, AutoscalePolicy,
    ClassCost, ClosedLoopSpec, CostTable, DispatchKind, EnginePlan, Policy, RequestClass,
    ScenarioSpec, ServeConfig, ServeOutcome, ShardGroup, StreamSpec, Trace, Workload,
};

const REQUESTS: usize = 1_500;
const DATASETS: usize = 4;
const SHRINKS: [usize; 3] = [1, 2, 4];
const SEED: u64 = 0x5EED_601D;

/// FNV-1a (stable across platforms and std versions, unlike
/// `DefaultHasher`).
fn fnv1a(hash: u64, text: &str) -> u64 {
    text.bytes()
        .fold(hash, |hash, byte| (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A 2+2+2-shard mixed fleet, its cost table (3 fingerprints × 4 datasets
/// × 3 shrinks; smaller tiles serve the same class slower) and the
/// requests per second it serves at full utilisation.
struct Context {
    costs: CostTable,
    fleet: Vec<ShardGroup>,
    autoscale: AutoscalePolicy,
    capacity_rps: f64,
    mean_service_s: f64,
}

fn context() -> Context {
    let mut costs = CostTable::new();
    let mut fleet = Vec::new();
    let mut capacity_rps = 0.0;
    let shards = 2usize;
    for (name, tile, slowdown) in
        [("t4", TileSize::Tile4, 4u64), ("t16", TileSize::Tile16, 2), ("t64", TileSize::Tile64, 1)]
    {
        let config = ChipConfig::for_tile_size(tile);
        let fp = costs.register(&config);
        let mut service_sum = 0.0;
        for dataset in 0..DATASETS {
            for shrink in SHRINKS {
                let cycles = 600_000 * slowdown * (dataset as u64 + 1) / shrink as u64;
                let class = RequestClass { dataset, shrink };
                costs.insert(&fp, class, ClassCost { cycles, flops: cycles / slowdown });
                service_sum += costs.service_seconds(&fp, class, 1);
            }
        }
        capacity_rps += shards as f64 / (service_sum / (DATASETS * SHRINKS.len()) as f64);
        fleet.push(ShardGroup::new(name, config, shards));
    }
    let mean_service_s = fleet.len() as f64 * shards as f64 / capacity_rps;
    let autoscale = AutoscalePolicy::new(1, 4)
        .with_check_interval_s(mean_service_s * 5.0)
        .with_provision_delay_s(mean_service_s * 25.0);
    Context { costs, fleet, autoscale, capacity_rps, mean_service_s }
}

/// One golden row: its label and the hash of everything the replay
/// produced.
struct Row {
    label: String,
    served: usize,
    hash: u64,
    /// What the replay went through, so the table provably covers the
    /// paths it claims: requests shed, requests re-dispatched after a
    /// crash, executed scale events, provisioning failures.
    coverage: [usize; 4],
}

fn digest(label: &str, outcome: &ServeOutcome, trace: &Trace) -> Row {
    let mut hash = fnv1a(FNV_OFFSET, &records_bytes(label, outcome));
    hash = fnv1a(hash, &format!("{outcome:?}"));
    hash = fnv1a(hash, &format!("{trace:?}"));
    let coverage = [
        outcome.shed.len(),
        outcome.redispatched(),
        outcome.scale_events.len(),
        outcome.provision_failures as usize,
    ];
    Row { label: label.to_string(), served: outcome.requests(), hash, coverage }
}

fn records_bytes(label: &str, outcome: &ServeOutcome) -> String {
    let mut artifact = Artifact::new("engine_golden", 1);
    artifact.extend(outcome.records(label, &[("cell".to_string(), label.to_string())]));
    artifact.to_bytes()
}

/// Replays one open-loop library cell: traced on the serial plan, then
/// untraced as 3 epochs, which must reproduce the serial outcome.
fn open_cell(
    ctx: &Context,
    sc: &ScenarioSpec,
    index: usize,
    policy: Policy,
    dispatch: DispatchKind,
) -> Row {
    let rps = (sc.load * ctx.capacity_rps).round();
    let duration_s = REQUESTS as f64 / rps;
    let seed = SEED + index as u64;
    let base = StreamSpec {
        arrival: ArrivalProcess::Poisson,
        rps,
        duration_s,
        mix_size: DATASETS,
        shrinks: SHRINKS.to_vec(),
        seed,
    };
    let workload = Workload::Shaped(sc.shaped(base));
    let fault = sc.fault_spec(seed, duration_s);
    let mut cfg = ServeConfig::new(policy, &ctx.fleet, dispatch, &ctx.costs);
    cfg.autoscale = sc.elastic.then_some(&ctx.autoscale);
    cfg.queue_bound = sc.queue_bound;
    cfg.faults = fault.as_ref();

    let label = format!("{}/{}/{}", sc.name, policy.name(), dispatch.name());
    let serial = EnginePlan::serial().with_threads(1);
    let (outcome, trace) = simulate_config_traced_parallel(&workload, &cfg, &serial);
    let epochs = EnginePlan::serial().with_epochs(3).with_threads(2);
    assert_eq!(
        outcome,
        simulate_config_parallel(&workload, &cfg, &epochs),
        "{label}: 3 epochs must reproduce the serial outcome"
    );
    digest(&label, &outcome, &trace)
}

/// Replays the closed loop under `plan` (a lane count is part of the
/// scenario, so serial and 2 lanes are two rows, not one).
fn closed_cell(ctx: &Context, label: &str, plan: &EnginePlan) -> Row {
    let clients = REQUESTS / 8;
    let load_rps = 0.8 * ctx.capacity_rps;
    let workload = Workload::Closed(ClosedLoopSpec {
        clients,
        think_s: (clients as f64 / load_rps - ctx.mean_service_s).max(0.0),
        duration_s: REQUESTS as f64 / load_rps,
        mix_size: DATASETS,
        shrinks: SHRINKS.to_vec(),
        seed: SEED,
    });
    let cfg = ServeConfig::new(Policy::Fifo, &ctx.fleet, DispatchKind::LeastLoaded, &ctx.costs);
    let (outcome, trace) = simulate_config_traced_parallel(&workload, &cfg, plan);
    assert_eq!(outcome, simulate_config_parallel(&workload, &cfg, plan), "{label}: traced");
    digest(label, &outcome, &trace)
}

/// `(requests served, hash)` per cell, in `rows()` order.
const GOLDEN: &[(usize, u64)] = &[
    (1529, 0xdad09e6327a3def6), // diurnal/fifo/least-loaded
    (1529, 0x8000ae9edc951a28), // diurnal/fifo/affinity
    (1529, 0x5c89813a0ae4bb45), // diurnal/fifo/cost
    (1529, 0x2b83d0c24441a4f0), // diurnal/sjf/least-loaded
    (1529, 0xb3a7fbb707131e30), // diurnal/sjf/affinity
    (1529, 0x07fed323a0938f04), // diurnal/sjf/cost
    (1529, 0xa276d95d4e772dfa), // diurnal/batch8/least-loaded
    (1529, 0x006dc2ca336a5f5a), // diurnal/batch8/affinity
    (1529, 0xc10bd37cd5f0d4d9), // diurnal/batch8/cost
    (1881, 0xb3f14559418ae958), // flash/fifo/least-loaded
    (1881, 0x9db48c1aa71aa59a), // flash/fifo/affinity
    (1881, 0x04cd7d3317dcad79), // flash/fifo/cost
    (1881, 0x61db644793e0e50c), // flash/sjf/least-loaded
    (1881, 0x3843c8745e9b0449), // flash/sjf/affinity
    (1881, 0x30f7bccd9c5c1d9c), // flash/sjf/cost
    (1881, 0x20ebb70ca2d69d16), // flash/batch8/least-loaded
    (1881, 0x13104171fa53e093), // flash/batch8/affinity
    (1881, 0x529cdced164feb3b), // flash/batch8/cost
    (554, 0x4fb825b405ef8515),  // overload/fifo/least-loaded
    (432, 0xda44b84e20047af4),  // overload/fifo/affinity
    (575, 0xff81c2cf2ea8c3f5),  // overload/fifo/cost
    (658, 0x295f962ff8946122),  // overload/sjf/least-loaded
    (529, 0x69f648b08f6952b8),  // overload/sjf/affinity
    (663, 0x432d45c90797ce51),  // overload/sjf/cost
    (907, 0xf890a0274a3a8fc4),  // overload/batch8/least-loaded
    (719, 0xb0d19ab6a6d9163c),  // overload/batch8/affinity
    (918, 0x26e45981488c793d),  // overload/batch8/cost
    (1054, 0x332c978e3901f726), // tenants/fifo/least-loaded
    (799, 0xa1e90ea898382d17),  // tenants/fifo/affinity
    (1058, 0x6b15a3ec0dd34957), // tenants/fifo/cost
    (1166, 0xcab072aa65e89d6b), // tenants/sjf/least-loaded
    (904, 0x1db812993ce8195e),  // tenants/sjf/affinity
    (1166, 0x0a62e101863bae07), // tenants/sjf/cost
    (1182, 0x50553ababea9b41e), // tenants/batch8/least-loaded
    (1182, 0xad1f5fbd6276ba75), // tenants/batch8/affinity
    (1182, 0xbc7a018534bad4e5), // tenants/batch8/cost
    (1486, 0xcd4132fcaae0dc28), // crash/fifo/least-loaded
    (1486, 0xcf1755cad466b181), // crash/fifo/affinity
    (1486, 0xa46edbe8cf99cb6a), // crash/fifo/cost
    (1486, 0xe26e85010c666c25), // crash/sjf/least-loaded
    (1486, 0x5c0775bd7cfae5d4), // crash/sjf/affinity
    (1486, 0x9e124169e00e86a2), // crash/sjf/cost
    (1486, 0x2664594e1025a4c6), // crash/batch8/least-loaded
    (1486, 0x685613b07aacad0f), // crash/batch8/affinity
    (1486, 0x7686620ca58d093f), // crash/batch8/cost
    (1453, 0xd04081b45edb5eea), // degraded/fifo/least-loaded
    (1453, 0xa01f0fb1c104289c), // degraded/fifo/affinity
    (1453, 0x3da1ac8ed77bcf58), // degraded/fifo/cost
    (1453, 0xee564cbe89328688), // degraded/sjf/least-loaded
    (1453, 0x665da8d5aa6261b7), // degraded/sjf/affinity
    (1453, 0x258ba90ceb859baa), // degraded/sjf/cost
    (1453, 0xe9e60639bbcc6aec), // degraded/batch8/least-loaded
    (1453, 0x96edac781e8c2649), // degraded/batch8/affinity
    (1453, 0x324ff9ac052205d7), // degraded/batch8/cost
    (1442, 0x92cc81c33b35e837), // closed/serial
    (1423, 0xd5924b2ad110777a), // closed/lanes2
];

fn rows() -> Vec<Row> {
    let ctx = context();
    let mut rows = Vec::new();
    for (index, sc) in ScenarioSpec::library().iter().enumerate() {
        for policy in [Policy::Fifo, Policy::Sjf, Policy::batch(8, 0.002)] {
            for dispatch in DispatchKind::ALL {
                rows.push(open_cell(&ctx, sc, index, policy, dispatch));
            }
        }
    }
    rows.push(closed_cell(&ctx, "closed/serial", &EnginePlan::serial().with_threads(1)));
    rows.push(closed_cell(
        &ctx,
        "closed/lanes2",
        &EnginePlan::serial().with_lanes(2).with_threads(2),
    ));
    rows
}

#[test]
fn serve_outcomes_match_the_pinned_engine() {
    let rows = rows();
    let table: String = rows
        .iter()
        .map(|row| format!("    ({}, {:#018x}), // {}\n", row.served, row.hash, row.label))
        .collect();
    assert_eq!(rows.len(), GOLDEN.len(), "full table:\n{table}");
    for (path, name) in
        ["shed", "crash re-dispatch", "scale event", "provision failure"].iter().enumerate()
    {
        assert!(rows.iter().any(|row| row.coverage[path] > 0), "no cell exercises a {name}");
    }
    for (row, golden) in rows.iter().zip(GOLDEN) {
        assert_eq!(
            (row.served, row.hash),
            *golden,
            "{} diverged from the pinned engine; full table:\n{table}",
            row.label
        );
    }
}
