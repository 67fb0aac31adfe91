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
//! table: the failure message prints the rows to paste. So does a change
//! to what the `Debug` rendering holds.

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
    (1529, 0x4a8366b7dc04541b), // diurnal/fifo/least-loaded
    (1529, 0x61b4c8a322f95a8b), // diurnal/fifo/affinity
    (1529, 0x7206bf8e8e965ce1), // diurnal/fifo/cost
    (1529, 0xf1f99b3bb0d99edc), // diurnal/sjf/least-loaded
    (1529, 0xa8fa789c4bfab569), // diurnal/sjf/affinity
    (1529, 0x97b7e4246694b240), // diurnal/sjf/cost
    (1529, 0x7f77625719e2a05e), // diurnal/batch8/least-loaded
    (1529, 0xef66131ff7e41759), // diurnal/batch8/affinity
    (1529, 0x36da87800d979e2e), // diurnal/batch8/cost
    (1881, 0xd639a09beed51abe), // flash/fifo/least-loaded
    (1881, 0xffd8ec0f901e6863), // flash/fifo/affinity
    (1881, 0xd24c0fb86b467b37), // flash/fifo/cost
    (1881, 0xc12bf147336fb8eb), // flash/sjf/least-loaded
    (1881, 0x41288f2a0d185589), // flash/sjf/affinity
    (1881, 0xd21d04233ed8efc4), // flash/sjf/cost
    (1881, 0x0fffa75665436afd), // flash/batch8/least-loaded
    (1881, 0x931d96fb42f3a3c6), // flash/batch8/affinity
    (1881, 0xa7233b798b3d429c), // flash/batch8/cost
    (554, 0xb8543ad97ef1bc6c),  // overload/fifo/least-loaded
    (432, 0x19e406f387ddc279),  // overload/fifo/affinity
    (575, 0xb80e46f1e244e410),  // overload/fifo/cost
    (658, 0xf6d11225a559e65f),  // overload/sjf/least-loaded
    (529, 0xb833a2125e0fe8c9),  // overload/sjf/affinity
    (663, 0x96e9607aa4e02cb2),  // overload/sjf/cost
    (907, 0xfbf0516d2a1c1998),  // overload/batch8/least-loaded
    (719, 0x5ca77dcceeb56169),  // overload/batch8/affinity
    (918, 0x757981f004c68b51),  // overload/batch8/cost
    (1054, 0x949be98af278f579), // tenants/fifo/least-loaded
    (799, 0xbf16d2e604edc548),  // tenants/fifo/affinity
    (1058, 0xda5db38d23112fba), // tenants/fifo/cost
    (1166, 0x14855c57866b1348), // tenants/sjf/least-loaded
    (904, 0x39b391f9877178e3),  // tenants/sjf/affinity
    (1166, 0x1e97c113ee4b0d30), // tenants/sjf/cost
    (1182, 0x71fe83179cdec2c8), // tenants/batch8/least-loaded
    (1182, 0xca6a413f91d4a61d), // tenants/batch8/affinity
    (1182, 0xdf987ce5b80a190d), // tenants/batch8/cost
    (1486, 0xd2656d5d6ed38442), // crash/fifo/least-loaded
    (1486, 0x6631222b1c757d33), // crash/fifo/affinity
    (1486, 0x1b10696bc0bb6c20), // crash/fifo/cost
    (1486, 0xafffac066ae1975a), // crash/sjf/least-loaded
    (1486, 0x689947ef8161659b), // crash/sjf/affinity
    (1486, 0x577e54941866c31f), // crash/sjf/cost
    (1486, 0x4240ec14fddea830), // crash/batch8/least-loaded
    (1486, 0x5ec3d619a22db0d1), // crash/batch8/affinity
    (1486, 0x76e1352e6db26d13), // crash/batch8/cost
    (1453, 0xed0ff348179f72a6), // degraded/fifo/least-loaded
    (1453, 0x2c9b48ace62777fa), // degraded/fifo/affinity
    (1453, 0xf44ebcb4ba47da4b), // degraded/fifo/cost
    (1453, 0xdf76d7c5d9b9edfe), // degraded/sjf/least-loaded
    (1453, 0x682d8742b85322bb), // degraded/sjf/affinity
    (1453, 0xe61da850b1e28318), // degraded/sjf/cost
    (1453, 0x68def738cad3796b), // degraded/batch8/least-loaded
    (1453, 0x1afb5fe184a96691), // degraded/batch8/affinity
    (1453, 0xb91004908bb03dff), // degraded/batch8/cost
    (1442, 0xa79562c097c77956), // closed/serial
    (1423, 0xba344f3a5ad2eb2f), // closed/lanes2
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
