//! Tier-1 golden for the serving event loop itself, the counterpart of
//! `crates/chip/tests/loop_golden.rs`.
//!
//! Every library scenario is replayed at ~1 500 requests under each
//! scheduling policy × each dispatch policy on a mixed Tile-4/16/64 fleet
//! priced from a synthetic cost table, and one hash per cell pins the
//! artifact bytes of [`ServeOutcome::records`], the fields of the
//! [`ServeOutcome`] (every per-request latency, batch size, crash and
//! scale event) and the lifecycle trace, each named in a fixed order by
//! `outcome_words` and `trace_words`. Each cell runs traced on the serial
//! plan and untraced as 3 epoch fragments, and the two outcomes must be
//! equal; a closed loop is pinned serial and as 2 lanes.
//! The elastic and fault scenarios take the replay through autoscaling,
//! crash re-dispatch and epoch seams.
//!
//! The values are pinned, so a host-side optimisation of `engine.rs` that
//! moves a simulated number fails here rather than only in
//! `just serve-parallel`, which tier-1 does not run.
//!
//! A change that *means* to alter the serving model re-captures the
//! table: the failure message prints the rows to paste. A field added to
//! the outcome or the trace leaves the table as it is until it is named
//! in `outcome_words` or `trace_words`; naming it re-captures the table.

use neura_chip::config::{ChipConfig, TileSize};
use neura_lab::Artifact;
use neura_serve::{
    simulate_config_parallel, simulate_config_traced_parallel, ArrivalProcess, AutoscalePolicy,
    ClassCost, ClosedLoopSpec, CostTable, DispatchKind, EnginePlan, Policy, RequestClass,
    ScenarioSpec, ServeConfig, ServeOutcome, ShardGroup, ShedReason, StreamSpec, Trace, TraceEvent,
    Workload,
};

const REQUESTS: usize = 1_500;
const DATASETS: usize = 4;
const SHRINKS: [usize; 3] = [1, 2, 4];
const SEED: u64 = 0x5EED_601D;

/// FNV-1a (stable across platforms and std versions, unlike
/// `DefaultHasher`).
fn fnv1a(hash: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
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
    let mut words = Words::default();
    outcome_words(outcome, &mut words);
    trace_words(trace, &mut words);
    let hash = fnv1a(fnv1a(FNV_OFFSET, records_bytes(label, outcome).into_bytes()), words.bytes());
    let coverage = [
        outcome.shed.len(),
        outcome.redispatched(),
        outcome.scale_events.len(),
        outcome.provision_failures as usize,
    ];
    Row { label: label.to_string(), served: outcome.requests(), hash, coverage }
}

/// The words a replay is hashed by: every number as a `u64` (a float by
/// its bits), a list or a text preceded by its length.
#[derive(Default)]
struct Words(Vec<u64>);

impl Words {
    fn u(&mut self, value: u64) -> &mut Self {
        self.0.push(value);
        self
    }

    fn n(&mut self, value: usize) -> &mut Self {
        self.u(value as u64)
    }

    fn f(&mut self, value: f64) -> &mut Self {
        self.u(value.to_bits())
    }

    /// `None` and `Some(x)` differ in their first word.
    fn opt(&mut self, value: Option<f64>) -> &mut Self {
        match value {
            Some(x) => self.u(1).f(x),
            None => self.u(0),
        }
    }

    fn text(&mut self, text: &str) -> &mut Self {
        self.n(text.len());
        text.bytes().for_each(|byte| self.0.push(u64::from(byte)));
        self
    }

    fn floats(&mut self, values: &[f64]) -> &mut Self {
        self.n(values.len());
        self.0.extend(values.iter().map(|value| value.to_bits()));
        self
    }

    fn counts(&mut self, values: &[usize]) -> &mut Self {
        self.n(values.len());
        self.0.extend(values.iter().map(|&value| value as u64));
        self
    }

    fn list<T>(&mut self, items: &[T], mut each: impl FnMut(&mut Self, &T)) -> &mut Self {
        self.n(items.len());
        items.iter().for_each(|item| each(self, item));
        self
    }

    fn bytes(&self) -> impl Iterator<Item = u8> + '_ {
        self.0.iter().flat_map(|word| word.to_le_bytes())
    }
}

/// Every field of `outcome`, in declaration order.
fn outcome_words(outcome: &ServeOutcome, w: &mut Words) {
    w.floats(&outcome.latencies_s).floats(&outcome.arrivals_s);
    w.counts(&outcome.tenants).counts(&outcome.shed);
    w.u(outcome.shed_queue).u(outcome.shed_limit);
    w.list(&outcome.tenant_outcomes, |w, t| {
        w.text(&t.name).opt(t.slo_s).u(t.offered).u(t.shed);
    });
    w.list(&outcome.crash_events, |w, c| {
        w.f(c.at_s).n(c.shard).n(c.group).n(c.redispatched);
    });
    w.u(outcome.provision_failures).f(outcome.makespan_s);
    w.f(outcome.queue_depth_mean).n(outcome.queue_depth_max).n(outcome.max_in_flight());
    w.counts(&outcome.batch_sizes);
    w.list(&outcome.shard_stats, |w, s| {
        w.f(s.busy_s).u(s.batches).u(s.requests);
    });
    w.counts(&outcome.shard_groups);
    w.list(&outcome.group_stats, |w, g| {
        w.text(&g.name).n(g.capacity).f(g.busy_s).u(g.batches).u(g.requests);
        w.f(g.shard_seconds).n(g.peak_active);
    });
    w.list(&outcome.scale_events, |w, e| {
        w.f(e.decision_s).f(e.effect_s).n(e.group).u(e.delta as u64).n(e.active_total);
    });
}

/// The trace's groups, tenants and events; an event is its variant's
/// number, then its fields in declaration order.
fn trace_words(trace: &Trace, w: &mut Words) {
    w.list(&trace.groups, |w, g| {
        w.text(&g.name).n(g.initial_shards);
    });
    w.list(&trace.tenants, |w, t| {
        w.text(&t.name).opt(t.slo_s);
    });
    w.list(&trace.events, |w, event| {
        match *event {
            TraceEvent::Arrival { at_s, id, tenant } => w.u(0).f(at_s).n(id).n(tenant),
            TraceEvent::Admit { at_s, id } => w.u(1).f(at_s).n(id),
            TraceEvent::Shed { at_s, id, tenant, reason } => {
                let reason = match reason {
                    ShedReason::QueueFull => 0,
                    ShedReason::RateLimited => 1,
                };
                w.u(2).f(at_s).n(id).n(tenant).u(reason)
            }
            TraceEvent::Dispatch { at_s, shard, group, requests, service_s } => {
                w.u(3).f(at_s).n(shard).n(group).n(requests).f(service_s)
            }
            TraceEvent::Complete { at_s, id, tenant, latency_s } => {
                w.u(4).f(at_s).n(id).n(tenant).f(latency_s)
            }
            TraceEvent::Crash { at_s, shard, group, redispatched, lost_service_s } => {
                w.u(5).f(at_s).n(shard).n(group).n(redispatched).f(lost_service_s)
            }
            TraceEvent::Scale { at_s, group, delta, active_total } => {
                w.u(6).f(at_s).n(group).u(delta as u64).n(active_total)
            }
            TraceEvent::ProvisionFailure { at_s, group } => w.u(7).f(at_s).n(group),
        };
    });
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
    (1529, 0xb79e85907b4990ad), // diurnal/fifo/least-loaded
    (1529, 0x20fd192619a1bd3e), // diurnal/fifo/affinity
    (1529, 0x9af38804bbf1221e), // diurnal/fifo/cost
    (1529, 0xf7a1cb7163c31132), // diurnal/sjf/least-loaded
    (1529, 0xfddd7631adae13c4), // diurnal/sjf/affinity
    (1529, 0x1be5889b5f6b3ed6), // diurnal/sjf/cost
    (1529, 0xd9b6ab4a7e15cd92), // diurnal/batch8/least-loaded
    (1529, 0xf22c9996dd850e48), // diurnal/batch8/affinity
    (1529, 0x63f25c7ff3a57c8f), // diurnal/batch8/cost
    (1881, 0x5a35684dace9824b), // flash/fifo/least-loaded
    (1881, 0x2a2283698fbf7613), // flash/fifo/affinity
    (1881, 0xfac4781f77b60917), // flash/fifo/cost
    (1881, 0x8ecfd30d23a92469), // flash/sjf/least-loaded
    (1881, 0xd6485e2b0cdd75e1), // flash/sjf/affinity
    (1881, 0x877fcb0a2dc341b2), // flash/sjf/cost
    (1881, 0x27ee9d0d5d6b38be), // flash/batch8/least-loaded
    (1881, 0x5654bde6633a0c3a), // flash/batch8/affinity
    (1881, 0x3fa0561e334e4c0c), // flash/batch8/cost
    (554, 0x50adb312d43d21f2),  // overload/fifo/least-loaded
    (432, 0xaf3564ce2561b0fe),  // overload/fifo/affinity
    (575, 0xc44a15a91edcf5e6),  // overload/fifo/cost
    (658, 0xb063d77af03ad013),  // overload/sjf/least-loaded
    (529, 0x1f320658829a885d),  // overload/sjf/affinity
    (663, 0x7845e8b8b08819a8),  // overload/sjf/cost
    (907, 0xc86b65a4f707648f),  // overload/batch8/least-loaded
    (719, 0xf566a07eca86d1d2),  // overload/batch8/affinity
    (918, 0x6a64a864a907eae4),  // overload/batch8/cost
    (1054, 0x0f8f465584fa51f9), // tenants/fifo/least-loaded
    (799, 0xa6ece8a32c2717ec),  // tenants/fifo/affinity
    (1058, 0x99ea7c41a0dd3327), // tenants/fifo/cost
    (1166, 0x0a3e857b80ad55c9), // tenants/sjf/least-loaded
    (904, 0xad9ecf3606f97d6e),  // tenants/sjf/affinity
    (1166, 0x8c5b22bc84cbb121), // tenants/sjf/cost
    (1182, 0xa674e7b3620e9597), // tenants/batch8/least-loaded
    (1182, 0x0ad177d293f6d90b), // tenants/batch8/affinity
    (1182, 0x671b2ebd62daa846), // tenants/batch8/cost
    (1486, 0x2419c4e87927b6db), // crash/fifo/least-loaded
    (1486, 0x6df901178cabefa2), // crash/fifo/affinity
    (1486, 0x2cb0f6b8baedeb6b), // crash/fifo/cost
    (1486, 0xb1fc729e5c4cd4ba), // crash/sjf/least-loaded
    (1486, 0x3839665411645e17), // crash/sjf/affinity
    (1486, 0x32e40157a80073a8), // crash/sjf/cost
    (1486, 0xa1aea7520f38d098), // crash/batch8/least-loaded
    (1486, 0x9a21c41c38cdd7c6), // crash/batch8/affinity
    (1486, 0x742ea67a78056ee7), // crash/batch8/cost
    (1453, 0xd7e5e0b32ee629a2), // degraded/fifo/least-loaded
    (1453, 0xceabdb51ac388b54), // degraded/fifo/affinity
    (1453, 0x347e08fef78fdd2e), // degraded/fifo/cost
    (1453, 0xfbf62efa42d9497e), // degraded/sjf/least-loaded
    (1453, 0x5a3285e5506f972b), // degraded/sjf/affinity
    (1453, 0x43adff07a1adb439), // degraded/sjf/cost
    (1453, 0xab32526ba49c4a32), // degraded/batch8/least-loaded
    (1453, 0x97c27f92f75c905e), // degraded/batch8/affinity
    (1453, 0xfa799cfc3215ddf0), // degraded/batch8/cost
    (1442, 0x93d1a2f7e51cdc64), // closed/serial
    (1423, 0xd250de3f990a3a35), // closed/lanes2
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
