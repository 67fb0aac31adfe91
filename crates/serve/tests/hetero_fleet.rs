//! The pinned mixed-class scenario behind the heterogeneous-fleet claim:
//! at equal total shards *and* equal aggregate peak throughput, a
//! class-affinity Tile-64 + Tile-4 fleet beats the homogeneous Tile-16
//! fleet on p99 latency — and class-*blind* dispatch squanders the same
//! silicon.
//!
//! Costs are pinned to the chips' Table-5 peak throughputs (8 / 32 / 128
//! GFLOP/s for Tile-4/16/64): a request of `w` flops takes `w / peak`
//! seconds, the throughput-bound regime the paper's scaling argument
//! describes. That keeps the scenario deterministic and meaningful on
//! small graphs, where cycle-level simulations stop separating the tile
//! sizes. Both fleets aggregate 160 GFLOP/s over five
//! shards; the only difference is how the silicon is carved up — exactly
//! the variable the dispatch policy exploits.

use neura_chip::config::{ChipConfig, TileSize};
use neura_serve::{
    simulate_config_parallel, ArrivalProcess, ClassCost, CostTable, DispatchKind, EnginePlan,
    FleetMix, Policy, Request, RequestClass, ServeConfig, ServeOutcome, StreamSpec, Workload,
};

/// Flops of the two request classes: a heavy GNN query and a light one.
const BIG_FLOPS: u64 = 48_000_000;
const SMALL_FLOPS: u64 = 1_600_000;

/// Service on each tile = flops / peak throughput. All three chips run at
/// 1 GHz, so `cycles = flops / flops_per_cycle` (8 / 32 / 128, Table 5).
fn peak_costs() -> CostTable {
    let mut costs = CostTable::new();
    for (tile, flops_per_cycle) in
        [(TileSize::Tile4, 8u64), (TileSize::Tile16, 32), (TileSize::Tile64, 128)]
    {
        let fp = costs.register(&ChipConfig::for_tile_size(tile));
        for (dataset, flops) in [(0usize, BIG_FLOPS), (1usize, SMALL_FLOPS)] {
            costs.insert(
                &fp,
                RequestClass { dataset, shrink: 1 },
                ClassCost { cycles: flops / flops_per_cycle, flops },
            );
        }
    }
    costs
}

/// The pinned stream: a 50/50 big/small mix at 1600 req/s for one
/// simulated second (~1600 requests) — about 25% load on the homogeneous
/// fleet and 30% on the lone Tile-64, so queueing is present but the tail
/// is governed by placement, not saturation.
fn pinned_stream() -> Vec<Request> {
    StreamSpec {
        arrival: ArrivalProcess::Poisson,
        rps: 1600.0,
        duration_s: 1.0,
        mix_size: 2,
        shrinks: vec![1],
        seed: 0xBEEF,
    }
    .generate()
}

/// Serial FIFO replay of `stream` on `mix` under `dispatch`.
fn fifo(
    stream: &[Request],
    mix: &FleetMix,
    dispatch: DispatchKind,
    costs: &CostTable,
) -> ServeOutcome {
    let cfg = ServeConfig::new(Policy::Fifo, &mix.groups, dispatch, costs);
    simulate_config_parallel(&Workload::Replay(stream.to_vec()), &cfg, &EnginePlan::serial())
}

#[test]
fn class_affinity_hetero_fleet_beats_equal_shard_homogeneous_on_p99() {
    let stream = pinned_stream();
    assert!(stream.len() > 1000, "the pinned stream must carry real load");
    let costs = peak_costs();

    let hetero = FleetMix::mixed(&[(TileSize::Tile64, 1), (TileSize::Tile4, 4)]);
    let homogeneous = FleetMix::uniform(TileSize::Tile16, 5);
    assert_eq!(hetero.total_shards(), homogeneous.total_shards(), "equal shard counts");
    let peak = |mix: &FleetMix| -> f64 {
        mix.groups.iter().map(|g| g.config.peak_gflops() * g.shards as f64).sum()
    };
    assert!(
        (peak(&hetero) - peak(&homogeneous)).abs() < 1e-9,
        "equal aggregate peak throughput (160 GFLOP/s): the comparison is about carving, not size"
    );

    let p99 = |mix: &FleetMix, dispatch: DispatchKind| {
        fifo(&stream, mix, dispatch, &costs).latency_percentile_s(99.0)
    };
    let hetero_affinity = p99(&hetero, DispatchKind::ClassAffinity);
    let hetero_blind = p99(&hetero, DispatchKind::LeastLoaded);
    let hom = p99(&homogeneous, DispatchKind::LeastLoaded);

    // The headline claim: big classes ride the Tile-64, so the mixed fleet
    // cuts the tail well below what five mid-size chips manage.
    assert!(
        hetero_affinity < hom * 0.75,
        "class-affinity hetero p99 {hetero_affinity} must beat homogeneous p99 {hom} clearly"
    );
    // And the fleet alone is not enough: blind least-loaded dispatch lands
    // big requests on Tile-4 shards (4x slower than Tile-16), making the
    // same silicon *worse* than the homogeneous fleet.
    assert!(
        hetero_blind > hom,
        "class-blind dispatch on the mixed fleet ({hetero_blind}) should lag homogeneous ({hom})"
    );
    // Greedy cost-aware dispatch (lowest service time among *idle* shards,
    // never waiting) improves the mean — it never picks a slower idle
    // shard than least-loaded would — but still overflows big requests
    // onto Tile-4 silicon whenever the Tile-64 is busy, so its *tail* hits
    // the same ~6 ms overflow wall. Only affinity's willingness to queue
    // for the right silicon rescues the p99.
    let cost_out = fifo(&stream, &hetero, DispatchKind::CostAware, &costs);
    let blind_out = fifo(&stream, &hetero, DispatchKind::LeastLoaded, &costs);
    assert!(
        cost_out.mean_latency_s() < blind_out.mean_latency_s(),
        "cost-aware dispatch must improve the mean over class-blind dispatch ({} vs {})",
        cost_out.mean_latency_s(),
        blind_out.mean_latency_s()
    );
    assert!(
        hetero_affinity < cost_out.latency_percentile_s(99.0),
        "waiting for the right silicon must beat greedy placement on the tail"
    );
}

#[test]
fn per_group_accounting_splits_the_mixed_fleet() {
    let stream = pinned_stream();
    let costs = peak_costs();
    let hetero = FleetMix::mixed(&[(TileSize::Tile64, 1), (TileSize::Tile4, 4)]);
    let outcome = fifo(&stream, &hetero, DispatchKind::ClassAffinity, &costs);
    let groups = &outcome.group_stats;
    assert_eq!(groups.len(), 2);
    assert_eq!(groups[0].name, "t64");
    assert_eq!(groups[1].name, "t4");
    let total: u64 = groups.iter().map(|g| g.requests).sum();
    assert_eq!(total as usize, stream.len());
    assert!(groups[0].requests > 0 && groups[1].requests > 0, "both groups pull weight");
    // Shard-seconds: every provisioned shard is paid for over the makespan.
    assert!(
        (outcome.shard_seconds() - 5.0 * outcome.makespan_s).abs() < 1e-9,
        "fixed 5-shard fleet costs 5 shard-seconds per second"
    );
    // Affinity keeps almost all big-class work on the Tile-64: its busy
    // time dominates despite being one shard out of five.
    assert!(groups[0].busy_s > groups[1].busy_s);
}
