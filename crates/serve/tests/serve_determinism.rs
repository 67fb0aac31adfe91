//! The serving artifact contract, mirroring `tune_determinism.rs`: a serve
//! sweep — including heterogeneous fleets, class-aware dispatch,
//! closed-loop arms and an autoscaled arm — executed on the `neura_lab`
//! runner must produce byte-identical artifact JSON for any worker count,
//! and repeat runs of the same sweep must reproduce the bytes exactly.

use neura_chip::config::{ChipConfig, TileSize};
use neura_lab::{Artifact, Runner};
use neura_serve::{
    simulate_config_parallel, ArrivalProcess, AutoscalePolicy, ClassCost, CostTable, DispatchKind,
    EnginePlan, FleetMix, Policy, RequestClass, ServeConfig, ServeSweep,
};

/// Synthetic costs for every class on all three tile sizes: bigger silicon
/// serves faster, in proportion to its peak throughput.
fn costs() -> CostTable {
    let mut table = CostTable::new();
    for (tile, divisor) in [(TileSize::Tile4, 1u64), (TileSize::Tile16, 4), (TileSize::Tile64, 16)]
    {
        let fp = table.register(&ChipConfig::for_tile_size(tile));
        for dataset in 0..2usize {
            for shrink in [1usize, 2] {
                let single = 1_500_000 * (dataset as u64 + 1) / shrink as u64;
                table.insert(
                    &fp,
                    RequestClass { dataset, shrink },
                    ClassCost {
                        cycles: (single / divisor).max(1),
                        flops: 100 * (dataset as u64 + 1) / shrink as u64,
                    },
                );
            }
        }
    }
    table
}

fn run_with(threads: usize) -> String {
    let sweep = ServeSweep::new()
        .arrivals(ArrivalProcess::ALL)
        .rps([300.0, 900.0])
        .closed_clients([8])
        .think_s(0.001)
        .policies([Policy::Fifo, Policy::Sjf, Policy::batch(4, 0.002)])
        .fleets([
            FleetMix::uniform(TileSize::Tile16, 1),
            FleetMix::uniform(TileSize::Tile16, 3),
            FleetMix::mixed(&[(TileSize::Tile64, 1), (TileSize::Tile4, 2)]),
        ])
        .dispatches([DispatchKind::LeastLoaded, DispatchKind::ClassAffinity])
        .autoscale([None, Some(AutoscalePolicy::new(1, 3).with_check_interval_s(0.01))]);
    let scenarios = sweep.scenarios("det", 42);
    assert_eq!(scenarios.len(), (2 * 2 + 1) * 3 * 3 * 2 * 2);
    let table = costs();
    let outcomes = Runner::new(threads).run(&scenarios, |_, scenario| {
        let workload = scenario.workload_spec(1.0, 2, &[1, 2]);
        let mut cfg =
            ServeConfig::new(scenario.policy, &scenario.fleet.groups, scenario.dispatch, &table);
        cfg.autoscale = scenario.autoscale.as_ref();
        simulate_config_parallel(&workload, &cfg, &EnginePlan::serial())
    });
    let mut artifact = Artifact::new("serve", 1);
    for (scenario, outcome) in scenarios.iter().zip(&outcomes) {
        artifact.extend(outcome.records(&scenario.id, &scenario.params()));
    }
    artifact.to_bytes()
}

#[test]
fn two_and_eight_thread_sweeps_emit_identical_bytes() {
    let two = run_with(2);
    let eight = run_with(8);
    assert!(!two.is_empty());
    assert_eq!(two, eight, "serve artifact bytes must not depend on the thread count");
    assert_eq!(two, run_with(2), "repeat runs reproduce the bytes exactly");

    // The bytes round-trip through the parser: 180 scenarios, each one
    // summary + per-group + per-shard records, every record carrying
    // metrics.
    let parsed = Artifact::from_json(&neura_lab::parse_json(&two).unwrap()).unwrap();
    let summaries: Vec<_> = parsed.records.iter().filter(|r| r.id.ends_with("/summary")).collect();
    assert_eq!(summaries.len(), 180);
    assert!(parsed.records.iter().all(|r| !r.metrics.is_empty()));
    assert!(summaries.iter().all(|r| r.metric_value("p99_latency_ms").is_some()
        && r.metric_value("throughput_rps").is_some()
        && r.metric_value("shard_seconds").is_some()));
    // Heterogeneous arms carry one record per group, autoscaled arms carry
    // scale-event counts, closed-loop arms an in-flight cap.
    assert!(parsed
        .records
        .iter()
        .any(|r| r.id.contains("/t64x1+t4x2/") && r.id.ends_with("/group/t64")));
    assert!(summaries
        .iter()
        .filter(|r| r.id.contains("/as1-3"))
        .all(|r| r.metric_value("scale_events").is_some()));
    assert!(summaries
        .iter()
        .filter(|r| r.id.contains("/closed8/"))
        .all(|r| r.metric_value("max_in_flight").unwrap() <= 8.0));
}
