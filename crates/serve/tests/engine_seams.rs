//! Seam-hazard tests of the parallel-in-time engine: hand-built schedules
//! where the nastiest timer interactions — a batch flush deadline, an
//! autoscaler check and a request arrival — land *exactly on* or straddle
//! an epoch boundary, and the epoch replay must still fire them in serial
//! order (outcome *and* trace byte-equal to the serial engine). Every
//! time constant here is a power-of-two fraction of a second, so deadline
//! and boundary times are exactly representable and the coincidences are
//! exact, not approximate. Also covers: fragments that drain long before
//! their boundary (idempotent terminal accrual), more epochs than events,
//! closed-loop epoch identity, and the lane decomposition's thread
//! invariance and conservation.

use neura_chip::config::ChipConfig;
use neura_serve::{
    simulate_config_parallel, simulate_config_traced_parallel, AutoscalePolicy, ClassCost,
    ClosedLoopSpec, CostTable, DispatchKind, EnginePlan, Policy, Request, RequestClass,
    ServeConfig, ShardGroup, Workload,
};

/// Synthetic Tile-16 costs for datasets {0, 1} × shrinks {1, 2}.
fn costs() -> CostTable {
    let mut table = CostTable::new();
    let fp = table.register(&ChipConfig::tile_16());
    for dataset in 0..2usize {
        for shrink in [1usize, 2] {
            let cycles = 2_000_000 * (dataset as u64 + 1) / shrink as u64;
            table.insert(
                &fp,
                RequestClass { dataset, shrink },
                ClassCost { cycles, flops: cycles },
            );
        }
    }
    table
}

fn tile16_fleet(n: usize) -> Vec<ShardGroup> {
    vec![ShardGroup::new("t16", ChipConfig::tile_16(), n)]
}

fn request(id: usize, arrival_s: f64, dataset: usize, shrink: usize) -> Request {
    Request { id, arrival_s, class: RequestClass { dataset, shrink }, tenant: 0 }
}

/// The hand-built boundary-straddling schedule. Its last arrival — a
/// replay's horizon — lands at exactly `EPOCHS × EPOCH_S = 11/64`, so
/// `EPOCHS` equal epochs cut at every multiple of `EPOCH_S = 1/64`:
///
/// - the t = 0 burst under-fills the batch, so its flush deadline is
///   `0 + TIMEOUT = 1/64` — *exactly* the first epoch boundary;
/// - a request arrives at exactly `1/64` too, coinciding with both the
///   deadline and the boundary;
/// - the autoscaler checks every `1/256`, so a check also lands exactly
///   on every boundary (`1/64 = 4/256`), with more checks straddling it
///   on both sides;
/// - a straggler at `3/256` arrives *just* before the first boundary, so
///   in-flight work and a non-empty backlog carry across the seam.
const EPOCH_S: f64 = 1.0 / 64.0;
const EPOCHS: usize = 11;
const TIMEOUT_S: f64 = 1.0 / 64.0;
const CHECK_S: f64 = 1.0 / 256.0;
const PROVISION_S: f64 = 1.0 / 128.0;

fn boundary_schedule() -> Vec<Request> {
    let mut stream = vec![
        // A burst at t = 0 that under-fills the max batch: flush happens
        // on the timeout, exactly at the first epoch boundary.
        request(0, 0.0, 0, 1),
        request(1, 0.0, 0, 1),
        request(2, 0.0, 1, 2),
        // Just before the boundary: queued work straddles the seam.
        request(3, 3.0 / 256.0, 1, 1),
        // Exactly on the boundary, coinciding with the flush deadline.
        request(4, 1.0 / 64.0, 0, 2),
        // Just after it.
        request(5, 5.0 / 256.0, 0, 1),
    ];
    // A sparse tail across several more boundaries keeps the autoscaler
    // scaling both ways and the backlog draining and refilling; its last
    // arrival, at 44/256, sets the horizon.
    for k in 0..=12usize {
        stream.push(request(6 + k, 1.0 / 32.0 + k as f64 * 3.0 / 256.0, k % 2, 1 + k % 2));
    }
    assert_eq!(stream.last().map(|r| r.arrival_s), Some(EPOCHS as f64 * EPOCH_S));
    stream
}

#[test]
fn batch_deadline_and_autoscale_check_fire_in_serial_order_at_the_boundary() {
    let costs = costs();
    let fleet = tile16_fleet(1);
    let autoscale = AutoscalePolicy {
        up_backlog_per_shard: 2.0,
        ..AutoscalePolicy::new(1, 3)
            .with_check_interval_s(CHECK_S)
            .with_provision_delay_s(PROVISION_S)
    };
    let mut cfg =
        ServeConfig::new(Policy::batch(8, TIMEOUT_S), &fleet, DispatchKind::LeastLoaded, &costs);
    cfg.autoscale = Some(&autoscale);
    let schedule = boundary_schedule();
    let stream = Workload::Replay(schedule.clone());

    let (serial, serial_trace) =
        simulate_config_traced_parallel(&stream, &cfg, &EnginePlan::serial());
    // `EPOCHS` epochs put a boundary at every multiple of 1/64 — each one
    // coincides with a batch flush deadline and an autoscaler check, and
    // the first with an arrival as well.
    for plan in [
        EnginePlan::serial().with_epochs(EPOCHS),
        EnginePlan::serial().with_epochs(EPOCHS).with_threads(1),
        EnginePlan::serial().with_epochs(5),
        EnginePlan::serial().with_epochs(2).with_threads(8),
    ] {
        let (epoch, epoch_trace) = simulate_config_traced_parallel(&stream, &cfg, &plan);
        assert_eq!(serial, epoch, "outcome must not depend on the epoch plan {plan:?}");
        assert_eq!(serial_trace, epoch_trace, "trace order must survive the seam {plan:?}");
        assert_eq!(epoch, simulate_config_parallel(&stream, &cfg, &plan));
    }
    // The schedule really exercises what it claims: batching happened and
    // the autoscaler really moved.
    assert!(serial.batch_sizes.iter().any(|&b| b > 1), "the burst must batch");
    assert!(!serial.scale_events.is_empty(), "the autoscaler must act");
    assert_eq!(serial.requests(), schedule.len());
}

#[test]
fn fragments_that_drain_before_their_boundary_stay_identical() {
    let costs = costs();
    let fleet = tile16_fleet(2);
    let cfg = ServeConfig::new(Policy::Fifo, &fleet, DispatchKind::LeastLoaded, &costs);
    // Two tight clusters separated by a long quiet gap: with many epochs,
    // whole fragments drain to idle long before their boundary, and the
    // fragments after the last arrival re-enter an already-drained state
    // (the terminal accrual must be idempotent).
    let mut stream: Vec<Request> = (0..6).map(|i| request(i, 0.0, i % 2, 1)).collect();
    for i in 0..6usize {
        stream.push(request(6 + i, 0.75 + i as f64 * 1.0 / 1024.0, i % 2, 2));
    }
    let stream = Workload::Replay(stream);
    let serial = simulate_config_parallel(&stream, &cfg, &EnginePlan::serial());
    for epochs in [2usize, 3, 7, 64, 1024] {
        let plan = EnginePlan::serial().with_epochs(epochs);
        assert_eq!(
            serial,
            simulate_config_parallel(&stream, &cfg, &plan),
            "draining early must not perturb the merge at {epochs} epochs"
        );
    }
}

#[test]
fn closed_loop_epochs_match_the_serial_replay() {
    let costs = costs();
    let fleet = tile16_fleet(2);
    let cfg = ServeConfig::new(Policy::Sjf, &fleet, DispatchKind::LeastLoaded, &costs);
    let workload = Workload::Closed(ClosedLoopSpec {
        clients: 12,
        think_s: 0.002,
        duration_s: 0.5,
        mix_size: 2,
        shrinks: vec![1, 2],
        seed: 7,
    });
    let (serial, serial_trace) =
        simulate_config_traced_parallel(&workload, &cfg, &EnginePlan::serial());
    for epochs in [2usize, 5, 16] {
        let plan = EnginePlan::serial().with_epochs(epochs);
        let (epoch, epoch_trace) = simulate_config_traced_parallel(&workload, &cfg, &plan);
        assert_eq!(serial, epoch, "closed-loop epochs must merge exactly ({epochs})");
        assert_eq!(serial_trace, epoch_trace);
    }
}

#[test]
fn shedding_across_seams_conserves_every_request() {
    let costs = costs();
    let fleet = tile16_fleet(1);
    let mut cfg = ServeConfig::new(Policy::Fifo, &fleet, DispatchKind::LeastLoaded, &costs);
    cfg.queue_bound = Some(2);
    // An overloading burst right before each boundary: admissions and
    // sheds happen on both sides of every seam.
    let mut stream = Vec::new();
    for k in 0..8usize {
        let base = k as f64 * 1.0 / 64.0;
        for j in 0..12usize {
            stream.push(request(stream.len(), base + j as f64 / 8192.0, j % 2, 1));
        }
    }
    let workload = Workload::Replay(stream.clone());
    let serial = simulate_config_parallel(&workload, &cfg, &EnginePlan::serial());
    assert!(!serial.shed.is_empty(), "the bound must actually shed");
    for epochs in [2usize, 4, 8] {
        let plan = EnginePlan::serial().with_epochs(epochs);
        let epoch = simulate_config_parallel(&workload, &cfg, &plan);
        assert_eq!(serial, epoch);
        // Conservation across seams: every request is served or shed
        // exactly once, never both, never dropped.
        assert_eq!(epoch.requests() + epoch.shed.len(), stream.len());
        let served: Vec<usize> =
            (0..stream.len()).filter(|&id| epoch.latencies_s[id] >= 0.0).collect();
        assert!(served.iter().all(|id| !epoch.shed.contains(id)));
    }
}

#[test]
fn lane_decomposition_is_thread_invariant_and_conserves_requests() {
    let costs = costs();
    let fleet = tile16_fleet(6);
    let cfg = ServeConfig::new(Policy::Fifo, &fleet, DispatchKind::LeastLoaded, &costs);
    let workload = Workload::Closed(ClosedLoopSpec {
        clients: 25,
        think_s: 0.001,
        duration_s: 0.25,
        mix_size: 2,
        shrinks: vec![1, 2],
        seed: 99,
    });
    let lanes = EnginePlan::serial().with_lanes(3);
    let (pinned, pinned_trace) =
        simulate_config_traced_parallel(&workload, &cfg, &lanes.clone().with_threads(1));
    for threads in [2usize, 8] {
        let (pooled, pooled_trace) =
            simulate_config_traced_parallel(&workload, &cfg, &lanes.clone().with_threads(threads));
        assert_eq!(pinned, pooled, "a fixed lane count must be thread invariant");
        assert_eq!(pinned_trace, pooled_trace);
    }
    // One lane is the serial engine exactly.
    assert_eq!(
        simulate_config_parallel(&workload, &cfg, &EnginePlan::serial()),
        simulate_config_parallel(&workload, &cfg, &EnginePlan::serial().with_lanes(1)),
    );
    // Conservation and closed-loop invariants hold on the merged outcome.
    assert_eq!(pinned.latencies_s.len(), pinned.requests(), "closed loops never shed");
    assert!(pinned.latencies_s.iter().all(|&l| l.is_finite() && l > 0.0));
    assert_eq!(pinned.batch_sizes.iter().sum::<usize>(), pinned.requests());
    assert_eq!(
        pinned.shard_stats.iter().map(|s| s.requests).sum::<u64>() as usize,
        pinned.requests()
    );
    assert!(pinned.max_in_flight() <= 25);
    // Lanes partition the fleet: the merged slot layout still spans all
    // six shards and every lane's shards did work.
    assert_eq!(pinned.shard_stats.len(), 6);
    assert!(pinned.shard_stats.iter().all(|s| s.requests > 0));
}

#[test]
fn ineligible_scenarios_fall_back_to_epochs_under_a_lane_plan() {
    let costs = costs();
    let fleet = tile16_fleet(2);
    let autoscale = AutoscalePolicy::new(1, 3).with_check_interval_s(CHECK_S);
    let mut cfg = ServeConfig::new(Policy::Fifo, &fleet, DispatchKind::LeastLoaded, &costs);
    cfg.autoscale = Some(&autoscale);
    // Autoscaling makes the closed loop ineligible for lanes: the plan's
    // lane request must quietly degrade to the (exact) epoch path.
    let workload = Workload::Closed(ClosedLoopSpec {
        clients: 8,
        think_s: 0.001,
        duration_s: 0.25,
        mix_size: 2,
        shrinks: vec![1, 2],
        seed: 3,
    });
    let serial = simulate_config_parallel(&workload, &cfg, &EnginePlan::serial());
    let plan = EnginePlan::serial().with_lanes(4).with_epochs(3);
    assert_eq!(serial, simulate_config_parallel(&workload, &cfg, &plan));
}
