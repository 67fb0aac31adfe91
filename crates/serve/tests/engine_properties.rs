//! Property tests of the parallel-in-time engine's determinism contract:
//! for *arbitrary* scenario specs — bursty and Poisson streams, every
//! policy, elastic fleets, bounded queues, fault regimes — and arbitrary
//! epoch plans (coarse and fine counts, thread counts), the merged parallel
//! replay must produce the same outcome, the same trace and the same
//! artifact bytes as the serial engine; admitted requests are served or
//! shed exactly once across every seam; and the closed-loop lane
//! decomposition is thread-invariant at any fixed lane count.

use neura_lab::Artifact;
use neura_serve::{
    simulate_config_traced_parallel, ArrivalProcess, AutoscalePolicy, ClosedLoopSpec, DispatchKind,
    EnginePlan, FaultSpec, Policy, ServeConfig, StreamSpec, Workload,
};
use proptest::prelude::*;

mod common;
use common::{synthetic_costs, tile16_fleet};

fn arb_stream() -> impl Strategy<Value = StreamSpec> {
    (0usize..2, 200.0f64..600.0, 1usize..=3, 0u64..1_000).prop_map(
        |(arrival, rps, mix_size, seed)| StreamSpec {
            arrival: ArrivalProcess::ALL[arrival],
            rps,
            duration_s: 1.0,
            mix_size,
            shrinks: vec![1, 2, 4],
            seed,
        },
    )
}

fn arb_policy() -> impl Strategy<Value = Policy> {
    (0usize..3, 1usize..=6, 0.0f64..0.02).prop_map(|(kind, max_batch, timeout_s)| match kind {
        0 => Policy::Fifo,
        1 => Policy::Sjf,
        _ => Policy::batch(max_batch, timeout_s),
    })
}

/// An arbitrary epoch plan: a handful of fragments or up to a thousand
/// (epochs down to a millisecond of a one-second stream, most of them
/// empty), on an arbitrary worker-pool size (1 = pinned serial execution
/// of the same fragment schedule).
fn arb_plan() -> impl Strategy<Value = EnginePlan> {
    (0usize..2, 2usize..=12, 13usize..=1000, 0usize..3).prop_map(|(kind, few, many, threads)| {
        EnginePlan::serial().with_epochs([few, many][kind]).with_threads([1, 2, 8][threads])
    })
}

/// An arbitrary fault regime over the stream horizon: up to two crashes,
/// flaky or bricked provisioning, optionally degraded silicon.
fn arb_fault(window_s: f64) -> impl Strategy<Value = Option<FaultSpec>> {
    (0usize..2, 0u64..1_000, 0usize..=2, 0usize..3, 1.0f64..3.0).prop_map(
        move |(inject, seed, crashes, pf_pick, multiplier)| {
            (inject == 1).then(|| {
                FaultSpec::new(seed, window_s)
                    .with_crashes(crashes)
                    .with_provision_fail([0.0, 0.3, 1.0][pf_pick])
                    .with_degraded(0, multiplier)
            })
        },
    )
}

/// The artifact bytes a serving outcome would emit — the representation
/// the byte-identity contract is stated in.
fn artifact_bytes(outcome: &neura_serve::ServeOutcome) -> String {
    let mut artifact = Artifact::new("engine-prop", 1);
    artifact.extend(outcome.records("prop/case", &[]));
    artifact.to_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The headline contract: for any scenario — including autoscaling,
    /// bounded queues and fault injection — and any epoch plan, the
    /// parallel replay's outcome, trace and artifact bytes all equal the
    /// serial engine's, and every admitted request is served or shed
    /// exactly once across the seams.
    #[test]
    fn epoch_replay_is_byte_identical_to_serial(
        spec in arb_stream(),
        policy in arb_policy(),
        plan in arb_plan(),
        shards in 2usize..=4,
        elastic in 0usize..2,
        bound_pick in 0usize..9,
        fault in arb_fault(1.0),
    ) {
        let stream = spec.generate();
        let costs = synthetic_costs(spec.mix_size, &spec.shrinks);
        let fleet = tile16_fleet(shards);
        let autoscale = AutoscalePolicy { up_backlog_per_shard: 2.0, ..AutoscalePolicy::new(1, shards + 1)
            .with_check_interval_s(0.005)
            .with_provision_delay_s(0.01) };
        let mut cfg = ServeConfig::new(policy, &fleet, DispatchKind::LeastLoaded, &costs);
        if elastic == 1 {
            cfg.autoscale = Some(&autoscale);
        }
        // 0 = unbounded; 1..=8 = a backlog bound tight enough to shed.
        cfg.queue_bound = (bound_pick > 0).then_some(bound_pick);
        cfg.faults = fault.as_ref();

        let workload = Workload::Replay(stream.clone());
        let (serial, serial_trace) =
            simulate_config_traced_parallel(&workload, &cfg, &EnginePlan::serial());
        let (parallel, parallel_trace) = simulate_config_traced_parallel(&workload, &cfg, &plan);
        prop_assert_eq!(&serial, &parallel);
        prop_assert_eq!(&serial_trace, &parallel_trace);
        prop_assert_eq!(artifact_bytes(&serial), artifact_bytes(&parallel));
        // Conservation across seams: shed + served partition the stream.
        prop_assert_eq!(parallel.requests() + parallel.shed.len(), stream.len());
        prop_assert_eq!(parallel.latencies_s.len(), stream.len());
        for &id in &parallel.shed {
            prop_assert!(parallel.latencies_s[id] < 0.0, "shed request {} has a latency", id);
        }
    }

    /// Closed-loop workloads under an arbitrary epoch plan (no lanes):
    /// same contract, demand regenerated from completions across seams.
    #[test]
    fn closed_loop_epochs_are_identical_to_serial(
        clients in 1usize..=16,
        think_ms in 0.0f64..5.0,
        policy in arb_policy(),
        plan in arb_plan(),
        shards in 1usize..=3,
        seed in 0u64..500,
    ) {
        let workload = Workload::Closed(ClosedLoopSpec {
            clients,
            think_s: think_ms / 1e3,
            duration_s: 0.25,
            mix_size: 2,
            shrinks: vec![1, 2],
            seed,
        });
        let costs = synthetic_costs(2, &[1, 2]);
        let fleet = tile16_fleet(shards);
        let cfg = ServeConfig::new(policy, &fleet, DispatchKind::LeastLoaded, &costs);
        let (serial, serial_trace) =
            simulate_config_traced_parallel(&workload, &cfg, &EnginePlan::serial());
        let (parallel, parallel_trace) = simulate_config_traced_parallel(&workload, &cfg, &plan);
        prop_assert_eq!(&serial, &parallel);
        prop_assert_eq!(&serial_trace, &parallel_trace);
        prop_assert!(parallel.max_in_flight() <= clients);
        prop_assert_eq!(parallel.batch_sizes.iter().sum::<usize>(), parallel.requests());
    }

    /// The lane decomposition at any fixed lane count is invariant to the
    /// thread count, conserves every request, and respects the client cap.
    #[test]
    fn lanes_are_thread_invariant_at_any_lane_count(
        clients in 1usize..=24,
        think_ms in 0.0f64..3.0,
        lanes in 1usize..=4,
        extra_shards in 0usize..=3,
        seed in 0u64..500,
    ) {
        let workload = Workload::Closed(ClosedLoopSpec {
            clients,
            think_s: think_ms / 1e3,
            duration_s: 0.25,
            mix_size: 2,
            shrinks: vec![1, 2],
            seed,
        });
        let costs = synthetic_costs(2, &[1, 2]);
        let fleet = tile16_fleet(lanes + extra_shards);
        let cfg = ServeConfig::new(Policy::Fifo, &fleet, DispatchKind::LeastLoaded, &costs);
        let plan = EnginePlan::serial().with_lanes(lanes);
        let (pinned, pinned_trace) =
            simulate_config_traced_parallel(&workload, &cfg, &plan.clone().with_threads(1));
        let (pooled, pooled_trace) =
            simulate_config_traced_parallel(&workload, &cfg, &plan.clone().with_threads(8));
        prop_assert_eq!(&pinned, &pooled);
        prop_assert_eq!(&pinned_trace, &pooled_trace);
        prop_assert_eq!(artifact_bytes(&pinned), artifact_bytes(&pooled));
        // Conservation: closed loops never shed; every latency is a real
        // served request and every batch slot is accounted once.
        prop_assert_eq!(pinned.requests(), pinned.latencies_s.len());
        prop_assert!(pinned.latencies_s.iter().all(|&l| l.is_finite() && l > 0.0));
        prop_assert_eq!(pinned.batch_sizes.iter().sum::<usize>(), pinned.requests());
        prop_assert_eq!(
            pinned.shard_stats.iter().map(|s| s.requests).sum::<u64>() as usize,
            pinned.requests()
        );
        prop_assert!(pinned.max_in_flight() <= clients);
    }
}
