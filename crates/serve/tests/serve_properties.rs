//! Property tests of the serving layer: generated streams are sorted,
//! deterministic per seed and respect the configured rate; batches never
//! exceed the configured maximum; every request is served exactly once by
//! every policy and dispatch combination; adding shards at a fixed arrival
//! rate never worsens tail latency; closed loops never exceed their client
//! count in flight; and the autoscaler stays within its bounds and only
//! changes the fleet after the provisioning delay.

use neura_chip::config::ChipConfig;
use neura_serve::{
    simulate_config_parallel, ArrivalProcess, AutoscalePolicy, ClosedLoopSpec, DispatchKind,
    EnginePlan, Policy, ServeConfig, ServeOutcome, ShardGroup, StreamSpec, Workload,
};
use proptest::prelude::*;

mod common;
use common::{synthetic_costs, tile16_fleet};

/// The serial engine.
fn serial(workload: &Workload, cfg: &ServeConfig<'_>) -> ServeOutcome {
    simulate_config_parallel(workload, cfg, &EnginePlan::serial())
}

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

fn arb_dispatch() -> impl Strategy<Value = DispatchKind> {
    (0usize..3).prop_map(|kind| DispatchKind::ALL[kind])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Streams are time-sorted, reproducible per seed, and land within a
    /// generous tolerance band of the configured mean rate.
    #[test]
    fn streams_are_sorted_deterministic_and_rate_respecting(spec in arb_stream()) {
        let stream = spec.generate();
        // Same spec, same stream.
        prop_assert_eq!(&stream, &spec.generate());
        prop_assert!(stream.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        for (i, request) in stream.iter().enumerate() {
            prop_assert_eq!(request.id, i);
            prop_assert!(request.arrival_s >= 0.0 && request.arrival_s < spec.duration_s);
            prop_assert!(request.class.dataset < spec.mix_size);
            prop_assert!(spec.shrinks.contains(&request.class.shrink));
        }
        // ≥ 200 expected arrivals: ±35% is > 5 sigma for a Poisson count.
        let expected = spec.rps * spec.duration_s;
        let n = stream.len() as f64;
        prop_assert!(
            (n - expected).abs() < expected * 0.35,
            "{} arrivals vs {} expected", n, expected
        );
    }

    /// Every policy/dispatch combination serves every request exactly
    /// once, with non-negative latency, and batches never exceed the
    /// configured maximum.
    #[test]
    fn every_request_is_served_exactly_once(
        spec in arb_stream(),
        policy in arb_policy(),
        dispatch in arb_dispatch(),
        shards in 1usize..=4,
    ) {
        let stream = spec.generate();
        let costs = synthetic_costs(spec.mix_size, &spec.shrinks);
        let fleet = tile16_fleet(shards);
        let outcome = serial(
            &Workload::Replay(stream.clone()),
            &ServeConfig::new(policy, &fleet, dispatch, &costs),
        );

        prop_assert_eq!(outcome.requests(), stream.len());
        // Every request appears in exactly one batch.
        prop_assert_eq!(outcome.batch_sizes.iter().sum::<usize>(), stream.len());
        let shard_total: u64 = outcome.shard_stats.iter().map(|s| s.requests).sum();
        prop_assert_eq!(shard_total as usize, stream.len());
        let group_total: u64 = outcome.group_stats.iter().map(|g| g.requests).sum();
        prop_assert_eq!(group_total as usize, stream.len());
        let fp = ChipConfig::tile_16().fingerprint();
        for (id, &latency) in outcome.latencies_s.iter().enumerate() {
            let service = costs.service_seconds(&fp, stream[id].class, 1);
            prop_assert!(latency.is_finite() && latency > 0.0);
            prop_assert!(latency >= service * 0.999 - 1e-12,
                "request {} finished faster ({}) than its own service time ({})",
                id, latency, service);
        }
        if let Policy::BatchByDataset { max_batch, .. } = policy {
            prop_assert!(outcome.batch_sizes.iter().all(|&b| b >= 1 && b <= max_batch));
        } else {
            prop_assert!(outcome.batch_sizes.iter().all(|&b| b == 1));
        }
    }

    /// Work conservation: at a fixed arrival stream, adding shards never
    /// worsens p99 latency under FIFO (the acceptance property the `serve`
    /// binary's smoke check also pins).
    #[test]
    fn more_shards_never_worsen_fifo_p99(spec in arb_stream()) {
        let stream = Workload::Replay(spec.generate());
        let costs = synthetic_costs(spec.mix_size, &spec.shrinks);
        let p99: Vec<f64> = [1usize, 2, 4]
            .iter()
            .map(|&shards| {
                let fleet = tile16_fleet(shards);
                let cfg = ServeConfig::new(Policy::Fifo, &fleet, DispatchKind::LeastLoaded, &costs);
                serial(&stream, &cfg).latency_percentile_s(99.0)
            })
            .collect();
        prop_assert!(p99[0] >= p99[1] - 1e-9, "s1 {} vs s2 {}", p99[0], p99[1]);
        prop_assert!(p99[1] >= p99[2] - 1e-9, "s2 {} vs s4 {}", p99[1], p99[2]);
    }

    /// Arms of a comparison replay identical streams: the outcome under
    /// one policy is a pure function of
    /// (stream, policy, fleet, dispatch, costs).
    #[test]
    fn simulation_is_deterministic(
        spec in arb_stream(),
        policy in arb_policy(),
        dispatch in arb_dispatch(),
    ) {
        let stream = Workload::Replay(spec.generate());
        let costs = synthetic_costs(spec.mix_size, &spec.shrinks);
        let fleet = tile16_fleet(2);
        let cfg = ServeConfig::new(policy, &fleet, dispatch, &costs);
        prop_assert_eq!(serial(&stream, &cfg), serial(&stream, &cfg));
    }

    /// A closed loop never has more requests in flight than it has
    /// clients, every request is served, and the replay is deterministic.
    #[test]
    fn closed_loop_in_flight_never_exceeds_the_client_count(
        clients in 1usize..=16,
        think_ms in 0.0f64..5.0,
        policy in arb_policy(),
        shards in 1usize..=3,
        seed in 0u64..500,
    ) {
        let spec = ClosedLoopSpec {
            clients,
            think_s: think_ms / 1e3,
            duration_s: 0.25,
            mix_size: 2,
            shrinks: vec![1, 2],
            seed,
        };
        let costs = synthetic_costs(2, &[1, 2]);
        let workload = Workload::Closed(spec);
        let fleet = tile16_fleet(shards);
        let cfg = ServeConfig::new(policy, &fleet, DispatchKind::LeastLoaded, &costs);
        let outcome = serial(&workload, &cfg);
        prop_assert!(outcome.max_in_flight() <= clients,
            "{} in flight with {} clients", outcome.max_in_flight(), clients);
        prop_assert!(outcome.requests() >= 1, "staggered starts land inside the horizon");
        prop_assert_eq!(outcome.batch_sizes.iter().sum::<usize>(), outcome.requests());
        prop_assert!(outcome.latencies_s.iter().all(|l| l.is_finite() && *l > 0.0));
        // No request is issued at or beyond the horizon.
        prop_assert!(outcome.arrivals_s.iter().all(|&t| t < 0.25));
        prop_assert_eq!(outcome, serial(&workload, &cfg));
    }

    /// The autoscaled fleet stays within `[min, max]` shards *per group*
    /// at all times — even with several decisions in flight across a
    /// multi-group fleet — and every size change takes effect exactly one
    /// provisioning delay after its decision.
    #[test]
    fn autoscaler_respects_bounds_and_provisioning_delay(
        spec in arb_stream(),
        min in 1usize..=2,
        extra in 1usize..=3,
        groups in 1usize..=2,
        delay_ms in 1.0f64..40.0,
    ) {
        let max = min + extra;
        let stream = spec.generate();
        let costs = synthetic_costs(spec.mix_size, &spec.shrinks);
        let policy = AutoscalePolicy::new(min, max)
            .with_check_interval_s(0.005)
            .with_provision_delay_s(delay_ms / 1e3)
            .with_up_backlog_per_shard(2.0);
        // Same silicon under distinct group names: the groups share their
        // cost memo (one fingerprint) but scale independently.
        let fleet: Vec<ShardGroup> = (0..groups)
            .map(|g| ShardGroup::new(format!("g{g}"), ChipConfig::tile_16(), min))
            .collect();
        let mut cfg = ServeConfig::new(Policy::Fifo, &fleet, DispatchKind::LeastLoaded, &costs);
        cfg.autoscale = Some(&policy);
        let outcome = serial(&Workload::Replay(stream.clone()), &cfg);
        // Replay the events: every group's running count starts at `min`,
        // stays inside its own bounds, and every effect lags its decision
        // by exactly the delay.
        let mut active = vec![min as i64; groups];
        for event in &outcome.scale_events {
            prop_assert!(
                (event.effect_s - event.decision_s - delay_ms / 1e3).abs() < 1e-9,
                "effect at {} for a decision at {} (delay {})",
                event.effect_s, event.decision_s, delay_ms / 1e3
            );
            active[event.group] += event.delta;
            prop_assert_eq!(active.iter().sum::<i64>() as usize, event.active_total);
            let group_active = active[event.group];
            prop_assert!(group_active >= min as i64 && group_active <= max as i64,
                "group {} at {} shards, outside [{min}, {max}]", event.group, group_active);
        }
        for stats in &outcome.group_stats {
            prop_assert!(stats.peak_active <= max);
        }
        // Elasticity loses no requests.
        prop_assert_eq!(outcome.requests(), stream.len());
    }
}
