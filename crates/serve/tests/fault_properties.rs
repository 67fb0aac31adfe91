//! Property tests of the fault-injection layer: under arbitrary crash /
//! provisioning-failure / degraded-silicon regimes every request is still
//! accounted exactly once (served or shed, with crashed in-flight work
//! re-dispatched); recovery from a crash always waits out the autoscaler's
//! provisioning delay; total provisioning failure pins the fleet at its
//! floor; degraded silicon never improves the tail; and fault-injected
//! replays stay deterministic.

use neura_serve::{
    simulate_config_parallel, ArrivalProcess, AutoscalePolicy, DispatchKind, EnginePlan, FaultSpec,
    Policy, Request, ServeConfig, ServeOutcome, StreamSpec, Workload,
};
use proptest::prelude::*;

mod common;
use common::{synthetic_costs, tile16_fleet};

/// Serial replay of an explicit stream.
fn replay(stream: &[Request], cfg: &ServeConfig<'_>) -> ServeOutcome {
    simulate_config_parallel(&Workload::Replay(stream.to_vec()), cfg, &EnginePlan::serial())
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

fn arb_fault(window_s: f64) -> impl Strategy<Value = FaultSpec> {
    (0u64..1_000, 0usize..=3, 0usize..3, 1.0f64..3.0, 0usize..2).prop_map(
        move |(seed, crashes, pf_pick, multiplier, degrade)| {
            let mut spec = FaultSpec::new(seed, window_s)
                .with_crashes(crashes)
                .with_provision_fail([0.0, 0.3, 1.0][pf_pick]);
            if degrade == 1 {
                spec = spec.with_degraded(0, multiplier);
            }
            spec
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Whatever the fault regime throws at the fleet — crashes mid-batch,
    /// failed scale-ups, slow silicon — every request is served exactly
    /// once: crashed in-flight work returns to the queue head and
    /// completes on a surviving shard, and the whole replay is a pure
    /// function of its inputs.
    #[test]
    fn faults_conserve_every_request(
        spec in arb_stream(),
        fault in arb_fault(1.0),
        shards in 2usize..=4,
        elastic in 0usize..2,
    ) {
        let stream = spec.generate();
        let costs = synthetic_costs(spec.mix_size, &spec.shrinks);
        let groups = tile16_fleet(shards);
        let autoscale = AutoscalePolicy::new(1, shards.max(2))
            .with_check_interval_s(0.005)
            .with_provision_delay_s(0.02);
        let mut cfg = ServeConfig::new(Policy::Fifo, &groups, DispatchKind::LeastLoaded, &costs);
        cfg.faults = Some(&fault);
        if elastic == 1 {
            cfg.autoscale = Some(&autoscale);
        }
        let outcome = replay(&stream, &cfg);

        prop_assert_eq!(outcome.offered(), stream.len());
        prop_assert_eq!(outcome.shed.len(), 0);
        prop_assert_eq!(outcome.requests(), stream.len());
        prop_assert_eq!(outcome.batch_sizes.iter().sum::<usize>(), stream.len());
        let shard_total: u64 = outcome.shard_stats.iter().map(|s| s.requests).sum();
        prop_assert_eq!(shard_total as usize, stream.len());
        prop_assert!(outcome.latencies_s.iter().all(|l| l.is_finite() && *l > 0.0));
        prop_assert!(outcome.crash_events.len() <= fault.crashes,
            "{} crashes landed from a budget of {}",
            outcome.crash_events.len(), fault.crashes);
        let redispatched: usize = outcome.crash_events.iter().map(|c| c.redispatched).sum();
        prop_assert_eq!(outcome.redispatched(), redispatched);
        for crash in &outcome.crash_events {
            prop_assert!(crash.at_s >= 0.0 && crash.at_s <= fault.window_s);
            prop_assert!(crash.shard < shards);
            prop_assert_eq!(crash.group, 0);
        }
        // Pure function of the inputs: replaying changes nothing.
        prop_assert_eq!(outcome, replay(&stream, &cfg));
    }

    /// Post-crash recovery is bounded below by the provisioning delay:
    /// the autoscaler can decide instantly, but replacement capacity only
    /// lands one full delay later.
    #[test]
    fn recovery_waits_out_the_provisioning_delay(
        seed in 0u64..500,
        crashes in 1usize..=3,
        delay_ms in 5.0f64..40.0,
    ) {
        let spec = StreamSpec {
            arrival: ArrivalProcess::Poisson,
            rps: 500.0,
            duration_s: 1.0,
            mix_size: 2,
            shrinks: vec![1, 2],
            seed,
        };
        let stream = spec.generate();
        let costs = synthetic_costs(2, &[1, 2]);
        let groups = tile16_fleet(2);
        let autoscale = AutoscalePolicy { up_backlog_per_shard: 1.0, ..AutoscalePolicy::new(1, 4)
            .with_check_interval_s(0.002)
            .with_provision_delay_s(delay_ms / 1e3) };
        let fault = FaultSpec::new(seed, 0.5).with_crashes(crashes);
        let mut cfg = ServeConfig::new(Policy::Fifo, &groups, DispatchKind::LeastLoaded, &costs);
        cfg.autoscale = Some(&autoscale);
        cfg.faults = Some(&fault);
        let outcome = replay(&stream, &cfg);
        prop_assert_eq!(outcome.requests(), stream.len());
        for recovery in outcome.recovery_times_s() {
            prop_assert!(recovery >= delay_ms / 1e3 - 1e-9,
                "recovered in {recovery}s, under the {}s provisioning delay", delay_ms / 1e3);
        }
    }

    /// With every provisioning attempt failing, the fleet never grows: no
    /// scale-up ever takes effect, failures are counted, and the load is
    /// still served (slowly) by the surviving floor.
    #[test]
    fn total_provisioning_failure_pins_the_fleet_at_its_floor(seed in 0u64..500) {
        let spec = StreamSpec {
            arrival: ArrivalProcess::Poisson,
            rps: 800.0,
            duration_s: 1.0,
            mix_size: 2,
            shrinks: vec![1, 2],
            seed,
        };
        let stream = spec.generate();
        let costs = synthetic_costs(2, &[1, 2]);
        let groups = tile16_fleet(1);
        let autoscale = AutoscalePolicy { up_backlog_per_shard: 1.0, ..AutoscalePolicy::new(1, 4)
            .with_check_interval_s(0.002)
            .with_provision_delay_s(0.005) };
        let fault = FaultSpec::new(seed, 1.0).with_provision_fail(1.0);
        let mut cfg = ServeConfig::new(Policy::Fifo, &groups, DispatchKind::LeastLoaded, &costs);
        cfg.autoscale = Some(&autoscale);
        cfg.faults = Some(&fault);
        let outcome = replay(&stream, &cfg);
        prop_assert!(outcome.scale_events.iter().all(|e| e.delta < 0),
            "a scale-up took effect despite pf=1.0");
        prop_assert!(outcome.provision_failures > 0,
            "an overloaded single shard must attempt to scale");
        prop_assert_eq!(outcome.requests(), stream.len());
        for stats in &outcome.group_stats {
            prop_assert_eq!(stats.peak_active, 1);
        }
    }

    /// Degraded silicon never improves the tail: the same stream on the
    /// same fleet with a service multiplier `m >= 1` has p99 at least as
    /// high as the healthy run.
    #[test]
    fn degraded_silicon_never_improves_p99(
        spec in arb_stream(),
        multiplier in 1.5f64..4.0,
    ) {
        let stream = spec.generate();
        let costs = synthetic_costs(spec.mix_size, &spec.shrinks);
        let groups = tile16_fleet(2);
        let cfg = ServeConfig::new(Policy::Fifo, &groups, DispatchKind::LeastLoaded, &costs);
        let healthy = replay(&stream, &cfg);
        let fault = FaultSpec::new(1, 1.0).with_degraded(0, multiplier);
        let degraded = replay(&stream, &ServeConfig { faults: Some(&fault), ..cfg });
        prop_assert_eq!(degraded.requests(), stream.len());
        let healthy_p99 = healthy.latency_percentile_s(99.0);
        let degraded_p99 = degraded.latency_percentile_s(99.0);
        prop_assert!(degraded_p99 >= healthy_p99 - 1e-12,
            "degraded p99 {degraded_p99} beat healthy p99 {healthy_p99}");
    }
}
