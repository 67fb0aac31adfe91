//! Property tests of the production-traffic scenario layer: shaped
//! streams thin deterministically and stay sorted; a queue bound the
//! backlog never reaches changes nothing; shed rate is monotone in
//! offered load while the bound caps admitted p99 and queue depth at 3x
//! capacity; token-bucket rate limits bound every tenant's admitted
//! throughput; and every library scenario arm — faults, autoscaler and
//! all — is byte-identical across runner thread counts.

use neura_chip::config::ChipConfig;
use neura_serve::scenario::TENANT_BURST_S;
use neura_serve::{
    simulate_config_parallel, simulate_config_traced_parallel, ArrivalProcess, AutoscalePolicy,
    DispatchKind, EnginePlan, Policy, RateShape, RequestClass, ScenarioSpec, ServeConfig,
    ServeOutcome, ShapedStream, StreamSpec, TenantMix, TenantSpec, Workload,
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

fn arb_shapes() -> impl Strategy<Value = Vec<RateShape>> {
    (0usize..4, (1.0f64..6.0, 0.0f64..0.9), (0.0f64..0.8, 0.05f64..0.2, 1.0f64..6.0)).prop_map(
        |(pick, (cycles, depth), (start, width, boost))| {
            let diurnal = RateShape::Diurnal { cycles: cycles.round(), depth };
            let flash = RateShape::Flash { start, width, boost };
            match pick {
                0 => Vec::new(),
                1 => vec![diurnal],
                2 => vec![flash],
                _ => vec![diurnal, flash],
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Shaped streams are a pure function of their spec: generated twice
    /// they match, survivors stay time-sorted with positional IDs, no
    /// arrival escapes the horizon, and thinning can only ever *remove*
    /// requests relative to the peak-rate base stream.
    #[test]
    fn shaped_streams_thin_deterministically(base in arb_stream(), shapes in arb_shapes()) {
        let shaped = ShapedStream { base: base.clone(), shapes: shapes.clone(), tenants: None };
        let stream = shaped.generate();
        prop_assert_eq!(&stream, &shaped.generate());
        prop_assert!(stream.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        for (i, request) in stream.iter().enumerate() {
            prop_assert_eq!(request.id, i);
            prop_assert!(request.arrival_s >= 0.0 && request.arrival_s < base.duration_s);
            prop_assert_eq!(request.tenant, 0);
        }
        let peak: f64 = shapes.iter().map(RateShape::peak).product();
        let raw = StreamSpec { rps: base.rps * peak, ..base }.generate();
        prop_assert!(stream.len() <= raw.len(), "thinning never adds requests");
    }

    /// A queue bound the backlog never reaches is a no-op: the bounded
    /// outcome equals the unbounded one byte for byte, with zero shed.
    #[test]
    fn bounds_above_the_backlog_peak_shed_nothing(
        spec in arb_stream(),
        shards in 1usize..=3,
    ) {
        let stream = Workload::Replay(spec.generate());
        let costs = synthetic_costs(spec.mix_size, &spec.shrinks);
        let groups = tile16_fleet(shards);
        let cfg = ServeConfig::new(Policy::Fifo, &groups, DispatchKind::LeastLoaded, &costs);
        let unbounded = serial(&stream, &cfg);
        let above = Some(unbounded.queue_depth_max + 1);
        let bounded = serial(&stream, &ServeConfig { queue_bound: above, ..cfg });
        prop_assert_eq!(bounded.shed.len(), 0);
        prop_assert_eq!(bounded, unbounded);
    }

    /// The overload pins: shed rate grows monotonically with offered load,
    /// and at 3x capacity the bounded queue caps both the admitted p99
    /// (ten bound-lengths of the costliest request, a horizon-independent
    /// constant) and the queue depth, while every request stays
    /// exactly-once accounted.
    #[test]
    fn shedding_bounds_admitted_p99_and_depth_at_3x_capacity(seed in 0u64..500) {
        let mix_size = 2;
        let shrinks = vec![1, 2, 4];
        let costs = synthetic_costs(mix_size, &shrinks);
        let shards = 2;
        let groups = tile16_fleet(shards);
        let capacity_rps = shards as f64 / costs.mean_service_seconds(&ChipConfig::tile_16().fingerprint(), &common::classes(mix_size, &shrinks));
        let bound = 32usize;
        let mut cfg = ServeConfig::new(Policy::Fifo, &groups, DispatchKind::LeastLoaded, &costs);
        cfg.queue_bound = Some(bound);
        let mut shed_rates = Vec::new();
        let mut at_3x: Option<ServeOutcome> = None;
        for load in [0.5, 1.0, 3.0] {
            let stream = StreamSpec {
                arrival: ArrivalProcess::Poisson,
                rps: load * capacity_rps,
                duration_s: 0.5,
                mix_size,
                shrinks: shrinks.clone(),
                seed,
            }
            .generate();
            let outcome = serial(&Workload::Replay(stream.clone()), &cfg);
            prop_assert_eq!(outcome.offered(), stream.len());
            prop_assert_eq!(outcome.requests() + outcome.shed.len(), stream.len());
            prop_assert_eq!(outcome.batch_sizes.iter().sum::<usize>(), outcome.requests());
            let shard_total: u64 = outcome.shard_stats.iter().map(|s| s.requests).sum();
            prop_assert_eq!(shard_total as usize, outcome.requests());
            prop_assert!(outcome.queue_depth_max <= bound, "the bound caps the backlog");
            shed_rates.push(outcome.shed_rate());
            if load == 3.0 {
                at_3x = Some(outcome);
            }
        }
        // Monotone in load, with a hair of slack for Poisson noise.
        prop_assert!(shed_rates[0] <= shed_rates[1] + 0.02, "{shed_rates:?}");
        prop_assert!(shed_rates[1] <= shed_rates[2] + 0.02, "{shed_rates:?}");
        let at_3x = at_3x.expect("the 3x arm ran");
        prop_assert!(at_3x.shed_rate() > 0.3, "3x capacity must shed hard, got {}",
            at_3x.shed_rate());
        let fp = ChipConfig::tile_16().fingerprint();
        let max_service = (0..mix_size)
            .flat_map(|d| shrinks.iter().map(move |&s| RequestClass { dataset: d, shrink: s }))
            .map(|c| costs.service_seconds(&fp, c, 1))
            .fold(0.0f64, f64::max);
        let p99_cap = (bound as f64 + shards as f64) * max_service;
        let p99 = at_3x.latency_percentile_s(99.0);
        prop_assert!(p99 <= p99_cap, "admitted p99 {p99} above the shedding cap {p99_cap}");
    }

    /// Token-bucket rate limits hold: a limited tenant never admits more
    /// than its burst allowance plus `rate x horizon` requests, however
    /// hard it offers.
    #[test]
    fn tenant_rate_limits_bound_admitted_throughput(
        seed in 0u64..500,
        limit_rps in 50.0f64..400.0,
        pressure in 2.0f64..6.0,
    ) {
        let duration_s = 0.5;
        let base = StreamSpec {
            arrival: ArrivalProcess::Poisson,
            rps: limit_rps * pressure,
            duration_s,
            mix_size: 2,
            shrinks: vec![1, 2],
            seed,
        };
        let mix = TenantMix::new(vec![TenantSpec {
            name: "limited".to_string(),
            weight: 1.0,
            rate_limit_rps: Some(limit_rps),
            slo_s: None,
        }]);
        let workload = Workload::Shaped(ShapedStream { base, shapes: Vec::new(), tenants: Some(mix) });
        let costs = synthetic_costs(2, &[1, 2]);
        let groups = tile16_fleet(4);
        let cfg = ServeConfig::new(Policy::Fifo, &groups, DispatchKind::LeastLoaded, &costs);
        let outcome = serial(&workload, &cfg);
        let tenant = &outcome.tenant_outcomes[0];
        prop_assert_eq!(tenant.offered as usize, outcome.offered());
        let admitted = tenant.offered - tenant.shed;
        let burst = (limit_rps * TENANT_BURST_S).max(1.0);
        let cap = burst + limit_rps * duration_s + 1.0;
        prop_assert!((admitted as f64) <= cap,
            "tenant admitted {admitted} requests against a cap of {cap}");
        prop_assert_eq!(outcome.shed_limit, tenant.shed);
    }
}

/// Every library scenario arm — rate shapes, tenants, queue bound, faults
/// and the autoscaler included — produces the identical outcome whether
/// the lab runner fans out over 2 or 8 threads, and on repeat runs. This
/// is the in-crate twin of the `serve` artifact byte-identity check.
#[test]
fn library_scenario_arms_are_identical_across_runner_threads() {
    use neura_lab::Runner;

    let mix_size = 2;
    let shrinks = vec![1, 2, 4];
    let costs = synthetic_costs(mix_size, &shrinks);
    let shards = 2;
    let capacity_rps = shards as f64
        / costs.mean_service_seconds(
            &ChipConfig::tile_16().fingerprint(),
            &common::classes(mix_size, &shrinks),
        );
    let duration_s = 0.3;
    let library = ScenarioSpec::library();
    assert!(library.len() >= 5, "the sweep promises at least 5 named arms");

    let run_all = |threads: usize| -> Vec<ServeOutcome> {
        Runner::new(threads).run(&library, |index, scenario: &ScenarioSpec| {
            let seed = neura_lab::spec::derive_seed(77, scenario.name);
            let base = StreamSpec {
                arrival: ArrivalProcess::Poisson,
                rps: scenario.load * capacity_rps,
                duration_s,
                mix_size,
                shrinks: shrinks.clone(),
                seed,
            };
            let workload = Workload::Shaped(scenario.shaped(base));
            let groups = tile16_fleet(shards);
            let autoscale = AutoscalePolicy::new(1, 4)
                .with_check_interval_s(0.002)
                .with_provision_delay_s(0.01);
            let fault = scenario.fault_spec(seed, duration_s);
            let mut cfg =
                ServeConfig::new(Policy::Fifo, &groups, DispatchKind::LeastLoaded, &costs);
            if scenario.elastic {
                cfg.autoscale = Some(&autoscale);
            }
            cfg.queue_bound = scenario.queue_bound;
            cfg.faults = fault.as_ref();
            let outcome = serial(&workload, &cfg);
            assert_eq!(
                outcome.requests() + outcome.shed.len(),
                outcome.offered(),
                "scenario {:?} (arm {index}) loses requests",
                scenario.name
            );
            outcome
        })
    };

    let two = run_all(2);
    let eight = run_all(8);
    assert_eq!(two, eight, "outcomes diverge across runner thread counts");
    assert_eq!(two, run_all(2), "outcomes diverge across repeat runs");
}

/// An explicit stream is the same workload as the spec that generated
/// it: `Replay(spec.generate())` and `Open(spec)` produce the identical
/// outcome and trace, serially and split into epochs (whose boundaries
/// differ — a replay's horizon is its last arrival, not the spec's
/// duration).
#[test]
fn replaying_a_generated_stream_equals_the_open_workload() {
    let spec = StreamSpec {
        arrival: ArrivalProcess::Poisson,
        rps: 400.0,
        duration_s: 0.5,
        mix_size: 2,
        shrinks: vec![1, 2],
        seed: 3,
    };
    let replay = Workload::Replay(spec.generate());
    let open = Workload::Shaped(ShapedStream { base: spec, shapes: Vec::new(), tenants: None });
    let costs = synthetic_costs(2, &[1, 2]);
    let groups = tile16_fleet(2);
    let mut cfg = ServeConfig::new(Policy::Fifo, &groups, DispatchKind::LeastLoaded, &costs);
    cfg.queue_bound = Some(4);
    for plan in [EnginePlan::serial(), EnginePlan::serial().with_epochs(3)] {
        let (outcome, trace) = simulate_config_traced_parallel(&open, &cfg, &plan);
        assert!(
            outcome.requests() > 0 && !outcome.shed.is_empty(),
            "the scenario serves and sheds"
        );
        assert_eq!((outcome.clone(), trace), simulate_config_traced_parallel(&replay, &cfg, &plan));
        assert_eq!(outcome, simulate_config_parallel(&replay, &cfg, &plan));
    }
}

/// An empty replay is a valid workload with nothing in it.
#[test]
fn an_empty_replay_produces_the_zeroed_outcome() {
    let costs = synthetic_costs(1, &[1]);
    let groups = tile16_fleet(2);
    let cfg = ServeConfig::new(Policy::Fifo, &groups, DispatchKind::LeastLoaded, &costs);
    for plan in [EnginePlan::serial(), EnginePlan::serial().with_epochs(3)] {
        let outcome = simulate_config_parallel(&Workload::Replay(Vec::new()), &cfg, &plan);
        assert_eq!(outcome.offered(), 0);
        assert_eq!(outcome.requests(), 0);
        assert_eq!(outcome.makespan_s, 0.0);
        assert_eq!(outcome.throughput_rps(), 0.0);
        assert_eq!(outcome.latency_percentile_s(99.0), 0.0);
        assert_eq!(outcome.shard_seconds(), 0.0);
        assert!(outcome.batch_sizes.is_empty() && outcome.shed.is_empty());
    }
}

#[test]
#[should_panic(expected = "sorted by arrival time")]
fn an_unsorted_replay_is_rejected() {
    let mut stream = StreamSpec {
        arrival: ArrivalProcess::Poisson,
        rps: 400.0,
        duration_s: 0.1,
        mix_size: 1,
        shrinks: vec![1],
        seed: 3,
    }
    .generate();
    assert!(stream.len() > 2);
    stream.swap(0, 2);
    let costs = synthetic_costs(1, &[1]);
    let groups = tile16_fleet(1);
    let cfg = ServeConfig::new(Policy::Fifo, &groups, DispatchKind::LeastLoaded, &costs);
    serial(&Workload::Replay(stream), &cfg);
}
