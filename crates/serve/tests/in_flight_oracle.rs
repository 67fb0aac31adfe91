//! Oracle property of [`ServeOutcome::max_in_flight`]: the peak the engine
//! reports equals the peak of admissions minus completions
//! swept over the replay's own lifecycle trace, for open and closed
//! workloads under every policy, with and without a queue bound, under
//! crash and flaky-provisioning regimes, at zero and positive think time,
//! and on every plan — and the plans still agree on the whole outcome.
//!
//! The sweep reads only the trace: `Admit` counts a request in, each
//! `Complete` counts one out, and the count is taken once every event of
//! an instant is in (an instant's completions precede its admissions in
//! the engine, and merged lanes interleave them by lane, so only the
//! count at the end of an instant is a fact of the scenario).

use neura_serve::{
    simulate_config_traced_parallel, ArrivalProcess, AutoscalePolicy, ClosedLoopSpec, DispatchKind,
    EnginePlan, FaultSpec, Policy, ServeConfig, ServeOutcome, StreamSpec, Trace, TraceEvent,
    Workload,
};
use proptest::prelude::*;

mod common;
use common::{synthetic_costs, tile16_fleet};

/// The largest count of admitted, not yet completed requests at the end
/// of any instant of `trace`.
fn swept_peak(trace: &Trace) -> usize {
    let (mut live, mut peak) = (0usize, 0usize);
    for (index, event) in trace.events.iter().enumerate() {
        match event {
            TraceEvent::Admit { .. } => live += 1,
            TraceEvent::Complete { .. } => live -= 1,
            _ => {}
        }
        let instant_ends =
            trace.events.get(index + 1).is_none_or(|next| next.at_s() > event.at_s());
        if instant_ends {
            peak = peak.max(live);
        }
    }
    assert_eq!(live, 0, "every admitted request completes");
    peak
}

fn arb_policy() -> impl Strategy<Value = Policy> {
    (0usize..3, 1usize..=6, 0.0f64..0.02).prop_map(|(kind, max_batch, timeout_s)| match kind {
        0 => Policy::Fifo,
        1 => Policy::Sjf,
        _ => Policy::batch(max_batch, timeout_s),
    })
}

/// No faults, crashes, flaky provisioning, or both.
fn arb_fault(window_s: f64) -> impl Strategy<Value = Option<FaultSpec>> {
    (0usize..4, 0u64..1_000).prop_map(move |(regime, seed)| {
        let spec = FaultSpec::new(seed, window_s);
        match regime {
            0 => None,
            1 => Some(spec.with_crashes(2)),
            2 => Some(spec.with_provision_fail(0.5)),
            _ => Some(spec.with_crashes(1).with_provision_fail(0.5)),
        }
    })
}

/// The serial replay and one under `epochs` and `lanes` on two threads
/// must agree on outcome and trace; both peaks must equal the sweep.
fn assert_peak_matches_sweep(
    workload: &Workload,
    cfg: &ServeConfig<'_>,
    epochs: usize,
    lanes: usize,
) -> ServeOutcome {
    // A lane count is part of a closed-loop scenario, so the reference
    // plan keeps it and only the epochs and threads vary.
    let reference = EnginePlan::serial().with_lanes(lanes).with_threads(1);
    let plan = EnginePlan::serial().with_epochs(epochs).with_lanes(lanes).with_threads(2);
    let (outcome, trace) = simulate_config_traced_parallel(workload, cfg, &reference);
    let (planned, planned_trace) = simulate_config_traced_parallel(workload, cfg, &plan);
    assert_eq!(outcome, planned);
    assert_eq!(trace, planned_trace);
    assert_eq!(outcome.max_in_flight(), swept_peak(&trace), "the reference plan");
    assert_eq!(planned.max_in_flight(), swept_peak(&planned_trace), "the parallel plan");
    outcome
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Open loops: bounded queues shed (a shed request never counts in),
    /// crashes re-queue in-flight batches (they stay in flight), and an
    /// autoscaler under flaky provisioning changes the fleet mid-replay.
    #[test]
    fn open_loop_peak_is_the_swept_trace_peak(
        seed in 0u64..1_000,
        rps in 200.0f64..800.0,
        policy in arb_policy(),
        bounded in 0usize..2,
        fault in arb_fault(0.5),
        epochs in 1usize..=4,
        shards in 2usize..=3,
    ) {
        let spec = StreamSpec {
            arrival: ArrivalProcess::ALL[(seed % 2) as usize],
            rps,
            duration_s: 0.5,
            mix_size: 2,
            shrinks: vec![1, 2],
            seed,
        };
        let costs = synthetic_costs(2, &[1, 2]);
        let fleet = tile16_fleet(shards);
        let autoscale = AutoscalePolicy { up_backlog_per_shard: 2.0, ..AutoscalePolicy::new(1, shards + 1)
            .with_check_interval_s(0.005)
            .with_provision_delay_s(0.01) };
        let mut cfg = ServeConfig::new(policy, &fleet, DispatchKind::LeastLoaded, &costs);
        cfg.autoscale = Some(&autoscale);
        cfg.queue_bound = (bounded == 1).then_some(1);
        cfg.faults = fault.as_ref();
        let outcome =
            assert_peak_matches_sweep(&Workload::Replay(spec.generate()), &cfg, epochs, 1);
        prop_assert!(outcome.max_in_flight() <= outcome.requests());
    }

    /// Closed loops: zero and positive think time, one or two lanes, and
    /// never more requests in flight than clients. Half the cases couple
    /// the lanes back into one replay with a queue bound or a fault
    /// regime; the other half keep two lanes merged, whose peak is not
    /// the sum of the lanes' own.
    #[test]
    fn closed_loop_peak_is_the_swept_trace_peak(
        seed in 0u64..1_000,
        clients in 1usize..=24,
        think in 0usize..2,
        think_ms in 0.01f64..20.0,
        policy in arb_policy(),
        coupled in 0usize..2,
        bounded in 0usize..2,
        fault in arb_fault(0.25),
        epochs in 1usize..=4,
        lanes in 1usize..=2,
    ) {
        let workload = Workload::Closed(ClosedLoopSpec {
            clients,
            think_s: if think == 0 { 0.0 } else { think_ms / 1e3 },
            duration_s: 0.25,
            mix_size: 2,
            shrinks: vec![1, 2],
            seed,
        });
        let costs = synthetic_costs(2, &[1, 2]);
        let fleet = tile16_fleet(4);
        let mut cfg = ServeConfig::new(policy, &fleet, DispatchKind::LeastLoaded, &costs);
        if coupled == 1 {
            cfg.queue_bound = (bounded == 1).then_some(1);
            cfg.faults = fault.as_ref();
        }
        let outcome = assert_peak_matches_sweep(&workload, &cfg, epochs, lanes);
        prop_assert!(outcome.max_in_flight() <= clients);
    }
}
