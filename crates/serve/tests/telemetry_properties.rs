//! Property tests of the telemetry layer: tracing never changes the
//! outcome; windowed counters conserve requests (arrivals split exactly
//! into admitted + shed, and cumulative admitted − served equals the
//! in-flight count at every window close); histogram percentiles track
//! an exact sort within the documented relative-error bound and merging
//! split streams equals the concatenated histogram; the flash-crowd
//! scenario's worst window p99 strictly exceeds the run aggregate; crash
//! recovery in the timeline waits out the provisioning delay; traced
//! timelines are identical across runner thread counts; and the trace and
//! the outcome of one replay, fed by the same recorder calls, agree fact
//! for fact under serial, epoch and lane plans.

use neura_chip::config::ChipConfig;
use neura_serve::{
    simulate_config_parallel, simulate_config_traced_parallel, ArrivalProcess, AutoscalePolicy,
    ClosedLoopSpec, CrashEvent, DispatchKind, EnginePlan, FaultSpec, LatencyHistogram, Policy,
    ScenarioSpec, ServeConfig, ServeOutcome, ShapedStream, StreamSpec, Timeline, Trace, TraceEvent,
    Workload, RELATIVE_ERROR_BOUND, SHED_LATENCY_S,
};
use proptest::prelude::*;

mod common;
use common::{synthetic_costs, tile16_fleet};

/// The autoscaler's provisioning delay shared by every scenario run in
/// this file, so the crash-recovery assertion can name its lower bound.
const PROVISION_DELAY_S: f64 = 0.01;

/// Runs one library scenario traced under `plan`, with the calibration the
/// `scenario_properties` thread-identity test uses.
fn trace_library_scenario(scenario: &ScenarioSpec, plan: &EnginePlan) -> (ServeOutcome, Trace) {
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
        .with_provision_delay_s(PROVISION_DELAY_S);
    let fault = scenario.fault_spec(seed, duration_s);
    let mut cfg = ServeConfig::new(Policy::Fifo, &groups, DispatchKind::LeastLoaded, &costs);
    if scenario.elastic {
        cfg.autoscale = Some(&autoscale);
    }
    cfg.queue_bound = scenario.queue_bound;
    cfg.faults = fault.as_ref();
    simulate_config_traced_parallel(&workload, &cfg, plan)
}

/// [`trace_library_scenario`] on the serial engine, windowed.
fn run_library_scenario_traced(scenario: &ScenarioSpec, window_s: f64) -> (ServeOutcome, Timeline) {
    let (outcome, trace) = trace_library_scenario(scenario, &EnginePlan::serial());
    let timeline = Timeline::build(&trace, &outcome, window_s);
    (outcome, timeline)
}

/// Reads the trace back into the facts the outcome also keeps and
/// compares the two: every completion's latency, the shed ids in order,
/// the dispatched requests against served + re-dispatched, and the crash
/// and scale events one for one.
fn assert_two_views_agree(outcome: &ServeOutcome, trace: &Trace, case: &str) {
    let (mut completed, mut dispatched) = (0usize, 0usize);
    let (mut shed, mut crashes, mut scales) = (Vec::new(), Vec::new(), Vec::new());
    for event in &trace.events {
        match *event {
            TraceEvent::Complete { id, latency_s, .. } => {
                assert_eq!(latency_s, outcome.latencies_s[id], "{case}: latency of request {id}");
                completed += 1;
            }
            TraceEvent::Shed { id, .. } => {
                assert_eq!(outcome.latencies_s[id], SHED_LATENCY_S, "{case}: shed request {id}");
                shed.push(id);
            }
            TraceEvent::Dispatch { requests, .. } => dispatched += requests,
            TraceEvent::Crash { at_s, shard, group, redispatched, .. } => {
                crashes.push(CrashEvent { at_s, shard, group, redispatched });
            }
            TraceEvent::Scale { at_s, group, delta, active_total } => {
                scales.push((at_s, group, delta, active_total));
            }
            TraceEvent::Arrival { .. }
            | TraceEvent::Admit { .. }
            | TraceEvent::ProvisionFailure { .. } => {}
        }
    }
    assert_eq!(completed, outcome.requests(), "{case}: completions");
    assert_eq!(shed, outcome.shed, "{case}: shed ids, in order");
    assert_eq!(dispatched, outcome.requests() + outcome.redispatched(), "{case}: dispatches");
    assert_eq!(crashes, outcome.crash_events, "{case}: crashes");
    let scaled: Vec<_> = outcome
        .scale_events
        .iter()
        .map(|e| (e.effect_s, e.group, e.delta, e.active_total))
        .collect();
    assert_eq!(scales, scaled, "{case}: scale events");
}

/// The window count comes from a caller-chosen width, so `build` bounds it
/// before allocating anything: a nanosecond window over a 0.3 s replay
/// would otherwise try to reserve hundreds of millions of windows.
#[test]
#[should_panic(expected = "more than MAX_TIMELINE_WINDOWS")]
fn a_window_far_narrower_than_the_replay_is_refused() {
    run_library_scenario_traced(&ScenarioSpec::library()[0], 1e-9);
}

/// Exact nearest-rank percentile by sorting, the histogram's ground
/// truth.
fn exact_percentile(values: &[f64], pct: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn arb_stream() -> impl Strategy<Value = StreamSpec> {
    (0usize..2, 200.0f64..600.0, 1usize..=3, 0u64..1_000).prop_map(
        |(arrival, rps, mix_size, seed)| StreamSpec {
            arrival: ArrivalProcess::ALL[arrival],
            rps,
            duration_s: 0.5,
            mix_size,
            shrinks: vec![1, 2, 4],
            seed,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Tracing is pure observation: the traced entry points return the
    /// identical outcome the untraced ones do, and the trace accounts
    /// every arrival exactly once (admit xor shed) with as many
    /// completions as served requests.
    #[test]
    fn tracing_never_changes_the_outcome(
        spec in arb_stream(),
        shards in 1usize..=3,
        bound in 0usize..64,
    ) {
        use neura_serve::TraceEvent;
        let stream = Workload::Replay(spec.generate());
        let costs = synthetic_costs(spec.mix_size, &spec.shrinks);
        let groups = tile16_fleet(shards);
        let mut cfg = ServeConfig::new(Policy::Fifo, &groups, DispatchKind::LeastLoaded, &costs);
        // Bounds under 4 stand in for "no bound": the generated range
        // covers both admission-control arms without an Option strategy.
        cfg.queue_bound = (bound >= 4).then_some(bound);
        let untraced = simulate_config_parallel(&stream, &cfg, &EnginePlan::serial());
        let (traced, trace) = simulate_config_traced_parallel(&stream, &cfg, &EnginePlan::serial());
        prop_assert_eq!(&traced, &untraced);

        let count = |pred: &dyn Fn(&TraceEvent) -> bool| trace.events.iter().filter(|e| pred(e)).count();
        prop_assert_eq!(count(&|e| matches!(e, TraceEvent::Arrival { .. })), untraced.offered());
        prop_assert_eq!(count(&|e| matches!(e, TraceEvent::Admit { .. })), untraced.requests());
        prop_assert_eq!(count(&|e| matches!(e, TraceEvent::Shed { .. })), untraced.shed.len());
        prop_assert_eq!(count(&|e| matches!(e, TraceEvent::Complete { .. })), untraced.requests());
        prop_assert!(
            trace.events.windows(2).all(|w| w[0].at_s() <= w[1].at_s()),
            "trace events must be time-sorted"
        );
    }

    /// The trace and the outcome are two views of the same calls: one
    /// recorder call per fact feeds both sinks, so for an arbitrary open
    /// stream under any policy, a shedding bound, an elastic fleet and a
    /// fault regime, for a closed loop the lane plan really splits, and
    /// for every library scenario, what the trace says happened is what
    /// the outcome says happened — on the serial engine, across epoch
    /// seams and through the lane merge's id and slot remapping.
    #[test]
    fn the_trace_and_the_outcome_are_two_views_of_the_same_calls(
        spec in arb_stream(),
        policy_pick in 0usize..3,
        shards in 2usize..=3,
        bound in 0usize..64,
        crashes in 0usize..=2,
        seed in 0u64..1_000,
        clients in 2usize..=12,
        scenario_index in 0usize..6,
    ) {
        let costs = synthetic_costs(3, &[1, 2, 4]);
        let groups = tile16_fleet(shards);
        let autoscale = AutoscalePolicy::new(1, shards + 1)
            .with_check_interval_s(0.005)
            .with_provision_delay_s(PROVISION_DELAY_S);
        let fault = FaultSpec::new(seed, spec.duration_s)
            .with_crashes(crashes)
            .with_provision_fail(0.3)
            .with_degraded(0, 1.5);
        let policy = [Policy::Fifo, Policy::Sjf, Policy::batch(4, 0.005)][policy_pick];
        let mut open = ServeConfig::new(policy, &groups, DispatchKind::LeastLoaded, &costs);
        open.autoscale = Some(&autoscale);
        open.queue_bound = (bound >= 4).then_some(bound);
        open.faults = Some(&fault);
        let closed = ServeConfig::new(Policy::Fifo, &groups, DispatchKind::LeastLoaded, &costs);
        let population = Workload::Closed(ClosedLoopSpec {
            clients,
            think_s: 0.002,
            duration_s: 0.2,
            mix_size: 2,
            shrinks: vec![1, 2],
            seed,
        });
        let scenario = &ScenarioSpec::library()[scenario_index];
        let stream = Workload::Shaped(ShapedStream { base: spec, shapes: Vec::new(), tenants: None });

        let serial = EnginePlan::serial();
        let plans = [
            ("serial", serial.clone()),
            ("3 epochs", serial.clone().with_epochs(3)),
            ("2 lanes", serial.with_lanes(2)),
        ];
        for (plan_name, plan) in &plans {
            let (outcome, trace) = simulate_config_traced_parallel(&stream, &open, plan);
            assert_two_views_agree(&outcome, &trace, &format!("open stream, {plan_name}"));
            let (outcome, trace) = simulate_config_traced_parallel(&population, &closed, plan);
            assert_two_views_agree(&outcome, &trace, &format!("closed loop, {plan_name}"));
            let (outcome, trace) = trace_library_scenario(scenario, plan);
            assert_two_views_agree(&outcome, &trace, &format!("{}, {plan_name}", scenario.name));
        }
    }

    /// The conservation law of the windowed view: inside every window,
    /// arrivals split exactly into admitted + shed (and shed into its two
    /// reasons); across windows, cumulative admitted − cumulative served
    /// equals the in-flight count at each window close, ending at zero;
    /// and the window totals reproduce the outcome's aggregates.
    #[test]
    fn windowed_counters_conserve_requests(
        scenario_index in 0usize..6,
        window_count in 3usize..60,
    ) {
        let library = ScenarioSpec::library();
        let scenario = &library[scenario_index];
        let window_s = 0.3 / window_count as f64;
        let (outcome, timeline) = run_library_scenario_traced(scenario, window_s);

        let mut admitted_cum = 0u64;
        let mut served_cum = 0u64;
        for window in &timeline.windows {
            prop_assert_eq!(window.arrivals, window.admitted + window.shed);
            prop_assert_eq!(window.shed, window.shed_queue + window.shed_limit);
            admitted_cum += window.admitted;
            served_cum += window.served;
            prop_assert_eq!((admitted_cum - served_cum) as usize, window.in_flight_end);
            prop_assert_eq!(window.served, window.histogram.count());
        }
        let last = timeline.windows.last().expect("at least one window");
        prop_assert_eq!(last.in_flight_end, 0);

        let total = |f: &dyn Fn(&neura_serve::WindowStats) -> u64| -> u64 {
            timeline.windows.iter().map(f).sum()
        };
        prop_assert_eq!(total(&|w| w.arrivals) as usize, outcome.offered());
        prop_assert_eq!(total(&|w| w.admitted) as usize, outcome.requests());
        prop_assert_eq!(total(&|w| w.shed) as usize, outcome.shed.len());
        prop_assert_eq!(total(&|w| w.shed_limit), outcome.shed_limit);
        prop_assert_eq!(timeline.merged.count() as usize, outcome.requests());

        // The merged histogram is exactly the per-window histograms merged,
        // so the max-over-windows p99 can never undercut the aggregate.
        if !timeline.merged.is_empty() {
            let (_, worst) = timeline.worst_window_p99();
            prop_assert!(worst >= timeline.merged.percentile(99.0));
        }
    }

    /// Histogram percentiles sit within the documented relative-error
    /// bound of an exact sort, for arbitrary latency sets spanning seven
    /// orders of magnitude.
    #[test]
    fn histogram_percentiles_track_an_exact_sort(
        values in proptest::collection::vec(1e-5f64..1e2, 1..400),
        pct in 1.0f64..=100.0,
    ) {
        let mut histogram = LatencyHistogram::new();
        for &v in &values {
            histogram.record(v);
        }
        let exact = exact_percentile(&values, pct);
        let approx = histogram.percentile(pct);
        prop_assert!(
            (approx - exact).abs() <= exact * RELATIVE_ERROR_BOUND,
            "p{pct}: histogram {approx} vs exact {exact}"
        );
    }

    /// Merging the histograms of a split stream equals the histogram of
    /// the concatenated stream, whatever the split point — merge is exact,
    /// so per-window histograms aggregate without error.
    #[test]
    fn histogram_merge_is_exact_at_any_split(
        values in proptest::collection::vec(1e-5f64..1e2, 1..200),
        split_frac in 0.0f64..=1.0,
    ) {
        let split = ((values.len() as f64 * split_frac) as usize).min(values.len());
        let mut left = LatencyHistogram::new();
        let mut right = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for (i, &v) in values.iter().enumerate() {
            if i < split { left.record(v) } else { right.record(v) }
            whole.record(v);
        }
        left.merge(&right);
        prop_assert_eq!(left, whole);
    }
}

/// The flash-crowd scenario is the reason windowed percentiles exist: the
/// 4x burst drives its windows' p99 strictly above the run aggregate the
/// spike otherwise hides in.
#[test]
fn flash_crowd_worst_window_p99_exceeds_the_aggregate() {
    let scenario = ScenarioSpec::by_name("flash").expect("library scenario");
    let (outcome, timeline) = run_library_scenario_traced(&scenario, 0.3 / 50.0);
    let aggregate = timeline.merged.percentile(99.0);
    let (worst_index, worst) = timeline.worst_window_p99();
    assert!(
        worst > aggregate,
        "flash worst-window p99 {worst} must strictly exceed the aggregate {aggregate}"
    );
    // The spike happens where the shape says it does: the worst window
    // sits inside or after the flash interval, never before it.
    let worst_start = timeline.windows[worst_index].start_s;
    assert!(
        worst_start >= 0.5 * 0.3 - timeline.window_s,
        "worst window at {worst_start}s predates the flash at {}s",
        0.5 * 0.3
    );
    assert_eq!(outcome.requests(), timeline.merged.count() as usize);
}

/// Crash recovery as the timeline reports it waits out the provisioning
/// delay: replacement capacity cannot land earlier than the autoscaler
/// can provision it, and the worst window still dominates the aggregate.
#[test]
fn crash_recovery_in_the_timeline_waits_out_the_provisioning_delay() {
    let scenario = ScenarioSpec::by_name("crash").expect("library scenario");
    let (outcome, timeline) = run_library_scenario_traced(&scenario, 0.3 / 50.0);
    assert_eq!(timeline.recovery_times_s, outcome.recovery_times_s());
    assert!(!timeline.recovery_times_s.is_empty(), "the crash scenario must recover at least once");
    for &recovery in &timeline.recovery_times_s {
        assert!(
            recovery >= PROVISION_DELAY_S - 1e-9,
            "recovered in {recovery}s, under the {PROVISION_DELAY_S}s provisioning delay"
        );
    }
    assert!(timeline.mean_recovery_s() >= PROVISION_DELAY_S - 1e-9);
    let (_, worst) = timeline.worst_window_p99();
    assert!(worst >= timeline.merged.percentile(99.0));
}

/// Traced replays of every library scenario produce identical timelines
/// (and identical `RunRecord` emissions) whether the lab runner fans out
/// over 2 or 8 threads — the in-crate twin of the `serve --trace`
/// artifact byte-identity check.
#[test]
fn traced_timelines_are_identical_across_runner_threads() {
    use neura_lab::Runner;

    let library = ScenarioSpec::library();
    let run_all = |threads: usize| -> Vec<(ServeOutcome, Timeline)> {
        Runner::new(threads).run(&library, |_, scenario: &ScenarioSpec| {
            run_library_scenario_traced(scenario, 0.3 / 25.0)
        })
    };
    let two = run_all(2);
    let eight = run_all(8);
    assert_eq!(two, eight, "timelines diverge across runner thread counts");

    // Identical structs must also emit identical records — the layer the
    // artifact bytes are built from.
    for ((_, a), (_, b)) in two.iter().zip(&eight) {
        assert_eq!(a.records("scope", &[]), b.records("scope", &[]));
    }

    // Untraced outcomes agree with the traced ones scenario by scenario.
    for (scenario, (outcome, _)) in library.iter().zip(&two) {
        let (retraced, _) = run_library_scenario_traced(scenario, 0.3 / 25.0);
        assert_eq!(&retraced, outcome, "scenario {:?} is not deterministic", scenario.name);
    }
}

/// The config entry point and its traced twin agree on every workload
/// shape, including closed-loop clients.
#[test]
fn traced_config_entry_point_matches_untraced_for_closed_loops() {
    use neura_serve::ClosedLoopSpec;

    let costs = synthetic_costs(2, &[1, 2]);
    let groups = tile16_fleet(2);
    let cfg = ServeConfig::new(Policy::Fifo, &groups, DispatchKind::LeastLoaded, &costs);
    let workload = Workload::Closed(ClosedLoopSpec {
        clients: 4,
        think_s: 0.002,
        duration_s: 0.2,
        mix_size: 2,
        shrinks: vec![1, 2],
        seed: 11,
    });
    let untraced = simulate_config_parallel(&workload, &cfg, &EnginePlan::serial());
    let (traced, trace) = simulate_config_traced_parallel(&workload, &cfg, &EnginePlan::serial());
    assert_eq!(traced, untraced);
    assert_eq!(
        trace
            .events
            .iter()
            .filter(|e| matches!(e, neura_serve::TraceEvent::Complete { .. }))
            .count(),
        untraced.requests()
    );
}
