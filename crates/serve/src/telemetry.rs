//! Deterministic observability: request lifecycle traces, windowed
//! time-series and mergeable latency histograms.
//!
//! Every other serve metric is an end-of-run aggregate, which makes the
//! scenario library's dynamics invisible *in time* — a flash crowd's p99
//! spike, the backlog draining after a crash, a tenant being squeezed mid
//! run all blend into one number. This module adds the missing axis in
//! three deterministic layers:
//!
//! 1. **[`Trace`]** — the raw record. Under
//!    [`simulate_config_traced_parallel`](crate::engine::simulate_config_traced_parallel)
//!    the engine's recorder appends one [`TraceEvent`] per lifecycle step
//!    (arrival → admit/shed → dispatch/service start → completion, plus
//!    crash/scale/provisioning events) in simulation-time order. Tracing
//!    is opt-in: the untraced entry point skips every push.
//! 2. **[`LatencyHistogram`]** — mergeable percentile state. Latencies
//!    land in log-spaced buckets (the float's exponent plus the top
//!    [`neura_sim::SUB_BUCKET_BITS`] mantissa bits), so [`LatencyHistogram::merge`]
//!    is exact bucket-count addition and every reported percentile sits
//!    within [`RELATIVE_ERROR_BOUND`] of the exact-sort answer.
//! 3. **[`Timeline`]** — the windowed view. [`Timeline::build`] replays a
//!    trace into fixed-width windows sampling queue depth, in-flight
//!    count, shed rate, per-group utilisation and active shards,
//!    per-tenant throughput/SLO attainment and per-window p50/p99, and
//!    emits them as `neura_lab` records under the
//!    `neura_lab.timeline/v1` artifact schema.
//!
//! Everything here is a pure function of the trace, so timeline artifacts
//! inherit the simulation's byte-identity across `NEURA_LAB_THREADS`.

use neura_lab::RunRecord;

// The histogram lives in the simulation kernel, where the chip profiler
// (which `neura_serve` sits above) shares it.
pub use neura_sim::{LatencyHistogram, RELATIVE_ERROR_BOUND};

use crate::sim::ServeOutcome;

/// Why an arrival was shed at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The backlog was at its [`crate::sim::ServeConfig::queue_bound`].
    QueueFull,
    /// The tenant's token bucket was empty.
    RateLimited,
}

/// One step of a request's (or the fleet's) lifecycle, stamped with its
/// simulation time. Events are appended in event-loop order, so a trace
/// is already sorted by `at_s`.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A request entered the system.
    Arrival {
        /// Simulation time in seconds.
        at_s: f64,
        /// Request id.
        id: usize,
        /// Owning tenant index.
        tenant: usize,
    },
    /// The request passed admission into the backlog.
    Admit {
        /// Simulation time in seconds.
        at_s: f64,
        /// Request id.
        id: usize,
    },
    /// The request was shed at admission.
    Shed {
        /// Simulation time in seconds.
        at_s: f64,
        /// Request id.
        id: usize,
        /// Owning tenant index.
        tenant: usize,
        /// What gate refused it.
        reason: ShedReason,
    },
    /// A dispatch unit left the backlog and started service on a shard
    /// (dispatch and service start coincide in this model).
    Dispatch {
        /// Simulation time in seconds.
        at_s: f64,
        /// Serving shard slot.
        shard: usize,
        /// The shard's group.
        group: usize,
        /// Requests in the unit.
        requests: usize,
        /// Service time the unit was charged.
        service_s: f64,
    },
    /// A request's batch finished; its latency is final.
    Complete {
        /// Simulation time in seconds.
        at_s: f64,
        /// Request id.
        id: usize,
        /// Owning tenant index.
        tenant: usize,
        /// Completion − arrival, in seconds.
        latency_s: f64,
    },
    /// An injected crash removed a shard; its in-flight batch returned to
    /// the queue head.
    Crash {
        /// Simulation time in seconds.
        at_s: f64,
        /// Crashed shard slot.
        shard: usize,
        /// The shard's group.
        group: usize,
        /// Requests returned to the queue for re-dispatch.
        redispatched: usize,
        /// Service seconds retracted from the interrupted batch.
        lost_service_s: f64,
    },
    /// An executed fleet-size change (the autoscaler's doing — crashes
    /// are [`TraceEvent::Crash`] events).
    Scale {
        /// Effect time in seconds.
        at_s: f64,
        /// Affected group.
        group: usize,
        /// +1 grow / −1 shrink.
        delta: i64,
        /// Fleet-wide active shards after the change.
        active_total: usize,
    },
    /// A scheduled scale-up that failed to provision.
    ProvisionFailure {
        /// Simulation time in seconds.
        at_s: f64,
        /// Affected group.
        group: usize,
    },
}

impl TraceEvent {
    /// The event's simulation time.
    pub fn at_s(&self) -> f64 {
        match *self {
            TraceEvent::Arrival { at_s, .. }
            | TraceEvent::Admit { at_s, .. }
            | TraceEvent::Shed { at_s, .. }
            | TraceEvent::Dispatch { at_s, .. }
            | TraceEvent::Complete { at_s, .. }
            | TraceEvent::Crash { at_s, .. }
            | TraceEvent::Scale { at_s, .. }
            | TraceEvent::ProvisionFailure { at_s, .. } => at_s,
        }
    }
}

/// Static shard-group context a trace carries so the timeline can follow
/// active-capacity changes without the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceGroup {
    /// The group's name.
    pub name: String,
    /// Shards active at t = 0.
    pub initial_shards: usize,
}

/// Static tenant context a trace carries (empty without a tenant mix).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceTenant {
    /// The tenant's name.
    pub name: String,
    /// The tenant's latency SLO, if declared.
    pub slo_s: Option<f64>,
}

/// The full lifecycle record of one traced replay: static fleet/tenant
/// context plus every [`TraceEvent`] in simulation-time order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// Shard groups, in fleet order.
    pub groups: Vec<TraceGroup>,
    /// Tenants of the mix, in mix order (empty without one).
    pub tenants: Vec<TraceTenant>,
    /// Lifecycle events, sorted by time.
    pub events: Vec<TraceEvent>,
}

/// One shard group's slice of a window.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GroupWindow {
    /// Service seconds the group's shards spent inside the window.
    pub busy_s: f64,
    /// Provisioned shard-seconds inside the window (the utilisation
    /// denominator).
    pub active_seconds: f64,
    /// Active shards at the window's end.
    pub active_end: usize,
}

/// One tenant's slice of a window.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TenantWindow {
    /// Requests of the tenant completed inside the window.
    pub served: u64,
    /// Of those, completions within the tenant's SLO (equal to `served`
    /// when no SLO is declared).
    pub within_slo: u64,
}

/// Everything one fixed-width window of the timeline measured.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WindowStats {
    /// Window start time in seconds.
    pub start_s: f64,
    /// Requests that arrived inside the window.
    pub arrivals: u64,
    /// Of those, requests admitted into the backlog.
    pub admitted: u64,
    /// Of those, requests shed at admission.
    pub shed: u64,
    /// Shed because the backlog was at its bound.
    pub shed_queue: u64,
    /// Shed because the tenant's token bucket was empty.
    pub shed_limit: u64,
    /// Requests completed inside the window.
    pub served: u64,
    /// Scheduled scale-ups that failed to provision inside the window.
    pub provision_failures: u64,
    /// Backlog depth when the window closed.
    pub queue_depth_end: usize,
    /// Largest backlog depth observed inside the window.
    pub queue_depth_peak: usize,
    /// Admitted-but-uncompleted requests when the window closed.
    pub in_flight_end: usize,
    /// Latencies of the window's completions.
    pub histogram: LatencyHistogram,
    /// Per-group busy/active accounting, in fleet group order.
    pub groups: Vec<GroupWindow>,
    /// Per-tenant accounting, in mix order (empty without a mix).
    pub tenants: Vec<TenantWindow>,
}

impl WindowStats {
    /// Fraction of the window's arrivals shed (0 for an idle window).
    pub(crate) fn shed_rate(&self) -> f64 {
        if self.arrivals > 0 {
            self.shed as f64 / self.arrivals as f64
        } else {
            0.0
        }
    }
}

/// The most windows a [`Timeline`] may hold. The count is
/// `makespan / window_s` with a caller-chosen — on the command line,
/// user-typed — width, and every window is allocated up front, so it is
/// bounded the way [`crate::engine::MAX_EPOCHS`] bounds `--epochs`. The default
/// width gives about 50 windows.
pub const MAX_TIMELINE_WINDOWS: usize = 1 << 14;

/// The windowed time-series view of one traced replay.
///
/// Built by [`Timeline::build`] from a [`Trace`] and its
/// [`ServeOutcome`]; every field is a pure function of the two, so two
/// builds of the same replay are identical.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// The fixed window width in seconds.
    pub window_s: f64,
    /// The windows, in time order (always at least one).
    pub windows: Vec<WindowStats>,
    /// Every window's histogram merged — the run-aggregate percentile
    /// state, built through [`LatencyHistogram::merge`].
    pub merged: LatencyHistogram,
    /// Shard-group names, in fleet order.
    pub group_names: Vec<String>,
    /// Tenant context, in mix order (empty without a mix).
    pub tenants: Vec<TraceTenant>,
    /// Per-crash recovery times copied from the outcome (crash to the
    /// first repairing scale-up's effect).
    pub recovery_times_s: Vec<f64>,
}

impl Timeline {
    /// Replays a trace into fixed-width windows.
    ///
    /// Windows tile `[0, makespan)`; events exactly at the makespan land
    /// in the final window. The pass is single and chronological: queue
    /// depth and in-flight counts integrate admit/dispatch/complete/crash
    /// deltas, per-group busy seconds come from dispatch intervals
    /// clipped to each window (crash retractions subtract the lost tail),
    /// and active shard-seconds integrate the scale/crash step function.
    ///
    /// # Panics
    ///
    /// Panics unless `window_s` is positive and finite, and when it cuts
    /// the makespan into more than [`MAX_TIMELINE_WINDOWS`] windows (a
    /// caller that takes the width from a user checks it against the
    /// horizon first; a replay that drains long after its horizon can
    /// still land here).
    pub fn build(trace: &Trace, outcome: &ServeOutcome, window_s: f64) -> Self {
        let mut timeline = Timeline::blank(trace, outcome, window_s);
        let mut active: Vec<usize> = trace.groups.iter().map(|g| g.initial_shards).collect();
        let mut active_from = 0.0f64;
        // Integrates the per-group active-shard step function over a span
        // on which it is constant.
        let accrue_active = |timeline: &mut Timeline, active: &[usize], from: f64, to: f64| {
            timeline.for_overlaps(from, to, |window, overlap| {
                for (g, &n) in active.iter().enumerate() {
                    window.groups[g].active_seconds += n as f64 * overlap;
                }
            });
        };

        let mut depth = 0usize;
        let mut in_flight = 0usize;
        // Windows before `open` are closed: their end-of-window samples are
        // taken and the next window's depth peak starts from them.
        let mut open = 0usize;
        let mut close_until =
            |windows: &mut [WindowStats], upto, depth, in_flight, active: &[usize]| {
                for w in open..upto {
                    windows[w].queue_depth_end = depth;
                    windows[w].in_flight_end = in_flight;
                    for (g, &n) in active.iter().enumerate() {
                        windows[w].groups[g].active_end = n;
                    }
                    if let Some(next) = windows.get_mut(w + 1) {
                        next.queue_depth_peak = depth;
                    }
                }
                open = open.max(upto);
            };

        for event in &trace.events {
            let w = timeline.window_of(event.at_s());
            close_until(&mut timeline.windows, w, depth, in_flight, &active);
            let window = &mut timeline.windows[w];
            match *event {
                TraceEvent::Arrival { .. } => window.arrivals += 1,
                TraceEvent::Admit { .. } => {
                    window.admitted += 1;
                    depth += 1;
                    in_flight += 1;
                    window.queue_depth_peak = window.queue_depth_peak.max(depth);
                }
                TraceEvent::Shed { reason, .. } => {
                    window.shed += 1;
                    match reason {
                        ShedReason::QueueFull => window.shed_queue += 1,
                        ShedReason::RateLimited => window.shed_limit += 1,
                    }
                }
                TraceEvent::Dispatch { at_s, group, requests, service_s, .. } => {
                    depth -= requests;
                    timeline.for_overlaps(at_s, at_s + service_s, |window, overlap| {
                        window.groups[group].busy_s += overlap;
                    });
                }
                TraceEvent::Complete { at_s: _, tenant, latency_s, .. } => {
                    in_flight -= 1;
                    window.served += 1;
                    window.histogram.record(latency_s);
                    if let Some(slot) = window.tenants.get_mut(tenant) {
                        slot.served += 1;
                        let slo = trace.tenants[tenant].slo_s;
                        if slo.is_none_or(|slo| latency_s <= slo) {
                            slot.within_slo += 1;
                        }
                    }
                }
                TraceEvent::Crash { at_s, group, redispatched, lost_service_s, .. } => {
                    depth += redispatched;
                    window.queue_depth_peak = window.queue_depth_peak.max(depth);
                    // The interrupted batch's lost tail comes back out.
                    timeline.for_overlaps(at_s, at_s + lost_service_s, |window, overlap| {
                        window.groups[group].busy_s -= overlap;
                    });
                    accrue_active(&mut timeline, &active, active_from, at_s);
                    active_from = at_s;
                    active[group] -= 1;
                }
                TraceEvent::Scale { at_s, group, delta, .. } => {
                    accrue_active(&mut timeline, &active, active_from, at_s);
                    active_from = at_s;
                    active[group] = (active[group] as i64 + delta) as usize;
                }
                TraceEvent::ProvisionFailure { .. } => window.provision_failures += 1,
            }
        }
        accrue_active(&mut timeline, &active, active_from, outcome.makespan_s);
        let count = timeline.windows.len();
        close_until(&mut timeline.windows, count, depth, in_flight, &active);

        for window in &timeline.windows {
            timeline.merged.merge(&window.histogram);
        }
        timeline
    }

    /// The timeline of `outcome` before any event has landed in it: every
    /// window allocated, every counter zero.
    fn blank(trace: &Trace, outcome: &ServeOutcome, window_s: f64) -> Self {
        assert!(window_s > 0.0 && window_s.is_finite(), "window width must be a positive time");
        let makespan = outcome.makespan_s;
        let count = (makespan / window_s).ceil();
        assert!(
            count <= MAX_TIMELINE_WINDOWS as f64,
            "a {window_s} s window cuts the {makespan} s makespan into {count} windows, more \
             than MAX_TIMELINE_WINDOWS = {MAX_TIMELINE_WINDOWS}: widen the window"
        );
        Timeline {
            window_s,
            windows: (0..(count as usize).max(1))
                .map(|w| WindowStats {
                    start_s: w as f64 * window_s,
                    groups: vec![GroupWindow::default(); trace.groups.len()],
                    tenants: vec![TenantWindow::default(); trace.tenants.len()],
                    ..WindowStats::default()
                })
                .collect(),
            merged: LatencyHistogram::new(),
            group_names: trace.groups.iter().map(|g| g.name.clone()).collect(),
            tenants: trace.tenants.clone(),
            recovery_times_s: outcome.recovery_times_s(),
        }
    }

    /// The window `t` falls in; the makespan itself lands in the last one.
    fn window_of(&self, t: f64) -> usize {
        ((t / self.window_s) as usize).min(self.windows.len() - 1)
    }

    /// Clips `[from, to)` against every window it overlaps and hands `add`
    /// each such window with the seconds of overlap.
    fn for_overlaps(&mut self, from: f64, to: f64, mut add: impl FnMut(&mut WindowStats, f64)) {
        if to <= from {
            return;
        }
        let (first, last, window_s) = (self.window_of(from), self.window_of(to), self.window_s);
        for (w, window) in self.windows.iter_mut().enumerate().take(last + 1).skip(first) {
            let lo = w as f64 * window_s;
            let hi = lo + window_s;
            add(window, (to.min(hi) - from.max(lo)).max(0.0));
        }
    }

    /// The window with the largest p99 and that p99 in seconds
    /// (window 0 / 0.0 when nothing was served).
    pub fn worst_window_p99(&self) -> (usize, f64) {
        let mut worst = (0usize, 0.0f64);
        for (w, window) in self.windows.iter().enumerate() {
            if window.histogram.is_empty() {
                continue;
            }
            let p99 = window.histogram.percentile(99.0);
            if p99 > worst.1 {
                worst = (w, p99);
            }
        }
        worst
    }

    /// Mean recovery time over the repaired crashes (0 when none).
    pub fn mean_recovery_s(&self) -> f64 {
        if self.recovery_times_s.is_empty() {
            0.0
        } else {
            self.recovery_times_s.iter().sum::<f64>() / self.recovery_times_s.len() as f64
        }
    }

    /// The timeline's artifact records: one `{scope}/timeline` summary
    /// (window count/width, worst-window vs aggregate p99, recovery
    /// accounting) and one `{scope}/window/NNN` record per window
    /// (admission counters, queue depth, in-flight, windowed p50/p99,
    /// per-group utilisation and active shards, per-tenant throughput
    /// and SLO attainment). `params` is attached to every record.
    pub fn records(&self, scope: &str, params: &[(String, String)]) -> Vec<RunRecord> {
        let (worst_window, worst_p99) = self.worst_window_p99();
        let served: u64 = self.windows.iter().map(|w| w.served).sum();
        let arrivals: u64 = self.windows.iter().map(|w| w.arrivals).sum();
        let shed: u64 = self.windows.iter().map(|w| w.shed).sum();
        let aggregate = self.merged.percentiles(&[50.0, 99.0]);
        let mut summary = RunRecord::new(format!("{scope}/timeline"))
            .metric("windows", self.windows.len() as f64)
            .unit_metric("window_ms", self.window_s * 1e3, "ms")
            .metric("arrivals", arrivals as f64)
            .metric("served", served as f64)
            .metric("shed", shed as f64)
            .unit_metric("aggregate_p50_ms", aggregate[0] * 1e3, "ms")
            .unit_metric("aggregate_p99_ms", aggregate[1] * 1e3, "ms")
            .metric("worst_window", worst_window as f64)
            .unit_metric("worst_window_start_ms", self.windows[worst_window].start_s * 1e3, "ms")
            .unit_metric("worst_window_p99_ms", worst_p99 * 1e3, "ms")
            .metric("recoveries", self.recovery_times_s.len() as f64)
            .unit_metric("recovery_time_ms", self.mean_recovery_s() * 1e3, "ms")
            .metric("histogram_error_bound_pct", RELATIVE_ERROR_BOUND * 100.0);
        summary.params = params.to_vec();
        let mut records = vec![summary];
        for (w, window) in self.windows.iter().enumerate() {
            let tails = window.histogram.percentiles(&[50.0, 99.0]);
            let mut record = RunRecord::new(format!("{scope}/window/{w:03}"))
                .unit_metric("start_ms", window.start_s * 1e3, "ms")
                .metric("arrivals", window.arrivals as f64)
                .metric("admitted", window.admitted as f64)
                .metric("shed", window.shed as f64)
                .metric("shed_queue", window.shed_queue as f64)
                .metric("shed_limit", window.shed_limit as f64)
                .metric("shed_rate", window.shed_rate())
                .metric("served", window.served as f64)
                .unit_metric("throughput_rps", window.served as f64 / self.window_s, "req/s")
                .unit_metric("p50_ms", tails[0] * 1e3, "ms")
                .unit_metric("p99_ms", tails[1] * 1e3, "ms")
                .metric("queue_depth_end", window.queue_depth_end as f64)
                .metric("queue_depth_peak", window.queue_depth_peak as f64)
                .metric("in_flight_end", window.in_flight_end as f64)
                .metric("provision_failures", window.provision_failures as f64);
            for (g, group) in window.groups.iter().enumerate() {
                let name = &self.group_names[g];
                let util = if group.active_seconds > 0.0 {
                    group.busy_s / group.active_seconds
                } else {
                    0.0
                };
                record = record
                    .metric(format!("util_{name}"), util)
                    .metric(format!("active_{name}"), group.active_end as f64);
            }
            for (t, tenant) in window.tenants.iter().enumerate() {
                let spec = &self.tenants[t];
                record = record.unit_metric(
                    format!("rps_{}", spec.name),
                    tenant.served as f64 / self.window_s,
                    "req/s",
                );
                if spec.slo_s.is_some() {
                    let attainment = if tenant.served > 0 {
                        tenant.within_slo as f64 / tenant.served as f64
                    } else {
                        1.0
                    };
                    record = record.metric(format!("slo_{}", spec.name), attainment);
                }
            }
            record.params = params.to_vec();
            records.push(record.param("window", w));
        }
        records
    }
}
