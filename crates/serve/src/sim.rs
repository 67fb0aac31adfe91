//! The serving simulation's configuration and metrics: [`ServeConfig`]
//! in, [`ServeOutcome`] out.
//!
//! [`simulate_config_parallel`](crate::engine::simulate_config_parallel)
//! replays one scenario as an *event-source* loop. Requests enter from a
//! [`Workload`](crate::arrivals::Workload) — an open-loop stream
//! (generated from a spec or replayed as given), a rate-shaped
//! multi-tenant stream, or a closed-loop client population whose next
//! arrival is only known once the previous response lands — and pass
//! through admission control into a central backlog: a bounded
//! queue sheds arrivals beyond its [`ServeConfig::queue_bound`], and a
//! tenant's token bucket sheds arrivals beyond its rate limit. The
//! scheduling [`Policy`] turns the backlog into dispatch units (single
//! requests for FIFO/SJF, per-class batches for the batching policy), a
//! class-aware [`DispatchKind`] places each unit on one idle shard of a
//! (possibly heterogeneous, possibly autoscaled)
//! [`ShardFleet`](crate::fleet::ShardFleet), and the unit is charged the memoised
//! service time of that shard's silicon — stretched by the fault plan's
//! multiplier when the shard's group runs degraded. A [`FaultSpec`]
//! additionally injects seed-derived shard crashes (the victim's
//! in-flight batch returns to the queue head for re-dispatch) and
//! provisioning failures (a scheduled scale-up silently doesn't land).
//!
//! The loop advances through a deterministic event sequence — next
//! arrival, next batch completion, next batch timeout, next injected
//! crash, next provisioning effect, next autoscaler check — and each
//! event processes completions, then arrivals and admission, then
//! crashes, then provisioning, then the autoscaler, in that fixed order.
//! The outcome is therefore a pure function of
//! `(workload, policy, fleet, dispatch, autoscale, faults, costs)`;
//! nothing about wall-clock time or thread scheduling can leak into the
//! metrics. Every request is accounted for exactly once: served (finite
//! non-negative latency), shed (the [`SHED_LATENCY_S`] sentinel), or
//! crashed-and-redispatched until served.
//!
//! The event loop itself, and the two replay entry points, live in
//! [`crate::engine`].

use neura_lab::RunRecord;

use crate::autoscale::{AutoscalePolicy, ScaleEvent};
use crate::cost::CostTable;
use crate::dispatch::DispatchKind;
use crate::fault::{CrashEvent, FaultSpec};
use crate::fleet::{GroupStats, ShardGroup, ShardStats};
use crate::policy::Policy;
use crate::scenario::TenantMix;

/// The latency sentinel a shed request carries in
/// [`ServeOutcome::latencies_s`]. Deliberately a *finite* negative value —
/// not NaN — so outcomes stay `PartialEq`-comparable and the determinism
/// suite can keep asserting byte-for-byte equality. Served-only metrics
/// exclude exactly this value.
pub const SHED_LATENCY_S: f64 = -1.0;

/// Nearest-rank percentiles in seconds over served latencies — filter,
/// then select each rank: the two steps every outcome percentile goes
/// through ([`ServeOutcome::records`] runs the same selection over one
/// bucketing pass for the scenario and its tenants). Shed
/// requests are excluded by matching the [`SHED_LATENCY_S`] sentinel
/// exactly, *not* by a silent `>= 0` range filter: any other negative
/// (or non-finite) latency is a simulation bug, so it trips the debug
/// assertion here and the selection's finiteness check in release builds
/// instead of quietly vanishing from the tail. Returns 0 for every
/// percentile when nothing was served.
///
/// # Panics
///
/// Panics unless every percentile is within `(0, 100]`.
fn served_percentiles(latencies: impl Iterator<Item = f64>, pcts: &[f64]) -> Vec<f64> {
    let mut served: Vec<f64> = latencies.filter(|&l| is_served(l)).collect();
    nearest_ranks(&mut served, pcts)
}

/// Whether a latency belongs to a served request (see
/// [`served_percentiles`] for why the sentinel is matched exactly).
fn is_served(latency: f64) -> bool {
    debug_assert!(
        latency >= 0.0 || latency == SHED_LATENCY_S,
        "latency {latency} is neither served nor the shed sentinel"
    );
    latency != SHED_LATENCY_S
}

/// The nearest-rank `pct`-th percentiles of `values` (0 each when it is
/// empty) — the values the sorted slice holds at those ranks, found
/// without sorting it: the ranks are visited in ascending order, each
/// selected with `select_nth_unstable_by` within the part of the slice
/// right of the previous one, which that selection left holding exactly
/// the larger values. Reorders `values`.
///
/// # Panics
///
/// Panics unless every percentile is within `(0, 100]`.
fn nearest_ranks(values: &mut [f64], pcts: &[f64]) -> Vec<f64> {
    assert!(
        pcts.iter().all(|&pct| pct > 0.0 && pct <= 100.0),
        "percentile must be within (0, 100]"
    );
    let mut percentiles = vec![0.0; pcts.len()];
    if values.is_empty() {
        return percentiles;
    }
    let index = |pct: f64| {
        let rank = (pct / 100.0 * values.len() as f64).ceil() as usize;
        rank.clamp(1, values.len()) - 1
    };
    let mut order: Vec<(usize, usize)> = pcts.iter().map(|&pct| index(pct)).zip(0..).collect();
    order.sort_unstable();
    let mut start = 0;
    for (at, slot) in order {
        let (_, value, _) = values[start..].select_nth_unstable_by(at - start, |a, b| {
            a.partial_cmp(b).expect("latencies are finite")
        });
        percentiles[slot] = *value;
        start = at;
    }
    percentiles
}

/// The arithmetic mean in slice order (0 for an empty slice).
fn mean_or_zero(values: &[f64]) -> f64 {
    mean_of(values.iter().sum(), values.len())
}

/// The mean of `count` values summing to `sum` (0 when there are none).
fn mean_of(sum: f64, count: usize) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// Per-tenant admission accounting (populated only when a tenant mix is
/// configured).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantOutcome {
    /// The tenant's name, as declared in the mix.
    pub name: String,
    /// The tenant's latency SLO, if declared (reported, never enforced).
    pub slo_s: Option<f64>,
    /// Requests the tenant offered (admitted or shed).
    pub offered: u64,
    /// Requests shed at admission (queue bound or rate limit).
    pub shed: u64,
}

/// Everything one scenario replay measured.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// Per-request latency (completion − arrival) in seconds, id-ordered;
    /// shed requests carry [`SHED_LATENCY_S`].
    pub latencies_s: Vec<f64>,
    /// Per-request arrival time in seconds, id-ordered; a served
    /// request completed at `arrival + latency`, up to rounding.
    pub arrivals_s: Vec<f64>,
    /// Per-request tenant index, id-ordered (all 0 without a mix).
    pub tenants: Vec<usize>,
    /// Ids of shed requests, ascending.
    pub shed: Vec<usize>,
    /// Requests shed because the backlog was at its bound.
    pub shed_queue: u64,
    /// Requests shed because their tenant's token bucket was empty.
    pub shed_limit: u64,
    /// Per-tenant admission accounting (empty without a tenant mix).
    pub tenant_outcomes: Vec<TenantOutcome>,
    /// Every injected shard crash, in time order.
    pub crash_events: Vec<CrashEvent>,
    /// Scheduled scale-ups that failed to provision.
    pub provision_failures: u64,
    /// Time of the last batch completion (0 for an empty stream).
    pub makespan_s: f64,
    /// Time-weighted mean backlog depth over the makespan.
    pub queue_depth_mean: f64,
    /// Largest backlog depth observed at any event.
    pub queue_depth_max: usize,
    /// Largest number of admitted requests not yet completed, counted in
    /// event order (read it through [`Self::max_in_flight`]).
    pub(crate) peak_in_flight: usize,
    /// Size of every completed batch, in completion order.
    pub batch_sizes: Vec<usize>,
    /// Per-shard-slot counters.
    pub shard_stats: Vec<ShardStats>,
    /// The group each shard slot belongs to.
    pub shard_groups: Vec<usize>,
    /// Per-group aggregates (busy time, served counts, provisioned
    /// shard-seconds, peak active shards).
    pub group_stats: Vec<GroupStats>,
    /// Every executed fleet-size change, in effect order. Crashes are
    /// *not* scale events — they appear in [`Self::crash_events`].
    pub scale_events: Vec<ScaleEvent>,
}

impl ServeOutcome {
    /// Number of requests offered (served + shed).
    pub fn offered(&self) -> usize {
        self.arrivals_s.len()
    }

    /// Number of requests served to completion.
    pub fn requests(&self) -> usize {
        self.latencies_s.iter().filter(|&&l| is_served(l)).count()
    }

    /// Fraction of offered requests shed at admission (0 for an empty
    /// stream).
    pub fn shed_rate(&self) -> f64 {
        if self.offered() > 0 {
            self.shed.len() as f64 / self.offered() as f64
        } else {
            0.0
        }
    }

    /// Requests that were in flight on crashing shards and re-dispatched.
    pub fn redispatched(&self) -> usize {
        self.crash_events.iter().map(|c| c.redispatched).sum()
    }

    /// Per-crash recovery time: from the crash to the effect of the first
    /// scale-up the autoscaler decided *after* it in the crashed group
    /// (crashes the autoscaler never repaired are absent). Each entry is
    /// at least the provisioning delay by construction.
    pub fn recovery_times_s(&self) -> Vec<f64> {
        self.crash_events
            .iter()
            .filter_map(|c| {
                self.scale_events
                    .iter()
                    .find(|e| e.group == c.group && e.delta > 0 && e.decision_s >= c.at_s)
                    .map(|e| e.effect_s - c.at_s)
            })
            .collect()
    }

    /// Latency percentile in seconds over *served* requests
    /// (nearest-rank; 0 when nothing was served).
    ///
    /// Selects over the latency vector per call — when reading several
    /// percentiles, use [`Self::latency_percentiles_s`] to filter once.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < pct ≤ 100`.
    pub fn latency_percentile_s(&self, pct: f64) -> f64 {
        self.latency_percentiles_s(&[pct])[0]
    }

    /// Several served-latency percentiles in seconds from a single filter
    /// pass (nearest-rank; 0 when nothing was served).
    ///
    /// # Panics
    ///
    /// Panics unless every percentile is within `(0, 100]`.
    pub fn latency_percentiles_s(&self, pcts: &[f64]) -> Vec<f64> {
        served_percentiles(self.latencies_s.iter().copied(), pcts)
    }

    /// Mean served latency in seconds (0 when nothing was served).
    pub fn mean_latency_s(&self) -> f64 {
        let served = self.latencies_s.iter().filter(|&&l| is_served(l));
        let (count, sum) = served.fold((0, 0.0), |(count, sum), &l| (count + 1, sum + l));
        mean_of(sum, count)
    }

    /// Sustained throughput: requests served per second of makespan.
    pub fn throughput_rps(&self) -> f64 {
        if self.makespan_s > 0.0 {
            self.requests() as f64 / self.makespan_s
        } else {
            0.0
        }
    }

    /// Mean completed batch size (0 when nothing was dispatched).
    pub(crate) fn mean_batch_size(&self) -> f64 {
        if self.batch_sizes.is_empty() {
            0.0
        } else {
            self.batch_sizes.iter().sum::<usize>() as f64 / self.batch_sizes.len() as f64
        }
    }

    /// Largest completed batch.
    fn max_batch_size(&self) -> usize {
        self.batch_sizes.iter().copied().max().unwrap_or(0)
    }

    /// Per-shard-slot utilisation: busy seconds over the makespan.
    pub(crate) fn utilisations(&self) -> Vec<f64> {
        self.shard_stats
            .iter()
            .map(|s| if self.makespan_s > 0.0 { s.busy_s / self.makespan_s } else { 0.0 })
            .collect()
    }

    /// Total provisioned shard-seconds across all groups — the scenario's
    /// capacity cost, reported next to the latency it bought.
    pub fn shard_seconds(&self) -> f64 {
        self.group_stats.iter().map(|g| g.shard_seconds).sum()
    }

    /// Mean provisioned shard count over the makespan.
    fn mean_active_shards(&self) -> f64 {
        if self.makespan_s > 0.0 {
            self.shard_seconds() / self.makespan_s
        } else {
            0.0
        }
    }

    /// The largest number of *served* requests simultaneously in flight
    /// (admitted but not yet completed; shed requests never occupy the
    /// system) — the quantity a closed loop bounds by its client count.
    ///
    /// It is counted in event order: +1 per admission, −size per
    /// completed batch, a crash's re-queued batch staying in flight, and
    /// an instant's completions counted out before its admissions count
    /// in (a closed-loop client's next request can only follow its
    /// response).
    pub fn max_in_flight(&self) -> usize {
        self.peak_in_flight
    }

    /// The artifact records describing this outcome: one scenario summary
    /// (tail latencies, throughput, shed/crash/recovery accounting, queue
    /// depth, batching, shard-seconds cost), one record per tenant of the
    /// mix (admission and SLO attainment), one per shard group
    /// (utilisation of the provisioned capacity, served counts, peak
    /// active shards) and one per shard slot (utilisation, busy time,
    /// served counts). `scope` prefixes every record ID and `params` is
    /// attached to each record.
    pub fn records(&self, scope: &str, params: &[(String, String)]) -> Vec<RunRecord> {
        // One pass buckets every served latency: all of them for the
        // scenario tails and, under a tenant mix, each tenant's own.
        let mut served = Vec::with_capacity(self.latencies_s.len());
        let mut tenant_served = vec![Vec::new(); self.tenant_outcomes.len()];
        for (&owner, &latency) in self.tenants.iter().zip(&self.latencies_s) {
            if is_served(latency) {
                served.push(latency);
                if let Some(bucket) = tenant_served.get_mut(owner) {
                    bucket.push(latency);
                }
            }
        }
        let requests = served.len();
        let tails = nearest_ranks(&mut served, &[50.0, 95.0, 99.0]);
        let recoveries = self.recovery_times_s();
        let mut summary = RunRecord::new(format!("{scope}/summary"))
            .metric("requests", requests as f64)
            .metric("offered", self.offered() as f64)
            .metric("shed", self.shed.len() as f64)
            .metric("shed_rate", self.shed_rate())
            .metric("shed_queue", self.shed_queue as f64)
            .metric("shed_limit", self.shed_limit as f64)
            .metric("crashes", self.crash_events.len() as f64)
            .metric("redispatched", self.redispatched() as f64)
            .metric("provision_failures", self.provision_failures as f64)
            .metric("recoveries", recoveries.len() as f64)
            .unit_metric("recovery_time_ms", mean_or_zero(&recoveries) * 1e3, "ms")
            .unit_metric("p50_latency_ms", tails[0] * 1e3, "ms")
            .unit_metric("p95_latency_ms", tails[1] * 1e3, "ms")
            .unit_metric("p99_latency_ms", tails[2] * 1e3, "ms")
            .unit_metric("mean_latency_ms", self.mean_latency_s() * 1e3, "ms")
            .unit_metric("throughput_rps", self.throughput_rps(), "req/s")
            .unit_metric("makespan_s", self.makespan_s, "s")
            .metric("queue_depth_mean", self.queue_depth_mean)
            .metric("queue_depth_max", self.queue_depth_max as f64)
            .metric("batches", self.batch_sizes.len() as f64)
            .metric("mean_batch_size", self.mean_batch_size())
            .metric("max_batch_size", self.max_batch_size() as f64)
            .unit_metric("shard_seconds", self.shard_seconds(), "shard*s")
            .metric("mean_active_shards", self.mean_active_shards())
            .metric("max_in_flight", self.max_in_flight() as f64)
            .metric("scale_events", self.scale_events.len() as f64);
        summary.params = params.to_vec();
        let mut records = vec![summary];
        for (tenant, mut served) in self.tenant_outcomes.iter().zip(tenant_served) {
            let p99 = nearest_ranks(&mut served, &[99.0])[0];
            let admitted = tenant.offered - tenant.shed;
            let shed_rate =
                if tenant.offered > 0 { tenant.shed as f64 / tenant.offered as f64 } else { 0.0 };
            let mut record = RunRecord::new(format!("{scope}/tenant/{}", tenant.name))
                .metric("offered", tenant.offered as f64)
                .metric("admitted", admitted as f64)
                .metric("shed", tenant.shed as f64)
                .metric("shed_rate", shed_rate)
                .unit_metric("p99_latency_ms", p99 * 1e3, "ms");
            if let Some(slo) = tenant.slo_s {
                let within = served.iter().filter(|&&l| l <= slo).count();
                let attainment =
                    if served.is_empty() { 1.0 } else { within as f64 / served.len() as f64 };
                record = record.metric("slo_attainment", attainment);
            }
            record.params = params.to_vec();
            records.push(record.param("tenant", &tenant.name));
        }
        for (g, group) in self.group_stats.iter().enumerate() {
            let utilisation =
                if group.shard_seconds > 0.0 { group.busy_s / group.shard_seconds } else { 0.0 };
            let mut record = RunRecord::new(format!("{scope}/group/{}", group.name))
                .metric("utilization", utilisation)
                .unit_metric("busy_s", group.busy_s, "s")
                .unit_metric("shard_seconds", group.shard_seconds, "shard*s")
                .metric("batches", group.batches as f64)
                .metric("requests", group.requests as f64)
                .metric("peak_active_shards", group.peak_active as f64)
                .metric("capacity", group.capacity as f64);
            record.params = params.to_vec();
            records.push(record.param("group", g));
        }
        for (i, (stats, utilisation)) in
            self.shard_stats.iter().zip(self.utilisations()).enumerate()
        {
            let mut record = RunRecord::new(format!("{scope}/shard{i}"))
                .metric("utilization", utilisation)
                .unit_metric("busy_s", stats.busy_s, "s")
                .metric("batches", stats.batches as f64)
                .metric("requests", stats.requests as f64);
            record.params = params.to_vec();
            records.push(record.param("shard", i).param("group", self.shard_groups[i]));
        }
        records
    }
}

/// One scenario's full serving configuration: the scheduling policy,
/// fleet, dispatch and cost model every replay needs, plus the optional
/// production knobs — autoscaling, a bounded queue that sheds, a tenant
/// mix with rate limits, and a fault regime.
///
/// Admission control (queue bound and tenant limits) applies to open-loop
/// arrivals only — a shaped stream, shapeless or not, or a replayed one: a
/// closed-loop population self-limits by construction, its clients wait
/// rather than having requests dropped.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig<'a> {
    /// The scheduling policy.
    pub policy: Policy,
    /// The fleet's shard groups.
    pub groups: &'a [ShardGroup],
    /// The dispatch policy choosing a shard per unit.
    pub dispatch: DispatchKind,
    /// The autoscaler, if the fleet is elastic.
    pub autoscale: Option<&'a AutoscalePolicy>,
    /// The calibrated service-time table.
    pub costs: &'a CostTable,
    /// Backlog bound: arrivals beyond it are shed (`None` = unbounded).
    pub queue_bound: Option<usize>,
    /// Tenant mix for admission control and per-tenant accounting: it wins
    /// over a shaped stream's own mix (`None` = that mix, or a single
    /// implicit tenant). A replay's requests keep their tenant indices and
    /// a closed loop's are all tenant 0.
    pub tenants: Option<&'a TenantMix>,
    /// Fault regime to inject (`None` = a healthy fleet).
    pub faults: Option<&'a FaultSpec>,
}

impl<'a> ServeConfig<'a> {
    /// A plain configuration: fixed fleet, unbounded queue, single
    /// tenant, no faults.
    pub fn new(
        policy: Policy,
        groups: &'a [ShardGroup],
        dispatch: DispatchKind,
        costs: &'a CostTable,
    ) -> Self {
        ServeConfig {
            policy,
            groups,
            dispatch,
            autoscale: None,
            costs,
            queue_bound: None,
            tenants: None,
            faults: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{ArrivalProcess, ClosedLoopSpec, Request, StreamSpec, Workload};
    use crate::autoscale::AutoscalePolicy;
    use crate::cost::{ClassCost, RequestClass};
    use crate::engine::{simulate_config_parallel, EnginePlan};
    use crate::scenario::{RateShape, ShapedStream, TenantSpec};
    use neura_chip::config::ChipConfig;

    /// A homogeneous Tile-16 fleet of `n` shards.
    fn tile16_fleet(n: usize) -> Vec<ShardGroup> {
        vec![ShardGroup::new("t16", ChipConfig::tile_16(), n)]
    }

    /// Two classes on Tile-16 silicon: 1 s and 0.5 s of service per request
    /// (Tile-16 runs at 1 GHz, so cycles map 1:1 to nanoseconds).
    fn unit_costs() -> CostTable {
        let mut costs = CostTable::new();
        let fp = costs.register(&ChipConfig::tile_16());
        costs.insert(
            &fp,
            RequestClass { dataset: 0, shrink: 1 },
            ClassCost { cycles: 1_000_000_000, flops: 10 },
        );
        costs.insert(
            &fp,
            RequestClass { dataset: 1, shrink: 1 },
            ClassCost { cycles: 500_000_000, flops: 5 },
        );
        costs
    }

    fn request(id: usize, arrival_s: f64, dataset: usize) -> Request {
        Request { id, arrival_s, class: RequestClass { dataset, shrink: 1 }, tenant: 0 }
    }

    /// Serial FIFO-dispatch replay of an explicit stream on `shards`
    /// Tile-16 shards.
    fn sim(stream: &[Request], policy: Policy, shards: usize, costs: &CostTable) -> ServeOutcome {
        let groups = tile16_fleet(shards);
        let cfg = ServeConfig::new(policy, &groups, DispatchKind::LeastLoaded, costs);
        simulate_config_parallel(&Workload::Replay(stream.to_vec()), &cfg, &EnginePlan::serial())
    }

    #[test]
    fn fifo_on_one_shard_serialises_requests() {
        let stream = [request(0, 0.0, 0), request(1, 0.1, 0)];
        let outcome = sim(&stream, Policy::Fifo, 1, &unit_costs());
        // Request 0: served 0.0–1.0 (latency 1.0); request 1 waits for the
        // shard, served 1.0–2.0 (latency 1.9).
        assert!((outcome.latencies_s[0] - 1.0).abs() < 1e-12);
        assert!((outcome.latencies_s[1] - 1.9).abs() < 1e-12);
        assert!((outcome.makespan_s - 2.0).abs() < 1e-12);
        assert_eq!(outcome.batch_sizes, vec![1, 1]);
        assert_eq!(outcome.shard_stats[0].requests, 2);
        assert!((outcome.utilisations()[0] - 1.0).abs() < 1e-12);
        assert!((outcome.shard_seconds() - 2.0).abs() < 1e-12, "1 shard x 2 s makespan");
        assert_eq!(outcome.arrivals_s, vec![0.0, 0.1]);
        assert_eq!(outcome.offered(), 2);
        assert!(outcome.shed.is_empty(), "no admission control, nothing sheds");
        assert_eq!(outcome.shed_rate(), 0.0);
    }

    #[test]
    fn a_second_shard_absorbs_the_queueing_delay() {
        let stream = [request(0, 0.0, 0), request(1, 0.1, 0)];
        let outcome = sim(&stream, Policy::Fifo, 2, &unit_costs());
        assert!((outcome.latencies_s[0] - 1.0).abs() < 1e-12);
        assert!((outcome.latencies_s[1] - 1.0).abs() < 1e-12, "no wait on the idle shard");
        assert!((outcome.makespan_s - 1.1).abs() < 1e-12);
        assert!((outcome.shard_seconds() - 2.2).abs() < 1e-12, "2 shards x 1.1 s makespan");
    }

    #[test]
    fn sjf_reorders_the_backlog_by_work() {
        // Both queued behind the in-flight request; the cheap dataset-1
        // request (0.5 s) jumps ahead of the earlier dataset-0 one.
        let stream = [request(0, 0.0, 0), request(1, 0.01, 0), request(2, 0.02, 1)];
        let outcome = sim(&stream, Policy::Sjf, 1, &unit_costs());
        assert!((outcome.latencies_s[2] - (1.5 - 0.02)).abs() < 1e-12, "short job served first");
        assert!((outcome.latencies_s[1] - (2.5 - 0.01)).abs() < 1e-12, "long job served last");
    }

    #[test]
    fn batching_groups_same_class_requests_and_amortises_cost() {
        let stream = [request(0, 0.0, 0), request(1, 0.001, 0)];
        let outcome = sim(&stream, Policy::batch(2, 1.0), 1, &unit_costs());
        // Both arrive before the batch fills at max_batch = 2; the batch of
        // two costs 1.0 * (1 + 0.5) = 1.5 s and dispatches at t = 0.001.
        assert_eq!(outcome.batch_sizes, vec![2]);
        assert!((outcome.latencies_s[0] - 1.501).abs() < 1e-12);
        assert!((outcome.latencies_s[1] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn partial_batches_flush_at_the_timeout() {
        let stream = [request(0, 0.0, 0)];
        let outcome = sim(&stream, Policy::batch(8, 0.25), 1, &unit_costs());
        // The lone request waits out the 0.25 s timeout before dispatching.
        assert_eq!(outcome.batch_sizes, vec![1]);
        assert!((outcome.latencies_s[0] - 1.25).abs() < 1e-12);
    }

    #[test]
    fn queue_depth_tracks_the_backlog() {
        let stream =
            [request(0, 0.0, 0), request(1, 0.1, 0), request(2, 0.1, 0), request(3, 0.1, 0)];
        let outcome = sim(&stream, Policy::Fifo, 1, &unit_costs());
        assert_eq!(outcome.queue_depth_max, 3, "three requests queue behind the first");
        assert!(outcome.queue_depth_mean > 0.0);
        assert_eq!(outcome.max_in_flight(), 4, "all four overlap while the first is served");
    }

    #[test]
    fn empty_streams_produce_zeroed_metrics() {
        let outcome = sim(&[], Policy::Fifo, 2, &unit_costs());
        assert_eq!(outcome.requests(), 0);
        assert_eq!(outcome.throughput_rps(), 0.0);
        assert_eq!(outcome.latency_percentile_s(99.0), 0.0);
        assert_eq!(outcome.mean_batch_size(), 0.0);
        assert_eq!(outcome.shard_seconds(), 0.0);
        assert_eq!(outcome.max_in_flight(), 0);
        assert_eq!(outcome.shed_rate(), 0.0);
        assert!(outcome.recovery_times_s().is_empty());
    }

    #[test]
    fn heterogeneous_fleets_charge_each_group_its_own_silicon() {
        // One Tile-64 shard serving the big class 4x faster than the
        // Tile-4 shard; cost-aware dispatch sends the lone request there.
        let groups = vec![
            ShardGroup::new("t64", ChipConfig::tile_64(), 1),
            ShardGroup::new("t4", ChipConfig::tile_4(), 1),
        ];
        let mut costs = CostTable::new();
        let t64 = costs.register(&ChipConfig::tile_64());
        let t4 = costs.register(&ChipConfig::tile_4());
        let class = RequestClass { dataset: 0, shrink: 1 };
        costs.insert(&t64, class, ClassCost { cycles: 250_000_000, flops: 10 });
        costs.insert(&t4, class, ClassCost { cycles: 1_000_000_000, flops: 10 });
        let stream = Workload::Replay(vec![request(0, 0.0, 0)]);
        let cfg = ServeConfig::new(Policy::Fifo, &groups, DispatchKind::CostAware, &costs);
        let outcome = simulate_config_parallel(&stream, &cfg, &EnginePlan::serial());
        assert!((outcome.latencies_s[0] - 0.25).abs() < 1e-12, "served on the Tile-64");
        assert_eq!(outcome.group_stats[0].requests, 1);
        assert_eq!(outcome.group_stats[1].requests, 0);
        assert_eq!(outcome.shard_groups, vec![0, 1]);
        // Both shards were provisioned for the whole 0.25 s makespan.
        assert!((outcome.shard_seconds() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn closed_loops_never_exceed_their_client_count() {
        let workload = Workload::Closed(ClosedLoopSpec {
            clients: 3,
            think_s: 0.05,
            duration_s: 10.0,
            mix_size: 2,
            shrinks: vec![1],
            seed: 17,
        });
        let (groups, costs) = (tile16_fleet(1), unit_costs());
        let cfg = ServeConfig::new(Policy::Fifo, &groups, DispatchKind::LeastLoaded, &costs);
        let outcome = simulate_config_parallel(&workload, &cfg, &EnginePlan::serial());
        assert!(outcome.requests() > 3, "clients re-issue after completions");
        assert!(outcome.max_in_flight() <= 3);
        // One saturated shard: ~1 request per second of makespan.
        assert!(outcome.throughput_rps() <= 2.0 / 1.0 + 1e-9);
        // Deterministic replay.
        assert_eq!(outcome, simulate_config_parallel(&workload, &cfg, &EnginePlan::serial()));
    }

    /// Zero think time re-issues each request at its predecessor's finish,
    /// which `arrival + latency` can round just past; a client still never
    /// has more than one request in flight.
    #[test]
    fn zero_think_closed_loops_never_exceed_their_client_count() {
        let clients = 50;
        let workload = Workload::Closed(ClosedLoopSpec {
            clients,
            think_s: 0.0,
            duration_s: 2.0,
            mix_size: 2,
            shrinks: vec![1],
            seed: 23,
        });
        // Service times that are not whole numbers of seconds, nor of
        // anything a binary fraction holds exactly.
        let mut costs = CostTable::new();
        let fp = costs.register(&ChipConfig::tile_16());
        for (dataset, cycles) in [(0, 3_333_337), (1, 7_654_321)] {
            costs.insert(&fp, RequestClass { dataset, shrink: 1 }, ClassCost { cycles, flops: 1 });
        }
        let groups = tile16_fleet(2);
        let cfg = ServeConfig::new(Policy::Fifo, &groups, DispatchKind::LeastLoaded, &costs);
        let outcome = simulate_config_parallel(&workload, &cfg, &EnginePlan::serial());
        assert!(outcome.requests() > 10 * clients, "clients re-issue many times");
        assert_eq!(outcome.max_in_flight(), clients, "every client always has one outstanding");
    }

    #[test]
    fn closed_loop_backs_off_where_open_loop_queues() {
        // Same mean demand; the open loop keeps arriving at 2 rps against a
        // 1 rps shard and builds an unbounded queue, the closed loop's lone
        // client can never have more than one request outstanding.
        let base = StreamSpec {
            arrival: ArrivalProcess::Poisson,
            rps: 2.0,
            duration_s: 10.0,
            mix_size: 1,
            shrinks: vec![1],
            seed: 5,
        };
        let open = Workload::Shaped(ShapedStream { base, shapes: Vec::new(), tenants: None });
        let closed = Workload::Closed(ClosedLoopSpec {
            clients: 1,
            think_s: 0.0,
            duration_s: 10.0,
            mix_size: 1,
            shrinks: vec![1],
            seed: 5,
        });
        let costs = unit_costs();
        let fleet = tile16_fleet(1);
        let cfg = ServeConfig::new(Policy::Fifo, &fleet, DispatchKind::LeastLoaded, &costs);
        let open_out = simulate_config_parallel(&open, &cfg, &EnginePlan::serial());
        let closed_out = simulate_config_parallel(&closed, &cfg, &EnginePlan::serial());
        assert!(open_out.max_in_flight() > 1);
        assert_eq!(closed_out.max_in_flight(), 1);
        assert!(
            closed_out.latency_percentile_s(99.0) < open_out.latency_percentile_s(99.0),
            "closed-loop tails exclude the queueing blow-up"
        );
    }

    #[test]
    fn autoscaler_grows_under_backlog_and_respects_the_delay() {
        // 20 requests land at t=0 on one 1 s/request shard; the controller
        // (check every 0.5 s, 1 s provisioning delay) grows the fleet.
        let stream: Vec<Request> = (0..20).map(|i| request(i, 0.0, 0)).collect();
        let policy = AutoscalePolicy {
            up_backlog_per_shard: 2.0,
            ..AutoscalePolicy::new(1, 4).with_check_interval_s(0.5).with_provision_delay_s(1.0)
        };
        let costs = unit_costs();
        let groups = tile16_fleet(1);
        let mut cfg = ServeConfig::new(Policy::Fifo, &groups, DispatchKind::LeastLoaded, &costs);
        cfg.autoscale = Some(&policy);
        let outcome = simulate_config_parallel(
            &Workload::Replay(stream.clone()),
            &cfg,
            &EnginePlan::serial(),
        );
        assert!(!outcome.scale_events.is_empty(), "the backlog must trigger scale-ups");
        for event in &outcome.scale_events {
            assert!(
                event.effect_s - event.decision_s >= 1.0 - 1e-12,
                "effects wait out the provisioning delay"
            );
            assert!(event.active_total >= 1 && event.active_total <= 4);
        }
        assert_eq!(outcome.group_stats[0].peak_active, 4, "sustained backlog reaches max");
        let fixed = sim(&stream, Policy::Fifo, 1, &costs);
        assert!(
            outcome.latency_percentile_s(99.0) < fixed.latency_percentile_s(99.0),
            "bought capacity must buy latency"
        );
        // Makespan shrank, so the autoscaled run can still cost less in
        // shard-seconds than the slow fixed run; what matters is that the
        // cost metric reflects the provisioned capacity, not the spec size.
        assert!(outcome.shard_seconds() > outcome.makespan_s, "more than one shard on average");
        assert!((fixed.shard_seconds() - fixed.makespan_s).abs() < 1e-9, "fixed fleet: 1 shard");
    }

    #[test]
    fn bounded_queues_shed_and_cap_the_backlog() {
        // Eight simultaneous arrivals against a bound of 2: the first two
        // admit, the rest shed with the sentinel latency — and the shed
        // requests never occupy the queue or a shard.
        let stream: Vec<Request> = (0..8).map(|i| request(i, 0.0, 0)).collect();
        let costs = unit_costs();
        let groups = tile16_fleet(1);
        let mut cfg = ServeConfig::new(Policy::Fifo, &groups, DispatchKind::LeastLoaded, &costs);
        cfg.queue_bound = Some(2);
        let outcome = simulate_config_parallel(
            &Workload::Replay(stream.to_vec()),
            &cfg,
            &EnginePlan::serial(),
        );
        assert_eq!(outcome.offered(), 8);
        assert_eq!(outcome.requests(), 2, "bound 2 admits exactly two simultaneous arrivals");
        assert_eq!(outcome.shed, vec![2, 3, 4, 5, 6, 7]);
        assert_eq!(outcome.shed_queue, 6);
        assert_eq!(outcome.shed_limit, 0);
        assert!((outcome.shed_rate() - 0.75).abs() < 1e-12);
        assert!(outcome.queue_depth_max <= 2, "the bound caps the backlog");
        for &id in &outcome.shed {
            assert_eq!(outcome.latencies_s[id], SHED_LATENCY_S);
        }
        // Served-only metrics ignore the sentinel.
        assert!(outcome.latency_percentile_s(99.0) <= 2.0 + 1e-12);
        assert_eq!(outcome.max_in_flight(), 2);
        let sum: u64 = outcome.shard_stats.iter().map(|s| s.requests).sum();
        assert_eq!(sum as usize + outcome.shed.len(), outcome.offered(), "exactly-once");
    }

    #[test]
    fn tenant_rate_limits_bound_admitted_throughput() {
        // One tenant limited to 1 rps (burst = 1 token): of ten arrivals
        // over 0.9 s only the first fits — the bucket refills too slowly
        // for the rest.
        let mix = TenantMix::new(vec![TenantSpec {
            name: "free".to_string(),
            weight: 1.0,
            rate_limit_rps: Some(1.0),
            slo_s: None,
        }]);
        let stream: Vec<Request> = (0..10).map(|i| request(i, 0.1 * i as f64, 0)).collect();
        let costs = unit_costs();
        let groups = tile16_fleet(4);
        let mut cfg = ServeConfig::new(Policy::Fifo, &groups, DispatchKind::LeastLoaded, &costs);
        cfg.tenants = Some(&mix);
        let outcome = simulate_config_parallel(
            &Workload::Replay(stream.to_vec()),
            &cfg,
            &EnginePlan::serial(),
        );
        assert_eq!(outcome.requests(), 1);
        assert_eq!(outcome.shed_limit, 9);
        assert_eq!(outcome.shed_queue, 0);
        assert_eq!(outcome.tenant_outcomes.len(), 1);
        assert_eq!(outcome.tenant_outcomes[0].name, "free");
        assert_eq!(outcome.tenant_outcomes[0].offered, 10);
        assert_eq!(outcome.tenant_outcomes[0].shed, 9);
        // The general bound: admitted <= burst + rate x elapsed.
        let admitted = outcome.requests() as f64;
        assert!(admitted <= 1.0 + 1.0 * 0.9 + 1e-9);
    }

    #[test]
    fn closed_loops_bypass_admission() {
        // A queue bound of zero would shed every open-loop arrival; the
        // closed loop's clients instead just wait their turn.
        let workload = Workload::Closed(ClosedLoopSpec {
            clients: 2,
            think_s: 0.0,
            duration_s: 5.0,
            mix_size: 1,
            shrinks: vec![1],
            seed: 3,
        });
        let costs = unit_costs();
        let groups = tile16_fleet(1);
        let mut cfg = ServeConfig::new(Policy::Fifo, &groups, DispatchKind::LeastLoaded, &costs);
        cfg.queue_bound = Some(0);
        let outcome = simulate_config_parallel(&workload, &cfg, &EnginePlan::serial());
        assert!(outcome.requests() > 0);
        assert!(outcome.shed.is_empty(), "closed-loop clients are never shed");
    }

    #[test]
    fn crashes_redispatch_in_flight_work_exactly_once() {
        // Two 10 s requests occupy both shards from t=0; one crash lands
        // somewhere in [0, 1) and its victim's request re-dispatches on
        // the survivor — every request still completes exactly once.
        let stream = [request(0, 0.0, 0), request(1, 0.0, 0)];
        let mut costs = unit_costs();
        let fp = costs.register(&ChipConfig::tile_16());
        costs.insert(
            &fp,
            RequestClass { dataset: 2, shrink: 1 },
            ClassCost { cycles: 10_000_000_000, flops: 100 },
        );
        let stream = [
            Request { class: RequestClass { dataset: 2, shrink: 1 }, ..stream[0] },
            Request { class: RequestClass { dataset: 2, shrink: 1 }, ..stream[1] },
        ];
        let faults = FaultSpec::new(11, 1.0).with_crashes(1);
        let groups = tile16_fleet(2);
        let mut cfg = ServeConfig::new(Policy::Fifo, &groups, DispatchKind::LeastLoaded, &costs);
        cfg.faults = Some(&faults);
        let outcome = simulate_config_parallel(
            &Workload::Replay(stream.to_vec()),
            &cfg,
            &EnginePlan::serial(),
        );
        assert_eq!(outcome.crash_events.len(), 1);
        let crash = outcome.crash_events[0];
        assert!(crash.at_s < 1.0);
        assert_eq!(crash.redispatched, 1, "the victim was mid-batch");
        assert_eq!(outcome.requests(), 2, "both requests still complete");
        assert!(outcome.shed.is_empty(), "admitted work is never shed");
        assert!(outcome.latencies_s.iter().all(|&l| l >= 0.0));
        let sum: u64 = outcome.shard_stats.iter().map(|s| s.requests).sum();
        assert_eq!(sum, 2, "the crashed dispatch was retracted from the books");
        // The redispatched request waited for the survivor: latency > 10 s.
        assert!(outcome.latencies_s.iter().any(|&l| l > 10.0));
        // Determinism: the sentinel-free outcome compares bit-for-bit.
        assert_eq!(
            outcome,
            simulate_config_parallel(
                &Workload::Replay(stream.to_vec()),
                &cfg,
                &EnginePlan::serial()
            )
        );
    }

    #[test]
    fn failed_provisioning_keeps_the_fleet_small_and_counts() {
        let stream: Vec<Request> = (0..20).map(|i| request(i, 0.0, 0)).collect();
        let policy = AutoscalePolicy {
            up_backlog_per_shard: 2.0,
            ..AutoscalePolicy::new(1, 4).with_check_interval_s(0.5).with_provision_delay_s(1.0)
        };
        let costs = unit_costs();
        let faults = FaultSpec::new(1, 1.0).with_provision_fail(1.0);
        let groups = tile16_fleet(1);
        let mut cfg = ServeConfig::new(Policy::Fifo, &groups, DispatchKind::LeastLoaded, &costs);
        cfg.autoscale = Some(&policy);
        cfg.faults = Some(&faults);
        let outcome = simulate_config_parallel(
            &Workload::Replay(stream.to_vec()),
            &cfg,
            &EnginePlan::serial(),
        );
        assert!(outcome.provision_failures > 0, "every scheduled scale-up failed");
        assert!(outcome.scale_events.is_empty(), "no change ever landed");
        assert_eq!(outcome.group_stats[0].peak_active, 1);
        assert_eq!(outcome.requests(), 20, "the lone shard still drains the backlog");
    }

    #[test]
    fn degraded_groups_serve_slower() {
        let stream = [request(0, 0.0, 0)];
        let costs = unit_costs();
        let groups = tile16_fleet(1);
        let faults = FaultSpec::new(1, 1.0).with_degraded(0, 2.0);
        let mut cfg = ServeConfig::new(Policy::Fifo, &groups, DispatchKind::LeastLoaded, &costs);
        cfg.faults = Some(&faults);
        let outcome = simulate_config_parallel(
            &Workload::Replay(stream.to_vec()),
            &cfg,
            &EnginePlan::serial(),
        );
        assert!((outcome.latencies_s[0] - 2.0).abs() < 1e-12, "2x multiplier on 1 s of service");
        let healthy = sim(&stream, Policy::Fifo, 1, &costs);
        assert!((healthy.latencies_s[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shaped_workloads_simulate_with_their_own_tenants() {
        let shaped = ShapedStream {
            base: StreamSpec {
                arrival: ArrivalProcess::Poisson,
                rps: 20.0,
                duration_s: 2.0,
                mix_size: 1,
                shrinks: vec![1],
                seed: 7,
            },
            shapes: vec![RateShape::Diurnal { cycles: 2.0, depth: 0.5 }],
            tenants: Some(TenantMix::new(vec![
                TenantSpec { name: "a".into(), weight: 1.0, rate_limit_rps: None, slo_s: None },
                TenantSpec { name: "b".into(), weight: 1.0, rate_limit_rps: None, slo_s: None },
            ])),
        };
        let workload = Workload::Shaped(shaped);
        let (groups, costs) = (tile16_fleet(8), unit_costs());
        let cfg = ServeConfig::new(Policy::Fifo, &groups, DispatchKind::LeastLoaded, &costs);
        let outcome = simulate_config_parallel(&workload, &cfg, &EnginePlan::serial());
        assert!(outcome.requests() > 0);
        assert_eq!(outcome.tenant_outcomes.len(), 2, "the stream's mix reaches the accounting");
        assert!(outcome.tenants.contains(&1), "both tenants offer traffic");
        let offered: u64 = outcome.tenant_outcomes.iter().map(|t| t.offered).sum();
        assert_eq!(offered as usize, outcome.offered());
        assert_eq!(outcome, simulate_config_parallel(&workload, &cfg, &EnginePlan::serial()));
    }

    #[test]
    fn records_carry_tails_groups_shards_and_cost() {
        let stream = [request(0, 0.0, 0), request(1, 0.1, 1)];
        let outcome = sim(&stream, Policy::Fifo, 2, &unit_costs());
        let params = vec![("policy".to_string(), "fifo".to_string())];
        let records = outcome.records("serve/demo", &params);
        assert_eq!(records.len(), 4, "one summary + one group + one record per shard");
        let summary = &records[0];
        assert_eq!(summary.id, "serve/demo/summary");
        assert!(summary.metric_value("p99_latency_ms").unwrap() > 0.0);
        assert!(summary.metric_value("throughput_rps").unwrap() > 0.0);
        assert!(summary.metric_value("shard_seconds").unwrap() > 0.0);
        assert!(summary.metric_value("max_in_flight").is_some());
        assert_eq!(summary.metric_value("offered"), Some(2.0));
        assert_eq!(summary.metric_value("shed_rate"), Some(0.0));
        assert_eq!(summary.metric_value("crashes"), Some(0.0));
        assert_eq!(summary.metric_value("provision_failures"), Some(0.0));
        assert_eq!(summary.params, params);
        assert_eq!(records[1].id, "serve/demo/group/t16");
        assert!(records[1].metric_value("utilization").is_some());
        assert!(records[1].metric_value("shard_seconds").is_some());
        assert!(records[1].metric_value("peak_active_shards").is_some());
        assert_eq!(records[2].id, "serve/demo/shard0");
        assert!(records[3].params.contains(&("shard".to_string(), "1".to_string())));
        assert!(records[3].params.contains(&("group".to_string(), "0".to_string())));
    }

    #[test]
    fn tenant_records_report_admission_and_slo_attainment() {
        let mix = TenantMix::new(vec![TenantSpec {
            name: "gold".to_string(),
            weight: 1.0,
            rate_limit_rps: None,
            slo_s: Some(1.5),
        }]);
        let stream = [request(0, 0.0, 0), request(1, 0.0, 0)];
        let costs = unit_costs();
        let groups = tile16_fleet(1);
        let mut cfg = ServeConfig::new(Policy::Fifo, &groups, DispatchKind::LeastLoaded, &costs);
        cfg.tenants = Some(&mix);
        let outcome = simulate_config_parallel(
            &Workload::Replay(stream.to_vec()),
            &cfg,
            &EnginePlan::serial(),
        );
        let records = outcome.records("serve/demo", &[]);
        let tenant = records.iter().find(|r| r.id == "serve/demo/tenant/gold").expect("present");
        assert_eq!(tenant.metric_value("offered"), Some(2.0));
        assert_eq!(tenant.metric_value("admitted"), Some(2.0));
        // Latencies are 1.0 and 2.0 against a 1.5 s SLO: 50% attainment.
        assert_eq!(tenant.metric_value("slo_attainment"), Some(0.5));
        assert!(tenant.params.contains(&("tenant".to_string(), "gold".to_string())));
    }

    /// A hand-built outcome over the given latencies (everything else
    /// zeroed), for the readers that never look past them.
    fn outcome_with(latencies_s: Vec<f64>) -> ServeOutcome {
        let n = latencies_s.len();
        let shed: Vec<usize> = (0..n).filter(|&id| latencies_s[id] == SHED_LATENCY_S).collect();
        ServeOutcome {
            latencies_s,
            arrivals_s: vec![0.0; n],
            tenants: vec![0; n],
            shed_queue: shed.len() as u64,
            shed,
            shed_limit: 0,
            tenant_outcomes: Vec::new(),
            crash_events: Vec::new(),
            provision_failures: 0,
            makespan_s: 4.0,
            queue_depth_mean: 0.0,
            queue_depth_max: 0,
            peak_in_flight: 0,
            batch_sizes: Vec::new(),
            shard_stats: vec![ShardStats::default()],
            shard_groups: vec![0],
            group_stats: Vec::new(),
            scale_events: Vec::new(),
        }
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let outcome = outcome_with(vec![4.0, 1.0, 3.0, 2.0, SHED_LATENCY_S]);
        assert_eq!(outcome.latency_percentile_s(50.0), 2.0, "the shed sentinel is excluded");
        assert_eq!(outcome.latency_percentile_s(75.0), 3.0);
        assert_eq!(outcome.latency_percentile_s(99.0), 4.0);
        assert_eq!(outcome.latency_percentile_s(100.0), 4.0);
        assert_eq!(outcome.requests(), 4);
        assert_eq!(outcome.offered(), 5);
        assert!((outcome.shed_rate() - 0.2).abs() < 1e-12);
        assert!((outcome.mean_latency_s() - 2.5).abs() < 1e-12);
    }

    /// The sort-then-rank definition the selection replaced: the
    /// nearest-rank `pct`-th percentile of the served latencies, sorted.
    fn sorted_nearest_rank(latencies: &[f64], pct: f64) -> f64 {
        let mut served: Vec<f64> =
            latencies.iter().copied().filter(|&l| l != SHED_LATENCY_S).collect();
        served.sort_unstable_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        if served.is_empty() {
            return 0.0;
        }
        let rank = (pct / 100.0 * served.len() as f64).ceil() as usize;
        served[rank.clamp(1, served.len()) - 1]
    }

    /// Latencies drawn from a small pool, so ties are common: zeros, the
    /// shed sentinel, a repeated 1 s, and a value near zero.
    const POOL: [f64; 8] = [0.0, SHED_LATENCY_S, 0.5, 1.0, 2.5, 1e-9, 3.0, 1.0];

    /// Checks every percentile an outcome over `picks` — `(pool index,
    /// tenant)` per request — reports against the sorted nearest rank, bit
    /// for bit: asked for in any order, the summary tails and each
    /// tenant's p99.
    fn assert_selection_matches_sorting(picks: &[(usize, usize)], extra: f64) {
        let latencies: Vec<f64> = picks.iter().map(|&(pick, _)| POOL[pick]).collect();
        let bits = |latencies: &[f64], pct: f64| sorted_nearest_rank(latencies, pct).to_bits();
        let mut outcome = outcome_with(latencies.clone());
        let pcts = [99.0, extra, 50.0, 95.0, 99.0, 0.5, 100.0];
        for (&pct, got) in pcts.iter().zip(outcome.latency_percentiles_s(&pcts)) {
            assert_eq!(got.to_bits(), bits(&latencies, pct), "p{pct} of {latencies:?}");
        }

        outcome.tenants = picks.iter().map(|&(_, tenant)| tenant).collect();
        let of_tenant = |tenant: usize| -> Vec<f64> {
            picks.iter().filter(|p| p.1 == tenant).map(|&(pick, _)| POOL[pick]).collect()
        };
        outcome.tenant_outcomes = (0..2)
            .map(|tenant| {
                let own = of_tenant(tenant);
                TenantOutcome {
                    name: format!("t{tenant}"),
                    slo_s: Some(1.0),
                    offered: own.len() as u64,
                    shed: own.iter().filter(|&&l| l == SHED_LATENCY_S).count() as u64,
                }
            })
            .collect();
        let records = outcome.records("serve/demo", &[]);
        let tails = [("p50_latency_ms", 50.0), ("p95_latency_ms", 95.0), ("p99_latency_ms", 99.0)];
        for (metric, pct) in tails {
            let got = records[0].metric_value(metric).expect("summary tail");
            let expected = sorted_nearest_rank(&latencies, pct) * 1e3;
            assert_eq!(got.to_bits(), expected.to_bits(), "{metric} of {latencies:?}");
        }
        for tenant in 0..2 {
            let got = records[1 + tenant].metric_value("p99_latency_ms").expect("tenant p99");
            let expected = sorted_nearest_rank(&of_tenant(tenant), 99.0) * 1e3;
            assert_eq!(got.to_bits(), expected.to_bits(), "tenant {tenant} of {picks:?}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Selection equals sorting on every population, its one-element
        /// prefix and the empty one.
        #[test]
        fn selected_percentiles_equal_the_sorted_nearest_rank(
            picks in proptest::collection::vec((0usize..POOL.len(), 0usize..2), 0..48),
            extra in 1usize..=100,
        ) {
            for len in [0, picks.len().min(1), picks.len()] {
                assert_selection_matches_sorting(&picks[..len], extra as f64);
            }
        }
    }

    /// A latency that is neither served nor the shed sentinel is a
    /// simulation bug: every served-only reader trips the same assertion
    /// instead of some of them silently dropping the request.
    #[test]
    #[cfg(debug_assertions)]
    fn an_impossible_latency_trips_every_served_only_reader() {
        let outcome = outcome_with(vec![1.0, -2.0, SHED_LATENCY_S]);
        type Reader = fn(&ServeOutcome);
        let readers: [(&str, Reader); 4] = [
            ("requests", |o| _ = o.requests()),
            ("mean_latency_s", |o| _ = o.mean_latency_s()),
            ("latency_percentile_s", |o| _ = o.latency_percentile_s(99.0)),
            ("records", |o| _ = o.records("serve/demo", &[])),
        ];
        for (name, read) in readers {
            let panic = std::panic::catch_unwind(|| read(&outcome)).expect_err(name);
            let message = panic.downcast_ref::<String>().expect("a formatted assertion message");
            assert!(message.contains("neither served nor the shed sentinel"), "{name}: {message}");
        }
    }
}
