//! The serving engine: the event loop, its two replay entry points and
//! the parallel-in-time plans.
//!
//! [`simulate_config_parallel`] and [`simulate_config_traced_parallel`]
//! are the whole replay API: a [`Workload`], a [`ServeConfig`] and an
//! [`EnginePlan`] in, a [`ServeOutcome`] (and a [`Trace`]) out.
//!
//! The event loop is a resumable fragment runner: `run_until` advances
//! the engine state up to (but excluding) a time limit and can be called
//! again to continue — the seam between two calls carries the backlog,
//! the in-flight batches, the fault plan, the pending provisioning ops
//! and the closed-loop client RNGs, so splitting a replay at any set of
//! boundaries reproduces the serial event sequence exactly.
//!
//! On top of the fragment runner, an [`EnginePlan`] chooses how a
//! scenario parallelises:
//!
//! - **Epochs** partition the simulated timeline at fixed boundaries.
//!   A first (cheap, output-free) pass computes the seam state at every
//!   boundary; a second pass replays all fragments concurrently on the
//!   `neura_lab` work-stealing runner, each recording its slice of the
//!   output, and the slices concatenate in epoch order. Because a pause
//!   happens *before* the time-advance accrual, a span that crosses a
//!   boundary is still accrued in one `f64` operation by the next
//!   fragment — so the merged artifact is byte-identical to the serial
//!   engine for every epoch count and every thread count (serial = one
//!   epoch).
//! - **Lanes** partition a closed-loop scenario *itself*: clients and
//!   shard groups split round-robin into independent sub-scenarios that
//!   replay concurrently and merge deterministically (arrivals by
//!   `(time, lane, id)`, shard slots re-laid group-major, per-group
//!   counters summed in lane order). A lane count is part of the
//!   scenario definition — `lanes = 4` is a *different scenario* than
//!   `lanes = 1`, with identical results for every thread count — and is
//!   what buys near-linear speedup on long closed-loop replays.

use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

use neura_lab::Runner;

use crate::arrivals::{ClosedLoopClients, ClosedLoopSpec, Request, Workload};
use crate::autoscale::{Decision, ScaleEvent};
use crate::cost::{FleetCosts, RequestClass};
use crate::fault::{CrashEvent, FaultPlan};
use crate::fleet::{lane_groups, lane_share, GroupStats, ShardFleet, ShardGroup, ShardStats};
use crate::policy::Policy;
use crate::scenario::{TenantMix, TENANT_BURST_S};
use crate::sim::{ServeConfig, ServeOutcome, TenantOutcome, SHED_LATENCY_S};
use crate::telemetry::{ShedReason, Trace, TraceEvent, TraceGroup, TraceTenant};

/// Upper bound on the number of epoch fragments a plan expands to, so a
/// huge `--epochs` cannot allocate an absurd seam vector: larger counts
/// are clamped to it.
pub const MAX_EPOCHS: usize = 1024;

/// How a scenario replay is decomposed for parallel execution.
///
/// The default ([`EnginePlan::serial`]) runs the classic single-fragment
/// event loop. An epoch count splits the timeline; a lane count splits a
/// closed-loop scenario into independent sub-scenarios (see the module
/// docs for the determinism contract of each axis).
#[derive(Debug, Clone, PartialEq)]
pub struct EnginePlan {
    /// Number of equal-width timeline epochs over the workload horizon
    /// (`1` = serial).
    pub epochs: usize,
    /// Closed-loop lane count (`1` = undecomposed). Lanes apply only to
    /// closed-loop workloads without autoscaling, admission control,
    /// tenants, or effectful faults; ineligible scenarios fall back to
    /// the epoch/serial path.
    pub lanes: usize,
    /// Worker threads for the fragment fan-out; `None` reads
    /// `NEURA_LAB_THREADS` (the `neura_lab::Runner` default).
    pub threads: Option<usize>,
}

impl Default for EnginePlan {
    fn default() -> Self {
        EnginePlan::serial()
    }
}

impl EnginePlan {
    /// The serial plan: one epoch, one lane, runner-default threads.
    pub fn serial() -> Self {
        EnginePlan { epochs: 1, lanes: 1, threads: None }
    }

    /// Sets the epoch count (builder style).
    ///
    /// # Panics
    ///
    /// Panics when `epochs == 0`.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        assert!(epochs >= 1, "an engine plan needs at least one epoch");
        self.epochs = epochs;
        self
    }

    /// Sets the closed-loop lane count (builder style).
    ///
    /// # Panics
    ///
    /// Panics when `lanes == 0`.
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        assert!(lanes >= 1, "an engine plan needs at least one lane");
        self.lanes = lanes;
        self
    }

    /// Pins the worker thread count (builder style), overriding the
    /// `NEURA_LAB_THREADS` environment default.
    ///
    /// # Panics
    ///
    /// Panics when `threads == 0`.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "an engine plan needs at least one thread");
        self.threads = Some(threads);
        self
    }

    /// Whether this plan decomposes nothing (single epoch, single lane).
    pub fn is_serial(&self) -> bool {
        self.epochs <= 1 && self.lanes <= 1
    }

    fn runner(&self) -> Runner {
        match self.threads {
            Some(threads) => Runner::new(threads),
            None => Runner::from_env(),
        }
    }

    /// The epoch boundaries (exclusive fragment limits) over `horizon`
    /// simulated seconds — strictly increasing, all within `(0, horizon)`.
    /// Empty for a serial plan or a degenerate horizon.
    fn boundaries(&self, horizon: f64) -> Vec<f64> {
        if !horizon.is_finite() || horizon <= 0.0 {
            return Vec::new();
        }
        let epochs = self.epochs.min(MAX_EPOCHS);
        let mut cuts: Vec<f64> = (1..epochs).map(|k| horizon * k as f64 / epochs as f64).collect();
        cuts.dedup();
        cuts
    }
}

/// Total-order wrapper over a finite `f64` event time, so closed-loop
/// issue times can live in a [`BinaryHeap`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct TimeKey(f64);

impl Eq for TimeKey {}

impl PartialOrd for TimeKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimeKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).expect("issue times are finite")
    }
}

/// Min-heap of `(issue time, client)` pairs: pops in ascending
/// `(time, client)` order, the exact order the serial engine's linear
/// scan selected due clients in.
type IssueQueue = BinaryHeap<Reverse<(TimeKey, usize)>>;

fn issue_queue(first: Vec<(f64, usize)>) -> IssueQueue {
    first.into_iter().map(|(at, client)| Reverse((TimeKey(at), client))).collect()
}

/// The central backlog, shaped by the policy. Every operation costs
/// O(log n) or better in the queue depth, so a replay that lets the
/// backlog grow (a flash crowd, an overload) pays per request, not per
/// request × depth.
#[derive(Debug, Clone)]
enum Backlog {
    /// FIFO: one queue in arrival order.
    Fifo(VecDeque<usize>),
    /// SJF: a min-heap on `(weight(class), id)`, the weight looked up once
    /// at insertion. Smallest estimated work first, ties to the earlier
    /// arrival (ids are issued in arrival order). The selection depends
    /// only on the *set* of queued requests, never on queue position, so
    /// re-queueing a held or crashed unit is a plain insertion.
    Sjf(BinaryHeap<Reverse<(u64, usize)>>),
    /// Batching: one arrival-ordered queue per request class, plus their
    /// summed length (read several times per event).
    Classed { queues: BTreeMap<RequestClass, VecDeque<usize>>, len: usize },
}

impl Backlog {
    fn new(policy: Policy) -> Self {
        match policy {
            Policy::Fifo => Backlog::Fifo(VecDeque::new()),
            Policy::Sjf => Backlog::Sjf(BinaryHeap::new()),
            Policy::BatchByDataset { .. } => Backlog::Classed { queues: BTreeMap::new(), len: 0 },
        }
    }

    fn push(&mut self, id: usize, class: RequestClass, costs: &FleetCosts<'_>) {
        match self {
            Backlog::Fifo(queue) => queue.push_back(id),
            Backlog::Sjf(heap) => heap.push(Reverse((costs.weight(class), id))),
            Backlog::Classed { queues, len } => {
                queues.entry(class).or_default().push_back(id);
                *len += 1;
            }
        }
    }

    /// Returns a unit taken by [`Self::take_ready`] to the head of its
    /// queue, preserving order — used when the dispatch policy holds the
    /// unit for busy preferred silicon, and when a crash returns a
    /// victim's in-flight batch for re-dispatch.
    fn push_front(&mut self, unit: &[usize], class: RequestClass, costs: &FleetCosts<'_>) {
        match self {
            Backlog::Fifo(queue) => {
                for &id in unit.iter().rev() {
                    queue.push_front(id);
                }
            }
            Backlog::Sjf(heap) => {
                let weight = costs.weight(class);
                heap.extend(unit.iter().map(|&id| Reverse((weight, id))));
            }
            Backlog::Classed { queues, len } => {
                let queue = queues.entry(class).or_default();
                for &id in unit.iter().rev() {
                    queue.push_front(id);
                }
                *len += unit.len();
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            Backlog::Fifo(queue) => queue.len(),
            Backlog::Sjf(heap) => heap.len(),
            Backlog::Classed { len, .. } => *len,
        }
    }

    /// The earliest future time at which a currently-unready unit becomes
    /// ready by timeout (batching policy only).
    fn next_deadline(&self, now: f64, policy: Policy, requests: &[Request]) -> Option<f64> {
        let (Backlog::Classed { queues, .. }, Policy::BatchByDataset { max_batch, timeout_s }) =
            (self, policy)
        else {
            return None;
        };
        queues
            .values()
            .filter(|q| !class_ready(q, requests, max_batch, timeout_s, now))
            .filter_map(|q| q.front().map(|&id| requests[id].arrival_s + timeout_s))
            .fold(None, |best, t| Some(best.map_or(t, |b: f64| b.min(t))))
    }

    /// Moves the next ready dispatch unit at `now` into `unit` (cleared
    /// first — the caller recycles one buffer across dispatches); `false`
    /// when nothing is ready.
    fn take_ready(
        &mut self,
        now: f64,
        policy: Policy,
        requests: &[Request],
        unit: &mut Vec<usize>,
    ) -> bool {
        unit.clear();
        match (self, policy) {
            (Backlog::Fifo(queue), Policy::Fifo) => unit.extend(queue.pop_front()),
            (Backlog::Sjf(heap), Policy::Sjf) => {
                unit.extend(heap.pop().map(|Reverse((_, id))| id));
            }
            (Backlog::Classed { queues, len }, Policy::BatchByDataset { max_batch, timeout_s }) => {
                // Among ready classes, serve the one whose head request has
                // waited longest (ties broken by class order — the BTreeMap
                // key order — so selection is deterministic).
                let ready = queues
                    .iter()
                    .filter(|(_, q)| class_ready(q, requests, max_batch, timeout_s, now))
                    .min_by(|(ca, qa), (cb, qb)| {
                        let (ha, hb) = (head_arrival(qa, requests), head_arrival(qb, requests));
                        ha.partial_cmp(&hb).expect("arrival times are finite").then(ca.cmp(cb))
                    })
                    .map(|(class, _)| *class);
                if let Some(class) = ready {
                    let queue = queues.get_mut(&class).expect("selected class is present");
                    let take = queue.len().min(max_batch);
                    unit.extend(queue.drain(..take));
                    *len -= take;
                    if queue.is_empty() {
                        queues.remove(&class);
                    }
                }
            }
            _ => unreachable!("backlog shape always matches the policy"),
        }
        !unit.is_empty()
    }
}

fn head_arrival(queue: &VecDeque<usize>, requests: &[Request]) -> f64 {
    queue.front().map(|&id| requests[id].arrival_s).unwrap_or(f64::INFINITY)
}

fn class_ready(
    queue: &VecDeque<usize>,
    requests: &[Request],
    max_batch: usize,
    timeout_s: f64,
    now: f64,
) -> bool {
    queue.len() >= max_batch || head_arrival(queue, requests) + timeout_s <= now
}

/// Where the next request comes from, and every request that has arrived
/// so far: a cursor into a pre-materialised open-loop stream (the stream
/// itself lives in [`Ctx`] and the arrived requests are its prefix, so a
/// seam clone copies one integer) or a closed-loop client population
/// driven by completions, which owns the requests it has issued.
#[derive(Debug, Clone)]
enum SourceState {
    Open {
        cursor: usize,
    },
    Closed {
        clients: ClosedLoopClients,
        pending: IssueQueue,
        /// Every request issued so far, id-ordered.
        issued: Vec<Request>,
        /// The client that issued each request, id-ordered.
        owners: Vec<usize>,
    },
}

impl SourceState {
    fn closed(clients: ClosedLoopClients, first: Vec<(f64, usize)>) -> Self {
        SourceState::Closed {
            clients,
            pending: issue_queue(first),
            issued: Vec::new(),
            owners: Vec::new(),
        }
    }

    /// Every request that has arrived so far, indexed by id.
    fn arrived<'s>(&'s self, stream: &'s [Request]) -> &'s [Request] {
        match self {
            SourceState::Open { cursor } => &stream[..*cursor],
            SourceState::Closed { issued, .. } => issued,
        }
    }

    /// The next arrival time, if any request is still due.
    fn next_time(&self, stream: &[Request]) -> Option<f64> {
        match self {
            SourceState::Open { cursor } => stream.get(*cursor).map(|r| r.arrival_s),
            SourceState::Closed { pending, .. } => pending.peek().map(|Reverse((t, _))| t.0),
        }
    }

    /// Lets every request due at or before `now` arrive: they extend
    /// [`Self::arrived`].
    fn pop_due(&mut self, now: f64, stream: &[Request]) {
        match self {
            SourceState::Open { cursor } => {
                while let Some(request) = stream.get(*cursor) {
                    if request.arrival_s > now {
                        break;
                    }
                    debug_assert_eq!(request.id, *cursor, "open streams arrive in id order");
                    *cursor += 1;
                }
            }
            SourceState::Closed { clients, pending, issued, owners } => {
                // The heap pops due clients in (time, client) order, so
                // ids are deterministic even when issue times tie.
                while let Some(&Reverse((t, client))) = pending.peek() {
                    if t.0 > now {
                        break;
                    }
                    pending.pop();
                    let class = clients.draw_class(client);
                    issued.push(Request { id: issued.len(), arrival_s: t.0, class, tenant: 0 });
                    owners.push(client);
                }
            }
        }
    }

    /// Tells the source a request completed (closed loops schedule the
    /// owning client's next request; open streams don't care).
    fn on_complete(&mut self, id: usize, finish: f64) {
        if let SourceState::Closed { clients, pending, owners, .. } = self {
            let client = owners[id];
            if let Some(at) = clients.next_issue_at(client, finish) {
                pending.push(Reverse((TimeKey(at), client)));
            }
        }
    }
}

/// A scheduled fleet-size change waiting for its provisioning delay.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PendingOp {
    effect_s: f64,
    decision_s: f64,
    group: usize,
    delta: i64,
}

/// One tenant's admission token bucket: `rate` tokens per second up to a
/// `burst` ceiling of [`TENANT_BURST_S`] seconds' worth (at least 1);
/// admitting a request costs one token. Starts full, so a tenant may
/// admit at most `burst + rate × t` requests by time `t`.
#[derive(Debug, Clone, Copy)]
struct TenantGate {
    rate: f64,
    burst: f64,
    tokens: f64,
    last_s: f64,
}

impl TenantGate {
    fn new(rate: f64) -> Self {
        let burst = (rate * TENANT_BURST_S).max(1.0);
        TenantGate { rate, burst, tokens: burst, last_s: 0.0 }
    }

    fn admit(&mut self, now: f64) -> bool {
        self.tokens = (self.tokens + (now - self.last_s) * self.rate).min(self.burst);
        self.last_s = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// The immutable (fragment-shared) side of one scenario replay.
struct Ctx<'a> {
    cfg: &'a ServeConfig<'a>,
    tenants: Option<&'a TenantMix>,
    /// The open-loop stream (empty for closed loops), referenced by the
    /// cursor in [`SourceState::Open`].
    stream: &'a [Request],
    /// The cost table resolved against `cfg.groups`, once per replay.
    costs: FleetCosts<'a>,
    /// Admission control sheds open-loop arrivals only: closed-loop
    /// clients self-limit (they wait for their response instead of being
    /// dropped), and shedding their zero-think re-issues would spin the
    /// clock.
    admission: bool,
}

/// Everything one fragment hands the next: the complete dynamic state of
/// the event loop at a pause point. Cloning an `EngineState` at an epoch
/// boundary is the seam — queue handoff, in-flight carry-over, fault
/// plan, pending provisioning ops, autoscaler clock, and the closed-loop
/// RNG streams all travel with it. Its size follows what is *pending* at
/// the pause (backlog, in-flight batches, closed-loop clients), not what
/// has already happened: the arrived requests of an open loop are a
/// prefix of [`Ctx::stream`], named by the source's cursor.
#[derive(Debug, Clone)]
struct EngineState {
    now: f64,
    fleet: ShardFleet,
    plan: Option<FaultPlan>,
    backlog: Backlog,
    source: SourceState,
    /// The batch each shard slot is serving (empty = none). A slot's
    /// vector is recycled from batch to batch.
    in_flight: Vec<Vec<usize>>,
    gates: Vec<Option<TenantGate>>,
    tenant_offered: Vec<u64>,
    tenant_shed: Vec<u64>,
    shed_queue: u64,
    shed_limit: u64,
    provision_failures: u64,
    pending_ops: Vec<PendingOp>,
    next_check: Option<f64>,
    makespan: f64,
    depth_integral: f64,
    depth_max: usize,
}

/// One fragment's recorded slice of the outputs: everything the serial
/// loop appended to as it ran. Fragments only *append* — outputs never
/// feed back into the dynamics — so slices concatenate in epoch order
/// into exactly the serial vectors.
#[derive(Debug, Default)]
struct FragmentOut {
    /// `(id, latency)` of every request resolved in this fragment —
    /// served at completion, or shed (the [`SHED_LATENCY_S`] sentinel)
    /// at admission.
    latencies: Vec<(usize, f64)>,
    /// Ids shed in this fragment, in event order.
    shed: Vec<usize>,
    /// `(finish, size)` of every batch completed in this fragment.
    batch_sizes: Vec<(f64, usize)>,
    crash_events: Vec<CrashEvent>,
    scale_events: Vec<ScaleEvent>,
    /// Lifecycle events (`Some` only when tracing).
    events: Option<Vec<TraceEvent>>,
}

impl FragmentOut {
    fn new(tracing: bool) -> Self {
        FragmentOut { events: tracing.then(Vec::new), ..Default::default() }
    }
}

fn trace_buf<'b>(out: &'b mut Option<&mut FragmentOut>) -> Option<&'b mut Vec<TraceEvent>> {
    out.as_deref_mut().and_then(|o| o.events.as_mut())
}

/// The event-loop state at `t = 0`, mirroring the serial prelude.
///
/// # Panics
///
/// Panics when the fleet is empty or an autoscaled group starts outside
/// the policy bounds.
fn initial_state(
    cfg: &ServeConfig<'_>,
    tenants: Option<&TenantMix>,
    source: SourceState,
) -> EngineState {
    let capacities: Option<Vec<usize>> = cfg.autoscale.map(|p| {
        cfg.groups
            .iter()
            .map(|g| {
                assert!(
                    (p.min_shards..=p.max_shards).contains(&g.shards),
                    "autoscaled group {:?} starts with {} shards, outside [{}, {}]",
                    g.name,
                    g.shards,
                    p.min_shards,
                    p.max_shards
                );
                p.max_shards
            })
            .collect()
    });
    let fleet = ShardFleet::new(cfg.groups, capacities.as_deref());
    let plan = cfg.faults.map(|f| f.plan(fleet.group_count()));
    let gates: Vec<Option<TenantGate>> = tenants.map_or_else(Vec::new, |mix| {
        mix.tenants().iter().map(|t| t.rate_limit_rps.map(TenantGate::new)).collect()
    });
    let in_flight = vec![Vec::new(); fleet.capacity()];
    let tenant_count = gates.len();
    EngineState {
        now: 0.0,
        backlog: Backlog::new(cfg.policy),
        next_check: cfg.autoscale.map(|p| p.check_interval_s),
        fleet,
        plan,
        source,
        in_flight,
        gates,
        tenant_offered: vec![0; tenant_count],
        tenant_shed: vec![0; tenant_count],
        shed_queue: 0,
        shed_limit: 0,
        provision_failures: 0,
        pending_ops: Vec::new(),
        makespan: 0.0,
        depth_integral: 0.0,
        depth_max: 0,
    }
}

/// Advances the event loop until the next event would land at or after
/// `limit`, or until no further event exists. Returns `true` when the
/// replay drained (no event at any time — the terminal state), `false`
/// when it paused at the limit.
///
/// The pause happens *before* the time-advance accrual, so the span that
/// crosses the boundary is accrued in a single `f64` operation by the
/// next fragment, and an event exactly on a boundary belongs to the next
/// fragment (fragments cover half-open windows `[start, limit)`). On
/// drain the terminal capacity accrual runs (provisioned capacity is
/// paid for until the last batch completes) and `now` advances to the
/// makespan, so re-entering a drained state is a no-op rather than a
/// second accrual.
///
/// With `out = None` only the state advances (the cheap seam-finding
/// pass); with `Some`, resolved latencies, batch completions,
/// crash/scale events and (when enabled) lifecycle trace events are
/// recorded in event order.
fn run_until(
    ctx: &Ctx<'_>,
    st: &mut EngineState,
    limit: f64,
    mut out: Option<&mut FragmentOut>,
) -> bool {
    let cfg = ctx.cfg;
    let policy = cfg.policy;
    let costs = &ctx.costs;
    let dispatcher = cfg.dispatch.policy();
    // The candidate shards and the unit on offer, reused by every dispatch
    // of this fragment.
    let mut idle = Vec::new();
    let mut unit = Vec::new();

    loop {
        // Dispatch every unit that is ready while an idle shard exists; the
        // dispatch policy picks *which* idle shard serves each unit, or
        // holds it (returning the unit to the queue head) to wait for busy
        // preferred silicon — in which case the next release is the event
        // that re-offers it. Latencies finalise at *completion*, not here:
        // a crash may still retract the batch. Re-running this loop when a
        // fragment resumes is a state-preserving no-op: everything
        // dispatchable at the pause instant was already dispatched (or
        // held, and the hold re-selects the same unit and restores it).
        loop {
            st.fleet.idle_shards(st.now, &mut idle);
            if idle.is_empty() {
                break;
            }
            let arrived = st.source.arrived(ctx.stream);
            if !st.backlog.take_ready(st.now, policy, arrived, &mut unit) {
                break;
            }
            let class = arrived[unit[0]].class;
            let Some(shard) = dispatcher.choose(&st.fleet, &idle, class, unit.len(), st.now, costs)
            else {
                debug_assert!(
                    st.fleet.next_busy_free_at(st.now).is_finite(),
                    "a policy may only hold a batch while some shard is busy"
                );
                st.backlog.push_front(&unit, class, costs);
                break;
            };
            let group = st.fleet.group_of(shard);
            let healthy = costs.service_seconds(group, class, unit.len());
            let degraded = st.plan.as_ref().map_or(1.0, |p| p.multiplier(group));
            let service_s = healthy * degraded;
            st.fleet.dispatch(shard, st.now, service_s, unit.len() as u64);
            if let Some(events) = trace_buf(&mut out) {
                events.push(TraceEvent::Dispatch {
                    at_s: st.now,
                    shard,
                    group,
                    requests: unit.len(),
                    service_s,
                });
            }
            // The slot's previous batch completed and left its (empty)
            // vector behind: that becomes the next unit buffer.
            debug_assert!(st.in_flight[shard].is_empty(), "an idle shard serves no batch");
            std::mem::swap(&mut st.in_flight[shard], &mut unit);
        }

        // The next event: an arrival, a batch completing, a batch timeout
        // expiring, an injected crash, a scheduled fleet change taking
        // effect, or an autoscaler check (crashes and checks only while
        // work remains — otherwise they could tick forever). After the
        // dispatch loop each of these lies in the future, and every
        // finite-time source below is consumed when due, so the loop
        // always makes progress.
        let next_arrival = st.source.next_time(ctx.stream);
        let work_remains = next_arrival.is_some()
            || st.backlog.len() > 0
            || !st.pending_ops.is_empty()
            || st.in_flight.iter().any(|batch| !batch.is_empty());
        let mut t_next = next_arrival.unwrap_or(f64::INFINITY);
        for (slot, batch) in st.in_flight.iter().enumerate() {
            if !batch.is_empty() {
                t_next = t_next.min(st.fleet.busy_until(slot));
            }
        }
        let arrived = st.source.arrived(ctx.stream);
        if let Some(deadline) = st.backlog.next_deadline(st.now, policy, arrived) {
            t_next = t_next.min(deadline);
        }
        for op in &st.pending_ops {
            t_next = t_next.min(op.effect_s);
        }
        if work_remains {
            if let Some(at) = st.plan.as_ref().and_then(FaultPlan::next_crash_at) {
                t_next = t_next.min(at);
            }
            if let Some(check) = st.next_check {
                t_next = t_next.min(check);
            }
        }
        if !t_next.is_finite() {
            // Drained. Provisioned capacity is paid for until the last
            // batch completes; advancing `now` to the makespan makes the
            // terminal accrual idempotent across later fragments.
            if st.makespan > st.now {
                st.fleet.accrue(st.makespan - st.now);
                st.now = st.makespan;
            }
            return true;
        }
        if t_next >= limit {
            return false;
        }
        st.fleet.accrue(t_next - st.now);
        st.depth_integral += st.backlog.len() as f64 * (t_next - st.now);
        st.now = t_next;

        // 1. Completions due at `now` finalise, in slot order: the batch
        //    really finished, so its latencies are now facts no crash can
        //    retract.
        for (slot, batch) in st.in_flight.iter_mut().enumerate() {
            if !batch.is_empty() && st.fleet.busy_until(slot) <= st.now {
                let finish = st.fleet.busy_until(slot);
                for &id in batch.iter() {
                    let request = st.source.arrived(ctx.stream)[id];
                    let latency = finish - request.arrival_s;
                    st.source.on_complete(id, finish);
                    if let Some(o) = out.as_deref_mut() {
                        o.latencies.push((id, latency));
                        if let Some(events) = o.events.as_mut() {
                            events.push(TraceEvent::Complete {
                                at_s: finish,
                                id,
                                tenant: request.tenant,
                                latency_s: latency,
                            });
                        }
                    }
                }
                st.makespan = st.makespan.max(finish);
                if let Some(o) = out.as_deref_mut() {
                    o.batch_sizes.push((finish, batch.len()));
                }
                batch.clear();
            }
        }

        // 2. Arrivals due at `now` pass admission into the backlog (after
        //    completions, so a zero-think closed-loop re-issue lands in
        //    the same event). An arrival sheds when the backlog is at its
        //    bound, or when its tenant's token bucket is empty.
        let first_new = st.source.arrived(ctx.stream).len();
        st.source.pop_due(st.now, ctx.stream);
        for id in first_new..st.source.arrived(ctx.stream).len() {
            let Request { class, tenant, .. } = st.source.arrived(ctx.stream)[id];
            if let Some(count) = st.tenant_offered.get_mut(tenant) {
                *count += 1;
            }
            if let Some(events) = trace_buf(&mut out) {
                events.push(TraceEvent::Arrival { at_s: st.now, id, tenant });
            }
            let mut reason = ShedReason::QueueFull;
            let admit = if !ctx.admission {
                true
            } else if cfg.queue_bound.is_some_and(|bound| st.backlog.len() >= bound) {
                st.shed_queue += 1;
                false
            } else if let Some(gate) = st.gates.get_mut(tenant).and_then(Option::as_mut) {
                let pass = gate.admit(st.now);
                if !pass {
                    st.shed_limit += 1;
                    reason = ShedReason::RateLimited;
                }
                pass
            } else {
                true
            };
            if admit {
                st.backlog.push(id, class, costs);
                if let Some(events) = trace_buf(&mut out) {
                    events.push(TraceEvent::Admit { at_s: st.now, id });
                }
            } else {
                if let Some(count) = st.tenant_shed.get_mut(tenant) {
                    *count += 1;
                }
                if let Some(o) = out.as_deref_mut() {
                    o.latencies.push((id, SHED_LATENCY_S));
                    o.shed.push(id);
                    if let Some(events) = o.events.as_mut() {
                        events.push(TraceEvent::Shed { at_s: st.now, id, tenant, reason });
                    }
                }
                st.source.on_complete(id, st.now);
            }
        }
        st.depth_max = st.depth_max.max(st.backlog.len());

        // 3. Injected crashes due at `now`: the victim is the busiest
        //    active shard of the scheduled group (ties to the lowest
        //    slot), its in-flight batch returns to the queue head —
        //    re-queued work bypasses admission; admitted work is never
        //    shed — and the slot deactivates. A crash that would empty
        //    the fleet, or lands in a group with no active shard, is
        //    skipped: the simulation models degraded service, not total
        //    outage.
        if let Some(plan) = st.plan.as_mut() {
            while let Some((at, group)) = plan.pop_crash_due(st.now) {
                debug_assert!(at <= st.now, "crashes pop when due");
                if st.fleet.active_shards() <= 1 {
                    continue;
                }
                let victim = (0..st.fleet.capacity())
                    .filter(|&s| st.fleet.group_of(s) == group && st.fleet.is_active(s))
                    .max_by(|&a, &b| {
                        st.fleet
                            .busy_until(a)
                            .partial_cmp(&st.fleet.busy_until(b))
                            .expect("busy horizons are finite")
                            .then(b.cmp(&a))
                    });
                let Some(victim) = victim else { continue };
                let batch = &mut st.in_flight[victim];
                let redispatched = batch.len();
                let lost_service_s = if redispatched > 0 {
                    (st.fleet.busy_until(victim) - st.now).max(0.0)
                } else {
                    0.0
                };
                if redispatched > 0 {
                    let class = st.source.arrived(ctx.stream)[batch[0]].class;
                    st.backlog.push_front(batch, class, costs);
                    batch.clear();
                }
                st.fleet.crash(victim, st.now, redispatched as u64);
                if let Some(o) = out.as_deref_mut() {
                    o.crash_events.push(CrashEvent {
                        at_s: st.now,
                        shard: victim,
                        group,
                        redispatched,
                    });
                    if let Some(events) = o.events.as_mut() {
                        events.push(TraceEvent::Crash {
                            at_s: st.now,
                            shard: victim,
                            group,
                            redispatched,
                            lost_service_s,
                        });
                    }
                }
                st.depth_max = st.depth_max.max(st.backlog.len());
            }
        }

        // 4. Provisioning effects due at `now` apply, in (effect,
        //    decision, group, delta) order. A scale-up rolls the fault
        //    plan's provisioning die first — a failed roll leaves the
        //    slot inactive and counts a provisioning failure. Scale-downs
        //    go through the policy's shared retire path, which re-checks
        //    the per-group floor and idleness at effect time.
        while let Some(pos) = st
            .pending_ops
            .iter()
            .enumerate()
            .filter(|(_, op)| op.effect_s <= st.now)
            .min_by(|(_, a), (_, b)| {
                a.effect_s
                    .partial_cmp(&b.effect_s)
                    .expect("effect times are finite")
                    .then(a.decision_s.partial_cmp(&b.decision_s).expect("finite"))
                    .then(a.group.cmp(&b.group))
                    .then(a.delta.cmp(&b.delta))
            })
            .map(|(pos, _)| pos)
        {
            let op = st.pending_ops.remove(pos);
            let applied = if op.delta > 0 {
                if st.plan.as_mut().is_none_or(FaultPlan::provision_succeeds) {
                    st.fleet.activate(op.group, st.now).is_some()
                } else {
                    st.provision_failures += 1;
                    if let Some(events) = trace_buf(&mut out) {
                        events.push(TraceEvent::ProvisionFailure { at_s: st.now, group: op.group });
                    }
                    false
                }
            } else {
                cfg.autoscale
                    .expect("pending ops only exist under an autoscaler")
                    .retire_idle(&mut st.fleet, op.group, st.now)
                    .is_some()
            };
            if applied {
                if let Some(o) = out.as_deref_mut() {
                    o.scale_events.push(ScaleEvent {
                        decision_s: op.decision_s,
                        effect_s: st.now,
                        group: op.group,
                        delta: op.delta,
                        active_total: st.fleet.active_shards(),
                    });
                    if let Some(events) = o.events.as_mut() {
                        events.push(TraceEvent::Scale {
                            at_s: st.now,
                            group: op.group,
                            delta: op.delta,
                            active_total: st.fleet.active_shards(),
                        });
                    }
                }
            }
        }

        // 5. The autoscaler's periodic decision.
        if let (Some(policy_as), Some(check)) = (cfg.autoscale, st.next_check) {
            if check <= st.now {
                let mut pending = vec![0i64; st.fleet.group_count()];
                for op in &st.pending_ops {
                    pending[op.group] += op.delta;
                }
                match policy_as.decide(&st.fleet, st.backlog.len(), st.now, &pending) {
                    Decision::Hold => {}
                    Decision::Up { group } => st.pending_ops.push(PendingOp {
                        effect_s: st.now + policy_as.provision_delay_s,
                        decision_s: st.now,
                        group,
                        delta: 1,
                    }),
                    Decision::Down { group } => st.pending_ops.push(PendingOp {
                        effect_s: st.now + policy_as.provision_delay_s,
                        decision_s: st.now,
                        group,
                        delta: -1,
                    }),
                }
                st.next_check = Some(check + policy_as.check_interval_s);
            }
        }
    }
}

/// Builds the final [`ServeOutcome`] (and trace) from a terminal state
/// and the merged fragment outputs.
fn assemble(ctx: &Ctx<'_>, st: EngineState, out: FragmentOut) -> (ServeOutcome, Option<Trace>) {
    let (cfg, tenants) = (ctx.cfg, ctx.tenants);
    let arrived = st.source.arrived(ctx.stream);
    let mut latencies = vec![f64::NAN; arrived.len()];
    for &(id, latency) in &out.latencies {
        debug_assert!(latencies[id].is_nan(), "request {id} resolved twice");
        latencies[id] = latency;
    }
    debug_assert!(
        latencies.iter().all(|&l| l >= 0.0 || l == SHED_LATENCY_S),
        "every request is served or shed, exactly once"
    );
    let tenant_outcomes = tenants.map_or_else(Vec::new, |mix| {
        mix.tenants()
            .iter()
            .enumerate()
            .map(|(i, t)| TenantOutcome {
                name: t.name.clone(),
                slo_s: t.slo_s,
                offered: st.tenant_offered[i],
                shed: st.tenant_shed[i],
            })
            .collect()
    });
    let trace = out.events.map(|events| Trace {
        groups: cfg
            .groups
            .iter()
            .map(|g| TraceGroup { name: g.name.clone(), initial_shards: g.shards })
            .collect(),
        tenants: tenants.map_or_else(Vec::new, |mix| {
            mix.tenants()
                .iter()
                .map(|t| TraceTenant { name: t.name.clone(), slo_s: t.slo_s })
                .collect()
        }),
        events,
    });
    let outcome = ServeOutcome {
        latencies_s: latencies,
        arrivals_s: arrived.iter().map(|r| r.arrival_s).collect(),
        tenants: arrived.iter().map(|r| r.tenant).collect(),
        shed: out.shed,
        shed_queue: st.shed_queue,
        shed_limit: st.shed_limit,
        tenant_outcomes,
        crash_events: out.crash_events,
        provision_failures: st.provision_failures,
        makespan_s: st.makespan,
        queue_depth_mean: if st.makespan > 0.0 { st.depth_integral / st.makespan } else { 0.0 },
        queue_depth_max: st.depth_max,
        batch_sizes: out.batch_sizes.into_iter().map(|(_, size)| size).collect(),
        shard_stats: st.fleet.stats().to_vec(),
        shard_groups: st.fleet.shard_groups().to_vec(),
        group_stats: st.fleet.group_stats(),
        scale_events: out.scale_events,
    };
    (outcome, trace)
}

/// Runs one scenario as epoch fragments: a cheap serial pass finds the
/// seam state at every boundary, then every fragment replays concurrently
/// with output recording on and the slices concatenate in epoch order.
fn run_fragments(
    ctx: &Ctx<'_>,
    initial: EngineState,
    horizon: f64,
    plan: &EnginePlan,
    tracing: bool,
) -> (ServeOutcome, Option<Trace>) {
    let boundaries = plan.boundaries(horizon);
    if boundaries.is_empty() {
        // Serial fast path: one fragment, no seam clones, no fan-out.
        let mut st = initial;
        let mut out = FragmentOut::new(tracing);
        run_until(ctx, &mut st, f64::INFINITY, Some(&mut out));
        return assemble(ctx, st, out);
    }

    // Pass 1 (serial, output-free): the seam state at each boundary.
    // Re-entering a drained state is a no-op, so the walk safely covers
    // boundaries past the end of the action.
    let mut fragments: Vec<(EngineState, f64)> = Vec::with_capacity(boundaries.len() + 1);
    let mut cursor = initial;
    for &boundary in &boundaries {
        let mut next = cursor.clone();
        run_until(ctx, &mut next, boundary, None);
        fragments.push((cursor, boundary));
        cursor = next;
    }
    fragments.push((cursor, f64::INFINITY));

    // Pass 2 (parallel): replay every fragment with recording on. The
    // runner returns results in fragment order regardless of thread
    // interleaving, and outputs never feed back into the dynamics, so
    // concatenation reproduces the serial output byte for byte.
    let runner = plan.runner();
    let results = runner.run(&fragments, |_, (seam, limit)| {
        let mut st = seam.clone();
        let mut out = FragmentOut::new(tracing);
        run_until(ctx, &mut st, *limit, Some(&mut out));
        (st, out)
    });

    let mut merged = FragmentOut::new(tracing);
    let mut terminal = None;
    for (state, out) in results {
        merged.latencies.extend(out.latencies);
        merged.shed.extend(out.shed);
        merged.batch_sizes.extend(out.batch_sizes);
        merged.crash_events.extend(out.crash_events);
        merged.scale_events.extend(out.scale_events);
        if let (Some(into), Some(events)) = (merged.events.as_mut(), out.events) {
            into.extend(events);
        }
        terminal = Some(state);
    }
    assemble(ctx, terminal.expect("at least one fragment"), merged)
}

/// How many lanes a closed-loop scenario actually decomposes into under
/// `plan`: the requested count clamped to the client count and the
/// smallest group, and 1 whenever a feature that couples the lanes —
/// autoscaling, admission control, tenants, effectful faults — is on.
fn lane_count(spec: &ClosedLoopSpec, cfg: &ServeConfig<'_>, plan: &EnginePlan) -> usize {
    if plan.lanes <= 1 {
        return 1;
    }
    let decoupled = cfg.autoscale.is_none()
        && cfg.queue_bound.is_none()
        && cfg.tenants.is_none()
        && cfg.faults.is_none_or(|f| f.is_benign());
    if !decoupled {
        return 1;
    }
    let min_shards = cfg.groups.iter().map(|g| g.shards).min().unwrap_or(0);
    plan.lanes.min(min_shards).min(spec.clients).max(1)
}

/// Replays a closed-loop scenario as `lanes` independent sub-scenarios —
/// clients and shard groups split round-robin by global index — and
/// merges them deterministically. Each lane is one serial fragment (the
/// lane split, not the timeline split, is the parallelism axis here).
fn run_lanes(
    spec: &ClosedLoopSpec,
    cfg: &ServeConfig<'_>,
    lanes: usize,
    plan: &EnginePlan,
    tracing: bool,
) -> (ServeOutcome, Option<Trace>) {
    let lane_fleets: Vec<Vec<ShardGroup>> =
        (0..lanes).map(|lane| lane_groups(cfg.groups, lane, lanes)).collect();
    let lane_ids: Vec<usize> = (0..lanes).collect();
    let runner = plan.runner();
    let results = runner.run(&lane_ids, |_, &lane| {
        let mut lane_cfg = *cfg;
        lane_cfg.groups = &lane_fleets[lane];
        let (clients, first) = spec.lane_clients(lane, lanes);
        let ctx = Ctx {
            cfg: &lane_cfg,
            tenants: None,
            stream: &[],
            costs: FleetCosts::new(lane_cfg.costs, lane_cfg.groups),
            admission: false,
        };
        let mut st = initial_state(&lane_cfg, None, SourceState::closed(clients, first));
        let mut out = FragmentOut::new(tracing);
        run_until(&ctx, &mut st, f64::INFINITY, Some(&mut out));
        (st, out)
    });
    merge_lanes(cfg, &results, lanes, tracing)
}

/// Deterministic lane merge: global request ids by `(arrival, lane,
/// local id)`, shard slots re-laid group-major with each group's lanes
/// contiguous, batches by `(finish, lane, sequence)`, trace events by
/// `(time, lane, sequence)`, and every `f64` aggregate summed in lane
/// order — so the merged outcome is identical for every thread count.
fn merge_lanes(
    cfg: &ServeConfig<'_>,
    results: &[(EngineState, FragmentOut)],
    lanes: usize,
    tracing: bool,
) -> (ServeOutcome, Option<Trace>) {
    let group_shards: Vec<usize> = cfg.groups.iter().map(|g| g.shards).collect();
    let mut merged_first = vec![0usize; group_shards.len()];
    for g in 1..group_shards.len() {
        merged_first[g] = merged_first[g - 1] + group_shards[g - 1];
    }
    let total_slots: usize = group_shards.iter().sum();

    // Lane-local shard slot → merged slot (lane fleets are group-major
    // over the same groups, so the map is a per-group offset shift).
    let slot_maps: Vec<Vec<usize>> = (0..lanes)
        .map(|lane| {
            let mut map = Vec::new();
            for (g, &shards) in group_shards.iter().enumerate() {
                let before: usize = (0..lane).map(|m| lane_share(shards, m, lanes)).sum();
                let share = lane_share(shards, lane, lanes);
                map.extend((0..share).map(|s| merged_first[g] + before + s));
            }
            map
        })
        .collect();

    // Global ids: every lane's arrivals merged by (time, lane, local id).
    let mut order: Vec<(f64, usize, usize)> = Vec::new();
    for (lane, (st, _)) in results.iter().enumerate() {
        order.extend(st.source.arrived(&[]).iter().map(|r| (r.arrival_s, lane, r.id)));
    }
    order.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .expect("arrival times are finite")
            .then(a.1.cmp(&b.1))
            .then(a.2.cmp(&b.2))
    });
    let mut id_maps: Vec<Vec<usize>> =
        results.iter().map(|(st, _)| vec![usize::MAX; st.source.arrived(&[]).len()]).collect();
    let mut arrivals_s = Vec::with_capacity(order.len());
    for (global, &(at, lane, local)) in order.iter().enumerate() {
        id_maps[lane][local] = global;
        arrivals_s.push(at);
    }

    let total = order.len();
    let mut latencies = vec![f64::NAN; total];
    for (lane, (_, out)) in results.iter().enumerate() {
        for &(local, latency) in &out.latencies {
            debug_assert!(latencies[id_maps[lane][local]].is_nan(), "request resolved twice");
            latencies[id_maps[lane][local]] = latency;
        }
    }
    debug_assert!(
        latencies.iter().all(|&l| l >= 0.0),
        "lane-eligible closed loops serve every request"
    );

    // Batches in (finish, lane, sequence) order.
    let mut batches: Vec<(f64, usize, usize, usize)> = Vec::new();
    for (lane, (_, out)) in results.iter().enumerate() {
        batches.extend(
            out.batch_sizes
                .iter()
                .enumerate()
                .map(|(seq, &(finish, size))| (finish, lane, seq, size)),
        );
    }
    batches.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .expect("finish times are finite")
            .then(a.1.cmp(&b.1))
            .then(a.2.cmp(&b.2))
    });

    // Scalar aggregates, summed in lane order for f64 determinism.
    let (mut makespan, mut depth_integral, mut depth_max) = (0.0f64, 0.0f64, 0usize);
    for (st, out) in results {
        makespan = makespan.max(st.makespan);
        depth_integral += st.depth_integral;
        depth_max = depth_max.max(st.depth_max);
        debug_assert!(
            out.shed.is_empty() && out.crash_events.is_empty() && out.scale_events.is_empty(),
            "lane-eligible scenarios shed nothing and never change the fleet"
        );
    }

    // Shard slots re-laid group-major; per-group counters summed in lane
    // order. Active shard counts are constant per lane (no autoscaling,
    // no crashes), so summed peaks equal the merged peak.
    let mut shard_stats = vec![ShardStats::default(); total_slots];
    let mut shard_groups = Vec::with_capacity(total_slots);
    for (g, &shards) in group_shards.iter().enumerate() {
        shard_groups.extend(std::iter::repeat_n(g, shards));
    }
    for (lane, (st, _)) in results.iter().enumerate() {
        for (local, stats) in st.fleet.stats().iter().enumerate() {
            shard_stats[slot_maps[lane][local]] = *stats;
        }
    }
    let mut group_stats: Vec<GroupStats> = cfg
        .groups
        .iter()
        .map(|g| GroupStats {
            name: g.name.clone(),
            capacity: g.shards,
            busy_s: 0.0,
            batches: 0,
            requests: 0,
            shard_seconds: 0.0,
            peak_active: 0,
        })
        .collect();
    for (st, _) in results {
        for (g, lane_stats) in st.fleet.group_stats().into_iter().enumerate() {
            let merged = &mut group_stats[g];
            merged.busy_s += lane_stats.busy_s;
            merged.batches += lane_stats.batches;
            merged.requests += lane_stats.requests;
            merged.shard_seconds += lane_stats.shard_seconds;
            merged.peak_active += lane_stats.peak_active;
        }
    }

    let outcome = ServeOutcome {
        latencies_s: latencies,
        arrivals_s,
        tenants: vec![0; total],
        shed: Vec::new(),
        shed_queue: 0,
        shed_limit: 0,
        tenant_outcomes: Vec::new(),
        crash_events: Vec::new(),
        provision_failures: 0,
        makespan_s: makespan,
        queue_depth_mean: if makespan > 0.0 { depth_integral / makespan } else { 0.0 },
        queue_depth_max: depth_max,
        batch_sizes: batches.into_iter().map(|(_, _, _, size)| size).collect(),
        shard_stats,
        shard_groups,
        group_stats,
        scale_events: Vec::new(),
    };

    let trace = tracing.then(|| {
        let mut keyed: Vec<(f64, usize, usize, TraceEvent)> = Vec::new();
        for (lane, (_, out)) in results.iter().enumerate() {
            if let Some(events) = &out.events {
                keyed.extend(events.iter().enumerate().map(|(seq, event)| {
                    (event.at_s(), lane, seq, remap_event(event, &id_maps[lane], &slot_maps[lane]))
                }));
            }
        }
        keyed.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("event times are finite")
                .then(a.1.cmp(&b.1))
                .then(a.2.cmp(&b.2))
        });
        Trace {
            groups: cfg
                .groups
                .iter()
                .map(|g| TraceGroup { name: g.name.clone(), initial_shards: g.shards })
                .collect(),
            tenants: Vec::new(),
            events: keyed.into_iter().map(|(_, _, _, event)| event).collect(),
        }
    });
    (outcome, trace)
}

/// Rewrites a lane-local trace event into merged coordinates.
fn remap_event(event: &TraceEvent, ids: &[usize], slots: &[usize]) -> TraceEvent {
    match *event {
        TraceEvent::Arrival { at_s, id, tenant } => {
            TraceEvent::Arrival { at_s, id: ids[id], tenant }
        }
        TraceEvent::Admit { at_s, id } => TraceEvent::Admit { at_s, id: ids[id] },
        TraceEvent::Shed { at_s, id, tenant, reason } => {
            TraceEvent::Shed { at_s, id: ids[id], tenant, reason }
        }
        TraceEvent::Complete { at_s, id, tenant, latency_s } => {
            TraceEvent::Complete { at_s, id: ids[id], tenant, latency_s }
        }
        TraceEvent::Dispatch { at_s, shard, group, requests, service_s } => {
            TraceEvent::Dispatch { at_s, shard: slots[shard], group, requests, service_s }
        }
        TraceEvent::Crash { at_s, shard, group, redispatched, lost_service_s } => {
            TraceEvent::Crash { at_s, shard: slots[shard], group, redispatched, lost_service_s }
        }
        ref other @ (TraceEvent::Scale { .. } | TraceEvent::ProvisionFailure { .. }) => {
            other.clone()
        }
    }
}

fn run_stream(
    stream: &[Request],
    cfg: &ServeConfig<'_>,
    tenants: Option<&TenantMix>,
    horizon: f64,
    plan: &EnginePlan,
    tracing: bool,
) -> (ServeOutcome, Option<Trace>) {
    let costs = FleetCosts::new(cfg.costs, cfg.groups);
    let ctx = Ctx { cfg, tenants, stream, costs, admission: true };
    let initial = initial_state(cfg, tenants, SourceState::Open { cursor: 0 });
    run_fragments(&ctx, initial, horizon, plan, tracing)
}

fn run_workload(
    workload: &Workload,
    cfg: &ServeConfig<'_>,
    plan: &EnginePlan,
    tracing: bool,
) -> (ServeOutcome, Option<Trace>) {
    match workload {
        Workload::Open(spec) => {
            let stream = spec.generate();
            assert_sorted(&stream);
            run_stream(&stream, cfg, cfg.tenants, spec.duration_s, plan, tracing)
        }
        Workload::Shaped(shaped) => {
            let stream = shaped.generate();
            let tenants = cfg.tenants.or(shaped.tenants.as_ref());
            run_stream(&stream, cfg, tenants, shaped.base.duration_s, plan, tracing)
        }
        Workload::Replay(stream) => {
            assert_sorted(stream);
            let horizon = stream.last().map_or(0.0, |r| r.arrival_s);
            run_stream(stream, cfg, cfg.tenants, horizon, plan, tracing)
        }
        Workload::Closed(spec) => {
            let lanes = lane_count(spec, cfg, plan);
            if lanes > 1 {
                return run_lanes(spec, cfg, lanes, plan, tracing);
            }
            let (clients, first) = spec.clients();
            let costs = FleetCosts::new(cfg.costs, cfg.groups);
            let ctx = Ctx { cfg, tenants: cfg.tenants, stream: &[], costs, admission: false };
            let initial = initial_state(cfg, cfg.tenants, SourceState::closed(clients, first));
            run_fragments(&ctx, initial, spec.duration_s, plan, tracing)
        }
    }
}

fn assert_sorted(requests: &[Request]) {
    assert!(
        requests.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s),
        "request streams must be sorted by arrival time"
    );
}

/// Replays one serving scenario under an [`EnginePlan`] and returns its
/// metrics.
///
/// The fleet is described by `cfg.groups` (one entry per shard group, each
/// with its own configuration); every group's fingerprint must be
/// registered in `cfg.costs` with every class of the workload measured
/// under it. With `cfg.autoscale` set, each group's initial shard count
/// must lie within the policy's `[min, max]` bounds and the fleet
/// pre-allocates `max` slots per group. For a [`Workload::Shaped`] stream,
/// an explicit `cfg.tenants` wins over the stream's own mix; without
/// either, every request is tenant 0.
///
/// With [`EnginePlan::serial`] this *is* the serial engine; with epochs
/// the outcome is byte-identical to serial for every epoch count and
/// thread count; with lanes the lane count is part of the scenario
/// (identical across thread counts at a fixed lane count).
///
/// # Panics
///
/// Panics when a [`Workload::Replay`] stream is unsorted, a (fingerprint,
/// class) pair is missing from the cost table, the fleet is empty, or an
/// autoscaled group starts outside the policy bounds.
pub fn simulate_config_parallel(
    workload: &Workload,
    cfg: &ServeConfig<'_>,
    plan: &EnginePlan,
) -> ServeOutcome {
    run_workload(workload, cfg, plan, false).0
}

/// [`simulate_config_parallel`] that additionally records the full request
/// lifecycle as a [`Trace`] for the telemetry layer (windowed
/// [`Timeline`](crate::telemetry::Timeline) views, timeline artifacts).
///
/// The outcome is identical to the untraced replay — tracing only
/// appends events, it never influences a decision — and the untraced
/// entry point skips every trace push, so replays without a trace pay
/// nothing for this hook existing.
///
/// # Panics
///
/// As [`simulate_config_parallel`].
pub fn simulate_config_traced_parallel(
    workload: &Workload,
    cfg: &ServeConfig<'_>,
    plan: &EnginePlan,
) -> (ServeOutcome, Trace) {
    let (outcome, trace) = run_workload(workload, cfg, plan, true);
    (outcome, trace.expect("tracing was requested"))
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::cost::{ClassCost, CostTable};

    /// The backlog as it was before SJF got its own ordered variant and
    /// `Classed` its running length: FIFO and SJF share one arrival-ordered
    /// queue, SJF selects by a linear scan with a weight lookup per queued
    /// request, and the batching length is summed per call. Kept as the
    /// reference the differential tests replay against.
    #[derive(Debug, Clone)]
    enum ReferenceBacklog {
        Single(VecDeque<usize>),
        Classed(BTreeMap<RequestClass, VecDeque<usize>>),
    }

    impl ReferenceBacklog {
        fn new(policy: Policy) -> Self {
            match policy {
                Policy::Fifo | Policy::Sjf => ReferenceBacklog::Single(VecDeque::new()),
                Policy::BatchByDataset { .. } => ReferenceBacklog::Classed(BTreeMap::new()),
            }
        }

        fn push(&mut self, id: usize, class: RequestClass) {
            match self {
                ReferenceBacklog::Single(queue) => queue.push_back(id),
                ReferenceBacklog::Classed(queues) => queues.entry(class).or_default().push_back(id),
            }
        }

        fn push_front(&mut self, unit: &[usize], class: RequestClass) {
            let queue = match self {
                ReferenceBacklog::Single(queue) => queue,
                ReferenceBacklog::Classed(queues) => queues.entry(class).or_default(),
            };
            for &id in unit.iter().rev() {
                queue.push_front(id);
            }
        }

        fn len(&self) -> usize {
            match self {
                ReferenceBacklog::Single(queue) => queue.len(),
                ReferenceBacklog::Classed(queues) => queues.values().map(VecDeque::len).sum(),
            }
        }

        fn take_ready(
            &mut self,
            now: f64,
            policy: Policy,
            requests: &[Request],
            costs: &CostTable,
        ) -> Option<Vec<usize>> {
            match (self, policy) {
                (ReferenceBacklog::Single(queue), Policy::Fifo) => {
                    queue.pop_front().map(|id| vec![id])
                }
                (ReferenceBacklog::Single(queue), Policy::Sjf) => {
                    // Smallest estimated work first; arrival order (the queue
                    // order) breaks ties because `min_by_key` keeps the first
                    // minimum.
                    let pos = queue
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &id)| (costs.weight(requests[id].class), id))
                        .map(|(pos, _)| pos)?;
                    queue.remove(pos).map(|id| vec![id])
                }
                (
                    ReferenceBacklog::Classed(queues),
                    Policy::BatchByDataset { max_batch, timeout_s },
                ) => {
                    let class = queues
                        .iter()
                        .filter(|(_, q)| class_ready(q, requests, max_batch, timeout_s, now))
                        .min_by(|(ca, qa), (cb, qb)| {
                            let (ha, hb) = (head_arrival(qa, requests), head_arrival(qb, requests));
                            ha.partial_cmp(&hb).expect("arrival times are finite").then(ca.cmp(cb))
                        })
                        .map(|(class, _)| *class)?;
                    let queue = queues.get_mut(&class).expect("selected class is present");
                    let take = queue.len().min(max_batch);
                    let batch: Vec<usize> = queue.drain(..take).collect();
                    if queue.is_empty() {
                        queues.remove(&class);
                    }
                    Some(batch)
                }
                _ => unreachable!("backlog shape always matches the policy"),
            }
        }
    }

    /// Five classes, two pairs of which share a weight, so SJF ties fall
    /// through to the id.
    const WEIGHTS: [u64; 5] = [30, 10, 20, 10, 30];

    fn class(index: usize) -> RequestClass {
        RequestClass { dataset: index % WEIGHTS.len(), shrink: 1 }
    }

    fn weights() -> CostTable {
        let mut table = CostTable::new();
        table.register_rate("chip", 1e-9);
        for (index, &flops) in WEIGHTS.iter().enumerate() {
            table.insert("chip", class(index), ClassCost { cycles: 1, flops });
        }
        table
    }

    const ARRIVAL_GAP_S: f64 = 0.001;

    /// Replays `ops` on the backlog and on the reference and checks, after
    /// every step, that both hold the same number of requests, hand out
    /// the same units and report the same next deadline. An op is `(kind,
    /// pick)`: 0–1 an arrival of class `pick`; 2 a dispatch; 3 a hold (the
    /// unit goes straight back); 4 a crash (an earlier dispatched unit
    /// comes back); 5 a crash of two same-class units at once, re-queued
    /// as one multi-id unit.
    fn replay_against_the_reference(policy: Policy, ops: &[(usize, usize)]) {
        let table = weights();
        let costs = FleetCosts::new(&table, &[]);
        let mut backlog = Backlog::new(policy);
        let mut reference = ReferenceBacklog::new(policy);
        let mut requests: Vec<Request> = Vec::new();
        let mut dispatched: Vec<Vec<usize>> = Vec::new();
        let mut unit = vec![usize::MAX];
        for (step, &(kind, pick)) in ops.iter().enumerate() {
            // Time follows the arrivals, plus a pick-dependent slack so
            // batch timeouts sometimes have and sometimes have not expired.
            let now = requests.len() as f64 * ARRIVAL_GAP_S + (pick % 4) as f64 * ARRIVAL_GAP_S;
            match kind {
                0 | 1 => {
                    let id = requests.len();
                    let arrival_s = id as f64 * ARRIVAL_GAP_S;
                    requests.push(Request { id, arrival_s, class: class(pick), tenant: 0 });
                    backlog.push(id, class(pick), &costs);
                    reference.push(id, class(pick));
                }
                2 | 3 => {
                    let expected = reference.take_ready(now, policy, &requests, &table);
                    let took = backlog.take_ready(now, policy, &requests, &mut unit);
                    assert_eq!(took.then_some(&unit), expected.as_ref(), "step {step}");
                    if let Some(expected) = expected {
                        if kind == 3 {
                            let class = requests[unit[0]].class;
                            backlog.push_front(&unit, class, &costs);
                            reference.push_front(&expected, class);
                        } else {
                            dispatched.push(expected);
                        }
                    }
                }
                _ if dispatched.is_empty() => {}
                4 => {
                    let crashed = dispatched.swap_remove(pick % dispatched.len());
                    let class = requests[crashed[0]].class;
                    backlog.push_front(&crashed, class, &costs);
                    reference.push_front(&crashed, class);
                }
                _ => {
                    let mut crashed = dispatched.swap_remove(pick % dispatched.len());
                    let class = requests[crashed[0]].class;
                    if let Some(other) =
                        dispatched.iter().position(|u| requests[u[0]].class == class)
                    {
                        crashed.extend(dispatched.swap_remove(other));
                    }
                    backlog.push_front(&crashed, class, &costs);
                    reference.push_front(&crashed, class);
                }
            }
            assert_eq!(backlog.len(), reference.len(), "step {step}");
            if let Backlog::Classed { queues, len } = &backlog {
                assert_eq!(*len, queues.values().map(VecDeque::len).sum::<usize>(), "step {step}");
            }
            let in_flight: usize = dispatched.iter().map(Vec::len).sum();
            assert_eq!(backlog.len() + in_flight, requests.len(), "step {step}: conservation");
        }
        // Drain: far enough in the future every batch timeout has expired.
        let end = requests.len() as f64 * ARRIVAL_GAP_S + 1.0;
        while let Some(expected) = reference.take_ready(end, policy, &requests, &table) {
            assert!(backlog.take_ready(end, policy, &requests, &mut unit));
            assert_eq!(unit, expected, "drain");
            assert_eq!(backlog.len(), reference.len(), "drain");
        }
        assert!(!backlog.take_ready(end, policy, &requests, &mut unit));
        assert_eq!(backlog.len(), 0);
    }

    fn arb_ops() -> impl Strategy<Value = Vec<(usize, usize)>> {
        proptest::collection::vec((0usize..6, 0usize..64), 1..300)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The ordered SJF backlog yields the id sequence and length of
        /// the linear scan it replaced, under any interleaving of
        /// arrivals, dispatches, holds and crash re-queues.
        #[test]
        fn sjf_heap_matches_the_linear_scan(ops in arb_ops()) {
            replay_against_the_reference(Policy::Sjf, &ops);
        }

        /// The running `Classed` length equals the summed one at every
        /// step, and batches come out as before (multi-id units, partial
        /// batches flushed by timeout, crash re-queues at the class head).
        #[test]
        fn classed_running_length_matches_the_summed_one(
            ops in arb_ops(),
            max_batch in 1usize..=4,
        ) {
            replay_against_the_reference(Policy::batch(max_batch, 2.0 * ARRIVAL_GAP_S), &ops);
        }

        #[test]
        fn fifo_is_unchanged(ops in arb_ops()) {
            replay_against_the_reference(Policy::Fifo, &ops);
        }
    }

    #[test]
    fn sjf_breaks_weight_ties_by_id_across_classes_and_requeues() {
        // Classes 1 and 3 both weigh 10: the earlier id wins whichever
        // class it is in, and a re-queued id keeps its place in the order.
        let table = weights();
        let costs = FleetCosts::new(&table, &[]);
        let mut backlog = Backlog::new(Policy::Sjf);
        let requests: Vec<Request> = [0, 3, 1, 2, 1]
            .iter()
            .enumerate()
            .map(|(id, &c)| Request { id, arrival_s: id as f64, class: class(c), tenant: 0 })
            .collect();
        for request in &requests {
            backlog.push(request.id, request.class, &costs);
        }
        let mut unit = Vec::new();
        let mut order = Vec::new();
        assert!(backlog.take_ready(9.0, Policy::Sjf, &requests, &mut unit));
        assert_eq!(unit, [1], "weight 10, the earliest id");
        backlog.push_front(&unit, class(3), &costs);
        while backlog.take_ready(9.0, Policy::Sjf, &requests, &mut unit) {
            order.push(unit[0]);
        }
        assert_eq!(order, [1, 2, 4, 3, 0]);
    }
}
