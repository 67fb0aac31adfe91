//! The serving engine: the event loop, its two replay entry points and
//! the parallel-in-time plans.
//!
//! [`simulate_config_parallel`] and [`simulate_config_traced_parallel`]
//! are the whole replay API: a [`Workload`], a [`ServeConfig`] and an
//! [`EnginePlan`] in, a [`ServeOutcome`] (and a [`Trace`]) out.
//!
//! **The loop.** A private `Engine` borrows a replay's context and its
//! `EngineState`, and `Engine::run_until` is a short loop over one method
//! per step: `dispatch_ready` (ready units go to idle shards),
//! `next_event_s` (the earliest arrival, completion, batch timeout, crash,
//! provisioning effect or autoscaler check), then at that instant, in
//! this order, `complete_due`, `admit_due`, `crash_due`,
//! `apply_provisioning` and `autoscale_check`. The loop is resumable: it
//! stops *before* the first event at or past a time limit and can be
//! called again — the state carries the backlog, the in-flight batches,
//! the fault plan, the pending provisioning ops and the closed-loop client
//! RNGs, so splitting a replay at any set of boundaries reproduces the
//! serial event sequence exactly.
//!
//! **The tally.** What the outcome needs beyond the recorded facts, the
//! loop folds into a private `Tally` as it runs: shed and provisioning
//! counts, per-tenant offers and sheds, the makespan, the backlog depth's
//! time integral and peak, and the requests in flight — +1 per
//! admission, −size per completed batch, a crash's re-queued batch
//! staying in — with their peak, taken after each event's admissions
//! (which follow its completions). The tally rides in the state, so
//! epoch fragments carry it across seams. Lanes cannot add their peaks,
//! so `merge_lanes` sweeps the merged arrivals against the merged
//! batches for theirs.
//!
//! **The recording seam.** The loop writes no output. Every fact it
//! produces — dispatch, completion, batch done, arrival, admit, shed,
//! crash, provisioning failure, scale — is one call on the private
//! `Record` trait, chosen once per call and monomorphised: `()` keeps
//! nothing, so whatever only a recorder computes is dropped with it;
//! `FragmentOut` appends to the vectors that `assemble` — the one place a
//! [`ServeOutcome`] and a [`Trace`] are built — reads. A recorder only
//! listens, which is why recorded slices can be cut and merged freely.
//!
//! **The plans.** An [`EnginePlan`] chooses how a scenario parallelises:
//!
//! - **Epochs** partition the simulated timeline at fixed boundaries.
//!   A first pass, recording into `()`, computes the seam state at every
//!   boundary; a second pass replays all fragments concurrently on the
//!   `neura_lab` work-stealing runner, each into its own `FragmentOut`,
//!   and the slices concatenate in epoch order. Because a pause happens
//!   *before* the time-advance accrual, a span that crosses a boundary is
//!   still accrued in one `f64` operation by the next fragment — so the
//!   merged artifact is byte-identical to the serial engine for every
//!   epoch count and every thread count (serial = one epoch).
//! - **Lanes** partition a closed-loop scenario *itself*: clients and
//!   shard groups split round-robin into independent sub-scenarios that
//!   replay concurrently, and `merge_lanes` reduces them to what
//!   `assemble` takes from a single replay (arrivals by `(time, lane,
//!   id)`, shard slots re-laid group-major, per-group counters summed in
//!   lane order). A lane count is part of the scenario definition —
//!   `lanes = 4` is a *different scenario* than `lanes = 1`, with
//!   identical results for every thread count — and is where the
//!   wall-clock win on long closed-loop replays lives.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use neura_lab::Runner;
use neura_sim::BitSet;

use crate::arrivals::{ClosedLoopClients, ClosedLoopSpec, Request, Workload};
use crate::autoscale::{Decision, ScaleEvent};
use crate::cost::{ClassId, FleetCosts};
use crate::fault::{CrashEvent, FaultPlan};
use crate::fleet::{
    lane_groups, lane_share, GroupStats, ShardFleet, ShardGroup, ShardStats, TimeKey,
};
use crate::policy::Policy;
use crate::scenario::{TenantMix, TENANT_BURST_S};
use crate::sim::{ServeConfig, ServeOutcome, TenantOutcome, SHED_LATENCY_S};
use crate::telemetry::{ShedReason, Trace, TraceEvent, TraceGroup, TraceTenant};

/// Upper bound on the number of epoch fragments a plan expands to: larger
/// counts are clamped to it (the `serve` binary refuses them up front).
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

/// Min-heap of `(issue time, client)` pairs: pops in ascending
/// `(time, client)` order, the exact order the serial engine's linear
/// scan selected due clients in.
type IssueQueue = BinaryHeap<Reverse<(TimeKey, usize)>>;

fn issue_queue(first: Vec<(f64, usize)>) -> IssueQueue {
    first.into_iter().map(|(at, client)| Reverse((TimeKey(at), client))).collect()
}

/// The central backlog, shaped by the policy. No question a dispatch asks
/// of it walks the waiting requests or the waiting classes: FIFO and SJF
/// answer in O(1), batching in O(1) per class whose readiness or place
/// changed since the last question. A class pays a binary search to be
/// re-sorted only when its queue head changes. A replay that lets the
/// backlog grow (a flash crowd, an overload) therefore pays per request,
/// not per request × depth or per event × classes.
#[derive(Debug, Clone)]
enum Backlog {
    /// FIFO: one queue in arrival order.
    Fifo(VecDeque<usize>),
    /// SJF: smallest estimated work first, ties to the earlier arrival.
    Sjf(RankQueues),
    /// Batching: per-class queues served oldest head first.
    Classed(AgeQueues),
}

impl Backlog {
    /// An empty backlog for `policy` over the classes of `costs`.
    fn new(policy: Policy, costs: &FleetCosts<'_>) -> Self {
        match policy {
            Policy::Fifo => Backlog::Fifo(VecDeque::new()),
            Policy::Sjf => Backlog::Sjf(RankQueues::new(costs)),
            Policy::BatchByDataset { max_batch, timeout_s } => {
                Backlog::Classed(AgeQueues::new(max_batch, timeout_s, costs.class_count()))
            }
        }
    }

    /// Admits request `id` of `class`, which arrived at `arrival_s`. Ids
    /// are admitted in ascending order.
    fn push(&mut self, id: usize, class: ClassId, arrival_s: f64, costs: &FleetCosts<'_>) {
        match self {
            Backlog::Fifo(queue) => queue.push_back(id),
            Backlog::Sjf(ranks) => ranks.push(id, class, costs),
            Backlog::Classed(ages) => ages.push(id, class, arrival_s),
        }
    }

    /// Returns a unit taken by [`Self::take_ready`] to the head of its
    /// queue, preserving order — used when the dispatch policy holds the
    /// unit for busy preferred silicon, and when a crash returns a
    /// victim's in-flight batch for re-dispatch. `arrival_s` is the
    /// arrival of `unit[0]`.
    fn push_front(
        &mut self,
        unit: &[usize],
        class: ClassId,
        arrival_s: f64,
        costs: &FleetCosts<'_>,
    ) {
        match self {
            Backlog::Fifo(queue) => {
                for &id in unit.iter().rev() {
                    queue.push_front(id);
                }
            }
            Backlog::Sjf(ranks) => ranks.push_front(unit, class, costs),
            Backlog::Classed(ages) => ages.push_front(unit, class, arrival_s),
        }
    }

    fn len(&self) -> usize {
        match self {
            Backlog::Fifo(queue) => queue.len(),
            Backlog::Sjf(ranks) => ranks.len,
            Backlog::Classed(ages) => ages.len,
        }
    }

    /// The earliest future time at which a currently-unready unit becomes
    /// ready by timeout (batching policy only).
    fn next_deadline(&mut self, now: f64) -> Option<f64> {
        match self {
            Backlog::Classed(ages) => ages.next_deadline(now),
            Backlog::Fifo(_) | Backlog::Sjf(_) => None,
        }
    }

    /// Moves the next ready dispatch unit at `now` into `unit` (cleared
    /// first — the caller recycles one buffer across dispatches); `false`
    /// when nothing is ready. `requests` holds every arrived request, by id.
    fn take_ready(&mut self, now: f64, requests: &[Request], unit: &mut Vec<usize>) -> bool {
        unit.clear();
        match self {
            Backlog::Fifo(queue) => unit.extend(queue.pop_front()),
            Backlog::Sjf(ranks) => unit.extend(ranks.pop()),
            Backlog::Classed(ages) => ages.take_ready(now, requests, unit),
        }
        !unit.is_empty()
    }
}

/// The SJF backlog: one id-ordered FIFO queue per distinct class weight,
/// lightest first, and the set of non-empty ones. The next request is the
/// front of the lowest non-empty rank — smallest weight first, ties to the
/// smaller id (ids are issued in arrival order) — so the selection depends
/// only on the *set* of queued requests, as a min-heap on `(weight, id)`
/// would pop it. An admission appends (its id is the largest yet), a held
/// request goes back to the front (it was its rank's minimum), and only a
/// crash re-queue, which may return units in any order, searches for its
/// place.
#[derive(Debug, Clone)]
struct RankQueues {
    /// Per class id: the rank of its weight (`None` = measured nowhere).
    ranks: Vec<Option<usize>>,
    /// Per rank: its queued ids, ascending.
    queues: Vec<VecDeque<usize>>,
    /// The ranks whose queue is non-empty.
    non_empty: BitSet,
    /// The summed queue length.
    len: usize,
}

impl RankQueues {
    fn new(costs: &FleetCosts<'_>) -> Self {
        let ranks = costs.weight_ranks();
        let count = ranks.iter().flatten().max().map_or(0, |&rank| rank + 1);
        RankQueues {
            ranks,
            queues: vec![VecDeque::new(); count],
            non_empty: BitSet::new(count),
            len: 0,
        }
    }

    /// The queue of `class`'s weight, marked non-empty (the caller adds to
    /// it).
    ///
    /// # Panics
    ///
    /// As [`FleetCosts::weight`], when `class` was measured nowhere.
    fn queue(&mut self, class: ClassId, costs: &FleetCosts<'_>) -> &mut VecDeque<usize> {
        let rank = self.ranks[class.index()].unwrap_or_else(|| {
            costs.weight(class);
            unreachable!("every measured class has a weight rank")
        });
        self.non_empty.insert(rank);
        &mut self.queues[rank]
    }

    fn push(&mut self, id: usize, class: ClassId, costs: &FleetCosts<'_>) {
        let queue = self.queue(class, costs);
        debug_assert!(queue.back().is_none_or(|&last| last < id), "ids are admitted ascending");
        queue.push_back(id);
        self.len += 1;
    }

    fn push_front(&mut self, unit: &[usize], class: ClassId, costs: &FleetCosts<'_>) {
        let queue = self.queue(class, costs);
        for &id in unit.iter().rev() {
            if queue.front().is_none_or(|&first| id < first) {
                queue.push_front(id);
            } else {
                queue.insert(queue.partition_point(|&queued| queued < id), id);
            }
        }
        self.len += unit.len();
    }

    fn pop(&mut self) -> Option<usize> {
        let rank = self.non_empty.iter().next()?;
        let queue = &mut self.queues[rank];
        let id = queue.pop_front();
        if queue.is_empty() {
            self.non_empty.remove(rank);
        }
        self.len -= 1;
        id
    }
}

/// The batching backlog: one arrival-ordered queue per class id, each
/// waiting class's head arrival, and the waiting classes split into two
/// age indexes — `filling` (fewer than `max_batch` queued) and `full` —
/// each sorted by `(head arrival, class id)`.
///
/// Among ready classes (full, or timed out) the one whose head has waited
/// longest is served, ties to the lower class id. Every full class is
/// ready, and the timed-out filling classes are a prefix of `filling`
/// (`head + timeout_s` rounds monotonically in `head`), so the choice is
/// the older of two fronts, and the next deadline is that of the first
/// filling class past the prefix — the front itself, unless dispatch was
/// held with a timed-out class waiting, and then a walk from where the
/// previous call found the prefix's end.
///
/// A class enters an index when its queue becomes non-empty (arrivals are
/// monotone, so at or near the back), moves from `filling` to `full` when
/// a push fills it, and is re-sorted only when its head changes: a hold or
/// crash re-queue, or a partial drain. Plain pushes into a waiting class
/// touch no index.
#[derive(Debug, Clone)]
struct AgeQueues {
    max_batch: usize,
    timeout_s: f64,
    /// Per class id: its queued ids, in queue order.
    queues: Vec<VecDeque<usize>>,
    /// Per class id: the arrival of its queue head (∞ when empty).
    heads: Vec<f64>,
    /// The waiting classes with fewer than `max_batch` queued, oldest head
    /// first.
    filling: VecDeque<usize>,
    /// The waiting classes with at least `max_batch` queued, oldest head
    /// first.
    full: VecDeque<usize>,
    /// The summed queue length.
    len: usize,
    /// Where [`Self::next_deadline`] last found the first filling class
    /// that had not timed out: a hint its walk starts from, which no other
    /// operation maintains (any position gives the same answer).
    boundary: usize,
    /// The classes [`Self::take_ready`] and [`Self::next_deadline`] have
    /// inspected, counted in test builds only, so a test can check that
    /// the count per event does not grow with the number of classes.
    inspected: usize,
}

impl AgeQueues {
    fn new(max_batch: usize, timeout_s: f64, classes: usize) -> Self {
        AgeQueues {
            max_batch,
            timeout_s,
            queues: vec![VecDeque::new(); classes],
            heads: vec![f64::INFINITY; classes],
            filling: VecDeque::new(),
            full: VecDeque::new(),
            len: 0,
            boundary: 0,
            inspected: 0,
        }
    }

    /// Counts `classes` inspected classes (a no-op outside test builds).
    #[inline]
    fn inspect(&mut self, classes: usize) {
        if cfg!(test) {
            self.inspected += classes;
        }
    }

    /// Whether waiting class `a` sorts before waiting class `b`.
    fn older(heads: &[f64], a: usize, b: usize) -> bool {
        heads[a].partial_cmp(&heads[b]).expect("arrival times are finite").then(a.cmp(&b)).is_lt()
    }

    /// The head arrivals, and the index waiting class `class` belongs in.
    fn index(&mut self, class: usize) -> (&[f64], &mut VecDeque<usize>) {
        let AgeQueues { max_batch, queues, heads, filling, full, .. } = self;
        (heads, if queues[class].len() >= *max_batch { full } else { filling })
    }

    /// Files the waiting class `class` into its index, keyed by its
    /// current head.
    fn enter(&mut self, class: usize) {
        let (heads, index) = self.index(class);
        if index.back().is_none_or(|&last| Self::older(heads, last, class)) {
            index.push_back(class);
        } else {
            index.insert(index.partition_point(|&c| Self::older(heads, c, class)), class);
        }
    }

    /// Takes the waiting class `class` out of its index, before its head
    /// or its fullness changes.
    fn leave(&mut self, class: usize) {
        let (heads, index) = self.index(class);
        let at = if index.front() == Some(&class) {
            0
        } else {
            index.partition_point(|&c| Self::older(heads, c, class))
        };
        debug_assert_eq!(index.get(at), Some(&class), "a waiting class sits at its key");
        index.remove(at);
    }

    fn push(&mut self, id: usize, class: ClassId, arrival_s: f64) {
        let class = class.index();
        let queued = self.queues[class].len() + 1;
        if queued == self.max_batch && queued > 1 {
            self.leave(class);
        }
        self.queues[class].push_back(id);
        self.len += 1;
        if queued == 1 {
            self.heads[class] = arrival_s;
            self.enter(class);
        } else if queued == self.max_batch {
            self.enter(class);
        }
    }

    fn push_front(&mut self, unit: &[usize], class: ClassId, arrival_s: f64) {
        let class = class.index();
        if !self.queues[class].is_empty() {
            self.leave(class);
        }
        let queue = &mut self.queues[class];
        for &id in unit.iter().rev() {
            queue.push_front(id);
        }
        self.len += unit.len();
        self.heads[class] = arrival_s;
        self.enter(class);
    }

    /// Whether waiting class `class` has timed out at `now` (one
    /// inspection).
    fn timed_out(&mut self, class: usize, now: f64) -> bool {
        self.inspect(1);
        self.heads[class] + self.timeout_s <= now
    }

    /// The deadline of the first filling class that has not timed out:
    /// the walk starts at the boundary the previous call found, so it costs
    /// one step per class that crossed it (or per index change before it)
    /// since, not one per waiting class.
    fn next_deadline(&mut self, now: f64) -> Option<f64> {
        let mut at = self.boundary.min(self.filling.len());
        while at > 0 && !self.timed_out(self.filling[at - 1], now) {
            at -= 1;
        }
        while at < self.filling.len() && self.timed_out(self.filling[at], now) {
            at += 1;
        }
        self.boundary = at;
        self.filling.get(at).map(|&class| self.heads[class] + self.timeout_s)
    }

    fn take_ready(&mut self, now: f64, requests: &[Request], unit: &mut Vec<usize>) {
        let filling = self.filling.front().copied().filter(|&class| self.timed_out(class, now));
        let full = self.full.front().copied();
        self.inspect(usize::from(full.is_some()));
        let class = match (filling, full) {
            (Some(a), Some(b)) if Self::older(&self.heads, b, a) => self.full.pop_front(),
            (Some(_), _) => self.filling.pop_front(),
            (None, Some(_)) => self.full.pop_front(),
            (None, None) => return,
        };
        let class = class.expect("the chosen class heads its index");
        let queue = &mut self.queues[class];
        let take = queue.len().min(self.max_batch);
        unit.extend(queue.drain(..take));
        self.len -= take;
        match queue.front() {
            Some(&head) => {
                self.heads[class] = requests[head].arrival_s;
                self.enter(class);
            }
            None => self.heads[class] = f64::INFINITY,
        }
    }
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
/// Ordered as the fields are declared — (effect, decision, group, delta) —
/// which is the order ops due at the same instant apply in.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
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
    /// The open-loop stream (empty for closed loops), referenced by the
    /// cursor in [`SourceState::Open`].
    stream: &'a [Request],
    /// The cost table resolved against `cfg.groups`, once per replay.
    costs: FleetCosts<'a>,
}

/// The counters only the outcome reads (the loop reads `makespan` back
/// once, for the terminal accrual). They are cumulative, so they ride in
/// the [`EngineState`]: the last fragment's state holds the totals.
#[derive(Debug, Clone, Default)]
struct Tally {
    tenant_offered: Vec<u64>,
    tenant_shed: Vec<u64>,
    shed_queue: u64,
    shed_limit: u64,
    provision_failures: u64,
    makespan: f64,
    depth_integral: f64,
    depth_max: usize,
    /// Requests in flight — admitted and not yet completed: +1 per
    /// admission, −size per completed batch. A crash's re-queued batch
    /// stays in.
    live: usize,
    /// The largest `live` after any event's admissions (which follow
    /// its completions, so it is the count at the end of an instant).
    live_max: usize,
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
    /// The batch each shard slot is serving (empty = none) — storage only:
    /// which slots serve and when each finishes is the fleet's completion
    /// calendar. A slot's vector is recycled from batch to batch.
    in_flight: Vec<Vec<usize>>,
    gates: Vec<Option<TenantGate>>,
    pending_ops: Vec<PendingOp>,
    next_check: Option<f64>,
    tally: Tally,
}

impl EngineState {
    /// What a drained state contributes to the outcome.
    fn finish(self, stream: &[Request]) -> Terminal {
        let arrived = self.source.arrived(stream);
        Terminal {
            arrivals_s: arrived.iter().map(|r| r.arrival_s).collect(),
            tenants: arrived.iter().map(|r| r.tenant).collect(),
            shard_stats: self.fleet.stats().to_vec(),
            shard_groups: self.fleet.shard_groups().to_vec(),
            group_stats: self.fleet.group_stats(),
            tally: self.tally,
        }
    }
}

/// The terminal side of a replay in the coordinates of its outcome —
/// arrived requests (id-ordered), closing counters, the fleet's books —
/// from [`EngineState::finish`] or, for a lane replay, [`merge_lanes`].
struct Terminal {
    arrivals_s: Vec<f64>,
    tenants: Vec<usize>,
    tally: Tally,
    shard_stats: Vec<ShardStats>,
    shard_groups: Vec<usize>,
    group_stats: Vec<GroupStats>,
}

/// The facts the event loop emits, one method per fact, called in event
/// order. Every body is empty by default and the loop is generic over its
/// recorder, so whatever only a recorder needs — a latency, the service
/// time a crash retracted, a [`TraceEvent`] — is computed inside one and
/// a pass that records nothing compiles to the bare dynamics.
trait Record {
    /// A unit of `requests` requests started `service_s` seconds of
    /// service on `shard` of `group`.
    fn dispatch(
        &mut self,
        _at_s: f64,
        _shard: usize,
        _group: usize,
        _requests: usize,
        _service_s: f64,
    ) {
    }
    /// Request `id`'s batch finished: its latency is final.
    fn complete(&mut self, _finish_s: f64, _id: usize, _request: &Request) {}
    /// A batch of `size` requests finished.
    fn batch_done(&mut self, _finish_s: f64, _size: usize) {}
    /// Request `id` of `tenant` entered the system.
    fn arrival(&mut self, _at_s: f64, _id: usize, _tenant: usize) {}
    /// Request `id` passed admission into the backlog.
    fn admit(&mut self, _at_s: f64, _id: usize) {}
    /// Request `id` of `tenant` was refused at admission.
    fn shed(&mut self, _at_s: f64, _id: usize, _tenant: usize, _reason: ShedReason) {}
    /// A shard crashed; `busy_until_s` is its horizon before the crash
    /// retracted it.
    fn crash(&mut self, _crash: CrashEvent, _busy_until_s: f64) {}
    /// A scheduled scale-up of `group` failed to provision.
    fn provision_failure(&mut self, _at_s: f64, _group: usize) {}
    /// `op` took effect at `at_s`, leaving `fleet` behind.
    fn scale(&mut self, _op: &PendingOp, _at_s: f64, _fleet: &ShardFleet) {}
}

/// Records nothing: the epoch plan's seam-finding pass.
impl Record for () {}

/// One fragment's recorded slice of the outputs: everything a replay
/// appends to as it runs.
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

    fn trace(&mut self, event: TraceEvent) {
        if let Some(events) = &mut self.events {
            events.push(event);
        }
    }

    /// Appends the slice of the fragment that follows this one.
    fn append(&mut self, next: FragmentOut) {
        self.latencies.extend(next.latencies);
        self.shed.extend(next.shed);
        self.batch_sizes.extend(next.batch_sizes);
        self.crash_events.extend(next.crash_events);
        self.scale_events.extend(next.scale_events);
        if let (Some(events), Some(next)) = (&mut self.events, next.events) {
            events.extend(next);
        }
    }
}

impl Record for FragmentOut {
    fn dispatch(&mut self, at_s: f64, shard: usize, group: usize, requests: usize, service_s: f64) {
        self.trace(TraceEvent::Dispatch { at_s, shard, group, requests, service_s });
    }

    fn complete(&mut self, finish_s: f64, id: usize, request: &Request) {
        let latency_s = finish_s - request.arrival_s;
        self.latencies.push((id, latency_s));
        self.trace(TraceEvent::Complete { at_s: finish_s, id, tenant: request.tenant, latency_s });
    }

    fn batch_done(&mut self, finish_s: f64, size: usize) {
        self.batch_sizes.push((finish_s, size));
    }

    fn arrival(&mut self, at_s: f64, id: usize, tenant: usize) {
        self.trace(TraceEvent::Arrival { at_s, id, tenant });
    }

    fn admit(&mut self, at_s: f64, id: usize) {
        self.trace(TraceEvent::Admit { at_s, id });
    }

    fn shed(&mut self, at_s: f64, id: usize, tenant: usize, reason: ShedReason) {
        self.latencies.push((id, SHED_LATENCY_S));
        self.shed.push(id);
        self.trace(TraceEvent::Shed { at_s, id, tenant, reason });
    }

    fn crash(&mut self, crash: CrashEvent, busy_until_s: f64) {
        let CrashEvent { at_s, shard, group, redispatched } = crash;
        let lost_service_s = if redispatched > 0 { (busy_until_s - at_s).max(0.0) } else { 0.0 };
        self.crash_events.push(crash);
        self.trace(TraceEvent::Crash { at_s, shard, group, redispatched, lost_service_s });
    }

    fn provision_failure(&mut self, at_s: f64, group: usize) {
        self.trace(TraceEvent::ProvisionFailure { at_s, group });
    }

    fn scale(&mut self, op: &PendingOp, at_s: f64, fleet: &ShardFleet) {
        let (group, delta, active_total) = (op.group, op.delta, fleet.active_shards());
        self.scale_events.push(ScaleEvent {
            decision_s: op.decision_s,
            effect_s: at_s,
            group,
            delta,
            active_total,
        });
        self.trace(TraceEvent::Scale { at_s, group, delta, active_total });
    }
}

/// The event-loop state at `t = 0`, mirroring the serial prelude.
///
/// # Panics
///
/// Panics when the fleet is empty or an autoscaled group starts outside
/// the policy bounds.
fn initial_state(ctx: &Ctx<'_>, tenants: Option<&TenantMix>, source: SourceState) -> EngineState {
    let cfg = ctx.cfg;
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
        backlog: Backlog::new(cfg.policy, &ctx.costs),
        next_check: cfg.autoscale.map(|p| p.check_interval_s),
        fleet,
        plan,
        source,
        in_flight,
        gates,
        pending_ops: Vec::new(),
        tally: Tally {
            tenant_offered: vec![0; tenant_count],
            tenant_shed: vec![0; tenant_count],
            ..Tally::default()
        },
    }
}

/// One call of the event loop: the replay's context, the state it
/// advances and the buffer its dispatches reuse. [`Self::run_until`] is
/// the loop; the other methods are its steps, in the order it runs them.
struct Engine<'a> {
    ctx: &'a Ctx<'a>,
    st: &'a mut EngineState,
    /// The unit on offer.
    unit: Vec<usize>,
}

impl<'a> Engine<'a> {
    fn new(ctx: &'a Ctx<'a>, st: &'a mut EngineState) -> Self {
        Engine { ctx, st, unit: Vec::new() }
    }

    /// Advances the state until the next event would land at or after
    /// `limit`, or until no further event exists. Returns `true` when the
    /// replay drained (no event at any time — the terminal state),
    /// `false` when it paused at the limit.
    ///
    /// The pause happens *before* the time-advance accrual, so the span
    /// that crosses the boundary is accrued in a single `f64` operation
    /// by the next fragment, and an event exactly on a boundary belongs
    /// to the next fragment (fragments cover half-open windows `[start,
    /// limit)`). On drain the terminal capacity accrual runs (provisioned
    /// capacity is paid for until the last batch completes) and `now`
    /// advances to the makespan, so re-entering a drained state is a
    /// no-op rather than a second accrual.
    fn run_until<R: Record>(mut self, limit: f64, rec: &mut R) -> bool {
        loop {
            self.dispatch_ready(rec);
            let t_next = self.next_event_s();
            let st = &mut *self.st;
            if !t_next.is_finite() {
                // Drained: the terminal accrual, once.
                if st.tally.makespan > st.now {
                    st.fleet.accrue(st.tally.makespan - st.now);
                    st.now = st.tally.makespan;
                }
                return true;
            }
            if t_next >= limit {
                return false;
            }
            st.fleet.accrue(t_next - st.now);
            st.tally.depth_integral += st.backlog.len() as f64 * (t_next - st.now);
            st.now = t_next;

            self.complete_due(rec);
            self.admit_due(rec);
            self.crash_due(rec);
            self.apply_provisioning(rec);
            self.autoscale_check();
        }
    }

    /// Dispatches every unit that is ready while an idle shard exists; the
    /// [`DispatchKind`](crate::dispatch::DispatchKind) picks *which* idle
    /// shard serves each unit, or holds it (returning the unit to the queue
    /// head) to wait for busy preferred silicon — in which case the next
    /// release is the event that re-offers it. Latencies finalise at
    /// *completion*, not here: a crash may still retract the batch.
    /// Re-running this step when a fragment resumes is a state-preserving
    /// no-op: everything dispatchable at the pause instant was already
    /// dispatched (or held, and the hold re-selects the same unit and
    /// restores it).
    fn dispatch_ready<R: Record>(&mut self, rec: &mut R) {
        let (ctx, st) = (self.ctx, &mut *self.st);
        while st.fleet.has_idle() {
            let arrived = st.source.arrived(ctx.stream);
            if !st.backlog.take_ready(st.now, arrived, &mut self.unit) {
                break;
            }
            let head = arrived[self.unit[0]];
            let class = ctx.costs.class_id(head.class);
            let requests = self.unit.len();
            let Some(shard) =
                ctx.cfg.dispatch.choose(&st.fleet, class, requests, st.now, &ctx.costs)
            else {
                debug_assert!(
                    st.fleet.next_busy_free_at().is_finite(),
                    "a policy may only hold a batch while some shard is busy"
                );
                st.backlog.push_front(&self.unit, class, head.arrival_s, &ctx.costs);
                break;
            };
            let group = st.fleet.group_of(shard);
            let healthy = ctx.costs.service_seconds(group, class, requests);
            let degraded = st.plan.as_ref().map_or(1.0, |p| p.multiplier(group));
            let service_s = healthy * degraded;
            st.fleet.dispatch(shard, st.now, service_s, requests as u64);
            rec.dispatch(st.now, shard, group, requests, service_s);
            // The slot's previous batch completed and left its (empty)
            // vector behind: that becomes the next unit buffer.
            debug_assert!(st.in_flight[shard].is_empty(), "an idle shard serves no batch");
            std::mem::swap(&mut st.in_flight[shard], &mut self.unit);
        }
    }

    /// The time of the next event: an arrival, a batch completing (the
    /// head of the fleet's completion calendar), a batch timeout expiring,
    /// an injected crash, a scheduled fleet change taking effect, or an
    /// autoscaler check (crashes and checks only while work remains —
    /// otherwise they could tick forever); infinite when none is left.
    /// After [`Self::dispatch_ready`] each of these lies in the future, and
    /// every finite-time source is consumed when due, so the loop always
    /// makes progress.
    fn next_event_s(&mut self) -> f64 {
        let (ctx, st) = (self.ctx, &mut *self.st);
        let next_arrival = st.source.next_time(ctx.stream);
        let next_completion = st.fleet.next_busy_free_at();
        let work_remains = next_arrival.is_some()
            || st.backlog.len() > 0
            || !st.pending_ops.is_empty()
            || next_completion.is_finite();
        let mut t_next = next_arrival.unwrap_or(f64::INFINITY).min(next_completion);
        if let Some(deadline) = st.backlog.next_deadline(st.now) {
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
        t_next
    }

    /// Completions due at `now` finalise, in slot order: the batch really
    /// finished, so its latencies are now facts no crash can retract. They
    /// pop off the fleet's completion calendar, earliest finish then lowest
    /// slot first; `now` is never past the calendar's head (it is one of
    /// the times [`Self::next_event_s`] takes the minimum over), so every
    /// due batch finishes exactly at `now` and the pop order is slot order.
    fn complete_due<R: Record>(&mut self, rec: &mut R) {
        let (ctx, st) = (self.ctx, &mut *self.st);
        while let Some((finish, slot)) = st.fleet.pop_completion(st.now) {
            debug_assert_eq!(finish, st.now, "a batch completes at its finish, never later");
            let batch = &mut st.in_flight[slot];
            for &id in batch.iter() {
                let request = st.source.arrived(ctx.stream)[id];
                st.source.on_complete(id, finish);
                rec.complete(finish, id, &request);
            }
            st.tally.makespan = st.tally.makespan.max(finish);
            st.tally.live -= batch.len();
            rec.batch_done(finish, batch.len());
            batch.clear();
        }
    }

    /// Arrivals due at `now` pass admission into the backlog (after
    /// completions, so a zero-think closed-loop re-issue lands in the
    /// same event). An arrival sheds when the backlog is at its bound, or
    /// when its tenant's token bucket is empty — open-loop arrivals only:
    /// closed-loop clients self-limit (they wait for their response
    /// instead of being dropped), and shedding their zero-think re-issues
    /// would spin the clock.
    fn admit_due<R: Record>(&mut self, rec: &mut R) {
        let (ctx, st) = (self.ctx, &mut *self.st);
        let now = st.now;
        let gated = matches!(st.source, SourceState::Open { .. });
        let first_new = st.source.arrived(ctx.stream).len();
        st.source.pop_due(now, ctx.stream);
        for id in first_new..st.source.arrived(ctx.stream).len() {
            let Request { class, tenant, arrival_s, .. } = st.source.arrived(ctx.stream)[id];
            if let Some(count) = st.tally.tenant_offered.get_mut(tenant) {
                *count += 1;
            }
            rec.arrival(now, id, tenant);
            let gate = st.gates.get_mut(tenant).and_then(Option::as_mut);
            let refusal = if !gated {
                None
            } else if ctx.cfg.queue_bound.is_some_and(|bound| st.backlog.len() >= bound) {
                st.tally.shed_queue += 1;
                Some(ShedReason::QueueFull)
            } else if gate.is_some_and(|gate| !gate.admit(now)) {
                st.tally.shed_limit += 1;
                Some(ShedReason::RateLimited)
            } else {
                None
            };
            match refusal {
                None => {
                    st.backlog.push(id, ctx.costs.class_id(class), arrival_s, &ctx.costs);
                    st.tally.live += 1;
                    rec.admit(now, id);
                }
                Some(reason) => {
                    if let Some(count) = st.tally.tenant_shed.get_mut(tenant) {
                        *count += 1;
                    }
                    rec.shed(now, id, tenant, reason);
                    st.source.on_complete(id, now);
                }
            }
        }
        st.tally.depth_max = st.tally.depth_max.max(st.backlog.len());
        st.tally.live_max = st.tally.live_max.max(st.tally.live);
    }

    /// Injected crashes due at `now`: the victim is the busiest active
    /// shard of the scheduled group (ties to the lowest slot), its
    /// in-flight batch returns to the queue head — re-queued work
    /// bypasses admission; admitted work is never shed — and the slot
    /// deactivates. A crash that would empty the fleet, or lands in a
    /// group with no active shard, is skipped: the simulation models
    /// degraded service, not total outage.
    fn crash_due<R: Record>(&mut self, rec: &mut R) {
        let (ctx, st) = (self.ctx, &mut *self.st);
        let Some(plan) = st.plan.as_mut() else { return };
        while let Some((at, group)) = plan.pop_crash_due(st.now) {
            debug_assert!(at <= st.now, "crashes pop when due");
            if st.fleet.active_shards() <= 1 {
                continue;
            }
            let victim =
                st.fleet.group_slots(group).filter(|&s| st.fleet.is_active(s)).max_by(|&a, &b| {
                    st.fleet
                        .busy_until(a)
                        .partial_cmp(&st.fleet.busy_until(b))
                        .expect("busy horizons are finite")
                        .then(b.cmp(&a))
                });
            let Some(victim) = victim else { continue };
            let batch = &mut st.in_flight[victim];
            let redispatched = batch.len();
            if redispatched > 0 {
                let head = st.source.arrived(ctx.stream)[batch[0]];
                let class = ctx.costs.class_id(head.class);
                st.backlog.push_front(batch, class, head.arrival_s, &ctx.costs);
                batch.clear();
            }
            let crash = CrashEvent { at_s: st.now, shard: victim, group, redispatched };
            rec.crash(crash, st.fleet.busy_until(victim));
            st.fleet.crash(victim, st.now, redispatched as u64);
            st.tally.depth_max = st.tally.depth_max.max(st.backlog.len());
        }
    }

    /// Provisioning effects due at `now` apply, in [`PendingOp`] order. A
    /// scale-up rolls the fault plan's provisioning
    /// die first — a failed roll leaves the slot inactive and counts a
    /// provisioning failure. Scale-downs go through the policy's shared
    /// retire path, which re-checks the per-group floor and idleness at
    /// effect time.
    fn apply_provisioning<R: Record>(&mut self, rec: &mut R) {
        let (ctx, st) = (self.ctx, &mut *self.st);
        while let Some(pos) = st
            .pending_ops
            .iter()
            .enumerate()
            .filter(|(_, op)| op.effect_s <= st.now)
            .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("op times are finite"))
            .map(|(pos, _)| pos)
        {
            let op = st.pending_ops.remove(pos);
            let applied = if op.delta > 0 {
                if st.plan.as_mut().is_none_or(FaultPlan::provision_succeeds) {
                    st.fleet.activate(op.group, st.now).is_some()
                } else {
                    st.tally.provision_failures += 1;
                    rec.provision_failure(st.now, op.group);
                    false
                }
            } else {
                ctx.cfg
                    .autoscale
                    .expect("pending ops only exist under an autoscaler")
                    .retire_idle(&mut st.fleet, op.group)
                    .is_some()
            };
            if applied {
                rec.scale(&op, st.now, &st.fleet);
            }
        }
    }

    /// The autoscaler's periodic decision.
    fn autoscale_check(&mut self) {
        let st = &mut *self.st;
        let (Some(policy), Some(check)) = (self.ctx.cfg.autoscale, st.next_check) else { return };
        if check > st.now {
            return;
        }
        let mut pending = vec![0i64; st.fleet.group_count()];
        for op in &st.pending_ops {
            pending[op.group] += op.delta;
        }
        let delta = match policy.decide(&st.fleet, st.backlog.len(), &pending) {
            Decision::Hold => None,
            Decision::Up { group } => Some((group, 1)),
            Decision::Down { group } => Some((group, -1)),
        };
        st.pending_ops.extend(delta.map(|(group, delta)| PendingOp {
            effect_s: st.now + policy.provision_delay_s,
            decision_s: st.now,
            group,
            delta,
        }));
        st.next_check = Some(check + policy.check_interval_s);
    }
}

/// Runs the loop on `st` up to `limit` with recording on and returns the
/// fragment's slice of the outputs.
fn record(ctx: &Ctx<'_>, st: &mut EngineState, limit: f64, tracing: bool) -> FragmentOut {
    let mut out = FragmentOut::new(tracing);
    Engine::new(ctx, st).run_until(limit, &mut out);
    out
}

/// Builds the [`ServeOutcome`] (and trace) of a replay from its terminal
/// side and its recorded outputs — the one place either is put together.
fn assemble(
    cfg: &ServeConfig<'_>,
    tenants: Option<&TenantMix>,
    end: Terminal,
    out: FragmentOut,
) -> (ServeOutcome, Option<Trace>) {
    let mut latencies = vec![f64::NAN; end.arrivals_s.len()];
    for &(id, latency) in &out.latencies {
        debug_assert!(latencies[id].is_nan(), "request {id} resolved twice");
        latencies[id] = latency;
    }
    debug_assert!(
        latencies.iter().all(|&l| l >= 0.0 || l == SHED_LATENCY_S),
        "every request is served or shed, exactly once"
    );
    let tenants = tenants.map_or(&[][..], TenantMix::tenants);
    let Tally { makespan, depth_integral, .. } = end.tally;
    let trace = out.events.map(|events| Trace {
        groups: cfg
            .groups
            .iter()
            .map(|g| TraceGroup { name: g.name.clone(), initial_shards: g.shards })
            .collect(),
        tenants: tenants
            .iter()
            .map(|t| TraceTenant { name: t.name.clone(), slo_s: t.slo_s })
            .collect(),
        events,
    });
    let outcome = ServeOutcome {
        latencies_s: latencies,
        arrivals_s: end.arrivals_s,
        tenants: end.tenants,
        shed: out.shed,
        shed_queue: end.tally.shed_queue,
        shed_limit: end.tally.shed_limit,
        tenant_outcomes: tenants
            .iter()
            .enumerate()
            .map(|(i, t)| TenantOutcome {
                name: t.name.clone(),
                slo_s: t.slo_s,
                offered: end.tally.tenant_offered[i],
                shed: end.tally.tenant_shed[i],
            })
            .collect(),
        crash_events: out.crash_events,
        provision_failures: end.tally.provision_failures,
        makespan_s: makespan,
        queue_depth_mean: if makespan > 0.0 { depth_integral / makespan } else { 0.0 },
        queue_depth_max: end.tally.depth_max,
        peak_in_flight: end.tally.live_max,
        batch_sizes: out.batch_sizes.into_iter().map(|(_, size)| size).collect(),
        shard_stats: end.shard_stats,
        shard_groups: end.shard_groups,
        group_stats: end.group_stats,
        scale_events: out.scale_events,
    };
    (outcome, trace)
}

/// Runs one scenario — `source` over `stream`, which is empty for a closed
/// loop — as epoch fragments, a window at a time: a cheap serial pass finds
/// the seam state each fragment of the window starts from, the window
/// replays concurrently with output recording on, and the slices concatenate
/// in epoch order. Memory follows the window, not the epoch count.
fn run_fragments(
    stream: &[Request],
    source: SourceState,
    cfg: &ServeConfig<'_>,
    tenants: Option<&TenantMix>,
    horizon: f64,
    plan: &EnginePlan,
    tracing: bool,
) -> (ServeOutcome, Option<Trace>) {
    let ctx = &Ctx { cfg, stream, costs: FleetCosts::new(cfg.costs, cfg.groups) };
    let initial = initial_state(ctx, tenants, source);
    let boundaries = plan.boundaries(horizon);
    if boundaries.is_empty() {
        // Serial fast path: one fragment, no seam clones, no fan-out.
        let mut st = initial;
        let out = record(ctx, &mut st, f64::INFINITY, tracing);
        return assemble(cfg, tenants, st.finish(stream), out);
    }

    // One fragment per limit, in windows wide enough to keep every worker busy.
    let limits: Vec<f64> = boundaries.into_iter().chain([f64::INFINITY]).collect();
    let runner = plan.runner();
    let window = usize::max(8, 4 * runner.threads());
    let mut merged = FragmentOut::new(tracing);
    let mut cursor = initial;
    for limits in limits.chunks(window) {
        // Pass 1 (serial, nothing recorded): the seam state each fragment
        // starts from. Re-entering a drained state is a no-op, so the walk
        // safely covers boundaries past the end of the action.
        let mut fragments = vec![(cursor, limits[0])];
        for &limit in &limits[1..] {
            let (seam, reached) = fragments.last().expect("the window's first fragment");
            let mut next = seam.clone();
            Engine::new(ctx, &mut next).run_until(*reached, &mut ());
            fragments.push((next, limit));
        }

        // Pass 2 (parallel): replay the window with recording on. Results
        // come back in fragment order whatever the thread interleaving, and
        // outputs never feed back into the dynamics, so concatenation is the
        // serial output byte for byte — and the state the last replay ends in
        // (the only one kept) is the seam the next window starts from.
        let last = fragments.len() - 1;
        let mut results = runner.run(&fragments, |index, (seam, limit)| {
            let mut st = seam.clone();
            let out = record(ctx, &mut st, *limit, tracing);
            (out, (index == last).then_some(st))
        });
        cursor = results[last].1.take().expect("the last fragment keeps its state");
        for (out, _) in results {
            merged.append(out);
        }
    }
    assemble(cfg, tenants, cursor.finish(stream), merged)
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
    let results = plan.runner().run(&lane_fleets, |lane, groups| {
        let mut lane_cfg = *cfg;
        lane_cfg.groups = groups;
        let (clients, first) = spec.lane_clients(lane, lanes);
        let costs = FleetCosts::new(lane_cfg.costs, lane_cfg.groups);
        let ctx = Ctx { cfg: &lane_cfg, stream: &[], costs };
        let mut st = initial_state(&ctx, None, SourceState::closed(clients, first));
        let out = record(&ctx, &mut st, f64::INFINITY, tracing);
        (st, out)
    });
    let (end, out) = merge_lanes(cfg, results, tracing);
    assemble(cfg, None, end, out)
}

/// Orders items laid down lane after lane by `(time, lane, position)`:
/// the sort is stable and keyed by time alone, so items of equal time
/// keep the lane-major order they arrived in.
fn by_time<T>(mut items: Vec<T>, time_s: impl Fn(&T) -> f64) -> Vec<T> {
    items.sort_by(|a, b| time_s(a).partial_cmp(&time_s(b)).expect("event times are finite"));
    items
}

/// Deterministic lane merge: reduces the lanes to one [`Terminal`] and
/// one [`FragmentOut`] in merged coordinates — global request ids by
/// `(arrival, lane, local id)`, shard slots re-laid group-major with each
/// group's lanes contiguous, batches and trace events by `(time, lane,
/// sequence)`, and every `f64` aggregate summed in lane order — so what
/// [`assemble`] builds from them is identical for every thread count.
fn merge_lanes(
    cfg: &ServeConfig<'_>,
    lanes: Vec<(EngineState, FragmentOut)>,
    tracing: bool,
) -> (Terminal, FragmentOut) {
    // Lane-local shard slot → merged slot. Lane fleets are group-major
    // over the same groups, so merged slots are handed out group by group
    // and, within a group, lane by lane.
    let mut slot_maps = vec![Vec::new(); lanes.len()];
    let mut total_slots = 0;
    for group in cfg.groups {
        for (lane, map) in slot_maps.iter_mut().enumerate() {
            let share = lane_share(group.shards, lane, lanes.len());
            map.extend(total_slots..total_slots + share);
            total_slots += share;
        }
    }

    // Global ids: every lane's arrivals merged by (time, lane, local id).
    let mut order = Vec::new();
    let mut id_maps = Vec::with_capacity(lanes.len());
    for (lane, (st, _)) in lanes.iter().enumerate() {
        let arrived = st.source.arrived(&[]);
        order.extend(arrived.iter().map(|r| (r.arrival_s, lane, r.id)));
        id_maps.push(vec![usize::MAX; arrived.len()]);
    }
    let order = by_time(order, |&(arrival_s, _, _)| arrival_s);
    for (global, &(_, lane, local)) in order.iter().enumerate() {
        id_maps[lane][local] = global;
    }

    // Per-group counters summed in lane order. Active shard counts are
    // constant per lane (no autoscaling, no crashes), so summed peaks
    // equal the merged peak.
    let group_stats = lanes
        .iter()
        .map(|(st, _)| st.fleet.group_stats())
        .reduce(|mut merged, lane| {
            merged.iter_mut().zip(&lane).for_each(|(group, share)| group.absorb(share));
            merged
        })
        .expect("a lane plan has at least one lane");
    let mut end = Terminal {
        arrivals_s: order.iter().map(|&(arrival_s, _, _)| arrival_s).collect(),
        tenants: vec![0; order.len()],
        tally: Tally::default(),
        shard_stats: vec![ShardStats::default(); total_slots],
        shard_groups: vec![0; total_slots],
        group_stats,
    };
    let mut out = FragmentOut::new(tracing);
    for ((st, lane_out), (ids, slots)) in lanes.into_iter().zip(id_maps.iter().zip(&slot_maps)) {
        debug_assert!(
            lane_out.shed.is_empty()
                && lane_out.crash_events.is_empty()
                && lane_out.scale_events.is_empty(),
            "lane-eligible scenarios shed nothing and never change the fleet"
        );
        // Scalar aggregates, summed in lane order for f64 determinism.
        end.tally.makespan = end.tally.makespan.max(st.tally.makespan);
        end.tally.depth_integral += st.tally.depth_integral;
        end.tally.depth_max = end.tally.depth_max.max(st.tally.depth_max);
        for (local, &slot) in slots.iter().enumerate() {
            end.shard_stats[slot] = st.fleet.stats()[local];
            end.shard_groups[slot] = st.fleet.group_of(local);
        }
        out.latencies.extend(lane_out.latencies.iter().map(|&(id, latency)| (ids[id], latency)));
        out.batch_sizes.extend(lane_out.batch_sizes);
        for event in lane_out.events.into_iter().flatten() {
            out.trace(remap_event(event, ids, slots));
        }
    }
    out.batch_sizes = by_time(out.batch_sizes, |&(finish_s, _)| finish_s);
    out.events = out.events.map(|events| by_time(events, TraceEvent::at_s));
    end.tally.live_max = peak_live(&end.arrivals_s, &out.batch_sizes);
    (end, out)
}

/// The peak in-flight count over time-ordered arrivals (every one
/// admitted) and time-ordered `(finish, size)` batches: each arrival
/// counts in after every batch that finished at or before it, the order
/// the event loop completes and admits in at one instant.
fn peak_live(arrivals_s: &[f64], batches: &[(f64, usize)]) -> usize {
    let (mut live, mut peak, mut done) = (0usize, 0usize, 0);
    for &arrival in arrivals_s {
        while let Some(&(_, size)) = batches.get(done).filter(|&&(finish, _)| finish <= arrival) {
            live -= size;
            done += 1;
        }
        live += 1;
        peak = peak.max(live);
    }
    peak
}

/// Rewrites a lane-local trace event into merged coordinates.
fn remap_event(mut event: TraceEvent, ids: &[usize], slots: &[usize]) -> TraceEvent {
    match &mut event {
        TraceEvent::Arrival { id, .. }
        | TraceEvent::Admit { id, .. }
        | TraceEvent::Shed { id, .. }
        | TraceEvent::Complete { id, .. } => *id = ids[*id],
        TraceEvent::Dispatch { shard, .. } | TraceEvent::Crash { shard, .. } => {
            *shard = slots[*shard];
        }
        TraceEvent::Scale { .. } | TraceEvent::ProvisionFailure { .. } => {}
    }
    event
}

fn run_workload(
    workload: &Workload,
    cfg: &ServeConfig<'_>,
    plan: &EnginePlan,
    tracing: bool,
) -> (ServeOutcome, Option<Trace>) {
    let open = SourceState::Open { cursor: 0 };
    match workload {
        Workload::Shaped(shaped) => {
            let stream = shaped.generate();
            let tenants = cfg.tenants.or(shaped.tenants.as_ref());
            run_fragments(&stream, open, cfg, tenants, shaped.base.duration_s, plan, tracing)
        }
        Workload::Replay(stream) => {
            assert_sorted(stream);
            let horizon = stream.last().map_or(0.0, |r| r.arrival_s);
            run_fragments(stream, open, cfg, cfg.tenants, horizon, plan, tracing)
        }
        Workload::Closed(spec) => {
            let lanes = lane_count(spec, cfg, plan);
            if lanes > 1 {
                return run_lanes(spec, cfg, lanes, plan, tracing);
            }
            let (clients, first) = spec.clients();
            let source = SourceState::closed(clients, first);
            run_fragments(&[], source, cfg, cfg.tenants, spec.duration_s, plan, tracing)
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
    use crate::cost::{ClassCost, CostTable, RequestClass};

    /// The backlog as it was before SJF got its own ordered variant and
    /// `Classed` its running length and dense class ids: FIFO and SJF share
    /// one arrival-ordered queue, SJF selects by a linear scan with a weight
    /// lookup per queued request, batching keeps a queue per present class
    /// in class order, and its length is summed per call. Kept as the
    /// reference the differential tests replay against.
    #[derive(Debug, Clone)]
    enum ReferenceBacklog {
        Single(VecDeque<usize>),
        Classed(Vec<(RequestClass, VecDeque<usize>)>),
    }

    fn front_arrival(queue: &VecDeque<usize>, requests: &[Request]) -> f64 {
        queue.front().map(|&id| requests[id].arrival_s).unwrap_or(f64::INFINITY)
    }

    fn queue_ready(
        queue: &VecDeque<usize>,
        requests: &[Request],
        max_batch: usize,
        timeout_s: f64,
        now: f64,
    ) -> bool {
        queue.len() >= max_batch || front_arrival(queue, requests) + timeout_s <= now
    }

    /// The queue of `class`, inserted in class order when absent.
    fn class_queue(
        queues: &mut Vec<(RequestClass, VecDeque<usize>)>,
        class: RequestClass,
    ) -> &mut VecDeque<usize> {
        let pos = queues.binary_search_by_key(&class, |&(c, _)| c).unwrap_or_else(|pos| {
            queues.insert(pos, (class, VecDeque::new()));
            pos
        });
        &mut queues[pos].1
    }

    impl ReferenceBacklog {
        fn new(policy: Policy) -> Self {
            match policy {
                Policy::Fifo | Policy::Sjf => ReferenceBacklog::Single(VecDeque::new()),
                Policy::BatchByDataset { .. } => ReferenceBacklog::Classed(Vec::new()),
            }
        }

        fn push(&mut self, id: usize, class: RequestClass) {
            match self {
                ReferenceBacklog::Single(queue) => queue.push_back(id),
                ReferenceBacklog::Classed(queues) => class_queue(queues, class).push_back(id),
            }
        }

        fn push_front(&mut self, unit: &[usize], class: RequestClass) {
            let queue = match self {
                ReferenceBacklog::Single(queue) => queue,
                ReferenceBacklog::Classed(queues) => class_queue(queues, class),
            };
            for &id in unit.iter().rev() {
                queue.push_front(id);
            }
        }

        fn len(&self) -> usize {
            match self {
                ReferenceBacklog::Single(queue) => queue.len(),
                ReferenceBacklog::Classed(queues) => queues.iter().map(|(_, q)| q.len()).sum(),
            }
        }

        fn next_deadline(&self, now: f64, policy: Policy, requests: &[Request]) -> Option<f64> {
            let (
                ReferenceBacklog::Classed(queues),
                Policy::BatchByDataset { max_batch, timeout_s },
            ) = (self, policy)
            else {
                return None;
            };
            queues
                .iter()
                .filter(|(_, q)| !queue_ready(q, requests, max_batch, timeout_s, now))
                .map(|(_, q)| front_arrival(q, requests) + timeout_s)
                .reduce(f64::min)
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
                        .filter(|(_, q)| queue_ready(q, requests, max_batch, timeout_s, now))
                        .min_by(|(ca, qa), (cb, qb)| {
                            let (ha, hb) =
                                (front_arrival(qa, requests), front_arrival(qb, requests));
                            ha.partial_cmp(&hb).expect("arrival times are finite").then(ca.cmp(cb))
                        })
                        .map(|(class, _)| *class)?;
                    let pos = queues.iter().position(|&(c, _)| c == class)?;
                    let queue = &mut queues[pos].1;
                    let take = queue.len().min(max_batch);
                    let batch: Vec<usize> = queue.drain(..take).collect();
                    if queue.is_empty() {
                        queues.remove(pos);
                    }
                    Some(batch)
                }
                _ => unreachable!("backlog shape always matches the policy"),
            }
        }
    }

    /// Class weights, repeated over the classes of a table, so SJF ties
    /// fall through to the id (five classes hold two pairs of ties).
    const WEIGHTS: [u64; 5] = [30, 10, 20, 10, 30];

    /// Request class `index` of a table of `classes` classes.
    fn class(index: usize, classes: usize) -> RequestClass {
        RequestClass { dataset: index % classes, shrink: 1 }
    }

    /// `classes` classes weighing [`WEIGHTS`] in turn.
    fn weights(classes: usize) -> CostTable {
        let mut table = CostTable::new();
        table.register_rate("chip", 1e-9);
        for index in 0..classes {
            let flops = WEIGHTS[index % WEIGHTS.len()];
            table.insert("chip", class(index, classes), ClassCost { cycles: 1, flops });
        }
        table
    }

    const ARRIVAL_GAP_S: f64 = 0.001;

    /// Replays `ops` over `classes` classes on the backlog and on the
    /// reference and checks, after every step, that both hold the same
    /// number of requests, hand out the same units and report the same
    /// next deadline. An op is `(kind, pick)`: 0–1 an arrival of class
    /// `pick`; 2 a dispatch; 3 a hold (the unit goes straight back); 4 a
    /// crash (an earlier dispatched unit comes back); 5 a crash of two
    /// same-class units at once, re-queued as one multi-id unit; 6 a
    /// dispatch at the instant the next batch timeout expires. Batches
    /// larger than a class queue's `max_batch` drain it partially, so every
    /// way a queue's head changes — a push into an empty queue, a hold or
    /// crash re-queue, a partial drain — is followed by a selection and a
    /// deadline. Returns the classes a batching backlog inspected before
    /// the final drain.
    fn replay_against_the_reference(
        policy: Policy,
        ops: &[(usize, usize)],
        classes: usize,
    ) -> usize {
        let table = weights(classes);
        let costs = FleetCosts::new(&table, &[]);
        let mut backlog = Backlog::new(policy, &costs);
        let mut reference = ReferenceBacklog::new(policy);
        let mut requests: Vec<Request> = Vec::new();
        let mut dispatched: Vec<Vec<usize>> = Vec::new();
        let mut unit = vec![usize::MAX];
        for (step, &(kind, pick)) in ops.iter().enumerate() {
            // Time follows the arrivals, plus a pick-dependent slack so
            // batch timeouts sometimes have and sometimes have not expired.
            let mut now = requests.len() as f64 * ARRIVAL_GAP_S + (pick % 4) as f64 * ARRIVAL_GAP_S;
            let requeue =
                |unit: &[usize], backlog: &mut Backlog, reference: &mut ReferenceBacklog| {
                    let head = requests[unit[0]];
                    backlog.push_front(unit, costs.class_id(head.class), head.arrival_s, &costs);
                    reference.push_front(unit, head.class);
                };
            match kind {
                0 | 1 => {
                    let id = requests.len();
                    let arrival_s = id as f64 * ARRIVAL_GAP_S;
                    let class = class(pick, classes);
                    requests.push(Request { id, arrival_s, class, tenant: 0 });
                    backlog.push(id, costs.class_id(class), arrival_s, &costs);
                    reference.push(id, class);
                }
                2 | 3 | 6 => {
                    if kind == 6 {
                        now = reference.next_deadline(now, policy, &requests).unwrap_or(now);
                    }
                    let expected = reference.take_ready(now, policy, &requests, &table);
                    let took = backlog.take_ready(now, &requests, &mut unit);
                    assert_eq!(took.then_some(&unit), expected.as_ref(), "step {step}");
                    match expected {
                        Some(_) if kind == 3 => requeue(&unit, &mut backlog, &mut reference),
                        Some(expected) => dispatched.push(expected),
                        None => {}
                    }
                }
                _ if dispatched.is_empty() => {}
                4 => requeue(
                    &dispatched.swap_remove(pick % dispatched.len()),
                    &mut backlog,
                    &mut reference,
                ),
                _ => {
                    let mut crashed = dispatched.swap_remove(pick % dispatched.len());
                    let class = requests[crashed[0]].class;
                    if let Some(other) =
                        dispatched.iter().position(|u| requests[u[0]].class == class)
                    {
                        crashed.extend(dispatched.swap_remove(other));
                    }
                    requeue(&crashed, &mut backlog, &mut reference);
                }
            }
            let in_flight: usize = dispatched.iter().map(Vec::len).sum();
            assert_agrees(&mut backlog, &reference, now, policy, &requests, in_flight, step);
        }
        let inspected = match &backlog {
            Backlog::Classed(ages) => ages.inspected,
            Backlog::Fifo(_) | Backlog::Sjf(_) => 0,
        };
        // Drain: far enough in the future every batch timeout has expired.
        let end = requests.len() as f64 * ARRIVAL_GAP_S + 1.0;
        while let Some(expected) = reference.take_ready(end, policy, &requests, &table) {
            assert!(backlog.take_ready(end, &requests, &mut unit));
            assert_eq!(unit, expected, "drain");
            assert_eq!(backlog.len(), reference.len(), "drain");
        }
        assert!(!backlog.take_ready(end, &requests, &mut unit));
        assert_eq!(backlog.len(), 0);
        inspected
    }

    /// The checks after one step of [`replay_against_the_reference`].
    fn assert_agrees(
        backlog: &mut Backlog,
        reference: &ReferenceBacklog,
        now: f64,
        policy: Policy,
        requests: &[Request],
        in_flight: usize,
        step: usize,
    ) {
        assert_eq!(backlog.len(), reference.len(), "step {step}");
        assert_eq!(
            backlog.next_deadline(now).map(f64::to_bits),
            reference.next_deadline(now, policy, requests).map(f64::to_bits),
            "step {step}: next deadline"
        );
        match backlog {
            Backlog::Fifo(_) => {}
            Backlog::Sjf(ranks) => assert_ranked(ranks, step),
            Backlog::Classed(ages) => assert_indexed(ages, requests, step),
        }
        assert_eq!(backlog.len() + in_flight, requests.len(), "step {step}: conservation");
    }

    /// The rank queues hold ascending ids, their summed length is the
    /// running one, and the non-empty set names exactly the non-empty ranks.
    fn assert_ranked(ranks: &RankQueues, step: usize) {
        assert_eq!(ranks.len, ranks.queues.iter().map(VecDeque::len).sum::<usize>(), "step {step}");
        assert!(ranks.queues.iter().all(|q| q.iter().is_sorted()), "step {step}: id order");
        let non_empty = (0..ranks.queues.len()).filter(|&r| !ranks.queues[r].is_empty());
        assert!(ranks.non_empty.iter().eq(non_empty), "step {step}: non-empty ranks");
    }

    /// The two age indexes hold exactly the waiting classes, each in the
    /// index its length says and at the place its true head says, and the
    /// summed length is the running one.
    fn assert_indexed(ages: &AgeQueues, requests: &[Request], step: usize) {
        assert_eq!(ages.len, ages.queues.iter().map(VecDeque::len).sum::<usize>(), "step {step}");
        for (index, full) in [(&ages.filling, false), (&ages.full, true)] {
            let ordered = index.iter().zip(index.iter().skip(1));
            assert!(
                ordered.clone().all(|(&a, &b)| AgeQueues::older(&ages.heads, a, b)),
                "step {step}: age order"
            );
            for &class in index {
                let queue = &ages.queues[class];
                assert!(!queue.is_empty(), "step {step}: class {class} waits");
                assert_eq!(queue.len() >= ages.max_batch, full, "step {step}: class {class}");
                let head = front_arrival(queue, requests);
                assert_eq!(ages.heads[class].to_bits(), head.to_bits(), "step {step}: head");
            }
        }
        let waiting = ages.queues.iter().filter(|q| !q.is_empty()).count();
        assert_eq!(ages.filling.len() + ages.full.len(), waiting, "step {step}: waiting classes");
    }

    fn arb_ops() -> impl Strategy<Value = Vec<(usize, usize)>> {
        proptest::collection::vec((0usize..7, 0usize..64), 1..300)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The rank-queue SJF backlog yields the id sequence and length of
        /// the linear scan it replaced, under any interleaving of
        /// arrivals, dispatches, holds and crash re-queues.
        #[test]
        fn sjf_heap_matches_the_linear_scan(ops in arb_ops()) {
            replay_against_the_reference(Policy::Sjf, &ops, WEIGHTS.len());
        }

        /// The running `Classed` length equals the summed one at every
        /// step, and batches come out as before (multi-id units, partial
        /// batches flushed by timeout, crash re-queues at the class head).
        #[test]
        fn classed_running_length_matches_the_summed_one(
            ops in arb_ops(),
            max_batch in 1usize..=4,
        ) {
            let policy = Policy::batch(max_batch, 2.0 * ARRIVAL_GAP_S);
            replay_against_the_reference(policy, &ops, WEIGHTS.len());
        }

        #[test]
        fn fifo_is_unchanged(ops in arb_ops()) {
            replay_against_the_reference(Policy::Fifo, &ops, WEIGHTS.len());
        }
    }

    /// Requests of classes `classes[id]`, arriving at `arrivals[id]`.
    fn requests_of(classes: &[usize], arrivals: &[f64]) -> Vec<Request> {
        let count = WEIGHTS.len();
        let requests = classes.iter().zip(arrivals).enumerate();
        requests
            .map(|(id, (&c, &arrival_s))| Request {
                id,
                arrival_s,
                class: class(c, count),
                tenant: 0,
            })
            .collect()
    }

    #[test]
    fn sjf_breaks_weight_ties_by_id_across_classes_and_requeues() {
        // Classes 1 and 3 both weigh 10: the earlier id wins whichever
        // class it is in, and a re-queued id keeps its place in the order.
        let table = weights(WEIGHTS.len());
        let costs = FleetCosts::new(&table, &[]);
        let mut backlog = Backlog::new(Policy::Sjf, &costs);
        let requests = requests_of(&[0, 3, 1, 2, 1], &[0.0, 1.0, 2.0, 3.0, 4.0]);
        for request in &requests {
            backlog.push(request.id, costs.class_id(request.class), request.arrival_s, &costs);
        }
        let mut unit = Vec::new();
        let mut order = Vec::new();
        assert!(backlog.take_ready(9.0, &requests, &mut unit));
        assert_eq!(unit, [1], "weight 10, the earliest id");
        let class3 = costs.class_id(class(3, WEIGHTS.len()));
        backlog.push_front(&unit, class3, requests[1].arrival_s, &costs);
        while backlog.take_ready(9.0, &requests, &mut unit) {
            order.push(unit[0]);
        }
        assert_eq!(order, [1, 2, 4, 3, 0]);
    }

    /// Crashes may return same-weight units in either order; they come
    /// back in id order, ahead of the same-weight request still queued.
    #[test]
    fn sjf_crash_requeues_return_to_id_order_in_either_order() {
        let table = weights(WEIGHTS.len());
        let costs = FleetCosts::new(&table, &[]);
        // Ids 0 and 2 are class 1, id 1 is class 3: all weigh 10.
        let requests = requests_of(&[1, 3, 1], &[0.0, 1.0, 2.0]);
        for reverse in [false, true] {
            let mut backlog = Backlog::new(Policy::Sjf, &costs);
            for request in &requests {
                backlog.push(request.id, costs.class_id(request.class), request.arrival_s, &costs);
            }
            let mut unit = Vec::new();
            let mut taken = Vec::new();
            for _ in 0..2 {
                assert!(backlog.take_ready(9.0, &requests, &mut unit));
                taken.push(unit[0]);
            }
            assert_eq!(taken, [0, 1]);
            if reverse {
                taken.reverse();
            }
            for id in taken {
                let head = requests[id];
                backlog.push_front(&[id], costs.class_id(head.class), head.arrival_s, &costs);
            }
            let mut order = Vec::new();
            while backlog.take_ready(9.0, &requests, &mut unit) {
                order.push(unit[0]);
            }
            assert_eq!(order, [0, 1, 2], "re-queued in reverse take order: {reverse}");
        }
    }

    #[test]
    #[should_panic(expected = "no memoised weight for request class")]
    fn sjf_admitting_an_unmeasured_class_panics_as_the_table_does() {
        // Datasets 0 and 2 are measured, so dataset 1 has an id but no
        // weight, and no rank.
        let mut table = CostTable::new();
        table.register_rate("chip", 1e-9);
        for index in [0, 2] {
            table.insert("chip", class(index, 3), ClassCost { cycles: 1, flops: 10 });
        }
        let costs = FleetCosts::new(&table, &[]);
        let mut backlog = Backlog::new(Policy::Sjf, &costs);
        backlog.push(0, costs.class_id(class(1, 3)), 0.0, &costs);
    }

    /// A batching backlog over the five test classes, holding `requests`.
    fn classed(max_batch: usize, timeout_s: f64, requests: &[Request]) -> Backlog {
        let table = weights(WEIGHTS.len());
        let costs = FleetCosts::new(&table, &[]);
        let mut backlog = Backlog::new(Policy::batch(max_batch, timeout_s), &costs);
        for request in requests {
            backlog.push(request.id, costs.class_id(request.class), request.arrival_s, &costs);
        }
        backlog
    }

    #[test]
    fn classed_ties_on_bit_equal_heads_go_to_the_lower_class_id() {
        // Class 3 arrives first in id order, but at the same instant as
        // class 1: both time out together and class 1 goes first.
        let requests = requests_of(&[3, 1], &[1.0, 1.0]);
        let mut backlog = classed(4, 0.5, &requests);
        let mut unit = Vec::new();
        assert!(backlog.take_ready(2.0, &requests, &mut unit));
        assert_eq!(unit, [1]);
        assert!(backlog.take_ready(2.0, &requests, &mut unit));
        assert_eq!(unit, [0]);
    }

    #[test]
    fn classed_full_beats_an_older_filling_class_until_it_times_out() {
        // Class 0 waits alone from t = 1; class 2 fills (max_batch 2)
        // with a younger head. Before class 0 times out (t = 11) the full
        // class goes first; once it has, the older class 0 does.
        let requests = requests_of(&[0, 2, 2, 2, 2], &[1.0, 2.0, 3.0, 4.0, 4.5]);
        let mut backlog = classed(2, 10.0, &requests[..3]);
        let mut unit = Vec::new();
        assert!(backlog.take_ready(5.0, &requests, &mut unit));
        assert_eq!(unit, [1, 2], "full and younger beats filling and older");
        assert!(!backlog.take_ready(5.0, &requests, &mut unit), "class 0 is not ready yet");
        let table = weights(WEIGHTS.len());
        let costs = FleetCosts::new(&table, &[]);
        for request in &requests[3..] {
            backlog.push(request.id, costs.class_id(request.class), request.arrival_s, &costs);
        }
        assert!(backlog.take_ready(11.0, &requests, &mut unit));
        assert_eq!(unit, [0], "timed out and older beats full and younger");
        assert!(backlog.take_ready(11.0, &requests, &mut unit));
        assert_eq!(unit, [3, 4]);
    }

    #[test]
    fn classed_deadline_skips_a_held_ready_class_bit_for_bit() {
        // Class 0 (t = 0.1) has timed out at t = 0.35; class 4 is full;
        // class 2 (t = 0.3) has not. Dispatch takes class 0 and holds it:
        // the deadline is class 2's, as the reference computes it.
        let policy = Policy::batch(2, 0.2);
        let requests = requests_of(&[0, 4, 4, 2], &[0.1, 0.15, 0.2, 0.3]);
        let mut backlog = classed(2, 0.2, &requests);
        let mut reference = ReferenceBacklog::new(policy);
        for request in &requests {
            reference.push(request.id, request.class);
        }
        let (now, mut unit) = (0.35, Vec::new());
        assert!(backlog.take_ready(now, &requests, &mut unit));
        assert_eq!(unit, [0]);
        let table = weights(WEIGHTS.len());
        let costs = FleetCosts::new(&table, &[]);
        backlog.push_front(&unit, costs.class_id(requests[0].class), requests[0].arrival_s, &costs);
        let expected = reference.next_deadline(now, policy, &requests).map(f64::to_bits);
        assert_eq!(expected, Some((0.3_f64 + 0.2).to_bits()));
        assert_eq!(backlog.next_deadline(now).map(f64::to_bits), expected);
    }

    /// The classes a batching selection inspects per event do not grow
    /// with the number of classes waiting: one arrival-heavy op sequence,
    /// replayed over 12 and over 96 classes, inspects about as many per
    /// op, where a walk over the waiting classes inspects about 8× as many.
    /// With `max_batch` 64 no class fills, so both replays keep their
    /// classes in the same index and the ratio compares like with like;
    /// with `max_batch` 4 the 12 classes fill and the 96 do not, so only a
    /// ceiling per op applies.
    #[test]
    fn batching_inspections_per_event_do_not_grow_with_the_classes() {
        const KINDS: [usize; 10] = [0, 0, 1, 1, 1, 2, 3, 4, 5, 6];
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let ops: Vec<(usize, usize)> = (0..3_000)
            .map(|_| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let draw = (state >> 33) as usize;
                (KINDS[draw % KINDS.len()], (draw >> 4) % 1_024)
            })
            .collect();
        for (max_batch, ratio) in [(64, Some(1.5)), (4, None)] {
            let policy = Policy::batch(max_batch, 8.0 * ARRIVAL_GAP_S);
            let per_event = |classes| {
                replay_against_the_reference(policy, &ops, classes) as f64 / ops.len() as f64
            };
            let (few, many) = (per_event(12), per_event(96));
            let message = format!(
                "max_batch {max_batch}, classes inspected per event: \
                 {few:.2} over 12 classes, {many:.2} over 96"
            );
            assert!(ratio.is_none_or(|ratio| many <= ratio * few), "{message}");
            assert!(few.max(many) <= 3.0, "{message}");
        }
    }
}
