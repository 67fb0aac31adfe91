//! The multi-chip shard model: a fleet of simulated NeuraChip instances
//! organised into *shard groups*, each group running its own
//! [`ChipConfig`] — so a fleet can mix Tile-64 shards for heavy requests
//! with Tile-4 shards for light ones.
//!
//! Shards carry no per-request state — the queueing simulation holds the
//! backlog centrally — so a shard is a busy-until horizon, an active flag
//! (autoscaling provisions and retires shards over time) and the counters
//! behind the per-shard/per-group utilisation and shard-seconds metrics.
//! *Which* idle shard a batch lands on is the decision of the run's
//! [`DispatchKind`](crate::dispatch::DispatchKind), one `match`; the fleet
//! only answers its questions and keeps the books.
//!
//! The fleet also owns its dynamic state in the form the event loop asks
//! for it, kept up to date by every operation that changes it — so no
//! question costs a walk over the slots:
//!
//! - the **idle set**: a [`neura_sim::BitSet`] of the slots that are
//!   provisioned and serving no batch, a slot added when it activates or
//!   its batch completes and removed when it dispatches, retires or
//!   crashes; the dispatch candidates are its members in slot order
//!   ([`ShardFleet::idle`]), ranked by [`ShardFleet::by_horizon`];
//! - the **completion calendar**: a min-heap of `(finish, slot)`, one
//!   entry per batch in service, pushed at dispatch, popped when due
//!   ([`ShardFleet::pop_completion`]) and dropped when its slot crashes —
//!   the next release is its head;
//! - the **active count** of every group, which provisioned-time accrual
//!   multiplies and the autoscaler reads.
//!
//! Its one piece of static dispatch state is each class size's preferred
//! group, worked out once at construction ([`ShardFleet::preferred_group`]).

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use neura_chip::config::ChipConfig;
use neura_sim::BitSet;

/// Spec-level description of one shard group: `shards` replicas of one
/// chip configuration under a stable short name.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardGroup {
    /// Stable short name, used in run IDs and per-group records ("t64").
    pub name: String,
    /// The configuration every shard of the group runs.
    pub config: ChipConfig,
    /// Initial (and, without autoscaling, fixed) shard count.
    pub shards: usize,
}

impl ShardGroup {
    /// Creates a group.
    ///
    /// # Panics
    ///
    /// Panics when `shards == 0`.
    pub fn new(name: impl Into<String>, config: ChipConfig, shards: usize) -> Self {
        assert!(shards >= 1, "a shard group needs at least one shard");
        ShardGroup { name: name.into(), config, shards }
    }
}

/// The number of shards lane `lane` receives in a `lanes`-way round-robin
/// split of a `shards`-shard group: `shards / lanes`, plus one for the
/// first `shards % lanes` lanes. The shares sum to `shards` exactly.
pub(crate) fn lane_share(shards: usize, lane: usize, lanes: usize) -> usize {
    shards / lanes + usize::from(lane < shards % lanes)
}

/// Lane `lane` of a `lanes`-way split of a fleet: every group keeps its
/// name and chip configuration but holds only its [`lane_share`] of the
/// shards, so the lane prices requests against the same cost-table
/// fingerprints as the full fleet. Used by the engine's closed-loop lane
/// decomposition (`crate::engine`), which guarantees every group's share
/// is non-empty by clamping the lane count to the smallest group.
///
/// # Panics
///
/// Panics when `lane >= lanes`, or when a group's share would be empty.
pub(crate) fn lane_groups(groups: &[ShardGroup], lane: usize, lanes: usize) -> Vec<ShardGroup> {
    assert!(lanes >= 1 && lane < lanes, "lane index must lie within the lane count");
    groups
        .iter()
        .map(|g| {
            ShardGroup::new(g.name.clone(), g.config.clone(), lane_share(g.shards, lane, lanes))
        })
        .collect()
}

/// Aggregate counters of one shard over a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ShardStats {
    /// Total seconds the shard spent serving batches.
    pub busy_s: f64,
    /// Batches the shard served.
    pub batches: u64,
    /// Requests the shard served (across all its batches).
    pub requests: u64,
}

/// Aggregate counters of one shard group over a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupStats {
    /// The group's name.
    pub name: String,
    /// Allocated shard slots (the autoscaler's upper bound; equals the
    /// spec'd count for fixed fleets).
    pub capacity: usize,
    /// Total seconds the group's shards spent serving batches.
    pub busy_s: f64,
    /// Batches the group served.
    pub batches: u64,
    /// Requests the group served.
    pub requests: u64,
    /// Provisioned shard-seconds: the integral of the group's active shard
    /// count over time — the cost an operator pays for the capacity,
    /// whether or not it was busy.
    pub shard_seconds: f64,
    /// Largest number of simultaneously active shards.
    pub peak_active: usize,
}

impl GroupStats {
    /// Adds the counters of `share`, the same group in another lane of a
    /// lane-split fleet (see [`lane_groups`]): lanes partition the group's
    /// slots, so every counter of the whole is the sum over its lanes.
    pub(crate) fn absorb(&mut self, share: &GroupStats) {
        self.capacity += share.capacity;
        self.busy_s += share.busy_s;
        self.batches += share.batches;
        self.requests += share.requests;
        self.shard_seconds += share.shard_seconds;
        self.peak_active += share.peak_active;
    }
}

/// Static per-group information.
#[derive(Debug, Clone)]
struct GroupInfo {
    name: String,
    capacity: usize,
    first_shard: usize,
}

/// Total-order wrapper over a finite `f64` event time, so event times can
/// live in a [`BinaryHeap`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TimeKey(pub(crate) f64);

impl Eq for TimeKey {}

impl PartialOrd for TimeKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimeKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).expect("event times are finite")
    }
}

/// A fleet of accelerator shards organised into groups.
///
/// Shard indices are global and stable: group 0's slots come first, then
/// group 1's, and so on; a group's slots never move, whether active or not.
#[derive(Debug, Clone)]
pub(crate) struct ShardFleet {
    groups: Vec<GroupInfo>,
    /// The group small (`[0]`) and big (`[1]`) classes prefer.
    preferred: [usize; 2],
    shard_group: Vec<usize>,
    busy_until: Vec<f64>,
    active: Vec<bool>,
    /// Active slots per group.
    active_count: Vec<usize>,
    /// The active slots serving no batch.
    idle: BitSet,
    /// `(finish, slot)` of every batch in service, earliest (then lowest
    /// slot) first.
    calendar: BinaryHeap<Reverse<(TimeKey, usize)>>,
    stats: Vec<ShardStats>,
    active_seconds: Vec<f64>,
    peak_active: Vec<usize>,
}

impl ShardFleet {
    /// Creates a fleet with every spec'd shard active. `capacity_per_group`
    /// optionally over-allocates slots (the autoscaler's `max`); `None`
    /// sizes each group exactly to its spec.
    ///
    /// # Panics
    ///
    /// Panics when `groups` is empty, any group capacity is below its
    /// initial shard count, or two groups share a name.
    pub(crate) fn new(groups: &[ShardGroup], capacity_per_group: Option<&[usize]>) -> Self {
        assert!(!groups.is_empty(), "a fleet needs at least one shard group");
        if let Some(caps) = capacity_per_group {
            assert_eq!(caps.len(), groups.len(), "one capacity per group");
        }
        let mut infos = Vec::with_capacity(groups.len());
        let mut shard_group = Vec::new();
        let mut active = Vec::new();
        let mut active_count = Vec::with_capacity(groups.len());
        let mut peak_active = Vec::with_capacity(groups.len());
        for (g, group) in groups.iter().enumerate() {
            assert!(
                infos.iter().all(|i: &GroupInfo| i.name != group.name),
                "duplicate shard-group name {:?}",
                group.name
            );
            let capacity = capacity_per_group.map(|caps| caps[g]).unwrap_or(group.shards);
            assert!(
                capacity >= group.shards,
                "group {:?} capacity {capacity} is below its initial {} shards",
                group.name,
                group.shards
            );
            infos.push(GroupInfo {
                name: group.name.clone(),
                capacity,
                first_shard: shard_group.len(),
            });
            for slot in 0..capacity {
                shard_group.push(g);
                active.push(slot < group.shards);
            }
            active_count.push(group.shards);
            peak_active.push(group.shards);
        }
        // Big classes prefer the highest peak throughput, small ones the
        // lowest; ties go to the lower group index either way.
        let peak = |g: usize| groups[g].config.peak_gflops();
        let first_best = |better: fn(f64, f64) -> bool| {
            (1..groups.len()).fold(0, |best, g| if better(peak(g), peak(best)) { g } else { best })
        };
        let total = shard_group.len();
        let mut idle = BitSet::new(total);
        (0..total).filter(|&s| active[s]).for_each(|s| idle.insert(s));
        ShardFleet {
            groups: infos,
            preferred: [first_best(|a, b| a < b), first_best(|a, b| a > b)],
            shard_group,
            busy_until: vec![0.0; total],
            active,
            active_count,
            idle,
            calendar: BinaryHeap::new(),
            stats: vec![ShardStats::default(); total],
            active_seconds: vec![0.0; groups.len()],
            peak_active,
        }
    }

    /// Number of shard groups.
    pub(crate) fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Total allocated shard slots (active or not).
    pub(crate) fn capacity(&self) -> usize {
        self.shard_group.len()
    }

    /// The group a shard slot belongs to.
    pub(crate) fn group_of(&self, shard: usize) -> usize {
        self.shard_group[shard]
    }

    /// The group a big (`true`) or small class prefers under class
    /// affinity: the highest peak throughput for a big one, the lowest for
    /// a small one, ties to the lower group index.
    pub(crate) fn preferred_group(&self, big: bool) -> usize {
        self.preferred[usize::from(big)]
    }

    /// When a shard's current batch finishes (0 when it never served one).
    pub(crate) fn busy_until(&self, shard: usize) -> f64 {
        self.busy_until[shard]
    }

    /// Orders two slots by earliest busy horizon, then by lower slot: the
    /// least-loaded order every dispatch kind ranks idle shards by.
    pub(crate) fn by_horizon(&self, a: usize, b: usize) -> Ordering {
        self.busy_until[a]
            .partial_cmp(&self.busy_until[b])
            .expect("busy horizons are finite")
            .then(a.cmp(&b))
    }

    /// Whether a shard slot is currently provisioned.
    pub(crate) fn is_active(&self, shard: usize) -> bool {
        self.active[shard]
    }

    /// Number of active shards across the fleet.
    pub(crate) fn active_shards(&self) -> usize {
        self.active_count.iter().sum()
    }

    /// Number of active shards in one group.
    pub(crate) fn active_in_group(&self, group: usize) -> usize {
        self.active_count[group]
    }

    /// Global slot indices of one group.
    pub(crate) fn group_slots(&self, group: usize) -> std::ops::Range<usize> {
        let info = &self.groups[group];
        info.first_shard..info.first_shard + info.capacity
    }

    /// Whether any shard is idle.
    pub(crate) fn has_idle(&self) -> bool {
        !self.idle.is_empty()
    }

    /// Number of idle shards in one group.
    pub(crate) fn idle_in_group(&self, group: usize) -> usize {
        self.group_slots(group).filter(|&s| self.idle.contains(s)).count()
    }

    /// The idle shards in ascending slot order — the candidate set every
    /// dispatch kind chooses from, read in place.
    pub(crate) fn idle(&self) -> impl Iterator<Item = usize> + '_ {
        self.idle.iter()
    }

    /// The next release: the earliest finish of a batch in service
    /// (infinity when nothing is busy). The event the simulation waits on
    /// while a dispatch kind holds a batch for busy preferred silicon
    /// even though other shards idle.
    pub(crate) fn next_busy_free_at(&self) -> f64 {
        self.calendar.peek().map_or(f64::INFINITY, |Reverse((finish, _))| finish.0)
    }

    /// Completes the earliest batch in service if it finishes at or before
    /// `now`: its slot turns idle, and its `(finish, slot)` is returned.
    /// Batches finishing together pop in slot order.
    pub(crate) fn pop_completion(&mut self, now: f64) -> Option<(f64, usize)> {
        let &Reverse((TimeKey(finish), slot)) = self.calendar.peek()?;
        if finish > now {
            return None;
        }
        self.calendar.pop();
        self.idle.insert(slot);
        Some((finish, slot))
    }

    /// Starts a batch of `requests` requests on `shard` at `now` for
    /// `service_s` seconds; returns the batch completion time, which the
    /// calendar holds until [`Self::pop_completion`] pops it.
    ///
    /// # Panics
    ///
    /// Panics when the shard is inactive or still serving a batch — the
    /// simulation only dispatches to idle, provisioned shards.
    pub(crate) fn dispatch(
        &mut self,
        shard: usize,
        now: f64,
        service_s: f64,
        requests: u64,
    ) -> f64 {
        assert!(self.active[shard], "shard {shard} is not provisioned at {now}");
        assert!(
            self.idle.contains(shard),
            "shard {shard} is busy until {} at {now}",
            self.busy_until[shard]
        );
        let finish = now + service_s;
        self.idle.remove(shard);
        self.calendar.push(Reverse((TimeKey(finish), shard)));
        self.busy_until[shard] = finish;
        self.stats[shard].busy_s += service_s;
        self.stats[shard].batches += 1;
        self.stats[shard].requests += requests;
        finish
    }

    /// Activates one inactive slot of `group` (lowest slot index first).
    /// Returns the slot, or `None` when the group is at capacity.
    pub(crate) fn activate(&mut self, group: usize, now: f64) -> Option<usize> {
        let slot = self.group_slots(group).find(|&s| !self.active[s])?;
        self.active[slot] = true;
        self.idle.insert(slot);
        // A freshly provisioned shard starts idle *now* — any busy horizon
        // left from a previous activation period is history.
        self.busy_until[slot] = self.busy_until[slot].max(now);
        self.active_count[group] += 1;
        self.peak_active[group] = self.peak_active[group].max(self.active_count[group]);
        Some(slot)
    }

    /// Deactivates one *idle* slot of `group` (highest slot index first, so
    /// slot 0 — the always-on baseline shard — retires last). Returns the
    /// slot, or `None` when no slot of the group is idle.
    pub(crate) fn deactivate_idle(&mut self, group: usize) -> Option<usize> {
        let slot = self.group_slots(group).rev().find(|&s| self.idle.contains(s))?;
        self.deactivate_slot(slot);
        Some(slot)
    }

    /// Crashes an active slot at `now`: the slot deactivates through the
    /// same removal path a scale-down uses — except a crash does not wait
    /// for idleness. Any unfinished batch is retracted from the slot's
    /// books and the calendar: the remaining service time is refunded from
    /// `busy_s` and the batch/request counters roll back, so the shard that
    /// eventually re-serves the work accounts for it exactly once.
    /// `in_flight_requests` is the size of the interrupted batch (0 when
    /// the shard crashed idle); the caller re-queues those requests.
    ///
    /// Returns whether the slot was mid-batch when it crashed.
    ///
    /// # Panics
    ///
    /// Panics when the slot is not active, or `in_flight_requests`
    /// disagrees with the slot's busy state.
    pub(crate) fn crash(&mut self, slot: usize, now: f64, in_flight_requests: u64) -> bool {
        assert!(self.active[slot], "only an active shard can crash");
        let was_busy = !self.idle.contains(slot);
        assert_eq!(
            was_busy,
            in_flight_requests > 0,
            "a busy shard crashes with its batch, an idle one with none"
        );
        if was_busy {
            debug_assert!(self.busy_until[slot] > now, "due completions pop before a crash");
            let remaining = self.busy_until[slot] - now;
            self.stats[slot].busy_s -= remaining;
            self.stats[slot].batches -= 1;
            self.stats[slot].requests -= in_flight_requests;
            self.busy_until[slot] = now;
            self.calendar.retain(|&Reverse((_, s))| s != slot);
        }
        self.deactivate_slot(slot);
        was_busy
    }

    /// The single removal primitive behind both [`Self::deactivate_idle`]
    /// (voluntary scale-down) and [`Self::crash`] (forced removal): a
    /// deactivated slot stops accruing shard-seconds and re-enters the
    /// pool [`Self::activate`] provisions from.
    fn deactivate_slot(&mut self, slot: usize) {
        self.active[slot] = false;
        self.idle.remove(slot);
        self.active_count[self.shard_group[slot]] -= 1;
    }

    /// Accrues `dt` seconds of provisioned time to every active shard —
    /// the simulation calls this once per time step, making
    /// [`GroupStats::shard_seconds`] the exact integral of active capacity.
    pub(crate) fn accrue(&mut self, dt: f64) {
        for (seconds, &active) in self.active_seconds.iter_mut().zip(&self.active_count) {
            *seconds += active as f64 * dt;
        }
    }

    /// Per-shard counters, in slot order.
    pub(crate) fn stats(&self) -> &[ShardStats] {
        &self.stats
    }

    /// Per-group aggregates, in group order.
    pub(crate) fn group_stats(&self) -> Vec<GroupStats> {
        self.groups
            .iter()
            .enumerate()
            .map(|(g, info)| {
                let mut stats = GroupStats {
                    name: info.name.clone(),
                    capacity: info.capacity,
                    busy_s: 0.0,
                    batches: 0,
                    requests: 0,
                    shard_seconds: self.active_seconds[g],
                    peak_active: self.peak_active[g],
                };
                for s in self.group_slots(g) {
                    stats.busy_s += self.stats[s].busy_s;
                    stats.batches += self.stats[s].batches;
                    stats.requests += self.stats[s].requests;
                }
                stats
            })
            .collect()
    }

    /// The group → shard-slot mapping, one group index per slot.
    pub(crate) fn shard_groups(&self) -> &[usize] {
        &self.shard_group
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`ShardFleet::idle`], collected.
    fn idle_slots(fleet: &ShardFleet) -> Vec<usize> {
        fleet.idle().collect()
    }

    /// Pops every completion due at `now`, in pop order.
    fn complete_until(fleet: &mut ShardFleet, now: f64) -> Vec<(f64, usize)> {
        std::iter::from_fn(|| fleet.pop_completion(now)).collect()
    }

    fn two_groups() -> Vec<ShardGroup> {
        vec![
            ShardGroup::new("t64", ChipConfig::tile_64(), 1),
            ShardGroup::new("t4", ChipConfig::tile_4(), 2),
        ]
    }

    #[test]
    fn slots_are_grouped_and_ranked_by_peak_throughput() {
        let fleet = ShardFleet::new(&two_groups(), None);
        assert_eq!(fleet.capacity(), 3);
        assert_eq!(fleet.group_count(), 2);
        assert_eq!(fleet.shard_groups(), &[0, 1, 1]);
        assert_eq!(fleet.preferred_group(true), 0, "big classes prefer the Tile-64");
        assert_eq!(fleet.preferred_group(false), 1, "small classes prefer the Tile-4");
        assert_eq!(fleet.active_shards(), 3);
    }

    /// Equal peaks tie to the lower group index for both class sizes; the
    /// fastest group wins big classes wherever it sits.
    #[test]
    fn preferred_groups_tie_to_the_lower_index() {
        let twins = [
            ShardGroup::new("a", ChipConfig::tile_16(), 1),
            ShardGroup::new("b", ChipConfig::tile_16(), 1),
        ];
        let fleet = ShardFleet::new(&twins, None);
        assert_eq!((fleet.preferred_group(true), fleet.preferred_group(false)), (0, 0));
        let ascending = [
            ShardGroup::new("t4", ChipConfig::tile_4(), 1),
            ShardGroup::new("t16", ChipConfig::tile_16(), 1),
            ShardGroup::new("t64", ChipConfig::tile_64(), 1),
        ];
        let fleet = ShardFleet::new(&ascending, None);
        assert_eq!((fleet.preferred_group(true), fleet.preferred_group(false)), (2, 0));
    }

    #[test]
    fn dispatch_tracks_busy_horizon_and_stats() {
        let mut fleet = ShardFleet::new(&two_groups(), None);
        assert_eq!(idle_slots(&fleet), vec![0, 1, 2]);
        fleet.dispatch(0, 0.0, 2.0, 4);
        fleet.dispatch(1, 0.0, 1.0, 1);
        assert_eq!(complete_until(&mut fleet, 0.5), vec![]);
        assert_eq!(idle_slots(&fleet), vec![2]);
        assert!((fleet.next_busy_free_at() - 1.0).abs() < 1e-12, "shard 1 releases first");
        assert_eq!(complete_until(&mut fleet, 1.5), vec![(1.0, 1)]);
        assert_eq!(idle_slots(&fleet), vec![1, 2]);
        fleet.dispatch(2, 0.0, 3.0, 1);
        assert!((fleet.next_busy_free_at() - 2.0).abs() < 1e-12, "then shard 0");
        assert_eq!(complete_until(&mut fleet, 3.0), vec![(2.0, 0), (3.0, 2)]);
        assert_eq!(fleet.next_busy_free_at(), f64::INFINITY, "nothing is busy past 3 s");
        let stats = fleet.stats()[0];
        assert!((stats.busy_s - 2.0).abs() < 1e-12);
        assert_eq!((stats.batches, stats.requests), (1, 4));
    }

    #[test]
    fn group_stats_aggregate_their_slots() {
        let mut fleet = ShardFleet::new(&two_groups(), None);
        fleet.dispatch(1, 0.0, 1.0, 2);
        fleet.dispatch(2, 0.0, 3.0, 1);
        fleet.accrue(4.0);
        let groups = fleet.group_stats();
        assert_eq!(groups[0].name, "t64");
        assert_eq!(groups[1].requests, 3);
        assert!((groups[1].busy_s - 4.0).abs() < 1e-12);
        assert!((groups[0].shard_seconds - 4.0).abs() < 1e-12, "1 active shard x 4 s");
        assert!((groups[1].shard_seconds - 8.0).abs() < 1e-12, "2 active shards x 4 s");
        assert_eq!(groups[1].peak_active, 2);
    }

    #[test]
    fn activation_and_deactivation_respect_capacity_and_idleness() {
        let groups = vec![ShardGroup::new("t16", ChipConfig::tile_16(), 1)];
        let mut fleet = ShardFleet::new(&groups, Some(&[3]));
        assert_eq!(fleet.capacity(), 3);
        assert_eq!(fleet.active_shards(), 1, "over-allocated slots start inactive");
        assert_eq!(idle_slots(&fleet), vec![0]);

        assert_eq!(fleet.activate(0, 1.0), Some(1));
        assert_eq!(fleet.activate(0, 1.0), Some(2));
        assert_eq!(fleet.activate(0, 1.0), None, "at capacity");
        assert_eq!(fleet.active_in_group(0), 3);

        fleet.dispatch(2, 1.0, 5.0, 1);
        fleet.dispatch(0, 1.0, 1.0, 1);
        // Highest *idle* slot retires first: slots 0 and 2 are busy, so
        // slot 1 goes; after that nothing is idle, so nothing retires.
        assert_eq!(fleet.deactivate_idle(0), Some(1));
        assert_eq!(fleet.deactivate_idle(0), None, "remaining active slots are busy");
        assert_eq!(fleet.active_shards(), 2);
        assert_eq!(fleet.group_stats()[0].peak_active, 3);
    }

    #[test]
    fn crash_retracts_the_interrupted_batch_and_frees_the_slot() {
        let groups = vec![ShardGroup::new("t16", ChipConfig::tile_16(), 2)];
        let mut fleet = ShardFleet::new(&groups, None);
        fleet.dispatch(0, 0.0, 4.0, 3);
        assert!(fleet.crash(0, 1.0, 3), "mid-batch crash");
        assert!(!fleet.is_active(0));
        assert_eq!(fleet.active_shards(), 1);
        // The unfinished 3 s of service refund; the 1 s the slot actually
        // occupied stays on its books, but the batch/request counters roll
        // back entirely — the work never completed here.
        let stats = fleet.stats()[0];
        assert!((stats.busy_s - 1.0).abs() < 1e-12);
        assert_eq!((stats.batches, stats.requests), (0, 0));
        // A crashed slot re-enters the provisioning pool like any retired
        // slot, and comes back idle.
        assert_eq!(fleet.activate(0, 2.0), Some(0));
        assert!(idle_slots(&fleet).contains(&0));
    }

    #[test]
    fn idle_crashes_remove_capacity_without_touching_the_books() {
        let groups = vec![ShardGroup::new("t16", ChipConfig::tile_16(), 2)];
        let mut fleet = ShardFleet::new(&groups, None);
        fleet.dispatch(0, 0.0, 1.0, 1);
        assert_eq!(complete_until(&mut fleet, 5.0), vec![(1.0, 0)]);
        assert!(!fleet.crash(0, 5.0, 0), "the batch finished long before the crash");
        let stats = fleet.stats()[0];
        assert!((stats.busy_s - 1.0).abs() < 1e-12);
        assert_eq!((stats.batches, stats.requests), (1, 1));
        assert_eq!(fleet.active_shards(), 1);
    }

    #[test]
    #[should_panic(expected = "crashes with its batch")]
    fn crash_bookkeeping_must_match_the_busy_state() {
        let groups = vec![ShardGroup::new("t16", ChipConfig::tile_16(), 1)];
        let mut fleet = ShardFleet::new(&groups, None);
        fleet.dispatch(0, 0.0, 2.0, 2);
        fleet.crash(0, 1.0, 0);
    }

    #[test]
    fn reactivated_slots_start_idle() {
        let groups = vec![ShardGroup::new("t16", ChipConfig::tile_16(), 1)];
        let mut fleet = ShardFleet::new(&groups, Some(&[2]));
        fleet.activate(0, 0.0);
        fleet.dispatch(1, 0.0, 1.0, 1);
        assert_eq!(complete_until(&mut fleet, 1.0), vec![(1.0, 1)]);
        assert_eq!(fleet.deactivate_idle(0), Some(1));
        // Re-provision later: the old busy horizon must not bleed through.
        assert_eq!(fleet.activate(0, 5.0), Some(1));
        assert!(idle_slots(&fleet).contains(&1));
    }

    #[test]
    #[should_panic(expected = "is busy until")]
    fn dispatching_to_a_busy_shard_is_a_bug() {
        let mut fleet = ShardFleet::new(&two_groups(), None);
        fleet.dispatch(0, 0.0, 2.0, 1);
        fleet.dispatch(0, 1.0, 1.0, 1);
    }

    /// Checks the fleet's incremental state against the definitions it
    /// replaces, recomputed from scratch: a slot is idle when it is active
    /// and its horizon has passed, the next release is the earliest horizon
    /// of a slot serving a batch, and active counts are active slots
    /// counted.
    fn assert_matches_the_scans(fleet: &ShardFleet, serving: &[u64], now: f64, step: usize) {
        let slots = 0..fleet.capacity();
        let idle: Vec<usize> =
            slots.clone().filter(|&s| fleet.is_active(s) && fleet.busy_until(s) <= now).collect();
        assert_eq!(idle_slots(fleet), idle, "step {step}: idle set");
        assert_eq!(fleet.has_idle(), !idle.is_empty(), "step {step}");
        let next_release = slots
            .clone()
            .filter(|&s| serving[s] > 0)
            .map(|s| fleet.busy_until(s))
            .fold(f64::INFINITY, f64::min);
        assert_eq!(fleet.next_busy_free_at(), next_release, "step {step}: next release");
        let active = slots.filter(|&s| fleet.is_active(s)).count();
        assert_eq!(fleet.active_shards(), active, "step {step}: active shards");
        for g in 0..fleet.group_count() {
            let group = fleet.group_slots(g);
            let active = group.clone().filter(|&s| fleet.is_active(s)).count();
            assert_eq!(fleet.active_in_group(g), active, "step {step}: group {g} active");
            let group_idle = group.filter(|s| idle.contains(s)).count();
            assert_eq!(fleet.idle_in_group(g), group_idle, "step {step}: group {g} idle");
        }
    }

    /// Drives a fleet with spare slots through `ops` and checks it against
    /// the scans after every step. An op is `(kind, pick)`: 0 lets
    /// `0.25 × (pick % 4)` s pass and completes every batch due, earliest
    /// (then lowest slot) first; 1 dispatches onto an idle slot for a
    /// service of a multiple of 0.25 s, so finishes tie; 2 crashes an
    /// active slot, busy or idle; 3 activates a slot of a group; 4 retires
    /// an idle one.
    fn drive_in_lock_step(ops: &[(usize, usize)]) {
        let mut fleet = ShardFleet::new(&two_groups(), Some(&[3, 4]));
        let mut serving = vec![0u64; fleet.capacity()];
        let mut now = 0.0;
        for (step, &(kind, pick)) in ops.iter().enumerate() {
            match kind {
                0 => {
                    now += 0.25 * (pick % 4) as f64;
                    let mut due: Vec<(f64, usize)> = (0..fleet.capacity())
                        .filter(|&s| serving[s] > 0 && fleet.busy_until(s) <= now)
                        .map(|s| (fleet.busy_until(s), s))
                        .collect();
                    due.sort_by(|a, b| a.partial_cmp(b).expect("finite finishes"));
                    assert_eq!(complete_until(&mut fleet, now), due, "step {step}: completions");
                    due.iter().for_each(|&(_, s)| serving[s] = 0);
                }
                1 => {
                    let idle = idle_slots(&fleet);
                    if let Some(&slot) = idle.get(pick % idle.len().max(1)) {
                        let requests = 1 + (pick % 3) as u64;
                        fleet.dispatch(slot, now, 0.25 * (1 + pick % 4) as f64, requests);
                        serving[slot] = requests;
                    }
                }
                2 => {
                    let active: Vec<usize> =
                        (0..fleet.capacity()).filter(|&s| fleet.is_active(s)).collect();
                    if let Some(&slot) = active.get(pick % active.len().max(1)) {
                        let requests = std::mem::take(&mut serving[slot]);
                        assert_eq!(fleet.crash(slot, now, requests), requests > 0, "step {step}");
                    }
                }
                3 => {
                    fleet.activate(pick % fleet.group_count(), now);
                }
                _ => {
                    fleet.deactivate_idle(pick % fleet.group_count());
                }
            }
            assert_matches_the_scans(&fleet, &serving, now, step);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The idle set, the completion calendar and the active counts
        /// equal the slot scans they replaced after every dispatch,
        /// completion, crash, activation and retirement.
        #[test]
        fn incremental_state_keeps_step_with_the_scans(
            ops in proptest::collection::vec((0usize..5, 0usize..64), 1..200),
        ) {
            drive_in_lock_step(&ops);
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard group")]
    fn empty_fleet_is_rejected() {
        ShardFleet::new(&[], None);
    }

    #[test]
    #[should_panic(expected = "duplicate shard-group name")]
    fn duplicate_group_names_are_rejected() {
        let groups = vec![
            ShardGroup::new("t16", ChipConfig::tile_16(), 1),
            ShardGroup::new("t16", ChipConfig::tile_16(), 1),
        ];
        ShardFleet::new(&groups, None);
    }
}
