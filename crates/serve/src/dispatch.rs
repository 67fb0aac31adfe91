//! Class-aware shard dispatch: which idle shard a ready batch lands on.
//!
//! The scheduling [`Policy`](crate::policy::Policy) decides *what* to
//! dispatch next; a [`DispatchKind`] decides *where*. With homogeneous
//! fleets the two questions were one — any idle shard is as good as any
//! other — but a heterogeneous fleet makes placement a real decision:
//! sending a heavyweight request to a Tile-4 shard wastes the Tile-64
//! silicon bought for exactly that class. Three kinds ship, and
//! `DispatchKind::choose` is one `match` over their three functions:
//!
//! - [`DispatchKind::LeastLoaded`] — the classic work-conserving default:
//!   the idle shard that has been idle longest (earliest busy-until, ties
//!   by slot index).
//! - [`DispatchKind::ClassAffinity`] — big classes (flops at or above the
//!   memoised median) prefer the group with the highest peak throughput,
//!   small classes the lowest; within the preferred group, least-loaded.
//!   When the preferred group is fully busy, it compares *waiting* for it
//!   (remaining busy time plus service there) against serving immediately
//!   on the best idle off-group shard, and holds the batch when waiting is
//!   cheaper — dumping a Tile-64-class request onto an idle Tile-4 shard
//!   is exactly the tail-latency mistake this kind exists to avoid.
//! - [`DispatchKind::CostAware`] — the idle shard with the lowest memoised
//!   service time for this batch (ties by least-loaded, then slot index);
//!   greedy and never waits.
//!
//! The fleet owns everything a choice reads: the idle set, walked in
//! ascending slot order, the busy-horizon order and each class size's
//! preferred group. So every choice is a pure function of `(fleet state,
//! class, costs)`, and replays stay deterministic.

use crate::cost::{ClassId, FleetCosts};
use crate::fleet::ShardFleet;

/// Big classes go to the biggest silicon, small classes to the smallest,
/// or wait for it.
fn class_affinity(
    fleet: &ShardFleet,
    class: ClassId,
    batch: usize,
    now: f64,
    costs: &FleetCosts<'_>,
) -> Option<usize> {
    // A class is "big" when its work sits at or above the median of the
    // memoised classes.
    let preferred = fleet.preferred_group(costs.weight(class) >= costs.median_weight());
    let in_group = fleet.idle().filter(|&s| fleet.group_of(s) == preferred);
    if let Some(shard) = in_group.min_by(|&a, &b| fleet.by_horizon(a, b)) {
        return Some(shard);
    }
    // The preferred group is fully busy. An off-group shard only gets
    // the batch when serving there *now* beats waiting for the
    // preferred group (earliest release + service on the right
    // silicon) — otherwise hold the batch; a queued millisecond is
    // cheaper than a misplaced batch on 4x-slower silicon.
    let preferred_free = fleet
        .group_slots(preferred)
        .filter(|&s| fleet.is_active(s))
        .map(|s| fleet.busy_until(s))
        .fold(f64::INFINITY, f64::min);
    let wait_cost =
        (preferred_free - now).max(0.0) + costs.service_seconds(preferred, class, batch);
    let off_group = cost_aware(fleet, class, batch, costs)?;
    let off_cost = costs.service_seconds(fleet.group_of(off_group), class, batch);
    if preferred_free.is_finite() && wait_cost <= off_cost {
        None
    } else {
        Some(off_group)
    }
}

/// The idle shard with the lowest memoised service time for this batch.
fn cost_aware(
    fleet: &ShardFleet,
    class: ClassId,
    batch: usize,
    costs: &FleetCosts<'_>,
) -> Option<usize> {
    // Each candidate is priced once, not once per comparison.
    fleet
        .idle()
        .map(|s| (costs.service_seconds(fleet.group_of(s), class, batch), s))
        .min_by(|&(sa, a), &(sb, b)| {
            sa.partial_cmp(&sb)
                .expect("service times are finite")
                .then_with(|| fleet.by_horizon(a, b))
        })
        .map(|(_, shard)| shard)
}

/// The dispatch policies as a sweepable, parseable axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchKind {
    /// The shard idle longest wins.
    LeastLoaded,
    /// Big classes go to big silicon, small classes to small.
    ClassAffinity,
    /// The lowest memoised service time wins.
    CostAware,
}

impl DispatchKind {
    /// Every supported dispatch policy, default first.
    pub const ALL: [DispatchKind; 3] =
        [DispatchKind::LeastLoaded, DispatchKind::ClassAffinity, DispatchKind::CostAware];

    /// Stable lower-case name, used in run IDs and command lines.
    pub fn name(&self) -> &'static str {
        match self {
            DispatchKind::LeastLoaded => "least-loaded",
            DispatchKind::ClassAffinity => "affinity",
            DispatchKind::CostAware => "cost",
        }
    }

    /// Parses a policy name (`"least-loaded"`, `"affinity"`, `"cost"`;
    /// case-insensitive).
    pub fn parse(raw: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name().eq_ignore_ascii_case(raw))
    }

    /// Chooses one of `fleet`'s idle shards (at least one must be idle)
    /// for a batch of `batch` requests of `class` at time `now`, or `None`
    /// to hold the batch until a busy shard frees up (only while one
    /// exists — the simulation re-offers the batch at that event).
    /// `costs` is the cost table resolved against `fleet`'s groups, so
    /// pricing a candidate is indexed by [`ShardFleet::group_of`].
    pub(crate) fn choose(
        self,
        fleet: &ShardFleet,
        class: ClassId,
        batch: usize,
        now: f64,
        costs: &FleetCosts<'_>,
    ) -> Option<usize> {
        match self {
            DispatchKind::LeastLoaded => {
                let longest_idle = fleet.idle().min_by(|&a, &b| fleet.by_horizon(a, b));
                Some(longest_idle.expect("dispatch requires at least one idle shard"))
            }
            DispatchKind::ClassAffinity => class_affinity(fleet, class, batch, now, costs),
            DispatchKind::CostAware => cost_aware(fleet, class, batch, costs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{ClassCost, CostTable, RequestClass};
    use crate::fleet::ShardGroup;
    use neura_chip::config::ChipConfig;

    /// One Tile-64 shard (slot 0) + two Tile-4 shards (slots 1, 2), with a
    /// big class that is 8x cheaper on the Tile-64 and a small class that
    /// costs about the same everywhere.
    fn groups() -> Vec<ShardGroup> {
        vec![
            ShardGroup::new("t64", ChipConfig::tile_64(), 1),
            ShardGroup::new("t4", ChipConfig::tile_4(), 2),
        ]
    }

    /// `kind`'s choice for one request of `class`, priced by `costs`
    /// resolved against `groups`.
    fn choose_in(
        kind: DispatchKind,
        groups: &[ShardGroup],
        fleet: &ShardFleet,
        class: RequestClass,
        now: f64,
        costs: &CostTable,
    ) -> Option<usize> {
        let costs = FleetCosts::new(costs, groups);
        kind.choose(fleet, costs.class_id(class), 1, now, &costs)
    }

    /// [`choose_in`] on the fixture's groups.
    fn choose(
        kind: DispatchKind,
        fleet: &ShardFleet,
        class: RequestClass,
        now: f64,
        costs: &CostTable,
    ) -> Option<usize> {
        choose_in(kind, &groups(), fleet, class, now, costs)
    }

    fn fixture() -> (ShardFleet, CostTable, RequestClass, RequestClass) {
        let fleet = ShardFleet::new(&groups(), None);
        let mut costs = CostTable::new();
        let t64 = costs.register(&ChipConfig::tile_64());
        let t4 = costs.register(&ChipConfig::tile_4());
        let big = RequestClass { dataset: 0, shrink: 1 };
        let small = RequestClass { dataset: 0, shrink: 4 };
        costs.insert(&t64, big, ClassCost { cycles: 1_000_000, flops: 1_000_000 });
        costs.insert(&t4, big, ClassCost { cycles: 8_000_000, flops: 1_000_000 });
        costs.insert(&t64, small, ClassCost { cycles: 40_000, flops: 1_000 });
        costs.insert(&t4, small, ClassCost { cycles: 50_000, flops: 1_000 });
        (fleet, costs, big, small)
    }

    #[test]
    fn least_loaded_picks_the_longest_idle_then_lowest_index() {
        let (mut fleet, costs, big, _) = fixture();
        fleet.dispatch(0, 0.0, 2.0, 1);
        fleet.dispatch(1, 0.0, 1.0, 1);
        // At t=3 both batches completed and all are idle; shard 2 never
        // worked (busy_until 0 < 1 < 2).
        while fleet.pop_completion(3.0).is_some() {}
        assert_eq!(choose(DispatchKind::LeastLoaded, &fleet, big, 3.0, &costs), Some(2));
        // Fresh fleet: all tie at 0.0, lowest index wins.
        let (fleet, costs, big, _) = fixture();
        assert_eq!(choose(DispatchKind::LeastLoaded, &fleet, big, 0.0, &costs), Some(0));
    }

    #[test]
    fn affinity_routes_big_to_big_silicon_and_small_to_small() {
        let (fleet, costs, big, small) = fixture();
        assert_eq!(
            choose(DispatchKind::ClassAffinity, &fleet, big, 0.0, &costs),
            Some(0),
            "big -> Tile-64"
        );
        assert_eq!(
            choose(DispatchKind::ClassAffinity, &fleet, small, 0.0, &costs),
            Some(1),
            "small -> Tile-4"
        );
    }

    #[test]
    fn affinity_waits_for_busy_preferred_silicon_when_waiting_is_cheaper() {
        let (mut fleet, costs, big, _) = fixture();
        // Tile-64 busy for 2 ms; waiting (2 ms + 1 ms service) beats the
        // 8 ms the batch would cost on an idle Tile-4 shard.
        fleet.dispatch(0, 0.0, 0.002, 1);
        assert_eq!(fleet.idle().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(choose(DispatchKind::ClassAffinity, &fleet, big, 0.0, &costs), None, "hold");
        // ... but a 10 ms horizon flips the comparison: overflow to the
        // cheapest idle shard.
        let (mut fleet, costs, big, _) = fixture();
        fleet.dispatch(0, 0.0, 0.010, 1);
        assert_eq!(choose(DispatchKind::ClassAffinity, &fleet, big, 0.0, &costs), Some(1));
    }

    #[test]
    fn cost_aware_minimises_the_memoised_service_time() {
        let (mut fleet, costs, big, small) = fixture();
        assert_eq!(
            choose(DispatchKind::CostAware, &fleet, big, 0.0, &costs),
            Some(0),
            "8x cheaper on Tile-64"
        );
        // Small requests: 40k cycles at 1 GHz on either silicon — Tile-64
        // still wins (40k vs 50k cycles); make it busy and the Tile-4
        // shards take over.
        fleet.dispatch(0, 0.0, 5.0, 1);
        assert_eq!(choose(DispatchKind::CostAware, &fleet, small, 0.0, &costs), Some(1));
    }

    /// A tie on service time goes to the shard with the earlier busy
    /// horizon, and a tie on that to the lower slot.
    #[test]
    fn cost_aware_ties_go_to_the_earlier_horizon_then_the_lower_slot() {
        let groups = [ShardGroup::new("t4", ChipConfig::tile_4(), 3)];
        let mut costs = CostTable::new();
        let t4 = costs.register(&ChipConfig::tile_4());
        let class = RequestClass { dataset: 0, shrink: 1 };
        costs.insert(&t4, class, ClassCost { cycles: 1_000, flops: 1_000 });
        let choose = |fleet: &ShardFleet, now| {
            choose_in(DispatchKind::CostAware, &groups, fleet, class, now, &costs)
        };
        let mut fleet = ShardFleet::new(&groups, None);
        assert_eq!(choose(&fleet, 0.0), Some(0), "every horizon is 0: the lowest slot");
        // Horizons 1.0, 0.5 and 0.5 once the three batches complete: the
        // earlier horizon beats the lower slot 0, and slot 1 beats slot 2.
        fleet.dispatch(0, 0.0, 1.0, 1);
        fleet.dispatch(1, 0.0, 0.5, 1);
        fleet.dispatch(2, 0.0, 0.5, 1);
        while fleet.pop_completion(2.0).is_some() {}
        assert_eq!(choose(&fleet, 2.0), Some(1));
    }

    #[test]
    fn kinds_parse_and_name_round_trip() {
        for kind in DispatchKind::ALL {
            assert_eq!(DispatchKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(DispatchKind::parse("AFFINITY"), Some(DispatchKind::ClassAffinity));
        assert_eq!(DispatchKind::parse("round-robin"), None);
        assert_eq!(DispatchKind::LeastLoaded.name(), "least-loaded");
        assert_eq!(DispatchKind::CostAware.name(), "cost");
    }
}
