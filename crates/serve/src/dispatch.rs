//! Class-aware shard dispatch: which idle shard a ready batch lands on.
//!
//! The scheduling [`Policy`](crate::policy::Policy) decides *what* to
//! dispatch next; a [`DispatchPolicy`] decides *where*. With homogeneous
//! fleets the two questions were one — any idle shard is as good as any
//! other — but a heterogeneous fleet makes placement a real decision:
//! sending a heavyweight request to a Tile-4 shard wastes the Tile-64
//! silicon bought for exactly that class. Three implementations ship:
//!
//! - [`LeastLoaded`] — the classic work-conserving default: the idle shard
//!   that has been idle longest (earliest busy-until, ties by slot index).
//! - [`ClassAffinity`] — big classes (flops at or above the memoised
//!   median) prefer the group with the highest peak throughput, small
//!   classes the lowest; within the preferred group, least-loaded. When
//!   the preferred group is fully busy, it compares *waiting* for it
//!   (remaining busy time plus service there) against serving immediately
//!   on the best idle off-group shard, and holds the batch when waiting is
//!   cheaper — dumping a Tile-64-class request onto an idle Tile-4 shard
//!   is exactly the tail-latency mistake this policy exists to avoid.
//! - [`CostAware`] — the idle shard with the lowest memoised service time
//!   for this batch (ties by least-loaded, then slot index); greedy and
//!   never waits.
//!
//! Every choice is a pure function of `(fleet state, class, costs)`, so
//! replays stay deterministic.

use crate::cost::{ClassId, FleetCosts};
use crate::fleet::ShardFleet;

/// Picks a shard for a ready batch among the currently idle ones.
pub(crate) trait DispatchPolicy {
    /// Stable lower-case name, used in run IDs and command lines.
    fn name(&self) -> &'static str;

    /// Chooses one of `idle` (non-empty, slot-ordered, all idle and active)
    /// for a batch of `batch` requests of `class` at time `now`, or `None`
    /// to hold the batch until a busy shard frees up (only allowed while
    /// one exists — the simulation re-offers the batch at that event).
    /// `costs` is the cost table resolved against `fleet`'s groups, so
    /// pricing a candidate is indexed by [`ShardFleet::group_of`].
    fn choose(
        &self,
        fleet: &ShardFleet,
        idle: &[usize],
        class: ClassId,
        batch: usize,
        now: f64,
        costs: &FleetCosts<'_>,
    ) -> Option<usize>;
}

/// The shard idle longest wins (earliest busy-until, ties by slot index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LeastLoaded;

/// Least-loaded among `idle` (`None` when it is empty), as a helper for
/// the other policies.
fn least_loaded_of(fleet: &ShardFleet, idle: impl Iterator<Item = usize>) -> Option<usize> {
    idle.min_by(|&a, &b| {
        fleet
            .busy_until(a)
            .partial_cmp(&fleet.busy_until(b))
            .expect("busy horizons are finite")
            .then(a.cmp(&b))
    })
}

impl DispatchPolicy for LeastLoaded {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn choose(
        &self,
        fleet: &ShardFleet,
        idle: &[usize],
        _class: ClassId,
        _batch: usize,
        _now: f64,
        _costs: &FleetCosts<'_>,
    ) -> Option<usize> {
        Some(
            least_loaded_of(fleet, idle.iter().copied())
                .expect("dispatch requires at least one idle shard"),
        )
    }
}

/// Big classes go to the biggest silicon, small classes to the smallest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ClassAffinity;

impl DispatchPolicy for ClassAffinity {
    fn name(&self) -> &'static str {
        "affinity"
    }

    fn choose(
        &self,
        fleet: &ShardFleet,
        idle: &[usize],
        class: ClassId,
        batch: usize,
        now: f64,
        costs: &FleetCosts<'_>,
    ) -> Option<usize> {
        // A class is "big" when its work sits at or above the median of the
        // memoised classes; big prefers the highest-throughput group, small
        // the lowest (ties by group index, so the preference is stable).
        let big = costs.weight(class) >= costs.median_weight();
        let preferred = (0..fleet.group_count())
            .max_by(|&a, &b| {
                let (ga, gb) = (fleet.peak_gflops(a), fleet.peak_gflops(b));
                let ordering = ga.partial_cmp(&gb).expect("peak throughput is finite");
                // For "small", invert the throughput ordering; break ties
                // toward the lower group index in both directions.
                (if big { ordering } else { ordering.reverse() }).then(b.cmp(&a))
            })
            .expect("fleets have at least one group");
        let in_group = idle.iter().copied().filter(|&s| fleet.group_of(s) == preferred);
        if let Some(shard) = least_loaded_of(fleet, in_group) {
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
        let off_group = CostAware.choose(fleet, idle, class, batch, now, costs)?;
        let off_cost = costs.service_seconds(fleet.group_of(off_group), class, batch);
        if preferred_free.is_finite() && wait_cost <= off_cost {
            None
        } else {
            Some(off_group)
        }
    }
}

/// The idle shard with the lowest memoised service time for this batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CostAware;

impl DispatchPolicy for CostAware {
    fn name(&self) -> &'static str {
        "cost"
    }

    fn choose(
        &self,
        fleet: &ShardFleet,
        idle: &[usize],
        class: ClassId,
        batch: usize,
        _now: f64,
        costs: &FleetCosts<'_>,
    ) -> Option<usize> {
        // Each candidate is priced once, not once per comparison.
        idle.iter()
            .map(|&s| (costs.service_seconds(fleet.group_of(s), class, batch), s))
            .min_by(|&(sa, a), &(sb, b)| {
                sa.partial_cmp(&sb)
                    .expect("service times are finite")
                    .then(
                        fleet
                            .busy_until(a)
                            .partial_cmp(&fleet.busy_until(b))
                            .expect("busy horizons are finite"),
                    )
                    .then(a.cmp(&b))
            })
            .map(|(_, shard)| shard)
    }
}

/// The dispatch policies as a sweepable, parseable axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchKind {
    /// `LeastLoaded`.
    LeastLoaded,
    /// `ClassAffinity`.
    ClassAffinity,
    /// `CostAware`.
    CostAware,
}

impl DispatchKind {
    /// Every supported dispatch policy, default first.
    pub const ALL: [DispatchKind; 3] =
        [DispatchKind::LeastLoaded, DispatchKind::ClassAffinity, DispatchKind::CostAware];

    /// The policy implementation this kind names.
    pub(crate) fn policy(&self) -> &'static dyn DispatchPolicy {
        match self {
            DispatchKind::LeastLoaded => &LeastLoaded,
            DispatchKind::ClassAffinity => &ClassAffinity,
            DispatchKind::CostAware => &CostAware,
        }
    }

    /// Stable lower-case name, used in run IDs and command lines.
    pub fn name(&self) -> &'static str {
        self.policy().name()
    }

    /// Parses a policy name (`"least-loaded"`, `"affinity"`, `"cost"`;
    /// case-insensitive).
    pub fn parse(raw: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name().eq_ignore_ascii_case(raw))
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

    /// `policy`'s choice for one request of `class`, priced by `costs`
    /// resolved against the fixture's groups.
    fn choose(
        policy: &dyn DispatchPolicy,
        fleet: &ShardFleet,
        idle: &[usize],
        class: RequestClass,
        now: f64,
        costs: &CostTable,
    ) -> Option<usize> {
        let costs = FleetCosts::new(costs, &groups());
        policy.choose(fleet, idle, costs.class_id(class), 1, now, &costs)
    }

    fn idle_shards(fleet: &ShardFleet) -> Vec<usize> {
        let mut idle = Vec::new();
        fleet.idle_shards(&mut idle);
        idle
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
        let idle = idle_shards(&fleet);
        assert_eq!(choose(&LeastLoaded, &fleet, &idle, big, 3.0, &costs), Some(2));
        // Fresh fleet: all tie at 0.0, lowest index wins.
        let (fleet, costs, big, _) = fixture();
        let idle = idle_shards(&fleet);
        assert_eq!(choose(&LeastLoaded, &fleet, &idle, big, 0.0, &costs), Some(0));
    }

    #[test]
    fn affinity_routes_big_to_big_silicon_and_small_to_small() {
        let (fleet, costs, big, small) = fixture();
        let idle = idle_shards(&fleet);
        assert_eq!(
            choose(&ClassAffinity, &fleet, &idle, big, 0.0, &costs),
            Some(0),
            "big -> Tile-64"
        );
        assert_eq!(
            choose(&ClassAffinity, &fleet, &idle, small, 0.0, &costs),
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
        let idle = idle_shards(&fleet);
        assert_eq!(idle, vec![1, 2]);
        assert_eq!(choose(&ClassAffinity, &fleet, &idle, big, 0.0, &costs), None, "hold");
        // ... but a 10 ms horizon flips the comparison: overflow to the
        // cheapest idle shard.
        let (mut fleet, costs, big, _) = fixture();
        fleet.dispatch(0, 0.0, 0.010, 1);
        let idle = idle_shards(&fleet);
        assert_eq!(choose(&ClassAffinity, &fleet, &idle, big, 0.0, &costs), Some(1));
    }

    #[test]
    fn cost_aware_minimises_the_memoised_service_time() {
        let (mut fleet, costs, big, small) = fixture();
        let idle = idle_shards(&fleet);
        assert_eq!(
            choose(&CostAware, &fleet, &idle, big, 0.0, &costs),
            Some(0),
            "8x cheaper on Tile-64"
        );
        // Small requests: 40k cycles at 1 GHz on either silicon — Tile-64
        // still wins (40k vs 50k cycles); make it busy and the Tile-4
        // shards take over.
        fleet.dispatch(0, 0.0, 5.0, 1);
        let idle = idle_shards(&fleet);
        assert_eq!(choose(&CostAware, &fleet, &idle, small, 0.0, &costs), Some(1));
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
