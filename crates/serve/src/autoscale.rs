//! Elastic fleets: a queue-depth controller that grows and shrinks the
//! shard count at runtime.
//!
//! Real serving fleets are not fixed-size: capacity is provisioned when
//! the backlog builds and retired when it drains, and every provisioned
//! shard-second costs money whether or not it is busy. An
//! [`AutoscalePolicy`] describes the controller: per-group shard bounds, a
//! decision interval, a backlog-per-shard threshold and — crucially — a
//! *provisioning delay*: a scale decision made at time *t* only takes
//! effect at *t + delay*, which is what makes autoscaling a real trade-off
//! (by the time capacity arrives, the burst may be over). The simulation
//! reports the resulting shard-seconds cost next to the p99 latency it
//! bought (see [`crate::sim::ServeOutcome`]).
//!
//! The controller itself is deliberately simple and fully deterministic:
//!
//! - **Scale up** when the backlog exceeds `up_backlog_per_shard x active`
//!   and the fleet is below its maximum: one shard, added to the group
//!   with the highest busy fraction (ties to the lowest group index).
//! - **Scale down** when the backlog is empty, an active shard is idle and
//!   the fleet is above its minimum: one shard, removed from the group
//!   with the most idle active shards (ties to the highest group index).
//!   The removal is also scheduled `provision_delay_s` ahead
//!   (decommissioning has lead time too) and is *cancelled* if no shard of
//!   the chosen group is idle when it falls due — capacity never vanishes
//!   mid-batch.

use crate::fleet::ShardFleet;

/// The autoscaling controller's knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscalePolicy {
    /// Lower bound on each group's active shard count.
    pub min_shards: usize,
    /// Upper bound on each group's active shard count (the capacity the
    /// fleet pre-allocates slots for).
    pub max_shards: usize,
    /// Seconds between a scale decision and its effect.
    pub provision_delay_s: f64,
    /// Seconds between controller decisions.
    pub check_interval_s: f64,
    /// Scale up when `backlog > up_backlog_per_shard x active shards`.
    pub up_backlog_per_shard: f64,
}

impl AutoscalePolicy {
    /// A controller scaling each group between `min` and `max` shards.
    ///
    /// Defaults: decisions every 10 ms, a 50 ms provisioning delay and a
    /// scale-up threshold of 4 queued requests per active shard — override
    /// with the builders (the `serve` binary derives interval and delay
    /// from the memoised mean service time so they stay meaningful
    /// whatever the serving mix costs).
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ min ≤ max`.
    pub fn new(min_shards: usize, max_shards: usize) -> Self {
        assert!(min_shards >= 1, "a group keeps at least one shard");
        assert!(min_shards <= max_shards, "min shards must not exceed max shards");
        AutoscalePolicy {
            min_shards,
            max_shards,
            provision_delay_s: 0.05,
            check_interval_s: 0.01,
            up_backlog_per_shard: 4.0,
        }
    }

    /// Overrides the provisioning delay (builder style).
    ///
    /// # Panics
    ///
    /// Panics unless the delay is finite and non-negative.
    pub fn with_provision_delay_s(mut self, delay_s: f64) -> Self {
        assert!(delay_s.is_finite() && delay_s >= 0.0, "provisioning delay must be non-negative");
        self.provision_delay_s = delay_s;
        self
    }

    /// Overrides the decision interval (builder style).
    ///
    /// # Panics
    ///
    /// Panics unless the interval is finite and positive.
    pub fn with_check_interval_s(mut self, interval_s: f64) -> Self {
        assert!(
            interval_s.is_finite() && interval_s > 0.0,
            "decision interval must be finite and positive"
        );
        self.check_interval_s = interval_s;
        self
    }

    /// Overrides the scale-up threshold (builder style).
    ///
    /// # Panics
    ///
    /// Panics unless the threshold is finite and positive.
    pub fn with_up_backlog_per_shard(mut self, backlog: f64) -> Self {
        assert!(
            backlog.is_finite() && backlog > 0.0,
            "scale-up threshold must be finite and positive"
        );
        self.up_backlog_per_shard = backlog;
        self
    }

    /// The stable ID fragment of this controller (`as1-4`), used in
    /// scenario IDs.
    pub(crate) fn id(&self) -> String {
        format!("as{}-{}", self.min_shards, self.max_shards)
    }

    /// The controller's decision at one check: grow, shrink or hold.
    /// `pending` is the *per-group* net effect of decisions already in
    /// flight (+1 per scheduled activation, −1 per scheduled
    /// deactivation), so the controller never over-commits a group while
    /// its capacity is provisioning — the `[min, max]` bounds hold per
    /// group even when several decisions are airborne at once.
    ///
    /// # Panics
    ///
    /// Panics unless `pending` has one entry per fleet group.
    pub(crate) fn decide(&self, fleet: &ShardFleet, backlog: usize, pending: &[i64]) -> Decision {
        assert_eq!(pending.len(), fleet.group_count(), "one pending count per group");
        let committed = |g: usize| fleet.active_in_group(g) as i64 + pending[g];
        let active: i64 = (0..fleet.group_count()).map(committed).sum();
        if backlog as f64 > self.up_backlog_per_shard * active.max(1) as f64 {
            if let Some(group) = self.scale_up_group(fleet, pending) {
                return Decision::Up { group };
            }
        }
        if backlog == 0 && fleet.has_idle() {
            if let Some(group) = self.scale_down_group(fleet, pending) {
                return Decision::Down { group };
            }
        }
        Decision::Hold
    }

    /// The group receiving a new shard: highest busy fraction among groups
    /// whose committed count (active + pending) is below `max_shards`,
    /// ties to the lowest index.
    fn scale_up_group(&self, fleet: &ShardFleet, pending: &[i64]) -> Option<usize> {
        (0..fleet.group_count())
            .filter(|&g| fleet.active_in_group(g) as i64 + pending[g] < self.max_shards as i64)
            .max_by(|&a, &b| {
                let (fa, fb) = (busy_fraction(fleet, a), busy_fraction(fleet, b));
                fa.partial_cmp(&fb).expect("busy fractions are finite").then(b.cmp(&a))
            })
    }

    /// Executes one scheduled scale-down at its effect time: re-checks the
    /// per-group floor (the group's population may have changed since the
    /// decision — a crash may have removed capacity the controller thought
    /// it was shedding) and retires one idle shard through the same fleet
    /// removal path a crash takes. Returns the retired slot, or `None`
    /// when the removal is cancelled — because the group already sits at
    /// its floor, or no shard of the group is idle any more (capacity
    /// never vanishes mid-batch; forced removal is
    /// [`ShardFleet::crash`]'s job, not the controller's).
    pub(crate) fn retire_idle(&self, fleet: &mut ShardFleet, group: usize) -> Option<usize> {
        if fleet.active_in_group(group) <= self.min_shards {
            return None;
        }
        fleet.deactivate_idle(group)
    }

    /// The group losing a shard: most idle active shards among groups
    /// whose committed count (active + pending) is above `min_shards`,
    /// ties to the highest index.
    fn scale_down_group(&self, fleet: &ShardFleet, pending: &[i64]) -> Option<usize> {
        (0..fleet.group_count())
            .filter(|&g| fleet.active_in_group(g) as i64 + pending[g] > self.min_shards as i64)
            .max_by(|&a, &b| fleet.idle_in_group(a).cmp(&fleet.idle_in_group(b)).then(a.cmp(&b)))
    }
}

fn busy_fraction(fleet: &ShardFleet, group: usize) -> f64 {
    let active = fleet.active_in_group(group);
    if active == 0 {
        return 0.0;
    }
    (active - fleet.idle_in_group(group)) as f64 / active as f64
}

/// One controller decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Decision {
    /// Keep the fleet as it is.
    Hold,
    /// Provision one shard in `group` (effective after the delay).
    Up {
        /// The growing group.
        group: usize,
    },
    /// Retire one idle shard of `group` (effective after the delay).
    Down {
        /// The shrinking group.
        group: usize,
    },
}

/// One executed fleet-size change, as reported in the outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleEvent {
    /// When the controller decided.
    pub decision_s: f64,
    /// When the change took effect (`decision_s + provision_delay_s`).
    pub effect_s: f64,
    /// The group that changed.
    pub group: usize,
    /// +1 (provisioned) or −1 (retired).
    pub delta: i64,
    /// Total active shards across the fleet after the change.
    pub active_total: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::ShardGroup;
    use neura_chip::config::ChipConfig;

    fn fleet() -> ShardFleet {
        let groups = vec![ShardGroup::new("t16", ChipConfig::tile_16(), 1)];
        ShardFleet::new(&groups, Some(&[4]))
    }

    #[test]
    fn backlog_above_threshold_scales_up_until_max() {
        let policy = AutoscalePolicy::new(1, 4);
        let mut f = fleet();
        assert_eq!(policy.decide(&f, 10, &[0]), Decision::Up { group: 0 });
        // Pending activations count against the max.
        assert_eq!(policy.decide(&f, 100, &[3]), Decision::Hold);
        f.activate(0, 0.0);
        f.activate(0, 0.0);
        f.activate(0, 0.0);
        assert_eq!(f.active_shards(), 4);
        assert_eq!(policy.decide(&f, 100, &[0]), Decision::Hold, "at max");
    }

    #[test]
    fn empty_backlog_with_idle_capacity_scales_down_to_min() {
        let policy = AutoscalePolicy::new(1, 4);
        let mut f = fleet();
        f.activate(0, 0.0);
        assert_eq!(policy.decide(&f, 0, &[0]), Decision::Down { group: 0 });
        // A pending deactivation already commits the group to its floor:
        // a second down decision before the first lands must hold.
        assert_eq!(policy.decide(&f, 0, &[-1]), Decision::Hold);
        // A busy fleet never sheds capacity, even with an empty backlog.
        f.dispatch(0, 0.0, 5.0, 1);
        f.dispatch(1, 0.0, 5.0, 1);
        assert_eq!(policy.decide(&f, 0, &[0]), Decision::Hold);
        // At the minimum, hold.
        let f = fleet();
        assert_eq!(policy.decide(&f, 0, &[0]), Decision::Hold);
    }

    #[test]
    fn moderate_backlog_holds() {
        let policy = AutoscalePolicy::new(1, 4).with_up_backlog_per_shard(4.0);
        let f = fleet();
        assert_eq!(policy.decide(&f, 3, &[0]), Decision::Hold, "3 <= 4 x 1 active");
    }

    #[test]
    fn per_group_pending_keeps_each_group_inside_its_own_bounds() {
        // Two groups, min 1 each. Group 1 has a deactivation in flight, so
        // even though the fleet-wide committed count (3) sits above the
        // fleet-wide floor (2), neither group may shed another shard:
        // group 1 is committed to its floor and group 0 is at it.
        let groups = vec![
            ShardGroup::new("a", ChipConfig::tile_16(), 1),
            ShardGroup::new("b", ChipConfig::tile_16(), 2),
        ];
        let f = ShardFleet::new(&groups, Some(&[4, 4]));
        let policy = AutoscalePolicy::new(1, 4);
        assert_eq!(policy.decide(&f, 0, &[0, -1]), Decision::Hold);
        // Without the pending deactivation, group 1 is the right donor.
        assert_eq!(policy.decide(&f, 0, &[0, 0]), Decision::Down { group: 1 });
        // Scale-up similarly respects per-group commitments: group 1 full
        // up with pendings, group 0 takes the shard.
        assert_eq!(policy.decide(&f, 100, &[0, 2]), Decision::Up { group: 0 });
    }

    #[test]
    fn retire_idle_rechecks_the_floor_and_cancels_on_busy_groups() {
        let policy = AutoscalePolicy::new(1, 4);
        let mut f = fleet();
        f.activate(0, 0.0);
        assert_eq!(policy.retire_idle(&mut f, 0), Some(1), "idle above the floor retires");
        assert_eq!(policy.retire_idle(&mut f, 0), None, "at the floor the removal cancels");
        // Above the floor but mid-batch: the removal cancels rather than
        // killing in-flight work — that forced path is `crash`'s alone.
        f.activate(0, 0.0);
        f.dispatch(0, 0.0, 5.0, 1);
        f.dispatch(1, 0.0, 5.0, 1);
        assert_eq!(policy.retire_idle(&mut f, 0), None);
        assert_eq!(f.active_shards(), 2);
    }

    #[test]
    fn a_crash_during_a_pending_scale_up_does_not_double_count_the_group() {
        // The controller decided Up (pending +1) at 2 active shards, then
        // one of them crashes before the effect lands. The committed count
        // the next decision sees must be 1 active + 1 pending = 2 — not 3 —
        // so with max 4 and a deep backlog the controller may still grow.
        let policy = AutoscalePolicy::new(1, 4).with_up_backlog_per_shard(2.0);
        let mut f = fleet();
        f.activate(0, 0.0);
        assert_eq!(f.active_in_group(0), 2);
        assert_eq!(policy.decide(&f, 100, &[1]), Decision::Up { group: 0 });
        f.dispatch(0, 0.0, 5.0, 1);
        assert!(f.crash(0, 1.0, 1));
        assert_eq!(f.active_in_group(0), 1, "the crash removed exactly one active shard");
        // 100 > 2 x (1 active + 1 pending): still room below max, still Up.
        assert_eq!(policy.decide(&f, 100, &[1]), Decision::Up { group: 0 });
        // The pending activation lands and may reuse the crashed slot —
        // the group ends at 2 active, never 3.
        assert_eq!(f.activate(0, 1.5), Some(0));
        assert_eq!(f.active_in_group(0), 2);
        assert_eq!(f.group_stats()[0].peak_active, 2, "no phantom third shard ever existed");
        // At max with pendings the controller holds, crash or no crash.
        assert_eq!(policy.decide(&f, 100, &[2]), Decision::Hold);
    }

    #[test]
    fn ids_and_builders() {
        let policy = AutoscalePolicy::new(2, 8)
            .with_provision_delay_s(0.2)
            .with_check_interval_s(0.05)
            .with_up_backlog_per_shard(2.0);
        assert_eq!(policy.id(), "as2-8");
        assert!((policy.provision_delay_s - 0.2).abs() < 1e-12);
        assert!((policy.check_interval_s - 0.05).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn inverted_bounds_are_rejected() {
        AutoscalePolicy::new(4, 2);
    }
}
