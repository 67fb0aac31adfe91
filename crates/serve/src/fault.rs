//! Deterministic fault injection for serving scenarios.
//!
//! Production fleets lose shards mid-batch, fail to provision replacement
//! capacity, and run degraded silicon that serves slower than its spec.
//! A [`FaultSpec`] describes such a failure regime declaratively — how
//! many shard crashes to inject over a time window, the probability a
//! scheduled provisioning action fails, and per-group service-time
//! multipliers for degraded silicon — and expands it into a concrete
//! [`FaultPlan`] whose every event derives from the spec's seed, exactly
//! like [`StreamSpec::generate`](crate::arrivals::StreamSpec::generate)
//! expands demand: the same spec always injects the identical faults, so
//! fault-injected artifacts stay byte-identical across runner thread
//! counts and repeat runs.
//!
//! The simulation (see [`crate::sim`]) consumes the plan at three points:
//! crash times pop as events (the victim's in-flight batch returns to the
//! queue head and the slot deactivates through the same fleet path a
//! scale-down uses), provisioning rolls gate every scheduled scale-up at
//! its effect time, and degraded multipliers stretch each dispatch on an
//! afflicted group. Recovery is *not* modelled separately: a crashed slot
//! is simply inactive, and the existing autoscaler provisioning path
//! re-activates it — after the usual provisioning delay — once the
//! backlog justifies it.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use neura_lab::spec::derive_seed;

/// The most shard crashes one [`FaultSpec`] may inject: every crash is
/// drawn, sorted and queued before the replay starts (the library
/// scenarios inject 2).
pub const MAX_CRASHES: usize = 1 << 16;

/// Declarative description of a failure regime over one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// RNG seed — the plan is a pure function of the spec.
    pub seed: u64,
    /// Window in seconds over which crash times are drawn (usually the
    /// workload duration).
    pub window_s: f64,
    /// Number of shard crashes to inject (at most [`MAX_CRASHES`]), each
    /// at a seed-derived time in a seed-derived group.
    pub crashes: usize,
    /// Probability that a scheduled scale-up fails at its effect time
    /// (the slot stays inactive; the controller must decide again).
    pub provision_fail: f64,
    /// Degraded-silicon groups as `(group index, service multiplier)`;
    /// every dispatch on that group takes `multiplier` times as long.
    pub degraded: Vec<(usize, f64)>,
}

impl FaultSpec {
    /// A benign spec (no crashes, reliable provisioning, healthy
    /// silicon) over the given window.
    ///
    /// # Panics
    ///
    /// Panics unless the window is finite and positive.
    pub fn new(seed: u64, window_s: f64) -> Self {
        assert!(window_s.is_finite() && window_s > 0.0, "fault window must be positive");
        FaultSpec { seed, window_s, crashes: 0, provision_fail: 0.0, degraded: Vec::new() }
    }

    /// Sets the number of injected crashes (builder style).
    pub fn with_crashes(mut self, crashes: usize) -> Self {
        self.crashes = crashes;
        self
    }

    /// Sets the provisioning failure probability (builder style).
    ///
    /// # Panics
    ///
    /// Panics unless the probability lies within `[0, 1]`.
    pub fn with_provision_fail(mut self, probability: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&probability),
            "provisioning failure probability must lie in [0, 1]"
        );
        self.provision_fail = probability;
        self
    }

    /// Marks one group as degraded silicon (builder style).
    ///
    /// # Panics
    ///
    /// Panics unless the multiplier is finite and at least 1.
    pub fn with_degraded(mut self, group: usize, multiplier: f64) -> Self {
        assert!(
            multiplier.is_finite() && multiplier >= 1.0,
            "a degraded group serves slower, not faster: multiplier must be >= 1"
        );
        self.degraded.push((group, multiplier));
        self
    }

    /// Whether the spec injects nothing at all.
    pub(crate) fn is_benign(&self) -> bool {
        self.crashes == 0 && self.provision_fail == 0.0 && self.degraded.is_empty()
    }

    /// Stable ID fragment used in run IDs and artifact params
    /// (`"crash2"`, `"crash2+pf0.5"`, `"deg0x3"`, `"none"`).
    pub fn id(&self) -> String {
        let mut parts = Vec::new();
        if self.crashes > 0 {
            parts.push(format!("crash{}", self.crashes));
        }
        if self.provision_fail > 0.0 {
            parts.push(format!("pf{:?}", self.provision_fail));
        }
        for (group, multiplier) in &self.degraded {
            parts.push(format!("deg{group}x{multiplier:?}"));
        }
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join("+")
        }
    }

    /// Parses an [`id`](Self::id)-style fragment (`"crash2"`,
    /// `"crash1+pf0.5+deg0x3.0"`, `"none"`) into a spec over the given
    /// seed and window — the inverse of `id`, for `--fault` flags. A crash
    /// count above [`MAX_CRASHES`] does not parse.
    pub fn parse(raw: &str, seed: u64, window_s: f64) -> Option<Self> {
        let mut spec = FaultSpec::new(seed, window_s);
        if raw.trim().eq_ignore_ascii_case("none") {
            return Some(spec);
        }
        for part in raw.split('+') {
            let part = part.trim();
            if let Some(count) = part.strip_prefix("crash") {
                spec.crashes = count.parse().ok().filter(|n| (1..=MAX_CRASHES).contains(n))?;
            } else if let Some(probability) = part.strip_prefix("pf") {
                let probability: f64 = probability.parse().ok()?;
                if !(0.0..=1.0).contains(&probability) {
                    return None;
                }
                spec.provision_fail = probability;
            } else if let Some(rest) = part.strip_prefix("deg") {
                let (group, multiplier) = rest.split_once('x')?;
                let multiplier: f64 = multiplier.parse().ok()?;
                if !multiplier.is_finite() || multiplier < 1.0 {
                    return None;
                }
                spec.degraded.push((group.parse().ok()?, multiplier));
            } else {
                return None;
            }
        }
        Some(spec)
    }

    /// Expands the spec into a concrete plan for a fleet of `group_count`
    /// groups: crash `(time, group)` pairs drawn from the derived seed and
    /// sorted by time, per-group service multipliers, and the provisioning
    /// roll stream.
    ///
    /// # Panics
    ///
    /// Panics when the fleet has no groups, a degraded entry names a group
    /// outside the fleet, or the spec injects more than [`MAX_CRASHES`]
    /// crashes — checked before any is allocated.
    pub(crate) fn plan(&self, group_count: usize) -> FaultPlan {
        assert!(group_count >= 1, "a fault plan needs at least one shard group");
        assert!(
            self.crashes <= MAX_CRASHES,
            "a fault spec injects at most {MAX_CRASHES} crashes, not {}",
            self.crashes
        );
        let mut rng = StdRng::seed_from_u64(derive_seed(self.seed, "faults"));
        let mut crashes: Vec<(f64, usize)> = (0..self.crashes)
            .map(|_| {
                let at: f64 = rng.gen::<f64>() * self.window_s;
                let group = rng.gen_range(0..group_count);
                (at, group)
            })
            .collect();
        crashes.sort_by(|a, b| {
            a.0.partial_cmp(&b.0).expect("crash times are finite").then(a.1.cmp(&b.1))
        });
        let mut multipliers = vec![1.0; group_count];
        for &(group, multiplier) in &self.degraded {
            assert!(group < group_count, "degraded group {group} outside fleet of {group_count}");
            multipliers[group] *= multiplier;
        }
        FaultPlan {
            crashes: crashes.into(),
            multipliers,
            provision_fail: self.provision_fail,
            rolls: StdRng::seed_from_u64(derive_seed(self.seed, "provision")),
        }
    }
}

/// The concrete, seed-derived fault schedule the simulation consumes.
#[derive(Debug, Clone)]
pub(crate) struct FaultPlan {
    crashes: VecDeque<(f64, usize)>,
    multipliers: Vec<f64>,
    provision_fail: f64,
    rolls: StdRng,
}

impl FaultPlan {
    /// The next scheduled crash time, if any remain.
    pub(crate) fn next_crash_at(&self) -> Option<f64> {
        self.crashes.front().map(|&(at, _)| at)
    }

    /// Pops the next crash due at or before `now` as `(time, group)`.
    pub(crate) fn pop_crash_due(&mut self, now: f64) -> Option<(f64, usize)> {
        if self.next_crash_at()? <= now {
            self.crashes.pop_front()
        } else {
            None
        }
    }

    /// The service-time multiplier of a group (1 for healthy silicon).
    pub(crate) fn multiplier(&self, group: usize) -> f64 {
        self.multipliers[group]
    }

    /// Rolls whether one scheduled scale-up succeeds. The roll stream is
    /// seeded, and the simulation consumes rolls in deterministic event
    /// order, so the sequence of outcomes is reproducible.
    pub(crate) fn provision_succeeds(&mut self) -> bool {
        if self.provision_fail <= 0.0 {
            return true;
        }
        self.rolls.gen::<f64>() >= self.provision_fail
    }
}

/// One injected shard crash, as reported in the outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashEvent {
    /// When the shard crashed.
    pub at_s: f64,
    /// The global slot index of the crashed shard.
    pub shard: usize,
    /// The group the shard belonged to.
    pub group: usize,
    /// Requests that were in flight on the shard and returned to the
    /// queue head for re-dispatch (0 when it crashed idle).
    pub redispatched: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_sorted() {
        let spec = FaultSpec::new(7, 2.0).with_crashes(5);
        let a = spec.plan(3);
        let b = spec.plan(3);
        let mut times_a = Vec::new();
        let mut a = a;
        while let Some((at, group)) = a.pop_crash_due(f64::INFINITY) {
            assert!((0.0..2.0).contains(&at));
            assert!(group < 3);
            times_a.push((at, group));
        }
        assert!(times_a.windows(2).all(|w| w[0].0 <= w[1].0), "crashes pop in time order");
        let mut b = b;
        let times_b: Vec<_> = std::iter::from_fn(|| b.pop_crash_due(f64::INFINITY)).collect();
        assert_eq!(times_a, times_b, "same spec, same plan");
        let mut c = FaultSpec::new(8, 2.0).with_crashes(5).plan(3);
        let times_c: Vec<_> = std::iter::from_fn(|| c.pop_crash_due(f64::INFINITY)).collect();
        assert_ne!(times_a, times_c, "different seeds decorrelate");
    }

    #[test]
    fn crashes_pop_only_when_due() {
        let mut plan = FaultSpec::new(3, 1.0).with_crashes(2).plan(1);
        let first = plan.next_crash_at().expect("two crashes scheduled");
        assert_eq!(plan.pop_crash_due(first - 1e-9), None, "not due yet");
        let (at, group) = plan.pop_crash_due(first).expect("due exactly at its time");
        assert_eq!(at, first);
        assert_eq!(group, 0, "single-group fleets only crash group 0");
    }

    #[test]
    fn degraded_multipliers_compose_and_healthy_groups_stay_at_one() {
        let plan = FaultSpec::new(1, 1.0).with_degraded(1, 2.0).with_degraded(1, 1.5).plan(2);
        assert_eq!(plan.multiplier(0), 1.0);
        assert!((plan.multiplier(1) - 3.0).abs() < 1e-12, "multipliers compose");
    }

    #[test]
    fn provision_rolls_match_the_configured_probability() {
        let mut sure = FaultSpec::new(1, 1.0).plan(1);
        assert!((0..100).all(|_| sure.provision_succeeds()), "benign specs never fail");
        let mut never = FaultSpec::new(1, 1.0).with_provision_fail(1.0).plan(1);
        assert!((0..100).all(|_| !never.provision_succeeds()));
        let mut half = FaultSpec::new(1, 1.0).with_provision_fail(0.5).plan(1);
        let failures = (0..1000).filter(|_| !half.provision_succeeds()).count();
        assert!((350..=650).contains(&failures), "{failures} failures out of 1000 at p=0.5");
    }

    #[test]
    fn ids_encode_the_regime() {
        assert_eq!(FaultSpec::new(1, 1.0).id(), "none");
        assert_eq!(FaultSpec::new(1, 1.0).with_crashes(2).id(), "crash2");
        assert_eq!(
            FaultSpec::new(1, 1.0).with_crashes(1).with_provision_fail(0.5).id(),
            "crash1+pf0.5"
        );
        assert_eq!(FaultSpec::new(1, 1.0).with_degraded(0, 3.0).id(), "deg0x3.0");
    }

    #[test]
    fn ids_round_trip_through_parse() {
        for spec in [
            FaultSpec::new(9, 2.0),
            FaultSpec::new(9, 2.0).with_crashes(3),
            FaultSpec::new(9, 2.0).with_crashes(1).with_provision_fail(0.5),
            FaultSpec::new(9, 2.0).with_degraded(0, 3.0).with_degraded(1, 1.5),
        ] {
            assert_eq!(FaultSpec::parse(&spec.id(), 9, 2.0), Some(spec.clone()), "{}", spec.id());
        }
        let too_many = format!("crash{}", MAX_CRASHES + 1);
        for bad in
            ["crash", "crash0", &too_many, "pf1.5", "deg0", "deg0x0.5", "bogus", "crash2+", ""]
        {
            assert!(FaultSpec::parse(bad, 9, 2.0).is_none(), "{bad:?} must not parse");
        }
        assert!(FaultSpec::parse(&format!("crash{MAX_CRASHES}"), 9, 2.0).is_some());
    }

    #[test]
    #[should_panic(expected = "at most 65536 crashes")]
    fn a_plan_over_the_crash_bound_is_refused_before_it_allocates() {
        FaultSpec::new(1, 1.0).with_crashes(2_000_000_000).plan(1);
    }

    #[test]
    #[should_panic(expected = "outside fleet")]
    fn degraded_groups_must_exist() {
        FaultSpec::new(1, 1.0).with_degraded(2, 2.0).plan(2);
    }

    #[test]
    #[should_panic(expected = "must be >= 1")]
    fn speedup_multipliers_are_rejected() {
        FaultSpec::new(1, 1.0).with_degraded(0, 0.5);
    }
}
