//! Composable production-traffic scenarios: rate shapes, tenant mixes and
//! a library of named scenario definitions.
//!
//! The generators in `crate::arrivals` produce *stationary* demand — a
//! fixed mean rate for the whole stream. Production traffic is not
//! stationary: it follows daily cycles, spikes when something goes viral,
//! and arrives from tenants with different weights, rate limits and
//! latency SLOs. Rather than new generators, this module composes
//! [`RateShape`]s *over* the existing ones by thinning: the base stream is
//! generated at the shapes' peak rate, then each request survives with
//! probability `shape(t) / peak` drawn from a seed-derived RNG — so a
//! shaped stream is exactly as deterministic as its base, Poisson and
//! bursty processes both shape correctly, and shapes stack
//! multiplicatively (a diurnal wave with a flash crowd on top is just two
//! entries in the list).
//!
//! A [`TenantMix`] assigns every surviving request a tenant drawn by
//! weight from its own seed-derived stream; per-tenant rate limits and
//! SLOs travel with the mix into the simulation's admission control (see
//! `crate::sim`).
//!
//! [`ScenarioSpec::library`] names the canonical scenarios — diurnal,
//! flash crowd, overload with load shedding, multi-tenant, crash/recovery
//! and degraded silicon — each with the property its tests pin. The
//! `serve` binary runs every one of them as a named arm of its default
//! sweep, so the trend gate tracks the whole failure/overload regime
//! across PRs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use neura_lab::spec::derive_seed;

use crate::arrivals::{Request, StreamSpec};
use crate::fault::FaultSpec;

/// A multiplicative modulation of the arrival rate over time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateShape {
    /// Sinusoidal day/night modulation:
    /// `rate(t) = base x (1 + depth x sin(2π x cycles x t / duration))`.
    /// The wave averages to 1 over whole cycles, so the stream keeps its
    /// base *mean* rate while peaks reach `1 + depth` times it.
    Diurnal {
        /// Whole modulation cycles over the stream duration.
        cycles: f64,
        /// Peak deviation from the base rate, in `[0, 1)`.
        depth: f64,
    },
    /// A flash crowd: the rate multiplies by `boost` inside the window
    /// starting at fraction `start` of the duration and lasting fraction
    /// `width` of it.
    Flash {
        /// Window start as a fraction of the duration, in `[0, 1)`.
        start: f64,
        /// Window width as a fraction of the duration, in `(0, 1]`.
        width: f64,
        /// Rate multiplier inside the window.
        boost: f64,
    },
}

impl RateShape {
    /// The rate factor at time `t` of a `duration_s`-long stream.
    ///
    /// # Panics
    ///
    /// Panics when a shape parameter is outside its documented range.
    pub(crate) fn factor(&self, t: f64, duration_s: f64) -> f64 {
        match *self {
            RateShape::Diurnal { cycles, depth } => {
                assert!(cycles > 0.0 && cycles.is_finite(), "diurnal cycles must be positive");
                assert!((0.0..1.0).contains(&depth), "diurnal depth must lie in [0, 1)");
                1.0 + depth * (std::f64::consts::TAU * cycles * t / duration_s).sin()
            }
            RateShape::Flash { start, width, boost } => {
                assert!((0.0..1.0).contains(&start), "flash start must lie in [0, 1)");
                assert!(width > 0.0 && width <= 1.0, "flash width must lie in (0, 1]");
                assert!(boost.is_finite() && boost > 0.0, "flash boost must be positive");
                let frac = t / duration_s;
                if frac >= start && frac < start + width {
                    boost
                } else {
                    1.0
                }
            }
        }
    }

    /// The shape's smallest factor, computed as [`Self::factor`] computes
    /// it at its minimum, so no factor is below it.
    ///
    /// # Panics
    ///
    /// As [`Self::factor`].
    pub(crate) fn floor(&self) -> f64 {
        // Validates the parameters at no particular time.
        self.factor(0.0, 1.0);
        match *self {
            RateShape::Diurnal { depth, .. } => 1.0 - depth,
            RateShape::Flash { boost, .. } => boost.min(1.0),
        }
    }

    /// The shape's largest factor — the thinning generator's headroom.
    pub fn peak(&self) -> f64 {
        match *self {
            RateShape::Diurnal { depth, .. } => 1.0 + depth,
            RateShape::Flash { boost, .. } => boost.max(1.0),
        }
    }
}

/// One tenant of a multi-tenant mix.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Stable name, used in per-tenant record IDs.
    pub name: String,
    /// Relative traffic weight (requests draw tenants by weight).
    pub weight: f64,
    /// Admitted-throughput cap in requests per second (`None` =
    /// unlimited). Enforced by the simulation's token-bucket admission.
    pub rate_limit_rps: Option<f64>,
    /// Latency SLO in seconds (`None` = none); reported as per-tenant SLO
    /// attainment, never enforced.
    pub slo_s: Option<f64>,
}

/// Burst allowance of the admission token bucket, in seconds of the
/// tenant's rate limit: a tenant may briefly admit up to
/// `rate x TENANT_BURST_S` requests beyond the steady rate (at least 1).
pub const TENANT_BURST_S: f64 = 0.25;

/// A weighted tenant population with optional per-tenant limits and SLOs.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMix {
    tenants: Vec<TenantSpec>,
}

impl TenantMix {
    /// A mix from explicit tenant specs.
    ///
    /// # Panics
    ///
    /// Panics when the mix is empty, a weight is not finite and positive,
    /// a name repeats, or a rate limit / SLO is not finite and positive.
    pub fn new(tenants: Vec<TenantSpec>) -> Self {
        assert!(!tenants.is_empty(), "a tenant mix needs at least one tenant");
        for (i, tenant) in tenants.iter().enumerate() {
            assert!(
                tenant.weight.is_finite() && tenant.weight > 0.0,
                "tenant {:?} weight must be positive",
                tenant.name
            );
            assert!(
                tenants[..i].iter().all(|t| t.name != tenant.name),
                "duplicate tenant name {:?}",
                tenant.name
            );
            if let Some(limit) = tenant.rate_limit_rps {
                assert!(limit.is_finite() && limit > 0.0, "rate limits must be positive");
            }
            if let Some(slo) = tenant.slo_s {
                assert!(slo.is_finite() && slo > 0.0, "SLOs must be positive");
            }
        }
        TenantMix { tenants }
    }

    /// Parses one `name:weight[:limit_rps[:slo_ms]]` flag value (0 in the
    /// limit or SLO position means "none"). Call once per `--tenant` flag
    /// and collect into [`Self::new`].
    pub fn parse_tenant(raw: &str) -> Option<TenantSpec> {
        let mut parts = raw.split(':');
        let name = parts.next()?.trim();
        if name.is_empty() {
            return None;
        }
        let weight: f64 = parts.next()?.trim().parse().ok()?;
        if !weight.is_finite() || weight <= 0.0 {
            return None;
        }
        let optional = |raw: Option<&str>| -> Option<Option<f64>> {
            match raw {
                None => Some(None),
                Some(text) => {
                    let value: f64 = text.trim().parse().ok()?;
                    if value < 0.0 || !value.is_finite() {
                        return None;
                    }
                    Some((value > 0.0).then_some(value))
                }
            }
        };
        let rate_limit_rps = optional(parts.next())?;
        let slo_ms = optional(parts.next())?;
        if parts.next().is_some() {
            return None;
        }
        Some(TenantSpec {
            name: name.to_string(),
            weight,
            rate_limit_rps,
            slo_s: slo_ms.map(|ms| ms / 1e3),
        })
    }

    /// The tenants, in declaration order (request `tenant` indices point
    /// into this slice).
    pub(crate) fn tenants(&self) -> &[TenantSpec] {
        &self.tenants
    }

    /// Draws one tenant index by weight.
    pub(crate) fn draw(&self, rng: &mut StdRng) -> usize {
        let total: f64 = self.tenants.iter().map(|t| t.weight).sum();
        let mut u = rng.gen::<f64>() * total;
        for (i, tenant) in self.tenants.iter().enumerate() {
            u -= tenant.weight;
            if u < 0.0 {
                return i;
            }
        }
        self.tenants.len() - 1
    }

    /// Stable ID fragment (`"gold4+free1"` — names and weights).
    pub(crate) fn id(&self) -> String {
        self.tenants
            .iter()
            .map(|t| format!("{}{:?}", t.name, t.weight))
            .collect::<Vec<_>>()
            .join("+")
    }
}

/// A rate-shaped, optionally multi-tenant stream: shapes compose over the
/// base generator by thinning, so the result is exactly as deterministic
/// as the base spec.
#[derive(Debug, Clone, PartialEq)]
pub struct ShapedStream {
    /// The base stationary stream (its `rps` is the shaped stream's mean
    /// rate wherever the shapes average to 1).
    pub base: StreamSpec,
    /// Rate shapes, composed multiplicatively (empty = stationary).
    pub shapes: Vec<RateShape>,
    /// Tenant population (`None` = single implicit tenant 0).
    pub tenants: Option<TenantMix>,
}

impl ShapedStream {
    /// Expands the spec into a concrete stream: the base generator runs at
    /// the shapes' combined peak rate, each candidate survives with
    /// probability `factor(t) / peak`, survivors are re-numbered in
    /// arrival order and assigned tenants by weight. Thinning and tenant
    /// draws come from RNG streams derived from the base seed, so the
    /// result is a pure function of the spec.
    ///
    /// # Panics
    ///
    /// As [`StreamSpec::generate`], plus the [`RateShape`] parameter
    /// checks.
    pub fn generate(&self) -> Vec<Request> {
        let peak: f64 = self.shapes.iter().map(RateShape::peak).product();
        // A candidate whose thinning draw falls below `sure` survives
        // whatever the time: every factor is at least its shape's floor,
        // and the product and the division round monotonically. So it is
        // kept without computing its factor.
        let sure = self.shapes.iter().map(RateShape::floor).product::<f64>() / peak;
        // The candidates, the thinning draws and the tenant draws are three
        // independent RNG streams, so candidates are thinned as they come,
        // only the survivors are ever held, and a dropped candidate's class
        // draws are skipped rather than reduced to a class.
        let candidates = StreamSpec { rps: self.base.rps * peak, ..self.base.clone() };
        let mut thin = StdRng::seed_from_u64(derive_seed(self.base.seed, "shape"));
        let mut tenant_rng = StdRng::seed_from_u64(derive_seed(self.base.seed, "tenant"));
        // Without a shape every candidate survives (`u < 1` for every draw
        // `u` in [0, 1)), so the thinning stream, which nothing else reads,
        // is not drawn from.
        let thinned = !self.shapes.is_empty();
        let mut requests = Vec::new();
        let mut stream = candidates.requests();
        while let Some(arrival_s) = stream.next_time() {
            if thinned {
                // Draw unconditionally so the survivor set of a request never
                // depends on how earlier draws were used.
                let u = thin.gen::<f64>();
                let keep = u < sure || {
                    let factor: f64 = self
                        .shapes
                        .iter()
                        .map(|s| s.factor(arrival_s, self.base.duration_s))
                        .product();
                    u < factor / peak
                };
                if !keep {
                    stream.skip_class();
                    continue;
                }
            }
            let class = stream.class();
            let tenant = self.tenants.as_ref().map_or(0, |mix| mix.draw(&mut tenant_rng));
            requests.push(Request { id: requests.len(), arrival_s, class, tenant });
        }
        requests
    }
}

/// One named scenario of the library: a rate shape, a failure regime and
/// admission-control knobs over a calibrated base workload, plus the
/// property its tests pin.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Stable name (`"diurnal"`, `"overload"`, ...), used in run IDs.
    pub name: &'static str,
    /// One-line description for docs and the `serve --help` text.
    pub summary: &'static str,
    /// Rate shapes composed over the base stream.
    pub shapes: Vec<RateShape>,
    /// Offered load as a multiple of the scenario fleet's capacity
    /// (1.0 = the fleet can just barely keep up on average).
    pub load: f64,
    /// Backlog bound for load shedding (`None` = admit everything).
    pub queue_bound: Option<usize>,
    /// Tenant population (`None` = single-tenant).
    pub tenants: Option<TenantMix>,
    /// Injected shard crashes.
    pub crashes: usize,
    /// Probability each scheduled scale-up fails.
    pub provision_fail: f64,
    /// Degraded groups as `(group, service multiplier)`.
    pub degraded: Vec<(usize, f64)>,
    /// Whether the scenario runs under the autoscaler (crash recovery
    /// flows through its provisioning path).
    pub elastic: bool,
    /// The property the scenario's tests pin, for the README table.
    pub pinned: &'static str,
}

impl ScenarioSpec {
    /// The canonical scenario library, in stable order. Every entry lands
    /// as a named arm in the `serve` binary's default sweep.
    pub fn library() -> Vec<ScenarioSpec> {
        let flat = |name, summary, pinned| ScenarioSpec {
            name,
            summary,
            shapes: Vec::new(),
            load: 0.8,
            queue_bound: None,
            tenants: None,
            crashes: 0,
            provision_fail: 0.0,
            degraded: Vec::new(),
            elastic: false,
            pinned,
        };
        vec![
            ScenarioSpec {
                shapes: vec![RateShape::Diurnal { cycles: 4.0, depth: 0.8 }],
                load: 0.7,
                elastic: true,
                ..flat(
                    "diurnal",
                    "sinusoidal day/night wave under the autoscaler",
                    "byte-identical across runner threads and repeat runs",
                )
            },
            ScenarioSpec {
                shapes: vec![RateShape::Flash { start: 0.5, width: 0.1, boost: 4.0 }],
                load: 0.7,
                elastic: true,
                ..flat(
                    "flash",
                    "4x flash crowd mid-stream under the autoscaler",
                    "byte-identical across runner threads and repeat runs",
                )
            },
            ScenarioSpec {
                load: 3.0,
                queue_bound: Some(OVERLOAD_QUEUE_BOUND),
                ..flat(
                    "overload",
                    "3x capacity against a bounded queue",
                    "shedding bounds admitted p99 and queue depth; shed rate is monotone in load",
                )
            },
            ScenarioSpec {
                load: 1.5,
                queue_bound: Some(OVERLOAD_QUEUE_BOUND),
                tenants: Some(TenantMix::new(vec![
                    TenantSpec {
                        name: "gold".to_string(),
                        weight: 4.0,
                        rate_limit_rps: None,
                        slo_s: Some(0.25),
                    },
                    TenantSpec {
                        name: "silver".to_string(),
                        weight: 2.0,
                        rate_limit_rps: None,
                        slo_s: None,
                    },
                    TenantSpec {
                        name: "free".to_string(),
                        weight: 2.0,
                        rate_limit_rps: Some(1.0),
                        slo_s: None,
                    },
                ])),
                ..flat(
                    "tenants",
                    "gold/silver/free mix with a rate-limited free tier",
                    "admitted throughput never exceeds a tenant's rate limit",
                )
            },
            ScenarioSpec {
                load: 0.9,
                crashes: 2,
                elastic: true,
                ..flat(
                    "crash",
                    "two seed-derived shard crashes, recovery via the autoscaler",
                    "exactly-once accounting; recovery waits out the provisioning delay",
                )
            },
            ScenarioSpec {
                load: 0.9,
                provision_fail: 0.5,
                degraded: vec![(0, 3.0)],
                elastic: true,
                ..flat(
                    "degraded",
                    "3x-slow silicon with half of all provisioning attempts failing",
                    "exactly-once accounting under degraded service and flaky provisioning",
                )
            },
        ]
    }

    /// Looks a scenario up by name (case-insensitive).
    pub fn by_name(name: &str) -> Option<ScenarioSpec> {
        Self::library().into_iter().find(|s| s.name.eq_ignore_ascii_case(name))
    }

    /// Every library scenario name, in library order.
    pub fn names() -> Vec<&'static str> {
        Self::library().into_iter().map(|s| s.name).collect()
    }

    /// The scenario's failure regime over a `window_s` horizon, seeded
    /// from the scenario seed (`None` when the scenario is fault-free).
    pub fn fault_spec(&self, seed: u64, window_s: f64) -> Option<FaultSpec> {
        let mut spec = FaultSpec::new(derive_seed(seed, "fault"), window_s)
            .with_crashes(self.crashes)
            .with_provision_fail(self.provision_fail);
        for &(group, multiplier) in &self.degraded {
            spec = spec.with_degraded(group, multiplier);
        }
        (!spec.is_benign()).then_some(spec)
    }

    /// Wraps a calibrated base stream in the scenario's shapes and
    /// tenants. The caller sets `base.rps` to
    /// `load x fleet capacity` and `base.seed` to the scenario seed.
    pub fn shaped(&self, base: StreamSpec) -> ShapedStream {
        ShapedStream { base, shapes: self.shapes.clone(), tenants: self.tenants.clone() }
    }
}

/// The backlog bound the overload scenarios shed at.
pub(crate) const OVERLOAD_QUEUE_BOUND: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::ArrivalProcess;
    use crate::cost::RequestClass;

    fn base(seed: u64) -> StreamSpec {
        StreamSpec {
            arrival: ArrivalProcess::Poisson,
            rps: 1000.0,
            duration_s: 2.0,
            mix_size: 2,
            shrinks: vec![1, 2],
            seed,
        }
    }

    #[test]
    fn shapes_average_to_their_documented_means() {
        let duration = 2.0;
        let samples = 10_000;
        let mean = |shape: RateShape| {
            (0..samples)
                .map(|i| shape.factor(duration * i as f64 / samples as f64, duration))
                .sum::<f64>()
                / samples as f64
        };
        let diurnal = mean(RateShape::Diurnal { cycles: 4.0, depth: 0.8 });
        assert!((diurnal - 1.0).abs() < 0.01, "whole diurnal cycles average to 1, got {diurnal}");
        let flash = mean(RateShape::Flash { start: 0.5, width: 0.1, boost: 4.0 });
        assert!((flash - 1.3).abs() < 0.01, "flash mean is 1 + width x (boost - 1), got {flash}");
    }

    #[test]
    fn shaped_streams_are_deterministic_sorted_and_positional() {
        let shaped = ShapedStream {
            base: base(11),
            shapes: vec![
                RateShape::Diurnal { cycles: 4.0, depth: 0.8 },
                RateShape::Flash { start: 0.25, width: 0.1, boost: 2.0 },
            ],
            tenants: None,
        };
        let stream = shaped.generate();
        assert!(!stream.is_empty());
        assert_eq!(stream, shaped.generate(), "same spec, same stream");
        assert!(stream.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        for (i, request) in stream.iter().enumerate() {
            assert_eq!(request.id, i);
            assert_eq!(request.tenant, 0, "no mix, implicit tenant 0");
        }
    }

    #[test]
    fn unshaped_single_tenant_streams_match_their_base() {
        let shaped = ShapedStream { base: base(3), shapes: Vec::new(), tenants: None };
        assert_eq!(shaped.generate(), base(3).generate());
    }

    #[test]
    fn diurnal_thinning_preserves_the_mean_rate() {
        let shaped = ShapedStream {
            base: base(5),
            shapes: vec![RateShape::Diurnal { cycles: 4.0, depth: 0.8 }],
            tenants: None,
        };
        let n = shaped.generate().len() as f64;
        let expected = shaped.base.rps * shaped.base.duration_s;
        assert!((n - expected).abs() < expected * 0.15, "{n} arrivals vs {expected} expected");
    }

    #[test]
    fn flash_windows_concentrate_arrivals() {
        let shaped = ShapedStream {
            base: base(9),
            shapes: vec![RateShape::Flash { start: 0.5, width: 0.1, boost: 4.0 }],
            tenants: None,
        };
        let stream = shaped.generate();
        let duration = shaped.base.duration_s;
        let in_window = stream
            .iter()
            .filter(|r| r.arrival_s >= 0.5 * duration && r.arrival_s < 0.6 * duration)
            .count() as f64;
        // The window holds 10% of the time but boost/(0.9 + 0.1 x boost) =
        // ~31% of the arrivals.
        let share = in_window / stream.len() as f64;
        assert!(share > 0.25, "flash window holds {share} of arrivals, expected ~0.31");
    }

    #[test]
    fn tenants_draw_by_weight_from_their_own_stream() {
        let mix = TenantMix::new(vec![
            TenantSpec { name: "a".into(), weight: 3.0, rate_limit_rps: None, slo_s: None },
            TenantSpec { name: "b".into(), weight: 1.0, rate_limit_rps: None, slo_s: None },
        ]);
        let shaped = ShapedStream { base: base(13), shapes: Vec::new(), tenants: Some(mix) };
        let stream = shaped.generate();
        let b_share = stream.iter().filter(|r| r.tenant == 1).count() as f64 / stream.len() as f64;
        assert!((b_share - 0.25).abs() < 0.05, "tenant b drew {b_share}, expected ~0.25");
        // Tenant assignment must not perturb arrival times: same base,
        // same arrivals.
        let plain = base(13).generate();
        assert_eq!(stream.len(), plain.len());
        assert!(stream.iter().zip(&plain).all(|(s, p)| s.arrival_s == p.arrival_s));
    }

    #[test]
    fn tenant_flags_parse_and_reject_malformed_input() {
        let gold = TenantMix::parse_tenant("gold:4:0:250").expect("full form parses");
        assert_eq!(gold.name, "gold");
        assert_eq!(gold.rate_limit_rps, None, "0 means no limit");
        assert_eq!(gold.slo_s, Some(0.25));
        let free = TenantMix::parse_tenant("free:1:200").expect("limit-only form parses");
        assert_eq!(free.rate_limit_rps, Some(200.0));
        assert_eq!(free.slo_s, None);
        assert!(TenantMix::parse_tenant("bare:2").is_some());
        for bad in ["", "noweight", "x:-1", "x:0", "x:1:2:3:4", ":2"] {
            assert!(TenantMix::parse_tenant(bad).is_none(), "{bad:?} must not parse");
        }
        let mix = TenantMix::new(vec![gold, free]);
        assert_eq!(mix.id(), "gold4.0+free1.0");
        assert_eq!(mix.tenants.len(), 2);
    }

    #[test]
    fn the_library_is_stable_and_named_uniquely() {
        let library = ScenarioSpec::library();
        assert!(library.len() >= 5, "the default sweep promises at least 5 scenario arms");
        let names = ScenarioSpec::names();
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "scenario names are unique");
        for scenario in &library {
            assert_eq!(ScenarioSpec::by_name(scenario.name).as_ref(), Some(scenario));
            assert!(!scenario.pinned.is_empty(), "every scenario pins a property");
            assert!(scenario.load > 0.0);
        }
        assert!(ScenarioSpec::by_name("DIURNAL").is_some(), "lookup is case-insensitive");
        assert!(ScenarioSpec::by_name("nope").is_none());
        // The fault-free scenarios produce no fault spec; the crash
        // scenario derives one from the seed.
        let diurnal = ScenarioSpec::by_name("diurnal").unwrap();
        assert!(diurnal.fault_spec(1, 2.0).is_none());
        let crash = ScenarioSpec::by_name("crash").unwrap();
        let fault = crash.fault_spec(1, 2.0).expect("crash scenario has faults");
        assert_eq!(fault.crashes, 2);
        assert_eq!(fault.id(), "crash2");
    }

    /// [`ShapedStream::generate`] as it was before it streamed: the whole
    /// candidate stream generated first, then thinned in a second pass.
    fn two_pass_generate(shaped: &ShapedStream) -> Vec<Request> {
        let peak: f64 = shaped.shapes.iter().map(RateShape::peak).product();
        let raw = StreamSpec { rps: shaped.base.rps * peak, ..shaped.base.clone() }.generate();
        let mut thin = StdRng::seed_from_u64(derive_seed(shaped.base.seed, "shape"));
        let mut tenant_rng = StdRng::seed_from_u64(derive_seed(shaped.base.seed, "tenant"));
        let mut requests = Vec::new();
        for request in raw {
            let factor: f64 = shaped
                .shapes
                .iter()
                .map(|s| s.factor(request.arrival_s, shaped.base.duration_s))
                .product();
            // Draw unconditionally so the survivor set of a request never
            // depends on how earlier draws were used.
            let keep = thin.gen::<f64>() < factor / peak;
            if !keep {
                continue;
            }
            let tenant = shaped.tenants.as_ref().map_or(0, |mix| mix.draw(&mut tenant_rng));
            requests.push(Request {
                id: requests.len(),
                arrival_s: request.arrival_s,
                class: request.class,
                tenant,
            });
        }
        requests
    }

    #[test]
    fn streamed_thinning_equals_the_two_pass_body() {
        for scenario in ScenarioSpec::library() {
            for (seed, arrival) in [
                (1, ArrivalProcess::Poisson),
                (7, ArrivalProcess::Bursty),
                (1234, ArrivalProcess::Poisson),
            ] {
                let shaped = scenario.shaped(StreamSpec { arrival, ..base(seed) });
                let stream = shaped.generate();
                assert!(!stream.is_empty(), "{} seed {seed}", scenario.name);
                assert_eq!(stream, two_pass_generate(&shaped), "{} seed {seed}", scenario.name);
            }
        }
    }

    #[test]
    #[should_panic(expected = "duplicate tenant name")]
    fn duplicate_tenant_names_are_rejected() {
        let t = |name: &str| TenantSpec {
            name: name.to_string(),
            weight: 1.0,
            rate_limit_rps: None,
            slo_s: None,
        };
        TenantMix::new(vec![t("a"), t("a")]);
    }

    /// A request as bits, so two streams compare exactly.
    fn bits(request: &Request) -> (usize, u64, RequestClass, usize) {
        (request.id, request.arrival_s.to_bits(), request.class, request.tenant)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// Skipping a dropped candidate's class draws and a sure survivor's
        /// factor changes no bit of the stream against the two-pass body,
        /// which draws every candidate's class and computes every factor:
        /// diurnal, flash (boosts and dips), both stacked, no shape, over
        /// Poisson and bursty bases, with and without tenants.
        #[test]
        fn generate_matches_drawing_everything(
            (seed, shapes, bursty, tenants) in (0u64..1_000_000, 0usize..4, 0usize..2, 0usize..2),
            (cycles, depth) in (0.5f64..8.0, 0.0f64..0.99),
            (start, width, boost) in (0.0f64..0.9, 0.01f64..1.0, 0.2f64..6.0),
            (rps, duration_s, mix_size) in (50.0f64..3_000.0, 0.5f64..3.0, 1usize..6),
        ) {
            let diurnal = RateShape::Diurnal { cycles, depth };
            let flash = RateShape::Flash { start, width, boost };
            let arrival = [ArrivalProcess::Poisson, ArrivalProcess::Bursty][bursty];
            let tenant = |name: &str, weight| TenantSpec {
                name: name.to_string(),
                weight,
                rate_limit_rps: None,
                slo_s: None,
            };
            let shaped = ShapedStream {
                base: StreamSpec { arrival, rps, duration_s, mix_size, shrinks: vec![1, 2, 4], seed },
                shapes: [vec![diurnal], vec![flash], vec![diurnal, flash], Vec::new()][shapes].clone(),
                tenants: (tenants == 1)
                    .then(|| TenantMix::new(vec![tenant("gold", 3.0), tenant("free", 1.0)])),
            };
            let fast: Vec<_> = shaped.generate().iter().map(bits).collect();
            let full: Vec<_> = two_pass_generate(&shaped).iter().map(bits).collect();
            proptest::prop_assert_eq!(fast, full);
        }
    }
}
