//! Deterministic request generation: open-loop streams and closed-loop
//! client populations.
//!
//! A [`StreamSpec`] names an arrival process, a target rate, a duration and
//! the request mix; [`StreamSpec::generate`] expands it into a concrete,
//! time-sorted request list using the workspace's seeded `StdRng`, so the
//! same spec always produces the identical stream — the property every
//! serving A/B comparison (and the artifact byte-identity contract) rests
//! on. Two processes are modelled:
//!
//! - **Poisson** — memoryless open-loop traffic: exponential inter-arrival
//!   times at the target rate.
//! - **Bursty** — on/off-modulated Poisson traffic: arrivals are generated
//!   at `rate / BURST_ON_FRACTION` and kept only inside the "on" fraction
//!   of each [`BURST_PERIOD_S`] window, preserving the target *mean* rate
//!   while concentrating it into bursts (the worst case for tail latency).
//!
//! Open-loop arrivals ignore completions: the stream keeps coming however
//! slow the fleet is, which is right for aggregate internet traffic but
//! wrong for interactive users, who wait for a response before issuing the
//! next request. A [`ClosedLoopSpec`] models those: `clients` users, each
//! issuing one request, thinking for an exponential
//! [`think_s`](ClosedLoopSpec::think_s)-mean pause after its response, then
//! issuing the next — so at most `clients` requests are ever in flight and
//! offered load backs off under saturation. Closed-loop arrivals depend on
//! completions, so they cannot be pre-materialised; the simulation drives
//! them through an event source (see [`crate::sim`]) while each client's
//! draws come from its own seeded RNG stream, keeping the replay a pure
//! function of the spec regardless of service order.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::cost::RequestClass;

/// Fraction of each burst period during which a bursty stream admits
/// arrivals.
pub(crate) const BURST_ON_FRACTION: f64 = 0.25;

/// Upper bound on the on/off modulation period of a bursty stream, in
/// seconds. Streams shorter than [`BURST_PERIODS_MIN`] such periods shrink
/// the period to `duration / BURST_PERIODS_MIN` instead (see
/// [`StreamSpec::burst_period_s`]) — thinning a 1/[`BURST_ON_FRACTION`]×
/// peak rate only preserves the target *mean* rate when the stream spans
/// whole periods, so a short stream must never sit inside a single
/// on-window.
pub(crate) const BURST_PERIOD_S: f64 = 0.5;

/// Minimum number of on/off periods a bursty stream spans.
pub(crate) const BURST_PERIODS_MIN: f64 = 8.0;

/// The most requests a [`StreamSpec`] may expect, `rps × duration_s`. A
/// stream is materialised whole before its replay starts, and both factors
/// are caller-chosen — on the `serve` command line, user-typed — so their
/// product is bounded the way
/// [`MAX_TIMELINE_WINDOWS`](crate::telemetry::MAX_TIMELINE_WINDOWS) bounds
/// a timeline. The sweeps this repository runs stay near 20 000.
pub const MAX_STREAM_REQUESTS: usize = 1 << 24;

/// The arrival process shaping a request stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Memoryless open-loop arrivals at the target rate.
    Poisson,
    /// On/off-modulated Poisson arrivals with the same mean rate.
    Bursty,
}

impl ArrivalProcess {
    /// Every supported process.
    pub const ALL: [ArrivalProcess; 2] = [ArrivalProcess::Poisson, ArrivalProcess::Bursty];

    /// Lower-case name, used in run IDs and command lines.
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalProcess::Poisson => "poisson",
            ArrivalProcess::Bursty => "bursty",
        }
    }

    /// Parses a process name (`"poisson"` / `"bursty"`, case-insensitive).
    pub fn parse(raw: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.name().eq_ignore_ascii_case(raw))
    }
}

/// One inference request of a stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Position in the stream (0-based, arrival order).
    pub id: usize,
    /// Arrival time in seconds from the start of the scenario.
    pub arrival_s: f64,
    /// The request's workload class.
    pub class: RequestClass,
    /// The issuing tenant: an index into the scenario's
    /// [`TenantMix`](crate::scenario::TenantMix), or 0 for single-tenant
    /// workloads.
    pub tenant: usize,
}

/// Declarative description of one request stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSpec {
    /// Arrival process.
    pub arrival: ArrivalProcess,
    /// Target mean arrival rate in requests per second.
    pub rps: f64,
    /// Stream duration in seconds (arrivals beyond it are dropped).
    pub duration_s: f64,
    /// Number of datasets in the serving mix; each request draws its
    /// dataset index uniformly from `0..mix_size`.
    pub mix_size: usize,
    /// Per-request workload shrink factors, drawn uniformly per request.
    pub shrinks: Vec<usize>,
    /// RNG seed — the stream is a pure function of the spec.
    pub seed: u64,
}

impl StreamSpec {
    /// The on/off modulation period a bursty version of this stream uses:
    /// [`BURST_PERIOD_S`], shrunk so the duration always spans at least
    /// [`BURST_PERIODS_MIN`] whole periods. `duration / BURST_PERIODS_MIN`
    /// divides the duration exactly, so the on-time fraction — and with it
    /// the realised mean rate — matches [`BURST_ON_FRACTION`] for short
    /// streams too.
    pub(crate) fn burst_period_s(&self) -> f64 {
        (self.duration_s / BURST_PERIODS_MIN).min(BURST_PERIOD_S)
    }

    /// Expands the spec into a concrete stream: requests sorted by arrival
    /// time with ids in arrival order.
    ///
    /// # Panics
    ///
    /// Panics when the rate or duration is not finite and positive, the mix
    /// is empty, no shrink factor is given, or the stream expects more than
    /// [`MAX_STREAM_REQUESTS`] requests (a caller that takes the rate or
    /// the duration from a user checks the product first).
    pub fn generate(&self) -> Vec<Request> {
        self.requests().collect()
    }

    /// The stream [`Self::generate`] collects, one request at a time, so a
    /// consumer that drops some of them never holds them all.
    ///
    /// # Panics
    ///
    /// As [`Self::generate`], when called rather than when iterated.
    pub(crate) fn requests(&self) -> Requests<'_> {
        assert!(self.rps.is_finite() && self.rps > 0.0, "arrival rate must be positive");
        assert!(
            self.duration_s.is_finite() && self.duration_s > 0.0,
            "stream duration must be positive"
        );
        assert!(
            self.rps * self.duration_s <= MAX_STREAM_REQUESTS as f64,
            "{} req/s over {} s expects {} requests, more than MAX_STREAM_REQUESTS = \
             {MAX_STREAM_REQUESTS}: shorten the stream",
            self.rps,
            self.duration_s,
            self.rps * self.duration_s
        );
        assert!(self.mix_size >= 1, "the serving mix needs at least one dataset");
        assert!(!self.shrinks.is_empty(), "at least one request shrink factor is required");

        let peak_rate = match self.arrival {
            ArrivalProcess::Poisson => self.rps,
            ArrivalProcess::Bursty => self.rps / BURST_ON_FRACTION,
        };
        Requests {
            spec: self,
            rng: StdRng::seed_from_u64(self.seed),
            peak_rate,
            burst_period: self.burst_period_s(),
            t: 0.0,
            next_id: 0,
        }
    }
}

/// The requests of a [`StreamSpec`], generated one at a time (see
/// [`StreamSpec::requests`]).
pub(crate) struct Requests<'a> {
    spec: &'a StreamSpec,
    rng: StdRng,
    /// The rate candidates are drawn at (a bursty stream keeps only those
    /// inside its on-windows).
    peak_rate: f64,
    burst_period: f64,
    /// The last candidate's arrival time.
    t: f64,
    next_id: usize,
}

impl Requests<'_> {
    /// The next candidate's arrival time (`None` once past the duration);
    /// [`Self::class`] or [`Self::skip_class`] must follow before the next
    /// call, as the class draws come after the time draws in the stream.
    #[inline]
    pub(crate) fn next_time(&mut self) -> Option<f64> {
        let spec = self.spec;
        loop {
            // Exponential inter-arrival via inverse CDF; u ∈ [0, 1) keeps
            // the argument of ln strictly positive.
            let u: f64 = self.rng.gen();
            self.t += -(1.0 - u).ln() / self.peak_rate;
            if self.t >= spec.duration_s {
                return None;
            }
            if spec.arrival == ArrivalProcess::Bursty && !in_burst_window(self.t, self.burst_period)
            {
                continue;
            }
            return Some(self.t);
        }
    }

    /// The class of the candidate [`Self::next_time`] returned.
    #[inline]
    pub(crate) fn class(&mut self) -> RequestClass {
        let spec = self.spec;
        let dataset = self.rng.gen_range(0..spec.mix_size);
        let shrink = spec.shrinks[self.rng.gen_range(0..spec.shrinks.len())];
        RequestClass { dataset, shrink }
    }

    /// Advances past the class draws of the candidate [`Self::next_time`]
    /// returned without reducing them to a class: the stream continues
    /// exactly as after [`Self::class`].
    #[inline]
    pub(crate) fn skip_class(&mut self) {
        self.rng.next_u64();
        self.rng.next_u64();
    }
}

impl Iterator for Requests<'_> {
    type Item = Request;

    // Inlined so the generator's state stays in registers across a
    // consumer's loop rather than round-tripping through memory per call.
    #[inline]
    fn next(&mut self) -> Option<Request> {
        let arrival_s = self.next_time()?;
        let class = self.class();
        let id = self.next_id;
        self.next_id += 1;
        Some(Request { id, arrival_s, class, tenant: 0 })
    }
}

/// Whether `t` falls inside the "on" fraction of its modulation period.
fn in_burst_window(t: f64, period_s: f64) -> bool {
    (t / period_s).fract() < BURST_ON_FRACTION
}

/// Declarative description of a closed-loop client population.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedLoopSpec {
    /// Number of clients; the hard cap on in-flight requests.
    pub clients: usize,
    /// Mean think time in seconds (exponential): the pause between
    /// receiving a response and issuing the next request. Client start
    /// times are staggered by one think draw each, so the population does
    /// not arrive as a thundering herd at t = 0.
    pub think_s: f64,
    /// Horizon in seconds: no request is *issued* at or after it
    /// (in-flight requests still complete).
    pub duration_s: f64,
    /// Number of datasets in the serving mix; each request draws its
    /// dataset index uniformly from `0..mix_size`.
    pub mix_size: usize,
    /// Per-request workload shrink factors, drawn uniformly per request.
    pub shrinks: Vec<usize>,
    /// Base RNG seed; each client derives its own stream from it.
    pub seed: u64,
}

/// Per-client request-generation state: one independently seeded RNG per
/// client, so the sequence of (think, class) draws a client makes is a pure
/// function of `(spec, client index)` — the order in which the fleet serves
/// other clients cannot perturb it.
#[derive(Debug, Clone)]
pub(crate) struct ClosedLoopClients {
    spec: ClosedLoopSpec,
    rngs: Vec<StdRng>,
}

impl ClosedLoopSpec {
    /// Validates the spec and builds the per-client generator state plus
    /// each client's first issue time (one staggered think draw each).
    ///
    /// # Panics
    ///
    /// Panics when there are no clients, the think time is negative or
    /// non-finite, the duration is not positive, the mix is empty, or no
    /// shrink factor is given.
    pub(crate) fn clients(&self) -> (ClosedLoopClients, Vec<(f64, usize)>) {
        self.lane_clients(0, 1)
    }

    /// The lane `lane` slice of a `lanes`-way round-robin split of the
    /// population: global clients `lane, lane + lanes, lane + 2·lanes, …`
    /// renumbered to lane-local indices `0, 1, 2, …`. Every client's RNG
    /// stream is seeded from its *global* index, so the union of all
    /// lanes draws exactly the think times and request classes the
    /// undecomposed population (`lane_clients(0, 1)`, i.e.
    /// [`Self::clients`]) draws — the decomposition moves clients between
    /// lanes without resampling them.
    ///
    /// # Panics
    ///
    /// As [`Self::clients`], plus when `lane >= lanes`.
    pub(crate) fn lane_clients(
        &self,
        lane: usize,
        lanes: usize,
    ) -> (ClosedLoopClients, Vec<(f64, usize)>) {
        assert!(lanes >= 1 && lane < lanes, "lane index must lie within the lane count");
        assert!(self.clients >= 1, "a closed loop needs at least one client");
        assert!(
            self.think_s.is_finite() && self.think_s >= 0.0,
            "think time must be finite and non-negative"
        );
        assert!(
            self.duration_s.is_finite() && self.duration_s > 0.0,
            "closed-loop duration must be positive"
        );
        assert!(self.mix_size >= 1, "the serving mix needs at least one dataset");
        assert!(!self.shrinks.is_empty(), "at least one request shrink factor is required");

        let mut rngs = Vec::new();
        let mut first = Vec::new();
        for (local, client) in (lane..self.clients).step_by(lanes).enumerate() {
            let seed = neura_lab::spec::derive_seed(self.seed, &format!("client{client}"));
            let mut rng = StdRng::seed_from_u64(seed);
            let start = exp_draw(&mut rng, self.think_s);
            rngs.push(rng);
            first.push((start, local));
        }
        (ClosedLoopClients { spec: self.clone(), rngs }, first)
    }
}

impl ClosedLoopClients {
    /// Draws the class of `client`'s next request.
    pub(crate) fn draw_class(&mut self, client: usize) -> RequestClass {
        let rng = &mut self.rngs[client];
        let dataset = rng.gen_range(0..self.spec.mix_size);
        let shrink = self.spec.shrinks[rng.gen_range(0..self.spec.shrinks.len())];
        RequestClass { dataset, shrink }
    }

    /// The time `client` issues its next request after a response at
    /// `completion_s`, or `None` when that lands at or beyond the horizon
    /// (the client retires).
    pub(crate) fn next_issue_at(&mut self, client: usize, completion_s: f64) -> Option<f64> {
        let think = exp_draw(&mut self.rngs[client], self.spec.think_s);
        let at = completion_s + think;
        (at < self.spec.duration_s).then_some(at)
    }
}

/// An exponential draw with the given mean (0 when the mean is 0). The RNG
/// is always advanced, so think-time settings never shift later draws.
fn exp_draw(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.gen();
    -(1.0 - u).ln() * mean
}

/// One serving workload: an open-loop stream, generated or pre-generated,
/// or a closed-loop population. The unit every scenario simulates and
/// every sweep axis enumerates.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// Open-loop, generated: arrivals ignore completions. Rate shapes and
    /// a tenant mix compose over the base [`StreamSpec`] (see
    /// [`crate::scenario`]); with neither, the stream is the base
    /// generator's own, bit for bit.
    Shaped(crate::scenario::ShapedStream),
    /// Open-loop, pre-generated: an explicit stream as
    /// [`StreamSpec::generate`] produces it — sorted by arrival time, ids
    /// in arrival order. Its horizon is the last arrival.
    Replay(Vec<Request>),
    /// Closed-loop: each client waits for its response (plus a think time)
    /// before issuing the next request.
    Closed(ClosedLoopSpec),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(arrival: ArrivalProcess, seed: u64) -> StreamSpec {
        StreamSpec {
            arrival,
            rps: 400.0,
            duration_s: 2.0,
            mix_size: 3,
            shrinks: vec![1, 2, 4],
            seed,
        }
    }

    #[test]
    fn streams_are_sorted_and_ids_are_positional() {
        for arrival in ArrivalProcess::ALL {
            let requests = spec(arrival, 7).generate();
            assert!(!requests.is_empty());
            assert!(requests.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
            for (i, r) in requests.iter().enumerate() {
                assert_eq!(r.id, i);
                assert!(r.arrival_s < 2.0);
                assert!(r.class.dataset < 3);
                assert!([1, 2, 4].contains(&r.class.shrink));
            }
        }
    }

    #[test]
    fn same_seed_reproduces_the_stream_and_different_seeds_decorrelate() {
        let a = spec(ArrivalProcess::Poisson, 7).generate();
        let b = spec(ArrivalProcess::Poisson, 7).generate();
        assert_eq!(a, b);
        let c = spec(ArrivalProcess::Poisson, 8).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn mean_rate_is_close_to_the_target_for_both_processes() {
        for arrival in ArrivalProcess::ALL {
            let s = spec(arrival, 3);
            let n = s.generate().len() as f64;
            let expected = s.rps * s.duration_s;
            assert!(
                (n - expected).abs() < expected * 0.25,
                "{}: {n} arrivals vs expected {expected}",
                arrival.name()
            );
        }
    }

    #[test]
    fn bursty_streams_concentrate_arrivals_into_on_windows() {
        let s = spec(ArrivalProcess::Bursty, 5);
        let period = s.burst_period_s();
        assert!(s.generate().iter().all(|r| in_burst_window(r.arrival_s, period)));
    }

    #[test]
    fn short_bursty_streams_still_hit_the_target_mean_rate() {
        // A 20 ms stream fits entirely inside one BURST_PERIOD_S on-window;
        // without the adaptive period the 4x peak rate would never be
        // thinned and the realised mean rate would be ~4x the target.
        let s = StreamSpec {
            arrival: ArrivalProcess::Bursty,
            rps: 50_000.0,
            duration_s: 0.02,
            mix_size: 1,
            shrinks: vec![1],
            seed: 11,
        };
        assert!(s.burst_period_s() < BURST_PERIOD_S);
        let n = s.generate().len() as f64;
        let expected = s.rps * s.duration_s;
        assert!(
            (n - expected).abs() < expected * 0.25,
            "{n} arrivals vs expected {expected} — short bursty streams must stay thinned"
        );
    }

    #[test]
    fn parse_round_trips_names() {
        for arrival in ArrivalProcess::ALL {
            assert_eq!(ArrivalProcess::parse(arrival.name()), Some(arrival));
        }
        assert_eq!(ArrivalProcess::parse("POISSON"), Some(ArrivalProcess::Poisson));
        assert_eq!(ArrivalProcess::parse("uniform"), None);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_is_rejected() {
        StreamSpec { rps: 0.0, ..spec(ArrivalProcess::Poisson, 1) }.generate();
    }

    /// The expected request count is checked before the first request is
    /// allocated: 2e8 req/s over 2 s would otherwise grow a 16 GB vector,
    /// and 1e300 req/s would never get past the first millisecond.
    #[test]
    fn a_stream_expecting_more_than_the_bound_is_refused_before_it_allocates() {
        for rps in [2e8, 1e300] {
            let oversized = StreamSpec { rps, ..spec(ArrivalProcess::Poisson, 1) };
            let refused = std::panic::catch_unwind(|| oversized.generate());
            let message = *refused.expect_err("refused").downcast::<String>().expect("a message");
            assert!(message.contains("more than MAX_STREAM_REQUESTS = 16777216"), "{message}");
        }
    }

    fn closed_spec(seed: u64) -> ClosedLoopSpec {
        ClosedLoopSpec {
            clients: 4,
            think_s: 0.01,
            duration_s: 1.0,
            mix_size: 2,
            shrinks: vec![1, 2],
            seed,
        }
    }

    #[test]
    fn closed_loop_clients_are_seeded_independently_and_deterministically() {
        let (mut a, first_a) = closed_spec(9).clients();
        let (mut b, first_b) = closed_spec(9).clients();
        assert_eq!(first_a, first_b, "same spec, same staggered starts");
        assert_eq!(first_a.len(), 4);
        for (start, client) in &first_a {
            assert!(*start >= 0.0 && start.is_finite());
            assert_eq!(a.draw_class(*client), b.draw_class(*client));
        }
        // Interleaving other clients' draws must not perturb a client's own
        // stream: draw client 0 again on `a` after touching 1..3 above, and
        // on `b` directly.
        assert_eq!(a.draw_class(0), b.draw_class(0));
        let (_, first_c) = closed_spec(10).clients();
        assert_ne!(first_a, first_c, "different seeds decorrelate");
    }

    #[test]
    fn closed_loop_clients_retire_at_the_horizon() {
        let (mut clients, _) = closed_spec(3).clients();
        let next = clients.next_issue_at(0, 0.5).expect("mid-stream completions re-issue");
        assert!(next > 0.5 && next < 1.0 + 1.0, "completion plus a think draw");
        assert_eq!(clients.next_issue_at(0, 1.0), None, "at the horizon the client retires");
    }

    #[test]
    fn zero_think_time_issues_immediately_and_still_advances_the_rng() {
        let spec = ClosedLoopSpec { think_s: 0.0, ..closed_spec(5) };
        let (mut clients, first) = spec.clients();
        assert!(first.iter().all(|&(t, _)| t == 0.0));
        assert_eq!(clients.next_issue_at(0, 0.25), Some(0.25));
        let with_think = ClosedLoopSpec { think_s: 0.01, ..closed_spec(5) };
        let (mut thinking, _) = with_think.clients();
        // Same seed: class draws line up because the think draw consumed
        // one RNG step in both populations.
        thinking.next_issue_at(0, 0.25);
        assert_eq!(clients.draw_class(0), thinking.draw_class(0));
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn empty_client_population_is_rejected() {
        ClosedLoopSpec { clients: 0, ..closed_spec(1) }.clients();
    }
}
