//! Declarative serving sweeps: workload (open arrival × rate, or
//! closed-loop client count) × fleet mix × dispatch policy × autoscaler ×
//! scheduling policy, enumerated as stable scenarios for the `neura_lab`
//! runner.
//!
//! Mirrors the design of `neura_lab::spec`: scenarios are enumerated in a
//! stable, documented order with stable human-readable IDs, and each
//! scenario's workload seed is derived by hashing the sweep name and the
//! *workload* axes only — deliberately excluding the policy, fleet,
//! dispatch and autoscaler axes — so every serving arm of a comparison
//! replays the identical demand and differs only in how it is served.
//! Open- and closed-loop arms of the same mix therefore sit side by side
//! in one artifact, directly comparable.

use neura_chip::config::{ChipConfig, TileSize};
use neura_lab::spec::derive_seed;

use crate::arrivals::{ArrivalProcess, ClosedLoopSpec, StreamSpec, Workload};
use crate::autoscale::AutoscalePolicy;
use crate::dispatch::DispatchKind;
use crate::fleet::ShardGroup;
use crate::policy::Policy;
use crate::scenario::{ScenarioSpec, ShapedStream};

/// A named fleet composition: one or more shard groups under a stable ID.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetMix {
    /// Stable ID used in scenario IDs (`"t16x4"`, `"t64x1+t4x4"`).
    pub id: String,
    /// The groups, in ID order.
    pub groups: Vec<ShardGroup>,
}

impl FleetMix {
    /// A mix with an explicit ID.
    ///
    /// # Panics
    ///
    /// Panics when no group is given.
    pub fn new(id: impl Into<String>, groups: Vec<ShardGroup>) -> Self {
        assert!(!groups.is_empty(), "a fleet mix needs at least one shard group");
        FleetMix { id: id.into(), groups }
    }

    /// A homogeneous mix: `shards` replicas of one named tile size, with
    /// the canonical ID (`t16x4`).
    pub fn uniform(tile: TileSize, shards: usize) -> Self {
        let group = ShardGroup::new(tile.label(), ChipConfig::for_tile_size(tile), shards);
        FleetMix { id: format!("{}x{shards}", tile.label()), groups: vec![group] }
    }

    /// A heterogeneous mix from `(tile, shards)` pairs, named
    /// `t64x1+t4x4`-style in the given order.
    ///
    /// # Panics
    ///
    /// Panics when `parts` is empty or repeats a tile size (group names
    /// must be unique).
    pub fn mixed(parts: &[(TileSize, usize)]) -> Self {
        assert!(!parts.is_empty(), "a fleet mix needs at least one shard group");
        let groups: Vec<ShardGroup> = parts
            .iter()
            .map(|&(tile, shards)| {
                ShardGroup::new(tile.label(), ChipConfig::for_tile_size(tile), shards)
            })
            .collect();
        let id = parts
            .iter()
            .map(|&(tile, shards)| format!("{}x{shards}", tile.label()))
            .collect::<Vec<_>>()
            .join("+");
        Self::new(id, groups)
    }

    /// Parses a mix ID (`"t16x4"`, `"t64x1+t4x4"`; case-insensitive).
    pub fn parse(raw: &str) -> Option<Self> {
        let mut parts = Vec::new();
        for part in raw.split('+') {
            let lower = part.trim().to_ascii_lowercase();
            let (tile_raw, count_raw) = lower.split_once('x')?;
            let tile = match tile_raw {
                "t4" => TileSize::Tile4,
                "t16" => TileSize::Tile16,
                "t64" => TileSize::Tile64,
                _ => return None,
            };
            let shards: usize = count_raw.parse().ok().filter(|&n| n >= 1)?;
            parts.push((tile, shards));
        }
        if parts.is_empty() || has_duplicate_tiles(&parts) {
            return None;
        }
        Some(Self::mixed(&parts))
    }

    /// Total shards across all groups.
    pub fn total_shards(&self) -> usize {
        self.groups.iter().map(|g| g.shards).sum()
    }
}

fn has_duplicate_tiles(parts: &[(TileSize, usize)]) -> bool {
    parts.iter().enumerate().any(|(i, (tile, _))| parts[..i].iter().any(|(t, _)| t == tile))
}

/// One point on the workload axis: open-loop demand at a rate, or a
/// closed-loop client population.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadAxis {
    /// Open-loop arrivals (process × mean rate).
    Open {
        /// Arrival process.
        arrival: ArrivalProcess,
        /// Mean arrival rate in requests per second.
        rps: f64,
    },
    /// Closed-loop clients with a mean think time.
    Closed {
        /// Client count — the in-flight cap.
        clients: usize,
        /// Mean think time in seconds.
        think_s: f64,
    },
}

impl WorkloadAxis {
    /// The ID fragment of this workload (`"poisson/rps800.0"`,
    /// `"closed64/think5.0"` — think time in milliseconds).
    pub(crate) fn id(&self) -> String {
        match self {
            WorkloadAxis::Open { arrival, rps } => format!("{}/rps{rps:?}", arrival.name()),
            WorkloadAxis::Closed { clients, think_s } => {
                format!("closed{clients}/think{:?}", think_s * 1e3)
            }
        }
    }
}

/// The axes of a serving sweep. An empty axis contributes its single
/// default setting (Poisson arrivals at `DEFAULT_RPS`, no closed-loop
/// arms, FIFO, one Tile-16 shard, least-loaded dispatch, fixed fleet).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSweep {
    /// Arrival processes of the open-loop arms.
    pub arrivals: Vec<ArrivalProcess>,
    /// Mean arrival rates (requests/second) of the open-loop arms.
    pub rps: Vec<f64>,
    /// Client counts of the closed-loop arms (empty = open-loop only).
    pub closed_clients: Vec<usize>,
    /// Mean think time shared by every closed-loop arm, in seconds.
    pub think_s: f64,
    /// Scheduling/batching policies to sweep.
    pub policies: Vec<Policy>,
    /// Fleet mixes to sweep.
    pub fleets: Vec<FleetMix>,
    /// Dispatch policies to sweep.
    pub dispatches: Vec<DispatchKind>,
    /// Autoscaler settings to sweep (`None` = fixed fleet).
    pub autoscale: Vec<Option<AutoscalePolicy>>,
}

/// Arrival rate used when the rate axis is left empty.
pub(crate) const DEFAULT_RPS: f64 = 800.0;

/// Mean think time used when none is set, in seconds.
pub(crate) const DEFAULT_THINK_S: f64 = 0.005;

impl Default for ServeSweep {
    fn default() -> Self {
        ServeSweep {
            arrivals: Vec::new(),
            rps: Vec::new(),
            closed_clients: Vec::new(),
            think_s: DEFAULT_THINK_S,
            policies: Vec::new(),
            fleets: Vec::new(),
            dispatches: Vec::new(),
            autoscale: Vec::new(),
        }
    }
}

impl ServeSweep {
    /// An empty sweep: one all-default scenario.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the arrival-process axis (builder style).
    pub fn arrivals(mut self, arrivals: impl IntoIterator<Item = ArrivalProcess>) -> Self {
        self.arrivals = arrivals.into_iter().collect();
        self
    }

    /// Sets the arrival-rate axis (builder style).
    pub fn rps(mut self, rps: impl IntoIterator<Item = f64>) -> Self {
        self.rps = rps.into_iter().collect();
        self
    }

    /// Sets the closed-loop client-count axis (builder style).
    pub fn closed_clients(mut self, clients: impl IntoIterator<Item = usize>) -> Self {
        self.closed_clients = clients.into_iter().collect();
        self
    }

    /// Sets the closed-loop mean think time (builder style).
    ///
    /// # Panics
    ///
    /// Panics unless the think time is finite and non-negative.
    pub fn think_s(mut self, think_s: f64) -> Self {
        assert!(think_s.is_finite() && think_s >= 0.0, "think time must be non-negative");
        self.think_s = think_s;
        self
    }

    /// Sets the policy axis (builder style).
    pub fn policies(mut self, policies: impl IntoIterator<Item = Policy>) -> Self {
        self.policies = policies.into_iter().collect();
        self
    }

    /// Sets the fleet-mix axis (builder style).
    pub fn fleets(mut self, fleets: impl IntoIterator<Item = FleetMix>) -> Self {
        self.fleets = fleets.into_iter().collect();
        self
    }

    /// Sets the dispatch-policy axis (builder style).
    pub fn dispatches(mut self, dispatches: impl IntoIterator<Item = DispatchKind>) -> Self {
        self.dispatches = dispatches.into_iter().collect();
        self
    }

    /// Sets the autoscaler axis (builder style); `None` entries run the
    /// fleet fixed.
    pub fn autoscale(
        mut self,
        settings: impl IntoIterator<Item = Option<AutoscalePolicy>>,
    ) -> Self {
        self.autoscale = settings.into_iter().collect();
        self
    }

    /// The workload axis this sweep enumerates: every open-loop
    /// (arrival, rate) pair, then every closed-loop client count. A sweep
    /// that sets *only* the closed-loop axis is closed-only — open arms
    /// appear when an open axis is set explicitly or no closed arm exists.
    pub(crate) fn workloads(&self) -> Vec<WorkloadAxis> {
        let mut workloads = Vec::new();
        if self.closed_clients.is_empty() || !self.arrivals.is_empty() || !self.rps.is_empty() {
            let arrivals = if self.arrivals.is_empty() {
                vec![ArrivalProcess::Poisson]
            } else {
                self.arrivals.clone()
            };
            let rates = if self.rps.is_empty() { vec![DEFAULT_RPS] } else { self.rps.clone() };
            for &arrival in &arrivals {
                for &rps in &rates {
                    workloads.push(WorkloadAxis::Open { arrival, rps });
                }
            }
        }
        for &clients in &self.closed_clients {
            workloads.push(WorkloadAxis::Closed { clients, think_s: self.think_s });
        }
        workloads
    }

    /// Number of scenarios the sweep enumerates.
    pub(crate) fn len(&self) -> usize {
        self.workloads().len()
            * [self.fleets.len(), self.dispatches.len(), self.autoscale.len(), self.policies.len()]
                .iter()
                .map(|&n| n.max(1))
                .product::<usize>()
    }

    /// Whether the sweep enumerates exactly one all-default scenario.
    pub fn is_empty(&self) -> bool {
        self.len() == 1
    }

    /// Enumerates every scenario in a stable order (workload-major — open
    /// arms before closed arms — then fleet, dispatch, autoscaler and
    /// policy; the last axis varies fastest), with workload seeds derived
    /// from `(base_seed, name, workload)` only.
    pub fn scenarios(&self, name: &str, base_seed: u64) -> Vec<ServeScenario> {
        let workloads = self.workloads();
        let policies =
            if self.policies.is_empty() { vec![Policy::Fifo] } else { self.policies.clone() };
        let fleets = if self.fleets.is_empty() {
            vec![FleetMix::uniform(TileSize::Tile16, 1)]
        } else {
            self.fleets.clone()
        };
        let dispatches = if self.dispatches.is_empty() {
            vec![DispatchKind::LeastLoaded]
        } else {
            self.dispatches.clone()
        };
        let autoscale = if self.autoscale.is_empty() { vec![None] } else { self.autoscale.clone() };

        let mut scenarios = Vec::with_capacity(self.len());
        for workload in &workloads {
            let seed = derive_seed(base_seed, &format!("{name}/{}", workload.id()));
            for fleet in &fleets {
                for &dispatch in &dispatches {
                    for autoscale in &autoscale {
                        for &policy in &policies {
                            let scale_suffix = autoscale
                                .as_ref()
                                .map(|p| format!("/{}", p.id()))
                                .unwrap_or_default();
                            scenarios.push(ServeScenario {
                                id: format!(
                                    "{name}/{}/{}/{}/{}{scale_suffix}",
                                    workload.id(),
                                    fleet.id,
                                    dispatch.name(),
                                    policy.name()
                                ),
                                workload: workload.clone(),
                                policy,
                                fleet: fleet.clone(),
                                dispatch,
                                autoscale: autoscale.clone(),
                                scenario: None,
                                seed,
                            });
                        }
                    }
                }
            }
        }
        scenarios
    }
}

/// One enumerated serving scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeScenario {
    /// Stable run ID:
    /// `<name>/<workload>/<fleet>/<dispatch>/<policy>[/<autoscale>]`.
    pub id: String,
    /// The workload axis point.
    pub workload: WorkloadAxis,
    /// Scheduling/batching policy.
    pub policy: Policy,
    /// Fleet composition.
    pub fleet: FleetMix,
    /// Dispatch policy.
    pub dispatch: DispatchKind,
    /// Autoscaler (`None` = fixed fleet).
    pub autoscale: Option<AutoscalePolicy>,
    /// Library scenario this arm replays (`None` for plain sweep arms).
    /// When set, [`Self::workload_spec`] wraps the open-loop stream in
    /// the scenario's rate shapes and tenant mix, and the scenario's
    /// queue bound and fault regime apply (the `serve` binary wires
    /// those into the [`ServeConfig`](crate::sim::ServeConfig)).
    pub scenario: Option<ScenarioSpec>,
    /// Workload seed (shared across every serving arm of this workload).
    pub seed: u64,
}

impl ServeScenario {
    /// The ordered `(key, value)` parameter list recorded in artifacts.
    pub fn params(&self) -> Vec<(String, String)> {
        let mut params = Vec::new();
        match &self.workload {
            WorkloadAxis::Open { arrival, rps } => {
                params.push(("loop".to_string(), "open".to_string()));
                params.push(("arrival".to_string(), arrival.name().to_string()));
                params.push(("rps".to_string(), format!("{rps:?}")));
            }
            WorkloadAxis::Closed { clients, think_s } => {
                params.push(("loop".to_string(), "closed".to_string()));
                params.push(("clients".to_string(), clients.to_string()));
                params.push(("think_ms".to_string(), format!("{:?}", think_s * 1e3)));
            }
        }
        params.push(("policy".to_string(), self.policy.name()));
        if let Policy::BatchByDataset { max_batch, timeout_s } = self.policy {
            params.push(("max_batch".to_string(), max_batch.to_string()));
            params.push(("batch_timeout_ms".to_string(), format!("{:?}", timeout_s * 1e3)));
        }
        params.push(("fleet".to_string(), self.fleet.id.clone()));
        params.push(("shards".to_string(), self.fleet.total_shards().to_string()));
        params.push(("dispatch".to_string(), self.dispatch.name().to_string()));
        if let Some(autoscale) = &self.autoscale {
            params.push(("autoscale".to_string(), autoscale.id()));
            params.push((
                "provision_delay_ms".to_string(),
                format!("{:?}", autoscale.provision_delay_s * 1e3),
            ));
        }
        if let Some(scenario) = &self.scenario {
            params.push(("scenario".to_string(), scenario.name.to_string()));
            params.push(("load".to_string(), format!("{:?}", scenario.load)));
            if let Some(bound) = scenario.queue_bound {
                params.push(("queue_bound".to_string(), bound.to_string()));
            }
            if let Some(tenants) = &scenario.tenants {
                params.push(("tenants".to_string(), tenants.id()));
            }
            if let Some(fault) = scenario.fault_spec(self.seed, 1.0) {
                params.push(("faults".to_string(), fault.id()));
            }
        }
        params.push(("seed".to_string(), self.seed.to_string()));
        params
    }

    /// The workload this scenario replays, given the sweep-wide knobs that
    /// are not swept (duration, mix size, request shrink classes). An open
    /// arm is always [`Workload::Shaped`]: a library arm's shapes and
    /// tenants, or none over the plain stream.
    pub fn workload_spec(&self, duration_s: f64, mix_size: usize, shrinks: &[usize]) -> Workload {
        match &self.workload {
            WorkloadAxis::Open { arrival, rps } => {
                let base = StreamSpec {
                    arrival: *arrival,
                    rps: *rps,
                    duration_s,
                    mix_size,
                    shrinks: shrinks.to_vec(),
                    seed: self.seed,
                };
                Workload::Shaped(match &self.scenario {
                    Some(scenario) => scenario.shaped(base),
                    None => ShapedStream { base, shapes: Vec::new(), tenants: None },
                })
            }
            WorkloadAxis::Closed { clients, think_s } => Workload::Closed(ClosedLoopSpec {
                clients: *clients,
                think_s: *think_s,
                duration_s,
                mix_size,
                shrinks: shrinks.to_vec(),
                seed: self.seed,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sweep_is_one_default_scenario() {
        let scenarios = ServeSweep::new().scenarios("serve", 1);
        assert_eq!(scenarios.len(), 1);
        assert_eq!(scenarios[0].id, "serve/poisson/rps800.0/t16x1/least-loaded/fifo");
        assert_eq!(scenarios[0].fleet.total_shards(), 1);
        assert!(scenarios[0].autoscale.is_none());
    }

    #[test]
    fn enumeration_order_is_workload_major_and_ids_are_unique() {
        let sweep = ServeSweep::new()
            .arrivals(ArrivalProcess::ALL)
            .rps([200.0, 400.0])
            .closed_clients([16])
            .policies([Policy::Fifo, Policy::Sjf])
            .fleets([1, 2].map(|n| FleetMix::uniform(TileSize::Tile16, n)));
        let scenarios = sweep.scenarios("s", 9);
        assert_eq!(scenarios.len(), sweep.len());
        assert_eq!(scenarios.len(), (2 * 2 + 1) * 2 * 2);
        assert_eq!(scenarios[0].id, "s/poisson/rps200.0/t16x1/least-loaded/fifo");
        assert_eq!(scenarios[1].id, "s/poisson/rps200.0/t16x1/least-loaded/sjf");
        assert_eq!(scenarios[2].id, "s/poisson/rps200.0/t16x2/least-loaded/fifo");
        let last = &scenarios[scenarios.len() - 1];
        assert_eq!(last.id, "s/closed16/think5.0/t16x2/least-loaded/sjf");
        let ids: std::collections::HashSet<&str> =
            scenarios.iter().map(|s| s.id.as_str()).collect();
        assert_eq!(ids.len(), scenarios.len());
    }

    #[test]
    fn seeds_are_shared_across_serving_arms_only() {
        let sweep = ServeSweep::new()
            .rps([200.0, 400.0])
            .closed_clients([8])
            .policies([Policy::Fifo, Policy::Sjf, Policy::batch(8, 0.005)])
            .fleets([
                FleetMix::uniform(TileSize::Tile16, 1),
                FleetMix::mixed(&[(TileSize::Tile64, 1), (TileSize::Tile4, 4)]),
            ])
            .dispatches(DispatchKind::ALL)
            .autoscale([None, Some(AutoscalePolicy::new(1, 4))]);
        let scenarios = sweep.scenarios("serve", 42);
        assert_eq!(scenarios.len(), (2 + 1) * 3 * 2 * 3 * 2);
        for a in &scenarios {
            for b in &scenarios {
                if a.workload == b.workload {
                    assert_eq!(a.seed, b.seed, "{} vs {}", a.id, b.id);
                } else {
                    assert_ne!(a.seed, b.seed, "{} vs {}", a.id, b.id);
                }
            }
        }
    }

    #[test]
    fn fleet_mix_ids_parse_and_round_trip() {
        let uniform = FleetMix::uniform(TileSize::Tile16, 4);
        assert_eq!(uniform.id, "t16x4");
        assert_eq!(FleetMix::parse("t16x4"), Some(uniform));
        let mixed = FleetMix::mixed(&[(TileSize::Tile64, 1), (TileSize::Tile4, 4)]);
        assert_eq!(mixed.id, "t64x1+t4x4");
        assert_eq!(mixed.total_shards(), 5);
        assert_eq!(FleetMix::parse("T64x1+T4x4"), Some(mixed));
        assert_eq!(FleetMix::parse("t8x2"), None, "unknown tile");
        assert_eq!(FleetMix::parse("t16x0"), None, "zero shards");
        assert_eq!(FleetMix::parse("t16x2+t16x1"), None, "duplicate tile");
        assert_eq!(FleetMix::parse(""), None);
    }

    #[test]
    fn params_describe_the_scenario_including_new_axes() {
        let sweep = ServeSweep::new()
            .policies([Policy::batch(16, 0.01)])
            .fleets([FleetMix::mixed(&[(TileSize::Tile64, 1), (TileSize::Tile4, 4)])])
            .dispatches([DispatchKind::ClassAffinity])
            .autoscale([Some(AutoscalePolicy::new(1, 8))]);
        let scenario = &sweep.scenarios("serve", 1)[0];
        assert!(scenario.id.ends_with("/t64x1+t4x4/affinity/batch16/as1-8"));
        let params = scenario.params();
        assert!(params.contains(&("loop".into(), "open".into())));
        assert!(params.contains(&("policy".into(), "batch16".into())));
        assert!(params.contains(&("max_batch".into(), "16".into())));
        assert!(params.contains(&("batch_timeout_ms".into(), "10.0".into())));
        assert!(params.contains(&("fleet".into(), "t64x1+t4x4".into())));
        assert!(params.contains(&("shards".into(), "5".into())));
        assert!(params.contains(&("dispatch".into(), "affinity".into())));
        assert!(params.contains(&("autoscale".into(), "as1-8".into())));
    }

    #[test]
    fn workload_spec_carries_the_scenario_seed_for_both_loops() {
        let open = &ServeSweep::new().scenarios("serve", 7)[0];
        match open.workload_spec(2.0, 3, &[1, 2]) {
            Workload::Shaped(ShapedStream { base, shapes, tenants: None }) if shapes.is_empty() => {
                assert_eq!(base.seed, open.seed);
                assert_eq!(base.mix_size, 3);
                assert_eq!(base.shrinks, vec![1, 2]);
            }
            _ => panic!("default sweeps are plain open-loop"),
        }
        let sweep = ServeSweep::new().closed_clients([32]).think_s(0.002);
        let closed = sweep
            .scenarios("serve", 7)
            .into_iter()
            .find(|s| matches!(s.workload, WorkloadAxis::Closed { .. }))
            .expect("closed arm enumerated");
        match closed.workload_spec(2.0, 3, &[1, 2]) {
            Workload::Closed(spec) => {
                assert_eq!(spec.clients, 32);
                assert!((spec.think_s - 0.002).abs() < 1e-12);
                assert_eq!(spec.seed, closed.seed);
            }
            _ => panic!("expected the closed arm"),
        }
    }

    #[test]
    fn scenario_arms_wrap_the_stream_and_report_their_params() {
        let mut arm = ServeSweep::new().scenarios("serve", 7).remove(0);
        arm.scenario = ScenarioSpec::by_name("tenants");
        match arm.workload_spec(2.0, 3, &[1]) {
            Workload::Shaped(shaped) => {
                assert_eq!(shaped.base.seed, arm.seed);
                assert!(shaped.tenants.is_some(), "the mix travels with the stream");
            }
            _ => panic!("scenario arms are shaped"),
        }
        let params = arm.params();
        assert!(params.contains(&("scenario".into(), "tenants".into())));
        assert!(params.contains(&("load".into(), "1.5".into())));
        assert!(params.contains(&("queue_bound".into(), "64".into())));
        assert!(params.iter().any(|(k, _)| k == "tenants"));
        assert!(!params.iter().any(|(k, _)| k == "faults"), "tenants arm is fault-free");

        arm.scenario = ScenarioSpec::by_name("crash");
        let params = arm.params();
        assert!(params.contains(&("faults".into(), "crash2".into())));
    }
}
