//! The memoised batch cost model.
//!
//! Simulating every request of a stream cycle-by-cycle would make serving
//! experiments quadratically expensive, so the serving layer charges each
//! dispatched batch a *memoised* cycle cost: one cycle-level simulation per
//! distinct *(chip fingerprint, [`RequestClass`])* pair, measured once up
//! front and reused for every batch of that class on every shard running
//! that silicon. Keying by [`ChipConfig::fingerprint`] rather than by fleet
//! group means a heterogeneous fleet whose groups share a configuration
//! never re-simulates the shared classes, and two groups with different
//! chips each get their own measured costs.
//!
//! Batching amortises operand traffic — every request of a batch queries
//! the same graph — so requests beyond the first are charged only a
//! marginal fraction of the single-request cost.
//!
//! Costs can be *priced* by either tier of the two-tier chip model (see
//! [`CostModel`]): the cycle-accurate simulator (the default truth
//! oracle), the closed-form [`neura_chip::analytic`] estimate (nanoseconds
//! per class, unlocking huge class counts), or a hybrid that anchors the
//! analytic estimate to one cycle measurement per fingerprint. The table
//! itself is pricing-agnostic — it stores whatever cycles the chosen
//! model produced.

use std::collections::BTreeMap;

use neura_chip::analytic::{AnalyticModel, WorkloadFeatures};
use neura_chip::config::ChipConfig;

use crate::fleet::ShardGroup;

/// The workload class of one request: which dataset of the serving mix it
/// queries (an index into the mix, not a name — the stream generator and
/// the queueing simulation never need the string) and how much the
/// per-request workload is shrunk relative to the full simulator workload
/// (1 = full size, 2 = half, … — the same fidelity ladder the auto-tuner
/// uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestClass {
    /// Index of the dataset in the serving mix.
    pub dataset: usize,
    /// Workload shrink factor of this request (≥ 1).
    pub shrink: usize,
}

/// Measured cost of serving a *single* request of one class on one chip
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassCost {
    /// Cycle cost of one request, from the cycle-level `neura_chip` run.
    pub cycles: u64,
    /// Floating-point operations of one request
    /// (`WorkloadProfile::flops`) — the shortest-job-first weight, a
    /// property of the workload alone (identical across chips).
    pub flops: u64,
}

/// Fraction of the single-request cost charged to each request of a batch
/// beyond the first (operand fetch and program setup are shared across the
/// batch; accumulation work is not).
pub(crate) const DEFAULT_MARGINAL_BATCH_FRACTION: f64 = 0.5;

/// Which tier of the two-tier chip model prices request classes into the
/// [`CostTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostModel {
    /// Every class is measured by a full cycle-level `neura_chip`
    /// simulation — the truth oracle and the default (artifacts are
    /// byte-identical to a build without the analytic tier).
    #[default]
    Cycle,
    /// Every class is priced by the closed-form
    /// [`neura_chip::analytic`] model — nanoseconds per class, within the
    /// pinned `xval` error bound of the oracle.
    Analytic,
    /// One cycle-level anchor measurement per chip fingerprint; the
    /// remaining classes are analytic estimates rescaled through the
    /// anchor's analytic-vs-measured ratio, correcting any systematic
    /// per-silicon bias at one simulation per fingerprint.
    Hybrid,
}

impl CostModel {
    /// Every pricing model, in flag order.
    pub const ALL: [CostModel; 3] = [CostModel::Cycle, CostModel::Analytic, CostModel::Hybrid];

    /// The flag spelling (`cycle` / `analytic` / `hybrid`).
    pub fn name(&self) -> &'static str {
        match self {
            CostModel::Cycle => "cycle",
            CostModel::Analytic => "analytic",
            CostModel::Hybrid => "hybrid",
        }
    }

    /// Parses a `--cost-model` flag value.
    pub fn parse(value: &str) -> Option<CostModel> {
        CostModel::ALL.into_iter().find(|model| model.name() == value)
    }
}

/// Prices one request class with the calibrated analytic model: estimated
/// cycles for the workload on `config`, exact flops from the symbolic
/// workload analysis (flops are a workload property, so the SJF weights
/// match the cycle path bit-for-bit).
pub fn analytic_class_cost(config: &ChipConfig, workload: &WorkloadFeatures) -> ClassCost {
    ClassCost {
        cycles: AnalyticModel::calibrated().class_cycles(config, workload),
        flops: workload.flops(),
    }
}

/// Rescales an analytic cycle estimate through a hybrid anchor: the ratio
/// of the anchor class's *measured* cycles to its *analytic* estimate on
/// the same silicon, applied to another class's analytic estimate.
/// Clamped to ≥ 1 cycle (the [`CostTable::insert`] invariant).
pub fn hybrid_scaled_cycles(estimate: u64, anchor_measured: u64, anchor_estimate: u64) -> u64 {
    let scale = anchor_measured as f64 / anchor_estimate.max(1) as f64;
    let scaled = (estimate as f64 * scale).round();
    if scaled >= u64::MAX as f64 {
        u64::MAX
    } else {
        (scaled as u64).max(1)
    }
}

/// Memoised per-(fingerprint, class) costs plus the per-fingerprint
/// conversion from cycles to seconds.
///
/// A fingerprint must be registered (with its cycle time) before costs can
/// be inserted or queried under it; [`CostTable::register`] derives both
/// from a [`ChipConfig`], and `register_rate` exists for synthetic tables
/// in tests.
#[derive(Debug, Clone, Default)]
pub struct CostTable {
    /// Fingerprint → cycle time + per-class costs on that silicon. Nested
    /// (rather than keyed by `(String, RequestClass)` pairs) so a lookup
    /// by `&str` does not allocate; a replay reads `FleetCosts`' dense
    /// rows instead.
    silicon: BTreeMap<String, FingerprintCosts>,
    /// Class → flops (chip-independent; the SJF weight).
    flops: BTreeMap<RequestClass, u64>,
}

/// One registered configuration's cycle time and measured class costs.
#[derive(Debug, Clone)]
struct FingerprintCosts {
    seconds_per_cycle: f64,
    costs: BTreeMap<RequestClass, ClassCost>,
}

impl FingerprintCosts {
    /// The batch service time on this silicon (see
    /// [`CostTable::service_seconds`]); `fingerprint` only names the
    /// silicon in the unknown-class panic.
    fn service_seconds(&self, fingerprint: &str, class: RequestClass, batch_size: usize) -> f64 {
        let cost = self.costs.get(&class).unwrap_or_else(|| {
            panic!("no memoised cost for request class {class:?} under {fingerprint:?}")
        });
        batch_seconds(self.first_seconds(cost), batch_size)
    }

    /// The service time of one request of a class costing `cost`.
    fn first_seconds(&self, cost: &ClassCost) -> f64 {
        cost.cycles as f64 * self.seconds_per_cycle
    }
}

/// The service time of a batch of `batch_size` requests whose first costs
/// `first_s`: each request beyond the first adds the marginal fraction.
fn batch_seconds(first_s: f64, batch_size: usize) -> f64 {
    first_s * (1.0 + DEFAULT_MARGINAL_BATCH_FRACTION * (batch_size - 1) as f64)
}

impl CostTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a chip configuration and returns its fingerprint — the key
    /// under which this configuration's class costs live. Registering the
    /// same configuration twice is a no-op returning the same key.
    pub fn register(&mut self, config: &ChipConfig) -> String {
        let fingerprint = config.fingerprint();
        self.register_rate(fingerprint.clone(), config.seconds_per_cycle());
        fingerprint
    }

    /// Registers a synthetic fingerprint with an explicit cycle time —
    /// tables in tests need not construct a full [`ChipConfig`].
    ///
    /// # Panics
    ///
    /// Panics unless `seconds_per_cycle` is finite and positive.
    pub(crate) fn register_rate(&mut self, fingerprint: impl Into<String>, seconds_per_cycle: f64) {
        assert!(
            seconds_per_cycle.is_finite() && seconds_per_cycle > 0.0,
            "seconds per cycle must be finite and positive"
        );
        self.silicon
            .entry(fingerprint.into())
            .or_insert(FingerprintCosts { seconds_per_cycle, costs: BTreeMap::new() })
            .seconds_per_cycle = seconds_per_cycle;
    }

    /// Records the measured cost of one class under one fingerprint
    /// (replacing any previous entry).
    ///
    /// # Panics
    ///
    /// Panics when the fingerprint was never registered — a cost without a
    /// cycle time could never be converted to a service time.
    pub fn insert(&mut self, fingerprint: &str, class: RequestClass, cost: ClassCost) {
        let entry = self.silicon.get_mut(fingerprint).unwrap_or_else(|| {
            panic!("fingerprint {fingerprint:?} must be registered before costs are inserted")
        });
        // A zero-cycle request would serve in zero time, letting a
        // zero-think closed loop spin the event clock in place forever.
        assert!(cost.cycles >= 1, "a request costs at least one cycle");
        entry.costs.insert(class, cost);
        self.flops.insert(class, cost.flops);
    }

    /// Service time of a batch of `batch_size` same-class requests on a
    /// shard running the fingerprinted silicon: the full single-request cost
    /// for the first request plus the marginal fraction for each additional
    /// one.
    ///
    /// # Panics
    ///
    /// Panics when `batch_size == 0` or the pair is unknown.
    pub fn service_seconds(
        &self,
        fingerprint: &str,
        class: RequestClass,
        batch_size: usize,
    ) -> f64 {
        assert!(batch_size >= 1, "a batch serves at least one request");
        let entry = self
            .silicon
            .get(fingerprint)
            .unwrap_or_else(|| panic!("fingerprint {fingerprint:?} was never registered"));
        entry.service_seconds(fingerprint, class, batch_size)
    }

    /// Mean single-request service time over `classes` on the fingerprinted
    /// silicon: what callers calibrate arrival rates, think times, batch
    /// timeouts and autoscaler cadences against.
    ///
    /// # Panics
    ///
    /// Panics when `classes` is empty or a pair is unknown.
    pub fn mean_service_seconds(&self, fingerprint: &str, classes: &[RequestClass]) -> f64 {
        assert!(!classes.is_empty(), "a mean service time needs at least one class");
        let total: f64 = classes.iter().map(|&c| self.service_seconds(fingerprint, c, 1)).sum();
        total / classes.len() as f64
    }

    /// The shortest-job-first weight of one request of a class — its flops,
    /// a property of the workload, not of any chip.
    ///
    /// # Panics
    ///
    /// Panics when the class was never measured under any fingerprint.
    pub(crate) fn weight(&self, class: RequestClass) -> u64 {
        *self
            .flops
            .get(&class)
            .unwrap_or_else(|| panic!("no memoised weight for request class {class:?}"))
    }

    /// The median flops over all memoised classes (0 when none are
    /// measured): classes at or above it count as "big" for class-affinity
    /// dispatch.
    pub(crate) fn median_weight(&self) -> u64 {
        let weights: Vec<u64> = self.flops.values().copied().collect();
        if weights.is_empty() {
            return 0;
        }
        // flops BTreeMap values are not sorted by value; sort a copy.
        let mut sorted = weights;
        sorted.sort_unstable();
        sorted[sorted.len() / 2]
    }
}

/// A [`RequestClass`] resolved against a [`FleetCosts`]: its position in
/// the dense rows. Ids are dataset-major over the table's distinct shrink
/// factors, so ascending ids are ascending classes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClassId(usize);

impl ClassId {
    /// The position in `0..FleetCosts::class_count()`.
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// A [`CostTable`] resolved against one fleet for the length of a replay,
/// into dense rows: the first-request seconds of every (shard group,
/// class) pair and the SJF weight of every class, indexed by [`ClassId`] —
/// so pricing a batch on a group is two array reads, not a string- and
/// class-keyed map walk per candidate shard. This is what the dispatch
/// policies and the event loop read on every dispatch and SJF push.
///
/// The class index spans the largest dataset index times the table's
/// distinct shrink factors: its size follows the number of classes, never
/// the magnitude of a shrink factor.
///
/// Resolution never fails: a group whose fingerprint was never registered,
/// or a class never measured under it, panics on first *use*, with the
/// message [`CostTable::service_seconds`] gives, so a fleet may still list
/// a group no batch ever lands on.
#[derive(Debug, Clone)]
pub(crate) struct FleetCosts<'a> {
    /// The table the rows came from, which words the panics for missing
    /// pairs.
    table: &'a CostTable,
    /// Per shard group: its fingerprint.
    fingerprints: Vec<String>,
    /// The table's distinct shrink factors, ascending.
    shrinks: Vec<usize>,
    /// One more than the table's largest dataset index.
    datasets: usize,
    /// Group-major: the first-request seconds of class `c` on group `g` at
    /// `g × class_count + c` (`None` = not measured on that silicon).
    first_s: Vec<Option<f64>>,
    /// Per class: its SJF weight (`None` = measured nowhere).
    weights: Vec<Option<u64>>,
    median_weight: u64,
}

impl<'a> FleetCosts<'a> {
    /// Resolves `table` against a fleet's shard groups, in group order.
    pub(crate) fn new(table: &'a CostTable, groups: &[ShardGroup]) -> Self {
        // Every measured class has a weight, so the weight map spans them all.
        let mut shrinks: Vec<usize> = table.flops.keys().map(|class| class.shrink).collect();
        shrinks.sort_unstable();
        shrinks.dedup();
        let datasets = table.flops.keys().last().map_or(0, |class| class.dataset + 1);
        let classes = datasets * shrinks.len();
        let mut costs = FleetCosts {
            table,
            fingerprints: groups.iter().map(|group| group.config.fingerprint()).collect(),
            shrinks,
            datasets,
            first_s: vec![None; groups.len() * classes],
            weights: vec![None; classes],
            median_weight: table.median_weight(),
        };
        for (&class, &flops) in &table.flops {
            let id = costs.class_id(class);
            costs.weights[id.0] = Some(flops);
        }
        for g in 0..groups.len() {
            let Some(entry) = table.silicon.get(&costs.fingerprints[g]) else { continue };
            for (&class, cost) in &entry.costs {
                let id = costs.class_id(class);
                costs.first_s[g * classes + id.0] = Some(entry.first_seconds(cost));
            }
        }
        costs
    }

    /// Number of class ids: every [`ClassId`] is below it.
    pub(crate) fn class_count(&self) -> usize {
        self.weights.len()
    }

    /// The id of `class`.
    ///
    /// # Panics
    ///
    /// Panics when the table measured no class with this dataset and
    /// shrink factor under any fingerprint.
    pub(crate) fn class_id(&self, class: RequestClass) -> ClassId {
        match self.shrinks.iter().position(|&shrink| shrink == class.shrink) {
            Some(rank) if class.dataset < self.datasets => {
                ClassId(class.dataset * self.shrinks.len() + rank)
            }
            _ => panic!("no memoised cost for request class {class:?} under any fingerprint"),
        }
    }

    /// The class an id stands for.
    fn class(&self, id: ClassId) -> RequestClass {
        let width = self.shrinks.len();
        RequestClass { dataset: id.0 / width, shrink: self.shrinks[id.0 % width] }
    }

    /// [`CostTable::service_seconds`] on the silicon of shard group `group`,
    /// bit for bit.
    ///
    /// # Panics
    ///
    /// Panics when `batch_size == 0`, the group's fingerprint was never
    /// registered, or the class was never measured under it.
    pub(crate) fn service_seconds(&self, group: usize, class: ClassId, batch_size: usize) -> f64 {
        assert!(batch_size >= 1, "a batch serves at least one request");
        let first_s = self.first_s[group * self.class_count() + class.0]
            .unwrap_or_else(|| self.missing_cost(group, class));
        batch_seconds(first_s, batch_size)
    }

    /// Panics as the table does for a pair it never measured.
    #[cold]
    fn missing_cost(&self, group: usize, class: ClassId) -> ! {
        self.table.service_seconds(&self.fingerprints[group], self.class(class), 1);
        unreachable!("the dense rows hold every pair the table prices")
    }

    /// [`CostTable::weight`].
    ///
    /// # Panics
    ///
    /// Panics when the class was never measured under any fingerprint.
    pub(crate) fn weight(&self, class: ClassId) -> u64 {
        self.weights[class.0].unwrap_or_else(|| {
            self.table.weight(self.class(class));
            unreachable!("the dense rows hold every weight the table holds")
        })
    }

    /// Per class id: the rank of its weight among the distinct weights,
    /// ascending from 0 (`None` = measured nowhere). Classes that weigh the
    /// same share a rank.
    pub(crate) fn weight_ranks(&self) -> Vec<Option<usize>> {
        let mut distinct: Vec<u64> = self.weights.iter().flatten().copied().collect();
        distinct.sort_unstable();
        distinct.dedup();
        let rank = |weight| distinct.binary_search(&weight).expect("every weight is listed");
        self.weights.iter().map(|weight| weight.map(rank)).collect()
    }

    /// [`CostTable::median_weight`], computed once at resolution.
    pub(crate) fn median_weight(&self) -> u64 {
        self.median_weight
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FP: &str = "test-chip";

    fn table() -> CostTable {
        let mut t = CostTable::new();
        t.register_rate(FP, 1e-9);
        t.insert(
            FP,
            RequestClass { dataset: 0, shrink: 1 },
            ClassCost { cycles: 1_000, flops: 50 },
        );
        t
    }

    #[test]
    fn service_time_amortises_batched_requests() {
        let t = table();
        let class = RequestClass { dataset: 0, shrink: 1 };
        let one = t.service_seconds(FP, class, 1);
        let four = t.service_seconds(FP, class, 4);
        assert!((one - 1e-6).abs() < 1e-15);
        assert!((four - one * 2.5).abs() < 1e-15, "1 + 0.5 * 3 = 2.5x the single cost");
        assert!(four < 4.0 * one, "batching must be cheaper than serving separately");
    }

    #[test]
    fn default_table_pins_the_marginal_batch_fraction() {
        // The default-constructed table must charge batches with the one
        // named constant — no duplicated 0.5 literals anywhere in the
        // serving path.
        assert_eq!(DEFAULT_MARGINAL_BATCH_FRACTION, 0.5);
        let t = table();
        let class = RequestClass { dataset: 0, shrink: 1 };
        let one = t.service_seconds(FP, class, 1);
        for batch in [2_usize, 3, 8] {
            let batched = t.service_seconds(FP, class, batch);
            let expected = one * (1.0 + DEFAULT_MARGINAL_BATCH_FRACTION * (batch - 1) as f64);
            assert!((batched - expected).abs() < 1e-15, "batch of {batch}");
        }
    }

    #[test]
    fn register_uses_the_chip_frequency_and_fingerprint() {
        let config = ChipConfig::tile_16();
        let mut t = CostTable::new();
        let fp = t.register(&config);
        assert_eq!(fp, config.fingerprint());
        t.insert(
            &fp,
            RequestClass { dataset: 0, shrink: 1 },
            ClassCost { cycles: 1_000_000_000, flops: 1 },
        );
        // Tile-16 runs at 1 GHz, so a billion cycles is one second.
        let s = t.service_seconds(&fp, RequestClass { dataset: 0, shrink: 1 }, 1);
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shared_fingerprints_share_memoised_costs() {
        // Two groups running identical silicon memoise through one key.
        let mut t = CostTable::new();
        let a = t.register(&ChipConfig::tile_16());
        let b = t.register(&ChipConfig::tile_16());
        let class = RequestClass { dataset: 0, shrink: 1 };
        t.insert(&a, class, ClassCost { cycles: 10, flops: 5 });
        let seconds = 10.0 * ChipConfig::tile_16().seconds_per_cycle();
        assert_eq!(t.service_seconds(&b, class, 1), seconds, "the second group prices with it");
        assert_eq!(a, b);
        // ... while different silicon gets its own entries.
        let c = t.register(&ChipConfig::tile_64());
        let unmeasured = outcome(|| t.service_seconds(&c, class, 1)).expect_err("never measured");
        assert!(unmeasured.contains("no memoised cost"), "{unmeasured}");
    }

    #[test]
    #[should_panic(expected = "no memoised cost")]
    fn unknown_class_fails_loudly() {
        table().service_seconds(FP, RequestClass { dataset: 9, shrink: 1 }, 1);
    }

    #[test]
    #[should_panic(expected = "must be registered")]
    fn inserting_under_an_unregistered_fingerprint_is_a_bug() {
        let mut t = CostTable::new();
        t.insert(
            "ghost",
            RequestClass { dataset: 0, shrink: 1 },
            ClassCost { cycles: 1, flops: 1 },
        );
    }

    #[test]
    fn weights_and_median_are_chip_independent() {
        let mut t = CostTable::new();
        t.register_rate("a", 1e-9);
        t.register_rate("b", 2e-9);
        let small = RequestClass { dataset: 0, shrink: 4 };
        let big = RequestClass { dataset: 0, shrink: 1 };
        t.insert("a", small, ClassCost { cycles: 10, flops: 25 });
        t.insert("a", big, ClassCost { cycles: 100, flops: 100 });
        t.insert("b", big, ClassCost { cycles: 60, flops: 100 });
        assert_eq!(t.weight(big), 100);
        assert_eq!(t.weight(small), 25);
        assert_eq!(t.median_weight(), 100, "median over classes, not entries");
    }

    #[test]
    fn cost_model_names_round_trip() {
        for model in CostModel::ALL {
            assert_eq!(CostModel::parse(model.name()), Some(model));
        }
        assert_eq!(CostModel::parse("oracle"), None);
        assert_eq!(CostModel::default(), CostModel::Cycle);
    }

    #[test]
    fn analytic_costs_are_insertable_and_carry_exact_flops() {
        let workload = WorkloadFeatures {
            rows: 500,
            nnz: 4_000,
            partial_products: 90_000,
            output_nnz: 30_000,
            max_row_pp: 1_200,
            active_cols: 480,
            mmh_instructions: [4_000, 2_200, 1_300, 800],
        };
        let config = ChipConfig::tile_16();
        let cost = analytic_class_cost(&config, &workload);
        assert!(cost.cycles >= 1);
        assert_eq!(cost.flops, workload.flops(), "SJF weights match the cycle path exactly");
        let mut t = CostTable::new();
        let fp = t.register(&config);
        t.insert(&fp, RequestClass { dataset: 0, shrink: 1 }, cost);
        assert!(t.service_seconds(&fp, RequestClass { dataset: 0, shrink: 1 }, 1) > 0.0);
    }

    #[test]
    fn hybrid_scaling_corrects_through_the_anchor() {
        // Anchor measured at 2x its estimate => every estimate doubles.
        assert_eq!(hybrid_scaled_cycles(500, 2_000, 1_000), 1_000);
        // Perfect anchor => estimates pass through unchanged.
        assert_eq!(hybrid_scaled_cycles(500, 1_000, 1_000), 500);
        // Never below the one-cycle floor, even for tiny scaled values.
        assert_eq!(hybrid_scaled_cycles(1, 1, 1_000_000), 1);
    }

    /// The table the serving benchmark prices against: three tiles, four
    /// datasets, shrinks {1, 2, 4}, smaller tiles proportionally slower.
    fn benchmark_shaped() -> (CostTable, Vec<ShardGroup>) {
        let mut table = CostTable::new();
        let mut groups = Vec::new();
        let tiles = [
            ("t4", ChipConfig::tile_4(), 4),
            ("t16", ChipConfig::tile_16(), 2),
            ("t64", ChipConfig::tile_64(), 1),
        ];
        for (name, config, slowdown) in tiles {
            let fp = table.register(&config);
            for dataset in 0..4 {
                for shrink in [1, 2, 4] {
                    let cycles = 600_000 * slowdown * (dataset as u64 + 1) / shrink as u64;
                    let cost = ClassCost { cycles, flops: cycles / slowdown };
                    table.insert(&fp, RequestClass { dataset, shrink }, cost);
                }
            }
            groups.push(ShardGroup::new(name, config, 2));
        }
        (table, groups)
    }

    /// A table with gaps: datasets {0, 2, 5} and shrinks {1, 64}, Tile-4
    /// measuring only some of Tile-64's classes, and a Tile-16 group whose
    /// silicon was never registered.
    fn gapped() -> (CostTable, Vec<ShardGroup>) {
        let mut table = CostTable::new();
        let t64 = table.register(&ChipConfig::tile_64());
        let t4 = table.register(&ChipConfig::tile_4());
        let classes = [(0, 1), (0, 64), (2, 64), (5, 1), (5, 64)];
        for (i, (dataset, shrink)) in classes.into_iter().enumerate() {
            let class = RequestClass { dataset, shrink };
            let cycles = 1_000 + 7_919 * i as u64;
            table.insert(&t64, class, ClassCost { cycles, flops: 3 * cycles });
            if i % 2 == 0 {
                table.insert(&t4, class, ClassCost { cycles: 5 * cycles, flops: 3 * cycles });
            }
        }
        let groups = vec![
            ShardGroup::new("t64", ChipConfig::tile_64(), 1),
            ShardGroup::new("t4", ChipConfig::tile_4(), 1),
            ShardGroup::new("t16", ChipConfig::tile_16(), 1),
        ];
        (table, groups)
    }

    /// What `f` returns, or the message it panics with.
    fn outcome<T>(f: impl FnOnce() -> T) -> Result<T, String> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|panic| {
            let message = panic.downcast_ref::<String>().cloned();
            message
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        })
    }

    /// Every (group, class, batch) of the dense rows prices exactly as the
    /// table does — the same bits, or the same panic for a pair the table
    /// never measured — and class ids ascend with the classes.
    #[test]
    fn dense_rows_equal_the_table_bit_for_bit() {
        for (table, groups) in [benchmark_shaped(), gapped()] {
            let costs = FleetCosts::new(&table, &groups);
            let mut shrinks: Vec<usize> = table.flops.keys().map(|c| c.shrink).collect();
            shrinks.sort_unstable();
            shrinks.dedup();
            let datasets = table.flops.keys().map(|c| c.dataset).max().expect("measured") + 1;
            let grid = (0..datasets).flat_map(|dataset| {
                shrinks.iter().map(move |&shrink| RequestClass { dataset, shrink })
            });
            for (index, class) in grid.enumerate() {
                let id = costs.class_id(class);
                assert_eq!(id.index(), index, "{class:?}");
                let weight = outcome(|| costs.weight(id));
                assert_eq!(weight, outcome(|| table.weight(class)), "{class:?}");
                for (g, group) in groups.iter().enumerate() {
                    let fp = group.config.fingerprint();
                    for batch in 1..=16 {
                        let dense = outcome(|| costs.service_seconds(g, id, batch).to_bits());
                        let direct = outcome(|| table.service_seconds(&fp, class, batch).to_bits());
                        assert_eq!(dense, direct, "{class:?} on {} x{batch}", group.name);
                    }
                }
            }
            assert_eq!(costs.class_count(), datasets * shrinks.len());
            // Ranks order the classes exactly as their weights do.
            let ranks = costs.weight_ranks();
            for (a, b) in (0..ranks.len()).flat_map(|a| (0..ranks.len()).map(move |b| (a, b))) {
                let (wa, wb) = (costs.weights[a], costs.weights[b]);
                assert_eq!(ranks[a].is_some(), wa.is_some(), "class {a}");
                if let (Some(ra), Some(rb), Some(wa), Some(wb)) = (ranks[a], ranks[b], wa, wb) {
                    assert_eq!(ra.cmp(&rb), wa.cmp(&wb), "classes {a} and {b}");
                }
            }
            for outside in [
                RequestClass { dataset: datasets, shrink: 1 },
                RequestClass { dataset: 0, shrink: 3 },
            ] {
                let refused = outcome(|| costs.class_id(outside)).expect_err("outside the table");
                assert!(refused.contains("no memoised cost for request class"), "{refused}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "no memoised cost for request class")]
    fn an_unmeasured_pair_still_panics_in_dense_rows() {
        let (table, groups) = gapped();
        let costs = FleetCosts::new(&table, &groups);
        costs.service_seconds(0, costs.class_id(RequestClass { dataset: 1, shrink: 1 }), 1);
    }
}
