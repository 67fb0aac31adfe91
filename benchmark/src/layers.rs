//! The benchmark's whole API footprint on the workspace crates.
//!
//! This is the only file of the benchmark that names a `neura_*` crate.
//! Every other file goes through the functions and type aliases below, so
//! an API-consolidation PR in the workspace knows exactly what a follow-up
//! benchmark change must re-point. Entry points used, by layer:
//!
//! - `neura_sparse`: `DatasetCatalog::{spgemm_suite, gnn_suite, by_name}`,
//!   `Dataset::generate_scaled`, `CooMatrix::{to_csr, iter, rows, cols, nnz,
//!   from_triplets}`, `CsrMatrix::{rows, cols, to_csc, nnz, row_ptr,
//!   col_idx, values, from_raw_parts}`, `spgemm::{multiply,
//!   multiply_counting, Dataflow}`, `spmm::gcn_layer`,
//!   `gen::{feature_matrix, weight_matrix, GraphGenerator::power_law}`,
//!   `DenseMatrix::{rows, cols, as_slice}`.
//! - `neura_sim`: `LatencyHistogram::{new, record, merge, count}`, `Cycle`.
//! - `neura_mem`: `MemoryController::{new, submit, tick}`,
//!   `MemoryRequest::read`, `HbmTiming::hbm2`, `HbmPreset::ALL`.
//! - `neura_noc`: `TorusNetwork::{new, inject, tick, drain_delivered,
//!   in_flight}`, `TorusTopology::for_nodes`, `Packet::new`.
//! - `neura_chip`: `Accelerator::{new, run_spgemm, run_spgemm_profiled}`,
//!   `gcn::run_gcn_layer`, `ChipConfig::{for_tile_size, with_hbm_preset,
//!   with_frequency_ghz, fingerprint}`, `TileSize`, `ExecutionReport`
//!   fields, `compiler::compile_spgemm`, `NeuraMem::{new, accept, tick,
//!   flush, drain_evicted}`, `HaccInstruction::new`, `MappingKind::{ALL,
//!   build}`, `Profiler::{new, into_profile}`, `WorkloadFeatures::
//!   from_square`, `AnalyticModel::{calibrated, cycles}`.
//! - `neura_baselines`: `WorkloadProfile::from_square`,
//!   `SpgemmPlatform::FIGURE16_BASELINES`, `SpgemmModel::estimate`.
//! - `neura_lab`: `Runner::{new, run}`, `RunRecord::{new, param, metric,
//!   unit_metric, with_execution}`, `Artifact::{new, extend, to_bytes,
//!   from_json}`, `parse_json`, `JsonValue`, `trend::diff`.
//! - `neura_serve`: `simulate_config_parallel`,
//!   `simulate_config_traced_parallel`, `EnginePlan::{serial, with_epochs,
//!   with_lanes, with_threads}`, `ServeConfig` (fields), `CostTable::{new,
//!   register, insert, service_seconds}`, `ScenarioSpec::{library, shaped,
//!   fault_spec}`, `ShapedStream::generate`, `StreamSpec` (fields and
//!   `generate`), `ClosedLoopSpec`, `FaultSpec`, `RequestClass`, `ClassCost`,
//!   `Workload`, `Policy::{Fifo, Sjf, batch}`, `DispatchKind`, `ShardGroup::new`,
//!   `AutoscalePolicy`, `Timeline::{build, records}`, `ServeOutcome::
//!   {offered, requests, shed, redispatched, records}` and its per-request
//!   vectors (for `serve.outcome.bytes_per_req` only).

use neura_baselines::{SpgemmModel, SpgemmPlatform, WorkloadProfile};
use neura_chip::accelerator::{Accelerator, ExecutionReport};
use neura_chip::analytic::{AnalyticModel, WorkloadFeatures};
use neura_chip::config::{ChipConfig, EvictionPolicy, TileSize};
use neura_chip::isa::HaccInstruction;
use neura_chip::mapping::MappingKind;
use neura_chip::neuramem::NeuraMem;
use neura_chip::profile::Profiler;
use neura_lab::{Artifact, RunRecord, Runner};
use neura_mem::{HbmPreset, HbmTiming, MemoryController, MemoryRequest};
use neura_noc::{Packet, TorusNetwork, TorusTopology};
use neura_serve::{
    simulate_config_parallel, simulate_config_traced_parallel, ArrivalProcess, AutoscalePolicy,
    ClassCost, ClosedLoopSpec, CostTable, DispatchKind, EnginePlan, FaultSpec, Policy,
    RequestClass, ScenarioSpec, ServeConfig, ServeOutcome, ShardGroup, StreamSpec, Timeline,
    Workload,
};
use neura_sim::{Cycle, LatencyHistogram};
use neura_sparse::gen::{feature_matrix, weight_matrix, GraphGenerator};
use neura_sparse::spgemm::{self, Dataflow};
use neura_sparse::{spmm, CooMatrix, CsrMatrix, DatasetCatalog, DenseMatrix};

pub use neura_lab::{parse_json, JsonValue};

/// Worker threads of every sweep: this container has two cores, and the
/// benchmark never reads `NEURA_LAB_THREADS`.
pub const THREADS: usize = 2;

pub type Coo = CooMatrix;
pub type Csr = CsrMatrix;
pub type Dense = DenseMatrix;
pub type Record = RunRecord;
pub type Features = WorkloadFeatures;

/// The three chip tiles, by the short name used in point ids and metrics.
pub const TILES: [&str; 3] = ["t4", "t16", "t64"];

fn tile_size(tile: &str) -> TileSize {
    match tile {
        "t4" => TileSize::Tile4,
        "t16" => TileSize::Tile16,
        "t64" => TileSize::Tile64,
        other => panic!("unknown tile {other:?}"),
    }
}

// ---------------------------------------------------------------- sparse

/// Every catalog dataset name: the 20 SpGEMM matrices, then the 5 GNN graphs.
pub fn catalog_names() -> Vec<&'static str> {
    DatasetCatalog::spgemm_suite()
        .into_iter()
        .chain(DatasetCatalog::gnn_suite())
        .map(|d| d.name)
        .collect()
}

/// `sparse.generate`: the catalog analog of `dataset`, shrunk to about
/// `target_nodes` vertices at the published average degree.
pub fn generate(dataset: &str, target_nodes: usize, seed: u64) -> Coo {
    let d = DatasetCatalog::by_name(dataset)
        .unwrap_or_else(|| panic!("{dataset:?} is not a catalog dataset"));
    weighted(&d.generate_scaled((d.nodes / target_nodes.max(1)).max(1), seed), seed)
}

/// The catalog generators emit unit weights, and the banded family ignores
/// its seed altogether. Seed-derived weights in (0, 1] make every input
/// follow `--seed` and give the 1e-9 product check values to disagree on,
/// while the structure, and with it the simulated work, stays the
/// catalog's.
fn weighted(coo: &Coo, seed: u64) -> Coo {
    let mut x = seed;
    let entries = coo.iter().map(|&(r, c, _)| {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (r, c, ((x >> 11) + 1) as f64 / (1u64 << 53) as f64)
    });
    Coo::from_triplets(coo.rows(), coo.cols(), entries.collect())
        .expect("the entries keep their coordinates")
}

/// A small scale-free matrix for the isolated drives.
pub fn power_law(nodes: usize, edges: usize, seed: u64) -> Coo {
    GraphGenerator::power_law(nodes, edges, 2.1, seed).generate()
}

/// `sparse.to_csr`.
pub fn to_csr(coo: &Coo) -> Csr {
    coo.to_csr()
}

pub fn coo_nnz(coo: &Coo) -> usize {
    coo.nnz()
}

/// The four reference dataflows, by the short name used in metric names.
pub const DATAFLOWS: [&str; 4] = ["rowwise", "outer", "tiled4", "inner"];

/// `A × A` under one dataflow: the set-up oracle (`rowwise`), the
/// model-tier cross-checks and the kernel drives.
pub fn multiply(a: &Csr, dataflow: &str) -> Csr {
    let dataflow = match dataflow {
        "rowwise" => Dataflow::RowWise,
        "outer" => Dataflow::OuterProduct,
        "tiled4" => Dataflow::TiledRowWise(4),
        "inner" => Dataflow::InnerProduct,
        other => panic!("unknown dataflow {other:?}"),
    };
    spgemm::multiply(a, a, dataflow).expect("a square matrix multiplies with itself")
}

/// `sparse.multiply_counting`: the product and its scalar multiplications
/// (the reference partial products).
pub fn multiply_counting(a: &Csr) -> (Csr, u64) {
    let (product, stats) = spgemm::multiply_counting(a, a);
    (product, stats.multiplications)
}

/// Whether two products agree: pattern exact, values within 1e-9 relative.
pub fn products_agree(got: &Csr, want: &Csr) -> bool {
    got.rows() == want.rows()
        && got.cols() == want.cols()
        && got.row_ptr() == want.row_ptr()
        && got.col_idx() == want.col_idx()
        && values_agree(got.values(), want.values())
}

fn values_agree(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| (g - w).abs() <= 1e-9 * g.abs().max(w.abs()).max(1.0))
}

pub fn dense_agree(got: &Dense, want: &Dense) -> bool {
    got.rows() == want.rows()
        && got.cols() == want.cols()
        && values_agree(got.as_slice(), want.as_slice())
}

/// A copy of `m` with its first stored value perturbed — the corrupted
/// product the self-tests feed to [`products_agree`].
pub fn corrupted(m: &Csr) -> Csr {
    let mut values = m.values().to_vec();
    values[0] += 1.0;
    Csr::from_raw_parts(m.rows(), m.cols(), m.row_ptr().to_vec(), m.col_idx().to_vec(), values)
        .expect("the pattern is unchanged")
}

pub fn nnz(m: &Csr) -> usize {
    m.nnz()
}

pub fn rows(m: &Csr) -> usize {
    m.rows()
}

/// A hash of a matrix's pattern and values (for the input digest).
pub fn fingerprint(m: &Csr) -> u64 {
    let words = m.col_idx().iter().map(|&c| c as u64).chain(m.values().iter().map(|v| v.to_bits()));
    crate::util::fnv1a(&words.flat_map(u64::to_le_bytes).collect::<Vec<u8>>())
}

pub fn gcn_inputs(
    nodes: usize,
    in_features: usize,
    out_features: usize,
    seed: u64,
) -> (Dense, Dense) {
    (feature_matrix(nodes, in_features, seed), weight_matrix(in_features, out_features, seed ^ 1))
}

/// The set-up oracle of a GCN point: `ReLU(A · X · W)` on the host.
pub fn gcn_reference(a: &Csr, x: &Dense, w: &Dense) -> Dense {
    spmm::gcn_layer(a, x, w).expect("shapes were built to match")
}

// ------------------------------------------------------------------ chip

/// The simulated counts of one cycle-level run that the benchmark reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimCounts {
    pub total_cycles: u64,
    pub mmh: u64,
    pub hacc: u64,
    pub busy: u64,
    pub stall: u64,
    pub idle: u64,
    pub hashpad_full_stalls: u64,
    pub dram_bytes_read: u64,
    pub mean_dram_latency: f64,
    pub noc_packets: u64,
    pub noc_mean_hops: f64,
}

/// A cycle-level run's report, opaque outside this file.
#[derive(Debug)]
pub struct ChipReport(ExecutionReport);

impl ChipReport {
    pub fn counts(&self) -> SimCounts {
        let r = &self.0;
        SimCounts {
            total_cycles: r.total_cycles,
            mmh: r.mmh_instructions,
            hacc: r.hacc_instructions,
            busy: r.core_busy_cycles,
            stall: r.core_stall_cycles,
            idle: r.core_idle_cycles,
            hashpad_full_stalls: r.hashpad_full_stalls,
            dram_bytes_read: r.dram_bytes_read,
            mean_dram_latency: r.mean_dram_latency,
            noc_packets: r.noc_packets,
            noc_mean_hops: r.noc_mean_hops,
        }
    }
}

fn chip(tile: &str) -> Accelerator {
    Accelerator::new(ChipConfig::for_tile_size(tile_size(tile)))
}

/// `chip.run_spgemm`: `A × A` on the cycle-level model.
pub fn run_spgemm(tile: &str, a: &Csr) -> Result<(Csr, ChipReport), String> {
    let run = chip(tile).run_spgemm(a, a).map_err(|e| e.to_string())?;
    Ok((run.product, ChipReport(run.report)))
}

/// The same run with the chip profiler attached (for `chip.profiled.overhead`).
pub fn run_spgemm_profiled(tile: &str, a: &Csr) -> u64 {
    let mut profiler = Profiler::new(1_024);
    let run = chip(tile)
        .run_spgemm_profiled(a, a, Some(&mut profiler))
        .expect("the drive matrix simulates to completion");
    std::hint::black_box(profiler.into_profile());
    run.report.total_cycles
}

/// `chip.run_gcn_layer`: one `ReLU(A · X · W)` layer on the cycle-level model.
pub fn run_gcn_layer(
    tile: &str,
    a: &Csr,
    x: &Dense,
    w: &Dense,
) -> Result<(Dense, ChipReport), String> {
    let run =
        neura_chip::gcn::run_gcn_layer(&mut chip(tile), a, x, w).map_err(|e| e.to_string())?;
    Ok((run.output, ChipReport(run.aggregation_report)))
}

/// `lab.record`: the standard execution metric set of one chip point.
pub fn chip_record(id: &str, dataset: &str, tile: &str, report: &ChipReport) -> Record {
    RunRecord::new(id).param("dataset", dataset).param("tile", tile).with_execution(&report.0)
}

/// `chip.compile`: the MMH program of `A × A`; returns its instruction count.
pub fn compile_spgemm(a: &Csr) -> u64 {
    let program = neura_chip::compiler::compile_spgemm(&a.to_csc(), a, 4);
    std::hint::black_box(&program).instruction_count() as u64
}

/// The `hash_engine` criterion bench body: 4 000 HACCs over 1 024 tags.
pub fn neuramem_drive(barrier: bool) -> u64 {
    let policy = if barrier { EvictionPolicy::Barrier } else { EvictionPolicy::Rolling };
    let mut mem = NeuraMem::new(0, ChipConfig::tile_16().mem, policy);
    let mut cycle = 0u64;
    for tag in 0..4_000u64 {
        while !mem.accept(HaccInstruction::new(tag % 1_024, 1.0, 4)) {
            mem.tick(Cycle(cycle));
            cycle += 1;
        }
        mem.tick(Cycle(cycle));
        cycle += 1;
    }
    mem.flush(Cycle(cycle));
    std::hint::black_box(mem.drain_evicted().len());
    4_000
}

/// The four compute mappings, by the name used in metric names.
pub fn mapping_kinds() -> [&'static str; 4] {
    MappingKind::ALL.map(|k| k.name())
}

/// The `mapping` criterion bench body: 64 rows × 256 tags over 128 units.
pub fn mapping_drive(kind: &str) -> u64 {
    let kind = MappingKind::ALL.into_iter().find(|k| k.name() == kind).expect("a mapping name");
    let mut mapper = kind.build(128, 7);
    let mut acc = 0usize;
    for row in 0..64u64 {
        for tag in 0..256u64 {
            acc += mapper.map(row * 10_000 + tag * 16, row);
        }
    }
    std::hint::black_box(acc);
    64 * 256
}

/// `chip.features`: the analytic tier's workload features of `A × A`.
pub fn features(a: &Csr) -> Features {
    WorkloadFeatures::from_square(a)
}

/// The cheap-tier config grid: tile × HBM preset × `per_cell` frequencies.
#[derive(Debug)]
pub struct ConfigGrid(Vec<ChipConfig>);

impl ConfigGrid {
    pub fn new(per_cell: usize) -> Self {
        let mut configs = Vec::new();
        for tile in TileSize::ALL {
            for hbm in HbmPreset::ALL {
                for step in 0..per_cell {
                    let ghz = 0.5 + 1.5 * step as f64 / per_cell as f64;
                    configs.push(
                        ChipConfig::for_tile_size(tile)
                            .with_hbm_preset(hbm)
                            .with_frequency_ghz(ghz),
                    );
                }
            }
        }
        ConfigGrid(configs)
    }

    /// How many configs one sweep prices.
    pub fn evals(&self) -> u64 {
        self.0.len() as u64
    }
}

/// `chip.analytic`: prices `workload` on every grid config; returns the
/// cheapest config's index and its seconds.
pub fn analytic_sweep(grid: &ConfigGrid, workload: &Features) -> (usize, f64) {
    let model = AnalyticModel::calibrated();
    let mut best = (0, f64::INFINITY);
    for (i, config) in grid.0.iter().enumerate() {
        let seconds = model.seconds(config, workload);
        if seconds < best.1 {
            best = (i, seconds);
        }
    }
    best
}

/// The analytic tier's cycle estimate on a paper tile (for the accuracy rows).
pub fn analytic_cycles(tile: &str, workload: &Features) -> f64 {
    AnalyticModel::calibrated().cycles(&ChipConfig::for_tile_size(tile_size(tile)), workload)
}

// ------------------------------------------------------------- baselines

/// `baselines.estimate`: the structural profile of `A × A` priced on the
/// seven Figure 16 platforms; `(platform, seconds)` in plot order.
pub fn baseline_estimates(dataset: &str, a: &Csr) -> Vec<(&'static str, f64)> {
    let profile = WorkloadProfile::from_square(dataset, a);
    SpgemmPlatform::FIGURE16_BASELINES
        .iter()
        .map(|p| (p.name(), p.estimate(&profile).seconds))
        .collect()
}

/// The estimate half of the above on a prebuilt profile (the drive body).
#[derive(Debug)]
pub struct Profile(WorkloadProfile);

pub fn baseline_profile(a: &Csr) -> Profile {
    Profile(WorkloadProfile::from_square("drive", a))
}

pub fn baseline_estimate_drive(profile: &Profile) -> u64 {
    for platform in SpgemmPlatform::FIGURE16_BASELINES {
        std::hint::black_box(platform.estimate(&profile.0).seconds);
    }
    SpgemmPlatform::FIGURE16_BASELINES.len() as u64
}

// ------------------------------------------------------------------- lab

/// One sweep on the lab runner's work-stealing pool of `workers` threads,
/// results in item order.
pub fn run_parallel<T: Sync, R: Send>(
    workers: usize,
    items: &[T],
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    Runner::new(workers).run(items, f)
}

/// `lab.record`: one dataset's record from `(name, value, unit)` metrics.
pub fn dataset_record(id: &str, dataset: &str, metrics: &[(&str, f64, Option<&str>)]) -> Record {
    metrics.iter().fold(RunRecord::new(id).param("dataset", dataset), |r, &(name, value, unit)| {
        match unit {
            Some(unit) => r.unit_metric(name, value, unit),
            None => r.metric(name, value),
        }
    })
}

/// A parsed artifact, opaque outside this file.
#[derive(Debug)]
pub struct Parsed(Artifact);

/// `lab.emit`: the artifact bytes of one pass's records.
pub fn emit(workload: &str, records: Vec<Record>) -> String {
    let mut artifact = Artifact::new(workload, 1);
    artifact.extend(records);
    artifact.to_bytes()
}

/// `lab.parse`: bytes → document → typed artifact.
pub fn parse(bytes: &str) -> Result<Parsed, String> {
    let doc = parse_json(bytes).map_err(|e| e.to_string())?;
    Artifact::from_json(&doc).map(Parsed)
}

/// `lab.trend`: diffs a parsed artifact against itself; `(records,
/// identical)`.
pub fn trend_self_diff(parsed: &Parsed) -> (usize, bool) {
    let report = neura_lab::trend::diff(&parsed.0, &parsed.0);
    (parsed.0.records.len(), report.is_identical())
}

// ----------------------------------------------------------------- serve

/// The serve workload's fixed context: a synthetic cost table (no chip
/// simulation runs), a mixed fleet and its capacity.
#[derive(Debug)]
pub struct ServeContext {
    costs: CostTable,
    fleet: Vec<ShardGroup>,
    autoscale: AutoscalePolicy,
    /// Requests per second the fleet serves at full utilisation.
    capacity_rps: f64,
    mean_service_s: f64,
}

const SERVE_DATASETS: usize = 4;
const SERVE_SHRINKS: [usize; 3] = [1, 2, 4];

/// Builds the cost table (3 chip fingerprints × 4 datasets × 3 shrinks at
/// fixed cycle costs) and a 2+2+2-shard mixed fleet.
pub fn serve_context() -> ServeContext {
    let mut costs = CostTable::new();
    let mut fleet = Vec::new();
    let mut capacity_rps = 0.0;
    let shards = 2usize;
    // (tile, slowdown against Tile-64): smaller tiles serve the same class slower.
    for (tile, slowdown) in [("t4", 4u64), ("t16", 2), ("t64", 1)] {
        let config = ChipConfig::for_tile_size(tile_size(tile));
        let fp = costs.register(&config);
        let mut service_sum = 0.0;
        for dataset in 0..SERVE_DATASETS {
            for shrink in SERVE_SHRINKS {
                let cycles = 600_000 * slowdown * (dataset as u64 + 1) / shrink as u64;
                let class = RequestClass { dataset, shrink };
                costs.insert(&fp, class, ClassCost { cycles, flops: cycles / slowdown });
                service_sum += costs.service_seconds(&fp, class, 1);
            }
        }
        let mean_service = service_sum / (SERVE_DATASETS * SERVE_SHRINKS.len()) as f64;
        capacity_rps += shards as f64 / mean_service;
        fleet.push(ShardGroup::new(tile, config, shards));
    }
    let mean_service_s = fleet.len() as f64 * shards as f64 / capacity_rps;
    // The `serve` binary's controller: interval and delay follow the mean service time.
    let autoscale = AutoscalePolicy::new(1, 4)
        .with_check_interval_s(mean_service_s * 5.0)
        .with_provision_delay_s(mean_service_s * 25.0);
    ServeContext { costs, fleet, autoscale, capacity_rps, mean_service_s }
}

/// One serving replay: a workload, a policy pair and an engine plan.
#[derive(Debug)]
pub struct ServeCase {
    pub id: String,
    /// The library scenario name, or `closed` for the closed loop.
    pub scenario: &'static str,
    workload: Workload,
    policy: Policy,
    dispatch: DispatchKind,
    elastic: bool,
    queue_bound: Option<usize>,
    fault: Option<FaultSpec>,
    plan: EnginePlan,
    /// Record the lifecycle trace and fold it into a timeline.
    traced: bool,
    /// Length of the generated open-loop stream: what the replay must offer.
    pub expected_offered: Option<u64>,
    window_s: f64,
}

impl ServeCase {
    /// Whether the engine plan fans out on its own threads (such cases run
    /// one at a time, after the runner sweep, so two threads stay the cap).
    pub fn is_parallel(&self) -> bool {
        !self.plan.is_serial()
    }
}

/// The serve sweep: 6 library scenarios × 3 policies × 2 dispatches open
/// loop serial, two of them again as 4 epochs, a closed loop serial and
/// as 2 lanes, and one traced replay folded into a timeline. `requests`
/// sizes every replay; `built` is called after each case is built.
pub fn serve_cases(
    ctx: &ServeContext,
    requests: usize,
    seed: u64,
    built: &mut dyn FnMut(),
) -> Vec<ServeCase> {
    let policies =
        [("fifo", Policy::Fifo), ("sjf", Policy::Sjf), ("batch8", Policy::batch(8, 0.002))];
    let dispatches = [("least", DispatchKind::LeastLoaded), ("cost", DispatchKind::CostAware)];
    let open = |sc: &ScenarioSpec, id: String, policy, dispatch, plan: EnginePlan, traced| {
        let rps = (sc.load * ctx.capacity_rps).round();
        let duration_s = requests as f64 / rps;
        let stream_seed = crate::util::derive_seed(seed, sc.name);
        let base = StreamSpec {
            arrival: ArrivalProcess::Poisson,
            rps,
            duration_s,
            mix_size: SERVE_DATASETS,
            shrinks: SERVE_SHRINKS.to_vec(),
            seed: stream_seed,
        };
        let stream = sc.shaped(base);
        ServeCase {
            id,
            scenario: sc.name,
            expected_offered: Some(stream.generate().len() as u64),
            workload: Workload::Shaped(stream),
            policy,
            dispatch,
            elastic: sc.elastic,
            queue_bound: sc.queue_bound,
            fault: sc.fault_spec(stream_seed, duration_s),
            plan,
            traced,
            window_s: duration_s / 50.0,
        }
    };
    let serial = || EnginePlan::serial().with_threads(1);
    let library = ScenarioSpec::library();
    let mut cases = Vec::new();
    let mut push = |case| {
        cases.push(case);
        built();
    };
    for sc in &library {
        for (pname, policy) in policies {
            for (dname, dispatch) in dispatches {
                let id = format!("serve/{}/{pname}/{dname}", sc.name);
                push(open(sc, id, policy, dispatch, serial(), false));
            }
        }
    }
    let clients = (requests / 8).max(8);
    let load_rps = 0.8 * ctx.capacity_rps;
    let closed = |id: &str, plan| ServeCase {
        id: id.to_string(),
        scenario: "closed",
        workload: Workload::Closed(ClosedLoopSpec {
            clients,
            think_s: (clients as f64 / load_rps - ctx.mean_service_s).max(0.0),
            duration_s: requests as f64 / load_rps,
            mix_size: SERVE_DATASETS,
            shrinks: SERVE_SHRINKS.to_vec(),
            seed: crate::util::derive_seed(seed, "closed"),
        }),
        policy: Policy::Fifo,
        dispatch: DispatchKind::LeastLoaded,
        elastic: false,
        queue_bound: None,
        fault: None,
        plan,
        traced: false,
        expected_offered: None,
        window_s: 1.0,
    };
    push(closed("serve/closed/serial", serial()));
    let pool = || EnginePlan::serial().with_threads(THREADS);
    for sc in library.iter().filter(|sc| matches!(sc.name, "diurnal" | "overload")) {
        let id = format!("serve/{}/fifo/least/epochs4", sc.name);
        push(open(sc, id, Policy::Fifo, DispatchKind::LeastLoaded, pool().with_epochs(4), false));
    }
    push(closed("serve/closed/lanes2", pool().with_lanes(2)));
    let flash = library.iter().find(|sc| sc.name == "flash").expect("flash is a library scenario");
    push(open(
        flash,
        "serve/flash/fifo/least/traced".to_string(),
        Policy::Fifo,
        DispatchKind::LeastLoaded,
        serial(),
        true,
    ));
    cases
}

/// What one replay measured, as far as the benchmark reads it.
#[derive(Debug)]
pub struct ServeRun {
    outcome: ServeOutcome,
    timeline: Option<Timeline>,
    pub offered: u64,
    pub served: u64,
    pub shed: u64,
    pub redispatched: u64,
    /// Trace events folded into the timeline (0 when untraced).
    pub trace_events: u64,
}

impl ServeRun {
    /// Bytes of per-request vectors the outcome holds, per offered request.
    pub fn bytes_per_request(&self) -> f64 {
        let o = &self.outcome;
        let words = o.latencies_s.len()
            + o.arrivals_s.len()
            + o.tenants.len()
            + o.shed.len()
            + o.batch_sizes.len();
        (words * 8) as f64 / self.offered.max(1) as f64
    }
}

/// `serve.simulate` / `serve.simulate_traced` + `serve.timeline`. The
/// timeline fold runs under its own span through `timeline_span`.
pub fn simulate(
    ctx: &ServeContext,
    case: &ServeCase,
    timeline_span: impl FnOnce(&mut dyn FnMut()),
) -> ServeRun {
    let mut cfg = ServeConfig::new(case.policy, &ctx.fleet, case.dispatch, &ctx.costs);
    cfg.autoscale = case.elastic.then_some(&ctx.autoscale);
    cfg.queue_bound = case.queue_bound;
    cfg.faults = case.fault.as_ref();
    let (outcome, timeline, trace_events) = if case.traced {
        let (outcome, trace) = simulate_config_traced_parallel(&case.workload, &cfg, &case.plan);
        let mut timeline = None;
        timeline_span(&mut || timeline = Some(Timeline::build(&trace, &outcome, case.window_s)));
        (outcome, timeline, trace.events.len() as u64)
    } else {
        (simulate_config_parallel(&case.workload, &cfg, &case.plan), None, 0)
    };
    ServeRun {
        offered: outcome.offered() as u64,
        served: outcome.requests() as u64,
        shed: outcome.shed.len() as u64,
        redispatched: outcome.redispatched() as u64,
        outcome,
        timeline,
        trace_events,
    }
}

/// `serve.records`: the outcome's (and timeline's) artifact records.
pub fn serve_records(case: &ServeCase, run: &ServeRun) -> Vec<Record> {
    let params = vec![("scenario".to_string(), case.scenario.to_string())];
    let mut records = run.outcome.records(&case.id, &params);
    if let Some(timeline) = &run.timeline {
        records.extend(timeline.records(&case.id, &params));
    }
    records
}

/// `serve.arrivals.gen`: expands an open-loop Poisson stream; returns its length.
pub fn arrivals_drive(requests: usize, seed: u64) -> u64 {
    let spec = StreamSpec {
        arrival: ArrivalProcess::Poisson,
        rps: requests as f64,
        duration_s: 1.0,
        mix_size: SERVE_DATASETS,
        shrinks: SERVE_SHRINKS.to_vec(),
        seed,
    };
    std::hint::black_box(spec.generate()).len() as u64
}

// -------------------------------------------------------- sim, mem, noc

/// `sim.latency_histogram.record`: `n` samples into one histogram.
pub fn histogram_record_drive(n: u64) -> u64 {
    let mut h = LatencyHistogram::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..n {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        h.record((x >> 40) as f64 * 1e-6);
    }
    std::hint::black_box(h.count())
}

/// `sim.latency_histogram.merge`: merges `n` populated histograms into one.
pub fn histogram_merge_drive(n: u64) -> u64 {
    let mut part = LatencyHistogram::new();
    for i in 0..512u64 {
        part.record(1e-4 * (i + 1) as f64);
    }
    let mut total = LatencyHistogram::new();
    for _ in 0..n {
        total.merge(&part);
    }
    std::hint::black_box(total.count());
    n
}

/// The `hbm_model` criterion bench body: 2 000 reads through one controller.
pub fn hbm_drive(stride: u64) -> u64 {
    let mut ctrl = MemoryController::new(0, HbmTiming::hbm2(), 256);
    let mut done = Vec::new();
    let (mut submitted, mut cycle) = (0u64, 0u64);
    while done.len() < 2_000 {
        if submitted < 2_000
            && ctrl.submit(MemoryRequest::read(submitted * stride, 64), Cycle(cycle)).is_some()
        {
            submitted += 1;
        }
        ctrl.tick(Cycle(cycle), &mut done);
        cycle += 1;
    }
    std::hint::black_box(cycle);
    2_000
}

/// `noc.torus`: 4 000 HACC-sized packets across a 64-node torus, to
/// uniform destinations or all to node 0, drained the way the accelerator
/// drains them.
pub fn torus_drive(hotspot: bool) -> u64 {
    let nodes = 64usize;
    let mut noc = TorusNetwork::new(TorusTopology::for_nodes(nodes), 16);
    let total = 4_000u64;
    let (mut injected, mut delivered, mut cycle) = (0u64, 0u64, 0u64);
    while delivered < total {
        for src in 0..nodes {
            if injected == total {
                break;
            }
            let dst = if hotspot { 0 } else { (src * 29 + injected as usize * 7 + 1) % nodes };
            if noc.inject(Packet::new(injected, src, dst, 16), Cycle(cycle)).is_ok() {
                injected += 1;
            }
        }
        noc.tick(Cycle(cycle));
        if hotspot {
            delivered += noc.drain_delivered(0).len() as u64;
        } else if noc.in_flight() > 0 || injected == total {
            for node in 0..nodes {
                delivered += noc.drain_delivered(node).len() as u64;
            }
        }
        cycle += 1;
    }
    std::hint::black_box(cycle);
    total
}
