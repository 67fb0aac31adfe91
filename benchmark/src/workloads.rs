//! The four pipeline workloads: their inputs, their sweep points and one
//! timed pass over them.
//!
//! Each workload is a fixed sweep a user of the repo actually runs. A pass
//! runs every point on the lab runner's two workers, then emits, parses
//! and self-diffs the artifacts of the records the points produced. Why
//! each workload exists is recorded in `BENCHMARK.json` and the README.

use std::time::Instant;

use crate::layers::{self, Csr, Dense, Record, ServeCase, ServeContext, SimCounts};
use crate::trace::{SpanId, Tracer, ROOT};
use crate::util::{derive_seed, fnv1a};

pub const WORKLOADS: [&str; 4] = ["chip-banded", "chip-skewed", "serve-fleet", "model-tier"];

/// Banded, high-bloat analogs: cores stall on HBM, NoC and HashPad events.
const BANDED: [&str; 5] = ["poisson3Da", "filter3D", "2cubes_sphere", "cage12", "offshore"];
/// Scale-free and community analogs: a few hub rows serialise the run.
const SKEWED: [&str; 5] = ["web-Google", "amazon0312", "wiki-Vote", "email-Enron", "ca-CondMat"];
const GCN: [&str; 2] = ["cora", "citeseer"];
const GCN_FEATURES: (usize, usize) = (32, 16);

/// Input sizes. `full` is frozen: `BENCHMARK.json` and `BASELINE.md` were
/// measured at it. It keeps every sweep point under 0.2 s, short enough to
/// meet this container's floor speed within a run (see "Noise" in the
/// README). `tiny` is the self-tests' setting.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub banded_nodes: usize,
    pub skewed_nodes: usize,
    pub gcn_nodes: usize,
    /// Requests offered by each serving replay.
    pub serve_requests: usize,
    /// Nodes of every catalog dataset in the cheap tier (a smaller dataset
    /// keeps its published size).
    pub model_nodes: usize,
    /// Frequencies per (tile, HBM preset) cell of the analytic grid.
    pub grid_per_cell: usize,
    /// Nodes of the isolated drives' scale-free matrix (8 edges per node).
    pub drive_nodes: usize,
}

impl Scale {
    pub fn full() -> Self {
        Scale {
            banded_nodes: 160,
            skewed_nodes: 160,
            gcn_nodes: 128,
            serve_requests: 20_000,
            model_nodes: 500,
            grid_per_cell: 111,
            drive_nodes: 1_000,
        }
    }

    pub fn tiny() -> Self {
        Scale {
            banded_nodes: 96,
            skewed_nodes: 96,
            gcn_nodes: 64,
            serve_requests: 1_500,
            model_nodes: 96,
            grid_per_cell: 5,
            drive_nodes: 200,
        }
    }
}

/// A fault the self-tests inject to prove the correctness checks bite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sabotage {
    None,
    /// Perturb one value of the first point's product before the check.
    Product,
    /// Miscount the first serving replay's offered requests.
    Conservation,
}

#[derive(Debug)]
struct ChipPoint {
    id: String,
    tile: &'static str,
    /// Index into `spgemm` inputs, or into `gcn` inputs when `gcn` is set.
    input: usize,
    gcn: bool,
}

#[derive(Debug)]
struct GcnInput {
    dataset: &'static str,
    adjacency: Csr,
    features: Dense,
    weights: Dense,
    /// `ReLU(A · X · W)` computed on the host at set-up.
    oracle: Dense,
}

/// One SpGEMM input: the matrix and its reference product `A × A`.
#[derive(Debug)]
struct SpgemmInput {
    dataset: &'static str,
    a: Csr,
    oracle: Csr,
}

/// A workload's generated inputs and sweep points: what set-up builds.
#[derive(Debug)]
pub struct Prepared {
    inputs: Inputs,
    /// Seconds of each piece of the set-up, in order: one per dataset or
    /// serving case, then whatever follows them. They add up to the set-up.
    pub setup_unit_s: Vec<f64>,
}

#[derive(Debug)]
enum Inputs {
    Chip {
        name: &'static str,
        spgemm: Vec<SpgemmInput>,
        gcn: Vec<GcnInput>,
        points: Vec<ChipPoint>,
    },
    Serve {
        ctx: ServeContext,
        cases: Vec<ServeCase>,
    },
    Model {
        grid: layers::ConfigGrid,
        inputs: Vec<(&'static str, Csr)>,
    },
}

/// Set-up: generated inputs and the oracles the points are checked against
/// (reference products, expected request counts). Every dataset and stream
/// seed derives from `seed`; the workspace crates only ever see the
/// generated inputs.
///
/// # Panics
///
/// Panics on an unknown workload name.
pub fn prepare(workload: &str, seed: u64, scale: &Scale) -> Prepared {
    let matrix = |dataset: &'static str, nodes: usize| {
        (dataset, layers::to_csr(&layers::generate(dataset, nodes, derive_seed(seed, dataset))))
    };
    let mut last = Instant::now();
    let mut setup_unit_s = Vec::new();
    let mut lap = || {
        let now = Instant::now();
        setup_unit_s.push((now - last).as_secs_f64());
        last = now;
    };
    let inputs = match workload {
        "chip-banded" | "chip-skewed" => {
            let banded = workload == "chip-banded";
            let (names, nodes) =
                if banded { (BANDED, scale.banded_nodes) } else { (SKEWED, scale.skewed_nodes) };
            let spgemm: Vec<_> = names
                .iter()
                .map(|&d| {
                    let (dataset, a) = matrix(d, nodes);
                    let oracle = layers::multiply(&a, "rowwise");
                    lap();
                    SpgemmInput { dataset, a, oracle }
                })
                .collect();
            let gcn: Vec<GcnInput> = if banded {
                Vec::new()
            } else {
                GCN.iter()
                    .map(|&dataset| {
                        let (_, adjacency) = matrix(dataset, scale.gcn_nodes);
                        let (features, weights) = layers::gcn_inputs(
                            layers::rows(&adjacency),
                            GCN_FEATURES.0,
                            GCN_FEATURES.1,
                            derive_seed(seed, "gcn"),
                        );
                        let oracle = layers::gcn_reference(&adjacency, &features, &weights);
                        lap();
                        GcnInput { dataset, adjacency, features, weights, oracle }
                    })
                    .collect()
            };
            let mut points = Vec::new();
            for (input, m) in spgemm.iter().enumerate() {
                for tile in layers::TILES {
                    points.push(ChipPoint {
                        id: format!("{workload}/{}/{tile}", m.dataset),
                        tile,
                        input,
                        gcn: false,
                    });
                }
            }
            for (input, g) in gcn.iter().enumerate() {
                let id = format!("{workload}/gcn-{}/t16", g.dataset);
                points.push(ChipPoint { id, tile: "t16", input, gcn: true });
            }
            Inputs::Chip {
                name: if banded { "chip-banded" } else { "chip-skewed" },
                spgemm,
                gcn,
                points,
            }
        }
        "serve-fleet" => {
            let ctx = layers::serve_context();
            let cases = layers::serve_cases(&ctx, scale.serve_requests, seed, &mut lap);
            Inputs::Serve { ctx, cases }
        }
        "model-tier" => {
            let inputs = layers::catalog_names()
                .into_iter()
                .map(|dataset| {
                    let coo =
                        layers::generate(dataset, scale.model_nodes, derive_seed(seed, dataset));
                    let csr = layers::to_csr(&coo);
                    lap();
                    (dataset, csr)
                })
                .collect();
            Inputs::Model { grid: layers::ConfigGrid::new(scale.grid_per_cell), inputs }
        }
        other => panic!("unknown workload {other:?}; expected one of {WORKLOADS:?}"),
    };
    lap();
    Prepared { inputs, setup_unit_s }
}

impl Prepared {
    /// A hash of the generated inputs (different seeds must differ here).
    pub fn input_digest(&self) -> u64 {
        let matrices: Vec<&Csr> = match &self.inputs {
            Inputs::Chip { spgemm, gcn, .. } => {
                spgemm.iter().map(|m| &m.a).chain(gcn.iter().map(|g| &g.adjacency)).collect()
            }
            Inputs::Model { inputs, .. } => inputs.iter().map(|(_, m)| m).collect(),
            // The cases' debug form holds every stream seed and expected count.
            Inputs::Serve { cases, .. } => return fnv1a(format!("{cases:?}").as_bytes()),
        };
        let prints: Vec<u8> =
            matrices.into_iter().flat_map(|m| layers::fingerprint(m).to_le_bytes()).collect();
        fnv1a(&prints)
    }

    /// |analytic − simulated| ÷ simulated cycles of every SpGEMM point of
    /// `pass` (empty for the workloads that simulate no chip).
    pub fn analytic_errors(&self, pass: &PassOut) -> Vec<f64> {
        let Inputs::Chip { spgemm, points, .. } = &self.inputs else { return Vec::new() };
        let features: Vec<_> = spgemm.iter().map(|m| layers::features(&m.a)).collect();
        points
            .iter()
            .zip(&pass.points)
            .filter(|(p, _)| !p.gcn)
            .filter_map(|(p, out)| {
                let simulated = out.chip?.2.total_cycles as f64;
                Some(
                    (layers::analytic_cycles(p.tile, &features[p.input]) - simulated).abs()
                        / simulated,
                )
            })
            .collect()
    }
}

/// What one sweep point of one pass produced.
#[derive(Debug)]
pub struct PointOut {
    pub id: String,
    pub seconds: f64,
    /// No typed error, product equal to the reference, conservation held.
    pub ok: bool,
    /// Work units: simulated cycles, requests offered or partial products.
    pub work: u64,
    pub records: Vec<Record>,
    /// `(tile, is_spgemm, counts)` of a cycle-level point.
    pub chip: Option<(&'static str, bool, SimCounts)>,
    /// The simulated counts of a serving replay.
    pub serve: Option<ServeCounts>,
}

#[derive(Debug, Clone, Copy)]
pub struct ServeCounts {
    pub scenario: &'static str,
    pub offered: u64,
    pub served: u64,
    pub shed: u64,
    pub redispatched: u64,
}

#[derive(Debug)]
pub struct PassOut {
    pub wall_s: f64,
    pub points: Vec<PointOut>,
    /// Seconds of each artifact's round trip (emit, parse, self-diff) after the points.
    pub artifact_s: Vec<f64>,
    /// Hash of the emitted artifacts' bytes.
    pub sim_digest: u64,
    /// Every artifact parsed back and diffed identical against itself.
    pub round_trip_ok: bool,
}

impl PassOut {
    pub fn work(&self) -> u64 {
        self.points.iter().map(|p| p.work).sum()
    }

    /// The pass's timed units: every point, then every artifact round trip.
    pub fn unit_s(&self) -> impl Iterator<Item = f64> + '_ {
        self.points.iter().map(|p| p.seconds).chain(self.artifact_s.iter().copied())
    }

    /// Seconds the pass would take on one thread.
    pub fn serial_s(&self) -> f64 {
        self.unit_s().sum()
    }

    /// Failed operations of the pass: bad points plus a bad round trip.
    pub fn failed(&self) -> u64 {
        self.points.iter().filter(|p| !p.ok).count() as u64 + u64::from(!self.round_trip_ok)
    }

    /// Operations attempted: one per point plus the artifact round trip.
    pub fn attempted(&self) -> u64 {
        self.points.len() as u64 + 1
    }
}

/// One pass of the whole sweep on the runner's two workers. With the
/// tracer on this is the traced pass; the code path is the same.
pub fn run_pass(prepared: &Prepared, tracer: &Tracer, sabotage: Sabotage) -> PassOut {
    run_pass_on(layers::THREADS, prepared, tracer, sabotage)
}

/// The same pass with its points on `workers` runner threads.
pub fn run_pass_on(
    workers: usize,
    prepared: &Prepared,
    tracer: &Tracer,
    sabotage: Sabotage,
) -> PassOut {
    let started = Instant::now();
    let (points, artifact_s, bytes, round_trip_ok) = tracer.span("pass", ROOT, -1, |pass| {
        let point = |index: usize, body: &dyn Fn(SpanId, i32) -> PointOut| {
            let index = index as i32;
            tracer.span("point", pass, index, |span| {
                let started = Instant::now();
                let mut out = body(span, index);
                out.seconds = started.elapsed().as_secs_f64();
                out
            })
        };
        let (name, points): (&str, Vec<PointOut>) = match &prepared.inputs {
            Inputs::Chip { name, spgemm, gcn, points } => {
                let outs = layers::run_parallel(workers, points, |i, p| {
                    let corrupt = sabotage == Sabotage::Product && i == 0;
                    point(i, &|span, index| {
                        if p.gcn {
                            gcn_point(tracer, span, index, p, &gcn[p.input])
                        } else {
                            spgemm_point(tracer, span, index, p, &spgemm[p.input], corrupt)
                        }
                    })
                });
                (*name, outs)
            }
            Inputs::Serve { ctx, cases } => {
                let run = |i: usize, case: &ServeCase| {
                    let miscount = sabotage == Sabotage::Conservation && i == 0;
                    point(i, &|span, index| serve_point(tracer, span, index, ctx, case, miscount))
                };
                // Serial replays share the runner's two workers; replays whose
                // engine plan fans out on its own threads then run one at a time.
                let serial: Vec<(usize, &ServeCase)> =
                    cases.iter().enumerate().filter(|(_, c)| !c.is_parallel()).collect();
                let mut outs = layers::run_parallel(workers, &serial, |_, &(i, case)| run(i, case));
                outs.extend(
                    cases
                        .iter()
                        .enumerate()
                        .filter(|(_, c)| c.is_parallel())
                        .map(|(i, c)| run(i, c)),
                );
                ("serve-fleet", outs)
            }
            Inputs::Model { grid, inputs } => {
                let outs = layers::run_parallel(workers, inputs, |i, (dataset, a)| {
                    point(i, &|span, index| model_point(tracer, span, index, grid, dataset, a))
                });
                ("model-tier", outs)
            }
        };
        // One artifact per serving scenario, one for a whole chip or model
        // sweep: `parse_json` is quadratic in document size, and a round trip
        // has to be short enough to meet the machine's floor speed.
        let mut points = points;
        let mut artifacts: Vec<(&str, Vec<Record>)> = Vec::new();
        for p in &mut points {
            let key = p.serve.map_or(name, |s| s.scenario);
            let records = std::mem::take(&mut p.records);
            match artifacts.iter_mut().find(|(k, _)| *k == key) {
                Some((_, all)) => all.extend(records),
                None => artifacts.push((key, records)),
            }
        }
        let mut bytes = String::new();
        let mut round_trip_ok = true;
        let mut artifact_s = Vec::new();
        for (key, records) in artifacts {
            let started = Instant::now();
            let emitted = tracer.span("lab.emit", pass, -1, |_| layers::emit(key, records));
            round_trip_ok &= match tracer.span("lab.parse", pass, -1, |_| layers::parse(&emitted)) {
                Ok(parsed) => {
                    tracer.span("lab.trend", pass, -1, |_| layers::trend_self_diff(&parsed).1)
                }
                Err(_) => false,
            };
            artifact_s.push(started.elapsed().as_secs_f64());
            bytes.push_str(&emitted);
        }
        (points, artifact_s, bytes, round_trip_ok)
    });
    PassOut {
        wall_s: started.elapsed().as_secs_f64(),
        points,
        artifact_s,
        sim_digest: fnv1a(bytes.as_bytes()),
        round_trip_ok,
    }
}

fn failed_point(id: &str) -> PointOut {
    PointOut {
        id: id.to_string(),
        seconds: 0.0,
        ok: false,
        work: 0,
        records: Vec::new(),
        chip: None,
        serve: None,
    }
}

fn spgemm_point(
    tracer: &Tracer,
    span: SpanId,
    index: i32,
    p: &ChipPoint,
    input: &SpgemmInput,
    corrupt: bool,
) -> PointOut {
    let run = tracer.span("chip.run_spgemm", span, index, |_| layers::run_spgemm(p.tile, &input.a));
    let Ok((product, report)) = run else { return failed_point(&p.id) };
    let ok = tracer.span("bench.check", span, index, |_| {
        let product = if corrupt { layers::corrupted(&product) } else { product };
        layers::products_agree(&product, &input.oracle)
    });
    let record = tracer.span("lab.record", span, index, |_| {
        layers::chip_record(&p.id, input.dataset, p.tile, &report)
    });
    let counts = report.counts();
    PointOut {
        ok,
        work: counts.total_cycles,
        records: vec![record],
        chip: Some((p.tile, true, counts)),
        ..failed_point(&p.id)
    }
}

fn gcn_point(tracer: &Tracer, span: SpanId, index: i32, p: &ChipPoint, g: &GcnInput) -> PointOut {
    let run = tracer.span("chip.run_gcn_layer", span, index, |_| {
        layers::run_gcn_layer(p.tile, &g.adjacency, &g.features, &g.weights)
    });
    let Ok((output, report)) = run else { return failed_point(&p.id) };
    let ok = tracer.span("bench.check", span, index, |_| layers::dense_agree(&output, &g.oracle));
    let record = tracer.span("lab.record", span, index, |_| {
        layers::chip_record(&p.id, g.dataset, p.tile, &report)
    });
    let counts = report.counts();
    PointOut {
        ok,
        work: counts.total_cycles,
        records: vec![record],
        chip: Some((p.tile, false, counts)),
        ..failed_point(&p.id)
    }
}

/// Requests served or shed exactly once.
pub fn conserved(offered: u64, served: u64, shed: u64) -> bool {
    offered == served + shed
}

fn serve_point(
    tracer: &Tracer,
    span: SpanId,
    index: i32,
    ctx: &ServeContext,
    case: &ServeCase,
    miscount: bool,
) -> PointOut {
    // The timeline fold happens inside the traced replay's call, so its
    // span nests under the simulate span.
    let name =
        if case.id.ends_with("/traced") { "serve.simulate_traced" } else { "serve.simulate" };
    let run = tracer.span(name, span, index, |sim| {
        layers::simulate(ctx, case, |fold| tracer.span("serve.timeline", sim, index, |_| fold()))
    });
    let records = tracer.span("serve.records", span, index, |_| layers::serve_records(case, &run));
    let offered = run.offered + u64::from(miscount);
    PointOut {
        // Every generated request is offered, and served or shed exactly once.
        ok: conserved(offered, run.served, run.shed)
            && case.expected_offered.is_none_or(|n| n == run.offered),
        work: run.offered,
        records,
        serve: Some(ServeCounts {
            scenario: case.scenario,
            offered: run.offered,
            served: run.served,
            shed: run.shed,
            redispatched: run.redispatched,
        }),
        ..failed_point(&case.id)
    }
}

fn model_point(
    tracer: &Tracer,
    span: SpanId,
    index: i32,
    grid: &layers::ConfigGrid,
    dataset: &str,
    a: &Csr,
) -> PointOut {
    let id = format!("model-tier/{dataset}");
    let (product, partial_products) =
        tracer.span("sparse.multiply_counting", span, index, |_| layers::multiply_counting(a));
    let outer = tracer.span("sparse.spgemm_outer", span, index, |_| layers::multiply(a, "outer"));
    let tiled = tracer.span("sparse.spgemm_tiled4", span, index, |_| layers::multiply(a, "tiled4"));
    let ok = tracer.span("bench.check", span, index, |_| {
        layers::products_agree(&outer, &product) && layers::products_agree(&tiled, &product)
    });
    let features = tracer.span("chip.features", span, index, |_| layers::features(a));
    let (best, best_s) =
        tracer.span("chip.analytic", span, index, |_| layers::analytic_sweep(grid, &features));
    let estimates =
        tracer.span("baselines.estimate", span, index, |_| layers::baseline_estimates(dataset, a));
    let record = tracer.span("lab.record", span, index, |_| {
        let mut metrics = vec![
            ("nodes", layers::rows(a) as f64, None),
            ("nnz", layers::nnz(a) as f64, None),
            ("partial_products", partial_products as f64, None),
            ("output_nnz", layers::nnz(&product) as f64, None),
            ("best_config", best as f64, None),
            ("best_seconds", best_s, Some("s")),
        ];
        metrics.extend(estimates.iter().map(|&(platform, seconds)| (platform, seconds, Some("s"))));
        layers::dataset_record(&id, dataset, &metrics)
    });
    PointOut { ok, work: partial_products, records: vec![record], ..failed_point(&id) }
}
