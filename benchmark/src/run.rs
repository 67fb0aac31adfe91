//! One run of one workload: set-up, then timed passes with tracing off
//! (`--trace 0`), or the traced pass and the isolated drives (`--trace 1`).

use std::path::PathBuf;
use std::time::Instant;

use crate::metrics::{MetricDef, Values, END_TO_END, PER_LAYER, SCENARIOS};
use crate::trace::{self, Tracer};
use crate::util::{cpu_seconds, median, peak_rss_mb, quartiles, Json};
use crate::workloads::{self, PassOut, Prepared, Sabotage, Scale};
use crate::{drives, layers};

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub sabotage: Sabotage,
    /// Where `<workload>.json` and `trace-<workload>.json` go.
    pub out_dir: PathBuf,
}

#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Digest of the first pass's artifact; every pass must repeat it.
    pub sim_digest: u64,
    pub input_digest: u64,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line the driver reads.
    pub fn result_line(&self) -> String {
        let metrics = self.metrics.iter().map(|&(name, value, unit)| {
            (name, Json::obj([("value", Json::Num(value)), ("unit", Json::Str(unit.to_string()))]))
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }
}

/// Passes run so far, with the digest check folded into the failure count.
#[derive(Debug, Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    first_digest: Option<u64>,
}

impl Ledger {
    fn add(&mut self, pass: &PassOut) {
        self.attempted += pass.attempted() + 1;
        self.failed += pass.failed();
        // A pass whose artifact differs from the first pass's is a failed operation.
        if *self.first_digest.get_or_insert(pass.sim_digest) != pass.sim_digest {
            self.failed += 1;
        }
    }
}

/// The share of `--seconds` a timed run spends repeating the set-up.
const SETUP_SHARE: f64 = 0.08;

pub fn run(opts: &Options) -> std::io::Result<Outcome> {
    if opts.trace {
        run_traced(opts)
    } else {
        run_timed(opts)
    }
}

/// Set-up for the first part of `--seconds`, whole passes for the rest.
///
/// Every time reported is a best-of: this container's cores run at the
/// floor speed only in short quiet slices (a 20 ms spin loop reads 1.5x
/// its floor at the median and drifts by 20 % from one half-minute to the
/// next, while its minimum repeats within 3 %), so a median over passes
/// measures the neighbours. Each sweep point and artifact round trip keeps
/// its fastest time over all passes; their sum is one pass's serial seconds
/// on a quiet machine, and the run's own wall / serial and CPU / serial
/// ratios (numerator and denominator slowed alike) turn that into `wall_s`
/// and `cpu_s`. `setup_s` is the same sum over the pieces of a set-up.
fn run_timed(opts: &Options) -> std::io::Result<Outcome> {
    let run_started = Instant::now();
    let setup_budget_s = opts.seconds * SETUP_SHARE;
    let mut setups: Vec<Vec<f64>> = Vec::new();
    let prepared = loop {
        let prepared = workloads::prepare(&opts.workload, opts.seed, &opts.scale);
        setups.push(prepared.setup_unit_s.clone());
        let enough = run_started.elapsed().as_secs_f64() >= setup_budget_s || setups.len() >= 1_000;
        if setups.len() >= 3 && enough {
            break prepared;
        }
        // Dropped before the next set-up, so repeats do not raise the peak RSS.
        drop(prepared);
    };

    let tracer = Tracer::new(false);
    let mut ledger = Ledger::default();
    // The warm-up pass runs its points one at a time, and the peak RSS is
    // read after it: which large points overlap on two workers is
    // scheduling luck (the same seed read 51 or 64 MiB on `model-tier`).
    ledger.add(&workloads::run_pass_on(1, &prepared, &tracer, opts.sabotage));
    let peak_rss_mb = peak_rss_mb();
    let mut passes: Vec<PassOut> = Vec::new();
    let cpu_before = cpu_seconds();
    while passes.len() < 3 || run_started.elapsed().as_secs_f64() < opts.seconds {
        let pass = workloads::run_pass(&prepared, &tracer, opts.sabotage);
        ledger.add(&pass);
        passes.push(pass);
    }
    let cpu_total_s = cpu_seconds() - cpu_before;

    let units: Vec<Vec<f64>> = passes.iter().map(|p| p.unit_s().collect()).collect();
    let best_unit_s = best_of(&units);
    let best_point_s = &best_unit_s[..passes[0].points.len()];
    let quiet_serial_s: f64 = best_unit_s.iter().sum();
    let serial_total_s: f64 = passes.iter().map(PassOut::serial_s).sum();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let wall_s = quiet_serial_s * walls.iter().sum::<f64>() / serial_total_s;
    let work = passes[0].work();
    let mut values = Values::default();
    values.set("wall_s", wall_s);
    values.set("work_per_s", work as f64 / wall_s);
    values.set("slowest_point_s", best_point_s.iter().copied().fold(0.0, f64::max));
    values.set("cpu_s", quiet_serial_s * cpu_total_s / serial_total_s);
    values.set("peak_rss_mb", peak_rss_mb);
    values.set("setup_s", best_of(&setups).iter().sum());
    let rows = values.in_order(END_TO_END.iter().map(|(d, _)| d));

    let (q1, q2, q3) = quartiles(&walls);
    println!(
        "workload {} seed {} threads {}: {} passes of {} points, measured pass wall quartiles {q1:.4} / {q2:.4} / {q3:.4} s, {} set-ups (median {:.4} s)",
        opts.workload,
        opts.seed,
        layers::THREADS,
        passes.len(),
        passes[0].points.len(),
        setups.len(),
        median(&setups.iter().map(|units| units.iter().sum()).collect::<Vec<f64>>()),
    );
    println!(
        "quiet-machine serial seconds per pass {quiet_serial_s:.6} (measured median {:.6})",
        median(&passes.iter().map(PassOut::serial_s).collect::<Vec<_>>())
    );
    println!("work per pass: {work} {}", work_unit(&opts.workload));
    for (&(def, bound), &(_, value)) in END_TO_END.iter().zip(&rows) {
        println!(
            "metric {:<18} {value:>16.6} {:<5} (better: {}, bound {:.0} %)",
            def.name,
            def.unit,
            def.better,
            bound * 100.0
        );
    }
    let outcome = finish(opts, ledger, &prepared, &rows);
    let per_pass = |f: &dyn Fn(&PassOut) -> Json| Json::Arr(passes.iter().map(f).collect());
    write_json(
        opts,
        &format!("{}.json", opts.workload),
        &Json::obj([
            ("workload", Json::Str(opts.workload.clone())),
            ("seed", Json::Int(opts.seed)),
            ("threads", Json::Int(layers::THREADS as u64)),
            ("sim_digest", Json::Str(format!("{:016x}", outcome.sim_digest))),
            ("work_per_pass", Json::Int(work)),
            ("pass_wall_s", per_pass(&|p| Json::Num(p.wall_s))),
            ("pass_serial_s", per_pass(&|p| Json::Num(p.serial_s()))),
            ("cpu_total_s", Json::Num(cpu_total_s)),
            ("setup_s", Json::Arr(setups.iter().map(|u| Json::Num(u.iter().sum())).collect())),
            (
                "best_point_s",
                Json::obj(
                    passes[0]
                        .points
                        .iter()
                        .zip(best_point_s)
                        .map(|(point, &s)| (point.id.clone(), Json::Num(s))),
                ),
            ),
            ("result", Json::Str(outcome.result_line())),
        ]),
    )?;
    Ok(outcome)
}

/// Per unit, the fastest of its samples; `samples[k][i]` is unit `i` of repetition `k`.
fn best_of(samples: &[Vec<f64>]) -> Vec<f64> {
    (0..samples[0].len())
        .map(|i| samples.iter().map(|s| s[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

fn work_unit(workload: &str) -> &'static str {
    match workload {
        "serve-fleet" => "requests offered",
        "model-tier" => "reference partial products",
        _ => "simulated cycles",
    }
}

/// Untraced passes around one traced pass, the per-layer numbers its spans
/// give, then the isolated drives with what is left of `--seconds`.
fn run_traced(opts: &Options) -> std::io::Result<Outcome> {
    let started = Instant::now();
    let prepared = workloads::prepare(&opts.workload, opts.seed, &opts.scale);
    let off = Tracer::new(false);
    let mut ledger = Ledger::default();
    let mut untraced = Vec::new();
    let mut plain_pass = |ledger: &mut Ledger| {
        let pass = workloads::run_pass(&prepared, &off, opts.sabotage);
        ledger.add(&pass);
        untraced.push(pass.wall_s);
    };
    plain_pass(&mut ledger);
    plain_pass(&mut ledger);
    let tracer = Tracer::new(true);
    let traced = workloads::run_pass(&prepared, &tracer, opts.sabotage);
    ledger.add(&traced);
    plain_pass(&mut ledger);
    let spans = tracer.into_spans();
    let analysis = trace::analyse(&spans);

    let mut values = Values::default();
    values.set("trace.overhead", traced.wall_s / median(&untraced));
    values.set("trace.coverage", analysis.coverage);
    values.set("chip.run.share", analysis.share("chip.run_"));
    values
        .set("chip.model.share", analysis.share("chip.features") + analysis.share("chip.analytic"));
    values.set("sparse.share", analysis.share("sparse."));
    values.set("serve.share", analysis.share("serve."));
    values.set("baselines.share", analysis.share("baselines."));
    values.set("lab.share", analysis.share("lab."));
    values.set(
        "bench.share",
        analysis.share("pass") + analysis.share("point") + analysis.share("bench."),
    );
    let point_s: f64 = traced.points.iter().map(|p| p.seconds).sum();
    values.set("lab.runner.efficiency", point_s / (layers::THREADS as f64 * traced.wall_s));
    values.extend(chip_rows(&prepared, &traced));
    values.extend(serve_rows(&traced));

    let budget_s = ((opts.seconds - started.elapsed().as_secs_f64()) / drives::TIMED_BODIES as f64)
        .clamp(0.02, 0.5);
    values.extend(drives::run_all(opts.seed, &opts.scale, budget_s));
    let rows = values.in_order(PER_LAYER);

    println!(
        "workload {} seed {} threads {}: traced pass {:.4} s against untraced median {:.4} s, {} spans, drives {budget_s:.3} s each",
        opts.workload,
        opts.seed,
        layers::THREADS,
        traced.wall_s,
        median(&untraced),
        spans.len(),
    );
    for (name, self_s) in &analysis.self_by_name {
        println!(
            "span {name:<28} self {self_s:>10.6} s  share {:.4}",
            self_s / analysis.total_self_s
        );
    }
    for &(def, value) in &rows {
        println!("metric {:<42} {value:>18.6} {:<6} (better: {})", def.name, def.unit, def.better);
    }
    write_json(
        opts,
        &format!("trace-{}.json", opts.workload),
        &trace::to_json(&opts.workload, &spans),
    )?;
    Ok(finish(opts, ledger, &prepared, &rows))
}

/// The chip rows of the traced pass: host speed per tile, simulated counts
/// and the analytic tier's error on the same points.
fn chip_rows(prepared: &Prepared, traced: &PassOut) -> Values {
    let mut v = Values::default();
    let chip_points: Vec<_> = traced
        .points
        .iter()
        .filter_map(|p| p.chip.map(|(tile, spgemm, c)| (p, tile, spgemm, c)))
        .collect();
    let per_s =
        |cycles: u64, seconds: f64| if seconds > 0.0 { cycles as f64 / seconds } else { 0.0 };
    for tile in layers::TILES {
        let of_tile = chip_points.iter().filter(|(_, t, ..)| *t == tile);
        let (cycles, seconds) = of_tile
            .fold((0, 0.0), |(c, s), (p, .., counts)| (c + counts.total_cycles, s + p.seconds));
        v.set(format!("chip.run.{tile}.cycles_per_s"), per_s(cycles, seconds));
    }
    let slowest = chip_points.iter().max_by(|a, b| a.0.seconds.total_cmp(&b.0.seconds));
    v.set(
        "chip.run.slowest.cycles_per_s",
        slowest.map_or(0.0, |(p, .., c)| per_s(c.total_cycles, p.seconds)),
    );
    let sum =
        |f: &dyn Fn(&layers::SimCounts) -> u64| chip_points.iter().map(|(.., c)| f(c)).sum::<u64>();
    let (seconds, hacc) =
        (chip_points.iter().map(|(p, ..)| p.seconds).sum::<f64>(), sum(&|c| c.hacc));
    v.set("chip.run.ns_per_hacc", if hacc > 0 { seconds * 1e9 / hacc as f64 } else { 0.0 });

    let frac = |part: u64, whole: u64| if whole > 0 { part as f64 / whole as f64 } else { 0.0 };
    let core_cycles = sum(&|c| c.busy + c.stall + c.idle);
    v.set("chip.sim.total_cycles", sum(&|c| c.total_cycles) as f64);
    v.set("chip.sim.mmh", sum(&|c| c.mmh) as f64);
    v.set("chip.sim.hacc", hacc as f64);
    v.set("chip.sim.busy_frac", frac(sum(&|c| c.busy), core_cycles));
    v.set("chip.sim.stall_frac", frac(sum(&|c| c.stall), core_cycles));
    v.set("chip.sim.idle_frac", frac(sum(&|c| c.idle), core_cycles));
    // Mean idle share over the Tile-64 SpGEMM points: the regime split between the chip workloads.
    let t64: Vec<f64> = chip_points
        .iter()
        .filter(|(_, tile, spgemm, _)| *tile == "t64" && *spgemm)
        .map(|(.., c)| frac(c.idle, c.busy + c.stall + c.idle))
        .collect();
    v.set(
        "chip.sim.t64.idle_frac",
        if t64.is_empty() { 0.0 } else { t64.iter().sum::<f64>() / t64.len() as f64 },
    );
    v.set("chip.sim.hashpad_full_stalls", sum(&|c| c.hashpad_full_stalls) as f64);
    v.set("mem.bytes_read", sum(&|c| c.dram_bytes_read) as f64);
    let mean = |f: &dyn Fn(&layers::SimCounts) -> f64| {
        if chip_points.is_empty() {
            0.0
        } else {
            chip_points.iter().map(|(.., c)| f(c)).sum::<f64>() / chip_points.len() as f64
        }
    };
    v.set("mem.mean_latency_cycles", mean(&|c| c.mean_dram_latency));
    v.set("noc.packets", sum(&|c| c.noc_packets) as f64);
    v.set("noc.mean_hops", mean(&|c| c.noc_mean_hops));

    let errors = prepared.analytic_errors(traced);
    v.set(
        "chip.analytic.mean_abs_rel_err",
        if errors.is_empty() { 0.0 } else { errors.iter().sum::<f64>() / errors.len() as f64 },
    );
    v.set("chip.analytic.worst_abs_rel_err", errors.iter().copied().fold(0.0, f64::max));
    v
}

/// The serve rows of the traced pass: engine speed per library scenario
/// (its serial replays) and the simulated request counts.
fn serve_rows(traced: &PassOut) -> Values {
    let mut v = Values::default();
    let serve_points: Vec<_> =
        traced.points.iter().filter_map(|p| p.serve.map(|s| (p, s))).collect();
    for scenario in SCENARIOS {
        let (offered, seconds) = serve_points
            .iter()
            .filter(|(p, s)| s.scenario == scenario && p.id.matches('/').count() == 3)
            .fold((0, 0.0), |(o, t), (p, s)| (o + s.offered, t + p.seconds));
        v.set(
            format!("serve.engine.{scenario}.req_per_s"),
            if seconds > 0.0 { offered as f64 / seconds } else { 0.0 },
        );
    }
    let sum = |f: &dyn Fn(&workloads::ServeCounts) -> u64| {
        serve_points.iter().map(|(_, s)| f(s)).sum::<u64>() as f64
    };
    v.set("serve.sim.offered", sum(&|s| s.offered));
    v.set("serve.sim.served", sum(&|s| s.served));
    v.set("serve.sim.shed", sum(&|s| s.shed));
    v.set("serve.sim.redispatched", sum(&|s| s.redispatched));
    v
}

fn finish(
    opts: &Options,
    ledger: Ledger,
    prepared: &Prepared,
    rows: &[(&'static MetricDef, f64)],
) -> Outcome {
    let outcome = Outcome {
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics: rows.iter().map(|&(d, value)| (d.name, value, d.unit)).collect(),
        sim_digest: ledger.first_digest.expect("at least one pass ran"),
        input_digest: prepared.input_digest(),
    };
    println!(
        "workload {}: attempted {} failed {}",
        opts.workload, outcome.attempted, outcome.failed
    );
    println!("input_digest = {:016x}", outcome.input_digest);
    println!("sim_digest = {:016x}", outcome.sim_digest);
    outcome
}

fn write_json(opts: &Options, file: &str, doc: &Json) -> std::io::Result<()> {
    std::fs::create_dir_all(&opts.out_dir)?;
    std::fs::write(opts.out_dir.join(file), doc.render() + "\n")
}
