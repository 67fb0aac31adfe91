//! Isolated layer drives: each layer's public entry points on small fixed
//! inputs, outside any sweep. They measure the sub-layers a `run_spgemm`
//! call hides (`mem`, `noc`, `neuramem`, `mapping`, `compile`) and fold in
//! the bodies of the six criterion benches under `crates/bench/benches`.

use std::time::Instant;

use crate::layers;
use crate::metrics::Values;
use crate::util::{cpu_seconds, derive_seed};
use crate::workloads::Scale;

/// Units per second of `body` (which returns the units one call did),
/// after one warm-up call, over at least `budget_s` seconds.
fn rate(budget_s: f64, mut body: impl FnMut() -> u64) -> f64 {
    body();
    let started = Instant::now();
    let mut units = 0u64;
    loop {
        units += body();
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed >= budget_s {
            return units as f64 / elapsed;
        }
    }
}

/// Seconds per call of `body`, the same way.
fn seconds_per_call(budget_s: f64, mut body: impl FnMut()) -> f64 {
    1.0 / rate(budget_s, || {
        body();
        1
    })
}

/// How many bodies [`run_all`] times, each for its own `budget_s`: what a
/// caller divides its time by.
pub const TIMED_BODIES: usize = 38;

/// Runs every drive, each timed body for about `budget_s` seconds.
pub fn run_all(seed: u64, scale: &Scale, budget_s: f64) -> Values {
    let mut v = Values::default();
    let (nodes, edges) = (scale.drive_nodes, 8 * scale.drive_nodes);

    // sparse: the `spgemm_kernels` bench matrix.
    let graph_seed = derive_seed(seed, "drive-graph");
    v.set(
        "sparse.gen.edges_per_s",
        rate(budget_s, || layers::coo_nnz(&layers::power_law(nodes, edges, graph_seed)) as u64),
    );
    let coo = layers::power_law(nodes, edges, graph_seed);
    let a = layers::to_csr(&coo);
    v.set("sparse.to_csr.nnz_per_s", rate(budget_s, || layers::nnz(&layers::to_csr(&coo)) as u64));
    let (product, multiplications) = layers::multiply_counting(&a);
    let flops = 2 * multiplications - layers::nnz(&product) as u64;
    // The inner product is quadratic in nodes: it gets a quarter-size matrix.
    let small = layers::to_csr(&layers::power_law(nodes / 4, edges / 4, graph_seed));
    let (small_product, small_mults) = layers::multiply_counting(&small);
    let small_flops = 2 * small_mults - layers::nnz(&small_product) as u64;
    for dataflow in layers::DATAFLOWS {
        let (m, flops) = if dataflow == "inner" { (&small, small_flops) } else { (&a, flops) };
        v.set(
            format!("sparse.spgemm.{dataflow}.flops_per_s"),
            rate(budget_s, || {
                std::hint::black_box(layers::multiply(m, dataflow));
                flops
            }),
        );
    }
    v.set(
        "sparse.multiply_counting.flops_per_s",
        rate(budget_s, || {
            std::hint::black_box(layers::multiply_counting(&a));
            flops
        }),
    );

    // sim, mem, noc.
    v.set(
        "sim.latency_histogram.record_per_s",
        rate(budget_s, || layers::histogram_record_drive(100_000)),
    );
    v.set(
        "sim.latency_histogram.merge_per_s",
        rate(budget_s, || layers::histogram_merge_drive(200)),
    );
    v.set("mem.controller.streaming.req_per_s", rate(budget_s, || layers::hbm_drive(64)));
    v.set("mem.controller.random.req_per_s", rate(budget_s, || layers::hbm_drive(8_192)));
    v.set("noc.torus.uniform.packets_per_s", rate(budget_s, || layers::torus_drive(false)));
    v.set("noc.torus.hotspot.packets_per_s", rate(budget_s, || layers::torus_drive(true)));

    // chip: the `hash_engine`, `mapping` and `accelerator_e2e` bench bodies.
    v.set("chip.compile.instr_per_s", rate(budget_s, || layers::compile_spgemm(&a)));
    v.set("chip.neuramem.rolling.hacc_per_s", rate(budget_s, || layers::neuramem_drive(false)));
    v.set("chip.neuramem.barrier.hacc_per_s", rate(budget_s, || layers::neuramem_drive(true)));
    for kind in layers::mapping_kinds() {
        v.set(
            format!("chip.mapping.{kind}.lookups_per_s"),
            rate(budget_s, || layers::mapping_drive(kind)),
        );
    }
    let e2e = layers::to_csr(&layers::power_law(128, 900, derive_seed(seed, "drive-e2e")));
    let plain = seconds_per_call(budget_s, || {
        std::hint::black_box(layers::run_spgemm("t16", &e2e).expect("the drive matrix simulates"));
    });
    let profiled = seconds_per_call(budget_s, || {
        std::hint::black_box(layers::run_spgemm_profiled("t16", &e2e));
    });
    v.set("chip.profiled.overhead", profiled / plain);
    let features = layers::features(&a);
    let grid = layers::ConfigGrid::new(scale.grid_per_cell);
    v.set(
        "chip.analytic.evals_per_s",
        rate(budget_s, || {
            std::hint::black_box(layers::analytic_sweep(&grid, &features));
            grid.evals()
        }),
    );
    v.set(
        "chip.features.nnz_per_s",
        rate(budget_s, || {
            std::hint::black_box(layers::features(&a));
            layers::nnz(&a) as u64
        }),
    );
    let profile = layers::baseline_profile(&a);
    v.set(
        "baselines.estimate.evals_per_s",
        rate(budget_s, || layers::baseline_estimate_drive(&profile)),
    );

    // lab: runner dispatch, then emit / parse / diff of a 50-record chip artifact
    // (parse is quadratic in document size at HEAD, so its MB/s is for this size).
    let items: Vec<u64> = (0..20_000).collect();
    v.set(
        "lab.runner.dispatch_ns",
        1e9 / rate(budget_s, || {
            std::hint::black_box(layers::run_parallel(layers::THREADS, &items, |_, &x| x + 1));
            items.len() as u64
        }),
    );
    let (_, report) = layers::run_spgemm("t16", &e2e).expect("the drive matrix simulates");
    let records = || {
        (0..50)
            .map(|i| layers::chip_record(&format!("drive/{i}"), "drive", "t16", &report))
            .collect()
    };
    let bytes = layers::emit("drive", records());
    let megabytes = bytes.len() as f64 / 1e6;
    v.set(
        "lab.report.emit_mb_per_s",
        megabytes
            / seconds_per_call(budget_s, || {
                std::hint::black_box(layers::emit("drive", records()));
            }),
    );
    v.set(
        "lab.report.parse_mb_per_s",
        megabytes
            / seconds_per_call(budget_s, || {
                std::hint::black_box(layers::parse(&bytes).expect("the emitter's bytes parse"));
            }),
    );
    let parsed = layers::parse(&bytes).expect("the emitter's bytes parse");
    v.set(
        "lab.trend.diff.records_per_s",
        rate(budget_s, || layers::trend_self_diff(&parsed).0 as u64),
    );

    v.extend(serve_drives(seed, scale, budget_s));
    v
}

/// The `serve_engine` bench, on the serve workload's own cases: one open
/// scenario serial and as epochs, the closed loop serial and as lanes, one
/// traced replay against its untraced twin.
fn serve_drives(seed: u64, scale: &Scale, budget_s: f64) -> Values {
    let mut v = Values::default();
    let requests = scale.serve_requests / 2;
    v.set(
        "serve.arrivals.gen.req_per_s",
        rate(budget_s, || layers::arrivals_drive(requests, seed)),
    );
    let ctx = layers::serve_context();
    let cases = layers::serve_cases(&ctx, requests, seed, &mut || ());
    let case = |id: &str| {
        cases.iter().find(|c| c.id == id).unwrap_or_else(|| panic!("no serve case {id}"))
    };
    let replay = |id: &str| layers::simulate(&ctx, case(id), |fold| fold());
    // (requests per second, CPU seconds per wall second) of one case.
    let engine = |id: &str| {
        let cpu_before = cpu_seconds();
        let started = Instant::now();
        let per_s = rate(budget_s, || replay(id).offered);
        (per_s, (cpu_seconds() - cpu_before) / started.elapsed().as_secs_f64())
    };
    let (open_serial, serial_cpu) = engine("serve/diurnal/fifo/least");
    let (open_epochs, epochs_cpu) = engine("serve/diurnal/fifo/least/epochs4");
    v.set("serve.engine.open_serial.req_per_s", open_serial);
    v.set("serve.engine.open_epochs.req_per_s", open_epochs);
    // CPU seconds per request, epochs over serial: what the wall gain costs.
    v.set("serve.engine.epochs.cpu_ratio", (epochs_cpu / open_epochs) / (serial_cpu / open_serial));
    v.set("serve.engine.closed_serial.req_per_s", engine("serve/closed/serial").0);
    v.set("serve.engine.closed_lanes.req_per_s", engine("serve/closed/lanes2").0);

    let untraced = seconds_per_call(budget_s, || {
        std::hint::black_box(replay("serve/flash/fifo/least"));
    });
    let traced_case = case("serve/flash/fifo/least/traced");
    let (mut fold_s, mut events, mut calls) = (0.0, 0u64, 0u64);
    let traced = seconds_per_call(budget_s, || {
        let run = layers::simulate(&ctx, traced_case, |fold| {
            let started = Instant::now();
            fold();
            fold_s += started.elapsed().as_secs_f64();
        });
        events += run.trace_events;
        calls += 1;
    });
    // The traced replay without its timeline fold, over the untraced replay.
    v.set("serve.engine.traced.overhead", (traced - fold_s / calls as f64) / untraced);
    v.set("serve.telemetry.timeline.events_per_s", events as f64 / fold_s);
    let run = replay("serve/flash/fifo/least");
    v.set(
        "serve.outcome.records_s",
        seconds_per_call(budget_s, || {
            std::hint::black_box(layers::serve_records(case("serve/flash/fifo/least"), &run));
        }),
    );
    v.set("serve.outcome.bytes_per_req", run.bytes_per_request());
    v
}
