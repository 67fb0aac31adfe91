//! Self-tests of the benchmark at `--scale tiny` (a few seconds in total):
//! the printed names equal `BENCHMARK.json`, digests follow the seed, span
//! self times account for the pass, and the correctness checks bite.

use std::process::Command;

use neura_perf::layers::{parse_json, JsonValue};
use neura_perf::metrics::{END_TO_END, PER_LAYER};
use neura_perf::trace::{analyse, Tracer};
use neura_perf::workloads::{prepare, run_pass, Sabotage, Scale, WORKLOADS};

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json is at the repo root"))
        .expect("BENCHMARK.json parses")
}

fn field<'a>(doc: &'a JsonValue, list: &str, key: &str) -> Vec<&'a str> {
    doc.get(list)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {list} list"))
        .iter()
        .map(|item| item.get(key).and_then(JsonValue::as_str).expect("a string field"))
        .collect()
}

/// Runs the binary at tiny scale; returns (exit ok, result line).
fn run_binary(workload: &str, extra: &[&str]) -> (bool, JsonValue) {
    let out =
        std::env::temp_dir().join(format!("neura_perf_selftest_{}_{workload}", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_neura_perf"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0.2",
            "--scale",
            "tiny",
            "--out",
        ])
        .arg(&out)
        .args(extra)
        .output()
        .expect("the benchmark binary runs");
    std::fs::remove_dir_all(&out).ok();
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    (output.status.success(), parse_json(last).expect("the last line is JSON"))
}

fn metric_names(result: &JsonValue) -> Vec<String> {
    match result.get("metrics").expect("a metrics object") {
        JsonValue::Object(fields) => fields.iter().map(|(name, _)| name.clone()).collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

#[test]
fn printed_names_equal_benchmark_json() {
    let doc = benchmark_json();
    assert_eq!(field(&doc, "workloads", "name"), WORKLOADS);
    let valid = |name: &str| {
        !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    for list in ["workloads", "end_to_end", "per_layer"] {
        assert!(
            field(&doc, list, "name").into_iter().all(valid),
            "{list} names match [A-Za-z0-9_.-]+"
        );
    }
    // The tables in metrics.rs and BENCHMARK.json agree on name, unit, direction and bound.
    for key in ["name", "unit", "better"] {
        let pick = |d: &neura_perf::metrics::MetricDef| match key {
            "name" => d.name,
            "unit" => d.unit,
            _ => d.better,
        };
        assert_eq!(
            field(&doc, "end_to_end", key),
            END_TO_END.iter().map(|(d, _)| pick(d)).collect::<Vec<_>>()
        );
        assert_eq!(field(&doc, "per_layer", key), PER_LAYER.iter().map(pick).collect::<Vec<_>>());
    }
    let bounds: Vec<f64> = doc
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|m| m.get("bound").and_then(JsonValue::as_f64).expect("a bound"))
        .collect();
    assert_eq!(bounds, END_TO_END.iter().map(|&(_, b)| b).collect::<Vec<_>>());

    // And the binary prints exactly those names, in both modes.
    let (ok, timed) = run_binary("model-tier", &["--trace", "0"]);
    assert!(ok);
    assert_eq!(metric_names(&timed), field(&doc, "end_to_end", "name"));
    assert_eq!(timed.get("failed").and_then(JsonValue::as_f64), Some(0.0));
    let (ok, traced) = run_binary("chip-skewed", &["--trace", "1"]);
    assert!(ok);
    assert_eq!(metric_names(&traced), field(&doc, "per_layer", "name"));
}

#[test]
fn digests_follow_the_seed() {
    let scale = Scale::tiny();
    let off = Tracer::new(false);
    for workload in WORKLOADS {
        let a = prepare(workload, 11, &scale);
        let b = prepare(workload, 11, &scale);
        let c = prepare(workload, 12, &scale);
        assert_eq!(a.input_digest(), b.input_digest(), "{workload}: same seed, same inputs");
        assert_ne!(a.input_digest(), c.input_digest(), "{workload}: another seed, other inputs");
        let (pa, pb) = (run_pass(&a, &off, Sabotage::None), run_pass(&b, &off, Sabotage::None));
        assert_eq!(pa.failed(), 0, "{workload}: no operation fails");
        assert_eq!(pa.sim_digest, pb.sim_digest, "{workload}: same seed, same sim_digest");
        assert_eq!(pa.work(), pb.work());
    }
}

#[test]
fn span_self_times_account_for_the_pass() {
    let scale = Scale::tiny();
    for workload in WORKLOADS {
        let prepared = prepare(workload, 5, &scale);
        let tracer = Tracer::new(true);
        let pass = run_pass(&prepared, &tracer, Sabotage::None);
        let spans = tracer.into_spans();
        let analysis = analyse(&spans);
        // Every second of every span is somebody's self time: the pass's own
        // uncovered part plus the top-level spans under it (points run on two
        // threads, so this is busy time, which the pass wall bounds from below).
        let top_level: f64 =
            spans.iter().filter(|s| s.parent == spans[0].id).map(|s| s.seconds()).sum();
        let expected = analysis.self_by_name["pass"] + top_level;
        assert!(
            (analysis.total_self_s - expected).abs() <= 0.02 * expected,
            "{workload}: self times sum to {} but spans cover {expected}",
            analysis.total_self_s
        );
        assert!(analysis.pass_wall_s <= pass.wall_s && analysis.pass_wall_s >= 0.98 * pass.wall_s);
        let shares: f64 =
            ["sparse.", "chip.", "serve.", "baselines.", "lab.", "bench.", "pass", "point"]
                .iter()
                .map(|prefix| analysis.share(prefix))
                .sum();
        assert!((shares - 1.0).abs() < 1e-9, "{workload}: layer shares sum to {shares}");
        let chip = analysis.share("chip.run_");
        match workload {
            "serve-fleet" | "model-tier" => assert_eq!(chip, 0.0, "{workload} simulates no chip"),
            _ => assert!(chip > 0.5, "{workload} spends its time in the chip loop, not {chip}"),
        }
    }
}

#[test]
fn a_corrupted_product_and_a_broken_count_fail() {
    let scale = Scale::tiny();
    let off = Tracer::new(false);
    let chip = prepare("chip-banded", 7, &scale);
    assert_eq!(run_pass(&chip, &off, Sabotage::None).failed(), 0);
    assert_eq!(run_pass(&chip, &off, Sabotage::Product).failed(), 1);
    let serve = prepare("serve-fleet", 7, &scale);
    assert_eq!(run_pass(&serve, &off, Sabotage::None).failed(), 0);
    assert_eq!(run_pass(&serve, &off, Sabotage::Conservation).failed(), 1);

    // End to end: the binary reports the failure and exits non-zero.
    let (ok, result) = run_binary("chip-banded", &["--trace", "0", "--sabotage", "product"]);
    assert!(!ok);
    assert_eq!(result.get("correct"), Some(&JsonValue::Bool(false)));
    let failed = result.get("failed").and_then(JsonValue::as_f64).expect("a failed count");
    let attempted =
        result.get("attempted").and_then(JsonValue::as_f64).expect("an attempted count");
    assert!(failed >= 1.0 && failed / attempted > 0.0);
}
