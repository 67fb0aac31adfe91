//! The artifact parser is linear in document size.
//!
//! A ~4 MiB artifact of string-heavy records must go bytes → document →
//! typed artifact within a generous absolute bound. A linear parser needs
//! tens of milliseconds for this; one that re-validates the remaining
//! input per string character (what `parse_json` did before it kept its
//! `&str`) needs minutes, so the margin is more than 100× on either side
//! and the bound is not timing-sensitive.

use std::time::{Duration, Instant};

use neura_lab::{parse_json, Artifact, RunRecord};

const BOUND: Duration = Duration::from_secs(10);

#[test]
fn a_four_mebibyte_artifact_round_trips_in_linear_time() {
    let mut artifact = Artifact::new("parser_scaling", 1);
    let mut bytes = 0usize;
    for i in 0.. {
        if bytes >= 4 << 20 {
            break;
        }
        // Strings dominate: long ids and params, multi-byte scalars and
        // escapes included, against three short numbers.
        let id = format!("serve/scenario-{i:06}/policy=batch8/dispatch=least-loaded/é€😀");
        let record = RunRecord::new(id.clone())
            .param("scenario", format!("flash \"crowd\" {i} \\ überlast"))
            .param("note", "x".repeat(120))
            .metric("requests", i as f64)
            .unit_metric("p99_latency_ms", 1.25 + i as f64 * 1e-3, "ms")
            .unit_metric("throughput_rps", 1e6 / (i + 1) as f64, "req/s");
        bytes += 2 * id.len() + 400;
        artifact.push(record);
    }
    let text = artifact.to_bytes();
    assert!(text.len() >= 4 << 20, "the artifact is only {} bytes", text.len());

    let start = Instant::now();
    let doc = parse_json(&text).expect("emitted artifacts parse");
    let parsed = Artifact::from_json(&doc).expect("emitted artifacts rebuild");
    let elapsed = start.elapsed();
    assert_eq!(parsed, artifact);
    assert!(
        elapsed < BOUND,
        "parsing {} bytes took {elapsed:?}: the parser is no longer linear",
        text.len()
    );
}
