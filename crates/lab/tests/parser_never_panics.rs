//! Hostile-input property for the hand-rolled artifact parser: whatever
//! bytes `trend`/`timeline` are pointed at, `parse_json` and
//! `Artifact::from_json` return `Ok` or `Err` — they never panic, never
//! overflow the stack — and anything they accept re-emits to bytes that
//! parse back to the same value.
//!
//! Inputs are a valid emitted artifact (records with params, unit metrics
//! and meta) damaged by a random sequence of truncations, byte flips,
//! bracket insertions and duplicated slices.

use neura_lab::{parse_json, Artifact, RunRecord};
use proptest::prelude::*;

/// The bytes a binary would write: `records` records, each with params,
/// plain and unit-carrying metrics (escapes and non-ASCII included), plus
/// document-level meta.
fn emitted_artifact(records: usize) -> String {
    let mut artifact = Artifact::new("hostile", 4);
    artifact.set_meta("sim_wall_s", 0.125);
    artifact.set_meta("threads", 2.0);
    for i in 0..records {
        artifact.push(
            RunRecord::new(format!("hostile/point-{i}"))
                .param("dataset", "wiki-Vote")
                .param("note", "quote \" slash \\ tab \t µ")
                .metric("total_cycles", 1234.0 * (i + 1) as f64)
                .metric("tiny", 2.5e-9)
                .unit_metric("gops", -3.25, "GOP/s"),
        );
    }
    artifact.to_bytes()
}

/// One damage step: `(kind, position seed, length seed, byte)`.
type Damage = (u8, usize, usize, u8);

fn damaged(text: String, steps: &[Damage]) -> String {
    const BRACKETS: &[u8] = b"[]{}\",:";
    let mut bytes = text.into_bytes();
    for &(kind, at, len, byte) in steps {
        if bytes.is_empty() {
            break;
        }
        let at = at % bytes.len();
        match kind {
            0 => bytes.truncate(at),
            1 => bytes[at] ^= byte | 1,
            2 => bytes.insert(at, BRACKETS[byte as usize % BRACKETS.len()]),
            3 => {
                let bracket = if byte % 2 == 0 { b'[' } else { b'{' };
                bytes.splice(at..at, std::iter::repeat_n(bracket, 1 + len % 300));
            }
            _ => {
                let end = (at + 1 + len % 64).min(bytes.len());
                let slice = bytes[at..end].to_vec();
                bytes.splice(at..at, slice);
            }
        }
    }
    // The parser takes `&str`; a flipped byte that breaks UTF-8 reaches it
    // as U+FFFD, the way a lossy file read would hand it over.
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn damaged_artifacts_parse_or_fail_but_never_panic(
        records in 0usize..4,
        steps in proptest::collection::vec((0u8..5, 0usize..1 << 20, 0usize..1 << 20, 0u8..=255), 0..6),
    ) {
        let text = damaged(emitted_artifact(records), &steps);
        let Ok(doc) = parse_json(&text) else { return Ok(()) };

        // An accepted document re-emits unchanged ...
        prop_assert_eq!(parse_json(&doc.to_pretty()), Ok(doc.clone()));

        if let Ok(artifact) = Artifact::from_json(&doc) {
            let again = parse_json(&artifact.to_bytes())
                .map_err(|e| e.to_string())
                .and_then(|doc| Artifact::from_json(&doc));
            // ... and so does an accepted artifact.
            prop_assert_eq!(again, Ok(artifact));
        }
    }
}

/// The undamaged input is accepted, so the property above is not vacuous.
#[test]
fn the_undamaged_artifact_round_trips() {
    let text = emitted_artifact(3);
    let artifact = Artifact::from_json(&parse_json(&text).expect("parses")).expect("schema");
    assert_eq!(artifact.records.len(), 3);
    assert_eq!(artifact.to_bytes(), text);
}
