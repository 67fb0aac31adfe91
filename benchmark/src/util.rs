//! Small std-only helpers: seed derivation, digests, order statistics,
//! `/proc` readers and a JSON value writer.

use std::fmt::Write as _;

/// FNV-1a over bytes: the `sim_digest` of an artifact and the label hash
/// of [`derive_seed`].
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The seed of one named input, derived from the run's `--seed`
/// (splitmix64 finaliser over seed ⊕ label hash).
pub fn derive_seed(seed: u64, label: &str) -> u64 {
    let mut z = (seed ^ fnv1a(label.as_bytes())).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `(q1, median, q3)` by linear interpolation between order statistics.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (sorted.len() - 1) as f64;
        let (lo, frac) = (pos.floor() as usize, pos.fract());
        sorted[lo] + frac * (sorted[(lo + 1).min(sorted.len() - 1)] - sorted[lo])
    };
    (at(0.25), at(0.5), at(0.75))
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// User + system CPU seconds of this process so far, dead threads
/// included (`/proc/self/stat` fields 14 and 15, in 100 Hz ticks).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may hold spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || fields.next().and_then(|f| f.parse::<f64>().ok()).expect("a tick count");
    (tick() + tick()) / 100.0
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("status has a VmHWM line");
    kb / 1024.0
}

/// A JSON document, written with every digit of its numbers.
#[derive(Debug, Clone)]
pub enum Json {
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => write!(out, "{b}").expect("string write"),
            Json::Int(n) => write!(out, "{n}").expect("string write"),
            // Non-finite numbers have no JSON form; a metric that produced one is a bug
            // worth seeing, so it renders as null and fails the reader's type check.
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            Json::Num(x) => write!(out, "{x:?}").expect("string write"),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => {
                            write!(out, "\\u{:04x}", c as u32).expect("string write")
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    Json::Str(key.clone()).write(out);
                    out.push_str(": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), (2.0, 3.0, 4.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(median(&[1.0, 2.0]), 1.5);
    }

    #[test]
    fn derived_seeds_differ_by_seed_and_label() {
        assert_ne!(derive_seed(1, "a"), derive_seed(2, "a"));
        assert_ne!(derive_seed(1, "a"), derive_seed(1, "b"));
        assert_eq!(derive_seed(1, "a"), derive_seed(1, "a"));
    }

    #[test]
    fn json_renders_escapes_and_full_precision() {
        let doc = Json::obj([("a\"b", Json::Num(0.1 + 0.2)), ("n", Json::Int(3))]);
        assert_eq!(doc.render(), "{\"a\\\"b\": 0.30000000000000004, \"n\": 3}");
    }

    #[test]
    fn proc_readers_return_positive_numbers() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
