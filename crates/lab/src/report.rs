//! Typed run results and the machine-readable artifact format.
//!
//! The vendored `serde` stub is a no-op, so this module owns the whole JSON
//! story: a small document model ([`JsonValue`]) with deterministic
//! formatting, a recursive-descent parser used by the tests and the smoke
//! harness to round-trip what the binaries emit, and the typed
//! [`Artifact`]/[`RunRecord`]/[`Metric`] layer the binaries actually build.
//!
//! Determinism matters here: the acceptance bar for the parallel runner is
//! that a 2-thread and an 8-thread run of the same spec produce *byte
//! identical* JSON, so object keys keep insertion order and floats are
//! formatted with Rust's shortest round-trip representation rather than
//! anything locale- or platform-dependent.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Version tag embedded in every artifact so downstream tooling can detect
/// schema changes. Bump when the shape of the emitted JSON changes.
pub const SCHEMA: &str = "neura_lab.artifact/v1";

/// Schema tag for windowed timeline artifacts (the telemetry layer's
/// time-series view of one run). The document *shape* is identical to
/// [`SCHEMA`] — records with params and metrics — but the record IDs
/// follow the `{scope}/timeline` + `{scope}/window/NNN` convention and
/// the file lands beside the run artifact (e.g. `timeline.json` next to
/// `serve.json`), so tooling uses the tag to tell the two apart.
pub const TIMELINE_SCHEMA: &str = "neura_lab.timeline/v1";

/// Schema tag for chip-profile artifacts (the cycle simulator's windowed
/// stall attribution, emitted by `profile`). Same
/// document shape as [`SCHEMA`]; record IDs follow the `{scope}/profile` +
/// `{scope}/window/NNN` + `{scope}/hops` + `{scope}/channel/NN`
/// convention produced by [`profile_records`].
pub const PROFILE_SCHEMA: &str = "neura_lab.profile/v1";

/// Directory (relative to the working directory) where artifacts land when
/// `--json` is given without an explicit path.
pub(crate) const ARTIFACT_DIR: &str = "target/artifacts";

// ---------------------------------------------------------------------------
// JSON document model
// ---------------------------------------------------------------------------

/// A JSON document. Objects preserve insertion order so that emission is
/// deterministic and diffs between runs are meaningful.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null` (also what non-finite floats serialise to).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite double-precision number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object as an ordered key/value list.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key in an object (first match; `None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises the document with two-space indentation and a trailing
    /// newline — the exact bytes written to artifact files.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => write_number(out, *n),
            JsonValue::String(s) => write_escaped(out, s),
            JsonValue::Array(items) if items.is_empty() => out.push_str("[]"),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            JsonValue::Object(pairs) if pairs.is_empty() => out.push_str("{}"),
            JsonValue::Object(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Formats a float deterministically: Rust's shortest round-trip form, which
/// is valid JSON for every finite value (`1.0`, `0.25`, `1e300`). Non-finite
/// values have no JSON spelling and become `null`.
fn write_number(out: &mut String, n: f64) {
    if n.is_finite() {
        let _ = write!(out, "{n:?}");
    } else {
        out.push_str("null");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// JSON parser (used by tests and the smoke harness to round-trip artifacts)
// ---------------------------------------------------------------------------

/// Error produced by [`parse_json`], with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset at which parsing failed.
    pub offset: usize,
    /// Human-readable description of what went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonParseError {}

/// Arrays and objects may nest this deep; emitted artifacts nest at most
/// five levels, and the bound keeps a hostile file (200 000 `[` bytes) a
/// [`JsonParseError`] instead of a stack overflow in the recursive parser.
const MAX_JSON_DEPTH: usize = 128;

/// Parses a JSON document in time linear in its length. Supports the full
/// emitted surface (and standard JSON generally, including `\uXXXX` escapes
/// with surrogate pairs); rejects trailing garbage, arrays and objects
/// nested more than 128 deep, numbers outside the RFC 8259 grammar (`01`,
/// `1.`, `-.5`, `1.e3`) and numbers that overflow `f64` (the emitter could
/// only write those back as `null`).
///
/// The parser keeps the `&str` it was given, so string contents are copied
/// out as sub-slices of already-validated UTF-8: a char-boundary check per
/// run, never a re-validation of the remaining input.
pub fn parse_json(input: &str) -> Result<JsonValue, JsonParseError> {
    let mut parser = Parser { text: input, pos: 0, depth: 0 };
    parser.skip_ws();
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.text.len() {
        return Err(parser.error("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    /// The document's bytes, for byte-wise scanning.
    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn error(&self, message: &str) -> JsonParseError {
        JsonParseError { offset: self.pos, message: message.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.bytes()[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected literal {text:?}")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::String),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_JSON_DEPTH {
                    return Err(self.error("arrays and objects nested too deep"));
                }
                self.depth += 1;
                let container = if open == b'[' { self.array() } else { self.object() };
                self.depth -= 1;
                container
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(byte) = self.peek() else {
                return Err(self.error("unterminated string"));
            };
            match byte {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                _ => {
                    // Copy the run up to the next quote or backslash. Both
                    // are ASCII, so neither can sit inside a multi-byte
                    // scalar and the run ends on a char boundary; `get`
                    // checks both ends and nothing in between.
                    let run = self.bytes()[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.text.len() - self.pos);
                    let chunk = self
                        .text
                        .get(self.pos..self.pos + run)
                        .ok_or_else(|| self.error("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                    self.pos += run;
                }
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonParseError> {
        let Some(byte) = self.peek() else {
            return Err(self.error("unterminated escape"));
        };
        self.pos += 1;
        Ok(match byte {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                if (0xD800..0xDC00).contains(&hi) {
                    // High surrogate: must be followed by \uDC00..\uDFFF.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')?;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.error("invalid low surrogate"));
                        }
                        let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                        char::from_u32(code).ok_or_else(|| self.error("invalid surrogate pair"))?
                    } else {
                        return Err(self.error("lone high surrogate"));
                    }
                } else {
                    char::from_u32(hi).ok_or_else(|| self.error("invalid \\u escape"))?
                }
            }
            _ => return Err(self.error("unknown escape character")),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let Some(byte) = self.peek() else {
                return Err(self.error("truncated \\u escape"));
            };
            let digit = (byte as char)
                .to_digit(16)
                .ok_or_else(|| self.error("non-hex digit in \\u escape"))?;
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() && is_json_number(text.as_bytes()) => Ok(JsonValue::Number(n)),
            _ => Err(JsonParseError { offset: start, message: format!("bad number {text:?}") }),
        }
    }
}

/// Whether `text` matches the RFC 8259 number grammar,
/// `-? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?` — stricter than
/// `f64::from_str`, which also takes `01`, `1.`, `.5` and `1.e3`.
fn is_json_number(text: &[u8]) -> bool {
    fn digits(text: &[u8]) -> usize {
        text.iter().take_while(|b| b.is_ascii_digit()).count()
    }
    let mut rest = text.strip_prefix(b"-").unwrap_or(text);
    rest = match rest {
        [b'0', tail @ ..] => tail,
        [b'1'..=b'9', ..] => &rest[digits(rest)..],
        _ => return false,
    };
    if let [b'.', tail @ ..] = rest {
        let n = digits(tail);
        if n == 0 {
            return false;
        }
        rest = &tail[n..];
    }
    if let [b'e' | b'E', tail @ ..] = rest {
        let tail = match tail {
            [b'+' | b'-', unsigned @ ..] => unsigned,
            _ => tail,
        };
        let n = digits(tail);
        if n == 0 {
            return false;
        }
        rest = &tail[n..];
    }
    rest.is_empty()
}

// ---------------------------------------------------------------------------
// Typed result layer
// ---------------------------------------------------------------------------

/// One named measurement produced by a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `"total_cycles"` or `"speedup"`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Optional unit, e.g. `"cycles"`, `"x"`, `"GOP/s"`.
    pub unit: Option<String>,
}

/// The result of one experiment point: a stable ID, the parameters that
/// produced it, and the metrics it measured.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunRecord {
    /// Stable identifier, unique within an artifact
    /// (e.g. `"fig16/speedup/ca-CondMat"`).
    pub id: String,
    /// Ordered parameter list describing the point.
    pub params: Vec<(String, String)>,
    /// Ordered metric list.
    pub metrics: Vec<Metric>,
}

impl RunRecord {
    /// Creates an empty record with the given ID.
    pub fn new(id: impl Into<String>) -> Self {
        RunRecord { id: id.into(), params: Vec::new(), metrics: Vec::new() }
    }

    /// Appends a parameter (builder style).
    pub fn param(mut self, key: impl Into<String>, value: impl ToString) -> Self {
        self.params.push((key.into(), value.to_string()));
        self
    }

    /// Appends a unit-less metric (builder style).
    pub fn metric(self, name: impl Into<String>, value: f64) -> Self {
        self.metric_with_unit(name, value, None)
    }

    /// Appends a metric with a unit (builder style).
    pub fn unit_metric(self, name: impl Into<String>, value: f64, unit: &str) -> Self {
        self.metric_with_unit(name, value, Some(unit.to_string()))
    }

    fn metric_with_unit(
        mut self,
        name: impl Into<String>,
        value: f64,
        unit: Option<String>,
    ) -> Self {
        self.metrics.push(Metric { name: name.into(), value, unit });
        self
    }

    /// Looks up a metric value by name.
    pub fn metric_value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Appends the standard metric set of a cycle-level
    /// [`ExecutionReport`](neura_chip::accelerator::ExecutionReport), so
    /// every simulating binary emits the same schema for the same
    /// quantities.
    pub fn with_execution(self, report: &neura_chip::accelerator::ExecutionReport) -> Self {
        let (mem_max_over_mean, mem_cv) =
            neura_sparse::stats::imbalance(&report.mem_work_histogram);
        self.unit_metric("total_cycles", report.total_cycles as f64, "cycles")
            .metric("mmh_instructions", report.mmh_instructions as f64)
            .metric("hacc_instructions", report.hacc_instructions as f64)
            .unit_metric("cpi", report.cpi, "cycles/instr")
            .unit_metric("ipc", report.ipc, "instr/cycle")
            .unit_metric("gops", report.gops, "GOP/s")
            .metric("core_utilization", report.core_utilization)
            .unit_metric("avg_hacc_latency", report.hacc_latency_histogram.mean(), "cycles")
            .metric("peak_hashpad_occupancy", report.peak_hashpad_occupancy as f64)
            .unit_metric("hashpad_full_stalls", report.hashpad_full_stalls as f64, "cycles")
            .metric("hash_collisions", report.hash_collisions as f64)
            .metric("evictions", report.evictions as f64)
            .metric("mem_work_max_over_mean", mem_max_over_mean)
            .metric("mem_work_cv", mem_cv)
            .unit_metric("dram_bytes_read", report.dram_bytes_read as f64, "bytes")
            .unit_metric("dram_bytes_written", report.dram_bytes_written as f64, "bytes")
            .metric("noc_packets", report.noc_packets as f64)
            .unit_metric("execution_seconds", report.execution_seconds, "s")
            .unit_metric("core_busy_cycles", report.core_busy_cycles as f64, "core-cycles")
            .unit_metric("core_stall_cycles", report.core_stall_cycles as f64, "core-cycles")
            .unit_metric("core_idle_cycles", report.core_idle_cycles as f64, "core-cycles")
            .metric("avg_in_flight_mem", report.avg_in_flight_mem)
            .metric("peak_in_flight_mem", report.peak_in_flight_mem as f64)
            .unit_metric("mean_dram_latency", report.mean_dram_latency, "cycles")
            .unit_metric("noc_mean_latency", report.noc_mean_latency, "cycles")
            .metric("noc_mean_hops", report.noc_mean_hops)
    }
}

/// Flattens a chip [`Profile`](neura_chip::profile::Profile) into the
/// records of a [`PROFILE_SCHEMA`] artifact: one `{scope}/profile`
/// summary (whose `worst_window_stall_frac` is the trend headline), one
/// `{scope}/window/NNN` record per timeline window, a `{scope}/hops`
/// record carrying the exact hop distribution, and one
/// `{scope}/channel/NN` record per HBM channel.
pub fn profile_records(scope: &str, profile: &neura_chip::profile::Profile) -> Vec<RunRecord> {
    use neura_chip::profile::StallCause;
    let (worst_window, worst_frac) = profile.worst_window().unwrap_or((0, 0.0));
    let hop_tails = profile.hops.percentiles(&[50.0, 99.0]);
    let dram_tails = profile.dram_latency.percentiles(&[50.0, 99.0]);
    let mut summary = RunRecord::new(format!("{scope}/profile"))
        .unit_metric("window_cycles", profile.window_cycles as f64, "cycles")
        .metric("windows", profile.windows.len() as f64)
        .unit_metric("total_cycles", profile.total_cycles as f64, "cycles")
        .metric("cores", profile.cores as f64)
        .metric("mems", profile.mems as f64)
        .metric("channels", profile.channels as f64)
        .unit_metric("busy_cycles", profile.busy as f64, "core-cycles")
        .unit_metric("stall_cycles", profile.stall as f64, "core-cycles")
        .unit_metric("idle_cycles", profile.idle as f64, "core-cycles")
        .unit_metric("epilogue_idle_cycles", profile.epilogue_idle as f64, "core-cycles")
        .metric("stall_frac", profile.stall_frac())
        .metric("worst_window", worst_window as f64)
        .metric("worst_window_stall_frac", worst_frac);
    for cause in StallCause::ALL {
        summary = summary.unit_metric(
            format!("stall_{}", cause.name()),
            profile.stall_by_cause(cause) as f64,
            "core-cycles",
        );
    }
    summary = summary
        .metric("mmh_retired", profile.mmh_retired as f64)
        .metric("hacc_retired", profile.hacc_retired as f64)
        .metric("noc_delivered", profile.noc_delivered() as f64)
        .unit_metric("hops_total", profile.hops_total() as f64, "hops")
        .unit_metric("hop_p50", hop_tails[0], "hops")
        .unit_metric("hop_p99", hop_tails[1], "hops")
        .metric("dram_requests", profile.dram_latency.count() as f64)
        .unit_metric("dram_latency_p50", dram_tails[0], "cycles")
        .unit_metric("dram_latency_p99", dram_tails[1], "cycles")
        .metric("hbm_in_flight_peak", profile.hbm_in_flight_peak as f64);
    let mut records = vec![summary];
    for (w, window) in profile.windows.iter().enumerate() {
        let mut record = RunRecord::new(format!("{scope}/window/{w:03}"))
            .unit_metric("start_cycle", window.start_cycle as f64, "cycles")
            .unit_metric("cycles", window.cycles as f64, "cycles")
            .unit_metric("busy", window.busy as f64, "core-cycles")
            .unit_metric("stall", window.stall as f64, "core-cycles")
            .unit_metric("idle", window.idle as f64, "core-cycles")
            .metric("stall_frac", window.stall_frac());
        for cause in StallCause::ALL {
            record = record.unit_metric(
                format!("stall_{}", cause.name()),
                window.stall_by_cause(cause) as f64,
                "core-cycles",
            );
        }
        records.push(
            record
                .metric("mmh_retired", window.mmh_retired as f64)
                .metric("hacc_retired", window.hacc_retired as f64)
                .metric("pad_occupancy_peak", window.pad_occupancy_peak as f64)
                .unit_metric("pad_full_stalls", window.pad_full_stalls as f64, "cycles")
                .metric("noc_in_flight_peak", window.noc_in_flight_peak as f64)
                .metric("hbm_in_flight_peak", window.hbm_in_flight_peak as f64)
                .metric("hbm_queue_peak", window.hbm_queue_peak as f64),
        );
    }
    let mut hops = RunRecord::new(format!("{scope}/hops"));
    for (h, &count) in profile.hop_counts.iter().enumerate() {
        hops = hops.metric(format!("hops_{h:02}"), count as f64);
    }
    records.push(hops);
    for (c, &peak) in profile.channel_queue_peaks.iter().enumerate() {
        records.push(
            RunRecord::new(format!("{scope}/channel/{c:02}")).metric("queue_peak", peak as f64),
        );
    }
    records
}

/// A full artifact: every record one binary emitted in one invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// The document's schema tag ([`SCHEMA`] for run artifacts,
    /// [`TIMELINE_SCHEMA`] for windowed timelines).
    pub schema: String,
    /// Name of the emitting binary (`"fig16"`, `"table5"`, …).
    pub bin: String,
    /// The workload down-scaling the run used: 1, paper scale, for every
    /// binary of the workspace (artifacts of older commits may record more,
    /// which [`crate::trend`] warns about).
    pub scale_mult: usize,
    /// Document-level metadata in insertion order — measurement context
    /// (the engine plan and thread count a run used) that is *not* gated:
    /// `trend` diffs only [`Self::records`], so meta may vary run to run
    /// (the thread count does) without breaking byte-identity gates on the
    /// records.
    pub meta: Vec<(String, f64)>,
    /// All records, in emission order.
    pub records: Vec<RunRecord>,
}

impl Artifact {
    /// Creates an empty artifact for a binary at the given scale multiplier.
    pub fn new(bin: impl Into<String>, scale_mult: usize) -> Self {
        Artifact {
            schema: SCHEMA.into(),
            bin: bin.into(),
            scale_mult,
            meta: Vec::new(),
            records: Vec::new(),
        }
    }

    /// Sets (or replaces) one document-level meta value.
    pub fn set_meta(&mut self, key: impl Into<String>, value: f64) {
        let key = key.into();
        match self.meta.iter_mut().find(|(k, _)| *k == key) {
            Some(entry) => entry.1 = value,
            None => self.meta.push((key, value)),
        }
    }

    /// Retags the artifact with a different schema (builder style) — used
    /// for [`TIMELINE_SCHEMA`] documents, which share the record shape.
    pub fn with_schema(mut self, schema: &str) -> Self {
        self.schema = schema.into();
        self
    }

    /// Appends one record.
    pub fn push(&mut self, record: RunRecord) {
        self.records.push(record);
    }

    /// Appends many records.
    pub fn extend(&mut self, records: impl IntoIterator<Item = RunRecord>) {
        self.records.extend(records);
    }

    /// Finds a record by its stable ID.
    pub fn record(&self, id: &str) -> Option<&RunRecord> {
        self.records.iter().find(|r| r.id == id)
    }

    /// Converts to the JSON document model.
    pub(crate) fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            ("schema".into(), JsonValue::String(self.schema.clone())),
            ("bin".into(), JsonValue::String(self.bin.clone())),
            ("scale_mult".into(), JsonValue::Number(self.scale_mult as f64)),
        ];
        if !self.meta.is_empty() {
            fields.push((
                "meta".into(),
                JsonValue::Object(
                    self.meta.iter().map(|(k, v)| (k.clone(), JsonValue::Number(*v))).collect(),
                ),
            ));
        }
        fields.push((
            "records".into(),
            JsonValue::Array(
                self.records
                    .iter()
                    .map(|r| {
                        let mut fields = vec![
                            ("id".into(), JsonValue::String(r.id.clone())),
                            (
                                "params".into(),
                                JsonValue::Object(
                                    r.params
                                        .iter()
                                        .map(|(k, v)| (k.clone(), JsonValue::String(v.clone())))
                                        .collect(),
                                ),
                            ),
                        ];
                        fields.push((
                            "metrics".into(),
                            JsonValue::Array(
                                r.metrics
                                    .iter()
                                    .map(|m| {
                                        let mut pairs = vec![
                                            ("name".into(), JsonValue::String(m.name.clone())),
                                            ("value".into(), JsonValue::Number(m.value)),
                                        ];
                                        if let Some(unit) = &m.unit {
                                            pairs.push((
                                                "unit".into(),
                                                JsonValue::String(unit.clone()),
                                            ));
                                        }
                                        JsonValue::Object(pairs)
                                    })
                                    .collect(),
                            ),
                        ));
                        JsonValue::Object(fields)
                    })
                    .collect(),
            ),
        ));
        JsonValue::Object(fields)
    }

    /// Rebuilds an artifact from its JSON form (inverse of `Self::to_json`).
    ///
    /// Used by tests and the smoke harness; unknown fields are ignored so the
    /// schema can grow additively.
    pub fn from_json(doc: &JsonValue) -> Result<Self, String> {
        let schema = doc.get("schema").and_then(JsonValue::as_str).unwrap_or_default();
        if schema != SCHEMA && schema != TIMELINE_SCHEMA && schema != PROFILE_SCHEMA {
            return Err(format!(
                "unsupported schema {schema:?} (expected {SCHEMA:?}, {TIMELINE_SCHEMA:?} or {PROFILE_SCHEMA:?})"
            ));
        }
        let bin = doc.get("bin").and_then(JsonValue::as_str).ok_or("missing \"bin\"")?.to_string();
        let scale_mult =
            doc.get("scale_mult").and_then(JsonValue::as_f64).ok_or("missing \"scale_mult\"")?
                as usize;
        let mut meta = Vec::new();
        if let Some(JsonValue::Object(pairs)) = doc.get("meta") {
            for (key, value) in pairs {
                let value = value.as_f64().ok_or("non-numeric meta value")?;
                meta.push((key.clone(), value));
            }
        }
        let mut records = Vec::new();
        for raw in doc.get("records").and_then(JsonValue::as_array).ok_or("missing \"records\"")? {
            let mut record = RunRecord::new(
                raw.get("id").and_then(JsonValue::as_str).ok_or("record missing \"id\"")?,
            );
            if let Some(JsonValue::Object(pairs)) = raw.get("params") {
                for (key, value) in pairs {
                    let value = value.as_str().ok_or("non-string param value")?;
                    record.params.push((key.clone(), value.to_string()));
                }
            }
            for metric in raw
                .get("metrics")
                .and_then(JsonValue::as_array)
                .ok_or("record missing \"metrics\"")?
            {
                record.metrics.push(Metric {
                    name: metric
                        .get("name")
                        .and_then(JsonValue::as_str)
                        .ok_or("metric missing \"name\"")?
                        .to_string(),
                    // `null` is how a non-finite value was written.
                    value: match metric.get("value") {
                        Some(JsonValue::Null) => f64::NAN,
                        value => {
                            value.and_then(JsonValue::as_f64).ok_or("metric missing \"value\"")?
                        }
                    },
                    unit: metric.get("unit").and_then(JsonValue::as_str).map(str::to_string),
                });
            }
            records.push(record);
        }
        Ok(Artifact { schema: schema.to_string(), bin, scale_mult, meta, records })
    }

    /// The serialised bytes of this artifact (what [`Self::write`] puts on
    /// disk).
    pub fn to_bytes(&self) -> String {
        self.to_json().to_pretty()
    }

    /// The default on-disk location for a binary's artifact:
    /// `target/artifacts/<bin>.json` relative to the working directory.
    pub fn default_path(bin: &str) -> PathBuf {
        Path::new(ARTIFACT_DIR).join(format!("{bin}.json"))
    }

    /// Writes the artifact to `path`, creating parent directories as needed.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_bytes())
    }

    /// [`Self::write`] for a binary's `main`, and the one place every tool
    /// writes an artifact: reports the written file on stdout after a blank
    /// line, or complains on stderr and exits with code 1 — a silently
    /// dropped artifact would defeat the whole point of the subsystem.
    pub fn write_or_exit(&self, path: &Path) {
        if let Err(e) = self.write(path) {
            eprintln!("failed to write artifact {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("\nwrote {} ({} records)", path.display(), self.records.len());
    }
}

// ---------------------------------------------------------------------------
// Human-readable table rendering (moved here from `neura_bench` so the two
// output formats live side by side)
// ---------------------------------------------------------------------------

/// Prints a fixed-width table with a header row and a separator.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{:<width$}", h, width = widths[i]))
        .collect();
    println!("{}", header_line.join("  "));
    println!("{}", widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("  "));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Formats a float with the given number of decimals (table cells).
pub fn fmt(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_quotes_backslashes_and_control_chars() {
        let value = JsonValue::String("a\"b\\c\nd\te\r\u{1}ü".into());
        let text = value.to_pretty();
        assert_eq!(text, "\"a\\\"b\\\\c\\nd\\te\\r\\u0001ü\"\n");
        assert_eq!(parse_json(text.trim()).unwrap(), value);
    }

    #[test]
    fn numbers_round_trip_shortest_form() {
        for n in [0.0, -0.0, 1.0, 0.1, 2.5e-9, 1e300, f64::MAX, 123456789.125] {
            let mut out = String::new();
            write_number(&mut out, n);
            let parsed = parse_json(&out).unwrap().as_f64().unwrap();
            assert_eq!(parsed.to_bits(), n.to_bits(), "{n} round-trips");
        }
    }

    #[test]
    fn non_finite_numbers_emit_null() {
        let mut out = String::new();
        write_number(&mut out, f64::NAN);
        assert_eq!(out, "null");
    }

    #[test]
    fn parser_handles_unicode_escapes_and_surrogate_pairs() {
        assert_eq!(parse_json(r#""é""#).unwrap(), JsonValue::String("é".into()));
        assert_eq!(parse_json(r#""😀""#).unwrap(), JsonValue::String("😀".into()));
        assert!(parse_json(r#""\ud83d""#).is_err());
    }

    #[test]
    fn parser_rejects_trailing_garbage() {
        assert!(parse_json("{} x").is_err());
        assert!(parse_json("[1, 2,]").is_err());
    }

    #[test]
    fn parser_bounds_nesting_depth_instead_of_overflowing_the_stack() {
        for open in ["[", "{\"a\":"] {
            let err = parse_json(&open.repeat(200_000)).unwrap_err();
            assert!(err.message.contains("nested too deep"), "{err}");
        }
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse_json(&nested(MAX_JSON_DEPTH)).is_ok());
        assert!(parse_json(&nested(MAX_JSON_DEPTH + 1)).is_err());
        // Depth counts open containers, not containers seen.
        assert!(parse_json(&format!("[{}]", vec!["[]"; 1000].join(","))).is_ok());
    }

    #[test]
    fn parser_rejects_numbers_that_overflow_to_infinity() {
        for text in ["1e999", "-1e999", "[1e999]"] {
            assert!(parse_json(text).is_err(), "{text} must not parse to inf");
        }
        assert_eq!(parse_json("1e-999").unwrap(), JsonValue::Number(0.0));
    }

    #[test]
    fn parser_rejects_numbers_outside_the_json_grammar() {
        // `f64::from_str` takes all of these; RFC 8259 takes none.
        for text in ["[01]", "[1.]", "[-.5]", "[1.e3]"] {
            let err = parse_json(text).unwrap_err();
            assert!(err.message.starts_with("bad number"), "{text}: {err}");
            assert_eq!(err.offset, 1, "{text}: the error points at the number");
        }
        for text in ["-", "-01", "00", "1e", "1e+", "1.5.2", "1E5.0", "+1", ".5", "0x10", "1-2"] {
            assert!(parse_json(text).is_err(), "{text} is not a JSON number");
        }
        for (text, value) in [
            ("0", 0.0_f64),
            ("-0", -0.0),
            ("10", 10.0),
            ("0.5", 0.5),
            ("-0.5e-3", -0.5e-3),
            ("1E+2", 100.0),
            ("12.25e0", 12.25),
        ] {
            let parsed = parse_json(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(parsed.as_f64().map(f64::to_bits), Some(value.to_bits()), "{text}");
        }
        assert!(parse_json("[0,1]").is_ok(), "a lone zero may be followed by a separator");
    }

    #[test]
    fn every_emitted_number_spelling_parses() {
        // The shortest round-trip form across magnitudes, signs and
        // exponent spellings (`1e300`, `2.5e-9`, `1e-7`, `5e-324`).
        let mut values = vec![f64::MIN_POSITIVE, f64::MAX, f64::MIN, 5e-324, 1e-7, 1e16, 1e21];
        for exp in -30..=30 {
            for mantissa in [1.0, 1.5, 9.999_999, 123_456.789] {
                values.push(mantissa * 10f64.powi(exp));
                values.push(-mantissa * 10f64.powi(exp));
            }
        }
        for n in values {
            let mut out = String::new();
            write_number(&mut out, n);
            assert!(is_json_number(out.as_bytes()), "emitter wrote {out}");
            let parsed = parse_json(&out).unwrap().as_f64().unwrap();
            assert_eq!(parsed.to_bits(), n.to_bits(), "{out} round-trips");
        }
    }

    #[test]
    fn multi_byte_scalars_beside_escapes_round_trip() {
        // 2-, 3- and 4-byte scalars directly beside `\\`, `\"` and `\uXXXX`
        // escapes, at the start and at the very end of the string.
        for s in [
            "é\\ü",
            "\\é",
            "€\"€",
            "\"😀\"",
            "😀\\",
            "\u{1}é\u{1f}€\u{2}😀",
            "é€😀",
            "a😀",
            "😀",
            "ü\\\"\u{7}€\\\\😀\"",
        ] {
            let value = JsonValue::String(s.to_string());
            let text = value.to_pretty();
            assert_eq!(parse_json(&text).unwrap(), value, "{s:?} via {text:?}");
            // As an object key and with no trailing newline: the string's
            // closing quote is then the last byte but one of the input.
            let object = JsonValue::Object(vec![(s.to_string(), value.clone())]);
            assert_eq!(parse_json(object.to_pretty().trim_end()).unwrap(), object, "{s:?}");
        }
        // Hand-written escapes next to raw multi-byte scalars.
        assert_eq!(
            parse_json("\"é\\u00e9€\\u20ac😀\\ud83d\\ude00\"").unwrap(),
            JsonValue::String("éé€€😀😀".into())
        );
        // A multi-byte scalar that runs into the end of input, unterminated.
        for text in ["\"é", "\"€", "\"😀", "\"a\\\\😀"] {
            assert_eq!(parse_json(text).unwrap_err().message, "unterminated string", "{text:?}");
        }
    }

    #[test]
    fn nested_record_round_trips() {
        let mut artifact = Artifact::new("demo", 4);
        artifact.push(
            RunRecord::new("demo/a")
                .param("dataset", "cora")
                .param("mapping", "drhm")
                .metric("total_cycles", 1234.0)
                .unit_metric("gops", 3.25, "GOP/s"),
        );
        artifact.push(RunRecord::new("demo/empty"));
        let text = artifact.to_bytes();
        let parsed = Artifact::from_json(&parse_json(&text).unwrap()).unwrap();
        assert_eq!(parsed, artifact);
        assert_eq!(parsed.record("demo/a").unwrap().metric_value("gops"), Some(3.25));
    }

    /// A wedged tuner candidate scores `+inf`, which is written `null`:
    /// the artifact still reads back, with NaN in its place, and writes the
    /// same bytes again.
    #[test]
    fn a_non_finite_metric_reads_back_as_nan() {
        let mut artifact = Artifact::new("demo", 1);
        artifact.push(RunRecord::new("demo/wedged").metric("objective_score", f64::INFINITY));
        let text = artifact.to_bytes();
        let parsed = Artifact::from_json(&parse_json(&text).unwrap()).unwrap();
        assert!(parsed
            .record("demo/wedged")
            .unwrap()
            .metric_value("objective_score")
            .unwrap()
            .is_nan());
        assert_eq!(parsed.to_bytes(), text);
    }

    #[test]
    fn default_path_is_under_target_artifacts() {
        assert_eq!(Artifact::default_path("fig16"), Path::new("target/artifacts/fig16.json"));
    }

    #[test]
    fn print_table_tolerates_ragged_rows() {
        // Exercised for coverage: rows wider than the header must not panic.
        print_table("t", &["a"], &[vec!["1".into(), "2".into()]]);
    }
}
