//! Span recording around the calls into each layer, and the self-time
//! analysis of a recorded pass.
//!
//! Spans are recorded by the benchmark's own code, never inside the
//! workspace crates. They stay in memory until the run ends. With tracing
//! off, [`Tracer::span`] calls its body and reads no clock.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::util::Json;

/// Identifier of a recorded span; [`ROOT`] is "no parent".
pub type SpanId = u32;
pub const ROOT: SpanId = 0;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    /// `pass`, `point`, or `<layer>.<call>`.
    pub name: &'static str,
    /// The sweep point the span belongs to (-1 for pass-level spans).
    pub point: i32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    // (next id, finished spans). One lock per span start and end; a pass
    // records a few hundred spans, each around milliseconds of work.
    state: Mutex<(SpanId, Vec<Span>)>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, epoch: Instant::now(), state: Mutex::new((ROOT, Vec::new())) }
    }

    /// Runs `body` under a span; the body receives the span's id to parent
    /// its own children on.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: SpanId,
        point: i32,
        body: impl FnOnce(SpanId) -> R,
    ) -> R {
        if !self.on {
            return body(ROOT);
        }
        let id = {
            let mut state = self.state.lock().expect("no span body panics while recording");
            state.0 += 1;
            state.0
        };
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let result = body(id);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.state.lock().expect("no span body panics while recording").1.push(Span {
            id,
            parent,
            name,
            point,
            start_ns,
            end_ns,
        });
        result
    }

    pub fn into_spans(self) -> Vec<Span> {
        let mut spans = self.state.into_inner().expect("no span body panics while recording").1;
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Self-time accounting of one traced pass.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Self seconds per span name.
    pub self_by_name: BTreeMap<&'static str, f64>,
    /// Sum of every span's self time: with parallel points this is busy
    /// thread-seconds, not wall.
    pub total_self_s: f64,
    /// Wall seconds of the `pass` span.
    pub pass_wall_s: f64,
    /// Share of the pass interval that its child spans cover.
    pub coverage: f64,
}

impl Analysis {
    /// Self seconds of every span whose name starts with `prefix`.
    pub fn self_s(&self, prefix: &str) -> f64 {
        // `+ 0.0`: an empty float sum is -0.0, and a bypassed layer should read 0.
        self.self_by_name
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, s)| s)
            .sum::<f64>()
            + 0.0
    }

    /// The same as a share of all self time.
    pub fn share(&self, prefix: &str) -> f64 {
        if self.total_self_s > 0.0 {
            self.self_s(prefix) / self.total_self_s
        } else {
            0.0
        }
    }
}

/// A span's self time is its duration minus the part of its interval that
/// its child spans cover (children on parallel threads may overlap, so the
/// covered part is the union of their intervals).
pub fn analyse(spans: &[Span]) -> Analysis {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        children.entry(span.parent).or_default().push((span.start_ns, span.end_ns));
    }
    let mut analysis = Analysis::default();
    for span in spans {
        let covered = children.get_mut(&span.id).map_or(0, |intervals| {
            intervals.sort_unstable();
            let (mut covered, mut reach) = (0u64, span.start_ns);
            for &(start, end) in intervals.iter() {
                let (start, end) = (start.max(reach), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            covered
        });
        let self_s = (span.end_ns - span.start_ns - covered) as f64 * 1e-9;
        *analysis.self_by_name.entry(span.name).or_default() += self_s;
        analysis.total_self_s += self_s;
        if span.name == "pass" {
            analysis.pass_wall_s = span.seconds();
            analysis.coverage = if span.end_ns > span.start_ns {
                covered as f64 / (span.end_ns - span.start_ns) as f64
            } else {
                0.0
            };
        }
    }
    analysis
}

/// The spans as a JSON document (`benchmark/out/trace-<workload>.json`).
pub fn to_json(workload: &str, spans: &[Span]) -> Json {
    let rows = spans.iter().map(|s| {
        Json::obj([
            ("id", Json::Int(u64::from(s.id))),
            ("parent", Json::Int(u64::from(s.parent))),
            ("name", Json::Str(s.name.to_string())),
            ("point", Json::Num(f64::from(s.point))),
            ("start_ns", Json::Int(s.start_ns)),
            ("end_ns", Json::Int(s.end_ns)),
        ])
    });
    Json::obj([("workload", Json::Str(workload.to_string())), ("spans", Json::Arr(rows.collect()))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name, point: -1, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(1, ROOT, "pass", 0, 100),
            span(2, 1, "point", 10, 60),
            span(3, 1, "point", 40, 90),
            span(4, 2, "chip.run_spgemm", 10, 50),
        ];
        let a = analyse(&spans);
        assert!((a.self_by_name["pass"] - 20e-9).abs() < 1e-15);
        assert!((a.self_by_name["point"] - 60e-9).abs() < 1e-15);
        assert!((a.coverage - 0.8).abs() < 1e-12);
        assert!((a.share("chip.") - 40.0 / 120.0).abs() < 1e-12);
    }

    #[test]
    fn an_untraced_span_runs_its_body_and_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("pass", ROOT, -1, |id| id + 7), 7);
        assert!(tracer.into_spans().is_empty());
    }

    #[test]
    fn nested_spans_keep_their_parent() {
        let tracer = Tracer::new(true);
        tracer.span("pass", ROOT, -1, |pass| tracer.span("point", pass, 0, |_| ()));
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, spans[0].id);
    }
}
