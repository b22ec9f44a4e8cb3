//! Sample statistics, the result line, and the in-memory span recorder
//! of the traced run.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Nearest-rank percentile (`p` in 0..=1) of unsorted samples; NaN when
/// there are none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Resident-set high-water mark of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The benchmark's result: the metrics of one run plus the request
/// accounting. Printed as the last line of standard output.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Human-readable notes on answers that differed from the reference.
    pub mismatches: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    /// Count one request; `ok == false` marks it failed (refused,
    /// errored, or different from the reference answer).
    pub fn outcome(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.mismatches.len() < 10 {
                self.mismatches.push(what());
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line. Values must be finite (JSON has no NaN).
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, (v, u))| format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One recorded span: a layer boundary crossed by one request.
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub request: u64,
}

/// In-memory span recorder. Spans nest through an explicit stack; the
/// file is written once, when the run ends.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str, request: u64) -> usize {
        let now = self.origin.elapsed();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.stack.last().copied(),
            request,
        });
        self.stack.push(id);
        id
    }

    pub fn end(&mut self, id: usize) -> Duration {
        let now = self.origin.elapsed();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans close in stack order");
        self.spans[id].end = now;
        now - self.spans[id].start
    }

    /// Time `f` as a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let id = self.begin(name, request);
        let r = f();
        (r, self.end(id))
    }

    /// Fold another thread's spans into this recorder.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        let shift = other.origin.saturating_duration_since(self.origin);
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            start: s.start + shift,
            end: s.end + shift,
            parent: s.parent.map(|p| p + offset),
            ..s
        }));
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end - s.start).saturating_sub(c))
            .collect()
    }

    /// Total self time per layer (the span name up to its first `.`),
    /// over spans whose root is named `root`; also returns the number of
    /// such roots and of the spans below them.
    pub fn layer_self_times(&self, root: &str) -> (BTreeMap<&'static str, Duration>, usize, usize) {
        let selfs = self.self_times();
        let mut root_of = vec![0usize; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            root_of[i] = match s.parent {
                Some(p) => root_of[p],
                None => i,
            };
        }
        let mut layers = BTreeMap::new();
        let (mut roots, mut spans) = (0, 0);
        for (i, s) in self.spans.iter().enumerate() {
            if self.spans[root_of[i]].name != root {
                continue;
            }
            if s.parent.is_none() {
                roots += 1;
                continue;
            }
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *layers.entry(layer).or_insert(Duration::ZERO) += selfs[i];
            spans += 1;
        }
        (layers, roots, spans)
    }

    /// Mean duration of the root spans named `root`, in milliseconds.
    pub fn root_mean_ms(&self, root: &str) -> f64 {
        let d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root)
            .map(|s| ms(s.end - s.start))
            .collect();
        mean(&d)
    }

    /// Write the spans as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.request
            )?;
        }
        out.flush()
    }
}

/// Report the traced run's layer self times and reconcile their sum
/// against `untraced_ms`, the mean untraced time of the call the
/// `request` spans decompose. Tracing overhead is the measured cost of
/// recording the spans of one request over that time.
pub fn reconcile(tracer: &Tracer, untraced_ms: f64, report: &mut Report) {
    let (layers, roots, spans) = tracer.layer_self_times("request");
    let per_request = |d: Duration| ms(d) / roots.max(1) as f64;
    for (layer, d) in &layers {
        report.set(format!("trace.self_ms.{layer}"), per_request(*d), "ms");
    }
    let layer_sum = per_request(layers.values().sum());
    let spans_per_request = (spans + roots) as f64 / roots.max(1) as f64;
    report.set("trace.untraced_ms", untraced_ms, "ms");
    report.set("trace.traced_ms", tracer.root_mean_ms("request"), "ms");
    report.set("trace.layer_sum_ms", layer_sum, "ms");
    report.set("trace.gap_ratio", 1.0 - layer_sum / untraced_ms, "ratio");
    report.set(
        "trace.overhead_ratio",
        ms(span_cost()) * spans_per_request / untraced_ms,
        "ratio",
    );
    report.set("trace.requests", roots as f64, "count");
}

/// Cost of recording one span (begin + end), measured on a scratch
/// recorder: the tracing overhead a traced request pays per span.
pub fn span_cost() -> Duration {
    let mut t = Tracer::new(Instant::now());
    let n = 20_000u32;
    let t0 = Instant::now();
    for i in 0..n {
        let id = t.begin("calibrate", u64::from(i));
        t.end(id);
    }
    t0.elapsed() / n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.begin("request", 1);
        let (_, _) = t.span("nqe.execute", 1, || std::thread::sleep(Duration::from_millis(2)));
        t.end(root);
        let selfs = t.self_times();
        let total = t.spans[0].end - t.spans[0].start;
        assert_eq!(selfs[0] + selfs[1], total);
        let (layers, roots, spans) = t.layer_self_times("request");
        assert_eq!((roots, spans), (1, 1));
        assert!(layers["nqe"] >= Duration::from_millis(2));
    }

    #[test]
    fn result_line_shape() {
        let mut r = Report::default();
        r.outcome(true, String::new);
        r.set("setup_s", 0.5, "s");
        assert_eq!(
            r.json_line(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
