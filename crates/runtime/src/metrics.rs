//! Lightweight in-tree metrics primitives and Prometheus-text exposition.
//!
//! The paper's efficiency claims (§1, §3.3.2) are about latency and avoided
//! work; this module gives every layer of the runtime a uniform way to count
//! and time both. Three live instrument types — [`Counter`], [`Gauge`], and a
//! fixed-bucket log₂-scale [`Histogram`] — are plain atomics so they can be
//! updated from any scheduler thread without locks, and [`Registry`] renders
//! point-in-time samples of them in the Prometheus text exposition format
//! (`# TYPE` lines, cumulative `_bucket{le=...}` series, `_sum`/`_count`).
//!
//! The existing [`crate::Stats`] counters are built on [`Counter`], so one
//! accounting path feeds both the legacy `StatsSnapshot` view and the
//! `/metrics` exposition surface.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Number of histogram buckets, including the final `+Inf` bucket.
///
/// Bucket `i < HISTOGRAM_BUCKETS - 1` counts observations `v` with
/// `v <= 2^i` (and greater than the previous bound); with nanosecond
/// observations the finite bounds run from 1 ns to `2^30` ns ≈ 1.07 s.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a zeroed counter.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down (or track a running maximum).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Creates a zeroed gauge.
    pub const fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` exceeds the current value.
    pub fn set_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket log₂-scale histogram with atomic bucket counters.
///
/// Observations are `u64` (by convention: nanoseconds). Bucket `i` has the
/// inclusive upper bound `2^i`; the last bucket is `+Inf`. The scale is fixed
/// so histograms can be merged across sessions without coordination.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Index of the bucket an observation falls into.
    pub fn bucket_index(v: u64) -> usize {
        let idx = if v <= 1 {
            0
        } else {
            64 - (v - 1).leading_zeros() as usize
        };
        idx.min(HISTOGRAM_BUCKETS - 1)
    }

    /// Inclusive upper bound of bucket `i` (`None` for the `+Inf` bucket).
    pub fn bucket_le(i: usize) -> Option<u64> {
        if i + 1 < HISTOGRAM_BUCKETS {
            Some(1u64 << i)
        } else {
            None
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Point-in-time copy for serialization / merging.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum(),
            count: self.count(),
        }
    }
}

/// A point-in-time copy of a [`Histogram`]: per-bucket (non-cumulative)
/// counts plus total sum and count.
#[derive(Clone, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct HistogramSnapshot {
    /// Non-cumulative count per bucket (`HISTOGRAM_BUCKETS` entries, or empty
    /// for a default/unobserved histogram).
    pub buckets: Vec<u64>,
    /// Sum of all observations.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Bucket-wise sum, for aggregating per-session histograms into a global
    /// series. Both operands must use the fixed log₂ scale.
    pub fn merged(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let n = self.buckets.len().max(other.buckets.len());
        let mut buckets = vec![0u64; n];
        for (i, b) in buckets.iter_mut().enumerate() {
            *b = self.buckets.get(i).copied().unwrap_or(0)
                + other.buckets.get(i).copied().unwrap_or(0);
        }
        HistogramSnapshot {
            buckets,
            sum: self.sum + other.sum,
            count: self.count + other.count,
        }
    }

    /// Upper bound (in observation units) of the bucket containing the
    /// `q`-quantile observation — a log₂-quantized overestimate of the true
    /// quantile, which is the best a fixed-bucket histogram can do. Returns
    /// 0 for an empty histogram; the `+Inf` bucket reports the largest
    /// finite bound.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for i in 0..HISTOGRAM_BUCKETS {
            cumulative += self.buckets.get(i).copied().unwrap_or(0);
            if cumulative >= target {
                return Histogram::bucket_le(i).unwrap_or(1u64 << (HISTOGRAM_BUCKETS - 2));
            }
        }
        1u64 << (HISTOGRAM_BUCKETS - 2)
    }

    /// Fraction of observations strictly above `threshold`, quantized to the
    /// log₂ bucket grid: only buckets entirely above `threshold`'s own
    /// bucket count (exact when `threshold` is a power of two, an
    /// underestimate otherwise). The SLO burn-rate families are built on
    /// this — it never over-reports budget violations.
    pub fn fraction_above(&self, threshold: u64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let cut = Histogram::bucket_index(threshold);
        let above: u64 = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(i, _)| *i > cut)
            .map(|(_, b)| *b)
            .sum();
        above as f64 / self.count as f64
    }
}

/// One metric family: name, type, help, and its sample lines, rendered at
/// registration time (`name+suffix{labels} value\n` each, in order). The
/// typed name suffix (`_bucket`, `_sum`, `_count`, or none) is fixed by the
/// registering method, so rendering never classifies a sample by
/// inspecting its label text — label *values* are user-controlled (e.g.
/// ad-hoc session sources) and may legally contain `le="` or `quantile="`.
#[derive(Debug)]
struct Family {
    name: String,
    kind: &'static str,
    help: String,
    body: String,
}

/// A collection of metric families that renders as Prometheus text.
///
/// Callers register point-in-time values (there is no live registration —
/// instruments stay owned by the subsystems that update them and are sampled
/// at exposition time). Families keep insertion order; repeated registrations
/// of the same name append samples to the existing family. Each sample line
/// is written once, straight into its family's body; [`Registry::render`]
/// only concatenates headers and bodies.
#[derive(Debug, Default)]
pub struct Registry {
    families: Vec<Family>,
    /// Histogram `le` label values, formatted once per distinct scale
    /// (keyed by the scale's bit pattern).
    bounds: Vec<(u64, Vec<String>)>,
    /// Scratch buffer holding the current sample's rendered label pairs.
    labels: String,
}

/// Appends `v` escaped per the Prometheus text format: `\`, `"` and
/// newline become `\\`, `\"` and `\n`. A value with none of them (the
/// common case) is copied as one slice.
fn push_escaped(out: &mut String, v: &str) {
    let mut rest = v;
    while let Some(i) = rest.bytes().position(|b| matches!(b, b'\\' | b'"' | b'\n')) {
        out.push_str(&rest[..i]);
        out.push_str(match rest.as_bytes()[i] {
            b'\\' => "\\\\",
            b'"' => "\\\"",
            _ => "\\n",
        });
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

/// Replaces `out` with the label pairs `k="v",...` (no braces).
fn set_label_pairs(out: &mut String, labels: &[(&str, &str)]) {
    out.clear();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        push_escaped(out, v);
        out.push('"');
    }
}

/// A sample value, appended in the form `Display` gives it. Integers skip
/// the formatting machinery: they are most of a scrape's values.
trait SampleValue {
    fn push_to(self, out: &mut String);
}

impl SampleValue for u64 {
    fn push_to(self, out: &mut String) {
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        let mut v = self;
        loop {
            start -= 1;
            digits[start] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
    }
}

impl SampleValue for i64 {
    fn push_to(self, out: &mut String) {
        if self < 0 {
            out.push('-');
        }
        self.unsigned_abs().push_to(out);
    }
}

impl SampleValue for f64 {
    fn push_to(self, out: &mut String) {
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{self}");
    }
}

/// Appends one sample line `name+suffix{pairs,extra} value\n`. `pairs` are
/// already-escaped label pairs; `extra` is a trailing `le`/`quantile` label
/// whose value (a formatted number) needs no escaping. The braces are
/// omitted when there are no labels at all.
fn push_sample(
    out: &mut String,
    name: &str,
    suffix: &str,
    pairs: &str,
    extra: Option<(&str, &str)>,
    value: impl SampleValue,
) {
    out.push_str(name);
    out.push_str(suffix);
    if !pairs.is_empty() || extra.is_some() {
        out.push('{');
        out.push_str(pairs);
        if let Some((k, v)) = extra {
            if !pairs.is_empty() {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(v);
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    value.push_to(out);
    out.push('\n');
}

/// The family named `name`, created (with this kind and help) on first use.
fn family<'a>(
    families: &'a mut Vec<Family>,
    name: &str,
    kind: &'static str,
    help: &str,
) -> &'a mut Family {
    let i = match families.iter().position(|f| f.name == name) {
        Some(i) => i,
        None => {
            families.push(Family {
                name: name.to_string(),
                kind,
                help: help.to_string(),
                body: String::new(),
            });
            families.len() - 1
        }
    };
    &mut families[i]
}

/// The `le` label values of every histogram bucket at `scale`, formatted
/// on the first request for that scale.
fn bucket_bounds(bounds: &mut Vec<(u64, Vec<String>)>, scale: f64) -> &[String] {
    let key = scale.to_bits();
    let i = match bounds.iter().position(|(k, _)| *k == key) {
        Some(i) => i,
        None => {
            let les = (0..HISTOGRAM_BUCKETS)
                .map(|i| match Histogram::bucket_le(i) {
                    Some(bound) => format!("{}", bound as f64 * scale),
                    None => "+Inf".to_string(),
                })
                .collect();
            bounds.push((key, les));
            bounds.len() - 1
        }
    };
    &bounds[i].1
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Appends one unsuffixed sample line to family `name`.
    fn single(
        &mut self,
        name: &str,
        kind: &'static str,
        help: &str,
        labels: &[(&str, &str)],
        value: impl SampleValue,
    ) {
        set_label_pairs(&mut self.labels, labels);
        let body = &mut family(&mut self.families, name, kind, help).body;
        push_sample(body, name, "", &self.labels, None, value);
    }

    /// Registers a counter sample.
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        self.single(name, "counter", help, labels, value);
    }

    /// Registers a gauge sample.
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: i64) {
        self.single(name, "gauge", help, labels, value);
    }

    /// Registers a gauge sample with a fractional value (a ratio, a burn
    /// rate, a quantile in seconds).
    pub fn gauge_f64(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.single(name, "gauge", help, labels, value);
    }

    /// Registers a histogram sample from a snapshot, scaling each bucket
    /// bound by `scale` (e.g. `1e-9` to expose nanosecond observations in
    /// seconds). Buckets are rendered cumulatively with `le` labels, plus
    /// `_sum` and `_count` series.
    pub fn histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        snap: &HistogramSnapshot,
        scale: f64,
    ) {
        set_label_pairs(&mut self.labels, labels);
        let pairs = &self.labels;
        let les = bucket_bounds(&mut self.bounds, scale);
        let body = &mut family(&mut self.families, name, "histogram", help).body;
        let mut cumulative = 0u64;
        for (i, le) in les.iter().enumerate() {
            cumulative += snap.buckets.get(i).copied().unwrap_or(0);
            push_sample(body, name, "_bucket", pairs, Some(("le", le)), cumulative);
        }
        push_sample(body, name, "_sum", pairs, None, snap.sum as f64 * scale);
        push_sample(body, name, "_count", pairs, None, snap.count);
    }

    /// Registers a summary sample: pre-computed quantiles plus sum and count.
    pub fn summary(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        quantiles: &[(f64, f64)],
        sum: f64,
        count: u64,
    ) {
        set_label_pairs(&mut self.labels, labels);
        let pairs = &self.labels;
        let body = &mut family(&mut self.families, name, "summary", help).body;
        for (q, v) in quantiles {
            push_sample(
                body,
                name,
                "",
                pairs,
                Some(("quantile", &q.to_string())),
                *v,
            );
        }
        push_sample(body, name, "_sum", pairs, None, sum);
        push_sample(body, name, "_count", pairs, None, count);
    }

    /// Renders all families in the Prometheus text exposition format: each
    /// family's `# HELP` and `# TYPE` header followed by its body, into one
    /// buffer sized up front.
    pub fn render(&self) -> String {
        let len = self
            .families
            .iter()
            .map(|f| {
                "# HELP  \n# TYPE  \n".len()
                    + 2 * f.name.len()
                    + f.help.len()
                    + f.kind.len()
                    + f.body.len()
            })
            .sum();
        let mut out = String::with_capacity(len);
        for fam in &self.families {
            for part in [
                "# HELP ",
                &fam.name,
                " ",
                &fam.help,
                "\n# TYPE ",
                &fam.name,
                " ",
                fam.kind,
                "\n",
                &fam.body,
            ] {
                out.push_str(part);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        g.set_max(3);
        assert_eq!(g.get(), 7);
        g.set_max(11);
        assert_eq!(g.get(), 11);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // v <= 2^i lands in bucket i (first bound 2^0 = 1).
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 2);
        assert_eq!(Histogram::bucket_index(5), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(Histogram::bucket_le(0), Some(1));
        assert_eq!(Histogram::bucket_le(4), Some(16));
        assert_eq!(Histogram::bucket_le(HISTOGRAM_BUCKETS - 1), None);
    }

    #[test]
    fn histogram_observe_and_merge() {
        let h = Histogram::new();
        h.observe(1);
        h.observe(100);
        h.observe(1_000_000);
        let snap = h.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.sum, 1_000_101);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 3);
        let merged = snap.merged(&snap);
        assert_eq!(merged.count, 6);
        assert_eq!(merged.buckets.iter().sum::<u64>(), 6);
    }

    #[test]
    fn histogram_snapshot_roundtrips_through_json() {
        let h = Histogram::new();
        h.observe(42);
        let snap = h.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: HistogramSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn registry_renders_prometheus_text() {
        let mut reg = Registry::new();
        reg.counter("elm_events_total", "Events processed.", &[], 12);
        reg.gauge(
            "elm_shard_queue_depth",
            "Queued events per shard.",
            &[("shard", "0")],
            3,
        );
        let h = Histogram::new();
        h.observe(1);
        h.observe(2_000_000_000);
        reg.histogram(
            "elm_node_compute_seconds",
            "Per-node compute time.",
            &[("node", "1")],
            &h.snapshot(),
            1e-9,
        );
        reg.summary(
            "elm_ingest_latency_seconds",
            "Ingest-to-output latency.",
            &[],
            &[(0.5, 0.001), (0.99, 0.004)],
            1.5,
            100,
        );
        let text = reg.render();
        assert!(text.contains("# TYPE elm_events_total counter"));
        assert!(text.contains("elm_events_total 12"));
        assert!(text.contains("elm_shard_queue_depth{shard=\"0\"} 3"));
        assert!(text.contains("# TYPE elm_node_compute_seconds histogram"));
        assert!(text.contains("elm_node_compute_seconds_bucket{node=\"1\",le=\"+Inf\"} 2"));
        assert!(text.contains("elm_node_compute_seconds_count{node=\"1\"} 2"));
        assert!(text.contains("elm_ingest_latency_seconds{quantile=\"0.5\"} 0.001"));
        assert!(text.contains("elm_ingest_latency_seconds_count 100"));
        // Cumulative bucket counts never decrease.
        let mut last = 0u64;
        for line in text
            .lines()
            .filter(|l| l.starts_with("elm_node_compute_seconds_bucket"))
        {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last);
            last = v;
        }
    }

    #[test]
    fn sample_values_render_as_display_does() {
        let mut reg = Registry::new();
        let mut want = String::from("# HELP c C.\n# TYPE c counter\n");
        for v in [0, 7, 10, 99, 1_000_000, u64::MAX] {
            reg.counter("c", "C.", &[], v);
            want.push_str(&format!("c {v}\n"));
        }
        want.push_str("# HELP g G.\n# TYPE g gauge\n");
        for v in [0, -1, 42, i64::MIN, i64::MAX] {
            reg.gauge("g", "G.", &[("k", "v")], v);
            want.push_str(&format!("g{{k=\"v\"}} {v}\n"));
        }
        for v in [0.0, -0.5, 1e-9, 0.05, 1e21, f64::INFINITY, f64::NAN] {
            reg.gauge_f64("g", "G.", &[], v);
            want.push_str(&format!("g {v}\n"));
        }
        assert_eq!(reg.render(), want);
    }

    #[test]
    fn hostile_label_values_escape_and_render_typed_suffixes() {
        // Label values that mimic the renderer's own syntax: a histogram
        // label ending in `le="..."`, quotes, backslashes, and newlines.
        // Before suffixes were typed per sample, the renderer classified
        // bucket-vs-sum/count lines by scanning labels for `le="` — these
        // values broke that pairing.
        let mut reg = Registry::new();
        let h = Histogram::new();
        h.observe(3);
        reg.histogram(
            "elm_node_compute_seconds",
            "Per-node compute time.",
            &[("label", "merge le=\"0.5\" of a\\b\nc")],
            &h.snapshot(),
            1e-9,
        );
        reg.summary(
            "elm_latency_seconds",
            "Latency.",
            &[("session", "quantile=\"0.99\"")],
            &[(0.5, 0.001)],
            0.5,
            1,
        );
        let text = reg.render();
        // Escaping: backslash, quote, newline all escaped in place.
        assert!(
            text.contains("label=\"merge le=\\\"0.5\\\" of a\\\\b\\nc\""),
            "{text}"
        );
        // The hostile histogram still renders exactly 32 bucket lines plus
        // one _sum and one _count.
        let buckets = text
            .lines()
            .filter(|l| l.starts_with("elm_node_compute_seconds_bucket{"))
            .count();
        assert_eq!(buckets, HISTOGRAM_BUCKETS, "{text}");
        assert_eq!(
            text.lines()
                .filter(|l| l.starts_with("elm_node_compute_seconds_sum{"))
                .count(),
            1,
            "{text}"
        );
        assert_eq!(
            text.lines()
                .filter(|l| l.starts_with("elm_node_compute_seconds_count{"))
                .count(),
            1,
            "{text}"
        );
        // The summary's hostile session label must not be mistaken for a
        // quantile sample: exactly one quantile line, one sum, one count.
        assert!(
            text.contains(
                "elm_latency_seconds{session=\"quantile=\\\"0.99\\\"\",quantile=\"0.5\"} 0.001"
            ),
            "{text}"
        );
        assert!(
            text.contains("elm_latency_seconds_sum{session=\"quantile=\\\"0.99\\\"\"} 0.5"),
            "{text}"
        );
        assert!(
            text.contains("elm_latency_seconds_count{session=\"quantile=\\\"0.99\\\"\"} 1"),
            "{text}"
        );
        // Every non-comment line still parses as `name[{labels}] value`.
        for line in text.lines() {
            assert!(
                line.starts_with('#')
                    || line
                        .rsplit_once(' ')
                        .is_some_and(|(_, v)| v.parse::<f64>().is_ok()),
                "unparseable line: {line}"
            );
        }
    }

    #[test]
    fn snapshot_quantile_and_fraction_above() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.observe(1_000); // bucket le=1024
        }
        for _ in 0..10 {
            h.observe(1_000_000); // bucket le=2^20
        }
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.5), 1024);
        assert_eq!(snap.quantile(0.9), 1024);
        assert_eq!(snap.quantile(0.99), 1 << 20);
        assert_eq!(snap.quantile(1.0), 1 << 20);
        // Exactly the slow 10% sit above the 2^14 boundary.
        let frac = snap.fraction_above(1 << 14);
        assert!((frac - 0.10).abs() < 1e-9, "{frac}");
        assert_eq!(snap.fraction_above(u64::MAX), 0.0);
        assert_eq!(HistogramSnapshot::default().quantile(0.99), 0);
        assert_eq!(HistogramSnapshot::default().fraction_above(0), 0.0);
    }
}
