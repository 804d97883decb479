//! Metrics: a registry of descriptors plus flat, lock-free sinks of values.
//!
//! The [`Registry`] is built once at construction time (metric names, help
//! strings, histogram bucket bounds) and then handed out as many
//! [`ObsSink`]s as there are independent workers. A sink is nothing but
//! three flat vectors indexed by the typed ids the registry returned, so
//! the fast path is `self.counters[i] += 1` — no hashing, no locking, no
//! allocation.
//!
//! ## Naming scheme
//!
//! Metric names follow the Prometheus conventions:
//! `<subsystem>_<noun>_<unit>[_total]`, e.g. `sim_dropped_packets_total`.
//! A metric may carry one static label (`reason="queue"`); metrics sharing
//! a family name must be registered contiguously so the renderer can emit
//! one `# HELP`/`# TYPE` header per family.

/// Index of a counter within a sink. Obtained from [`Registry::counter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// Index of a gauge within a sink. Obtained from [`Registry::gauge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(u32);

/// Index of a histogram within a sink. Obtained from [`Registry::histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(u32);

/// What a registered metric is, as Prometheus `# TYPE` spells it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    /// The `# TYPE` word.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// One registered metric as [`Registry::metrics`] yields it: what the
/// generated catalogue (`METRICS.md`) and the schema law test read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric<'a> {
    /// Family name, e.g. `sim_dropped_packets_total`.
    pub family: &'static str,
    /// Rendered label pair, e.g. `reason="queue"`.
    pub label: Option<&'static str>,
    pub help: &'static str,
    pub kind: Kind,
    /// Histogram bucket upper bounds; empty for counters and gauges.
    pub bounds: &'a [u64],
}

/// A frozen sink does not have the shape of the schema it was offered to
/// (see [`Registry::fits`]): it was minted from another table, or from
/// another version of this one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SinkMisfit;

impl std::fmt::Display for SinkMisfit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("frozen metric sink does not fit this schema")
    }
}

impl std::error::Error for SinkMisfit {}

#[derive(Debug, Clone)]
struct Desc {
    /// Family name, e.g. `sim_dropped_packets_total`.
    name: &'static str,
    /// Optional rendered label pair, e.g. `reason="queue"`.
    label: Option<&'static str>,
    help: &'static str,
    kind: Kind,
    /// Index into the sink's value vector for this kind.
    slot: u32,
}

/// A fixed-bucket histogram: strictly increasing upper bounds plus an
/// implicit `+Inf` bucket, with total count and sum.
///
/// Invariants (pinned by property tests):
/// * `counts.len() == bounds.len() + 1`
/// * `count == counts.iter().sum()`
/// * `sum` is the exact sum of every recorded value
/// * cumulative bucket counts are monotone non-decreasing
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Box<[u64]>,
    counts: Box<[u64]>,
    count: u64,
    sum: u128,
}

// Hand-rolled (the derive cannot thaw `Box<[u64]>`), shaped exactly like
// the named-struct derive output so checkpoints stay format-uniform.
impl serde::Serialize for Histogram {
    fn serialize_bin(&self, out: &mut Vec<u8>) {
        self.bounds[..].serialize_bin(out);
        self.counts[..].serialize_bin(out);
        self.count.serialize_bin(out);
        self.sum.serialize_bin(out);
    }
}

impl serde::Deserialize for Histogram {
    fn deserialize_bin(r: &mut serde::bin::Reader<'_>) -> Result<Self, serde::bin::Error> {
        let at = r.error(serde::bin::ErrorKind::Invalid(Histogram::BAD_SHAPE));
        Histogram::thawed(
            serde::Deserialize::deserialize_bin(r)?,
            serde::Deserialize::deserialize_bin(r)?,
            serde::Deserialize::deserialize_bin(r)?,
            serde::Deserialize::deserialize_bin(r)?,
        )
        .ok_or(at)
    }
}

impl Histogram {
    const BAD_SHAPE: &'static str = "histogram shape invariant violated";

    /// Rebuild from stored parts, refusing a shape `new` could not produce.
    fn thawed(bounds: Vec<u64>, counts: Vec<u64>, count: u64, sum: u128) -> Option<Self> {
        (counts.len() == bounds.len() + 1 && bounds.windows(2).all(|w| w[0] < w[1])).then(|| {
            Histogram {
                bounds: bounds.into_boxed_slice(),
                counts: counts.into_boxed_slice(),
                count,
                sum,
            }
        })
    }

    /// Build an empty histogram. `bounds` must be strictly increasing;
    /// the `+Inf` bucket is implicit.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing: {bounds:?}"
        );
        Histogram {
            bounds: bounds.into(),
            counts: vec![0; bounds.len() + 1].into_boxed_slice(),
            count: 0,
            sum: 0,
        }
    }

    /// Index of the bucket `value` lands in: the first bound `>= value`,
    /// or the `+Inf` bucket. Inlined across crates: every `observe` on the
    /// event loop's histograms runs it.
    #[inline]
    pub fn bucket_for(&self, value: u64) -> usize {
        // Bucket vectors here are short (<= ~16 bounds); a linear scan
        // beats binary search and keeps the fast path branch-predictable.
        self.bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len())
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let i = self.bucket_for(value);
        self.counts[i] += 1;
        self.count += 1;
        self.sum += value as u128;
    }

    /// Fold another histogram with identical bounds into this one.
    /// Element-wise addition, so merging is associative and commutative.
    pub fn merge_from(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "histogram merge across different bucket layouts");
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Bucket upper bounds (exclusive of the implicit `+Inf`).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket (non-cumulative) counts, `+Inf` last.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Cumulative counts per bucket, Prometheus `le` style (`+Inf` last,
    /// always equal to [`Histogram::count`]).
    pub fn cumulative(&self) -> Vec<u64> {
        let mut acc = 0;
        self.counts
            .iter()
            .map(|c| {
                acc += c;
                acc
            })
            .collect()
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u128 {
        self.sum
    }
}

/// The schema: metric descriptors in registration order. Build one per
/// subsystem, then mint sinks from it.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    descs: Vec<Desc>,
    counters: u32,
    gauges: u32,
    hist_bounds: Vec<Box<[u64]>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Register a counter; the returned id indexes every sink minted from
    /// this registry.
    pub fn counter(&mut self, name: &'static str, help: &'static str) -> CounterId {
        self.counter_with_label(name, None, help)
    }

    /// Register a counter carrying a static label, e.g.
    /// `("sim_dropped_packets_total", Some("reason=\"queue\""), ...)`.
    /// Members of one family must be registered contiguously.
    pub fn counter_with_label(
        &mut self,
        name: &'static str,
        label: Option<&'static str>,
        help: &'static str,
    ) -> CounterId {
        let slot = self.counters;
        self.counters += 1;
        self.descs.push(Desc { name, label, help, kind: Kind::Counter, slot });
        CounterId(slot)
    }

    /// Register a gauge (a signed value that can go up and down).
    pub fn gauge(&mut self, name: &'static str, help: &'static str) -> GaugeId {
        let slot = self.gauges;
        self.gauges += 1;
        self.descs.push(Desc { name, label: None, help, kind: Kind::Gauge, slot });
        GaugeId(slot)
    }

    /// Register a fixed-bucket histogram. `bounds` must be strictly
    /// increasing; the `+Inf` bucket is implicit.
    pub fn histogram(
        &mut self,
        name: &'static str,
        help: &'static str,
        bounds: &[u64],
    ) -> HistogramId {
        let slot = self.hist_bounds.len() as u32;
        // Histogram::new validates monotonicity.
        self.hist_bounds.push(Histogram::new(bounds).bounds);
        self.descs.push(Desc { name, label: None, help, kind: Kind::Histogram, slot });
        HistogramId(slot)
    }

    /// Mint a zeroed sink sized for this registry's schema.
    pub fn sink(&self) -> ObsSink {
        ObsSink {
            counters: vec![0; self.counters as usize],
            gauges: vec![0; self.gauges as usize],
            hists: self.hist_bounds.iter().map(|b| Histogram::new(b)).collect(),
            enabled: true,
        }
    }

    /// Number of registered metrics (all kinds).
    pub fn len(&self) -> usize {
        self.descs.len()
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.descs.is_empty()
    }

    /// Every registered metric, in registration order.
    pub fn metrics(&self) -> impl Iterator<Item = Metric<'_>> + '_ {
        self.descs.iter().map(|d| Metric {
            family: d.name,
            label: d.label,
            help: d.help,
            kind: d.kind,
            bounds: match d.kind {
                Kind::Histogram => &self.hist_bounds[d.slot as usize],
                Kind::Counter | Kind::Gauge => &[],
            },
        })
    }

    /// Whether `sink` could have been minted by [`Registry::sink`]: same
    /// counter and gauge counts, same histograms with the same bounds. A
    /// sink thawed from a checkpoint must pass this before any typed id
    /// indexes it — ids are positional, so a misfit reads the wrong slot
    /// or panics out of bounds.
    pub fn fits(&self, sink: &ObsSink) -> bool {
        sink.counters.len() == self.counters as usize
            && sink.gauges.len() == self.gauges as usize
            && sink.hists.len() == self.hist_bounds.len()
            && sink.hists.iter().zip(&self.hist_bounds).all(|(h, b)| h.bounds == *b)
    }

    /// Render a sink as Prometheus text exposition format. Walks metrics
    /// in registration order: byte-deterministic for a given schema and
    /// value set.
    pub fn render(&self, sink: &ObsSink) -> String {
        self.render_prefixed(sink, "")
    }

    /// Like [`Registry::render`], but with `prefix` prepended to every
    /// family name. Instance-scoped subsystems (one registry schema, many
    /// live instances — e.g. per-tenant rollout guards) use this to keep
    /// their families disjoint in a combined dump; the empty prefix is
    /// byte-identical to `render`.
    pub fn render_prefixed(&self, sink: &ObsSink, prefix: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut last_family: Option<&str> = None;
        for d in &self.descs {
            if last_family != Some(d.name) {
                let _ = writeln!(out, "# HELP {prefix}{} {}", d.name, d.help);
                let _ = writeln!(out, "# TYPE {prefix}{} {}", d.name, d.kind.as_str());
                last_family = Some(d.name);
            }
            match d.kind {
                Kind::Counter => {
                    let v = sink.counters[d.slot as usize];
                    match d.label {
                        Some(l) => {
                            let _ = writeln!(out, "{prefix}{}{{{}}} {}", d.name, l, v);
                        }
                        None => {
                            let _ = writeln!(out, "{prefix}{} {}", d.name, v);
                        }
                    }
                }
                Kind::Gauge => {
                    let _ = writeln!(out, "{prefix}{} {}", d.name, sink.gauges[d.slot as usize]);
                }
                Kind::Histogram => {
                    let h = &sink.hists[d.slot as usize];
                    let cum = h.cumulative();
                    for (b, c) in h.bounds.iter().zip(cum.iter()) {
                        let _ = writeln!(out, "{prefix}{}_bucket{{le=\"{}\"}} {}", d.name, b, c);
                    }
                    let _ = writeln!(
                        out,
                        "{prefix}{}_bucket{{le=\"+Inf\"}} {}",
                        d.name,
                        cum.last().copied().unwrap_or(0)
                    );
                    let _ = writeln!(out, "{prefix}{}_sum {}", d.name, h.sum);
                    let _ = writeln!(out, "{prefix}{}_count {}", d.name, h.count);
                }
            }
        }
        out
    }
}

/// A flat vector of metric values matching one [`Registry`] schema.
///
/// Cloneable and `Send`: parallel runners give each worker its own sink
/// and fold them back with [`ObsSink::merge_from`].
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ObsSink {
    counters: Vec<u64>,
    gauges: Vec<i64>,
    hists: Vec<Histogram>,
    enabled: bool,
}

impl ObsSink {
    /// Bump a counter by one.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        if self.enabled {
            self.counters[id.0 as usize] += 1;
        }
    }

    /// Bump a counter by `n`.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        if self.enabled {
            self.counters[id.0 as usize] += n;
        }
    }

    /// Set a gauge.
    #[inline]
    pub fn set(&mut self, id: GaugeId, v: i64) {
        if self.enabled {
            self.gauges[id.0 as usize] = v;
        }
    }

    /// Record a histogram observation.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, v: u64) {
        if self.enabled {
            self.hists[id.0 as usize].record(v);
        }
    }

    /// Read a counter back.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id.0 as usize]
    }

    /// Read a gauge back.
    pub fn gauge(&self, id: GaugeId) -> i64 {
        self.gauges[id.0 as usize]
    }

    /// Read a histogram back.
    pub fn histogram(&self, id: HistogramId) -> &Histogram {
        &self.hists[id.0 as usize]
    }

    /// Disable (or re-enable) recording. Disabled sinks make every bump a
    /// single predictable branch — the baseline for the overhead bench.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether recording is enabled.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Fold another sink minted from the same registry into this one.
    /// Counters and gauges add element-wise, histograms merge bucket-wise,
    /// so the fold is associative — the parallel runner's reduction order
    /// cannot change the result.
    pub fn merge_from(&mut self, other: &ObsSink) {
        assert_eq!(self.counters.len(), other.counters.len(), "sink merge across schemas");
        assert_eq!(self.gauges.len(), other.gauges.len(), "sink merge across schemas");
        assert_eq!(self.hists.len(), other.hists.len(), "sink merge across schemas");
        for (a, b) in self.counters.iter_mut().zip(other.counters.iter()) {
            *a += b;
        }
        for (a, b) in self.gauges.iter_mut().zip(other.gauges.iter()) {
            *a += b;
        }
        for (a, b) in self.hists.iter_mut().zip(other.hists.iter()) {
            a.merge_from(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> (Registry, CounterId, CounterId, GaugeId, HistogramId) {
        let mut reg = Registry::new();
        let a = reg.counter_with_label("pkts_total", Some("kind=\"a\""), "packets by kind");
        let b = reg.counter_with_label("pkts_total", Some("kind=\"b\""), "packets by kind");
        let g = reg.gauge("depth", "instantaneous depth");
        let h = reg.histogram("lat_us", "latency", &[10, 100, 1000]);
        (reg, a, b, g, h)
    }

    #[test]
    fn render_is_deterministic_and_grouped() {
        let (reg, a, b, g, h) = demo();
        let mut s = reg.sink();
        s.inc(a);
        s.add(b, 3);
        s.set(g, -2);
        s.observe(h, 5);
        s.observe(h, 50);
        s.observe(h, 5000);
        let text = reg.render(&s);
        let expect = "\
# HELP pkts_total packets by kind
# TYPE pkts_total counter
pkts_total{kind=\"a\"} 1
pkts_total{kind=\"b\"} 3
# HELP depth instantaneous depth
# TYPE depth gauge
depth -2
# HELP lat_us latency
# TYPE lat_us histogram
lat_us_bucket{le=\"10\"} 1
lat_us_bucket{le=\"100\"} 2
lat_us_bucket{le=\"1000\"} 2
lat_us_bucket{le=\"+Inf\"} 3
lat_us_sum 5055
lat_us_count 3
";
        assert_eq!(text, expect);
        assert_eq!(text, reg.render(&s), "render must be stable");
    }

    #[test]
    fn prefixed_render_renames_every_family_and_empty_prefix_is_identity() {
        let (reg, a, _, g, h) = demo();
        let mut s = reg.sink();
        s.inc(a);
        s.set(g, 4);
        s.observe(h, 42);
        assert_eq!(reg.render_prefixed(&s, ""), reg.render(&s));
        let prefixed = reg.render_prefixed(&s, "t3_");
        for line in prefixed.lines() {
            let body = line.strip_prefix("# HELP ").or_else(|| line.strip_prefix("# TYPE ")).unwrap_or(line);
            assert!(body.starts_with("t3_"), "unprefixed line in output: {line}");
        }
        assert_eq!(prefixed.replace("t3_", ""), reg.render(&s));
    }

    #[test]
    fn histogram_boundary_values_land_in_lower_bucket() {
        let mut h = Histogram::new(&[10, 100]);
        h.record(10); // on the bound: le="10"
        h.record(11);
        assert_eq!(h.bucket_counts(), &[1, 1, 0]);
        assert_eq!(h.cumulative(), vec![1, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_rejected() {
        Histogram::new(&[10, 10]);
    }

    #[test]
    fn merge_adds_everything() {
        let (reg, a, _, g, h) = demo();
        let mut s1 = reg.sink();
        let mut s2 = reg.sink();
        s1.inc(a);
        s2.add(a, 4);
        s1.set(g, 2);
        s2.set(g, 5);
        s1.observe(h, 7);
        s2.observe(h, 700);
        s1.merge_from(&s2);
        assert_eq!(s1.counter(a), 5);
        assert_eq!(s1.gauge(g), 7);
        assert_eq!(s1.histogram(h).count(), 2);
        assert_eq!(s1.histogram(h).sum(), 707);
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let (reg, a, _, g, h) = demo();
        let mut s = reg.sink();
        s.set_enabled(false);
        s.inc(a);
        s.set(g, 9);
        s.observe(h, 1);
        assert_eq!(s.counter(a), 0);
        assert_eq!(s.gauge(g), 0);
        assert_eq!(s.histogram(h).count(), 0);
    }
}
