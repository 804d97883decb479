//! Running one workload: the end-to-end run (tracing off) and the traced
//! pass, and the statistics that go into their result lines.

use crate::manifest::{Metric, END_TO_END, PER_LAYER, SPECIFIC};
use crate::trace::Trace;
use crate::workloads::{Spec, Specific, Verdict, Workload};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// How a run is sized: one discarded warm-up, then measured iterations
/// until there are `repeats` of them and `seconds` have passed. The smoke
/// mode shortens the campus day, sets up once and skips the warm-up.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    pub repeats: usize,
    pub seconds: f64,
    pub smoke: bool,
}

/// Where the benchmark writes: traces, the A/A report, WAL scratch space.
/// Inside the package directory, hence inside any checkout it runs from.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Median of `samples` (mean of the middle two for an even count). Sorts
/// in place.
pub fn median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "median of nothing");
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(percentile, value)`; `None` when even the median lacks them.
/// `sorted` must be ascending.
pub fn tail_percentile(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n < 21 {
        return None;
    }
    let index = n - 11;
    Some((100.0 * index as f64 / n as f64, sorted[index]))
}

/// The 99th percentile, or the highest one below it that `sorted` supports
/// by [`tail_percentile`]'s rule.
pub fn p99_or_supported(sorted: &[f64]) -> Option<(f64, f64)> {
    let (supported, value) = tail_percentile(sorted)?;
    if supported <= 99.0 {
        return Some((supported, value));
    }
    Some((99.0, sorted[sorted.len() * 99 / 100]))
}

/// `VmHWM` of this process in megabytes: the most physical memory it has
/// held at once.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib * 1024.0 / 1e6)
}

/// Counts that end up in a result line's `attempted` / `failed`.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Digest of the first iteration; later ones must match it.
    digest: Option<u64>,
}

impl Tally {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn digest(&self) -> u64 {
        self.digest.unwrap_or(0)
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }
}

/// One iteration with panics caught: an operation is one top-level span,
/// and each failed check, failed call or panic fails one of them.
/// Returns the iteration's wall-clock and workload-specific readings, or
/// `None` after a panic.
pub fn iterate(
    workload: &mut dyn Workload,
    t: &mut Trace,
    tally: &mut Tally,
) -> Option<(Duration, Specific)> {
    t.begin_run();
    let outcome = catch_unwind(AssertUnwindSafe(|| workload.iterate(t)));
    tally.attempted += t.ops().max(1);
    match outcome {
        Ok(Verdict {
            digest,
            failures,
            specific,
        }) => {
            for failure in failures {
                tally.fail(failure);
            }
            if *tally.digest.get_or_insert(digest) != digest {
                tally.fail(format!(
                    "digest {digest:016x} differs from the first iteration's"
                ));
            }
            Some((t.wall(), specific))
        }
        Err(panic) => {
            let what = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string payload".into());
            tally.fail(format!("panic: {what}"));
            None
        }
    }
}

/// Untraced iterations of one workload, pooled.
#[derive(Default)]
struct Samples {
    walls: Vec<f64>,
    recover_s: Vec<f64>,
    durable_bytes: Vec<u64>,
    query_us: Vec<f64>,
}

impl Samples {
    /// Iterate until `repeats` samples exist and `seconds` have passed, or
    /// an iteration panics.
    fn collect(
        workload: &mut dyn Workload,
        t: &mut Trace,
        tally: &mut Tally,
        repeats: usize,
        seconds: f64,
    ) -> Samples {
        let mut samples = Samples::default();
        let started = Instant::now();
        while samples.walls.len() < repeats || started.elapsed().as_secs_f64() < seconds {
            let Some((wall, specific)) = iterate(workload, t, tally) else {
                break;
            };
            samples.walls.push(wall.as_secs_f64());
            samples.recover_s.extend(specific.recover_s);
            samples.durable_bytes.extend(specific.durable_bytes);
            samples
                .query_us
                .extend(specific.query_ns.iter().map(|&ns| ns as f64 / 1e3));
        }
        samples
    }

    /// Median wall-clock; NaN when the first iteration panicked (the run
    /// is already marked incorrect).
    fn wall_s(&self) -> f64 {
        if self.walls.is_empty() {
            f64::NAN
        } else {
            median(&mut self.walls.clone())
        }
    }

    /// The workload-specific end-to-end metrics these samples support.
    fn specific(&mut self, tally: &mut Tally) -> Vec<(&'static Metric, f64)> {
        let [recover_s, durable_bytes, query_p50_us, query_p99_us] = &SPECIFIC;
        let mut values = Vec::new();
        if !self.recover_s.is_empty() {
            values.push((recover_s, median(&mut self.recover_s)));
        }
        if let Some(&first) = self.durable_bytes.first() {
            if self.durable_bytes.iter().any(|&b| b != first) {
                tally.fail(format!(
                    "durable_bytes varies between iterations: {:?}",
                    self.durable_bytes
                ));
            }
            values.push((durable_bytes, first as f64));
        }
        self.query_us.sort_by(f64::total_cmp);
        if let Some((percentile, tail)) = p99_or_supported(&self.query_us) {
            eprintln!(
                "query latency: {} samples, tail reported at p{percentile:.1}",
                self.query_us.len()
            );
            values.push((query_p50_us, median(&mut self.query_us)));
            values.push((query_p99_us, tail));
        }
        values
    }
}

pub struct Measured {
    /// `(metric, value)` for every end-to-end metric of `BENCHMARK.json`.
    pub values: Vec<(&'static Metric, f64)>,
    /// The workload-specific end-to-end metrics this workload has.
    pub specific: Vec<(&'static Metric, f64)>,
    /// Wall-clocks of the measured iterations, seconds, in run order.
    pub walls: Vec<f64>,
    pub tally: Tally,
}

/// The end-to-end run of one workload, tracing off: set up three times
/// (keeping the last, so `setup_s` is a median), one discarded warm-up,
/// then the measured iterations.
pub fn measure(spec: &Spec, cfg: RunConfig) -> Measured {
    let mut t = Trace::new(false);
    let mut setup_seconds = Vec::new();
    let mut workload = None;
    for _ in 0..if cfg.smoke { 1 } else { 3 } {
        // One set-up alive at a time, so the peak is an iteration's.
        drop(workload.take());
        let started = Instant::now();
        workload = Some((spec.setup)(cfg.seed, cfg.smoke, &mut t));
        setup_seconds.push(started.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("set up at least once");

    let mut tally = Tally::default();
    let warm = cfg.smoke || iterate(workload.as_mut(), &mut t, &mut tally).is_some();
    let mut samples = if warm {
        Samples::collect(
            workload.as_mut(),
            &mut t,
            &mut tally,
            cfg.repeats,
            cfg.seconds,
        )
    } else {
        Samples::default()
    };
    let readings = [samples.wall_s(), median(&mut setup_seconds), peak_rss_mb()];
    Measured {
        values: END_TO_END.iter().zip(readings).collect(),
        specific: samples.specific(&mut tally),
        walls: samples.walls,
        tally,
    }
}

/// Layer metrics that are a quantity under another name or a ratio of
/// two: `(metric, numerator, denominator, scale)`. A quantity is a value a
/// workload reported under that name, else the self seconds of the spans
/// of that name.
const DERIVED: [(&str, &str, Option<&str>, f64); 7] = [
    ("netsim.run_self_s", "netsim.run", None, 1.0),
    (
        "netsim.ns_per_event",
        "netsim.run",
        Some("netsim.events"),
        1e9,
    ),
    // Base: the sequential run of the same injections in set-up.
    (
        "netsim.shard.speedup",
        "netsim.run",
        Some("netsim.shard.run"),
        1.0,
    ),
    (
        "capture.ns_per_pkt",
        "capture.on_tap",
        Some("capture.observed"),
        1e9,
    ),
    (
        "datastore.ingest_rec_per_s",
        "capture.captured",
        Some("datastore.ingest"),
        1.0,
    ),
    (
        "datastore.wal_append_rec_per_s",
        "datastore.wal_records",
        Some("datastore.wal_append"),
        1.0,
    ),
    (
        "privacy.scrub_ns_per_rec",
        "privacy.scrub",
        Some("datastore.wal_records"),
        1e9,
    ),
];

pub struct Traced {
    /// `(metric, value)` for the workload-specific end-to-end metrics and
    /// every per-layer metric, 0 where this workload has nothing to report.
    pub values: Vec<(&'static Metric, f64)>,
    /// Share of the traced iteration's wall-clock that the registered
    /// `_s` metrics account for.
    pub accounted_share: f64,
    pub tally: Tally,
}

/// The traced pass of one workload: set up, a warm-up and two iterations
/// untraced (the base of `trace.overhead_share`, and where the
/// workload-specific end-to-end metrics are read), one with spans on, one
/// with the allocator counting, then the workload's probes. Writes
/// `out/trace-<workload>.json`.
pub fn traced(spec: &Spec, cfg: RunConfig) -> Traced {
    // Set-up spans are kept apart so that, say, the capture run that
    // prepares `learn_sweep` is not mistaken for part of its iteration.
    let mut setup_trace = Trace::new(true);
    crate::alloc::set_counting(true);
    let mut workload = (spec.setup)(cfg.seed, cfg.smoke, &mut setup_trace);
    crate::alloc::set_counting(false);

    let mut t = Trace::new(false);
    let mut tally = Tally::default();
    let warm = cfg.smoke || iterate(workload.as_mut(), &mut t, &mut tally).is_some();
    let mut untraced = if warm {
        let repeats = if cfg.smoke { 1 } else { 2 };
        Samples::collect(workload.as_mut(), &mut t, &mut tally, repeats, 0.0)
    } else {
        Samples::default()
    };
    t.set_recording(true);
    let traced_s = iterate(workload.as_mut(), &mut t, &mut tally)
        .map_or(f64::NAN, |(wall, _)| wall.as_secs_f64());
    let mut own = t.self_seconds();
    // Once more with the allocator counting. Counting taxes
    // allocation-heavy layers (two threads fitting a forest share its
    // counters), so this pass contributes its allocation counts only.
    let mut counted = Trace::new(true);
    crate::alloc::set_counting(true);
    let (_, peak_heap) = crate::alloc::peak_growth(|| {
        iterate(workload.as_mut(), &mut counted, &mut tally);
    });
    crate::alloc::set_counting(false);
    for (name, value) in counted.values() {
        if name.contains(".allocs_per_") {
            t.set(name, value);
        }
    }
    if tally.correct() {
        t.begin_run();
        workload.probes(&mut t);
    }
    drop(workload);

    let dir = out_dir();
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("trace-{}.json", spec.name)), t.to_json()));
    if let Err(e) = written {
        eprintln!("warning: trace for {} not written: {e}", spec.name);
    }

    let layer_seconds = |name: &str| name.strip_suffix("_s").and_then(|span| own.get(span));
    let accounted: f64 = PER_LAYER
        .iter()
        .filter_map(|m| layer_seconds(m.name))
        .sum::<f64>()
        + own.get("netsim.run").copied().unwrap_or(0.0);
    // Probe and set-up spans and values answer to the same lookups as the
    // iteration's, which win where a name occurs in both.
    let mut values: BTreeMap<&str, f64> = t.values().collect();
    for (name, value) in setup_trace.values() {
        values.entry(name).or_insert(value);
    }
    for trace in [&t, &setup_trace] {
        for (name, seconds) in trace.self_seconds() {
            own.entry(name).or_insert(seconds);
        }
    }
    values.insert("trace.wall_s", traced_s);
    values.insert("trace.overhead_share", traced_s / untraced.wall_s() - 1.0);
    values.insert("mem.peak_heap_mb", peak_heap as f64 / 1e6);
    let quantity = |name: &str| values.get(name).or_else(|| own.get(name)).copied();

    let specific = untraced.specific(&mut tally);
    let layer = |metric: &'static Metric| -> f64 {
        if let Some(&(_, num, den, scale)) = DERIVED.iter().find(|d| d.0 == metric.name) {
            let ratio = match den {
                None => quantity(num),
                Some(den) => quantity(num).zip(quantity(den)).map(|(num, den)| num / den),
            };
            return ratio.map_or(0.0, |r| r * scale);
        }
        values
            .get(metric.name)
            .or_else(|| {
                metric
                    .name
                    .strip_suffix("_s")
                    .and_then(|span| own.get(span))
            })
            .copied()
            .unwrap_or(0.0)
    };
    let values = SPECIFIC
        .iter()
        .map(|metric| {
            let value = specific.iter().find(|(m, _)| *m == metric);
            (metric, value.map_or(0.0, |&(_, v)| v))
        })
        .chain(PER_LAYER.iter().map(|metric| (metric, layer(metric))))
        .collect();
    Traced {
        values,
        accounted_share: accounted / traced_s,
        tally,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted_input() {
        assert_eq!(median(&mut [3.0]), 3.0);
        assert_eq!(median(&mut [5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        let sorted: Vec<f64> = (0..1000).map(f64::from).collect();
        let (pct, value) = tail_percentile(&sorted).unwrap();
        assert_eq!(value, 989.0);
        assert!((pct - 98.9).abs() < 1e-9);
        assert_eq!(sorted.iter().filter(|&&v| v > value).count(), 10);

        // 21 samples support exactly the median's neighbour; 20 nothing.
        let few: Vec<f64> = (0..21).map(f64::from).collect();
        assert_eq!(tail_percentile(&few).unwrap().1, 10.0);
        assert_eq!(tail_percentile(&few[..20]), None);
    }

    #[test]
    fn p99_is_reported_once_ten_samples_lie_beyond_it() {
        // 1,000 samples support p98.9 only; 2,000 support p99.
        let thousand: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(p99_or_supported(&thousand), tail_percentile(&thousand));
        let two_thousand: Vec<f64> = (0..2000).map(f64::from).collect();
        assert_eq!(p99_or_supported(&two_thousand), Some((99.0, 1980.0)));
        assert_eq!(p99_or_supported(&thousand[..20]), None);
    }

    #[test]
    fn every_derived_metric_is_registered() {
        for (name, ..) in DERIVED {
            assert!(
                PER_LAYER.iter().any(|m| m.name == name),
                "{name} is derived but not registered"
            );
        }
    }
}
