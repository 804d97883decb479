//! Time-window aggregates per destination host — the control-plane /
//! cloud feature set: richer context than any single packet, at the cost
//! of waiting for the window to fill (the latency/accuracy trade of
//! experiment E8).

use crate::label::LabelMode;
use campuslab_capture::{Direction, PacketRecord};
use campuslab_ml::Dataset;
use std::collections::{BTreeMap, HashMap};
use std::net::IpAddr;


/// Column names, in order.
pub const WINDOW_FEATURES: [&str; 11] = [
    "pkt_count",
    "byte_count",
    "distinct_srcs",
    "src_entropy",
    "udp_frac",
    "dns_src_frac",
    "syn_frac",
    "inbound_frac",
    "mean_pkt_len",
    "max_pkt_len",
    "rst_frac",
];

/// Windowing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WindowConfig {
    /// Tumbling window length.
    pub window_ns: u64,
    /// Ignore (dst, window) cells with fewer packets than this — tiny
    /// cells carry more noise than signal.
    pub min_packets: usize,
}

impl Default for WindowConfig {
    fn default() -> Self {
        WindowConfig { window_ns: 1_000_000_000, min_packets: 3 }
    }
}

/// One aggregated cell: traffic toward `dst` during window `index`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WindowCell {
    pub dst: IpAddr,
    pub window_index: u64,
    pub features: Vec<f64>,
    /// Majority label over member packets under the given mode.
    pub label: usize,
    pub packets: usize,
}

/// Per-cell accumulator shared by the batch [`aggregate`] and the
/// incremental [`WindowStream`]: both absorb records and finish cells
/// through this one implementation, so streaming == batch holds by
/// construction, not by parallel maintenance of two formulas. Declaration
/// order is the accumulator's checkpoint wire order.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
struct Acc {
    pkts: u64,
    bytes: u64,
    // BTreeMap so the entropy float sum below always runs in source-address
    // order: summation order is part of the byte-determinism contract.
    srcs: BTreeMap<IpAddr, u64>,
    udp: u64,
    dns_src: u64,
    syn: u64,
    inbound: u64,
    rst: u64,
    max_len: u32,
    labels: BTreeMap<usize, u64>,
}

impl Acc {
    fn absorb(&mut self, r: &PacketRecord, mode: LabelMode) {
        self.pkts += 1;
        self.bytes += u64::from(r.wire_len);
        *self.srcs.entry(r.src).or_insert(0) += 1;
        self.udp += u64::from(r.protocol == 17);
        self.dns_src += u64::from(r.src_port == 53);
        self.syn += u64::from(r.tcp_flags.syn && !r.tcp_flags.ack);
        self.rst += u64::from(r.tcp_flags.rst);
        self.inbound += u64::from(r.direction == Direction::Inbound);
        self.max_len = self.max_len.max(r.wire_len);
        *self.labels.entry(mode.label_packet(r)).or_insert(0) += 1;
    }

    fn finish(&self, dst: IpAddr, window_index: u64) -> WindowCell {
        let n = self.pkts as f64;
        // Attacks should dominate labeling even when mixed with benign
        // chatter: prefer the highest-count *nonzero* label when it holds
        // at least 25% of the window. Ties break toward the smallest label
        // id — an explicit rule, never map iteration order.
        let mut label = majority(&self.labels, |_| true).expect("non-empty cell");
        if label == 0 {
            if let Some(alt) = majority(&self.labels, |l| l != 0) {
                if self.labels[&alt] as f64 >= n * 0.25 {
                    label = alt;
                }
            }
        }
        // Shannon entropy of the source distribution, in bits: a
        // reflection flood spreads mass across many reflectors where a
        // normal conversation concentrates on a handful of peers.
        let src_entropy: f64 = self
            .srcs
            .values()
            .map(|&c| {
                let p = c as f64 / n;
                -p * p.log2()
            })
            .sum();
        WindowCell {
            dst,
            window_index,
            features: vec![
                n,
                self.bytes as f64,
                self.srcs.len() as f64,
                src_entropy,
                self.udp as f64 / n,
                self.dns_src as f64 / n,
                self.syn as f64 / n,
                self.inbound as f64 / n,
                self.bytes as f64 / n,
                f64::from(self.max_len),
                self.rst as f64 / n,
            ],
            label,
            packets: self.pkts as usize,
        }
    }
}

/// Highest-count label among those passing `keep`; ties break toward the
/// smallest label id (strict `>` over an ascending-ordered map).
fn majority(labels: &BTreeMap<usize, u64>, keep: impl Fn(usize) -> bool) -> Option<usize> {
    let mut best: Option<(usize, u64)> = None;
    for (&l, &c) in labels {
        if keep(l) && best.is_none_or(|(_, bc)| c > bc) {
            best = Some((l, c));
        }
    }
    best.map(|(l, _)| l)
}

/// Aggregate time-ordered packet records into per-destination window cells.
/// Panics on a zero-length window.
pub fn aggregate(records: &[PacketRecord], cfg: WindowConfig, mode: LabelMode) -> Vec<WindowCell> {
    assert!(cfg.window_ns > 0, "window_ns = {}: a window must be at least 1 ns long", cfg.window_ns);
    let mut cells: HashMap<(IpAddr, u64), Acc> = HashMap::new();
    for r in records {
        let w = r.ts_ns / cfg.window_ns;
        cells.entry((r.dst, w)).or_default().absorb(r, mode);
    }
    let mut out: Vec<WindowCell> = cells
        .into_iter()
        .filter(|(_, acc)| acc.pkts as usize >= cfg.min_packets)
        .map(|((dst, window_index), acc)| acc.finish(dst, window_index))
        .collect();
    out.sort_by_key(|c| (c.window_index, c.dst));
    out
}

/// Incremental window aggregator: absorbs records one at a time (in
/// nondecreasing timestamp order) and seals a window's cells as soon as a
/// later window opens. Over any time-ordered record range the concatenated
/// output is byte-identical to a one-shot [`aggregate`] over the same
/// range — the differential test in `tests/streaming_differential.rs` pins
/// that law; DriftPilot relies on it to learn from live taps.
///
/// The stream is its own checkpoint image: a clone (open accumulators
/// included) serializes byte-deterministically — the maps are ordered —
/// and a deserialized stream continues byte-identically to one that
/// never stopped.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct WindowStream {
    cfg: WindowConfig,
    mode: LabelMode,
    /// Accumulators for windows not yet sealed, in emit order.
    open: BTreeMap<(u64, IpAddr), Acc>,
    /// Windows below this index have been sealed and emitted.
    floor: u64,
}

impl WindowStream {
    /// New empty stream. Panics on a zero-length window.
    pub fn new(cfg: WindowConfig, mode: LabelMode) -> Self {
        assert!(cfg.window_ns > 0, "window_ns = {}: a window must be at least 1 ns long", cfg.window_ns);
        WindowStream { cfg, mode, open: BTreeMap::new(), floor: 0 }
    }

    /// Absorb one record, appending any cells its arrival seals onto `out`.
    ///
    /// Records must arrive in nondecreasing window order (time order is
    /// sufficient) — a record for an already-sealed window is a caller bug.
    pub fn push(&mut self, r: &PacketRecord, out: &mut Vec<WindowCell>) {
        let w = r.ts_ns / self.cfg.window_ns;
        assert!(
            w >= self.floor,
            "record for sealed window {w} (floor {}): feed records in time order",
            self.floor
        );
        if w > self.floor {
            self.seal_below(w, out);
        }
        self.open.entry((w, r.dst)).or_default().absorb(r, self.mode);
    }

    /// Seal every still-open window and append its cells onto `out`.
    pub fn finish(mut self, out: &mut Vec<WindowCell>) {
        self.seal_below(u64::MAX, out);
    }

    /// Number of records currently held in open (unsealed) windows.
    pub fn pending(&self) -> usize {
        self.open.values().map(|a| a.pkts as usize).sum()
    }

    fn seal_below(&mut self, w: u64, out: &mut Vec<WindowCell>) {
        // BTreeMap iteration is (window_index, dst)-ordered — the same
        // order `aggregate` sorts into.
        let rest = self.open.split_off(&(w, ip_min()));
        for ((wi, dst), acc) in std::mem::replace(&mut self.open, rest) {
            if acc.pkts as usize >= self.cfg.min_packets {
                out.push(acc.finish(dst, wi));
            }
        }
        self.floor = w;
    }
}

/// The smallest `IpAddr` under its `Ord` (v4 sorts before v6).
fn ip_min() -> IpAddr {
    IpAddr::from([0u8, 0, 0, 0])
}

/// Build a window-level dataset.
pub fn window_dataset(records: &[PacketRecord], cfg: WindowConfig, mode: LabelMode) -> Dataset {
    let cells = aggregate(records, cfg, mode);
    let x: Vec<Vec<f64>> = cells.iter().map(|c| c.features.clone()).collect();
    let y: Vec<usize> = cells.iter().map(|c| c.label).collect();
    let mut d = Dataset::new(x, y, WINDOW_FEATURES.iter().map(|s| s.to_string()).collect());
    d.n_classes = d.n_classes.max(mode.min_classes());
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use campuslab_capture::TcpFlags;

    fn rec(ts: u64, src: [u8; 4], dst: [u8; 4], proto: u8, sport: u16, attack: u16) -> PacketRecord {
        PacketRecord {
            ts_ns: ts,
            direction: Direction::Inbound,
            src: IpAddr::from(src),
            dst: IpAddr::from(dst),
            protocol: proto,
            src_port: sport,
            dst_port: 40_000,
            wire_len: 1000,
            ttl: 64,
            tcp_flags: TcpFlags::default(),
            flow_id: 0,
            label_app: 1,
            label_attack: attack,
        }
    }

    #[test]
    fn amplification_window_has_the_signature() {
        // 20 DNS responses from distinct resolvers to one victim + 3
        // benign packets to another host.
        let mut records = Vec::new();
        for i in 0..20u8 {
            records.push(rec(1_000 * u64::from(i), [203, 0, 113, i + 1], [10, 1, 1, 10], 17, 53, 1));
        }
        for i in 0..3u8 {
            records.push(rec(2_000 * u64::from(i), [203, 0, 113, 99], [10, 1, 2, 20], 6, 443, 0));
        }
        let cells = aggregate(&records, WindowConfig::default(), LabelMode::BinaryAttack);
        assert_eq!(cells.len(), 2);
        let victim = cells
            .iter()
            .find(|c| c.dst == IpAddr::from([10, 1, 1, 10]))
            .unwrap();
        assert_eq!(victim.label, 1);
        assert_eq!(victim.features[0], 20.0); // pkt_count
        assert_eq!(victim.features[2], 20.0); // distinct srcs
        // 20 uniform sources -> log2(20) bits of source entropy.
        assert!((victim.features[3] - 20f64.log2()).abs() < 1e-9);
        assert_eq!(victim.features[4], 1.0); // udp_frac
        assert_eq!(victim.features[5], 1.0); // dns_src_frac
        let other = cells.iter().find(|c| c.dst == IpAddr::from([10, 1, 2, 20])).unwrap();
        assert_eq!(other.label, 0);
        assert_eq!(other.features[4], 0.0); // udp_frac
        // A single source carries zero entropy.
        assert_eq!(other.features[3], 0.0);
    }

    #[test]
    fn windows_are_tumbling() {
        let records = vec![
            rec(100, [1, 1, 1, 1], [10, 0, 0, 1], 17, 53, 0),
            rec(200, [1, 1, 1, 2], [10, 0, 0, 1], 17, 53, 0),
            rec(300, [1, 1, 1, 3], [10, 0, 0, 1], 17, 53, 0),
            // Next window.
            rec(1_000_000_100, [1, 1, 1, 1], [10, 0, 0, 1], 17, 53, 0),
            rec(1_000_000_200, [1, 1, 1, 1], [10, 0, 0, 1], 17, 53, 0),
            rec(1_000_000_300, [1, 1, 1, 1], [10, 0, 0, 1], 17, 53, 0),
        ];
        let cells = aggregate(&records, WindowConfig::default(), LabelMode::BinaryAttack);
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].window_index, 0);
        assert_eq!(cells[1].window_index, 1);
        assert_eq!(cells[0].features[2], 3.0);
        assert_eq!(cells[1].features[2], 1.0);
    }

    #[test]
    fn minority_attack_label_dominates_when_substantial() {
        // 6 benign + 4 attack packets in one cell: attack is 40% >= 25%.
        let mut records = Vec::new();
        for i in 0..6u64 {
            records.push(rec(i, [1, 1, 1, 1], [10, 0, 0, 1], 6, 443, 0));
        }
        for i in 6..10u64 {
            records.push(rec(i, [2, 2, 2, 2], [10, 0, 0, 1], 17, 53, 1));
        }
        let cells = aggregate(&records, WindowConfig::default(), LabelMode::BinaryAttack);
        assert_eq!(cells[0].label, 1);
    }

    #[test]
    fn small_cells_are_dropped() {
        let records = vec![rec(0, [1, 1, 1, 1], [10, 0, 0, 1], 17, 53, 0)];
        let cells = aggregate(&records, WindowConfig::default(), LabelMode::BinaryAttack);
        assert!(cells.is_empty());
    }

    #[test]
    fn stream_matches_batch_on_time_ordered_records() {
        let mut records = Vec::new();
        for i in 0..20u8 {
            records.push(rec(
                40_000_000 * u64::from(i),
                [203, 0, 113, i % 5 + 1],
                [10, 1, 1, 10],
                17,
                53,
                1,
            ));
        }
        for i in 0..9u8 {
            records.push(rec(
                900_000_000 + 30_000_000 * u64::from(i),
                [198, 51, 100, i + 1],
                [10, 1, 2, 20],
                6,
                443,
                0,
            ));
        }
        records.sort_by_key(|r| r.ts_ns);
        let batch = aggregate(&records, WindowConfig::default(), LabelMode::BinaryAttack);
        let mut streamed = Vec::new();
        let mut stream = WindowStream::new(WindowConfig::default(), LabelMode::BinaryAttack);
        for r in &records {
            stream.push(r, &mut streamed);
        }
        stream.finish(&mut streamed);
        assert_eq!(streamed, batch);
    }

    #[test]
    fn stream_seals_windows_as_later_ones_open() {
        let cfg = WindowConfig::default();
        let mut stream = WindowStream::new(cfg, LabelMode::BinaryAttack);
        let mut out = Vec::new();
        for i in 0..5u64 {
            stream.push(&rec(i * 1_000, [1, 1, 1, i as u8], [10, 0, 0, 1], 17, 53, 0), &mut out);
        }
        assert!(out.is_empty(), "window 0 still open");
        assert_eq!(stream.pending(), 5);
        // First record of window 2 seals windows 0 and 1 (1 is empty).
        stream.push(&rec(2_000_000_100, [1, 1, 1, 1], [10, 0, 0, 1], 17, 53, 0), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].window_index, 0);
        assert_eq!(out[0].packets, 5);
        assert_eq!(stream.pending(), 1);
    }

    #[test]
    #[should_panic(expected = "window_ns = 0")]
    fn aggregate_refuses_a_zero_length_window() {
        let records = vec![rec(0, [1, 1, 1, 1], [10, 0, 0, 1], 17, 53, 0)];
        aggregate(&records, WindowConfig { window_ns: 0, min_packets: 1 }, LabelMode::BinaryAttack);
    }

    #[test]
    #[should_panic(expected = "window_ns = 0")]
    fn stream_refuses_a_zero_length_window() {
        WindowStream::new(WindowConfig { window_ns: 0, min_packets: 1 }, LabelMode::BinaryAttack);
    }

    #[test]
    #[should_panic(expected = "sealed window")]
    fn stream_rejects_records_for_sealed_windows() {
        let mut stream = WindowStream::new(WindowConfig::default(), LabelMode::BinaryAttack);
        let mut out = Vec::new();
        stream.push(&rec(3_000_000_000, [1, 1, 1, 1], [10, 0, 0, 1], 17, 53, 0), &mut out);
        stream.push(&rec(100, [1, 1, 1, 1], [10, 0, 0, 1], 17, 53, 0), &mut out);
    }

    #[test]
    fn frozen_stream_resumes_byte_identically() {
        // Stop mid-window, round-trip through JSON, and finish: the cells
        // must match a stream that never stopped.
        let cfg = WindowConfig::default();
        let mut records = Vec::new();
        for i in 0..30u64 {
            records.push(rec(
                i * 90_000_000,
                [1, 1, 1, (i % 7) as u8],
                [10, 0, 0, (i % 2) as u8],
                if i % 3 == 0 { 6 } else { 17 },
                53,
                (i % 2) as u16,
            ));
        }
        let cut = 17;
        let mut uninterrupted = Vec::new();
        let mut s1 = WindowStream::new(cfg, LabelMode::BinaryAttack);
        for r in &records {
            s1.push(r, &mut uninterrupted);
        }
        s1.finish(&mut uninterrupted);

        let mut resumed = Vec::new();
        let mut s2 = WindowStream::new(cfg, LabelMode::BinaryAttack);
        for r in &records[..cut] {
            s2.push(r, &mut resumed);
        }
        let mut s3: WindowStream = serde::bin::from_slice(&serde::bin::to_vec(&s2)).unwrap();
        assert_eq!(s3.pending(), s2.pending());
        for r in &records[cut..] {
            s3.push(r, &mut resumed);
        }
        s3.finish(&mut resumed);
        assert_eq!(resumed, uninterrupted);
    }

    #[test]
    fn label_ties_break_toward_the_smallest_id() {
        // Two nonzero labels with equal counts: the cell label must be the
        // smaller id, by rule, regardless of accumulation order.
        let mut records = Vec::new();
        for i in 0..3u64 {
            records.push(rec(i, [1, 1, 1, 1], [10, 0, 0, 1], 17, 53, 2));
        }
        for i in 3..6u64 {
            records.push(rec(i, [2, 2, 2, 2], [10, 0, 0, 1], 17, 53, 1));
        }
        let cells = aggregate(&records, WindowConfig::default(), LabelMode::BinaryAttack);
        assert_eq!(cells.len(), 1);
        // BinaryAttack maps both to 1, so exercise the multi-class mode too.
        let multi = aggregate(&records, WindowConfig::default(), LabelMode::AttackKind);
        assert_eq!(multi.len(), 1);
        assert_eq!(multi[0].label, 1);
    }

    #[test]
    fn dataset_shape() {
        let mut records = Vec::new();
        for i in 0..10u64 {
            records.push(rec(i * 100, [1, 1, 1, (i % 3) as u8], [10, 0, 0, 1], 17, 53, 0));
        }
        let d = window_dataset(&records, WindowConfig::default(), LabelMode::BinaryAttack);
        assert_eq!(d.len(), 1);
        assert_eq!(d.n_features(), WINDOW_FEATURES.len());
        assert_eq!(d.n_classes, 2);
    }
}
