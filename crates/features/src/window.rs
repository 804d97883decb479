//! Time-window aggregates per destination host — the control-plane /
//! cloud feature set: richer context than any single packet, at the cost
//! of waiting for the window to fill (the latency/accuracy trade of
//! experiment E8).

use crate::label::LabelMode;
use campuslab_capture::{Direction, FxHashMap, PacketRecord};
use campuslab_ml::Dataset;
use std::collections::BTreeMap;
use std::net::IpAddr;


/// One column of the window feature row. Discriminants index
/// [`WINDOW_ORDER`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowFeature {
    PktCount,
    ByteCount,
    DistinctSrcs,
    SrcEntropy,
    UdpFrac,
    DnsSrcFrac,
    SynFrac,
    InboundFrac,
    MeanPktLen,
    MaxPktLen,
    RstFrac,
}

/// Features in canonical (row) order.
pub const WINDOW_ORDER: [WindowFeature; 11] = [
    WindowFeature::PktCount,
    WindowFeature::ByteCount,
    WindowFeature::DistinctSrcs,
    WindowFeature::SrcEntropy,
    WindowFeature::UdpFrac,
    WindowFeature::DnsSrcFrac,
    WindowFeature::SynFrac,
    WindowFeature::InboundFrac,
    WindowFeature::MeanPktLen,
    WindowFeature::MaxPktLen,
    WindowFeature::RstFrac,
];

/// Feature names in canonical order: the window row's column names.
pub const WINDOW_FEATURES: [&str; WINDOW_ORDER.len()] = [
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

impl WindowFeature {
    /// The feature's column in the row.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The feature's column name.
    pub fn name(self) -> &'static str {
        WINDOW_FEATURES[self.index()]
    }

    /// True for a total that grows with the share of the window seen
    /// (the rest are ratios, maxima and counts of distinct values): a
    /// partly observed window scales these by its coverage.
    pub fn scales_with_coverage(self) -> bool {
        matches!(self, WindowFeature::PktCount | WindowFeature::ByteCount)
    }
}

/// Windowing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq)]
pub struct WindowCell {
    pub dst: IpAddr,
    pub window_index: u64,
    pub features: Vec<f64>,
    /// Majority label over member packets under the given mode.
    pub label: usize,
    pub packets: usize,
}

/// One (destination, window) cell's running totals while [`aggregate`]
/// absorbs its records.
#[derive(Default)]
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
        let fraction = |count: u64| count as f64 / n;
        WindowCell {
            dst,
            window_index,
            features: WINDOW_ORDER
                .iter()
                .map(|feature| match feature {
                    WindowFeature::PktCount => n,
                    WindowFeature::ByteCount => self.bytes as f64,
                    WindowFeature::DistinctSrcs => self.srcs.len() as f64,
                    WindowFeature::SrcEntropy => src_entropy,
                    WindowFeature::UdpFrac => fraction(self.udp),
                    WindowFeature::DnsSrcFrac => fraction(self.dns_src),
                    WindowFeature::SynFrac => fraction(self.syn),
                    WindowFeature::InboundFrac => fraction(self.inbound),
                    WindowFeature::MeanPktLen => fraction(self.bytes),
                    WindowFeature::MaxPktLen => f64::from(self.max_len),
                    WindowFeature::RstFrac => fraction(self.rst),
                })
                .collect(),
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
    let mut cells: FxHashMap<(IpAddr, u64), Acc> = FxHashMap::default();
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
    fn window_features_are_in_canonical_order() {
        for (i, f) in WINDOW_ORDER.iter().enumerate() {
            assert_eq!(f.index(), i, "{} is out of canonical order", f.name());
        }
        let scaled: Vec<&str> =
            WINDOW_ORDER.iter().filter(|f| f.scales_with_coverage()).map(|f| f.name()).collect();
        assert_eq!(scaled, ["pkt_count", "byte_count"]);
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
    #[should_panic(expected = "window_ns = 0")]
    fn aggregate_refuses_a_zero_length_window() {
        let records = vec![rec(0, [1, 1, 1, 1], [10, 0, 0, 1], 17, 53, 0)];
        aggregate(&records, WindowConfig { window_ns: 0, min_packets: 1 }, LabelMode::BinaryAttack);
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
        assert_eq!(WindowFeature::PktCount.name(), "pkt_count");
        assert_eq!(WindowFeature::ByteCount.name(), "byte_count");
        assert_eq!(d.x[0][WindowFeature::PktCount.index()], 10.0);
        assert_eq!(d.x[0][WindowFeature::ByteCount.index()], 10_000.0);
    }
}
