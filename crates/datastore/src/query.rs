//! Query descriptions for the data store's "fast and flexible search".

use campuslab_capture::{Direction, FlowRecord, PacketRecord};
use std::net::IpAddr;
use std::ops::Range;

/// A packet-table query. Every field is optional; unset means "any".
#[derive(Debug, Clone, Default)]
pub struct PacketQuery {
    /// Half-open time range in nanoseconds.
    pub time_ns: Option<Range<u64>>,
    /// Either endpoint equals this address.
    pub host: Option<IpAddr>,
    /// Source address equals.
    pub src: Option<IpAddr>,
    /// Destination address equals.
    pub dst: Option<IpAddr>,
    /// Destination port equals.
    pub dst_port: Option<u16>,
    /// IP protocol number equals.
    pub protocol: Option<u8>,
    pub direction: Option<Direction>,
    /// Only generator-labeled attack packets.
    pub malicious_only: bool,
    /// Stop after this many matches.
    pub limit: Option<usize>,
}

impl PacketQuery {
    /// Query everything in a time window.
    pub fn in_window(start_ns: u64, end_ns: u64) -> Self {
        PacketQuery { time_ns: Some(start_ns..end_ns), ..Default::default() }
    }

    /// Query everything touching one host.
    pub fn for_host(host: IpAddr) -> Self {
        PacketQuery { host: Some(host), ..Default::default() }
    }

    /// Restrict to a time window (builder style).
    pub fn window(mut self, start_ns: u64, end_ns: u64) -> Self {
        self.time_ns = Some(start_ns..end_ns);
        self
    }

    /// Restrict to a destination port (builder style).
    pub fn port(mut self, dst_port: u16) -> Self {
        self.dst_port = Some(dst_port);
        self
    }

    /// Restrict to attack-labeled packets (builder style).
    pub fn malicious(mut self) -> Self {
        self.malicious_only = true;
        self
    }

    /// Whether `rec` satisfies every set predicate.
    pub fn matches(&self, rec: &PacketRecord) -> bool {
        if let Some(range) = &self.time_ns {
            if !range.contains(&rec.ts_ns) {
                return false;
            }
        }
        if let Some(h) = self.host {
            if rec.src != h && rec.dst != h {
                return false;
            }
        }
        if let Some(s) = self.src {
            if rec.src != s {
                return false;
            }
        }
        if let Some(d) = self.dst {
            if rec.dst != d {
                return false;
            }
        }
        if let Some(p) = self.dst_port {
            if rec.dst_port != p {
                return false;
            }
        }
        if let Some(proto) = self.protocol {
            if rec.protocol != proto {
                return false;
            }
        }
        if let Some(dir) = self.direction {
            if rec.direction != dir {
                return false;
            }
        }
        if self.malicious_only && !rec.is_malicious() {
            return false;
        }
        true
    }
}

/// Deterministic per-query cost accounting.
///
/// These are work counts, not wall times: replayed on any machine at any
/// worker count they come out identical, which is what lets experiment E3
/// pin its query-cost table with a golden file. `records_examined` is the
/// store's latency proxy — every record a plan touches, whether or not it
/// matched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Segments in the chain when the query ran.
    pub segments_total: usize,
    /// Segments planning skipped wholesale (time bounds, no postings for
    /// the queried key, or none inside the window).
    pub segments_pruned: usize,
    /// Records the plan actually looked at.
    pub records_examined: usize,
    /// Records returned.
    pub hits: usize,
}

impl QueryStats {
    /// `examined(scan) / examined(self)` — how much work pruning saved,
    /// floored at 1× when the plan examined nothing.
    pub fn work_reduction_vs(&self, scan: &QueryStats) -> f64 {
        if self.records_examined == 0 {
            return scan.records_examined.max(1) as f64;
        }
        scan.records_examined as f64 / self.records_examined as f64
    }
}

/// A flow-table query.
#[derive(Debug, Clone, Default)]
pub struct FlowQuery {
    /// Overlaps this half-open time range.
    pub time_ns: Option<Range<u64>>,
    /// Either endpoint equals this address.
    pub host: Option<IpAddr>,
    /// Either port equals.
    pub port: Option<u16>,
    pub malicious_only: bool,
    pub min_bytes: Option<u64>,
    pub limit: Option<usize>,
}

impl FlowQuery {
    /// Whether `f` satisfies every set predicate.
    pub fn matches(&self, f: &FlowRecord) -> bool {
        if let Some(range) = &self.time_ns {
            // Overlap test for an interval record.
            if f.last_ts_ns < range.start || f.first_ts_ns >= range.end {
                return false;
            }
        }
        if let Some(h) = self.host {
            if f.key.src != h && f.key.dst != h {
                return false;
            }
        }
        if let Some(p) = self.port {
            if f.key.src_port != p && f.key.dst_port != p {
                return false;
            }
        }
        if self.malicious_only && !f.is_malicious() {
            return false;
        }
        if let Some(min) = self.min_bytes {
            if f.total_bytes() < min {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use campuslab_capture::TcpFlags;

    fn rec(ts: u64, src: [u8; 4], dst: [u8; 4], dport: u16, attack: u16) -> PacketRecord {
        PacketRecord {
            ts_ns: ts,
            direction: Direction::Inbound,
            src: IpAddr::from(src),
            dst: IpAddr::from(dst),
            protocol: 17,
            src_port: 53,
            dst_port: dport,
            wire_len: 100,
            ttl: 64,
            tcp_flags: TcpFlags::default(),
            flow_id: 0,
            label_app: 1,
            label_attack: attack,
        }
    }

    #[test]
    fn window_and_port_predicates() {
        let r = rec(500, [203, 0, 113, 1], [10, 1, 1, 10], 40_000, 0);
        assert!(PacketQuery::in_window(0, 1000).matches(&r));
        assert!(!PacketQuery::in_window(501, 1000).matches(&r));
        assert!(PacketQuery::default().port(40_000).matches(&r));
        assert!(!PacketQuery::default().port(53).matches(&r));
    }

    #[test]
    fn host_matches_either_endpoint() {
        let r = rec(0, [203, 0, 113, 1], [10, 1, 1, 10], 1, 0);
        assert!(PacketQuery::for_host("10.1.1.10".parse().unwrap()).matches(&r));
        assert!(PacketQuery::for_host("203.0.113.1".parse().unwrap()).matches(&r));
        assert!(!PacketQuery::for_host("10.9.9.9".parse().unwrap()).matches(&r));
    }

    #[test]
    fn malicious_filter() {
        let benign = rec(0, [1, 1, 1, 1], [2, 2, 2, 2], 1, 0);
        let bad = rec(0, [1, 1, 1, 1], [2, 2, 2, 2], 1, 3);
        let q = PacketQuery::default().malicious();
        assert!(!q.matches(&benign));
        assert!(q.matches(&bad));
    }

    #[test]
    fn flow_query_overlap_semantics() {
        let f = FlowRecord {
            key: campuslab_capture::FlowKey {
                src: "10.1.1.1".parse().unwrap(),
                dst: "203.0.113.1".parse().unwrap(),
                protocol: 6,
                src_port: 40_000,
                dst_port: 443,
            },
            first_ts_ns: 1_000,
            last_ts_ns: 5_000,
            fwd_packets: 10,
            fwd_bytes: 1_000,
            rev_packets: 10,
            rev_bytes: 9_000,
            syn_count: 2,
            fin_count: 2,
            rst_count: 0,
            mean_iat_ns: 100,
            min_len: 60,
            max_len: 1500,
            label_app: 2,
            label_attack: 0,
        };
        let hit = FlowQuery { time_ns: Some(4_000..10_000), ..Default::default() };
        assert!(hit.matches(&f));
        let miss = FlowQuery { time_ns: Some(6_000..10_000), ..Default::default() };
        assert!(!miss.matches(&f));
        let port = FlowQuery { port: Some(443), ..Default::default() };
        assert!(port.matches(&f));
        let big = FlowQuery { min_bytes: Some(20_000), ..Default::default() };
        assert!(!big.matches(&f));
    }
}
