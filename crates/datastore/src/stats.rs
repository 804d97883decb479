//! Mining helpers: the summary views an operator dashboard (or an
//! experiment report) pulls from the store.

use crate::store::DataStore;
use campuslab_netsim::fxhash::FxHashMap;
use std::collections::BTreeMap;
use std::net::IpAddr;

/// Aggregate traffic summary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StoreSummary {
    pub packets: u64,
    pub bytes: u64,
    pub malicious_packets: u64,
    /// Packet counts per application label.
    pub by_app: BTreeMap<u16, u64>,
    /// Packet counts per attack label (0 excluded).
    pub by_attack: BTreeMap<u16, u64>,
    pub first_ts_ns: u64,
    pub last_ts_ns: u64,
}

impl StoreSummary {
    /// Mean offered rate over the captured span, bits per second.
    pub fn mean_bps(&self) -> f64 {
        let span = self.last_ts_ns.saturating_sub(self.first_ts_ns);
        if span == 0 {
            return 0.0;
        }
        self.bytes as f64 * 8.0 / (span as f64 / 1e9)
    }
}

/// Compute the summary of everything in the store.
pub fn summarize(ds: &DataStore) -> StoreSummary {
    let mut s = StoreSummary {
        first_ts_ns: u64::MAX,
        ..Default::default()
    };
    for r in ds.iter_packets() {
        s.packets += 1;
        s.bytes += u64::from(r.wire_len);
        if r.is_malicious() {
            s.malicious_packets += 1;
            *s.by_attack.entry(r.label_attack).or_insert(0) += 1;
        }
        *s.by_app.entry(r.label_app).or_insert(0) += 1;
        s.first_ts_ns = s.first_ts_ns.min(r.ts_ns);
        s.last_ts_ns = s.last_ts_ns.max(r.ts_ns);
    }
    if s.packets == 0 {
        s.first_ts_ns = 0;
    }
    s
}

/// The `n` hosts moving the most bytes (either direction), descending.
pub fn top_talkers(ds: &DataStore, n: usize) -> Vec<(IpAddr, u64)> {
    let mut bytes: FxHashMap<IpAddr, u64> = FxHashMap::default();
    for r in ds.iter_packets() {
        *bytes.entry(r.src).or_insert(0) += u64::from(r.wire_len);
        *bytes.entry(r.dst).or_insert(0) += u64::from(r.wire_len);
    }
    let mut v: Vec<(IpAddr, u64)> = bytes.into_iter().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v.truncate(n);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use campuslab_capture::{Direction, PacketRecord, TcpFlags};

    fn rec(ts: u64, src_last: u8, len: u32, app: u16, attack: u16) -> PacketRecord {
        PacketRecord {
            ts_ns: ts,
            direction: Direction::Inbound,
            src: IpAddr::from([10, 0, 0, src_last]),
            dst: IpAddr::from([203, 0, 113, 1]),
            protocol: 6,
            src_port: 1,
            dst_port: 2,
            wire_len: len,
            ttl: 64,
            tcp_flags: TcpFlags::default(),
            flow_id: 0,
            label_app: app,
            label_attack: attack,
        }
    }

    #[test]
    fn summary_counts_and_rate() {
        let mut ds = DataStore::new();
        ds.ingest_packets(vec![
            rec(0, 1, 1000, 2, 0),
            rec(500_000_000, 2, 1000, 2, 0),
            rec(1_000_000_000, 3, 1000, 1, 4),
        ]);
        let s = summarize(&ds);
        assert_eq!(s.packets, 3);
        assert_eq!(s.bytes, 3000);
        assert_eq!(s.malicious_packets, 1);
        assert_eq!(s.by_app[&2], 2);
        assert_eq!(s.by_attack[&4], 1);
        // 3000 bytes over 1 second = 24 kbps.
        assert!((s.mean_bps() - 24_000.0).abs() < 1.0);
    }

    #[test]
    fn empty_summary_is_sane() {
        let ds = DataStore::new();
        let s = summarize(&ds);
        assert_eq!(s.packets, 0);
        assert_eq!(s.first_ts_ns, 0);
        assert_eq!(s.mean_bps(), 0.0);
    }

    #[test]
    fn top_talkers_order() {
        let mut ds = DataStore::new();
        ds.ingest_packets(vec![
            rec(0, 1, 100, 1, 0),
            rec(1, 2, 5000, 1, 0),
            rec(2, 2, 5000, 1, 0),
            rec(3, 3, 300, 1, 0),
        ]);
        let top = top_talkers(&ds, 2);
        assert_eq!(top.len(), 2);
        // The shared destination sees everything.
        assert_eq!(top[0].0, IpAddr::from([203, 0, 113, 1]));
        assert_eq!(top[1].0, IpAddr::from([10, 0, 0, 2]));
        assert_eq!(top[1].1, 10_000);
    }
}
