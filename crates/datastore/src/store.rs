//! The data store: time-partitioned segment chains with secondary
//! indexes, retention and storage accounting — "a single platform for
//! collecting, storing, indexing, mining, and visualizing network data"
//! (paper §5).
//!
//! Physical layout lives in [`crate::segment`]; this module is the policy
//! layer: which chain a record lands in, which plan a query takes, and the
//! Observatory bookkeeping ([`crate::StoreObs`]) around both.
//!
//! ## Ordering contract
//!
//! Every table is globally ordered by `(timestamp, seq)` where `seq` is
//! the ingest sequence number. Records with equal timestamps therefore
//! keep capture order, deterministically — ingest never silently reorders
//! ties (pinned by `tests/segments.rs`). Parallel batch ingest
//! ([`DataStore::ingest_packet_batches`]) pre-assigns each batch its seq
//! range before fanning out, so the store it builds is byte-identical to
//! the sequential one (pinned by `tests/par_ingest.rs`).

use crate::observe::StoreObs;
use crate::query::{FlowQuery, PacketQuery, QueryStats};
use crate::segment::{Chain, PacketIndex, SegmentStats};
use campuslab_capture::{DnsMetaRecord, FlowRecord, PacketRecord};
use campuslab_netsim::par;

/// Approximate serialized sizes for storage accounting.
const PACKET_RECORD_BYTES: u64 = 96;
const FLOW_RECORD_BYTES: u64 = 144;
const DNS_RECORD_BYTES: u64 = 120;

/// Storage accounting per table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageReport {
    pub packet_records: u64,
    pub flow_records: u64,
    pub dns_records: u64,
    pub approx_bytes: u64,
}

/// The campus data store.
///
/// Each table is a chain of time-partitioned segments. Packet segments
/// carry exact per-host, per-port and attack postings, so an indexed query
/// plans as *prune segments → binary-search window → filter* and reports
/// its work in [`QueryStats`]. Retention truncates whole segments instead
/// of compacting flat tables.
#[derive(Debug, Default)]
pub struct DataStore {
    packets: Chain<PacketRecord, PacketIndex>,
    flows: Chain<FlowRecord>,
    dns: Chain<DnsMetaRecord>,
    /// Observatory surface; public so runs can merge or render it.
    pub obs: StoreObs,
}

impl DataStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn publish_segment_gauges(&mut self) {
        self.obs.set_segments(self.packets.segment_count(), self.flows.segment_count());
    }

    /// Ingest a batch of packet records. Batches may arrive unsorted; the
    /// batch is sorted by `(ts_ns, seq)` — equal timestamps keep their
    /// in-batch (capture) order — and lands as segment appends, never by
    /// re-sorting the whole table.
    pub fn ingest_packets(&mut self, batch: Vec<PacketRecord>) {
        if batch.is_empty() {
            return;
        }
        self.obs.on_ingest_packets(batch.len() as u64);
        self.packets.ingest(batch);
        self.publish_segment_gauges();
    }

    /// Ingest many packet batches, each as its own fresh segments, sharding
    /// segment construction across worker threads. The worker count is the
    /// executor rule's ([`par::executor_workers`]: `CAMPUSLAB_JOBS`, else
    /// inline under four cores, else a thread per core). The resulting
    /// store — reports, query results, segment layout — is byte-identical
    /// at any worker count.
    pub fn ingest_packet_batches(&mut self, batches: Vec<Vec<PacketRecord>>) {
        let workers = par::executor_workers(par::cores(), par::jobs_from_env());
        self.ingest_packet_batches_with(batches, workers);
    }

    /// [`DataStore::ingest_packet_batches`] with an explicit worker count,
    /// always honoured.
    pub fn ingest_packet_batches_with(&mut self, batches: Vec<Vec<PacketRecord>>, workers: usize) {
        for b in &batches {
            if !b.is_empty() {
                self.obs.on_ingest_packets(b.len() as u64);
            }
        }
        self.packets.ingest_batches(batches, workers);
        self.publish_segment_gauges();
    }

    /// Ingest flow records.
    pub fn ingest_flows(&mut self, batch: Vec<FlowRecord>) {
        if batch.is_empty() {
            return;
        }
        self.obs.on_ingest_flows(batch.len() as u64);
        self.flows.ingest(batch);
        self.publish_segment_gauges();
    }

    /// Ingest DNS metadata records.
    pub fn ingest_dns(&mut self, batch: Vec<DnsMetaRecord>) {
        if batch.is_empty() {
            return;
        }
        self.obs.on_ingest_dns(batch.len() as u64);
        self.dns.ingest(batch);
    }

    /// Packet records in the store.
    pub fn packet_count(&self) -> usize {
        self.packets.count()
    }

    /// Flow records in the store.
    pub fn flow_count(&self) -> usize {
        self.flows.count()
    }

    /// DNS metadata records in the store.
    pub fn dns_count(&self) -> usize {
        self.dns.count()
    }

    /// Live segments in the packet chain.
    pub fn packet_segment_count(&self) -> usize {
        self.packets.segment_count()
    }

    /// Shape of every packet segment, in chain order.
    pub fn packet_segment_stats(&self) -> Vec<SegmentStats> {
        self.packets.segment_stats()
    }

    /// All packet records in global `(ts_ns, seq)` order.
    pub fn iter_packets(&self) -> impl Iterator<Item = &PacketRecord> {
        self.packets.iter_seq().map(|(_, r)| r)
    }

    /// Index-accelerated packet query.
    pub fn query_packets(&self, q: &PacketQuery) -> Vec<&PacketRecord> {
        self.packets.query_packets(q).0
    }

    /// [`DataStore::query_packets`] plus its [`QueryStats`].
    pub fn query_packets_with_stats(&self, q: &PacketQuery) -> (Vec<&PacketRecord>, QueryStats) {
        self.packets.query_packets(q)
    }

    /// Indexed query that also records itself in the store's Observatory.
    pub fn query_packets_observed(&mut self, q: &PacketQuery) -> (Vec<&PacketRecord>, QueryStats) {
        // `hits` borrows `self.packets`; `self.obs` is a disjoint field.
        let (hits, stats) = self.packets.query_packets(q);
        self.obs.on_query(true, &stats);
        (hits, stats)
    }

    /// Full-scan packet query — the baseline experiment E3 and the
    /// differential test suite compare the indexes against.
    pub fn scan_packets(&self, q: &PacketQuery) -> Vec<&PacketRecord> {
        self.packets.scan(q.limit.unwrap_or(usize::MAX), |r| q.matches(r)).0
    }

    /// Full-scan query that also records itself in the store's Observatory.
    pub fn scan_packets_observed(&mut self, q: &PacketQuery) -> (Vec<&PacketRecord>, QueryStats) {
        let (hits, stats) = self.packets.scan(q.limit.unwrap_or(usize::MAX), |r| q.matches(r));
        self.obs.on_query(false, &stats);
        (hits, stats)
    }

    /// Flow query with segment-level overlap pruning.
    pub fn query_flows(&self, q: &FlowQuery) -> Vec<&FlowRecord> {
        let limit = q.limit.unwrap_or(usize::MAX);
        self.flows.query_overlap(q.time_ns.as_ref(), limit, |f| q.matches(f)).0
    }

    /// Full-scan flow query — the differential baseline for
    /// [`DataStore::query_flows`].
    pub fn scan_flows(&self, q: &FlowQuery) -> Vec<&FlowRecord> {
        self.flows.scan(q.limit.unwrap_or(usize::MAX), |f| q.matches(f)).0
    }

    /// Drop all records older than `cutoff_ns` (retention enforcement).
    /// Whole segments fall off the chain in O(1) each; only segments
    /// straddling the cutoff pay a rebuild — O(segments), not O(records).
    pub fn retain_since(&mut self, cutoff_ns: u64) {
        let mut dropped = self.packets.retain_since(cutoff_ns);
        dropped += self.flows.retain_since(cutoff_ns);
        dropped += self.dns.retain_since(cutoff_ns);
        self.obs.on_retired(dropped);
        self.publish_segment_gauges();
    }

    /// Approximate storage footprint.
    pub fn storage(&self) -> StorageReport {
        let packet_records = self.packet_count() as u64;
        let flow_records = self.flow_count() as u64;
        let dns_records = self.dns_count() as u64;
        StorageReport {
            packet_records,
            flow_records,
            dns_records,
            approx_bytes: packet_records * PACKET_RECORD_BYTES
                + flow_records * FLOW_RECORD_BYTES
                + dns_records * DNS_RECORD_BYTES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use campuslab_capture::{Direction, TcpFlags};
    use std::net::IpAddr;

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

    fn populated() -> DataStore {
        let mut ds = DataStore::new();
        let mut batch = Vec::new();
        for i in 0..1000u64 {
            batch.push(rec(
                i * 1000,
                [10, 1, 1, (i % 50) as u8],
                [203, 0, 113, (i % 10) as u8],
                (i % 5) as u16 + 440,
                u16::from(i % 20 == 0),
            ));
        }
        ds.ingest_packets(batch);
        ds
    }

    #[test]
    fn query_equals_scan_on_every_shape() {
        let ds = populated();
        let queries = vec![
            PacketQuery::for_host("10.1.1.7".parse().unwrap()),
            PacketQuery::in_window(100_000, 500_000),
            PacketQuery::default().port(441),
            PacketQuery::default().malicious(),
            PacketQuery::for_host("10.1.1.7".parse().unwrap()).window(0, 400_000),
            PacketQuery::default().port(442).malicious(),
        ];
        for q in queries {
            let via_index: Vec<u64> = ds.query_packets(&q).iter().map(|r| r.ts_ns).collect();
            let via_scan: Vec<u64> = ds.scan_packets(&q).iter().map(|r| r.ts_ns).collect();
            assert_eq!(via_index, via_scan, "mismatch for {q:?}");
        }
    }

    #[test]
    fn out_of_order_batches_are_merged() {
        let mut ds = DataStore::new();
        ds.ingest_packets(vec![rec(5_000, [1, 1, 1, 1], [2, 2, 2, 2], 80, 0)]);
        ds.ingest_packets(vec![rec(1_000, [1, 1, 1, 1], [2, 2, 2, 2], 80, 0)]);
        let ts: Vec<u64> = ds.iter_packets().map(|r| r.ts_ns).collect();
        assert_eq!(ts, vec![1_000, 5_000]);
        // Indexes still agree with a scan after the reorder.
        let q = PacketQuery::for_host("1.1.1.1".parse().unwrap());
        assert_eq!(ds.query_packets(&q).len(), ds.scan_packets(&q).len());
    }

    #[test]
    fn limit_caps_results() {
        let ds = populated();
        let q = PacketQuery { limit: Some(7), ..Default::default() };
        assert_eq!(ds.query_packets(&q).len(), 7);
    }

    #[test]
    fn retention_drops_old_records_and_stays_consistent() {
        let mut ds = populated();
        let before = ds.storage();
        ds.retain_since(500_000);
        let after = ds.storage();
        assert!(after.packet_records < before.packet_records);
        assert_eq!(after.packet_records, 500);
        assert_eq!(ds.obs.retired_records(), 500);
        // Queries remain consistent post-retention.
        let q = PacketQuery::default().malicious();
        let idx: Vec<u64> = ds.query_packets(&q).iter().map(|r| r.ts_ns).collect();
        let scan: Vec<u64> = ds.scan_packets(&q).iter().map(|r| r.ts_ns).collect();
        assert_eq!(idx, scan);
        assert!(idx.iter().all(|&t| t >= 500_000));
    }

    #[test]
    fn storage_report_accounts_all_tables() {
        let mut ds = populated();
        ds.ingest_dns(vec![DnsMetaRecord {
            ts_ns: 1,
            direction: Direction::Outbound,
            client: IpAddr::from([10, 1, 1, 10]),
            server: IpAddr::from([10, 1, 255, 53]),
            qname: "example.edu".into(),
            qtype: 1,
            is_response: false,
            answer_count: 0,
            wire_len: 80,
            amplification_prone: false,
            label_attack: 0,
        }]);
        let s = ds.storage();
        assert_eq!((s.packet_records, s.flow_records, s.dns_records), (1000, 0, 1));
        assert_eq!(s.approx_bytes, 96 * 1000 + 120);
    }

    #[test]
    #[allow(clippy::reversed_empty_ranges)] // inverted windows are the point
    fn inverted_or_empty_time_window_returns_empty_not_panic() {
        let ds = populated();
        // start > end (inverted) used to slice with lo > hi and abort.
        for q in [
            PacketQuery::in_window(500_000, 100_000),
            PacketQuery::in_window(100_000, 100_000),
            PacketQuery::for_host("10.1.1.7".parse().unwrap()).window(500_000, 100_000),
            PacketQuery::default().malicious().window(u64::MAX, 0),
        ] {
            assert!(ds.query_packets(&q).is_empty(), "{q:?}");
            assert!(ds.scan_packets(&q).is_empty(), "{q:?}");
        }
        let inverted = FlowQuery { time_ns: Some(10..5), ..Default::default() };
        assert!(ds.query_flows(&inverted).is_empty());
    }

    #[test]
    fn time_window_uses_sorted_order() {
        let ds = populated();
        let q = PacketQuery::in_window(10_000, 20_000);
        let hits = ds.query_packets(&q);
        assert_eq!(hits.len(), 10);
        assert!(hits.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn observed_queries_book_into_obs() {
        let mut ds = populated();
        let q = PacketQuery::for_host("10.1.1.7".parse().unwrap());
        let (hits, stats) = ds.query_packets_observed(&q);
        assert_eq!(stats.hits, hits.len());
        let (_, scan_stats) = ds.scan_packets_observed(&q);
        assert_eq!(ds.obs.queries_indexed(), 1);
        assert_eq!(ds.obs.queries_scan(), 1);
        assert!(stats.records_examined <= scan_stats.records_examined);
        assert_eq!(ds.obs.ingested_packets(), 1000);
        assert_eq!(ds.obs.packet_segments(), ds.packet_segment_count() as i64);
    }

    #[test]
    fn batch_ingest_matches_sequential_ingest() {
        let batches: Vec<Vec<PacketRecord>> = (0..8u64)
            .map(|b| {
                (0..300u64)
                    .map(|i| {
                        rec(
                            b * 300_000 + i * 1000,
                            [10, 1, 1, (i % 40) as u8],
                            [203, 0, 113, 1],
                            443,
                            0,
                        )
                    })
                    .collect()
            })
            .collect();
        let mut seq = DataStore::new();
        for b in batches.clone() {
            seq.ingest_packets(b);
        }
        let mut par = DataStore::new();
        par.ingest_packet_batches_with(batches, 4);
        assert_eq!(seq.storage(), par.storage());
        let a: Vec<&PacketRecord> = seq.iter_packets().collect();
        let b: Vec<&PacketRecord> = par.iter_packets().collect();
        assert_eq!(a, b);
    }
}
