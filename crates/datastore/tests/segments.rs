//! Segment-chain invariants under randomized ingest and retention:
//! capacity bounds, count conservation, time-bound bookkeeping, the
//! `(ts_ns, seq)` tie-break, and retention's truncate-don't-compact
//! semantics.

use campuslab_capture::{Direction, PacketRecord, TcpFlags};
use campuslab_datastore::{DataStore, PacketQuery, SEGMENT_CAPACITY};
use proptest::prelude::*;
use proptest::{collection, proptest, ProptestConfig};
use std::net::IpAddr;

fn packet(ts: u64, tag: u16) -> PacketRecord {
    PacketRecord {
        ts_ns: ts,
        direction: Direction::Inbound,
        src: IpAddr::from([10, 0, (tag >> 8) as u8, (tag & 0xFF) as u8]),
        dst: IpAddr::from([203, 0, 113, 1]),
        protocol: 17,
        src_port: tag,
        dst_port: 443,
        wire_len: 100,
        ttl: 64,
        tcp_flags: TcpFlags::default(),
        flow_id: u64::from(tag),
        label_app: 1,
        label_attack: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn segment_invariants_hold_after_random_ingest(
        batch_sizes in collection::vec(0usize..900, 1..=8),
        ts_base in collection::vec(0u64..100_000, 8),
    ) {
        let mut ds = DataStore::new();
        let mut total = 0usize;
        let mut tag = 0u16;
        for (bi, &sz) in batch_sizes.iter().enumerate() {
            let base = ts_base[bi % ts_base.len()];
            let batch: Vec<PacketRecord> = (0..sz)
                .map(|i| {
                    tag = tag.wrapping_add(1);
                    packet(base + (i as u64 % 97) * 5, tag)
                })
                .collect();
            total += batch.len();
            ds.ingest_packets(batch);
        }
        // Count conservation across the chain.
        prop_assert_eq!(ds.packet_count(), total);
        let stats = ds.packet_segment_stats();
        prop_assert_eq!(stats.iter().map(|s| s.records).sum::<usize>(), total);
        for s in &stats {
            prop_assert!(s.records > 0, "empty segment in chain");
            prop_assert!(s.records <= SEGMENT_CAPACITY, "segment over capacity: {}", s.records);
            prop_assert!(s.min_ts_ns <= s.max_ts_ns);
        }
        // Segment bounds are honest: every record the iterator yields in
        // some segment's position falls inside the advertised global span.
        if total > 0 {
            let lo = stats.iter().map(|s| s.min_ts_ns).min().unwrap();
            let hi = stats.iter().map(|s| s.max_ts_ns).max().unwrap();
            let mut n = 0usize;
            for r in ds.iter_packets() {
                prop_assert!(r.ts_ns >= lo && r.ts_ns <= hi);
                n += 1;
            }
            prop_assert_eq!(n, total);
        }
        // Global iteration order is strictly increasing in (ts, seq): tags
        // count up from 1 in ingest order, so `src_port` is `seq + 1`.
        let mut prev: Option<(u64, u16)> = None;
        for r in ds.iter_packets() {
            let key = (r.ts_ns, r.src_port);
            if let Some(p) = prev {
                prop_assert!(p < key, "order violated: {:?} then {:?}", p, key);
            }
            prev = Some(key);
        }
    }

    #[test]
    fn retention_is_exact_and_order_preserving(
        n in 0usize..3_000,
        spread in 1u64..50,
        cut_frac in 0u64..120,
    ) {
        let mut ds = DataStore::new();
        let batch: Vec<PacketRecord> =
            (0..n).map(|i| packet(i as u64 * spread, i as u16)).collect();
        ds.ingest_packets(batch.clone());
        let cutoff = n as u64 * spread * cut_frac / 100;
        let expect: Vec<u16> =
            batch.iter().filter(|r| r.ts_ns >= cutoff).map(|r| r.src_port).collect();
        ds.retain_since(cutoff);
        let got: Vec<u16> = ds.iter_packets().map(|r| r.src_port).collect();
        prop_assert_eq!(got, expect);
        prop_assert_eq!(ds.obs.retired_records(), (n - ds.packet_count()) as u64);
        // Post-retention invariants: no segment leaks pre-cutoff records.
        for s in ds.packet_segment_stats() {
            prop_assert!(s.min_ts_ns >= cutoff);
        }
        // Queries still agree with scans on the truncated chain.
        let q = PacketQuery::in_window(cutoff, cutoff + 10_000 * spread);
        let a: Vec<u64> = ds.query_packets(&q).iter().map(|r| r.ts_ns).collect();
        let b: Vec<u64> = ds.scan_packets(&q).iter().map(|r| r.ts_ns).collect();
        prop_assert_eq!(a, b);
    }
}

/// The ordering contract on ties, stated as a plain test: records with
/// equal timestamps come back in capture (ingest) order — across batch
/// boundaries, through segment merges, and after retention.
#[test]
fn equal_timestamps_keep_capture_order() {
    let mut ds = DataStore::new();
    // Batch 1: three records at t=100 in capture order 1,2,3, plus one
    // later record so batch 2 lands out of order (its own segment).
    ds.ingest_packets(vec![packet(100, 1), packet(100, 2), packet(100, 3), packet(900, 4)]);
    // Batch 2: two more records at t=100 — captured later, so they must
    // sort after batch 1's ties even though they live in another segment.
    ds.ingest_packets(vec![packet(100, 5), packet(100, 6)]);
    let order: Vec<u16> = ds.iter_packets().map(|r| r.src_port).collect();
    assert_eq!(order, vec![1, 2, 3, 5, 6, 4]);
    // The same order comes out of the query paths.
    let q = PacketQuery::in_window(100, 101);
    let via_query: Vec<u16> = ds.query_packets(&q).iter().map(|r| r.src_port).collect();
    let via_scan: Vec<u16> = ds.scan_packets(&q).iter().map(|r| r.src_port).collect();
    assert_eq!(via_query, vec![1, 2, 3, 5, 6]);
    assert_eq!(via_query, via_scan);
    // And survives retention (drop nothing at cutoff 100).
    ds.retain_since(100);
    let after: Vec<u16> = ds.iter_packets().map(|r| r.src_port).collect();
    assert_eq!(after, vec![1, 2, 3, 5, 6, 4]);
}

/// An unsorted batch is sorted by timestamp, but its equal-timestamp runs
/// keep within-batch order (the stable `(ts, seq)` sort).
#[test]
fn unsorted_batch_ties_stay_stable() {
    let mut ds = DataStore::new();
    ds.ingest_packets(vec![
        packet(500, 1),
        packet(200, 2),
        packet(500, 3),
        packet(200, 4),
        packet(500, 5),
    ]);
    let order: Vec<u16> = ds.iter_packets().map(|r| r.src_port).collect();
    assert_eq!(order, vec![2, 4, 1, 3, 5]);
}
