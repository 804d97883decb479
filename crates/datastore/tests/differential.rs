//! Differential proptests: on randomized stores and randomized queries,
//! the indexed planner must return exactly what the full scan returns —
//! same records, same order (`(ts_ns, seq)` global order). The scan is
//! deliberately naive; any disagreement is a planner bug by definition.

use campuslab_capture::{Direction, FlowKey, FlowRecord, PacketRecord, TcpFlags};
use campuslab_datastore::{DataStore, FlowQuery, PacketQuery};
use proptest::prelude::*;
use proptest::{collection, option, proptest, ProptestConfig};
use std::net::IpAddr;

/// Record spec: (ts, src-octet, dst-octet, port-index, attack).
type PacketSpec = (u64, u8, u8, u8, bool);

fn packet(spec: PacketSpec) -> PacketRecord {
    let (ts, src, dst, port, attack) = spec;
    PacketRecord {
        ts_ns: ts,
        direction: if dst % 2 == 0 { Direction::Inbound } else { Direction::Outbound },
        src: IpAddr::from([10, 0, 0, src]),
        dst: IpAddr::from([203, 0, 113, dst]),
        protocol: if port % 2 == 0 { 17 } else { 6 },
        src_port: 40_000,
        dst_port: u16::from(port) + 440,
        wire_len: 60 + u32::from(src) * 10,
        ttl: 64,
        tcp_flags: TcpFlags::default(),
        flow_id: u64::from(src),
        label_app: 1,
        label_attack: u16::from(attack),
    }
}

/// Split specs into up to three ingest batches so stores exercise both
/// the open-segment append and the out-of-order-batch paths.
fn store_from(specs: &[PacketSpec], splits: (usize, usize)) -> DataStore {
    let mut ds = DataStore::new();
    let a = splits.0 % (specs.len() + 1);
    let b = a + splits.1 % (specs.len() - a + 1);
    for chunk in [&specs[..a], &specs[a..b], &specs[b..]] {
        ds.ingest_packets(chunk.iter().copied().map(packet).collect());
    }
    ds
}

fn queries(host: u8, port: u8, wstart: u64, wlen: u64, limit: usize) -> Vec<PacketQuery> {
    let host: IpAddr = IpAddr::from([10, 0, 0, host]);
    let window = wstart..wstart.saturating_add(wlen);
    vec![
        PacketQuery::for_host(host),
        PacketQuery::for_host(host).window(window.start, window.end),
        PacketQuery::default().port(u16::from(port) + 440),
        PacketQuery::default().port(u16::from(port) + 440).window(window.start, window.end),
        PacketQuery::default().malicious(),
        PacketQuery::default().malicious().window(window.start, window.end),
        PacketQuery::in_window(window.start, window.end),
        // Inverted window: must be empty on both paths, never a panic.
        PacketQuery::in_window(window.end, window.start),
        PacketQuery { limit: Some(limit), ..PacketQuery::for_host(host) },
        PacketQuery { limit: Some(limit), ..PacketQuery::in_window(window.start, window.end) },
    ]
}

/// Key the comparison on full records plus position-independent identity:
/// ts plus every field the spec varies.
fn keys(recs: &[&PacketRecord]) -> Vec<(u64, IpAddr, IpAddr, u16, u16)> {
    recs.iter().map(|r| (r.ts_ns, r.src, r.dst, r.dst_port, r.label_attack)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn packet_query_equals_scan(
        specs in collection::vec((0u64..40_000, 0u8..6, 0u8..5, 0u8..5, any::<bool>()), 0..=250),
        splits in (0usize..260, 0usize..260),
        qhost in 0u8..6,
        qport in 0u8..5,
        wstart in 0u64..40_000,
        wlen in 0u64..25_000,
        limit in 0usize..30,
        cutoff in option::of(0u64..40_000),
    ) {
        let mut ds = store_from(&specs, splits);
        // Retention rebuilds the postings of every segment it truncates:
        // the queries below must still agree with the scan afterwards.
        if let Some(cutoff) = cutoff {
            ds.retain_since(cutoff);
        }
        for q in queries(qhost, qport, wstart, wlen, limit) {
            let (indexed, istats) = ds.query_packets_with_stats(&q);
            let indexed = keys(&indexed);
            let (scanned, sstats) = ds.scan_packets_observed(&q);
            prop_assert_eq!(&indexed, &keys(&scanned), "mismatch for {:?}", q);
            prop_assert_eq!(istats.hits, indexed.len());
            prop_assert_eq!(sstats.hits, scanned.len());
            // The planner never does more work than the scan it replaces
            // (the scan stops early at `limit`, so only compare unlimited).
            if q.limit.is_none() {
                prop_assert!(istats.records_examined <= sstats.records_examined,
                    "indexed examined {} > scan {} for {:?}",
                    istats.records_examined, sstats.records_examined, q);
            }
        }
    }

    #[test]
    fn flow_query_equals_scan(
        specs in collection::vec((0u64..30_000, 0u64..5_000, 0u8..5, 0u8..4, any::<bool>()), 0..=120),
        qhost in 0u8..5,
        qport in 0u8..4,
        wstart in 0u64..30_000,
        wlen in 0u64..20_000,
        limit in 0usize..20,
        cutoff in option::of(0u64..35_000),
    ) {
        let mut ds = DataStore::new();
        let flows: Vec<FlowRecord> = specs
            .iter()
            .map(|&(first, span, host, port, attack)| FlowRecord {
                key: FlowKey {
                    src: IpAddr::from([10, 0, 0, host]),
                    dst: IpAddr::from([203, 0, 113, 1]),
                    protocol: 6,
                    src_port: 40_000,
                    dst_port: u16::from(port) + 440,
                },
                first_ts_ns: first,
                last_ts_ns: first + span,
                fwd_packets: 2,
                fwd_bytes: 200 + u64::from(host) * 100,
                rev_packets: 1,
                rev_bytes: 100,
                syn_count: 1,
                fin_count: 1,
                rst_count: 0,
                mean_iat_ns: 10,
                min_len: 60,
                max_len: 1500,
                label_app: 1,
                label_attack: u16::from(attack),
            })
            .collect();
        // Two batches to exercise out-of-order chains.
        let mid = flows.len() / 2;
        ds.ingest_flows(flows[mid..].to_vec());
        ds.ingest_flows(flows[..mid].to_vec());
        if let Some(cutoff) = cutoff {
            ds.retain_since(cutoff);
        }
        let window = wstart..wstart.saturating_add(wlen);
        let shapes = vec![
            FlowQuery { host: Some(IpAddr::from([10, 0, 0, qhost])), ..Default::default() },
            FlowQuery { time_ns: Some(window.clone()), ..Default::default() },
            FlowQuery {
                time_ns: Some(window.clone()),
                port: Some(u16::from(qport) + 440),
                ..Default::default()
            },
            FlowQuery { malicious_only: true, time_ns: Some(window.clone()), ..Default::default() },
            FlowQuery { min_bytes: Some(400), ..Default::default() },
            // Inverted window.
            FlowQuery { time_ns: Some(window.end..window.start), ..Default::default() },
            FlowQuery { limit: Some(limit), time_ns: Some(window), ..Default::default() },
        ];
        for q in shapes {
            let pruned: Vec<(u64, u64, u16)> = ds
                .query_flows(&q)
                .iter()
                .map(|f| (f.first_ts_ns, f.last_ts_ns, f.key.dst_port))
                .collect();
            let scanned: Vec<(u64, u64, u16)> = ds
                .scan_flows(&q)
                .iter()
                .map(|f| (f.first_ts_ns, f.last_ts_ns, f.key.dst_port))
                .collect();
            prop_assert_eq!(pruned, scanned, "mismatch for {:?}", q);
        }
    }
}
