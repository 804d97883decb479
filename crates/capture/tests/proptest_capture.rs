//! Property tests for the monitoring plane: conservation and invariants
//! over arbitrary packet streams.

use campuslab_capture::{
    Direction, FlowTable, FlowTableConfig, HeavyHitters, Monitor, MonitorConfig, PacketRecord,
    RingConfig, TcpFlags,
};
use campuslab_netsim::{GroundTruth, PacketBuilder, Payload, SimTime};
use proptest::prelude::*;
use std::net::{IpAddr, Ipv4Addr};

fn arb_record() -> impl Strategy<Value = PacketRecord> {
    (
        0u64..10_000_000_000,
        any::<bool>(),
        0u8..8,
        0u8..8,
        proptest::sample::select(vec![6u8, 17]),
        1024u16..1030,
        proptest::sample::select(vec![53u16, 80, 443]),
        60u32..1500,
    )
        .prop_map(|(ts_ns, inbound, s, d, protocol, sport, dport, wire_len)| PacketRecord {
            ts_ns,
            direction: if inbound { Direction::Inbound } else { Direction::Outbound },
            src: IpAddr::from([10, 0, 0, s]),
            dst: IpAddr::from([203, 0, 113, d]),
            protocol,
            src_port: sport,
            dst_port: dport,
            wire_len,
            ttl: 64,
            tcp_flags: TcpFlags::default(),
            flow_id: 0,
            label_app: 1,
            label_attack: 0,
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Flow assembly conserves packets and bytes exactly, for any stream.
    #[test]
    fn flow_table_conserves_packets_and_bytes(mut records in proptest::collection::vec(arb_record(), 1..300)) {
        records.sort_by_key(|r| r.ts_ns);
        let mut table = FlowTable::new(FlowTableConfig::default());
        let mut total_bytes = 0u64;
        for r in &records {
            table.observe(r);
            total_bytes += u64::from(r.wire_len);
        }
        table.flush();
        let flows = table.drain();
        let flow_packets: u64 = flows.iter().map(|f| f.total_packets()).sum();
        let flow_bytes: u64 = flows.iter().map(|f| f.total_bytes()).sum();
        prop_assert_eq!(flow_packets, records.len() as u64);
        prop_assert_eq!(flow_bytes, total_bytes);
        // Time ranges are coherent.
        for f in &flows {
            prop_assert!(f.first_ts_ns <= f.last_ts_ns);
            prop_assert!(f.min_len <= f.max_len);
        }
    }

    /// The flow key canonicalization groups exactly the two directions.
    #[test]
    fn canonical_key_is_an_involution_class(r in arb_record()) {
        let k = r.flow_key();
        prop_assert_eq!(k.canonical(), k.reversed().canonical());
        prop_assert_eq!(k.reversed().reversed(), k);
    }

    /// The capture conservation identity holds for any ring sizing and
    /// stream: every observed packet is accounted for exactly once as
    /// captured or ring-dropped, on the stats and on the Observatory
    /// mirror, which agree bump-for-bump.
    #[test]
    fn monitor_conserves_under_random_load(
        // Starved rings (tiny capacity, slow drain) force ring drops.
        ring_capacity in 1usize..48,
        drain_pps in 1_000.0f64..5_000_000.0,
        rings in 1usize..4,
        stream in proptest::collection::vec(
            (0u64..2_000u64, any::<bool>(), 0u8..6, 0u8..6, 1024u16..1040, 16usize..1200),
            1..250,
        ),
    ) {
        let mut monitor = Monitor::new(MonitorConfig {
            ring: RingConfig { capacity: ring_capacity, drain_pps },
            rings,
        });
        let mut builder = PacketBuilder::new();
        let mut stream = stream;
        stream.sort_by_key(|&(ts_ms, ..)| ts_ms);
        for &(ts_ms, inbound, s, d, sport, payload_len) in &stream {
            let pkt = builder.udp_v4(
                Ipv4Addr::new(203, 0, 113, s),
                Ipv4Addr::new(10, 1, 1, d),
                sport,
                443,
                Payload::Synthetic(payload_len),
                64,
                GroundTruth::default(),
            );
            let dir = if inbound { Direction::Inbound } else { Direction::Outbound };
            monitor.observe(SimTime::from_millis(ts_ms), dir, &pkt);
        }
        monitor.finish();
        let s = monitor.stats;
        // The conservation identity, on the stats…
        prop_assert_eq!(s.observed, stream.len() as u64);
        prop_assert_eq!(s.observed, s.captured + s.ring_dropped, "conservation broken: {:?}", s);
        // …on the Observatory registry…
        prop_assert!(monitor.obs.conserved(), "obs conservation broken: {:?}", s);
        // …and the two planes agree counter-for-counter.
        prop_assert_eq!(monitor.obs.observed(), s.observed);
        prop_assert_eq!(monitor.obs.captured(), s.captured);
        prop_assert_eq!(monitor.obs.ring_dropped(), s.ring_dropped);
        prop_assert_eq!(monitor.obs.bytes_captured(), s.bytes_captured);
        // Everything the monitor kept is really in the packet store.
        prop_assert_eq!(monitor.packet_records().len() as u64, s.captured);
    }

    /// Heavy-hitter estimates dominate true counts (sketches never
    /// undercount) and the top list is sorted.
    #[test]
    fn heavy_hitters_never_undercount(records in proptest::collection::vec(arb_record(), 1..400)) {
        let mut hh = HeavyHitters::new(4, 256, 4);
        let mut truth: std::collections::BTreeMap<IpAddr, u64> = std::collections::BTreeMap::new();
        for r in &records {
            hh.add(r.dst, u64::from(r.wire_len));
            *truth.entry(r.dst).or_insert(0) += u64::from(r.wire_len);
        }
        let top = hh.top();
        prop_assert!(top.len() <= 4);
        for w in top.windows(2) {
            prop_assert!(w[0].1 >= w[1].1);
        }
        for (addr, est) in &top {
            prop_assert!(*est >= truth[addr], "sketch undercounted {addr}");
        }
    }
}
