//! Pipeline-determinism property suite — the contract DriftPilot's
//! always-on learn→distill→compile→deploy loop is pinned by:
//!
//! * **Retrain purity**: retraining twice over byte-identical datastore
//!   windows yields the same model fingerprint and the same compiled
//!   program fingerprint, at any wall/sim time. The retrain seed is a
//!   pure function of window content (`records_hash`), nothing else.
//! * **Live direction**: the feature row, the switch key and the live key
//!   are one extraction (`fields_from_record`) by construction; the one
//!   input the live extractor derives for itself is direction, from the
//!   campus prefix. For border-crossing packets that must equal the tap's
//!   direction, or the live key is not the key the tree was trained on.

use campuslab_capture::{Direction, PacketRecord, TcpFlags};
use campuslab_control::{records_hash, retrain_window, DevLoopConfig};
use campuslab_dataplane::{fields_from_record, FieldExtractor};
use campuslab_netsim::{GroundTruth, PacketBuilder, Payload, Prefix, SimTime};
use campuslab_wire::{IcmpRepr, TcpControl, TcpRepr};
use proptest::prelude::*;
use proptest::{collection, proptest, ProptestConfig};
use std::net::{IpAddr, Ipv4Addr};

fn rec(ts: u64, proto: u8, sport: u16, len: u32, attack: u16) -> PacketRecord {
    PacketRecord {
        ts_ns: ts,
        direction: Direction::Inbound,
        src: IpAddr::from([203, 0, 113, 1]),
        dst: IpAddr::from([10, 1, 1, 10]),
        protocol: proto,
        src_port: sport,
        dst_port: 40_000,
        wire_len: len,
        ttl: 60,
        tcp_flags: TcpFlags::default(),
        flow_id: 0,
        label_app: 1,
        label_attack: attack,
    }
}

/// An amplification-shaped training window with proptest-chosen jitter:
/// big UDP from `sport` labeled attack, interleaved benign TCP/UDP. Both
/// classes always present and ≥ 20 records, so `run_development_loop`'s
/// preconditions hold for every generated case.
fn window_from(jitters: &[(u64, u32)], sport: u16) -> Vec<PacketRecord> {
    let mut out = Vec::new();
    for (i, &(tj, lj)) in jitters.iter().enumerate() {
        let base = i as u64 * 3_000_000 + tj;
        out.push(rec(base, 17, sport, 1_200 + lj, 1));
        out.push(rec(base + 1_000, 6, 443, 200 + lj % 900, 0));
        out.push(rec(base + 2_000, 17, sport, 90 + lj % 40, 0));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Satellite 1: the full retrain pipeline (teacher → distill →
    /// compile) is a pure function of the record window. Two runs over
    /// byte-identical windows produce identical model and program
    /// fingerprints — the property that makes shard-order-independent
    /// retraining sound.
    #[test]
    fn retraining_twice_on_identical_windows_is_fingerprint_identical(
        jitters in collection::vec((0u64..1_000, 0u32..200), 24..=40),
        sport in 1024u16..60_000,
    ) {
        let recs = window_from(&jitters, sport);
        let twin = recs.clone();
        let cfg = DevLoopConfig::default();
        let (model_a, program_a) = retrain_window(&recs, &cfg);
        let (model_b, program_b) = retrain_window(&twin, &cfg);
        prop_assert_eq!(model_a, model_b, "model fingerprints diverged");
        prop_assert_eq!(
            program_a.fingerprint(),
            program_b.fingerprint(),
            "compiled program fingerprints diverged"
        );
        prop_assert_eq!(records_hash(&recs), records_hash(&twin));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The retrain seed sees window content: any single-field edit or a
    /// reorder of two distinct records changes `records_hash`, so a
    /// "same window" claim is a real byte-identity claim.
    #[test]
    fn records_hash_is_content_and_order_sensitive(
        jitters in collection::vec((0u64..1_000, 0u32..200), 8..=16),
        sport in 1024u16..60_000,
        pick in any::<usize>(),
    ) {
        let recs = window_from(&jitters, sport);
        let base = records_hash(&recs);

        let mut edited = recs.clone();
        let i = pick % edited.len();
        edited[i].wire_len += 1;
        prop_assert_ne!(base, records_hash(&edited), "wire_len edit went unseen");

        // Records at stride 3 differ by construction (attack vs benign).
        let mut swapped = recs.clone();
        swapped.swap(0, 1);
        prop_assert_ne!(base, records_hash(&swapped), "reorder went unseen");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// For every transport, both border directions and payloads up to the
    /// MTU, inbound derived from the campus prefix is the tap direction:
    /// the live key equals the stored record's key.
    #[test]
    fn live_direction_from_the_prefix_is_the_tap_direction(
        host in 1u8..250,
        sport in any::<u16>(),
        dport in any::<u16>(),
        payload in 0usize..=1_460,
    ) {
        let inside = Ipv4Addr::new(10, 1, 1, host);
        let outside = Ipv4Addr::new(203, 0, 113, host);
        let live = FieldExtractor::new(Prefix::v4(Ipv4Addr::new(10, 1, 0, 0), 16));
        let mut b = PacketBuilder::new();
        for (direction, src, dst) in
            [(Direction::Inbound, outside, inside), (Direction::Outbound, inside, outside)]
        {
            let body = Payload::Synthetic(payload);
            let truth = GroundTruth::default();
            let control =
                TcpControl { syn: true, ack: false, fin: false, rst: false, psh: false, urg: false };
            let tcp = TcpRepr {
                src_port: 0, dst_port: 0, seq: 1, ack: 0, control,
                mss: None, window_scale: None,
            };
            let packets = [
                b.udp_v4(src, dst, sport, dport, body.clone(), 64, truth),
                b.icmp_v4(src, dst, IcmpRepr::echo_request(7, 1, &vec![0; payload]), truth),
                b.tcp_v4(src, dst, sport, dport, tcp, body, truth),
            ];
            for pkt in &packets {
                let rec = PacketRecord::from_packet(SimTime::ZERO, direction, pkt);
                prop_assert_eq!(live.from_packet(pkt), fields_from_record(&rec), "{:?}", rec);
            }
        }
    }
}
