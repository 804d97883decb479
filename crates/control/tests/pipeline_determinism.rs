//! Pipeline-determinism property suite — the contract DriftPilot's
//! always-on learn→distill→compile→deploy loop is pinned by:
//!
//! * **Retrain purity**: retraining twice over byte-identical datastore
//!   windows yields the same model fingerprint and the same compiled
//!   program fingerprint, at any wall/sim time. The retrain seed is a
//!   pure function of window content (`records_hash`), nothing else.
//! * **Streaming == batch**: DriftPilot's incremental feature windows
//!   equal a one-shot `features::aggregate` extraction over the same
//!   record range — same cells, same order, same float bits.
//! * **Schema agreement**: the feature row a tree is trained on, the
//!   switch key a compiled tree matches on, and the key the live extractor
//!   reads off a packet agree name by name and value by value. Control is
//!   the one crate that sees both `features` and `dataplane`, so the
//!   contract is checked here against the real thing on both sides.

use campuslab_capture::{Direction, PacketRecord, TcpFlags};
use campuslab_control::{records_hash, retrain_window, DevLoopConfig, DriftPilot, DriftPilotConfig};
use campuslab_dataplane::{fields_from_record, FieldExtractor, FIELD_ORDER};
use campuslab_features::{aggregate, packet_features, WindowConfig, PACKET_FEATURES};
use campuslab_netsim::{GroundTruth, LinkId, Packet, PacketBuilder, Payload, Prefix, SimTime};
use campuslab_wire::{IcmpRepr, TcpControl, TcpRepr};
use proptest::prelude::*;
use proptest::{collection, proptest, ProptestConfig};
use std::net::{IpAddr, Ipv4Addr};

fn rec(ts: u64, proto: u8, sport: u16, len: u32, attack: u16, dst_octet: u8) -> PacketRecord {
    PacketRecord {
        ts_ns: ts,
        direction: Direction::Inbound,
        src: IpAddr::from([203, 0, 113, 1]),
        dst: IpAddr::from([10, 1, 1, dst_octet]),
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
        out.push(rec(base, 17, sport, 1_200 + lj, 1, 10));
        out.push(rec(base + 1_000, 6, 443, 200 + lj % 900, 0, 10));
        out.push(rec(base + 2_000, 17, sport, 90 + lj % 40, 0, 10));
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

    /// Satellite 2: streaming == batch. Feeding time-ordered records
    /// through DriftPilot's incremental window stream and sealing it
    /// yields exactly the cells `features::aggregate` computes one-shot
    /// over the same range (PartialEq covers every float bit).
    #[test]
    fn incremental_feature_windows_match_one_shot_extraction(
        specs in collection::vec(
            (0u64..5_000_000_000u64, any::<bool>(), 0u8..4, 1024u16..2048, 0u32..1_400),
            0..=300,
        ),
    ) {
        let mut recs: Vec<PacketRecord> = specs
            .iter()
            .map(|&(ts, udp, dst, sport, len)| {
                rec(ts, if udp { 17 } else { 6 }, sport, 60 + len, u16::from(len > 1_200), dst)
            })
            .collect();
        recs.sort_by_key(|r| r.ts_ns);

        let cfg = DriftPilotConfig::new(LinkId(0), 0);
        let window = WindowConfig { window_ns: cfg.window.as_nanos(), ..WindowConfig::default() };
        let mode = cfg.devloop.label_mode;
        let mut pilot = DriftPilot::new(cfg);
        for r in &recs {
            pilot.ingest_record(r.clone());
        }
        let streamed = pilot.flush_features();
        let batch = aggregate(&recs, window, mode);
        prop_assert_eq!(streamed, batch);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Schema agreement: a distilled tree splits on `PACKET_FEATURES`
    /// columns and compiles field-for-field onto `FIELD_ORDER` matches, and
    /// the switch evaluates those matches on what `FieldExtractor` reads
    /// off the live packet. A disagreement anywhere in that triangle
    /// mis-compiles every tree silently, so for every transport (UDP, ICMP,
    /// TCP under all 64 control-bit combinations), both directions and
    /// payloads up to the MTU: feature row == switch key == live key.
    #[test]
    fn feature_row_switch_key_and_live_key_agree(
        host in 1u8..250,
        from_dns in any::<bool>(),
        sport in 1024u16..=65_535,
        dport in any::<u16>(),
        payload in 0usize..=1_460,
    ) {
        let names: Vec<&str> = FIELD_ORDER.iter().map(|f| f.name()).collect();
        prop_assert_eq!(&names[..], &PACKET_FEATURES[..]);

        let inside = Ipv4Addr::new(10, 1, 1, host);
        let outside = Ipv4Addr::new(203, 0, 113, host);
        let live = FieldExtractor::new(Prefix::v4(Ipv4Addr::new(10, 1, 0, 0), 16));
        let sport = if from_dns { 53 } else { sport };
        let mut b = PacketBuilder::new();
        for (direction, src, dst) in
            [(Direction::Inbound, outside, inside), (Direction::Outbound, inside, outside)]
        {
            let body = Payload::Synthetic(payload);
            let truth = GroundTruth::default();
            let mut packets: Vec<Packet> = vec![
                b.udp_v4(src, dst, sport, dport, body.clone(), 64, truth),
                b.icmp_v4(src, dst, IcmpRepr::echo_request(7, 1, &vec![0; payload]), truth),
            ];
            for bits in 0u8..64 {
                let bit = |k: u8| bits >> k & 1 == 1;
                let control = TcpControl {
                    syn: bit(0), ack: bit(1), fin: bit(2), rst: bit(3), psh: bit(4), urg: bit(5),
                };
                let tcp = TcpRepr {
                    src_port: 0, dst_port: 0, seq: 1, ack: 0, control,
                    window: 1_024, mss: None, window_scale: None,
                };
                packets.push(b.tcp_v4(src, dst, sport, dport, tcp, body.clone(), truth));
            }
            for pkt in &packets {
                let rec = PacketRecord::from_packet(SimTime::ZERO, direction, pkt);
                let key = fields_from_record(&rec);
                prop_assert_eq!(live.from_packet(pkt), key, "live vs stored key for {:?}", rec);
                let row = packet_features(&rec);
                prop_assert_eq!(row.len(), key.len());
                for (i, name) in PACKET_FEATURES.iter().enumerate() {
                    prop_assert_eq!(row[i], f64::from(key[i]), "{} disagrees for {:?}", name, rec);
                }
            }
        }
    }
}
