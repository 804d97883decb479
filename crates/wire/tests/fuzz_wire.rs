//! Deterministic fuzz harness over every wire parser that reads
//! attacker-controlled bytes: Ethernet, IPv4, IPv6, UDP, TCP, ICMPv4 and
//! DNS.
//!
//! Each target emits a valid message from drawn fields, applies one
//! structured mutation (pristine pass-through, truncation, bit flip,
//! splice, or pure noise), and asserts two properties:
//!
//! 1. **Never panic**: the parser returns `Ok` or a typed `wire::Error`
//!    on every mutated input.
//! 2. **Round-trip stability**: whatever the parser accepts re-encodes
//!    without error and re-parses to the identical representation — a
//!    hostile buffer can never smuggle a value through parse that the
//!    encoder would corrupt or reject.
//!
//! The iteration count defaults to a quick smoke and is raised by CI via
//! `CAMPUSLAB_FUZZ_CASES` (>= 10_000 per target). The vendored proptest
//! shim keeps the byte streams seeded and deterministic, so a CI failure
//! reproduces locally by case index through proptest-regressions.

use campuslab_wire::udp::PseudoHeader;
use campuslab_wire::*;
use proptest::prelude::*;
use proptest::{proptest, ProptestConfig};
use std::net::{Ipv4Addr, Ipv6Addr};

/// Iterations per fuzz target; CI raises this through the environment.
fn fuzz_cases() -> u32 {
    std::env::var("CAMPUSLAB_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(512)
}

/// Apply one structured mutation to a valid emission. Positions are drawn
/// as permille of the buffer length so every case is meaningful for every
/// target regardless of its size.
fn corrupt(
    mut bytes: Vec<u8>,
    mode: u8,
    cut_permille: u16,
    bit: u32,
    at_permille: u16,
    noise: &[u8],
) -> Vec<u8> {
    if bytes.is_empty() {
        return noise.to_vec();
    }
    match mode % 5 {
        // Pristine: the baseline round-trip must of course hold.
        0 => bytes,
        // Truncate to a strict or improper prefix.
        1 => {
            let cut = bytes.len() * usize::from(cut_permille % 1001) / 1000;
            bytes.truncate(cut);
            bytes
        }
        // Flip a single bit.
        2 => {
            let pos = (bit as usize / 8) % bytes.len();
            bytes[pos] ^= 1 << (bit % 8);
            bytes
        }
        // Splice noise over (and possibly past) the tail.
        3 => {
            let at = bytes.len() * usize::from(at_permille % 1000) / 1000;
            for (i, &b) in noise.iter().enumerate() {
                let idx = at + i;
                if idx < bytes.len() {
                    bytes[idx] = b;
                } else {
                    bytes.push(b);
                }
            }
            bytes
        }
        // Replace with pure noise.
        _ => noise.to_vec(),
    }
}

fn pseudo() -> PseudoHeader {
    PseudoHeader::V4 {
        src: Ipv4Addr::new(10, 1, 2, 3),
        dst: Ipv4Addr::new(192, 0, 2, 53),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: fuzz_cases(), ..ProptestConfig::default() })]

    #[test]
    fn fuzz_ethernet(
        dst in any::<[u8; 6]>(),
        src in any::<[u8; 6]>(),
        ty in any::<u16>(),
        body in proptest::collection::vec(any::<u8>(), 0..64),
        mode in any::<u8>(),
        cut in any::<u16>(),
        bit in any::<u32>(),
        at in any::<u16>(),
        noise in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut buf = Vec::new();
        EthernetRepr {
            dst: EthernetAddress(dst),
            src: EthernetAddress(src),
            ethertype: EtherType::from(ty),
        }
        .emit(&mut buf);
        buf.extend_from_slice(&body);
        let data = corrupt(buf, mode, cut, bit, at, &noise);
        if let Ok((repr, rest)) = EthernetRepr::parse(&data) {
            let mut out = Vec::new();
            repr.emit(&mut out);
            out.extend_from_slice(rest);
            let (again, rest2) = EthernetRepr::parse(&out).unwrap();
            prop_assert_eq!(again, repr);
            prop_assert_eq!(rest2, rest);
        }
    }

    #[test]
    fn fuzz_ipv4(
        src in any::<u32>(),
        dst in any::<u32>(),
        proto in any::<u8>(),
        ttl in any::<u8>(),
        payload_len in 0usize..256,
        mode in any::<u8>(),
        cut in any::<u16>(),
        bit in any::<u32>(),
        at in any::<u16>(),
        noise in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let repr = Ipv4Repr {
            src: Ipv4Addr::from(src),
            dst: Ipv4Addr::from(dst),
            protocol: IpProtocol::from(proto),
            ttl,
            payload_len,
            dscp: 0,
            identification: 7,
            dont_fragment: true,
        };
        let mut buf = Vec::new();
        repr.emit(&mut buf);
        buf.resize(buf.len() + payload_len, 0x5a);
        let data = corrupt(buf, mode, cut, bit, at, &noise);
        if let Ok((got, payload)) = Ipv4Repr::parse(&data) {
            let mut out = Vec::new();
            got.emit(&mut out);
            out.extend_from_slice(payload);
            let (again, payload2) = Ipv4Repr::parse(&out).unwrap();
            prop_assert_eq!(again, got);
            prop_assert_eq!(payload2, payload);
        }
    }

    #[test]
    fn fuzz_ipv6(
        src in any::<u128>(),
        dst in any::<u128>(),
        proto in any::<u8>(),
        hop in any::<u8>(),
        payload_len in 0usize..256,
        fl in 0u32..0x10_0000,
        mode in any::<u8>(),
        cut in any::<u16>(),
        bit in any::<u32>(),
        at in any::<u16>(),
        noise in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let repr = Ipv6Repr {
            src: Ipv6Addr::from(src),
            dst: Ipv6Addr::from(dst),
            protocol: IpProtocol::from(proto),
            hop_limit: hop,
            payload_len,
            traffic_class: 0,
            flow_label: fl,
        };
        let mut buf = Vec::new();
        repr.emit(&mut buf);
        buf.resize(buf.len() + payload_len, 0x6b);
        let data = corrupt(buf, mode, cut, bit, at, &noise);
        if let Ok((got, payload)) = Ipv6Repr::parse(&data) {
            let mut out = Vec::new();
            got.emit(&mut out);
            out.extend_from_slice(payload);
            let (again, payload2) = Ipv6Repr::parse(&out).unwrap();
            prop_assert_eq!(again, got);
            prop_assert_eq!(payload2, payload);
        }
    }

    #[test]
    fn fuzz_udp(
        sport in any::<u16>(),
        dport in any::<u16>(),
        body in proptest::collection::vec(any::<u8>(), 0..128),
        mode in any::<u8>(),
        cut in any::<u16>(),
        bit in any::<u32>(),
        at in any::<u16>(),
        noise in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let ph = pseudo();
        let mut buf = Vec::new();
        UdpRepr { src_port: sport, dst_port: dport }.emit(&mut buf, &body, &ph);
        let data = corrupt(buf, mode, cut, bit, at, &noise);
        if let Ok((repr, payload)) = UdpRepr::parse(&data, &ph) {
            let mut out = Vec::new();
            repr.emit(&mut out, payload, &ph);
            let (again, payload2) = UdpRepr::parse(&out, &ph).unwrap();
            prop_assert_eq!(again, repr);
            prop_assert_eq!(payload2, payload);
        }
    }

    #[test]
    fn fuzz_tcp(
        sport in any::<u16>(),
        dport in any::<u16>(),
        seq in any::<u32>(),
        ack in any::<u32>(),
        window in any::<u16>(),
        mss in proptest::option::of(536u16..9000),
        ws in proptest::option::of(0u8..15),
        flags in any::<u8>(),
        body in proptest::collection::vec(any::<u8>(), 0..128),
        mode in any::<u8>(),
        cut in any::<u16>(),
        bit in any::<u32>(),
        at in any::<u16>(),
        noise in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let ph = pseudo();
        let repr = TcpRepr {
            src_port: sport,
            dst_port: dport,
            seq,
            ack,
            control: if flags & 1 != 0 { TcpControl::SYN } else { TcpControl::ACK },
            window,
            mss,
            window_scale: ws,
        };
        let mut buf = Vec::new();
        repr.emit(&mut buf, &body, &ph);
        let data = corrupt(buf, mode, cut, bit, at, &noise);
        if let Ok((got, payload)) = TcpRepr::parse(&data, &ph) {
            let mut out = Vec::new();
            got.emit(&mut out, payload, &ph);
            let (again, payload2) = TcpRepr::parse(&out, &ph).unwrap();
            prop_assert_eq!(again, got);
            prop_assert_eq!(payload2, payload);
        }
    }

    #[test]
    fn fuzz_icmp(
        ident in any::<u16>(),
        seq in any::<u16>(),
        body in proptest::collection::vec(any::<u8>(), 0..96),
        mode in any::<u8>(),
        cut in any::<u16>(),
        bit in any::<u32>(),
        at in any::<u16>(),
        noise in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut buf = Vec::new();
        IcmpRepr::echo_request(ident, seq, &body).emit(&mut buf);
        let data = corrupt(buf, mode, cut, bit, at, &noise);
        if let Ok(repr) = IcmpRepr::parse(&data) {
            let mut out = Vec::new();
            repr.emit(&mut out);
            prop_assert_eq!(IcmpRepr::parse(&out).unwrap(), repr);
        }
    }

    #[test]
    fn fuzz_dns(
        id in any::<u16>(),
        labels in proptest::collection::vec("[a-z0-9]{1,12}", 1..4),
        qtype_raw in any::<u16>(),
        addrs in proptest::collection::vec(any::<u32>(), 0..4),
        txt in proptest::collection::vec(any::<u8>(), 0..32),
        mode in any::<u8>(),
        cut in any::<u16>(),
        bit in any::<u32>(),
        at in any::<u16>(),
        noise in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        let name = labels.join(".");
        let q = DnsMessage::query(id, &name, DnsType::from(qtype_raw));
        let mut answers: Vec<DnsRecord> = addrs
            .iter()
            .map(|&a| DnsRecord {
                name: name.clone(),
                ttl: 300,
                data: DnsRecordData::A(Ipv4Addr::from(a)),
            })
            .collect();
        answers.push(DnsRecord {
            name: name.clone(),
            ttl: 60,
            data: DnsRecordData::Txt(txt),
        });
        let msg = q.answer(answers, DnsRcode::NoError);
        let mut buf = Vec::new();
        msg.emit(&mut buf).unwrap();
        let data = corrupt(buf, mode, cut, bit, at, &noise);
        if let Ok(parsed) = DnsMessage::parse(&data) {
            // Anything parse accepts must re-encode cleanly: parse enforces
            // label bytes, label lengths and MAX_NAME_LEN, so emit has no
            // grounds left to refuse.
            let mut out = Vec::new();
            parsed.emit(&mut out).unwrap();
            prop_assert_eq!(DnsMessage::parse(&out).unwrap(), parsed);
        }
    }
}
