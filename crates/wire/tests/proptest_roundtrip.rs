//! Property-based round-trip tests: for every protocol, `parse(emit(x)) == x`
//! over randomized field values, and corrupted buffers never panic.

use campuslab_wire::udp::PseudoHeader;
use campuslab_wire::*;
use proptest::prelude::*;
use std::net::{Ipv4Addr, Ipv6Addr};

fn arb_ipv4() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

fn arb_ipv6() -> impl Strategy<Value = Ipv6Addr> {
    any::<u128>().prop_map(Ipv6Addr::from)
}

fn arb_dns_name() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-z0-9]{1,16}", 1..5).prop_map(|labels| labels.join("."))
}

proptest! {
    #[test]
    fn ethernet_round_trip(dst in any::<[u8; 6]>(), src in any::<[u8; 6]>(), ty in any::<u16>()) {
        let repr = EthernetRepr {
            dst: EthernetAddress(dst),
            src: EthernetAddress(src),
            ethertype: EtherType::from(ty),
        };
        let mut buf = Vec::new();
        repr.emit(&mut buf);
        let (parsed, rest) = EthernetRepr::parse(&buf).unwrap();
        prop_assert_eq!(parsed, repr);
        prop_assert!(rest.is_empty());
    }

    #[test]
    fn ipv4_round_trip(
        src in arb_ipv4(),
        dst in arb_ipv4(),
        proto in any::<u8>(),
        ttl in any::<u8>(),
        payload_len in 0usize..1400,
        dscp in 0u8..64,
        ident in any::<u16>(),
        df in any::<bool>(),
    ) {
        let repr = Ipv4Repr {
            src, dst,
            protocol: IpProtocol::from(proto),
            ttl,
            payload_len,
            dscp,
            identification: ident,
            dont_fragment: df,
        };
        let mut buf = Vec::new();
        repr.emit(&mut buf);
        buf.resize(buf.len() + payload_len, 0x5a);
        let (parsed, payload) = Ipv4Repr::parse(&buf).unwrap();
        prop_assert_eq!(parsed, repr);
        prop_assert_eq!(payload.len(), payload_len);
    }

    #[test]
    fn ipv4_single_bit_corruption_never_verifies_header(
        src in arb_ipv4(),
        dst in arb_ipv4(),
        bit in 0usize..(IPV4_HEADER_LEN * 8),
    ) {
        let repr = Ipv4Repr {
            src, dst,
            protocol: IpProtocol::Udp,
            ttl: 64,
            payload_len: 0,
            dscp: 0,
            identification: 1,
            dont_fragment: false,
        };
        let mut buf = Vec::new();
        repr.emit(&mut buf);
        buf[bit / 8] ^= 1 << (bit % 8);
        // Any single-bit flip must be caught by version/length checks or
        // the header checksum; it must never produce the original header.
        if let Ok((parsed, _)) = Ipv4Repr::parse(&buf) { prop_assert_ne!(parsed, repr) }
    }

    #[test]
    fn udp_round_trip(
        src in arb_ipv4(),
        dst in arb_ipv4(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let pseudo = PseudoHeader::V4 { src, dst };
        let repr = UdpRepr { src_port: sport, dst_port: dport };
        let mut buf = Vec::new();
        repr.emit(&mut buf, &payload, &pseudo);
        let (parsed, got) = UdpRepr::parse(&buf, &pseudo).unwrap();
        prop_assert_eq!(parsed, repr);
        prop_assert_eq!(got, &payload[..]);
    }

    #[test]
    fn udp_over_ipv6_round_trip(
        src in arb_ipv6(),
        dst in arb_ipv6(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let pseudo = PseudoHeader::V6 { src, dst };
        let repr = UdpRepr { src_port: sport, dst_port: dport };
        let mut buf = Vec::new();
        repr.emit(&mut buf, &payload, &pseudo);
        let (parsed, got) = UdpRepr::parse(&buf, &pseudo).unwrap();
        prop_assert_eq!(parsed, repr);
        prop_assert_eq!(got, &payload[..]);
    }

    #[test]
    fn tcp_round_trip(
        src in arb_ipv4(),
        dst in arb_ipv4(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        seq in any::<u32>(),
        ack in any::<u32>(),
        window in any::<u16>(),
        mss in proptest::option::of(536u16..9000),
        ws in proptest::option::of(0u8..15),
        syn in any::<bool>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let pseudo = PseudoHeader::V4 { src, dst };
        let repr = TcpRepr {
            src_port: sport,
            dst_port: dport,
            seq,
            ack,
            control: if syn { TcpControl::SYN } else { TcpControl::ACK },
            window,
            mss,
            window_scale: ws,
        };
        let mut buf = Vec::new();
        repr.emit(&mut buf, &payload, &pseudo);
        let (parsed, got) = TcpRepr::parse(&buf, &pseudo).unwrap();
        prop_assert_eq!(parsed, repr);
        prop_assert_eq!(got, &payload[..]);
    }

    #[test]
    fn ipv6_round_trip(
        src in arb_ipv6(),
        dst in arb_ipv6(),
        proto in any::<u8>(),
        hop in any::<u8>(),
        payload_len in 0usize..1400,
        tc in any::<u8>(),
        fl in 0u32..0x10_0000,
    ) {
        let repr = Ipv6Repr {
            src, dst,
            protocol: IpProtocol::from(proto),
            hop_limit: hop,
            payload_len,
            traffic_class: tc,
            flow_label: fl,
        };
        let mut buf = Vec::new();
        repr.emit(&mut buf);
        buf.resize(buf.len() + payload_len, 0);
        let (parsed, payload) = Ipv6Repr::parse(&buf).unwrap();
        prop_assert_eq!(parsed, repr);
        prop_assert_eq!(payload.len(), payload_len);
    }

    #[test]
    fn icmp_round_trip(ident in any::<u16>(), seq in any::<u16>(), payload in proptest::collection::vec(any::<u8>(), 0..128)) {
        let repr = IcmpRepr::echo_request(ident, seq, &payload);
        let mut buf = Vec::new();
        repr.emit(&mut buf);
        let parsed = IcmpRepr::parse(&buf).unwrap();
        prop_assert_eq!(parsed.ident(), ident);
        prop_assert_eq!(parsed.seq(), seq);
        prop_assert_eq!(parsed, repr);
    }

    #[test]
    fn dns_query_round_trip(id in any::<u16>(), name in arb_dns_name(), qt in prop_oneof![Just(DnsType::A), Just(DnsType::Aaaa), Just(DnsType::Txt), Just(DnsType::Any)]) {
        let q = DnsMessage::query(id, &name, qt);
        let mut buf = Vec::new();
        q.emit(&mut buf).unwrap();
        prop_assert_eq!(DnsMessage::parse(&buf).unwrap(), q);
    }

    #[test]
    fn dns_response_round_trip(
        id in any::<u16>(),
        name in arb_dns_name(),
        addrs in proptest::collection::vec(any::<u32>(), 1..12),
    ) {
        let q = DnsMessage::query(id, &name, DnsType::A);
        let answers = addrs
            .iter()
            .map(|&a| DnsRecord {
                name: name.clone(),
                ttl: 300,
                data: DnsRecordData::A(Ipv4Addr::from(a)),
            })
            .collect();
        let r = q.answer(answers, DnsRcode::NoError);
        let mut buf = Vec::new();
        r.emit(&mut buf).unwrap();
        prop_assert_eq!(DnsMessage::parse(&buf).unwrap(), r);
    }

    #[test]
    fn dns_compression_and_opaque_round_trip(
        id in any::<u16>(),
        qname in arb_dns_name(),
        prefix in proptest::collection::vec("[a-z0-9]{1,8}", 0..3),
        code in 100u16..=250,
        rdata in proptest::collection::vec(any::<u8>(), 0..64),
        ttl in any::<u32>(),
    ) {
        // Hand-build a response whose answer names use compression pointers
        // (optionally behind extra prefix labels) and whose first record is
        // an unknown type carried opaquely. 100..=250 avoids every code the
        // parser types (1..41 and 255), so the record stays `Other(_)`.
        let mut buf = Vec::new();
        buf.extend_from_slice(&id.to_be_bytes());
        buf.extend_from_slice(&0x8180u16.to_be_bytes()); // response, RD, RA
        buf.extend_from_slice(&1u16.to_be_bytes()); // qd
        buf.extend_from_slice(&2u16.to_be_bytes()); // an
        buf.extend_from_slice(&0u16.to_be_bytes()); // ns
        buf.extend_from_slice(&0u16.to_be_bytes()); // ar
        let name_offset = buf.len();
        for label in qname.split('.') {
            buf.push(label.len() as u8);
            buf.extend_from_slice(label.as_bytes());
        }
        buf.push(0);
        buf.extend_from_slice(&1u16.to_be_bytes()); // qtype A
        buf.extend_from_slice(&1u16.to_be_bytes()); // class IN
        // Answer 1: prefix labels then a pointer to the question name, with
        // rdata of an unknown record type.
        for label in &prefix {
            buf.push(label.len() as u8);
            buf.extend_from_slice(label.as_bytes());
        }
        buf.extend_from_slice(&(0xc000u16 | name_offset as u16).to_be_bytes());
        buf.extend_from_slice(&code.to_be_bytes());
        buf.extend_from_slice(&1u16.to_be_bytes()); // class IN
        buf.extend_from_slice(&ttl.to_be_bytes());
        buf.extend_from_slice(&(rdata.len() as u16).to_be_bytes());
        buf.extend_from_slice(&rdata);
        // Answer 2: a pure-pointer name with an A record.
        buf.extend_from_slice(&(0xc000u16 | name_offset as u16).to_be_bytes());
        buf.extend_from_slice(&1u16.to_be_bytes()); // type A
        buf.extend_from_slice(&1u16.to_be_bytes()); // class IN
        buf.extend_from_slice(&ttl.to_be_bytes());
        buf.extend_from_slice(&4u16.to_be_bytes());
        buf.extend_from_slice(&[192, 0, 2, 7]);

        let first = DnsMessage::parse(&buf).unwrap();
        let expected = if prefix.is_empty() {
            qname.clone()
        } else {
            format!("{}.{}", prefix.join("."), qname)
        };
        prop_assert_eq!(&first.answers[0].name, &expected);
        prop_assert!(matches!(
            first.answers[0].data,
            DnsRecordData::Opaque(DnsType::Other(c), _) if c == code
        ));
        prop_assert_eq!(&first.answers[1].name, &qname);
        // Decompression must never have produced a name the (uncompressed)
        // encoder cannot legally re-emit: every name stays within
        // MAX_NAME_LEN, so re-encoding succeeds and re-parses identically.
        for name in first
            .questions
            .iter()
            .map(|q| &q.name)
            .chain(first.answers.iter().map(|r| &r.name))
        {
            prop_assert!(name.len() <= 255, "decompressed name too long: {}", name.len());
        }
        let mut out = Vec::new();
        first.emit(&mut out).unwrap();
        let second = DnsMessage::parse(&out).unwrap();
        prop_assert_eq!(second, first);
    }

    #[test]
    fn random_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = EthernetRepr::parse(&data);
        let _ = Ipv4Repr::parse(&data);
        let _ = Ipv6Repr::parse(&data);
        let _ = IcmpRepr::parse(&data);
        let _ = DnsMessage::parse(&data);
        let pseudo = PseudoHeader::V4 {
            src: Ipv4Addr::new(1, 2, 3, 4),
            dst: Ipv4Addr::new(5, 6, 7, 8),
        };
        let _ = UdpRepr::parse(&data, &pseudo);
        let _ = TcpRepr::parse(&data, &pseudo);
    }

    #[test]
    fn full_stack_frame_round_trip(
        host in any::<u32>(),
        sport in 1024u16..65535,
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        // Ethernet(IPv4(UDP(payload))) as the capture plane sees it.
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(192, 0, 2, 53);
        let pseudo = PseudoHeader::V4 { src, dst };
        let udp = UdpRepr { src_port: sport, dst_port: 53 };
        let mut l4 = Vec::new();
        udp.emit(&mut l4, &payload, &pseudo);
        let ip = Ipv4Repr {
            src, dst,
            protocol: IpProtocol::Udp,
            ttl: 64,
            payload_len: l4.len(),
            dscp: 0,
            identification: 99,
            dont_fragment: true,
        };
        let eth = EthernetRepr {
            dst: EthernetAddress::from_host_id(0),
            src: EthernetAddress::from_host_id(host),
            ethertype: EtherType::Ipv4,
        };
        let mut frame = Vec::new();
        eth.emit(&mut frame);
        ip.emit(&mut frame);
        frame.extend_from_slice(&l4);

        let (eth2, l3) = EthernetRepr::parse(&frame).unwrap();
        prop_assert_eq!(eth2, eth);
        let (ip2, l4b) = Ipv4Repr::parse(l3).unwrap();
        prop_assert_eq!(ip2, ip);
        let (udp2, body) = UdpRepr::parse(l4b, &pseudo).unwrap();
        prop_assert_eq!(udp2, udp);
        prop_assert_eq!(body, &payload[..]);
    }
}

/// Build one link of a compression chain at `offset`: a maximal 63-byte
/// label followed either by a pointer to `next` or by the root label.
fn chain_chunk(buf: &mut Vec<u8>, next: Option<u16>) {
    buf.push(63);
    buf.extend_from_slice(&[b'a'; 63]);
    match next {
        Some(off) => buf.extend_from_slice(&(0xc000 | off).to_be_bytes()),
        None => buf.push(0),
    }
}

#[test]
fn pointer_expansion_past_max_name_len_is_rejected() {
    // Five chained 63-byte labels expand to 5*63 + 4 = 319 presentation
    // characters, past the 255-byte RFC 1035 ceiling. The parser must
    // refuse the name during decompression rather than hand the encoder a
    // name it would have to reject (or worse, silently emit over-long).
    let mut buf = Vec::new();
    buf.extend_from_slice(&7u16.to_be_bytes()); // id
    buf.extend_from_slice(&0u16.to_be_bytes()); // flags
    buf.extend_from_slice(&1u16.to_be_bytes()); // qd
    buf.extend_from_slice(&0u16.to_be_bytes());
    buf.extend_from_slice(&0u16.to_be_bytes());
    buf.extend_from_slice(&0u16.to_be_bytes());
    // Question name: a pointer into the chunk area that follows the
    // question entry (12 + 2 pointer bytes + 4 qtype/class bytes = 18).
    let chunk0 = 18u16;
    buf.extend_from_slice(&(0xc000 | chunk0).to_be_bytes());
    buf.extend_from_slice(&[0, 1, 0, 1]); // qtype A, class IN
    // Chunks: each is 1 + 63 + 2 bytes; the last ends with the root label.
    let chunk_len = 66u16;
    for i in 0..5u16 {
        let next = if i == 4 { None } else { Some(chunk0 + (i + 1) * chunk_len) };
        chain_chunk(&mut buf, next);
    }
    assert_eq!(DnsMessage::parse(&buf).unwrap_err(), campuslab_wire::Error::BadName);
}

#[test]
fn pointer_expansion_at_max_name_len_is_accepted() {
    // The same chain with four links lands exactly on 4*63 + 3 = 255
    // characters: legal, and the uncompressed re-encoding must agree.
    let mut buf = Vec::new();
    buf.extend_from_slice(&7u16.to_be_bytes());
    buf.extend_from_slice(&0u16.to_be_bytes());
    buf.extend_from_slice(&1u16.to_be_bytes());
    buf.extend_from_slice(&0u16.to_be_bytes());
    buf.extend_from_slice(&0u16.to_be_bytes());
    buf.extend_from_slice(&0u16.to_be_bytes());
    let chunk0 = 18u16;
    buf.extend_from_slice(&(0xc000 | chunk0).to_be_bytes());
    buf.extend_from_slice(&[0, 1, 0, 1]);
    let chunk_len = 66u16;
    for i in 0..4u16 {
        let next = if i == 3 { None } else { Some(chunk0 + (i + 1) * chunk_len) };
        chain_chunk(&mut buf, next);
    }
    let parsed = DnsMessage::parse(&buf).unwrap();
    assert_eq!(parsed.questions[0].name.len(), 255);
    let mut out = Vec::new();
    parsed.emit(&mut out).unwrap();
    assert_eq!(DnsMessage::parse(&out).unwrap(), parsed);
}
