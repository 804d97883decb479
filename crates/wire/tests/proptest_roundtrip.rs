//! Property-based DNS tests: `parse(emit(x)) == x` over randomized
//! messages, the `DnsWriter` path a generator takes writes the bytes
//! `emit` does, compression pointers decode to names the encoder can
//! re-emit, and random bytes never panic the parser.

use campuslab_wire::*;
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_dns_name() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-z0-9]{1,16}", 1..5).prop_map(|labels| labels.join("."))
}

/// Record data of every kind the codec types, plus an opaque code.
fn arb_record_data() -> impl Strategy<Value = DnsRecordData> {
    prop_oneof![
        any::<u32>().prop_map(|a| DnsRecordData::A(Ipv4Addr::from(a))),
        any::<u128>().prop_map(|a| DnsRecordData::Aaaa(a.into())),
        arb_dns_name().prop_map(DnsRecordData::Cname),
        arb_dns_name().prop_map(DnsRecordData::Ns),
        proptest::collection::vec(any::<u8>(), 0..300).prop_map(DnsRecordData::Txt),
        (100u16..=250, proptest::collection::vec(any::<u8>(), 0..40))
            .prop_map(|(code, bytes)| DnsRecordData::Opaque(DnsType::Other(code), bytes)),
    ]
}

/// Header flags from their 16 wire bits, read through a bare header.
fn flags_from_bits(bits: u16) -> DnsFlags {
    let [hi, lo] = bits.to_be_bytes();
    DnsView::parse(&[0, 0, hi, lo, 0, 0, 0, 0, 0, 0, 0, 0]).unwrap().flags()
}

fn arb_records() -> impl Strategy<Value = Vec<DnsRecord>> {
    proptest::collection::vec(
        (arb_dns_name(), any::<u32>(), arb_record_data())
            .prop_map(|(name, ttl, data)| DnsRecord { name, ttl, data }),
        0..6,
    )
}

proptest! {
    #[test]
    fn writer_path_matches_emit(
        id in any::<u16>(),
        flags in any::<u16>(),
        questions in proptest::collection::vec((arb_dns_name(), any::<u16>()), 0..3),
        answers in arb_records(),
        authorities in arb_records(),
        additionals in arb_records(),
    ) {
        let msg = DnsMessage {
            id,
            flags: flags_from_bits(flags),
            questions: questions
                .into_iter()
                .map(|(name, qtype)| DnsQuestion { name, qtype: DnsType::from(qtype) })
                .collect(),
            answers,
            authorities,
            additionals,
        };
        let mut emitted = Vec::new();
        msg.emit(&mut emitted).unwrap();
        prop_assert_eq!(msg.wire_len(), emitted.len());

        // The way a generator writes: every RDATA appended in place by a
        // closure, into a scratch buffer that still holds the last message.
        let mut scratch = b"the previous message".to_vec();
        scratch.clear();
        let mut w = DnsWriter::new(&mut scratch, msg.id, msg.flags);
        for q in &msg.questions {
            w.question(&q.name, q.qtype).unwrap();
        }
        let sections = [
            (DnsSection::Answer, &msg.answers),
            (DnsSection::Authority, &msg.authorities),
            (DnsSection::Additional, &msg.additionals),
        ];
        for (section, records) in sections {
            for r in records {
                w.record_with(section, &r.name, r.data.rtype(), r.ttl, |rdata| match &r.data {
                    DnsRecordData::A(a) => rdata.extend_from_slice(&a.octets()),
                    DnsRecordData::Aaaa(a) => rdata.extend_from_slice(&a.octets()),
                    DnsRecordData::Cname(n) | DnsRecordData::Ns(n) => {
                        for label in n.split('.') {
                            rdata.push(label.len() as u8);
                            rdata.extend_from_slice(label.as_bytes());
                        }
                        rdata.push(0);
                    }
                    DnsRecordData::Txt(b) | DnsRecordData::Opaque(_, b) => rdata.extend_from_slice(b),
                })
                .unwrap();
            }
        }
        prop_assert_eq!(&scratch, &emitted);
        prop_assert_eq!(DnsMessage::parse(&scratch).unwrap(), msg);
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
        let _ = DnsMessage::parse(&data);
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
