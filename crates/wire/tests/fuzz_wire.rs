//! Deterministic fuzz harness over the one wire parser that reads
//! attacker-controlled bytes: DNS.
//!
//! The target emits a valid message from drawn fields, applies one
//! structured mutation (pristine pass-through, truncation, bit flip,
//! splice, or pure noise), and asserts three properties:
//!
//! 1. **Never panic**: the parser returns `Ok` or a typed `wire::Error`
//!    on every mutated input, and every name iterator of an accepted
//!    [`DnsView`] runs to its end.
//! 2. **Oracle agreement**: [`DnsView::parse`] accepts exactly what the
//!    owned decoder it replaced ([`oracle`], kept here verbatim) accepts,
//!    refuses the rest with the same error, and copies out the same
//!    message.
//! 3. **Round-trip stability**: whatever the parser accepts re-encodes
//!    without error and re-parses to the identical representation — a
//!    hostile buffer can never smuggle a value through parse that the
//!    encoder would corrupt or reject.
//!
//! The iteration count defaults to a quick smoke and is raised by CI via
//! `CAMPUSLAB_FUZZ_CASES` (>= 10_000). The vendored proptest shim keeps
//! the byte streams seeded and deterministic, so a CI failure reproduces
//! locally by case index through proptest-regressions.

use campuslab_wire::*;
use proptest::prelude::*;
use proptest::{proptest, ProptestConfig};
use std::net::Ipv4Addr;

/// The owned decoder `DnsView` replaced, kept as the reference the view
/// must agree with: it builds every name as a `String` while walking.
mod oracle {
    use campuslab_wire::*;
    use std::net::{Ipv4Addr, Ipv6Addr};

    const MAX_NAME_JUMPS: usize = 32;
    const MAX_NAME_LEN: usize = 255;

    fn be16(data: &[u8], offset: usize) -> u16 {
        u16::from_be_bytes([data[offset], data[offset + 1]])
    }

    fn be32(data: &[u8], offset: usize) -> u32 {
        u32::from_be_bytes([data[offset], data[offset + 1], data[offset + 2], data[offset + 3]])
    }

    fn flags(v: u16) -> DnsFlags {
        let opcode = match (v >> 11) & 0x0f {
            0 => DnsOpcode::Query,
            2 => DnsOpcode::Status,
            4 => DnsOpcode::Notify,
            5 => DnsOpcode::Update,
            other => DnsOpcode::Other(other as u8),
        };
        let rcode = match v & 0x0f {
            0 => DnsRcode::NoError,
            1 => DnsRcode::FormErr,
            2 => DnsRcode::ServFail,
            3 => DnsRcode::NxDomain,
            5 => DnsRcode::Refused,
            other => DnsRcode::Other(other as u8),
        };
        DnsFlags {
            response: v & 0x8000 != 0,
            opcode,
            authoritative: v & 0x0400 != 0,
            truncated: v & 0x0200 != 0,
            recursion_desired: v & 0x0100 != 0,
            recursion_available: v & 0x0080 != 0,
            rcode,
        }
    }

    pub fn parse(data: &[u8]) -> Result<DnsMessage> {
        if data.len() < 12 {
            return Err(Error::Truncated);
        }
        let id = be16(data, 0);
        let flags = flags(be16(data, 2));
        let qd = usize::from(be16(data, 4));
        let an = usize::from(be16(data, 6));
        let ns = usize::from(be16(data, 8));
        let ar = usize::from(be16(data, 10));
        let mut pos = 12;
        let mut questions = Vec::with_capacity(qd.min(32));
        for _ in 0..qd {
            let (name, next) = parse_name(data, pos)?;
            if next + 4 > data.len() {
                return Err(Error::Truncated);
            }
            questions.push(DnsQuestion { name, qtype: DnsType::from(be16(data, next)) });
            pos = next + 4;
        }
        let mut sections = [Vec::new(), Vec::new(), Vec::new()];
        for (idx, count) in [an, ns, ar].into_iter().enumerate() {
            for _ in 0..count {
                let (record, next) = parse_record(data, pos)?;
                sections[idx].push(record);
                pos = next;
            }
        }
        let [answers, authorities, additionals] = sections;
        Ok(DnsMessage { id, flags, questions, answers, authorities, additionals })
    }

    fn parse_name(data: &[u8], start: usize) -> Result<(String, usize)> {
        let mut name = String::new();
        let mut pos = start;
        let mut jumps = 0usize;
        let mut resume = None;
        loop {
            if pos >= data.len() {
                return Err(Error::Truncated);
            }
            let len = data[pos];
            if len & 0xc0 == 0xc0 {
                if pos + 1 >= data.len() {
                    return Err(Error::Truncated);
                }
                jumps += 1;
                if jumps > MAX_NAME_JUMPS {
                    return Err(Error::BadName);
                }
                if resume.is_none() {
                    resume = Some(pos + 2);
                }
                pos = usize::from(be16(data, pos) & 0x3fff);
                continue;
            }
            if len & 0xc0 != 0 {
                return Err(Error::BadName);
            }
            if len == 0 {
                pos += 1;
                break;
            }
            let len = usize::from(len);
            if pos + 1 + len > data.len() {
                return Err(Error::Truncated);
            }
            if !name.is_empty() {
                name.push('.');
            }
            for &b in &data[pos + 1..pos + 1 + len] {
                if !(0x21..=0x7e).contains(&b) || b == b'.' {
                    return Err(Error::BadName);
                }
                name.push(b.to_ascii_lowercase() as char);
            }
            if name.len() > MAX_NAME_LEN {
                return Err(Error::BadName);
            }
            pos += 1 + len;
        }
        Ok((name, resume.unwrap_or(pos)))
    }

    fn parse_record(data: &[u8], start: usize) -> Result<(DnsRecord, usize)> {
        let (name, pos) = parse_name(data, start)?;
        if pos + 10 > data.len() {
            return Err(Error::Truncated);
        }
        let rtype = DnsType::from(be16(data, pos));
        let ttl = be32(data, pos + 4);
        let rdlen = usize::from(be16(data, pos + 8));
        let rdata_start = pos + 10;
        if rdata_start + rdlen > data.len() {
            return Err(Error::Truncated);
        }
        let rdata = &data[rdata_start..rdata_start + rdlen];
        let record_data = match rtype {
            DnsType::A => {
                if rdlen != 4 {
                    return Err(Error::BadLength);
                }
                DnsRecordData::A(Ipv4Addr::new(rdata[0], rdata[1], rdata[2], rdata[3]))
            }
            DnsType::Aaaa => {
                if rdlen != 16 {
                    return Err(Error::BadLength);
                }
                let mut o = [0u8; 16];
                o.copy_from_slice(rdata);
                DnsRecordData::Aaaa(Ipv6Addr::from(o))
            }
            DnsType::Cname => DnsRecordData::Cname(parse_name(data, rdata_start)?.0),
            DnsType::Ns => DnsRecordData::Ns(parse_name(data, rdata_start)?.0),
            DnsType::Txt => DnsRecordData::Txt(rdata.to_vec()),
            other => DnsRecordData::Opaque(other, rdata.to_vec()),
        };
        Ok((DnsRecord { name, ttl, data: record_data }, rdata_start + rdlen))
    }
}

/// Walk every name of an accepted view to its end, checking each against
/// the owned copy of the same message.
fn drive_names(view: &DnsView<'_>, owned: &DnsMessage) {
    let folded = |name: DnsName<'_>| -> String {
        let labels: Vec<String> =
            name.labels().map(|l| String::from_utf8(l.to_ascii_lowercase()).unwrap()).collect();
        assert!(labels.len() <= 128, "a name yields at most 128 labels");
        labels.join(".")
    };
    for (q, owned_q) in view.questions().zip(&owned.questions) {
        assert_eq!(folded(q.name), owned_q.name);
        assert_eq!(q.name.len(), owned_q.name.len());
    }
    let sections = [
        (DnsSection::Answer, &owned.answers),
        (DnsSection::Authority, &owned.authorities),
        (DnsSection::Additional, &owned.additionals),
    ];
    for (section, records) in sections {
        assert_eq!(view.records(section).count(), records.len());
        for (r, owned_r) in view.records(section).zip(records) {
            assert_eq!(folded(r.name), owned_r.name);
            match (r.target(), &owned_r.data) {
                (Some(t), DnsRecordData::Cname(n) | DnsRecordData::Ns(n)) => {
                    assert_eq!(&folded(t), n)
                }
                (None, _) => {}
                (Some(_), other) => panic!("a target on {other:?}"),
            }
        }
    }
}

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

proptest! {
    #![proptest_config(ProptestConfig { cases: fuzz_cases(), ..ProptestConfig::default() })]

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
        // One additional record written compressed by hand, so mutations
        // reach the pointer paths: a CNAME whose owner and target both
        // point at the question name (offset 12).
        buf[11] = 1;
        buf.extend_from_slice(&[0xc0, 12, 0, 5, 0, 1, 0, 0, 0, 60, 0, 2, 0xc0, 12]);
        let data = corrupt(buf, mode, cut, bit, at, &noise);
        let view = DnsView::parse(&data);
        prop_assert_eq!(view.map(DnsView::to_owned), oracle::parse(&data));
        if let Ok(view) = view {
            drive_names(&view, &view.to_owned());
        }
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
