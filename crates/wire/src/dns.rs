//! DNS messages (RFC 1035), sufficient for campus border monitoring: full
//! header decoding, questions, answer/authority/additional records, name
//! decompression, and the record types that dominate campus traffic.
//!
//! DNS matters to CampusLab beyond being a protocol: the paper's running
//! network-automation example is detecting a **DNS amplification attack**,
//! so the capture plane parses these messages into metadata records and the
//! traffic generator synthesizes both legitimate lookups and attack floods.

use crate::{be16, be32, Error, Result};
use std::net::{Ipv4Addr, Ipv6Addr};

/// Maximum label chain hops while decompressing, to defeat pointer loops.
const MAX_NAME_JUMPS: usize = 32;
/// Maximum decoded name length (RFC 1035 §2.3.4).
const MAX_NAME_LEN: usize = 255;

/// DNS opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DnsOpcode {
    Query,
    Status,
    Notify,
    Update,
    Other(u8),
}

impl DnsOpcode {
    fn from_u8(v: u8) -> Self {
        match v {
            0 => DnsOpcode::Query,
            2 => DnsOpcode::Status,
            4 => DnsOpcode::Notify,
            5 => DnsOpcode::Update,
            other => DnsOpcode::Other(other),
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            DnsOpcode::Query => 0,
            DnsOpcode::Status => 2,
            DnsOpcode::Notify => 4,
            DnsOpcode::Update => 5,
            DnsOpcode::Other(v) => v & 0x0f,
        }
    }
}

/// DNS response code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DnsRcode {
    NoError,
    FormErr,
    ServFail,
    NxDomain,
    Refused,
    Other(u8),
}

impl DnsRcode {
    fn from_u8(v: u8) -> Self {
        match v {
            0 => DnsRcode::NoError,
            1 => DnsRcode::FormErr,
            2 => DnsRcode::ServFail,
            3 => DnsRcode::NxDomain,
            5 => DnsRcode::Refused,
            other => DnsRcode::Other(other),
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            DnsRcode::NoError => 0,
            DnsRcode::FormErr => 1,
            DnsRcode::ServFail => 2,
            DnsRcode::NxDomain => 3,
            DnsRcode::Refused => 5,
            DnsRcode::Other(v) => v & 0x0f,
        }
    }
}

/// DNS record/query type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DnsType {
    A,
    Ns,
    Cname,
    Soa,
    Ptr,
    Mx,
    Txt,
    Aaaa,
    Opt,
    /// The `ANY` query type beloved of amplification attackers.
    Any,
    Other(u16),
}

impl From<u16> for DnsType {
    fn from(v: u16) -> Self {
        match v {
            1 => DnsType::A,
            2 => DnsType::Ns,
            5 => DnsType::Cname,
            6 => DnsType::Soa,
            12 => DnsType::Ptr,
            15 => DnsType::Mx,
            16 => DnsType::Txt,
            28 => DnsType::Aaaa,
            41 => DnsType::Opt,
            255 => DnsType::Any,
            other => DnsType::Other(other),
        }
    }
}

impl From<DnsType> for u16 {
    fn from(v: DnsType) -> u16 {
        match v {
            DnsType::A => 1,
            DnsType::Ns => 2,
            DnsType::Cname => 5,
            DnsType::Soa => 6,
            DnsType::Ptr => 12,
            DnsType::Mx => 15,
            DnsType::Txt => 16,
            DnsType::Aaaa => 28,
            DnsType::Opt => 41,
            DnsType::Any => 255,
            DnsType::Other(other) => other,
        }
    }
}

/// The header flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DnsFlags {
    pub response: bool,
    pub opcode: DnsOpcode,
    pub authoritative: bool,
    pub truncated: bool,
    pub recursion_desired: bool,
    pub recursion_available: bool,
    pub rcode: DnsRcode,
}

impl DnsFlags {
    /// Standard recursive query flags.
    pub fn query() -> Self {
        DnsFlags {
            response: false,
            opcode: DnsOpcode::Query,
            authoritative: false,
            truncated: false,
            recursion_desired: true,
            recursion_available: false,
            rcode: DnsRcode::NoError,
        }
    }

    /// Standard recursive-resolver response flags.
    pub fn response(rcode: DnsRcode) -> Self {
        DnsFlags {
            response: true,
            opcode: DnsOpcode::Query,
            authoritative: false,
            truncated: false,
            recursion_desired: true,
            recursion_available: true,
            rcode,
        }
    }

    fn from_u16(v: u16) -> Self {
        DnsFlags {
            response: v & 0x8000 != 0,
            opcode: DnsOpcode::from_u8(((v >> 11) & 0x0f) as u8),
            authoritative: v & 0x0400 != 0,
            truncated: v & 0x0200 != 0,
            recursion_desired: v & 0x0100 != 0,
            recursion_available: v & 0x0080 != 0,
            rcode: DnsRcode::from_u8((v & 0x0f) as u8),
        }
    }

    fn to_u16(self) -> u16 {
        (u16::from(self.response) << 15)
            | (u16::from(self.opcode.as_u8()) << 11)
            | (u16::from(self.authoritative) << 10)
            | (u16::from(self.truncated) << 9)
            | (u16::from(self.recursion_desired) << 8)
            | (u16::from(self.recursion_available) << 7)
            | u16::from(self.rcode.as_u8())
    }
}

/// A question entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsQuestion {
    pub name: String,
    pub qtype: DnsType,
}

/// Typed record data for the types CampusLab decodes; everything else is
/// carried opaquely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DnsRecordData {
    A(Ipv4Addr),
    Aaaa(Ipv6Addr),
    Cname(String),
    Ns(String),
    Txt(Vec<u8>),
    Opaque(DnsType, Vec<u8>),
}

impl DnsRecordData {
    /// The record type this data belongs to.
    pub fn rtype(&self) -> DnsType {
        match self {
            DnsRecordData::A(_) => DnsType::A,
            DnsRecordData::Aaaa(_) => DnsType::Aaaa,
            DnsRecordData::Cname(_) => DnsType::Cname,
            DnsRecordData::Ns(_) => DnsType::Ns,
            DnsRecordData::Txt(_) => DnsType::Txt,
            DnsRecordData::Opaque(ty, _) => *ty,
        }
    }
}

/// A resource record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsRecord {
    pub name: String,
    pub ttl: u32,
    pub data: DnsRecordData,
}

/// A complete DNS message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsMessage {
    pub id: u16,
    pub flags: DnsFlags,
    pub questions: Vec<DnsQuestion>,
    pub answers: Vec<DnsRecord>,
    pub authorities: Vec<DnsRecord>,
    pub additionals: Vec<DnsRecord>,
}

impl DnsMessage {
    /// Build a single-question recursive query.
    pub fn query(id: u16, name: &str, qtype: DnsType) -> Self {
        DnsMessage {
            id,
            flags: DnsFlags::query(),
            questions: vec![DnsQuestion { name: name.to_string(), qtype }],
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// Build a response echoing this query with the given answers.
    pub fn answer(&self, answers: Vec<DnsRecord>, rcode: DnsRcode) -> Self {
        DnsMessage {
            id: self.id,
            flags: DnsFlags::response(rcode),
            questions: self.questions.clone(),
            answers,
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// Parse a message from a UDP payload. Compression pointers are followed
    /// with loop protection.
    pub fn parse(data: &[u8]) -> Result<DnsMessage> {
        if data.len() < 12 {
            return Err(Error::Truncated);
        }
        let id = be16(data, 0);
        let flags = DnsFlags::from_u16(be16(data, 2));
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
            questions.push(DnsQuestion {
                name,
                qtype: DnsType::from(be16(data, next)),
            });
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
        Ok(DnsMessage {
            id,
            flags,
            questions,
            answers,
            authorities,
            additionals,
        })
    }

    /// Append the message to `buf`. Names are emitted uncompressed, which is
    /// always valid (and what many stub resolvers do). A section count or
    /// RDATA length past `u16::MAX` is [`Error::BadLength`], never wrapped.
    pub fn emit(&self, buf: &mut Vec<u8>) -> Result<()> {
        buf.extend_from_slice(&self.id.to_be_bytes());
        buf.extend_from_slice(&self.flags.to_u16().to_be_bytes());
        for count in [
            self.questions.len(),
            self.answers.len(),
            self.authorities.len(),
            self.additionals.len(),
        ] {
            buf.extend_from_slice(&field_u16(count)?.to_be_bytes());
        }
        for q in &self.questions {
            emit_name(&q.name, buf)?;
            buf.extend_from_slice(&u16::from(q.qtype).to_be_bytes());
            buf.extend_from_slice(&1u16.to_be_bytes()); // class IN
        }
        for section in [&self.answers, &self.authorities, &self.additionals] {
            for r in section {
                emit_record(r, buf)?;
            }
        }
        Ok(())
    }

    /// The emitted size of this message, in bytes.
    pub fn wire_len(&self) -> usize {
        let mut buf = Vec::new();
        // Emission only fails on malformed names, in which case a zero
        // length is the honest answer for sizing purposes.
        if self.emit(&mut buf).is_err() {
            return 0;
        }
        buf.len()
    }

    /// True if this message looks like an amplification vector: an ANY/TXT
    /// query or a response much larger than its implied query.
    pub fn is_amplification_prone(&self) -> bool {
        if !self.flags.response {
            return self
                .questions
                .iter()
                .any(|q| matches!(q.qtype, DnsType::Any | DnsType::Txt));
        }
        self.answers.len() >= 8
    }
}

fn parse_name(data: &[u8], start: usize) -> Result<(String, usize)> {
    let mut name = String::new();
    let mut pos = start;
    let mut jumps = 0usize;
    // Where parsing resumes after the name: set at the first pointer.
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
            // Labels are case-insensitive ASCII in practice; normalize. The
            // presentation form must survive `emit_name` byte-for-byte, so
            // reject anything outside printable ASCII as well as the label
            // separator itself: a 0x2e inside a label would re-split on
            // emission and a byte >= 0x80 would re-encode as two UTF-8
            // bytes, silently changing the wire form.
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

fn emit_name(name: &str, buf: &mut Vec<u8>) -> Result<()> {
    if name.len() > MAX_NAME_LEN {
        return Err(Error::BadName);
    }
    if !name.is_empty() {
        for label in name.split('.') {
            if label.is_empty() || label.len() > 63 {
                return Err(Error::BadName);
            }
            buf.push(label.len() as u8);
            buf.extend_from_slice(label.as_bytes());
        }
    }
    buf.push(0);
    Ok(())
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
        DnsType::Cname => {
            let (target, _) = parse_name(data, rdata_start)?;
            DnsRecordData::Cname(target)
        }
        DnsType::Ns => {
            let (target, _) = parse_name(data, rdata_start)?;
            DnsRecordData::Ns(target)
        }
        DnsType::Txt => DnsRecordData::Txt(rdata.to_vec()),
        other => DnsRecordData::Opaque(other, rdata.to_vec()),
    };
    Ok((
        DnsRecord { name, ttl, data: record_data },
        rdata_start + rdlen,
    ))
}

fn emit_record(record: &DnsRecord, buf: &mut Vec<u8>) -> Result<()> {
    emit_name(&record.name, buf)?;
    buf.extend_from_slice(&u16::from(record.data.rtype()).to_be_bytes());
    buf.extend_from_slice(&1u16.to_be_bytes()); // class IN
    buf.extend_from_slice(&record.ttl.to_be_bytes());
    let mut rdata = Vec::new();
    match &record.data {
        DnsRecordData::A(addr) => rdata.extend_from_slice(&addr.octets()),
        DnsRecordData::Aaaa(addr) => rdata.extend_from_slice(&addr.octets()),
        DnsRecordData::Cname(target) | DnsRecordData::Ns(target) => {
            emit_name(target, &mut rdata)?
        }
        DnsRecordData::Txt(bytes) => rdata.extend_from_slice(bytes),
        DnsRecordData::Opaque(_, bytes) => rdata.extend_from_slice(bytes),
    }
    buf.extend_from_slice(&field_u16(rdata.len())?.to_be_bytes());
    buf.extend_from_slice(&rdata);
    Ok(())
}

/// A count or length as its 16-bit wire field, refusing what does not fit.
fn field_u16(n: usize) -> Result<u16> {
    u16::try_from(n).map_err(|_| Error::BadLength)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a_record(name: &str, addr: [u8; 4]) -> DnsRecord {
        DnsRecord {
            name: name.to_string(),
            ttl: 300,
            data: DnsRecordData::A(Ipv4Addr::from(addr)),
        }
    }

    #[test]
    fn query_round_trip() {
        let q = DnsMessage::query(0x1234, "www.example.edu", DnsType::A);
        let mut buf = Vec::new();
        q.emit(&mut buf).unwrap();
        let parsed = DnsMessage::parse(&buf).unwrap();
        assert_eq!(parsed, q);
        assert_eq!(parsed.questions[0].name, "www.example.edu");
    }

    #[test]
    fn response_round_trip() {
        let q = DnsMessage::query(7, "cdn.example.org", DnsType::A);
        let r = q.answer(
            vec![
                a_record("cdn.example.org", [198, 51, 100, 1]),
                DnsRecord {
                    name: "cdn.example.org".into(),
                    ttl: 60,
                    data: DnsRecordData::Cname("edge.example.net".into()),
                },
            ],
            DnsRcode::NoError,
        );
        let mut buf = Vec::new();
        r.emit(&mut buf).unwrap();
        let parsed = DnsMessage::parse(&buf).unwrap();
        assert_eq!(parsed, r);
        assert!(parsed.flags.response);
        assert_eq!(parsed.answers.len(), 2);
    }

    #[test]
    fn compression_pointers_are_followed() {
        // Hand-build a response where the answer name points at the question.
        let mut buf = Vec::new();
        buf.extend_from_slice(&0xabcdu16.to_be_bytes()); // id
        buf.extend_from_slice(&0x8180u16.to_be_bytes()); // flags: response, RD, RA
        buf.extend_from_slice(&1u16.to_be_bytes()); // qd
        buf.extend_from_slice(&1u16.to_be_bytes()); // an
        buf.extend_from_slice(&0u16.to_be_bytes()); // ns
        buf.extend_from_slice(&0u16.to_be_bytes()); // ar
        let name_offset = buf.len();
        emit_name("a.example.edu", &mut buf).unwrap();
        buf.extend_from_slice(&1u16.to_be_bytes()); // qtype A
        buf.extend_from_slice(&1u16.to_be_bytes()); // class IN
        buf.extend_from_slice(&(0xc000u16 | name_offset as u16).to_be_bytes());
        buf.extend_from_slice(&1u16.to_be_bytes()); // type A
        buf.extend_from_slice(&1u16.to_be_bytes()); // class IN
        buf.extend_from_slice(&60u32.to_be_bytes()); // ttl
        buf.extend_from_slice(&4u16.to_be_bytes()); // rdlen
        buf.extend_from_slice(&[203, 0, 113, 5]);
        let parsed = DnsMessage::parse(&buf).unwrap();
        assert_eq!(parsed.answers[0].name, "a.example.edu");
        assert_eq!(
            parsed.answers[0].data,
            DnsRecordData::A(Ipv4Addr::new(203, 0, 113, 5))
        );
    }

    #[test]
    fn pointer_loop_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u16.to_be_bytes());
        buf.extend_from_slice(&0u16.to_be_bytes());
        buf.extend_from_slice(&1u16.to_be_bytes()); // one question
        buf.extend_from_slice(&0u16.to_be_bytes());
        buf.extend_from_slice(&0u16.to_be_bytes());
        buf.extend_from_slice(&0u16.to_be_bytes());
        // A name that points at itself.
        buf.extend_from_slice(&0xc00cu16.to_be_bytes());
        buf.extend_from_slice(&[0, 1, 0, 1]);
        assert_eq!(DnsMessage::parse(&buf).unwrap_err(), Error::BadName);
    }

    #[test]
    fn names_are_case_normalized() {
        let q = DnsMessage::query(1, "WWW.Example.EDU", DnsType::A);
        let mut buf = Vec::new();
        q.emit(&mut buf).unwrap();
        let parsed = DnsMessage::parse(&buf).unwrap();
        assert_eq!(parsed.questions[0].name, "www.example.edu");
    }

    #[test]
    fn oversized_label_is_rejected_on_emit() {
        let long = "a".repeat(64);
        let q = DnsMessage::query(1, &long, DnsType::A);
        let mut buf = Vec::new();
        assert_eq!(q.emit(&mut buf).unwrap_err(), Error::BadName);
    }

    #[test]
    fn lengths_past_u16_are_refused_not_wrapped() {
        let q = DnsMessage::query(3, "big.example.org", DnsType::Txt);
        let txt = |len| DnsRecord {
            name: "big.example.org".into(),
            ttl: 60,
            data: DnsRecordData::Txt(vec![b't'; len]),
        };
        let mut buf = Vec::new();
        let over = q.answer(vec![txt(65_536)], DnsRcode::NoError);
        assert_eq!(over.emit(&mut buf).unwrap_err(), Error::BadLength);

        let at = q.answer(vec![txt(65_535)], DnsRcode::NoError);
        buf.clear();
        at.emit(&mut buf).unwrap();
        assert_eq!(DnsMessage::parse(&buf).unwrap(), at);

        let answers = vec![a_record("big.example.org", [10, 0, 0, 1]); 65_536];
        let many = q.answer(answers, DnsRcode::NoError);
        buf.clear();
        assert_eq!(many.emit(&mut buf).unwrap_err(), Error::BadLength);
    }

    #[test]
    fn amplification_heuristics() {
        let any = DnsMessage::query(1, "isc.org", DnsType::Any);
        assert!(any.is_amplification_prone());
        let a = DnsMessage::query(1, "isc.org", DnsType::A);
        assert!(!a.is_amplification_prone());
        let big = a.answer(
            (0..10)
                .map(|i| a_record("isc.org", [10, 0, 0, i as u8]))
                .collect(),
            DnsRcode::NoError,
        );
        assert!(big.is_amplification_prone());
    }

    #[test]
    fn wire_len_matches_emit() {
        let q = DnsMessage::query(1, "www.example.edu", DnsType::Aaaa);
        let mut buf = Vec::new();
        q.emit(&mut buf).unwrap();
        assert_eq!(q.wire_len(), buf.len());
    }

    #[test]
    fn amplification_factor_is_realistic() {
        // An ANY query for a fat zone should amplify well beyond 5x, the
        // behaviour the attack generator relies on.
        let q = DnsMessage::query(1, "amp.example.org", DnsType::Any);
        let answers: Vec<DnsRecord> = (0..20)
            .map(|i| DnsRecord {
                name: "amp.example.org".into(),
                ttl: 3600,
                data: DnsRecordData::Txt(vec![b'x'; 80 + i]),
            })
            .collect();
        let r = q.answer(answers, DnsRcode::NoError);
        assert!(r.wire_len() > 5 * q.wire_len());
    }

    #[test]
    fn hostile_label_bytes_are_rejected() {
        // A label carrying a dot, a high byte, or a control byte cannot
        // round-trip through presentation form; parse must refuse it
        // instead of producing a name that re-encodes differently.
        for bad in [b'.', 0x80u8, 0xff, 0x00, b' ', 0x1f] {
            let mut buf = Vec::new();
            buf.extend_from_slice(&1u16.to_be_bytes()); // id
            buf.extend_from_slice(&0u16.to_be_bytes()); // flags
            buf.extend_from_slice(&1u16.to_be_bytes()); // qd
            buf.extend_from_slice(&0u16.to_be_bytes());
            buf.extend_from_slice(&0u16.to_be_bytes());
            buf.extend_from_slice(&0u16.to_be_bytes());
            buf.extend_from_slice(&[3, b'a', bad, b'b', 0]); // a<bad>b.
            buf.extend_from_slice(&[0, 1, 0, 1]); // qtype A, class IN
            assert_eq!(
                DnsMessage::parse(&buf).unwrap_err(),
                Error::BadName,
                "label byte {bad:#04x} must be rejected"
            );
        }
    }

    #[test]
    fn truncated_header_is_rejected() {
        assert_eq!(DnsMessage::parse(&[0u8; 11]).unwrap_err(), Error::Truncated);
    }

    #[test]
    fn record_sections_are_separated() {
        let q = DnsMessage::query(2, "example.edu", DnsType::A);
        let mut msg = q.answer(vec![a_record("example.edu", [10, 0, 0, 1])], DnsRcode::NoError);
        msg.authorities.push(DnsRecord {
            name: "example.edu".into(),
            ttl: 3600,
            data: DnsRecordData::Ns("ns1.example.edu".into()),
        });
        msg.additionals.push(a_record("ns1.example.edu", [10, 0, 0, 53]));
        let mut buf = Vec::new();
        msg.emit(&mut buf).unwrap();
        let parsed = DnsMessage::parse(&buf).unwrap();
        assert_eq!(parsed.answers.len(), 1);
        assert_eq!(parsed.authorities.len(), 1);
        assert_eq!(parsed.additionals.len(), 1);
        assert_eq!(parsed, msg);
    }
}
