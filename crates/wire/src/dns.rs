//! DNS messages (RFC 1035), sufficient for campus border monitoring: full
//! header decoding, questions, answer/authority/additional records, name
//! decompression, and the record types that dominate campus traffic.
//!
//! DNS matters to CampusLab beyond being a protocol: the paper's running
//! network-automation example is detecting a **DNS amplification attack**,
//! so the capture plane parses these messages into metadata records and the
//! traffic generator synthesizes both legitimate lookups and attack floods.
//!
//! One codec, three faces, costed per message rather than per record:
//!
//! - [`DnsWriter`] appends a message straight into a caller's `Vec<u8>`:
//!   header, questions, then records section by section, RDATA written in
//!   place with its length patched afterwards. Generators keep one scratch
//!   buffer and copy each message out once.
//! - [`DnsView`] reads a message in place. Its `parse` walks and validates
//!   every name and record by offset without allocating; names are lazy
//!   label iterators ([`DnsName`]) that follow compression pointers, and
//!   RDATA is a borrowed slice. The capture plane reads the few fields it
//!   needs from it.
//! - [`DnsMessage`] is the owned form the resolver caches and answers
//!   from. Its `emit` is a loop over the writer, its `parse` is the view's
//!   `parse` followed by [`DnsView::to_owned`], and its `wire_len` adds up
//!   sizes instead of emitting.

use crate::{be16, be32, Error, Result};
use std::fmt;
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

    /// Append the RDATA bytes (without their length field).
    fn emit(&self, buf: &mut Vec<u8>) -> Result<()> {
        match self {
            DnsRecordData::A(addr) => buf.extend_from_slice(&addr.octets()),
            DnsRecordData::Aaaa(addr) => buf.extend_from_slice(&addr.octets()),
            DnsRecordData::Cname(target) | DnsRecordData::Ns(target) => emit_name(target, buf)?,
            DnsRecordData::Txt(bytes) | DnsRecordData::Opaque(_, bytes) => {
                buf.extend_from_slice(bytes)
            }
        }
        Ok(())
    }

    /// The number of RDATA bytes [`DnsRecordData::emit`] appends.
    fn wire_len(&self) -> Result<usize> {
        match self {
            DnsRecordData::A(_) => Ok(4),
            DnsRecordData::Aaaa(_) => Ok(16),
            DnsRecordData::Cname(target) | DnsRecordData::Ns(target) => name_wire_len(target),
            DnsRecordData::Txt(bytes) | DnsRecordData::Opaque(_, bytes) => Ok(bytes.len()),
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

/// A complete DNS message, owned: what the resolver caches and answers
/// from. Generators that only emit write through [`DnsWriter`] instead,
/// and readers that only inspect borrow a [`DnsView`].
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

    /// Parse a message from a UDP payload: [`DnsView::parse`], then
    /// [`DnsView::to_owned`]. Compression pointers are followed with loop
    /// protection.
    pub fn parse(data: &[u8]) -> Result<DnsMessage> {
        DnsView::parse(data).map(DnsView::to_owned)
    }

    /// Append the message to `buf` through a [`DnsWriter`]. Names are
    /// emitted uncompressed, which is always valid (and what many stub
    /// resolvers do). A section count or RDATA length past `u16::MAX` is
    /// [`Error::BadLength`], never wrapped.
    pub fn emit(&self, buf: &mut Vec<u8>) -> Result<()> {
        self.check_counts()?;
        let mut w = DnsWriter::new(buf, self.id, self.flags);
        for q in &self.questions {
            w.question(&q.name, q.qtype)?;
        }
        for (section, records) in self.sections() {
            for r in records {
                w.record(section, r)?;
            }
        }
        Ok(())
    }

    /// The emitted size of this message, in bytes, added up from its
    /// parts. A message [`DnsMessage::emit`] refuses has no size, and
    /// reads 0.
    pub fn wire_len(&self) -> usize {
        self.checked_wire_len().unwrap_or(0)
    }

    fn checked_wire_len(&self) -> Result<usize> {
        self.check_counts()?;
        let mut len = HEADER_LEN;
        for q in &self.questions {
            len += name_wire_len(&q.name)? + 4;
        }
        for (_, records) in self.sections() {
            for r in records {
                len += name_wire_len(&r.name)? + 10 + usize::from(field_u16(r.data.wire_len()?)?);
            }
        }
        Ok(len)
    }

    /// Every section count must fit its 16-bit header field.
    fn check_counts(&self) -> Result<()> {
        let [an, ns, ar] = self.sections().map(|(_, records)| records.len());
        for count in [self.questions.len(), an, ns, ar] {
            field_u16(count)?;
        }
        Ok(())
    }

    fn sections(&self) -> [(DnsSection, &[DnsRecord]); 3] {
        [
            (DnsSection::Answer, &self.answers),
            (DnsSection::Authority, &self.authorities),
            (DnsSection::Additional, &self.additionals),
        ]
    }
}

/// Length of the fixed message header.
const HEADER_LEN: usize = 12;

/// The three record sections, in wire order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DnsSection {
    Answer = 1,
    Authority = 2,
    Additional = 3,
}

/// Writes one DNS message straight into a caller's buffer: the header,
/// then the questions, then the records section by section, each entry
/// appended in place. RDATA is written where it lands and its length
/// field patched afterwards, and every entry patches its section's count
/// in the header, so no part of the message is built on the side. A
/// generator keeps one buffer, clears it per message, and copies the bytes
/// out once.
///
/// An entry the wire cannot carry (a malformed name, RDATA or a section
/// past `u16::MAX`) is refused with the same error [`DnsMessage::emit`]
/// gives, and leaves the buffer as it was before the call.
///
/// ```
/// use campuslab_wire::{DnsFlags, DnsRcode, DnsSection, DnsType, DnsView, DnsWriter};
///
/// let mut buf = Vec::new();
/// let mut w = DnsWriter::new(&mut buf, 7, DnsFlags::response(DnsRcode::NoError));
/// w.question("amp.example.org", DnsType::Txt).unwrap();
/// w.record_with(DnsSection::Answer, "amp.example.org", DnsType::Txt, 60, |rdata| {
///     rdata.extend_from_slice(b"hello")
/// })
/// .unwrap();
/// let view = DnsView::parse(&buf).unwrap();
/// assert_eq!(view.records(DnsSection::Answer).next().unwrap().rdata, b"hello");
/// ```
#[derive(Debug)]
pub struct DnsWriter<'b> {
    buf: &'b mut Vec<u8>,
    /// Where this message's header starts in `buf`.
    header: usize,
    /// Entries written per section: questions, answers, authorities,
    /// additionals.
    counts: [u16; 4],
    /// The section now being written, as an index into `counts`.
    section: usize,
}

impl<'b> DnsWriter<'b> {
    /// Append a header with all four counts zero; each entry written
    /// after it bumps its own.
    pub fn new(buf: &'b mut Vec<u8>, id: u16, flags: DnsFlags) -> Self {
        let header = buf.len();
        buf.extend_from_slice(&id.to_be_bytes());
        buf.extend_from_slice(&flags.to_u16().to_be_bytes());
        buf.extend_from_slice(&[0; 8]);
        DnsWriter { buf, header, counts: [0; 4], section: 0 }
    }

    /// Append a question (class IN).
    pub fn question(&mut self, name: &str, qtype: DnsType) -> Result<()> {
        self.entry(0, |buf| {
            emit_name(name, buf)?;
            buf.extend_from_slice(&u16::from(qtype).to_be_bytes());
            buf.extend_from_slice(&1u16.to_be_bytes()); // class IN
            Ok(())
        })
    }

    /// Append an owned record to `section`.
    pub fn record(&mut self, section: DnsSection, record: &DnsRecord) -> Result<()> {
        self.checked_record(section, &record.name, record.data.rtype(), record.ttl, |rdata| {
            record.data.emit(rdata)
        })
    }

    /// Append a record (class IN) whose RDATA `rdata` appends to the
    /// buffer it is handed; the length field is patched afterwards.
    pub fn record_with(
        &mut self,
        section: DnsSection,
        name: &str,
        rtype: DnsType,
        ttl: u32,
        rdata: impl FnOnce(&mut Vec<u8>),
    ) -> Result<()> {
        self.checked_record(section, name, rtype, ttl, |buf| {
            rdata(buf);
            Ok(())
        })
    }

    fn checked_record(
        &mut self,
        section: DnsSection,
        name: &str,
        rtype: DnsType,
        ttl: u32,
        rdata: impl FnOnce(&mut Vec<u8>) -> Result<()>,
    ) -> Result<()> {
        self.entry(section as usize, |buf| {
            emit_name(name, buf)?;
            buf.extend_from_slice(&u16::from(rtype).to_be_bytes());
            buf.extend_from_slice(&1u16.to_be_bytes()); // class IN
            buf.extend_from_slice(&ttl.to_be_bytes());
            buf.extend_from_slice(&[0; 2]);
            let start = buf.len();
            rdata(buf)?;
            let len = field_u16(buf.len() - start)?;
            buf[start - 2..start].copy_from_slice(&len.to_be_bytes());
            Ok(())
        })
    }

    /// Write one entry of `section` and bump its count; on refusal the
    /// buffer is cut back to where the entry began.
    fn entry(&mut self, section: usize, write: impl FnOnce(&mut Vec<u8>) -> Result<()>) -> Result<()> {
        assert!(section >= self.section, "DNS sections are written in wire order");
        self.section = section;
        let count = self.counts[section].checked_add(1).ok_or(Error::BadLength)?;
        let start = self.buf.len();
        if let Err(e) = write(self.buf) {
            self.buf.truncate(start);
            return Err(e);
        }
        self.counts[section] = count;
        let at = self.header + 4 + 2 * section;
        self.buf[at..at + 2].copy_from_slice(&count.to_be_bytes());
        Ok(())
    }
}

/// A DNS message read in place: [`DnsView::parse`] walks and validates the
/// whole message by offset and allocates nothing, and the accessors hand
/// out borrowed questions, records, names and RDATA. It accepts exactly the
/// messages [`DnsMessage::parse`] accepts, with the same [`Error`] for the
/// rest, because that parse is this one followed by [`DnsView::to_owned`].
#[derive(Debug, Clone, Copy)]
pub struct DnsView<'a> {
    data: &'a [u8],
    /// Entries per section: questions, answers, authorities, additionals.
    counts: [u16; 4],
    /// Where each section begins: questions, answers, authorities,
    /// additionals.
    starts: [usize; 4],
}

impl<'a> DnsView<'a> {
    /// Validate `data` as one DNS message. Bytes after the last record
    /// are ignored.
    pub fn parse(data: &'a [u8]) -> Result<Self> {
        if data.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        let counts = [4, 6, 8, 10].map(|at| be16(data, at));
        let mut starts = [HEADER_LEN; 4];
        let mut pos = HEADER_LEN;
        for _ in 0..counts[0] {
            pos = check_name(data, pos)?;
            if pos + 4 > data.len() {
                return Err(Error::Truncated);
            }
            pos += 4;
        }
        for section in 1..4 {
            starts[section] = pos;
            for _ in 0..counts[section] {
                pos = check_record(data, pos)?;
            }
        }
        Ok(DnsView { data, counts, starts })
    }

    /// The message id.
    pub fn id(&self) -> u16 {
        be16(self.data, 0)
    }

    /// The header flags.
    pub fn flags(&self) -> DnsFlags {
        DnsFlags::from_u16(be16(self.data, 2))
    }

    /// The questions, in wire order.
    pub fn questions(&self) -> impl Iterator<Item = DnsQuestionView<'a>> + 'a {
        let data = self.data;
        let mut pos = self.starts[0];
        (0..self.counts[0]).map(move |_| {
            let name = DnsName { data, at: pos };
            pos = skip_name(data, pos);
            let qtype = DnsType::from(be16(data, pos));
            pos += 4;
            DnsQuestionView { name, qtype }
        })
    }

    /// The records of one section, in wire order.
    pub fn records(&self, section: DnsSection) -> impl Iterator<Item = DnsRecordView<'a>> + 'a {
        let data = self.data;
        let mut pos = self.starts[section as usize];
        (0..self.counts[section as usize]).map(move |_| {
            let name = DnsName { data, at: pos };
            pos = skip_name(data, pos);
            let rtype = DnsType::from(be16(data, pos));
            let ttl = be32(data, pos + 4);
            let rdlen = usize::from(be16(data, pos + 8));
            let rdata_at = pos + 10;
            pos = rdata_at + rdlen;
            DnsRecordView { name, rtype, ttl, rdata: &data[rdata_at..pos], rdata_at }
        })
    }

    /// Entries in `section` according to the header (all of them present:
    /// parse checked).
    pub fn count(&self, section: DnsSection) -> u16 {
        self.counts[section as usize]
    }

    /// True if this message looks like an amplification vector: an ANY/TXT
    /// query or a response much larger than its implied query.
    pub fn is_amplification_prone(&self) -> bool {
        if !self.flags().response {
            return self
                .questions()
                .any(|q| matches!(q.qtype, DnsType::Any | DnsType::Txt));
        }
        self.count(DnsSection::Answer) >= 8
    }

    /// Copy the message out into its owned form.
    pub fn to_owned(self) -> DnsMessage {
        let records = |section| self.records(section).map(DnsRecordView::to_owned).collect();
        DnsMessage {
            id: self.id(),
            flags: self.flags(),
            questions: self
                .questions()
                .map(|q| DnsQuestion { name: q.name.to_owned(), qtype: q.qtype })
                .collect(),
            answers: records(DnsSection::Answer),
            authorities: records(DnsSection::Authority),
            additionals: records(DnsSection::Additional),
        }
    }
}

/// A question borrowed from a [`DnsView`].
#[derive(Debug, Clone, Copy)]
pub struct DnsQuestionView<'a> {
    pub name: DnsName<'a>,
    pub qtype: DnsType,
}

/// A resource record borrowed from a [`DnsView`].
#[derive(Debug, Clone, Copy)]
pub struct DnsRecordView<'a> {
    pub name: DnsName<'a>,
    pub rtype: DnsType,
    pub ttl: u32,
    /// The record's RDATA, as on the wire.
    pub rdata: &'a [u8],
    /// Offset of `rdata` in the message, where a CNAME or NS target
    /// name starts.
    rdata_at: usize,
}

impl<'a> DnsRecordView<'a> {
    /// The target name of a CNAME or NS record. It is read from the
    /// message at RDATA's offset, so compression pointers resolve.
    pub fn target(&self) -> Option<DnsName<'a>> {
        matches!(self.rtype, DnsType::Cname | DnsType::Ns)
            .then_some(DnsName { data: self.name.data, at: self.rdata_at })
    }

    /// Copy the record out into its owned form.
    pub fn to_owned(self) -> DnsRecord {
        let rdata = self.rdata;
        let data = match self.rtype {
            DnsType::A => DnsRecordData::A(Ipv4Addr::new(rdata[0], rdata[1], rdata[2], rdata[3])),
            DnsType::Aaaa => {
                let mut o = [0u8; 16];
                o.copy_from_slice(rdata);
                DnsRecordData::Aaaa(Ipv6Addr::from(o))
            }
            DnsType::Cname => DnsRecordData::Cname(self.target_string()),
            DnsType::Ns => DnsRecordData::Ns(self.target_string()),
            DnsType::Txt => DnsRecordData::Txt(rdata.to_vec()),
            other => DnsRecordData::Opaque(other, rdata.to_vec()),
        };
        DnsRecord { name: self.name.to_owned(), ttl: self.ttl, data }
    }

    fn target_string(&self) -> String {
        self.target().map(DnsName::to_owned).unwrap_or_default()
    }
}

/// A name inside a validated message, read lazily: [`DnsName::labels`]
/// follows compression pointers as it goes (at most 32 of them, so even a
/// hand-made cycle ends), and [`DnsName::to_owned`] folds the labels to
/// lower case.
#[derive(Clone, Copy)]
pub struct DnsName<'a> {
    data: &'a [u8],
    at: usize,
}

impl<'a> DnsName<'a> {
    /// The labels, as on the wire (printable ASCII without dots: parse
    /// checked), root excluded.
    pub fn labels(&self) -> impl Iterator<Item = &'a [u8]> + 'a {
        let data = self.data;
        let mut pos = self.at;
        let mut jumps = 0;
        std::iter::from_fn(move || loop {
            let len = *data.get(pos)?;
            if len & 0xc0 == 0xc0 {
                if jumps == MAX_NAME_JUMPS || pos + 1 >= data.len() {
                    return None;
                }
                jumps += 1;
                pos = usize::from(be16(data, pos) & 0x3fff);
                continue;
            }
            if len == 0 || len & 0xc0 != 0 {
                return None;
            }
            let label = data.get(pos + 1..pos + 1 + usize::from(len))?;
            pos += 1 + label.len();
            return Some(label);
        })
    }

    /// Length of the presentation form: the labels joined by dots.
    pub fn len(&self) -> usize {
        self.labels().map(|l| l.len() + 1).sum::<usize>().saturating_sub(1)
    }

    /// True for the root name.
    pub fn is_empty(&self) -> bool {
        self.labels().next().is_none()
    }

    /// The presentation form folded to lower case, `www.example.edu`, in
    /// one allocation.
    pub fn to_owned(self) -> String {
        let mut name = String::with_capacity(self.len());
        for label in self.labels() {
            if !name.is_empty() {
                name.push('.');
            }
            name.extend(label.iter().map(|&b| char::from(b.to_ascii_lowercase())));
        }
        name
    }
}

impl fmt::Debug for DnsName<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.to_owned())
    }
}

/// Validate the name at `start` the way a decoder must: labels inside the
/// buffer, printable ASCII without dots, at most [`MAX_NAME_LEN`]
/// presentation bytes, at most [`MAX_NAME_JUMPS`] pointers. Returns where
/// the bytes after the name begin.
fn check_name(data: &[u8], start: usize) -> Result<usize> {
    let mut pos = start;
    let mut jumps = 0usize;
    // Presentation length so far: labels plus the dots between them.
    let mut len = 0usize;
    // Where parsing resumes after the name: set at the first pointer.
    let mut resume = None;
    loop {
        if pos >= data.len() {
            return Err(Error::Truncated);
        }
        let label_len = data[pos];
        if label_len & 0xc0 == 0xc0 {
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
        if label_len & 0xc0 != 0 {
            return Err(Error::BadName);
        }
        if label_len == 0 {
            pos += 1;
            break;
        }
        let label_len = usize::from(label_len);
        let Some(label) = data.get(pos + 1..pos + 1 + label_len) else {
            return Err(Error::Truncated);
        };
        // Labels are case-insensitive ASCII in practice. The presentation
        // form must survive `emit_name` byte-for-byte, so reject anything
        // outside printable ASCII as well as the label separator itself: a
        // 0x2e inside a label would re-split on emission and a byte >= 0x80
        // would re-encode as two UTF-8 bytes, silently changing the wire
        // form.
        if label.iter().any(|&b| !(0x21..=0x7e).contains(&b) || b == b'.') {
            return Err(Error::BadName);
        }
        len += usize::from(len > 0) + label_len;
        if len > MAX_NAME_LEN {
            return Err(Error::BadName);
        }
        pos += 1 + label_len;
    }
    Ok(resume.unwrap_or(pos))
}

/// Validate the record at `start`; returns where the next one begins.
fn check_record(data: &[u8], start: usize) -> Result<usize> {
    let pos = check_name(data, start)?;
    if pos + 10 > data.len() {
        return Err(Error::Truncated);
    }
    let rdlen = usize::from(be16(data, pos + 8));
    let rdata_start = pos + 10;
    if rdata_start + rdlen > data.len() {
        return Err(Error::Truncated);
    }
    match DnsType::from(be16(data, pos)) {
        DnsType::A if rdlen != 4 => return Err(Error::BadLength),
        DnsType::Aaaa if rdlen != 16 => return Err(Error::BadLength),
        DnsType::Cname | DnsType::Ns => {
            check_name(data, rdata_start)?;
        }
        _ => {}
    }
    Ok(rdata_start + rdlen)
}

/// Where the bytes after an already validated name begin.
fn skip_name(data: &[u8], mut pos: usize) -> usize {
    loop {
        match data[pos] {
            0 => return pos + 1,
            len if len & 0xc0 == 0xc0 => return pos + 2,
            len => pos += 1 + usize::from(len),
        }
    }
}

/// The wire length of `name` uncompressed, refusing what [`emit_name`]
/// refuses.
fn name_wire_len(name: &str) -> Result<usize> {
    if name.len() > MAX_NAME_LEN {
        return Err(Error::BadName);
    }
    if name.is_empty() {
        return Ok(1);
    }
    if name.split('.').any(|label| label.is_empty() || label.len() > 63) {
        return Err(Error::BadName);
    }
    // One length byte per label stands in for each dot, plus the first
    // length byte and the root label.
    Ok(name.len() + 2)
}

fn emit_name(name: &str, buf: &mut Vec<u8>) -> Result<()> {
    name_wire_len(name)?;
    if !name.is_empty() {
        for label in name.split('.') {
            buf.push(label.len() as u8);
            buf.extend_from_slice(label.as_bytes());
        }
    }
    buf.push(0);
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

    /// Emit `msg` and read it back as a view over `buf`.
    fn view_of<'b>(msg: &DnsMessage, buf: &'b mut Vec<u8>) -> DnsView<'b> {
        buf.clear();
        msg.emit(buf).unwrap();
        DnsView::parse(buf).unwrap()
    }

    #[test]
    fn amplification_heuristics() {
        let mut buf = Vec::new();
        let any = DnsMessage::query(1, "isc.org", DnsType::Any);
        assert!(view_of(&any, &mut buf).is_amplification_prone());
        let a = DnsMessage::query(1, "isc.org", DnsType::A);
        assert!(!view_of(&a, &mut buf).is_amplification_prone());
        let big = a.answer(
            (0..10)
                .map(|i| a_record("isc.org", [10, 0, 0, i as u8]))
                .collect(),
            DnsRcode::NoError,
        );
        assert!(view_of(&big, &mut buf).is_amplification_prone());
    }

    #[test]
    fn wire_len_matches_emit() {
        let q = DnsMessage::query(1, "www.example.edu", DnsType::Aaaa);
        let mut msg = q.answer(
            vec![DnsRecord {
                name: "www.example.edu".into(),
                ttl: 60,
                data: DnsRecordData::Cname("edge.example.net".into()),
            }],
            DnsRcode::NoError,
        );
        msg.additionals.push(a_record("", [10, 0, 0, 1]));
        for m in [&q, &msg] {
            let mut buf = Vec::new();
            m.emit(&mut buf).unwrap();
            assert_eq!(m.wire_len(), buf.len());
        }
        // A message emit refuses has no size.
        let bad = DnsMessage::query(1, "a..b", DnsType::A);
        assert_eq!(bad.emit(&mut Vec::new()).unwrap_err(), Error::BadName);
        assert_eq!(bad.wire_len(), 0);
    }

    #[test]
    fn writer_appends_after_existing_bytes_and_refuses_cleanly() {
        let mut buf = b"prefix".to_vec();
        let mut w = DnsWriter::new(&mut buf, 9, DnsFlags::response(DnsRcode::NoError));
        w.question("example.edu", DnsType::Txt).unwrap();
        // A refused entry leaves the buffer and the counts as they were.
        let before = w.buf.len();
        assert_eq!(w.question("bad..name", DnsType::A).unwrap_err(), Error::BadName);
        let over = w.record_with(DnsSection::Answer, "example.edu", DnsType::Txt, 60, |rdata| {
            rdata.resize(rdata.len() + 65_536, b'x')
        });
        assert_eq!(over.unwrap_err(), Error::BadLength);
        assert_eq!(w.buf.len(), before);
        w.record_with(DnsSection::Answer, "example.edu", DnsType::Txt, 60, |rdata| {
            rdata.extend_from_slice(b"ok")
        })
        .unwrap();
        w.record(DnsSection::Additional, &a_record("ns.example.edu", [10, 0, 0, 53])).unwrap();
        let msg = DnsMessage::parse(&buf[6..]).unwrap();
        assert_eq!(&buf[..6], b"prefix");
        assert_eq!(msg.questions.len(), 1);
        assert_eq!(msg.answers[0].data, DnsRecordData::Txt(b"ok".to_vec()));
        assert!(msg.authorities.is_empty());
        assert_eq!(msg.additionals.len(), 1);
    }

    #[test]
    #[should_panic(expected = "wire order")]
    fn writer_refuses_sections_out_of_order() {
        let mut buf = Vec::new();
        let mut w = DnsWriter::new(&mut buf, 1, DnsFlags::query());
        w.record(DnsSection::Authority, &a_record("a.example", [1, 2, 3, 4])).unwrap();
        let _ = w.record(DnsSection::Answer, &a_record("a.example", [1, 2, 3, 4]));
    }

    #[test]
    fn view_reads_in_place() {
        let q = DnsMessage::query(0x5151, "WWW.Example.EDU", DnsType::A);
        let mut msg = q.answer(vec![a_record("www.example.edu", [192, 0, 2, 1])], DnsRcode::NoError);
        msg.authorities.push(DnsRecord {
            name: "example.edu".into(),
            ttl: 3600,
            data: DnsRecordData::Ns("ns1.example.edu".into()),
        });
        let mut buf = Vec::new();
        let view = view_of(&msg, &mut buf);
        assert_eq!(view.id(), 0x5151);
        assert!(view.flags().response);
        let question = view.questions().next().unwrap();
        assert_eq!(question.name.to_owned(), "www.example.edu");
        assert_eq!(question.name.len(), "www.example.edu".len());
        let labels: Vec<&[u8]> = question.name.labels().collect();
        assert_eq!(labels, [&b"WWW"[..], b"Example", b"EDU"]);
        assert_eq!(view.count(DnsSection::Answer), 1);
        let answer = view.records(DnsSection::Answer).next().unwrap();
        assert_eq!(answer.rdata, [192, 0, 2, 1]);
        assert!(answer.target().is_none());
        let ns = view.records(DnsSection::Authority).next().unwrap();
        assert_eq!(ns.target().unwrap().to_owned(), "ns1.example.edu");
        assert_eq!(view.records(DnsSection::Additional).count(), 0);
        let mut folded = msg.clone();
        folded.questions[0].name = "www.example.edu".into();
        assert_eq!(view.to_owned(), folded);
    }

    #[test]
    fn root_name_is_empty() {
        let mut buf = Vec::new();
        let view = view_of(&DnsMessage::query(1, "", DnsType::Ns), &mut buf);
        let name = view.questions().next().unwrap().name;
        assert!(name.is_empty());
        assert_eq!(name.len(), 0);
        assert_eq!(name.to_owned(), "");
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
