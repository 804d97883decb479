//! The record types the monitoring plane produces and the data store
//! ingests. Timestamps are plain nanoseconds so records serialize cleanly
//! and stay independent of the simulator's clock type.
//!
//! Beside [`PacketRecord`] sits the packet schema: the 13 header fields
//! ([`HeaderField`], in [`FIELD_ORDER`]) and [`fields_from_record`], the
//! one function that computes their values. The feature row a tree trains
//! on (`campuslab_features::packet_features`), the switch key a compiled
//! tree matches and the key the live extractor reads off a packet
//! (`campuslab_dataplane`) are all this function's output, so they agree
//! by construction.

use campuslab_netsim::{Dir, Packet, SimTime, TransportHeader};
use serde::{Deserialize, Serialize};
use std::net::IpAddr;

/// Direction of a packet relative to the campus: did it enter or leave?
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// From the Internet into the campus.
    Inbound,
    /// From the campus toward the Internet.
    Outbound,
}

impl Direction {
    /// Map a border-link traversal direction. The campus border link is
    /// built `internet -> border`, so `AtoB` is inbound.
    pub fn from_border_dir(dir: Dir) -> Direction {
        match dir {
            Dir::AtoB => Direction::Inbound,
            Dir::BtoA => Direction::Outbound,
        }
    }
}

/// TCP flag summary captured per packet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TcpFlags {
    pub syn: bool,
    pub ack: bool,
    pub fin: bool,
    pub rst: bool,
    pub psh: bool,
}

/// One captured packet, as stored: parsed header summary plus ground-truth
/// labels. The labels come from the *generator*, not the wire — a real
/// campus gives you everything here except `label_app`/`label_attack`,
/// which is exactly why experiments score models against them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PacketRecord {
    /// Capture timestamp, nanoseconds since simulation start.
    pub ts_ns: u64,
    pub direction: Direction,
    pub src: IpAddr,
    pub dst: IpAddr,
    pub protocol: u8,
    pub src_port: u16,
    pub dst_port: u16,
    /// Full on-wire length.
    pub wire_len: u32,
    pub ttl: u8,
    pub tcp_flags: TcpFlags,
    /// Generator ground truth: flow id.
    pub flow_id: u64,
    /// Generator ground truth: application class id (0 = unlabeled).
    pub label_app: u16,
    /// Generator ground truth: attack id (0 = benign).
    pub label_attack: u16,
}

impl PacketRecord {
    /// Build a record from a packet seen on the wire at `now`.
    pub fn from_packet(now: SimTime, direction: Direction, pkt: &Packet) -> Self {
        let tcp_flags = match &pkt.transport {
            TransportHeader::Tcp(t) => TcpFlags {
                syn: t.control.syn,
                ack: t.control.ack,
                fin: t.control.fin,
                rst: t.control.rst,
                psh: t.control.psh,
            },
            _ => TcpFlags::default(),
        };
        PacketRecord {
            ts_ns: now.as_nanos(),
            direction,
            src: pkt.network.src(),
            dst: pkt.network.dst(),
            protocol: pkt.transport.protocol(),
            src_port: pkt.transport.src_port().unwrap_or(0),
            dst_port: pkt.transport.dst_port().unwrap_or(0),
            wire_len: pkt.wire_len() as u32,
            ttl: pkt.network.ttl(),
            tcp_flags,
            flow_id: pkt.truth.flow_id,
            label_app: pkt.truth.app_class,
            label_attack: pkt.truth.attack.unwrap_or(0),
        }
    }

    /// True when the generator marked this packet malicious.
    pub fn is_malicious(&self) -> bool {
        self.label_attack != 0
    }

    /// The canonical flow key for this record.
    pub fn flow_key(&self) -> FlowKey {
        FlowKey {
            src: self.src,
            dst: self.dst,
            protocol: self.protocol,
            src_port: self.src_port,
            dst_port: self.dst_port,
        }
    }
}

/// A matchable header field: one column of the packet feature row and one
/// cell of the switch's match key. Discriminants index [`FIELD_ORDER`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeaderField {
    Protocol,
    SrcPort,
    DstPort,
    WireLen,
    Ttl,
    DirectionInbound,
    TcpSyn,
    TcpAck,
    TcpFin,
    TcpRst,
    IsUdp,
    IsTcp,
    SrcPortIsDns,
}

/// Fields in canonical (feature-schema) order.
pub const FIELD_ORDER: [HeaderField; 13] = [
    HeaderField::Protocol,
    HeaderField::SrcPort,
    HeaderField::DstPort,
    HeaderField::WireLen,
    HeaderField::Ttl,
    HeaderField::DirectionInbound,
    HeaderField::TcpSyn,
    HeaderField::TcpAck,
    HeaderField::TcpFin,
    HeaderField::TcpRst,
    HeaderField::IsUdp,
    HeaderField::IsTcp,
    HeaderField::SrcPortIsDns,
];

/// Field names in canonical order: the feature row's column names.
pub const FIELD_NAMES: [&str; FIELD_ORDER.len()] = [
    "protocol",
    "src_port",
    "dst_port",
    "wire_len",
    "ttl",
    "direction_inbound",
    "tcp_syn",
    "tcp_ack",
    "tcp_fin",
    "tcp_rst",
    "is_udp",
    "is_tcp",
    "src_port_is_dns",
];

impl HeaderField {
    /// The field's bit width on the match key.
    pub fn bits(self) -> u32 {
        match self {
            HeaderField::Protocol | HeaderField::Ttl => 8,
            HeaderField::SrcPort | HeaderField::DstPort | HeaderField::WireLen => 16,
            _ => 1,
        }
    }

    /// Maximum representable value.
    pub fn max_value(self) -> u32 {
        (1u32 << self.bits()) - 1
    }

    /// The field for a canonical feature index, or `None` when the index
    /// falls outside the schema (a malformed program must surface as a
    /// typed condition, never a panic in the compiler path).
    pub fn try_from_feature_index(idx: usize) -> Option<HeaderField> {
        FIELD_ORDER.get(idx).copied()
    }

    /// The field's canonical index, infallibly: every `HeaderField` is in
    /// `FIELD_ORDER` by construction, so no lookup can fail.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The field's column name.
    pub fn name(self) -> &'static str {
        FIELD_NAMES[self.index()]
    }
}

/// One packet's field values, in canonical order.
pub type FieldValues = [u32; FIELD_ORDER.len()];

/// The packet schema's one extraction: every field's value for a record,
/// each within its width (`wire_len` saturates at 16 bits).
pub fn fields_from_record(rec: &PacketRecord) -> FieldValues {
    let flags = rec.tcp_flags;
    FIELD_ORDER.map(|field| match field {
        HeaderField::Protocol => u32::from(rec.protocol),
        HeaderField::SrcPort => u32::from(rec.src_port),
        HeaderField::DstPort => u32::from(rec.dst_port),
        HeaderField::WireLen => rec.wire_len.min(field.max_value()),
        HeaderField::Ttl => u32::from(rec.ttl),
        HeaderField::DirectionInbound => u32::from(rec.direction == Direction::Inbound),
        HeaderField::TcpSyn => u32::from(flags.syn),
        HeaderField::TcpAck => u32::from(flags.ack),
        HeaderField::TcpFin => u32::from(flags.fin),
        HeaderField::TcpRst => u32::from(flags.rst),
        HeaderField::IsUdp => u32::from(rec.protocol == 17),
        HeaderField::IsTcp => u32::from(rec.protocol == 6),
        HeaderField::SrcPortIsDns => u32::from(rec.src_port == 53),
    })
}

/// A 5-tuple identifying a unidirectional flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    pub src: IpAddr,
    pub dst: IpAddr,
    pub protocol: u8,
    pub src_port: u16,
    pub dst_port: u16,
}

impl FlowKey {
    /// The same flow viewed from the other side.
    pub fn reversed(&self) -> FlowKey {
        FlowKey {
            src: self.dst,
            dst: self.src,
            protocol: self.protocol,
            src_port: self.dst_port,
            dst_port: self.src_port,
        }
    }

    /// A direction-independent key: the lexicographically smaller of
    /// `self` and `reversed`, so both directions of a conversation map to
    /// one bidirectional flow.
    pub fn canonical(&self) -> FlowKey {
        let rev = self.reversed();
        if (self.src, self.src_port) <= (rev.src, rev.src_port) {
            *self
        } else {
            rev
        }
    }
}

/// An aggregated bidirectional flow, emitted when the flow ends or times
/// out. "Forward" is the direction of the first observed packet.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowRecord {
    pub key: FlowKey,
    pub first_ts_ns: u64,
    pub last_ts_ns: u64,
    pub fwd_packets: u64,
    pub fwd_bytes: u64,
    pub rev_packets: u64,
    pub rev_bytes: u64,
    pub syn_count: u32,
    pub fin_count: u32,
    pub rst_count: u32,
    /// Mean inter-arrival over all packets, nanoseconds.
    pub mean_iat_ns: u64,
    /// Smallest and largest packet seen.
    pub min_len: u32,
    pub max_len: u32,
    /// Majority ground-truth labels across member packets.
    pub label_app: u16,
    pub label_attack: u16,
}

impl FlowRecord {
    /// Flow duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.last_ts_ns.saturating_sub(self.first_ts_ns)
    }

    /// Total packets, both directions.
    pub fn total_packets(&self) -> u64 {
        self.fwd_packets + self.rev_packets
    }

    /// Total bytes, both directions.
    pub fn total_bytes(&self) -> u64 {
        self.fwd_bytes + self.rev_bytes
    }

    /// True when the generator marked the flow malicious.
    pub fn is_malicious(&self) -> bool {
        self.label_attack != 0
    }
}

/// A DNS transaction extracted on the fly (the "metadata" the paper's
/// monitoring appliance generates).
#[derive(Debug, Clone, PartialEq)]
pub struct DnsMetaRecord {
    pub ts_ns: u64,
    pub direction: Direction,
    pub client: IpAddr,
    pub server: IpAddr,
    pub qname: String,
    pub qtype: u16,
    pub is_response: bool,
    pub answer_count: u16,
    pub wire_len: u32,
    /// ANY/TXT query or fat response — the amplification heuristic.
    pub amplification_prone: bool,
    pub label_attack: u16,
}

/// A TCP handshake timing measurement taken at the tap: the gap between
/// the SYN and the SYN-ACK crossing the same point includes the real
/// queueing delay on the far side — the signal the paper's §3 wants for
/// "pinpointing performance problems".
#[derive(Debug, Clone, PartialEq)]
pub struct TcpRttRecord {
    /// When the SYN-ACK crossed the tap.
    pub ts_ns: u64,
    pub client: IpAddr,
    pub server: IpAddr,
    pub dst_port: u16,
    /// SYN -> SYN-ACK gap as seen at the tap.
    pub rtt_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use campuslab_netsim::{GroundTruth, PacketBuilder, Payload};
    use std::net::Ipv4Addr;

    fn sample_packet() -> Packet {
        let mut b = PacketBuilder::new();
        b.udp_v4(
            Ipv4Addr::new(203, 0, 113, 1),
            Ipv4Addr::new(10, 1, 1, 10),
            53,
            40000,
            Payload::Synthetic(512),
            60,
            GroundTruth { flow_id: 9, app_class: 1, attack: Some(1) },
        )
    }

    #[test]
    fn record_captures_header_fields_and_truth() {
        let pkt = sample_packet();
        let r = PacketRecord::from_packet(SimTime::from_millis(5), Direction::Inbound, &pkt);
        assert_eq!(r.ts_ns, 5_000_000);
        assert_eq!(r.src, "203.0.113.1".parse::<IpAddr>().unwrap());
        assert_eq!(r.dst_port, 40000);
        assert_eq!(r.wire_len as usize, pkt.wire_len());
        assert_eq!(r.label_app, 1);
        assert_eq!(r.label_attack, 1);
        assert!(r.is_malicious());
    }

    #[test]
    fn field_widths_and_order() {
        assert_eq!(HeaderField::SrcPort.bits(), 16);
        assert_eq!(HeaderField::Protocol.bits(), 8);
        assert_eq!(HeaderField::TcpSyn.bits(), 1);
        assert_eq!(HeaderField::DstPort.max_value(), 65_535);
        assert_eq!(HeaderField::IsUdp.max_value(), 1);
        for (i, f) in FIELD_ORDER.iter().enumerate() {
            assert_eq!(f.index(), i, "{} is out of canonical order", f.name());
            assert_eq!(HeaderField::try_from_feature_index(i), Some(*f));
        }
        assert_eq!(HeaderField::try_from_feature_index(FIELD_ORDER.len()), None);
    }

    #[test]
    fn flow_key_canonicalization_is_direction_independent() {
        let pkt = sample_packet();
        let r = PacketRecord::from_packet(SimTime::ZERO, Direction::Inbound, &pkt);
        let k = r.flow_key();
        assert_eq!(k.canonical(), k.reversed().canonical());
        assert_eq!(k.reversed().reversed(), k);
    }

    #[test]
    fn border_direction_mapping() {
        assert_eq!(Direction::from_border_dir(Dir::AtoB), Direction::Inbound);
        assert_eq!(Direction::from_border_dir(Dir::BtoA), Direction::Outbound);
    }

    #[test]
    fn records_serialize_round_trip() {
        let pkt = sample_packet();
        let r = PacketRecord::from_packet(SimTime::ZERO, Direction::Outbound, &pkt);
        let back: PacketRecord = serde::bin::from_slice(&serde::bin::to_vec(&r)).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn flow_record_helpers() {
        let pkt = sample_packet();
        let key = PacketRecord::from_packet(SimTime::ZERO, Direction::Inbound, &pkt).flow_key();
        let f = FlowRecord {
            key,
            first_ts_ns: 1_000,
            last_ts_ns: 11_000,
            fwd_packets: 3,
            fwd_bytes: 300,
            rev_packets: 2,
            rev_bytes: 2000,
            syn_count: 1,
            fin_count: 0,
            rst_count: 0,
            mean_iat_ns: 2_500,
            min_len: 60,
            max_len: 1500,
            label_app: 2,
            label_attack: 0,
        };
        assert_eq!(f.duration_ns(), 10_000);
        assert_eq!(f.total_packets(), 5);
        assert_eq!(f.total_bytes(), 2300);
        assert!(!f.is_malicious());
    }
}
