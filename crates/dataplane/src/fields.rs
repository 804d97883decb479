//! The header fields a match-action pipeline can key on, and extractors
//! from both live packets and stored records.
//!
//! The field list mirrors `campuslab_features::PACKET_FEATURES` one-to-one:
//! a decision tree trained on those features compiles field-for-field into
//! pipeline matches. This crate cannot see `features`, so the agreement —
//! names, values, and the live extractor against the stored one — is a
//! property in `crates/control/tests/pipeline_determinism.rs`, the nearest
//! crate that depends on both.

use campuslab_capture::{Direction, PacketRecord};
use campuslab_netsim::{Packet, Prefix, TransportHeader};
use serde::{Deserialize, Serialize};

/// A matchable header field. Discriminants index the canonical feature
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
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

    /// The field for a canonical feature index.
    ///
    /// Panics on out-of-range indexes; compilation paths that consume
    /// untrusted feature indexes (a malformed or stale tree) must use
    /// [`HeaderField::try_from_feature_index`] instead.
    pub fn from_feature_index(idx: usize) -> HeaderField {
        FIELD_ORDER[idx]
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

    /// Short name matching the feature schema.
    pub fn name(self) -> &'static str {
        match self {
            HeaderField::Protocol => "protocol",
            HeaderField::SrcPort => "src_port",
            HeaderField::DstPort => "dst_port",
            HeaderField::WireLen => "wire_len",
            HeaderField::Ttl => "ttl",
            HeaderField::DirectionInbound => "direction_inbound",
            HeaderField::TcpSyn => "tcp_syn",
            HeaderField::TcpAck => "tcp_ack",
            HeaderField::TcpFin => "tcp_fin",
            HeaderField::TcpRst => "tcp_rst",
            HeaderField::IsUdp => "is_udp",
            HeaderField::IsTcp => "is_tcp",
            HeaderField::SrcPortIsDns => "src_port_is_dns",
        }
    }
}

/// A parsed match key: the field values for one packet, in canonical
/// order.
pub type FieldValues = [u32; FIELD_ORDER.len()];

/// Extracts field values from live packets at a switch ingress. Direction
/// is inferred from the campus prefix: traffic *to* a campus address is
/// inbound.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct FieldExtractor {
    campus: Prefix,
}

impl FieldExtractor {
    /// An extractor for a campus with the given aggregate prefix.
    pub fn new(campus: Prefix) -> Self {
        FieldExtractor { campus }
    }

    /// Extract from a live simulator packet.
    pub fn from_packet(&self, pkt: &Packet) -> FieldValues {
        let protocol = u32::from(u8::from(pkt.network.protocol()));
        let src_port = u32::from(pkt.transport.src_port().unwrap_or(0));
        let dst_port = u32::from(pkt.transport.dst_port().unwrap_or(0));
        let (syn, ack, fin, rst) = match &pkt.transport {
            TransportHeader::Tcp(t) => (
                u32::from(t.control.syn),
                u32::from(t.control.ack),
                u32::from(t.control.fin),
                u32::from(t.control.rst),
            ),
            _ => (0, 0, 0, 0),
        };
        [
            protocol,
            src_port,
            dst_port,
            (pkt.wire_len() as u32).min(0xffff),
            u32::from(pkt.network.ttl()),
            u32::from(self.campus.contains(pkt.network.dst())),
            syn,
            ack,
            fin,
            rst,
            u32::from(protocol == 17),
            u32::from(protocol == 6),
            u32::from(src_port == 53),
        ]
    }
}

/// Extract from a stored capture record (offline evaluation path).
pub fn fields_from_record(rec: &PacketRecord) -> FieldValues {
    [
        u32::from(rec.protocol),
        u32::from(rec.src_port),
        u32::from(rec.dst_port),
        rec.wire_len.min(0xffff),
        u32::from(rec.ttl),
        u32::from(rec.direction == Direction::Inbound),
        u32::from(rec.tcp_flags.syn),
        u32::from(rec.tcp_flags.ack),
        u32::from(rec.tcp_flags.fin),
        u32::from(rec.tcp_flags.rst),
        u32::from(rec.protocol == 17),
        u32::from(rec.protocol == 6),
        u32::from(rec.src_port == 53),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use campuslab_netsim::{GroundTruth, PacketBuilder, Payload};
    use std::net::Ipv4Addr;

    #[test]
    fn field_widths() {
        assert_eq!(HeaderField::SrcPort.bits(), 16);
        assert_eq!(HeaderField::Protocol.bits(), 8);
        assert_eq!(HeaderField::TcpSyn.bits(), 1);
        assert_eq!(HeaderField::DstPort.max_value(), 65_535);
        assert_eq!(HeaderField::IsUdp.max_value(), 1);
    }

    #[test]
    fn live_extraction_infers_direction() {
        let campus = Prefix::v4(Ipv4Addr::new(10, 1, 0, 0), 16);
        let x = FieldExtractor::new(campus);
        let mut b = PacketBuilder::new();
        let inbound = b.udp_v4(
            Ipv4Addr::new(203, 0, 113, 1),
            Ipv4Addr::new(10, 1, 1, 10),
            53,
            40_000,
            Payload::Synthetic(100),
            64,
            GroundTruth::default(),
        );
        let v = x.from_packet(&inbound);
        assert_eq!(v[0], 17); // protocol
        assert_eq!(v[1], 53);
        assert_eq!(v[5], 1); // inbound
        assert_eq!(v[10], 1); // is_udp
        assert_eq!(v[12], 1); // src_port_is_dns
        let outbound = b.udp_v4(
            Ipv4Addr::new(10, 1, 1, 10),
            Ipv4Addr::new(203, 0, 113, 1),
            40_000,
            53,
            Payload::Synthetic(100),
            64,
            GroundTruth::default(),
        );
        assert_eq!(x.from_packet(&outbound)[5], 0);
    }
}
