//! The switch's match key. The fields, their widths and the one function
//! that computes their values are the packet schema declared beside
//! `campuslab_capture::PacketRecord`; this module re-exports them and adds
//! the live extractor, which feeds that function from a packet at a
//! switch ingress.

pub use campuslab_capture::{fields_from_record, FieldValues, HeaderField, FIELD_ORDER};

use campuslab_capture::{Direction, PacketRecord};
use campuslab_netsim::{Packet, Prefix, SimTime};

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
        let direction = if self.campus.contains(pkt.network.dst()) {
            Direction::Inbound
        } else {
            Direction::Outbound
        };
        fields_from_record(&PacketRecord::from_packet(SimTime::ZERO, direction, pkt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use campuslab_netsim::{GroundTruth, PacketBuilder, Payload};
    use std::net::Ipv4Addr;

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
        assert_eq!(v[HeaderField::Protocol.index()], 17);
        assert_eq!(v[HeaderField::SrcPort.index()], 53);
        assert_eq!(v[HeaderField::DirectionInbound.index()], 1);
        assert_eq!(v[HeaderField::IsUdp.index()], 1);
        assert_eq!(v[HeaderField::SrcPortIsDns.index()], 1);
        let outbound = b.udp_v4(
            Ipv4Addr::new(10, 1, 1, 10),
            Ipv4Addr::new(203, 0, 113, 1),
            40_000,
            53,
            Payload::Synthetic(100),
            64,
            GroundTruth::default(),
        );
        assert_eq!(x.from_packet(&outbound)[HeaderField::DirectionInbound.index()], 0);
    }
}
