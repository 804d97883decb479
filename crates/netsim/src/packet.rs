//! The owned packet representation that moves through the simulator.
//!
//! A [`Packet`] carries the header fields something reads — addresses and
//! TTL, the transport header from `campuslab-wire` — plus a payload that
//! is either real bytes (DNS messages, HTTP request lines — anything the
//! capture plane will want to inspect) or a synthetic length (bulk data
//! whose content is irrelevant). Nothing serializes a packet into a frame:
//! [`Packet::wire_len`] sums the header sizes a frame would have, which is
//! all serialization delay needs.

use crate::time::SimTime;
use campuslab_wire::{
    IcmpRepr, TcpRepr, UdpRepr, ETHERNET_HEADER_LEN, IPV4_HEADER_LEN, UDP_HEADER_LEN,
};
use std::net::{IpAddr, Ipv4Addr};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Ground-truth annotations attached by the traffic generator. These ride
/// along with the packet *in the simulator only* — they are the labels a
/// real network never gives you, and the datastore stores them separately
/// from the packet bytes exactly so experiments can measure how well models
/// recover them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct GroundTruth {
    /// Flow this packet belongs to (generator-assigned).
    pub flow_id: u64,
    /// Application class id (interpreted by `campuslab-traffic`).
    pub app_class: u16,
    /// Attack campaign id if this packet is malicious.
    pub attack: Option<u16>,
}

impl GroundTruth {
    /// True when the packet is part of an attack campaign.
    pub fn is_malicious(&self) -> bool {
        self.attack.is_some()
    }
}

/// Network-layer header: the IPv4 fields routing and capture read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct NetworkHeader {
    pub src: Ipv4Addr,
    pub dst: Ipv4Addr,
    pub ttl: u8,
}

impl NetworkHeader {
    /// Source address.
    pub fn src(&self) -> IpAddr {
        IpAddr::V4(self.src)
    }

    /// Destination address.
    pub fn dst(&self) -> IpAddr {
        IpAddr::V4(self.dst)
    }

    /// Time to live.
    pub fn ttl(&self) -> u8 {
        self.ttl
    }

    /// Decrement TTL in place, returning false when it hits zero.
    pub fn decrement_ttl(&mut self) -> bool {
        self.ttl = self.ttl.saturating_sub(1);
        self.ttl > 0
    }
}

/// Transport-layer header.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum TransportHeader {
    Udp(UdpRepr),
    Tcp(TcpRepr),
    Icmp(IcmpRepr),
}

impl TransportHeader {
    /// The IPv4 protocol number this header travels under.
    pub fn protocol(&self) -> u8 {
        match self {
            TransportHeader::Udp(_) => 17,
            TransportHeader::Tcp(_) => 6,
            TransportHeader::Icmp(_) => 1,
        }
    }

    /// Source port, if the transport has ports.
    pub fn src_port(&self) -> Option<u16> {
        match self {
            TransportHeader::Udp(u) => Some(u.src_port),
            TransportHeader::Tcp(t) => Some(t.src_port),
            TransportHeader::Icmp(_) => None,
        }
    }

    /// Destination port, if the transport has ports.
    pub fn dst_port(&self) -> Option<u16> {
        match self {
            TransportHeader::Udp(u) => Some(u.dst_port),
            TransportHeader::Tcp(t) => Some(t.dst_port),
            TransportHeader::Icmp(_) => None,
        }
    }
}

/// Packet payload: real bytes when content matters, a bare length otherwise.
///
/// Real bytes live behind an `Arc<[u8]>`, so cloning a payload (and hence a
/// [`Packet`]) is a reference-count bump, never a buffer copy. Payload bytes
/// are immutable once built, which is exactly the semantics of bytes on the
/// wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    Bytes(Arc<[u8]>),
    /// `len` bytes whose content nothing reads.
    Synthetic(usize),
}

impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Self {
        Payload::Bytes(bytes.into())
    }
}

// Hand-rolled (the derive cannot thaw `Arc<[u8]>`), shaped exactly like the
// enum derive output so checkpoint payloads stay format-uniform.
impl serde::Serialize for Payload {
    fn serialize_bin(&self, out: &mut Vec<u8>) {
        match self {
            Payload::Bytes(b) => {
                // Same bytes as the slice impl (count, then raw `u8`s), in
                // one copy.
                out.push(0);
                serde::bin::write_varint(out, b.len() as u64);
                out.extend_from_slice(b);
            }
            Payload::Synthetic(n) => {
                out.push(1);
                n.serialize_bin(out);
            }
        }
    }
}

impl serde::Deserialize for Payload {
    fn deserialize_bin(r: &mut serde::bin::Reader<'_>) -> Result<Self, serde::bin::Error> {
        match r.tag("Payload", 2)? {
            0 => {
                // `u8` elements are raw bytes: one borrowed run, one copy.
                let len = r.seq_len()?;
                Ok(Payload::Bytes(r.take(len)?.into()))
            }
            _ => Ok(Payload::Synthetic(serde::Deserialize::deserialize_bin(r)?)),
        }
    }
}

impl Payload {
    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        match self {
            Payload::Bytes(b) => b.len(),
            Payload::Synthetic(n) => *n,
        }
    }

    /// True when the payload has zero length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Real bytes if present.
    pub fn bytes(&self) -> Option<&[u8]> {
        match self {
            Payload::Bytes(b) => Some(b),
            Payload::Synthetic(_) => None,
        }
    }
}

/// Number of `Packet::clone` calls since process start. The forwarding fast
/// path is designed to move packets without copying them; this counter lets
/// tests assert the property instead of trusting it.
static PACKET_CLONES: AtomicU64 = AtomicU64::new(0);

/// Total `Packet::clone` calls so far, process-wide.
pub fn clone_count() -> u64 {
    PACKET_CLONES.load(Ordering::Relaxed)
}

/// A packet in flight through the simulated campus network.
#[derive(Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Packet {
    /// Globally unique id, assigned at injection.
    pub id: u64,
    pub network: NetworkHeader,
    pub transport: TransportHeader,
    pub payload: Payload,
    pub truth: GroundTruth,
    /// Instant the simulator injected this packet, stamped by the event
    /// loop; carried in the packet so end-to-end latency needs no side
    /// lookup table.
    pub injected_at: SimTime,
}

impl Clone for Packet {
    fn clone(&self) -> Self {
        PACKET_CLONES.fetch_add(1, Ordering::Relaxed);
        Packet {
            id: self.id,
            network: self.network,
            transport: self.transport.clone(),
            payload: self.payload.clone(),
            truth: self.truth,
            injected_at: self.injected_at,
        }
    }
}

impl Packet {
    /// Total on-wire length of the frame, Ethernet header included.
    pub fn wire_len(&self) -> usize {
        let l4 = match &self.transport {
            TransportHeader::Udp(_) => UDP_HEADER_LEN + self.payload.len(),
            TransportHeader::Tcp(t) => t.header_len() + self.payload.len(),
            TransportHeader::Icmp(i) => i.total_len(),
        };
        ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + l4
    }
}

/// A builder for the common packet shapes the traffic generator emits.
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    next_id: u64,
}

impl Default for PacketBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl PacketBuilder {
    /// Create a builder with ids starting at zero.
    pub fn new() -> Self {
        PacketBuilder { next_id: 0 }
    }

    fn next_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// A UDP/IPv4 packet.
    #[allow(clippy::too_many_arguments)]
    pub fn udp_v4(
        &mut self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload: Payload,
        ttl: u8,
        truth: GroundTruth,
    ) -> Packet {
        Packet {
            id: self.next_id(),
            network: NetworkHeader { src, dst, ttl },
            transport: TransportHeader::Udp(UdpRepr { src_port, dst_port }),
            payload,
            truth,
            injected_at: SimTime::ZERO,
        }
    }

    /// A TCP/IPv4 packet with the given control flags.
    #[allow(clippy::too_many_arguments)]
    pub fn tcp_v4(
        &mut self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        tcp: TcpRepr,
        payload: Payload,
        truth: GroundTruth,
    ) -> Packet {
        Packet {
            id: self.next_id(),
            network: NetworkHeader { src, dst, ttl: 64 },
            transport: TransportHeader::Tcp(TcpRepr { src_port, dst_port, ..tcp }),
            payload,
            truth,
            injected_at: SimTime::ZERO,
        }
    }

    /// An ICMP echo request/reply.
    pub fn icmp_v4(
        &mut self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        icmp: IcmpRepr,
        truth: GroundTruth,
    ) -> Packet {
        Packet {
            id: self.next_id(),
            network: NetworkHeader { src, dst, ttl: 64 },
            transport: TransportHeader::Icmp(icmp),
            payload: Payload::Synthetic(0),
            truth,
            injected_at: SimTime::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use campuslab_wire::TcpControl;

    fn builder() -> PacketBuilder {
        PacketBuilder::new()
    }

    fn tcp(control: TcpControl, mss: Option<u16>, window_scale: Option<u8>) -> TcpRepr {
        TcpRepr { src_port: 0, dst_port: 0, seq: 1000, ack: 0, control, mss, window_scale }
    }

    /// Frame lengths written out from the RFC header sizes: Ethernet 14,
    /// IPv4 20, UDP 8, TCP 20 plus options padded to four bytes (MSS 4 +
    /// window scale 3 → 8), ICMP 8.
    #[test]
    fn wire_len_matches_rfc_header_sizes() {
        let mut b = builder();
        let (h1, h2) = (Ipv4Addr::new(10, 0, 2, 9), Ipv4Addr::new(203, 0, 113, 80));
        let (truth, empty) = (GroundTruth::default(), Payload::Synthetic(0));
        let syn = tcp(TcpControl::SYN, Some(1460), Some(7));
        let ack = tcp(TcpControl::ACK, None, None);
        let cases = [
            (b.udp_v4(h1, h2, 40000, 53, Payload::Synthetic(100), 64, truth), 142),
            (b.tcp_v4(h1, h2, 50000, 443, syn, empty.clone(), truth), 62),
            (b.tcp_v4(h1, h2, 50000, 443, ack, empty, truth), 54),
            (b.icmp_v4(h1, h2, IcmpRepr::echo_request(77, 1, &[0x61; 56]), truth), 98),
        ];
        for (pkt, expected) in cases {
            assert_eq!(pkt.wire_len(), expected, "{:?}", pkt.transport);
        }
    }

    #[test]
    fn builder_fills_headers_and_derives_the_protocol() {
        let mut b = builder();
        let (h1, h2) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 254));
        let truth = GroundTruth::default();
        let udp = b.udp_v4(h1, h2, 40000, 53, Payload::Synthetic(0), 9, truth);
        assert_eq!(udp.network, NetworkHeader { src: h1, dst: h2, ttl: 9 });
        assert_eq!((udp.transport.protocol(), udp.transport.dst_port()), (17, Some(53)));
        let syn = tcp(TcpControl::SYN, Some(1460), None);
        let syn = b.tcp_v4(h1, h2, 50000, 443, syn, Payload::Synthetic(0), truth);
        assert_eq!((syn.network.ttl(), syn.transport.protocol()), (64, 6));
        assert_eq!((syn.transport.src_port(), syn.transport.dst_port()), (Some(50000), Some(443)));
        let ping = b.icmp_v4(h1, h2, IcmpRepr::echo_request(77, 1, b"abcdefgh"), truth);
        assert_eq!((ping.transport.protocol(), ping.transport.src_port()), (1, None));
        assert_eq!(ping.network.src(), IpAddr::V4(h1));
    }

    #[test]
    fn ttl_decrements_to_zero() {
        let mut b = builder();
        let mut pkt = b.udp_v4(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1,
            2,
            Payload::Synthetic(0),
            2,
            GroundTruth::default(),
        );
        assert!(pkt.network.decrement_ttl());
        assert!(!pkt.network.decrement_ttl());
        assert_eq!(pkt.network.ttl(), 0);
    }

    #[test]
    fn ids_are_unique_and_monotone() {
        let mut b = builder();
        let p1 = b.udp_v4(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1, 2, Payload::Synthetic(0), 64, GroundTruth::default(),
        );
        let p2 = b.udp_v4(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1, 2, Payload::Synthetic(0), 64, GroundTruth::default(),
        );
        assert!(p2.id > p1.id);
    }

    #[test]
    fn ground_truth_classification() {
        assert!(!GroundTruth::default().is_malicious());
        assert!(GroundTruth { flow_id: 0, app_class: 0, attack: Some(3) }.is_malicious());
    }
}
