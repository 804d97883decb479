//! The owned packet representation that moves through the simulator.
//!
//! A [`Packet`] carries parsed header `Repr`s from `campuslab-wire` plus a
//! payload that is either real bytes (DNS messages, HTTP request lines —
//! anything the capture plane will want to inspect) or a synthetic length
//! (bulk data whose content is irrelevant). `to_bytes` serializes the packet
//! into an exact wire image for pcap dumps and byte-accurate capture.

use crate::time::SimTime;
use campuslab_wire::udp::PseudoHeader;
use campuslab_wire::{
    EtherType, EthernetAddress, EthernetRepr, IcmpRepr, IpProtocol, Ipv4Repr, Ipv6Repr, TcpRepr,
    UdpRepr, ETHERNET_HEADER_LEN,
};
use std::net::IpAddr;
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

/// Network-layer header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum NetworkHeader {
    V4(Ipv4Repr),
    V6(Ipv6Repr),
}

impl NetworkHeader {
    /// Source address, version-agnostic.
    pub fn src(&self) -> IpAddr {
        match self {
            NetworkHeader::V4(h) => IpAddr::V4(h.src),
            NetworkHeader::V6(h) => IpAddr::V6(h.src),
        }
    }

    /// Destination address, version-agnostic.
    pub fn dst(&self) -> IpAddr {
        match self {
            NetworkHeader::V4(h) => IpAddr::V4(h.dst),
            NetworkHeader::V6(h) => IpAddr::V6(h.dst),
        }
    }

    /// Transport protocol field.
    pub fn protocol(&self) -> IpProtocol {
        match self {
            NetworkHeader::V4(h) => h.protocol,
            NetworkHeader::V6(h) => h.protocol,
        }
    }

    /// TTL / hop limit.
    pub fn ttl(&self) -> u8 {
        match self {
            NetworkHeader::V4(h) => h.ttl,
            NetworkHeader::V6(h) => h.hop_limit,
        }
    }

    /// Decrement TTL in place, returning false when it hits zero.
    pub fn decrement_ttl(&mut self) -> bool {
        match self {
            NetworkHeader::V4(h) => {
                h.ttl = h.ttl.saturating_sub(1);
                h.ttl > 0
            }
            NetworkHeader::V6(h) => {
                h.hop_limit = h.hop_limit.saturating_sub(1);
                h.hop_limit > 0
            }
        }
    }

    fn header_len(&self) -> usize {
        match self {
            NetworkHeader::V4(_) => campuslab_wire::IPV4_HEADER_LEN,
            NetworkHeader::V6(_) => campuslab_wire::IPV6_HEADER_LEN,
        }
    }

    fn pseudo(&self) -> PseudoHeader {
        match self {
            NetworkHeader::V4(h) => PseudoHeader::V4 { src: h.src, dst: h.dst },
            NetworkHeader::V6(h) => PseudoHeader::V6 { src: h.src, dst: h.dst },
        }
    }
}

/// Transport-layer header.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum TransportHeader {
    Udp(UdpRepr),
    Tcp(TcpRepr),
    Icmp(IcmpRepr),
    /// Raw IP payload with no transport structure.
    None,
}

impl TransportHeader {
    /// Source port, if the transport has ports.
    pub fn src_port(&self) -> Option<u16> {
        match self {
            TransportHeader::Udp(u) => Some(u.src_port),
            TransportHeader::Tcp(t) => Some(t.src_port),
            _ => None,
        }
    }

    /// Destination port, if the transport has ports.
    pub fn dst_port(&self) -> Option<u16> {
        match self {
            TransportHeader::Udp(u) => Some(u.dst_port),
            TransportHeader::Tcp(t) => Some(t.dst_port),
            _ => None,
        }
    }

    fn header_len(&self) -> usize {
        match self {
            TransportHeader::Udp(_) => campuslab_wire::UDP_HEADER_LEN,
            TransportHeader::Tcp(t) => t.header_len(),
            TransportHeader::Icmp(i) => i.total_len(), // payload included below
            TransportHeader::None => 0,
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
    /// `len` bytes of zeros when serialized.
    Synthetic(usize),
}

impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Self {
        Payload::Bytes(bytes.into())
    }
}

// Hand-rolled (the derive cannot thaw `Arc<[u8]>`), shaped exactly like the
// enum derive output in both forms so checkpoint payloads stay
// format-uniform.
impl serde::Serialize for Payload {
    fn serialize_json(&self, out: &mut String) {
        match self {
            Payload::Bytes(b) => {
                out.push_str("{\"Bytes\":");
                b[..].serialize_json(out);
                out.push('}');
            }
            Payload::Synthetic(n) => {
                out.push_str("{\"Synthetic\":");
                n.serialize_json(out);
                out.push('}');
            }
        }
    }

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

    fn materialize(&self) -> std::borrow::Cow<'_, [u8]> {
        match self {
            Payload::Bytes(b) => std::borrow::Cow::Borrowed(b),
            Payload::Synthetic(n) => std::borrow::Cow::Owned(vec![0u8; *n]),
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
    pub src_mac: EthernetAddress,
    pub dst_mac: EthernetAddress,
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
            src_mac: self.src_mac,
            dst_mac: self.dst_mac,
            network: self.network,
            transport: self.transport.clone(),
            payload: self.payload.clone(),
            truth: self.truth,
            injected_at: self.injected_at,
        }
    }
}

impl Packet {
    /// Total on-wire length including the Ethernet header.
    pub fn wire_len(&self) -> usize {
        let l4 = match &self.transport {
            TransportHeader::Icmp(i) => i.total_len(),
            t => t.header_len() + self.payload.len(),
        };
        ETHERNET_HEADER_LEN + self.network.header_len() + l4
    }

    /// Serialize the full frame to bytes, with correct lengths and
    /// checksums, exactly as a border tap would see it.
    pub fn to_bytes(&self) -> Vec<u8> {
        let pseudo = self.network.pseudo();
        // Layer 4 first so the IP length fields are exact.
        let mut l4 = Vec::new();
        match &self.transport {
            TransportHeader::Udp(u) => u.emit(&mut l4, &self.payload.materialize(), &pseudo),
            TransportHeader::Tcp(t) => t.emit(&mut l4, &self.payload.materialize(), &pseudo),
            TransportHeader::Icmp(i) => i.emit(&mut l4),
            TransportHeader::None => l4.extend_from_slice(&self.payload.materialize()),
        }
        let mut frame = Vec::with_capacity(ETHERNET_HEADER_LEN + self.network.header_len() + l4.len());
        let ethertype = match self.network {
            NetworkHeader::V4(_) => EtherType::Ipv4,
            NetworkHeader::V6(_) => EtherType::Ipv6,
        };
        EthernetRepr { dst: self.dst_mac, src: self.src_mac, ethertype }.emit(&mut frame);
        match self.network {
            NetworkHeader::V4(mut h) => {
                h.payload_len = l4.len();
                h.emit(&mut frame);
            }
            NetworkHeader::V6(mut h) => {
                h.payload_len = l4.len();
                h.emit(&mut frame);
            }
        }
        frame.extend_from_slice(&l4);
        frame
    }

    /// The canonical 5-tuple (src ip, dst ip, protocol, src port, dst port),
    /// with zero ports for portless transports.
    pub fn five_tuple(&self) -> (IpAddr, IpAddr, IpProtocol, u16, u16) {
        (
            self.network.src(),
            self.network.dst(),
            self.network.protocol(),
            self.transport.src_port().unwrap_or(0),
            self.transport.dst_port().unwrap_or(0),
        )
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
        src: std::net::Ipv4Addr,
        dst: std::net::Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload: Payload,
        ttl: u8,
        truth: GroundTruth,
    ) -> Packet {
        let id = self.next_id();
        Packet {
            id,
            src_mac: EthernetAddress::from_host_id(u32::from(src)),
            dst_mac: EthernetAddress::from_host_id(u32::from(dst)),
            network: NetworkHeader::V4(Ipv4Repr {
                src,
                dst,
                protocol: IpProtocol::Udp,
                ttl,
                payload_len: campuslab_wire::UDP_HEADER_LEN + payload.len(),
                dscp: 0,
                identification: id as u16,
                dont_fragment: true,
            }),
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
        src: std::net::Ipv4Addr,
        dst: std::net::Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        tcp: TcpRepr,
        payload: Payload,
        truth: GroundTruth,
    ) -> Packet {
        let id = self.next_id();
        let mut tcp = tcp;
        tcp.src_port = src_port;
        tcp.dst_port = dst_port;
        Packet {
            id,
            src_mac: EthernetAddress::from_host_id(u32::from(src)),
            dst_mac: EthernetAddress::from_host_id(u32::from(dst)),
            network: NetworkHeader::V4(Ipv4Repr {
                src,
                dst,
                protocol: IpProtocol::Tcp,
                ttl: 64,
                payload_len: tcp.header_len() + payload.len(),
                dscp: 0,
                identification: id as u16,
                dont_fragment: true,
            }),
            transport: TransportHeader::Tcp(tcp),
            payload,
            truth,
            injected_at: SimTime::ZERO,
        }
    }

    /// A UDP/IPv6 packet. The campus fabric is dual-stack capable even
    /// though the default workload is IPv4; this path exercises the v6
    /// wire formats end to end.
    #[allow(clippy::too_many_arguments)]
    pub fn udp_v6(
        &mut self,
        src: std::net::Ipv6Addr,
        dst: std::net::Ipv6Addr,
        src_port: u16,
        dst_port: u16,
        payload: Payload,
        hop_limit: u8,
        truth: GroundTruth,
    ) -> Packet {
        let id = self.next_id();
        Packet {
            id,
            src_mac: EthernetAddress::from_host_id(u128::from(src) as u32),
            dst_mac: EthernetAddress::from_host_id(u128::from(dst) as u32),
            network: NetworkHeader::V6(Ipv6Repr {
                src,
                dst,
                protocol: IpProtocol::Udp,
                hop_limit,
                payload_len: campuslab_wire::UDP_HEADER_LEN + payload.len(),
                traffic_class: 0,
                flow_label: (id as u32) & 0xf_ffff,
            }),
            transport: TransportHeader::Udp(UdpRepr { src_port, dst_port }),
            payload,
            truth,
            injected_at: SimTime::ZERO,
        }
    }

    /// An ICMP echo request/reply.
    pub fn icmp_v4(
        &mut self,
        src: std::net::Ipv4Addr,
        dst: std::net::Ipv4Addr,
        icmp: IcmpRepr,
        truth: GroundTruth,
    ) -> Packet {
        let id = self.next_id();
        Packet {
            id,
            src_mac: EthernetAddress::from_host_id(u32::from(src)),
            dst_mac: EthernetAddress::from_host_id(u32::from(dst)),
            network: NetworkHeader::V4(Ipv4Repr {
                src,
                dst,
                protocol: IpProtocol::Icmp,
                ttl: 64,
                payload_len: icmp.total_len(),
                dscp: 0,
                identification: id as u16,
                dont_fragment: true,
            }),
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
    use campuslab_wire::{DnsMessage, DnsType, TcpControl};
    use std::net::Ipv4Addr;

    fn builder() -> PacketBuilder {
        PacketBuilder::new()
    }

    #[test]
    fn udp_packet_serializes_and_reparses() {
        let mut b = builder();
        let query = DnsMessage::query(9, "www.example.edu", DnsType::A);
        let mut body = Vec::new();
        query.emit(&mut body).unwrap();
        let pkt = b.udp_v4(
            Ipv4Addr::new(10, 0, 1, 5),
            Ipv4Addr::new(10, 0, 0, 53),
            40000,
            53,
            Payload::Bytes(body.into()),
            64,
            GroundTruth::default(),
        );
        let bytes = pkt.to_bytes();
        assert_eq!(bytes.len(), pkt.wire_len());
        let (eth, l3) = EthernetRepr::parse(&bytes).unwrap();
        assert_eq!(eth.ethertype, EtherType::Ipv4);
        let (ip, l4) = Ipv4Repr::parse(l3).unwrap();
        assert_eq!(ip.src, Ipv4Addr::new(10, 0, 1, 5));
        let (udp, payload) = UdpRepr::parse(
            l4,
            &PseudoHeader::V4 { src: ip.src, dst: ip.dst },
        )
        .unwrap();
        assert_eq!(udp.dst_port, 53);
        let msg = DnsMessage::parse(payload).unwrap();
        assert_eq!(msg.questions[0].name, "www.example.edu");
    }

    #[test]
    fn synthetic_payload_counts_length_without_allocation() {
        let mut b = builder();
        let pkt = b.udp_v4(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1,
            2,
            Payload::Synthetic(1000),
            64,
            GroundTruth::default(),
        );
        assert_eq!(pkt.wire_len(), 14 + 20 + 8 + 1000);
        assert_eq!(pkt.to_bytes().len(), pkt.wire_len());
    }

    #[test]
    fn tcp_packet_round_trips() {
        let mut b = builder();
        let pkt = b.tcp_v4(
            Ipv4Addr::new(10, 0, 2, 9),
            Ipv4Addr::new(203, 0, 113, 80),
            50000,
            443,
            TcpRepr {
                src_port: 0,
                dst_port: 0,
                seq: 1000,
                ack: 0,
                control: TcpControl::SYN,
                window: 65535,
                mss: Some(1460),
                window_scale: Some(7),
            },
            Payload::Synthetic(0),
            GroundTruth { flow_id: 1, app_class: 2, attack: None },
        );
        let bytes = pkt.to_bytes();
        let (_, l3) = EthernetRepr::parse(&bytes).unwrap();
        let (ip, l4) = Ipv4Repr::parse(l3).unwrap();
        let (tcp, _) = TcpRepr::parse(
            l4,
            &PseudoHeader::V4 { src: ip.src, dst: ip.dst },
        )
        .unwrap();
        assert!(tcp.control.syn);
        assert_eq!(tcp.mss, Some(1460));
        assert_eq!(pkt.five_tuple().4, 443);
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

    #[test]
    fn udp_v6_packet_round_trips() {
        let mut b = builder();
        let pkt = b.udp_v6(
            "2001:db8::10".parse().unwrap(),
            "2001:db8:ffff::53".parse().unwrap(),
            40_000,
            53,
            Payload::Synthetic(120),
            64,
            GroundTruth::default(),
        );
        let bytes = pkt.to_bytes();
        assert_eq!(bytes.len(), pkt.wire_len());
        let (eth, l3) = EthernetRepr::parse(&bytes).unwrap();
        assert_eq!(eth.ethertype, EtherType::Ipv6);
        let (ip, l4) = campuslab_wire::Ipv6Repr::parse(l3).unwrap();
        assert_eq!(ip.hop_limit, 64);
        let (udp, payload) = UdpRepr::parse(
            l4,
            &PseudoHeader::V6 { src: ip.src, dst: ip.dst },
        )
        .unwrap();
        assert_eq!(udp.dst_port, 53);
        assert_eq!(payload.len(), 120);
        assert_eq!(
            pkt.five_tuple().0,
            "2001:db8::10".parse::<std::net::IpAddr>().unwrap()
        );
    }

    #[test]
    fn icmp_packet_round_trips() {
        let mut b = builder();
        let pkt = b.icmp_v4(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 254),
            IcmpRepr::echo_request(77, 1, b"abcdefgh"),
            GroundTruth::default(),
        );
        let bytes = pkt.to_bytes();
        let (_, l3) = EthernetRepr::parse(&bytes).unwrap();
        let (ip, l4) = Ipv4Repr::parse(l3).unwrap();
        assert_eq!(ip.protocol, IpProtocol::Icmp);
        let icmp = IcmpRepr::parse(l4).unwrap();
        assert_eq!(icmp.ident(), 77);
    }
}
