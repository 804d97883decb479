//! On-the-fly metadata extraction — the paper's monitoring appliance does
//! not just store raw packets, it generates "an extensive set of
//! 'on-the-fly' generated metadata" (§5). CampusLab extracts DNS
//! transactions (the richest campus metadata source and the input to the
//! amplification detector) and TCP handshake round-trip times.

use crate::records::{Direction, DnsMetaRecord};
use campuslab_netsim::{Packet, SimTime, TransportHeader};
use campuslab_wire::{DnsSection, DnsView};

/// Extract a DNS transaction record from a captured packet: `None` for
/// anything but UDP to or from port 53 carrying a parseable message. The
/// message is read in place; the one allocation is the record's `qname`.
pub fn extract_dns(now: SimTime, direction: Direction, pkt: &Packet) -> Option<DnsMetaRecord> {
    let udp = match &pkt.transport {
        TransportHeader::Udp(u) if u.src_port == 53 || u.dst_port == 53 => u,
        _ => return None,
    };
    let msg = DnsView::parse(pkt.payload.bytes()?).ok()?;
    let (client, server) = if udp.dst_port == 53 {
        (pkt.network.src(), pkt.network.dst())
    } else {
        (pkt.network.dst(), pkt.network.src())
    };
    let question = msg.questions().next();
    Some(DnsMetaRecord {
        ts_ns: now.as_nanos(),
        direction,
        client,
        server,
        qname: question.map(|q| q.name.to_owned()).unwrap_or_default(),
        qtype: question.map(|q| u16::from(q.qtype)).unwrap_or(0),
        is_response: msg.flags().response,
        answer_count: msg.count(DnsSection::Answer),
        wire_len: pkt.wire_len() as u32,
        amplification_prone: msg.is_amplification_prone(),
        label_attack: pkt.truth.attack.unwrap_or(0),
    })
}

/// Estimates TCP round-trip times from handshakes observed at the tap:
/// SYN out, SYN-ACK back; the gap includes whatever queueing the campus or
/// the provider added that instant.
#[derive(Debug, Default)]
pub struct TcpRttEstimator {
    /// Outstanding SYNs: (client, server, sport, dport) -> SYN timestamp.
    pending: crate::fxhash::FxHashMap<(std::net::IpAddr, std::net::IpAddr, u16, u16), u64>,
}

impl TcpRttEstimator {
    /// A fresh estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed one packet; returns a measurement when a handshake completes.
    pub fn observe(
        &mut self,
        now: SimTime,
        pkt: &Packet,
    ) -> Option<crate::records::TcpRttRecord> {
        let tcp = match &pkt.transport {
            TransportHeader::Tcp(t) => t,
            _ => return None,
        };
        let src = pkt.network.src();
        let dst = pkt.network.dst();
        if tcp.control.syn && !tcp.control.ack {
            self.pending
                .insert((src, dst, tcp.src_port, tcp.dst_port), now.as_nanos());
            // Bound state: forget very old half-open entries.
            if self.pending.len() > 100_000 {
                let cutoff = now.as_nanos().saturating_sub(10_000_000_000);
                self.pending.retain(|_, &mut t| t >= cutoff);
            }
            None
        } else if tcp.control.syn && tcp.control.ack {
            // SYN-ACK reverses the 4-tuple.
            let key = (dst, src, tcp.dst_port, tcp.src_port);
            let syn_ts = self.pending.remove(&key)?;
            let rtt_ns = now.as_nanos().saturating_sub(syn_ts);
            Some(crate::records::TcpRttRecord {
                ts_ns: now.as_nanos(),
                client: dst,
                server: src,
                dst_port: tcp.src_port,
                rtt_ns,
            })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use campuslab_netsim::{GroundTruth, PacketBuilder, Payload};
    use campuslab_wire::{DnsMessage, DnsRcode, DnsRecord, DnsRecordData, DnsType, TcpControl, TcpRepr};
    use std::net::Ipv4Addr;

    fn tcp_pkt(
        b: &mut PacketBuilder,
        src: [u8; 4],
        dst: [u8; 4],
        sport: u16,
        dport: u16,
        control: TcpControl,
    ) -> Packet {
        b.tcp_v4(
            Ipv4Addr::from(src),
            Ipv4Addr::from(dst),
            sport,
            dport,
            TcpRepr {
                src_port: sport,
                dst_port: dport,
                seq: 1,
                ack: 0,
                control,
                mss: None,
                window_scale: None,
            },
            Payload::Synthetic(0),
            GroundTruth::default(),
        )
    }

    #[test]
    fn rtt_estimator_measures_handshakes() {
        let mut est = TcpRttEstimator::new();
        let mut b = PacketBuilder::new();
        let syn = tcp_pkt(&mut b, [10, 1, 1, 10], [203, 0, 113, 1], 40_000, 443, TcpControl::SYN);
        assert!(est.observe(SimTime::from_millis(100), &syn).is_none());
        assert_eq!(est.pending.len(), 1);
        let synack = tcp_pkt(&mut b, [203, 0, 113, 1], [10, 1, 1, 10], 443, 40_000, TcpControl::SYN_ACK);
        let rec = est.observe(SimTime::from_millis(118), &synack).expect("measured");
        assert_eq!(rec.rtt_ns, 18_000_000);
        assert_eq!(rec.client, "10.1.1.10".parse::<std::net::IpAddr>().unwrap());
        assert_eq!(rec.server, "203.0.113.1".parse::<std::net::IpAddr>().unwrap());
        assert_eq!(rec.dst_port, 443);
        assert_eq!(est.pending.len(), 0);
    }

    #[test]
    fn unmatched_synack_is_ignored() {
        let mut est = TcpRttEstimator::new();
        let mut b = PacketBuilder::new();
        let synack = tcp_pkt(&mut b, [203, 0, 113, 1], [10, 1, 1, 10], 443, 40_000, TcpControl::SYN_ACK);
        assert!(est.observe(SimTime::from_millis(5), &synack).is_none());
        // Plain data packets are ignored entirely.
        let ack = tcp_pkt(&mut b, [10, 1, 1, 10], [203, 0, 113, 1], 40_000, 443, TcpControl::ACK);
        assert!(est.observe(SimTime::from_millis(6), &ack).is_none());
    }

    fn dns_query_packet(qtype: DnsType) -> Packet {
        let msg = DnsMessage::query(7, "www.example.edu", qtype);
        let mut bytes = Vec::new();
        msg.emit(&mut bytes).unwrap();
        let mut b = PacketBuilder::new();
        b.udp_v4(
            Ipv4Addr::new(10, 1, 1, 10),
            Ipv4Addr::new(10, 1, 255, 53),
            40_000,
            53,
            Payload::Bytes(bytes.into()),
            64,
            GroundTruth::default(),
        )
    }

    #[test]
    fn extracts_queries() {
        let query = dns_query_packet(DnsType::A);
        let rec = extract_dns(SimTime::from_millis(3), Direction::Outbound, &query).unwrap();
        assert_eq!(rec.qname, "www.example.edu");
        assert_eq!(rec.qtype, 1);
        assert!(!rec.is_response);
        assert!(!rec.amplification_prone);
        assert_eq!(rec.client, "10.1.1.10".parse::<std::net::IpAddr>().unwrap());
    }

    #[test]
    fn flags_any_queries_as_amplification_prone() {
        let query = dns_query_packet(DnsType::Any);
        let rec = extract_dns(SimTime::ZERO, Direction::Outbound, &query).unwrap();
        assert!(rec.amplification_prone);
    }

    #[test]
    fn extracts_fat_responses_with_client_server_orientation() {
        let query = DnsMessage::query(9, "amp.example.org", DnsType::Any);
        let answers = (0..12)
            .map(|_| DnsRecord {
                name: "amp.example.org".into(),
                ttl: 60,
                data: DnsRecordData::Txt(vec![b'x'; 100]),
            })
            .collect();
        let resp = query.answer(answers, DnsRcode::NoError);
        let mut bytes = Vec::new();
        resp.emit(&mut bytes).unwrap();
        let mut b = PacketBuilder::new();
        let pkt = b.udp_v4(
            Ipv4Addr::new(203, 0, 113, 1),
            Ipv4Addr::new(10, 1, 1, 10),
            53,
            40_000,
            Payload::Bytes(bytes.into()),
            64,
            GroundTruth { flow_id: 0, app_class: 1, attack: Some(1) },
        );
        let rec = extract_dns(SimTime::ZERO, Direction::Inbound, &pkt).unwrap();
        assert!(rec.is_response);
        assert_eq!(rec.answer_count, 12);
        assert!(rec.amplification_prone);
        assert_eq!(rec.label_attack, 1);
        // The client is the victim, even though the packet flows inbound.
        assert_eq!(rec.client, "10.1.1.10".parse::<std::net::IpAddr>().unwrap());
        assert_eq!(rec.server, "203.0.113.1".parse::<std::net::IpAddr>().unwrap());
    }

    #[test]
    fn non_dns_and_malformed_are_skipped() {
        let mut b = PacketBuilder::new();
        let not_dns = b.udp_v4(
            Ipv4Addr::new(10, 1, 1, 10),
            Ipv4Addr::new(10, 1, 1, 11),
            1000,
            2000,
            Payload::Synthetic(64),
            64,
            GroundTruth::default(),
        );
        assert!(extract_dns(SimTime::ZERO, Direction::Outbound, &not_dns).is_none());

        let garbage = b.udp_v4(
            Ipv4Addr::new(10, 1, 1, 10),
            Ipv4Addr::new(10, 1, 255, 53),
            1000,
            53,
            Payload::Bytes(vec![1, 2, 3].into()),
            64,
            GroundTruth::default(),
        );
        assert!(extract_dns(SimTime::ZERO, Direction::Outbound, &garbage).is_none());
    }
}
