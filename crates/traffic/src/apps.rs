//! Benign application session models.
//!
//! Each model synthesizes a realistic packet-level exchange — TCP handshake,
//! paced data, sparse ACKs, teardown; or UDP request/response — with real
//! headers and, where the capture plane inspects content (DNS), real payload
//! bytes. Sessions are *pre-scheduled*: timing encodes typical RTT and
//! pacing rather than emerging from an endpoint stack, which is the right
//! fidelity for monitoring/learning experiments (volume, mix, headers,
//! timing) while keeping million-packet workloads cheap to generate.

use crate::labels::AppClass;
use crate::schedule::Schedule;
use campuslab_netsim::{GroundTruth, NodeId, PacketBuilder, Payload, SimDuration, SimTime};
use campuslab_wire::{DnsFlags, DnsRcode, DnsSection, DnsType, DnsWriter, TcpControl, TcpRepr};
use rand::rngs::StdRng;
use rand::Rng;
use std::net::Ipv4Addr;

/// Maximum TCP payload per packet (Ethernet MTU minus IP/TCP headers).
pub const MSS: usize = 1460;
/// Emit one pure ACK from the receiver per this many data packets.
const ACK_EVERY: usize = 8;

/// One end of a session.
#[derive(Debug, Clone, Copy)]
pub struct Endpoint {
    pub node: NodeId,
    pub addr: Ipv4Addr,
}

/// Shared mutable state threaded through all session generators.
pub struct SessionEnv<'a> {
    pub builder: &'a mut PacketBuilder,
    pub rng: &'a mut StdRng,
    pub schedule: &'a mut Schedule,
    pub next_flow: &'a mut u64,
    /// Scratch buffer each generated DNS message is written into before
    /// [`dns_payload`] copies it out.
    pub dns: &'a mut Vec<u8>,
}

impl SessionEnv<'_> {
    /// Allocate a fresh flow id.
    pub fn alloc_flow(&mut self) -> u64 {
        let id = *self.next_flow;
        *self.next_flow += 1;
        id
    }
}

/// Write one DNS message into `scratch` (dropping the last one) and copy
/// it out as a packet payload: the one allocation a generated message
/// costs. `write` adds the questions and records; generated names are
/// always valid.
pub fn dns_payload(
    scratch: &mut Vec<u8>,
    id: u16,
    flags: DnsFlags,
    write: impl FnOnce(&mut DnsWriter<'_>) -> campuslab_wire::Result<()>,
) -> Payload {
    scratch.clear();
    write(&mut DnsWriter::new(scratch, id, flags)).expect("generated DNS names are valid");
    Payload::Bytes(scratch.as_slice().into())
}

/// Parameters of one synthesized TCP exchange.
#[derive(Debug, Clone, Copy)]
pub struct TcpExchange {
    pub sport: u16,
    pub dport: u16,
    /// Bytes the client sends after the handshake.
    pub request_bytes: usize,
    /// Bytes the server sends back.
    pub response_bytes: usize,
    /// Pacing rate for data segments, bits per second.
    pub pace_bps: u64,
    /// Round-trip time between the endpoints.
    pub rtt: SimDuration,
}

/// Synthesize a complete TCP exchange (handshake, request, response, sparse
/// ACKs, FIN teardown). Returns the time the session finishes.
pub fn tcp_exchange(
    env: &mut SessionEnv<'_>,
    t0: SimTime,
    client: Endpoint,
    server: Endpoint,
    app: AppClass,
    truth_attack: Option<u16>,
    x: TcpExchange,
) -> SimTime {
    let flow_id = env.alloc_flow();
    let truth = GroundTruth { flow_id, app_class: app.id(), attack: truth_attack };
    let half_rtt = SimDuration::from_nanos(x.rtt.as_nanos() / 2);
    let client_isn: u32 = env.rng.gen();
    let server_isn: u32 = env.rng.gen();

    let push = |env: &mut SessionEnv<'_>,
                    at: SimTime,
                    from: Endpoint,
                    to: Endpoint,
                    tcp: TcpRepr,
                    payload: Payload| {
        let pkt = env
            .builder
            .tcp_v4(from.addr, to.addr, tcp.src_port, tcp.dst_port, tcp, payload, truth);
        env.schedule.push(at, from.node, pkt);
    };

    let base_tcp = |sport: u16, dport: u16, seq: u32, ack: u32, control: TcpControl| TcpRepr {
        src_port: sport,
        dst_port: dport,
        seq,
        ack,
        control,
        mss: None,
        window_scale: None,
    };

    // --- Handshake ---
    let syn = TcpRepr {
        mss: Some(MSS as u16),
        window_scale: Some(7),
        ..base_tcp(x.sport, x.dport, client_isn, 0, TcpControl::SYN)
    };
    push(env, t0, client, server, syn, Payload::Synthetic(0));
    let synack = TcpRepr {
        mss: Some(MSS as u16),
        window_scale: Some(7),
        ..base_tcp(x.dport, x.sport, server_isn, client_isn.wrapping_add(1), TcpControl::SYN_ACK)
    };
    push(env, t0 + half_rtt, server, client, synack, Payload::Synthetic(0));
    let mut t = t0 + x.rtt;
    push(
        env,
        t,
        client,
        server,
        base_tcp(x.sport, x.dport, client_isn.wrapping_add(1), server_isn.wrapping_add(1), TcpControl::ACK),
        Payload::Synthetic(0),
    );

    let gap = |bytes: usize| SimDuration::transmission(bytes + 54, x.pace_bps);

    // --- Request (client -> server) ---
    let mut cseq = client_isn.wrapping_add(1);
    let sack = server_isn.wrapping_add(1);
    let mut sent = 0usize;
    let mut i = 0usize;
    while sent < x.request_bytes {
        let chunk = (x.request_bytes - sent).min(MSS);
        let mut ctl = TcpControl::ACK;
        if sent + chunk >= x.request_bytes {
            ctl.psh = true;
        }
        push(
            env,
            t,
            client,
            server,
            base_tcp(x.sport, x.dport, cseq, sack, ctl),
            Payload::Synthetic(chunk),
        );
        cseq = cseq.wrapping_add(chunk as u32);
        sent += chunk;
        i += 1;
        if i.is_multiple_of(ACK_EVERY) {
            push(
                env,
                t + half_rtt,
                server,
                client,
                base_tcp(x.dport, x.sport, sack, cseq, TcpControl::ACK),
                Payload::Synthetic(0),
            );
        }
        t += gap(chunk);
    }

    // --- Response (server -> client), starts after the request lands ---
    let mut t = t + half_rtt;
    let mut sseq = sack;
    let mut sent = 0usize;
    let mut i = 0usize;
    while sent < x.response_bytes {
        let chunk = (x.response_bytes - sent).min(MSS);
        let mut ctl = TcpControl::ACK;
        if sent + chunk >= x.response_bytes {
            ctl.psh = true;
        }
        push(
            env,
            t,
            server,
            client,
            base_tcp(x.dport, x.sport, sseq, cseq, ctl),
            Payload::Synthetic(chunk),
        );
        sseq = sseq.wrapping_add(chunk as u32);
        sent += chunk;
        i += 1;
        if i.is_multiple_of(ACK_EVERY) {
            push(
                env,
                t + half_rtt,
                client,
                server,
                base_tcp(x.sport, x.dport, cseq, sseq, TcpControl::ACK),
                Payload::Synthetic(0),
            );
        }
        t += gap(chunk);
    }

    // --- Teardown ---
    let t_fin = t + half_rtt;
    push(
        env,
        t_fin,
        client,
        server,
        base_tcp(x.sport, x.dport, cseq, sseq, TcpControl::FIN_ACK),
        Payload::Synthetic(0),
    );
    push(
        env,
        t_fin + half_rtt,
        server,
        client,
        base_tcp(x.dport, x.sport, sseq, cseq.wrapping_add(1), TcpControl::FIN_ACK),
        Payload::Synthetic(0),
    );
    let t_end = t_fin + x.rtt;
    push(
        env,
        t_end,
        client,
        server,
        base_tcp(x.sport, x.dport, cseq.wrapping_add(1), sseq.wrapping_add(1), TcpControl::ACK),
        Payload::Synthetic(0),
    );
    t_end
}

/// Synthesize a DNS lookup (real DNS payload bytes) to `resolver` and its
/// response. Returns the time the answer arrives at the client.
#[allow(clippy::too_many_arguments)]
pub fn dns_lookup(
    env: &mut SessionEnv<'_>,
    t0: SimTime,
    client: Endpoint,
    resolver: Endpoint,
    domain: &str,
    qtype: DnsType,
    answer_addr: Ipv4Addr,
    rtt: SimDuration,
) -> SimTime {
    let flow_id = env.alloc_flow();
    let truth = GroundTruth { flow_id, app_class: AppClass::Dns.id(), attack: None };
    let id: u16 = env.rng.gen();
    let sport: u16 = env.rng.gen_range(32768..61000);

    let query = dns_payload(env.dns, id, DnsFlags::query(), |w| w.question(domain, qtype));
    let qpkt = env.builder.udp_v4(client.addr, resolver.addr, sport, 53, query, 64, truth);
    env.schedule.push(t0, client.node, qpkt);

    let response = dns_payload(env.dns, id, DnsFlags::response(DnsRcode::NoError), |w| {
        w.question(domain, qtype)?;
        w.record_with(DnsSection::Answer, domain, DnsType::A, 300, |rdata| {
            rdata.extend_from_slice(&answer_addr.octets())
        })
    });
    let t_resp = t0 + SimDuration::from_nanos(rtt.as_nanos() / 2) + SimDuration::from_micros(200);
    let rpkt = env.builder.udp_v4(resolver.addr, client.addr, 53, sport, response, 64, truth);
    env.schedule.push(t_resp, resolver.node, rpkt);
    t_resp + SimDuration::from_nanos(rtt.as_nanos() / 2)
}

/// The campus resolver's upstream recursion: on a cache miss it queries an
/// external authoritative server, which answers — sometimes fatly (DNSSEC
/// material, TXT records). These benign port-53 exchanges cross the border
/// tap and are exactly the traffic an amplification detector must *not*
/// drop, so they matter enormously for the confidence-gate experiments.
#[allow(clippy::too_many_arguments)]
pub fn dns_upstream_lookup(
    env: &mut SessionEnv<'_>,
    t0: SimTime,
    resolver: Endpoint,
    upstream: Endpoint,
    domain: &str,
    answer_addr: Ipv4Addr,
    external_rtt: SimDuration,
    fat: bool,
) -> SimTime {
    let flow_id = env.alloc_flow();
    let truth = GroundTruth { flow_id, app_class: AppClass::Dns.id(), attack: None };
    let id: u16 = env.rng.gen();
    let sport: u16 = env.rng.gen_range(32768..61000);
    let qtype = if fat { DnsType::Txt } else { DnsType::A };
    let query = dns_payload(env.dns, id, DnsFlags::query(), |w| w.question(domain, qtype));
    let qpkt = env.builder.udp_v4(resolver.addr, upstream.addr, sport, 53, query, 64, truth);
    env.schedule.push(t0, resolver.node, qpkt);

    let response = dns_payload(env.dns, id, DnsFlags::response(DnsRcode::NoError), |w| {
        w.question(domain, qtype)?;
        if fat {
            // DNSSEC-signed zones and verbose TXT records: legitimately
            // large, spanning the same size range as reflected
            // amplification answers.
            let n = env.rng.gen_range(8..26);
            for _ in 0..n {
                let len = env.rng.gen_range(80..210);
                w.record_with(DnsSection::Answer, domain, DnsType::Txt, 3600, |rdata| {
                    rdata.resize(rdata.len() + len, b'k')
                })?;
            }
        } else {
            for k in 0..env.rng.gen_range(1..4) {
                let addr = Ipv4Addr::from(u32::from(answer_addr) + k);
                w.record_with(DnsSection::Answer, domain, DnsType::A, 300, |rdata| {
                    rdata.extend_from_slice(&addr.octets())
                })?;
            }
        }
        Ok(())
    });
    let t_resp = t0 + SimDuration::from_nanos(external_rtt.as_nanos() / 2)
        + SimDuration::from_micros(500);
    // Authoritative servers run many OSes and sit behind many path
    // lengths; arriving TTLs are diverse, just like the attack's.
    let ttl = [64u8, 128, 255][env.rng.gen_range(0..3)] - env.rng.gen_range(6..20);
    let rpkt = env.builder.udp_v4(upstream.addr, resolver.addr, 53, sport, response, ttl, truth);
    env.schedule.push(t_resp, upstream.node, rpkt);
    t_resp + SimDuration::from_nanos(external_rtt.as_nanos() / 2)
}

/// A web-browsing session: DNS lookup, then 1–6 HTTPS object fetches.
#[allow(clippy::too_many_arguments)]
pub fn web_session(
    env: &mut SessionEnv<'_>,
    t0: SimTime,
    client: Endpoint,
    resolver: Endpoint,
    server: Endpoint,
    domain: &str,
    external_rtt: SimDuration,
    object_median: f64,
) -> SimTime {
    let t = dns_lookup(
        env,
        t0,
        client,
        resolver,
        domain,
        DnsType::A,
        server.addr,
        SimDuration::from_micros(800),
    );
    let objects = env.rng.gen_range(1..=6);
    let mut t_end = t;
    for _ in 0..objects {
        let size = crate::distributions::LogNormal::from_median(object_median, 1.2)
            .sample(env.rng)
            .min(4_000_000.0) as usize;
        let sport = env.rng.gen_range(32768..61000);
        let think = SimDuration::from_millis(env.rng.gen_range(1..30));
        let request_bytes = env.rng.gen_range(200..900);
        t_end = tcp_exchange(
            env,
            t_end + think,
            client,
            server,
            AppClass::Web,
            None,
            TcpExchange {
                sport,
                dport: 443,
                request_bytes,
                response_bytes: size.max(500),
                pace_bps: 100_000_000,
                rtt: external_rtt,
            },
        );
    }
    t_end
}

/// A paced video stream from an external CDN.
pub fn video_session(
    env: &mut SessionEnv<'_>,
    t0: SimTime,
    client: Endpoint,
    cdn: Endpoint,
    external_rtt: SimDuration,
) -> SimTime {
    let size = crate::distributions::Pareto::new(1_500_000.0, 1.3)
        .sample(env.rng)
        .min(30_000_000.0) as usize;
    let sport = env.rng.gen_range(32768..61000);
    tcp_exchange(
        env,
        t0,
        client,
        cdn,
        AppClass::Video,
        None,
        TcpExchange {
            sport,
            dport: 443,
            request_bytes: 600,
            response_bytes: size,
            // Paced near a stream bitrate rather than line rate.
            pace_bps: 20_000_000,
            rtt: external_rtt,
        },
    )
}

/// An interactive SSH session: a burst of small keystroke exchanges.
pub fn ssh_session(
    env: &mut SessionEnv<'_>,
    t0: SimTime,
    client: Endpoint,
    server: Endpoint,
    rtt: SimDuration,
) -> SimTime {
    let sport = env.rng.gen_range(32768..61000);
    // Login + key exchange.
    let mut t = tcp_exchange(
        env,
        t0,
        client,
        server,
        AppClass::Ssh,
        None,
        TcpExchange {
            sport,
            dport: 22,
            request_bytes: 2200,
            response_bytes: 3000,
            pace_bps: 50_000_000,
            rtt,
        },
    );
    // Keystroke/echo exchanges, exponentially spaced.
    let exchanges = env.rng.gen_range(5..40);
    let gap = crate::distributions::Exponential::new(2.0);
    for _ in 0..exchanges {
        t += SimDuration::from_secs_f64(gap.sample(env.rng).min(10.0));
        let request_bytes = env.rng.gen_range(48..120);
        let response_bytes = env.rng.gen_range(48..400);
        t = tcp_exchange(
            env,
            t,
            client,
            server,
            AppClass::Ssh,
            None,
            TcpExchange {
                sport,
                dport: 22,
                request_bytes,
                response_bytes,
                pace_bps: 50_000_000,
                rtt,
            },
        );
    }
    t
}

/// An SMTP delivery to or from the campus mail server.
pub fn mail_session(
    env: &mut SessionEnv<'_>,
    t0: SimTime,
    client: Endpoint,
    mail_server: Endpoint,
    rtt: SimDuration,
) -> SimTime {
    let size = crate::distributions::LogNormal::from_median(40_000.0, 1.4)
        .sample(env.rng)
        .min(10_000_000.0) as usize;
    let sport = env.rng.gen_range(32768..61000);
    tcp_exchange(
        env,
        t0,
        client,
        mail_server,
        AppClass::Mail,
        None,
        TcpExchange {
            sport,
            dport: 25,
            request_bytes: size,
            response_bytes: 400,
            pace_bps: 80_000_000,
            rtt,
        },
    )
}

/// A bulk off-site backup upload.
pub fn backup_session(
    env: &mut SessionEnv<'_>,
    t0: SimTime,
    client: Endpoint,
    storage: Endpoint,
    external_rtt: SimDuration,
) -> SimTime {
    let size = crate::distributions::Pareto::new(4_000_000.0, 1.1)
        .sample(env.rng)
        .min(60_000_000.0) as usize;
    let sport = env.rng.gen_range(32768..61000);
    tcp_exchange(
        env,
        t0,
        client,
        storage,
        AppClass::Backup,
        None,
        TcpExchange {
            sport,
            dport: 443,
            request_bytes: size,
            response_bytes: 2_000,
            pace_bps: 200_000_000,
            rtt: external_rtt,
        },
    )
}

/// An ICMP monitoring ping train: the NOC pinging an external service.
pub fn ping_session(
    env: &mut SessionEnv<'_>,
    t0: SimTime,
    client: Endpoint,
    target: Endpoint,
    rtt: SimDuration,
    count: u16,
) -> SimTime {
    use campuslab_wire::IcmpRepr;
    let flow_id = env.alloc_flow();
    let truth = GroundTruth { flow_id, app_class: AppClass::Icmp.id(), attack: None };
    let ident: u16 = env.rng.gen();
    let mut t = t0;
    let mut last = t0;
    for seq in 0..count {
        let req = env.builder.icmp_v4(
            client.addr,
            target.addr,
            IcmpRepr::echo_request(ident, seq, &[0x61; 56]),
            truth,
        );
        env.schedule.push(t, client.node, req);
        let t_reply = t + SimDuration::from_nanos(rtt.as_nanos() / 2);
        let rep = env.builder.icmp_v4(
            target.addr,
            client.addr,
            IcmpRepr::echo_reply(ident, seq, &[0x61; 56]),
            truth,
        );
        env.schedule.push(t_reply, target.node, rep);
        last = t_reply + SimDuration::from_nanos(rtt.as_nanos() / 2);
        t += SimDuration::from_secs(1); // classic 1 Hz ping
    }
    last
}

/// An NTP poll.
pub fn ntp_session(
    env: &mut SessionEnv<'_>,
    t0: SimTime,
    client: Endpoint,
    server: Endpoint,
    rtt: SimDuration,
) -> SimTime {
    let flow_id = env.alloc_flow();
    let truth = GroundTruth { flow_id, app_class: AppClass::Ntp.id(), attack: None };
    let sport = env.rng.gen_range(32768..61000);
    let q = env.builder.udp_v4(
        client.addr,
        server.addr,
        sport,
        123,
        Payload::Synthetic(48),
        64,
        truth,
    );
    env.schedule.push(t0, client.node, q);
    let t_resp = t0 + SimDuration::from_nanos(rtt.as_nanos() / 2);
    let r = env.builder.udp_v4(
        server.addr,
        client.addr,
        123,
        sport,
        Payload::Synthetic(48),
        64,
        truth,
    );
    env.schedule.push(t_resp, server.node, r);
    t_resp + SimDuration::from_nanos(rtt.as_nanos() / 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use campuslab_netsim::TransportHeader;
    use rand::SeedableRng;

    fn env_parts() -> (PacketBuilder, StdRng, Schedule, u64) {
        (PacketBuilder::new(), StdRng::seed_from_u64(1), Schedule::new(), 0)
    }

    fn ep(node: usize, addr: [u8; 4]) -> Endpoint {
        Endpoint { node: NodeId(node), addr: Ipv4Addr::from(addr) }
    }

    #[test]
    fn tcp_exchange_has_handshake_and_teardown() {
        let (mut b, mut r, mut s, mut f) = env_parts();
        let mut env = SessionEnv {
            builder: &mut b,
            rng: &mut r,
            schedule: &mut s,
            next_flow: &mut f,
            dns: &mut Vec::new(),
        };
        let client = ep(0, [10, 1, 1, 10]);
        let server = ep(1, [203, 0, 113, 1]);
        tcp_exchange(
            &mut env,
            SimTime::ZERO,
            client,
            server,
            AppClass::Web,
            None,
            TcpExchange {
                sport: 40000,
                dport: 443,
                request_bytes: 500,
                response_bytes: 5000,
                pace_bps: 10_000_000,
                rtt: SimDuration::from_millis(20),
            },
        );
        s.sort();
        let pkts: Vec<_> = s.iter().collect();
        // SYN first, SYN-ACK second.
        match &pkts[0].packet.transport {
            TransportHeader::Tcp(t) => {
                assert!(t.control.syn && !t.control.ack);
                assert_eq!(t.mss, Some(MSS as u16));
            }
            _ => panic!("not tcp"),
        }
        match &pkts[1].packet.transport {
            TransportHeader::Tcp(t) => assert!(t.control.syn && t.control.ack),
            _ => panic!("not tcp"),
        }
        // Last packet is the final ACK of the teardown.
        match &pkts.last().unwrap().packet.transport {
            TransportHeader::Tcp(t) => assert!(t.control.ack && !t.control.fin),
            _ => panic!("not tcp"),
        }
        // FINs exist in both directions.
        let fins = pkts
            .iter()
            .filter(|i| matches!(&i.packet.transport, TransportHeader::Tcp(t) if t.control.fin))
            .count();
        assert_eq!(fins, 2);
        // Response bytes arrive in MSS-sized chunks: 5000 -> 4 data packets.
        let server_data: usize = pkts
            .iter()
            .filter(|i| i.packet.network.src() == std::net::IpAddr::V4(server.addr))
            .map(|i| i.packet.payload.len())
            .sum();
        assert_eq!(server_data, 5000);
    }

    #[test]
    fn dns_lookup_produces_parseable_messages() {
        let (mut b, mut r, mut s, mut f) = env_parts();
        let mut env = SessionEnv {
            builder: &mut b,
            rng: &mut r,
            schedule: &mut s,
            next_flow: &mut f,
            dns: &mut Vec::new(),
        };
        dns_lookup(
            &mut env,
            SimTime::ZERO,
            ep(0, [10, 1, 1, 10]),
            ep(1, [10, 1, 255, 53]),
            "www.example.edu",
            DnsType::A,
            Ipv4Addr::new(203, 0, 113, 7),
            SimDuration::from_millis(1),
        );
        assert_eq!(s.len(), 2);
        s.sort();
        let q = s.iter().next().unwrap();
        let msg = campuslab_wire::DnsMessage::parse(q.packet.payload.bytes().unwrap()).unwrap();
        assert!(!msg.flags.response);
        assert_eq!(msg.questions[0].name, "www.example.edu");
        let a = s.iter().nth(1).unwrap();
        let msg = campuslab_wire::DnsMessage::parse(a.packet.payload.bytes().unwrap()).unwrap();
        assert!(msg.flags.response);
        assert_eq!(msg.answers.len(), 1);
        // Query and response share the same flow id.
        assert_eq!(q.packet.truth.flow_id, a.packet.truth.flow_id);
        assert_eq!(q.packet.truth.app_class, AppClass::Dns.id());
    }

    #[test]
    fn web_session_starts_with_dns() {
        let (mut b, mut r, mut s, mut f) = env_parts();
        let mut env = SessionEnv {
            builder: &mut b,
            rng: &mut r,
            schedule: &mut s,
            next_flow: &mut f,
            dns: &mut Vec::new(),
        };
        web_session(
            &mut env,
            SimTime::ZERO,
            ep(0, [10, 1, 1, 10]),
            ep(1, [10, 1, 255, 53]),
            ep(2, [203, 0, 113, 1]),
            "cdn.example.org",
            SimDuration::from_millis(15),
            16_000.0,
        );
        s.sort();
        let first = s.iter().next().unwrap();
        assert_eq!(first.packet.transport.dst_port(), Some(53));
        // Web flows exist and are labeled web.
        assert!(s
            .iter()
            .any(|i| i.packet.truth.app_class == AppClass::Web.id()));
        assert!(s.len() > 5);
    }

    #[test]
    fn sessions_allocate_distinct_flow_ids() {
        let (mut b, mut r, mut s, mut f) = env_parts();
        let mut env = SessionEnv {
            builder: &mut b,
            rng: &mut r,
            schedule: &mut s,
            next_flow: &mut f,
            dns: &mut Vec::new(),
        };
        let c = ep(0, [10, 1, 1, 10]);
        let srv = ep(1, [10, 1, 255, 25]);
        mail_session(&mut env, SimTime::ZERO, c, srv, SimDuration::from_millis(1));
        ntp_session(&mut env, SimTime::ZERO, c, srv, SimDuration::from_millis(1));
        assert_eq!(f, 2);
        let flows: std::collections::BTreeSet<u64> =
            s.iter().map(|i| i.packet.truth.flow_id).collect();
        assert_eq!(flows.len(), 2);
    }

    #[test]
    fn ping_session_alternates_request_reply() {
        use campuslab_netsim::TransportHeader;
        let (mut b, mut r, mut s, mut f) = env_parts();
        let mut env = SessionEnv {
            builder: &mut b,
            rng: &mut r,
            schedule: &mut s,
            next_flow: &mut f,
            dns: &mut Vec::new(),
        };
        ping_session(
            &mut env,
            SimTime::ZERO,
            ep(0, [10, 1, 1, 10]),
            ep(1, [203, 0, 113, 1]),
            SimDuration::from_millis(20),
            4,
        );
        assert_eq!(s.len(), 8);
        s.sort();
        let mut requests = 0;
        let mut replies = 0;
        for inj in s.iter() {
            match &inj.packet.transport {
                TransportHeader::Icmp(icmp) => match icmp.icmp_type {
                    campuslab_wire::IcmpType::EchoRequest => requests += 1,
                    campuslab_wire::IcmpType::EchoReply => replies += 1,
                },
                other => panic!("not icmp: {other:?}"),
            }
            assert_eq!(inj.packet.truth.app_class, AppClass::Icmp.id());
        }
        assert_eq!((requests, replies), (4, 4));
    }

    #[test]
    fn video_is_large_and_paced() {
        let (mut b, mut r, mut s, mut f) = env_parts();
        let mut env = SessionEnv {
            builder: &mut b,
            rng: &mut r,
            schedule: &mut s,
            next_flow: &mut f,
            dns: &mut Vec::new(),
        };
        let end = video_session(
            &mut env,
            SimTime::ZERO,
            ep(0, [10, 1, 1, 10]),
            ep(1, [203, 0, 113, 2]),
            SimDuration::from_millis(20),
        );
        // At 20 Mbps pacing a >=1.5 MB object takes >= 0.6 s.
        assert!(end.as_secs_f64() > 0.5, "end {end}");
        assert!(s.total_bytes() > 1_400_000);
    }

    #[test]
    fn ssh_session_is_chatty_and_small() {
        let (mut b, mut r, mut s, mut f) = env_parts();
        let mut env = SessionEnv {
            builder: &mut b,
            rng: &mut r,
            schedule: &mut s,
            next_flow: &mut f,
            dns: &mut Vec::new(),
        };
        ssh_session(
            &mut env,
            SimTime::ZERO,
            ep(0, [10, 1, 1, 10]),
            ep(1, [10, 1, 2, 10]),
            SimDuration::from_millis(2),
        );
        let n = s.len();
        let bytes = s.total_bytes();
        assert!(n > 20, "ssh too quiet: {n}");
        // Mean packet size stays small for interactive traffic.
        assert!((bytes as f64 / n as f64) < 500.0);
        assert!(s
            .iter()
            .all(|i| i.packet.transport.dst_port() == Some(22)
                || i.packet.transport.src_port() == Some(22)));
    }
}
