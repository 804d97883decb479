//! Attack-campaign generators, each stamping [`AttackKind`] ground truth.
//!
//! The flagship is DNS amplification — the paper's §2 example of a network
//! event an automated pipeline should detect and mitigate ("drop attack
//! traffic on ingress if confidence in detection is at least 90%").

use crate::apps::{dns_payload, tcp_exchange, Endpoint, SessionEnv, TcpExchange};
use crate::labels::{AppClass, AttackKind};
use campuslab_netsim::{GroundTruth, Payload, SimDuration, SimTime};
use campuslab_wire::{DnsFlags, DnsRcode, DnsSection, DnsType, DnsWriter, TcpControl, TcpRepr};
use rand::Rng;
use std::net::Ipv4Addr;

/// Parameters of a DNS reflection/amplification campaign.
#[derive(Debug, Clone)]
pub struct DnsAmplification {
    /// The bot sending spoofed queries (external).
    pub attacker: Endpoint,
    /// The campus host whose address is spoofed — and flooded.
    pub victim: Endpoint,
    /// Open resolvers abused as reflectors (external).
    pub reflectors: Vec<Endpoint>,
    /// Spoofed queries per second.
    pub qps: f64,
    pub start: SimTime,
    pub duration: SimDuration,
}

/// Generate a DNS amplification campaign.
///
/// Spoofed `ANY` queries (src forged to the victim) go from the attacker to
/// each reflector; every reflector answers the *victim* with a multi-record
/// response an order of magnitude larger than the query — the inbound flood
/// crosses the campus border where the monitoring tap and any deployed
/// mitigation live.
pub fn dns_amplification(env: &mut SessionEnv<'_>, a: &DnsAmplification) {
    assert!(!a.reflectors.is_empty(), "amplification needs reflectors");
    let n = (a.qps * a.duration.as_secs_f64()).round() as usize;
    let gap = SimDuration::from_secs_f64(1.0 / a.qps.max(1e-9));
    // Reflected answers are large multi-record responses (~1.5-4 KB).
    let zone = "amp.example.org";
    for i in 0..n {
        let flow_id = env.alloc_flow();
        let truth = GroundTruth {
            flow_id,
            app_class: AppClass::Dns.id(),
            attack: Some(AttackKind::DnsAmplification.id()),
        };
        let t = a.start + SimDuration::from_nanos(gap.as_nanos() * i as u64);
        let reflector = a.reflectors[i % a.reflectors.len()];
        let id: u16 = env.rng.gen();
        // Evasive attackers spoof typical resolver client ports.
        let sport: u16 = env.rng.gen_range(32768..61000);

        let query = dns_payload(env.dns, id, DnsFlags::query(), |w| w.question(zone, DnsType::Any));
        // Source address forged to the victim; the packet physically leaves
        // the attacker's uplink.
        let qpkt = env.builder.udp_v4(a.victim.addr, reflector.addr, sport, 53, query, 64, truth);
        env.schedule.push(t, a.attacker.node, qpkt);

        // Response sizes vary per query (records and lengths differ), so
        // the flood overlaps the size range of legitimate fat answers
        // (DNSSEC, big TXT) rather than presenting one magic constant.
        let n_records = env.rng.gen_range(14..24);
        let response = dns_payload(env.dns, id, DnsFlags::response(DnsRcode::NoError), |w| {
            w.question(zone, DnsType::Any)?;
            for k in 0..n_records {
                let len = env.rng.gen_range(90..180);
                w.record_with(DnsSection::Answer, zone, DnsType::Txt, 3600, |rdata| {
                    rdata.resize(rdata.len() + len, b'A' + (k % 26) as u8)
                })?;
            }
            Ok(())
        });
        // Arriving TTLs reflect diverse reflector OSes (64/128/255 initial)
        // minus 6-20 Internet hops, just like real border traffic.
        let ttl = initial_ttl(env) - env.rng.gen_range(6..20);
        let rpkt = env.builder.udp_v4(reflector.addr, a.victim.addr, 53, sport, response, ttl, truth);
        env.schedule
            .push(t + SimDuration::from_millis(4), reflector.node, rpkt);
    }
}

/// A realistic initial TTL: common OS defaults.
fn initial_ttl(env: &mut SessionEnv<'_>) -> u8 {
    [64u8, 128, 255][env.rng.gen_range(0..3)]
}

/// One phase of a signature-rotating reflection campaign.
#[derive(Debug, Clone)]
pub struct ReflectionPhase {
    /// Service port the reflectors answer *from* (53 DNS, 123 NTP,
    /// 1900 SSDP, …) — the part of the flood's signature a static
    /// filter keys on.
    pub service_port: u16,
    /// Reflector pool for this phase; hopping pools rotates the flood's
    /// source prefixes along with its port signature.
    pub reflectors: Vec<Endpoint>,
    pub start: SimTime,
    pub duration: SimDuration,
}

/// Parameters of a rotating reflection/amplification campaign: the
/// attacker hops reflection vector (service port) and reflector pool
/// mid-run, so a mitigation trained on one phase's signature goes stale
/// the moment the next phase begins — the drift scenario DriftPilot's
/// retrain loop exists to close.
#[derive(Debug, Clone)]
pub struct RotatingReflection {
    /// The bot sending spoofed trigger packets (external).
    pub attacker: Endpoint,
    /// The campus host whose address is spoofed — and flooded.
    pub victim: Endpoint,
    /// The rotation schedule. Phases may leave gaps (quiet spells) and
    /// are generated independently.
    pub phases: Vec<ReflectionPhase>,
    /// Spoofed triggers per second within each phase.
    pub qps: f64,
}

/// Generate the rotating campaign. Every phase works like classic
/// reflection — a small spoofed trigger to each reflector, a much larger
/// answer to the victim from the phase's service port — but the port and
/// the reflector prefixes change per phase.
pub fn rotating_reflection(env: &mut SessionEnv<'_>, a: &RotatingReflection) {
    for phase in &a.phases {
        assert!(!phase.reflectors.is_empty(), "reflection phase needs reflectors");
        let n = (a.qps * phase.duration.as_secs_f64()).round() as usize;
        let gap = SimDuration::from_secs_f64(1.0 / a.qps.max(1e-9));
        let app_class = match phase.service_port {
            53 => AppClass::Dns.id(),
            123 => AppClass::Ntp.id(),
            _ => 0,
        };
        for i in 0..n {
            let flow_id = env.alloc_flow();
            let truth = GroundTruth {
                flow_id,
                app_class,
                attack: Some(AttackKind::DnsAmplification.id()),
            };
            let t = phase.start + SimDuration::from_nanos(gap.as_nanos() * i as u64);
            let reflector = phase.reflectors[i % phase.reflectors.len()];
            let sport: u16 = env.rng.gen_range(32768..61000);
            // Small spoofed trigger (monlist/ANY/SEARCH equivalents).
            let trigger = env.builder.udp_v4(
                a.victim.addr,
                reflector.addr,
                sport,
                phase.service_port,
                Payload::Synthetic(env.rng.gen_range(40..80)),
                64,
                truth,
            );
            env.schedule.push(t, a.attacker.node, trigger);
            // Amplified answer back at the victim, sourced from the
            // phase's service port with reflector-OS TTL diversity.
            let ttl = initial_ttl(env) - env.rng.gen_range(6..20);
            let answer = env.builder.udp_v4(
                reflector.addr,
                a.victim.addr,
                phase.service_port,
                sport,
                Payload::Synthetic(env.rng.gen_range(900..1400)),
                ttl,
                truth,
            );
            env.schedule
                .push(t + SimDuration::from_millis(4), reflector.node, answer);
        }
    }
}

/// Parameters of a random-subdomain NXDOMAIN "water torture" flood
/// against the campus recursive resolver.
#[derive(Debug, Clone)]
pub struct NxdomainFlood {
    /// External bots sending the junk queries.
    pub sources: Vec<Endpoint>,
    /// The campus resolver under torture.
    pub resolver: Endpoint,
    /// Base domain whose random subdomains defeat the cache.
    pub base_domain: String,
    /// Queries per second, per source.
    pub qps_per_source: f64,
    /// Per-mille of queries byte-corrupted in flight, exercising the
    /// resolver's malformed-input paths under load.
    pub corrupt_permille: u16,
    pub start: SimTime,
    pub duration: SimDuration,
}

/// Generate a water-torture flood: every query names a unique random
/// subdomain, so no answer is ever cacheable and each one costs the
/// resolver an upstream round trip (or a starved slot). Only queries are
/// generated — the responses are whatever the attacked resolver actually
/// does, which is the point of the experiment.
pub fn nxdomain_flood(env: &mut SessionEnv<'_>, a: &NxdomainFlood) {
    assert!(!a.sources.is_empty(), "water torture needs sources");
    let per_source = (a.qps_per_source * a.duration.as_secs_f64()).round() as usize;
    let gap = SimDuration::from_secs_f64(1.0 / a.qps_per_source.max(1e-9));
    let mut name = String::new();
    for (s, source) in a.sources.iter().enumerate() {
        // Stagger sources so the aggregate does not arrive in phase.
        let phase = SimDuration::from_nanos(gap.as_nanos() * s as u64 / a.sources.len().max(1) as u64);
        for i in 0..per_source {
            let flow_id = env.alloc_flow();
            let truth = GroundTruth {
                flow_id,
                app_class: AppClass::Dns.id(),
                attack: Some(AttackKind::NxdomainFlood.id()),
            };
            let t = a.start + phase + SimDuration::from_nanos(gap.as_nanos() * i as u64);
            // A unique junk label per query is what defeats the cache.
            let label_len = env.rng.gen_range(7..13);
            name.clear();
            name.extend((0..label_len).map(|_| (b'a' + env.rng.gen_range(0..26)) as char));
            name.push('.');
            name.push_str(&a.base_domain);
            let id: u16 = env.rng.gen();
            let sport: u16 = env.rng.gen_range(1024..65535);
            env.dns.clear();
            DnsWriter::new(env.dns, id, DnsFlags::query())
                .question(&name, DnsType::A)
                .expect("generated labels are valid");
            // A slice of the flood is botched in flight: header survives,
            // body does not — the resolver must absorb it without panicking.
            if env.rng.gen_range(0..1000) < a.corrupt_permille && env.dns.len() > 12 {
                let pos = env.rng.gen_range(12..env.dns.len());
                env.dns[pos] ^= 0xff;
            }
            let ttl = initial_ttl(env) - env.rng.gen_range(6..20);
            let query = Payload::Bytes(env.dns.as_slice().into());
            let pkt = env.builder.udp_v4(source.addr, a.resolver.addr, sport, 53, query, ttl, truth);
            env.schedule.push(t, source.node, pkt);
        }
    }
}

/// Parameters of an ANY/TXT amplification burst that abuses the campus
/// resolver itself as the reflector.
#[derive(Debug, Clone)]
pub struct ResolverAmpBurst {
    /// The bot sending spoofed queries (external).
    pub attacker: Endpoint,
    /// Campus host whose address is spoofed — and would receive the
    /// amplified answers if the resolver cooperated.
    pub victim: Endpoint,
    /// The campus resolver being abused.
    pub resolver: Endpoint,
    /// The fat zone queried (large multi-record TXT answer).
    pub zone: String,
    /// Spoofed queries per second.
    pub qps: f64,
    pub start: SimTime,
    pub duration: SimDuration,
}

/// Generate the burst: spoofed-source ANY/TXT queries at the resolver.
/// No responses are scripted — whether the victim gets flooded depends
/// entirely on the resolver's response rate limiting.
pub fn resolver_amp_burst(env: &mut SessionEnv<'_>, a: &ResolverAmpBurst) {
    let n = (a.qps * a.duration.as_secs_f64()).round() as usize;
    let gap = SimDuration::from_secs_f64(1.0 / a.qps.max(1e-9));
    for i in 0..n {
        let flow_id = env.alloc_flow();
        let truth = GroundTruth {
            flow_id,
            app_class: AppClass::Dns.id(),
            attack: Some(AttackKind::DnsAmplification.id()),
        };
        let t = a.start + SimDuration::from_nanos(gap.as_nanos() * i as u64);
        let id: u16 = env.rng.gen();
        let sport: u16 = env.rng.gen_range(32768..61000);
        let qtype = if env.rng.gen::<f64>() < 0.7 { DnsType::Any } else { DnsType::Txt };
        let query = dns_payload(env.dns, id, DnsFlags::query(), |w| w.question(&a.zone, qtype));
        let pkt = env.builder.udp_v4(a.victim.addr, a.resolver.addr, sport, 53, query, 64, truth);
        env.schedule.push(t, a.attacker.node, pkt);
    }
}

/// Parameters of a SYN flood.
#[derive(Debug, Clone)]
pub struct SynFlood {
    pub attacker: Endpoint,
    /// The campus server under attack.
    pub victim: Endpoint,
    pub dport: u16,
    /// SYNs per second.
    pub pps: f64,
    pub start: SimTime,
    pub duration: SimDuration,
}

/// Generate a SYN flood with randomly spoofed sources.
pub fn syn_flood(env: &mut SessionEnv<'_>, a: &SynFlood) {
    let n = (a.pps * a.duration.as_secs_f64()).round() as usize;
    let gap = SimDuration::from_secs_f64(1.0 / a.pps.max(1e-9));
    for i in 0..n {
        let flow_id = env.alloc_flow();
        let truth = GroundTruth {
            flow_id,
            app_class: 0,
            attack: Some(AttackKind::SynFlood.id()),
        };
        let t = a.start + SimDuration::from_nanos(gap.as_nanos() * i as u64);
        // Random routable-looking spoofed source.
        let spoofed = Ipv4Addr::new(
            env.rng.gen_range(11..200),
            env.rng.gen(),
            env.rng.gen(),
            env.rng.gen_range(1..255),
        );
        let tcp = TcpRepr {
            src_port: env.rng.gen_range(1024..65535),
            dst_port: a.dport,
            seq: env.rng.gen(),
            ack: 0,
            control: TcpControl::SYN,
            mss: Some(1460),
            window_scale: None,
        };
        let pkt = env.builder.tcp_v4(
            spoofed,
            a.victim.addr,
            tcp.src_port,
            tcp.dst_port,
            tcp,
            Payload::Synthetic(0),
            truth,
        );
        env.schedule.push(t, a.attacker.node, pkt);
    }
}

/// Parameters of a TCP port scan.
#[derive(Debug, Clone)]
pub struct PortScan {
    pub attacker: Endpoint,
    /// Campus hosts probed.
    pub targets: Vec<Endpoint>,
    /// Destination ports swept per target.
    pub ports: Vec<u16>,
    /// Probes per second.
    pub pps: f64,
    pub start: SimTime,
}

/// Generate a scan: one SYN per (target, port); most targets answer RST.
pub fn port_scan(env: &mut SessionEnv<'_>, a: &PortScan) {
    let gap = SimDuration::from_secs_f64(1.0 / a.pps.max(1e-9));
    let mut i = 0u64;
    for target in &a.targets {
        for &port in &a.ports {
            let flow_id = env.alloc_flow();
            let truth = GroundTruth {
                flow_id,
                app_class: 0,
                attack: Some(AttackKind::PortScan.id()),
            };
            let t = a.start + SimDuration::from_nanos(gap.as_nanos() * i);
            i += 1;
            let sport: u16 = env.rng.gen_range(1024..65535);
            let syn = TcpRepr {
                src_port: sport,
                dst_port: port,
                seq: env.rng.gen(),
                ack: 0,
                control: TcpControl::SYN,
                mss: None,
                window_scale: None,
            };
            let probe = env.builder.tcp_v4(
                a.attacker.addr,
                target.addr,
                sport,
                port,
                syn,
                Payload::Synthetic(0),
                truth,
            );
            env.schedule.push(t, a.attacker.node, probe);
            // Closed ports (the common case) answer with RST.
            if env.rng.gen::<f64>() < 0.9 {
                let rst = TcpRepr {
                    src_port: port,
                    dst_port: sport,
                    seq: 0,
                    ack: syn.seq.wrapping_add(1),
                    control: TcpControl::RST,
                    mss: None,
                    window_scale: None,
                };
                let reply = env.builder.tcp_v4(
                    target.addr,
                    a.attacker.addr,
                    port,
                    sport,
                    rst,
                    Payload::Synthetic(0),
                    truth,
                );
                env.schedule
                    .push(t + SimDuration::from_millis(12), target.node, reply);
            }
        }
    }
}

/// Parameters of an SSH brute-force campaign.
#[derive(Debug, Clone)]
pub struct SshBruteForce {
    pub attacker: Endpoint,
    pub victim: Endpoint,
    /// Login attempts.
    pub attempts: usize,
    /// Attempts per second.
    pub rate: f64,
    pub start: SimTime,
}

/// Generate repeated short failed-login SSH exchanges.
pub fn ssh_brute_force(env: &mut SessionEnv<'_>, a: &SshBruteForce) {
    let gap = SimDuration::from_secs_f64(1.0 / a.rate.max(1e-9));
    for i in 0..a.attempts {
        let t = a.start + SimDuration::from_nanos(gap.as_nanos() * i as u64);
        let sport = env.rng.gen_range(1024..65535);
        tcp_exchange(
            env,
            t,
            a.attacker,
            a.victim,
            AppClass::Ssh,
            Some(AttackKind::SshBruteForce.id()),
            TcpExchange {
                sport,
                dport: 22,
                // Banner + failed auth: small, stereotyped sizes.
                request_bytes: 1200,
                response_bytes: 800,
                pace_bps: 50_000_000,
                rtt: SimDuration::from_millis(30),
            },
        );
    }
}

/// Parameters of a slow data-exfiltration upload.
#[derive(Debug, Clone)]
pub struct Exfiltration {
    /// The compromised campus host.
    pub compromised: Endpoint,
    /// The external collection point.
    pub sink: Endpoint,
    pub bytes: usize,
    /// Upload pacing, bits per second (slow to stay under the radar).
    pub pace_bps: u64,
    pub start: SimTime,
}

/// Generate the exfiltration upload as one long TLS-looking transfer.
pub fn exfiltration(env: &mut SessionEnv<'_>, a: &Exfiltration) {
    let sport = env.rng.gen_range(1024..65535);
    tcp_exchange(
        env,
        a.start,
        a.compromised,
        a.sink,
        AppClass::Backup, // masquerades as backup traffic
        Some(AttackKind::Exfiltration.id()),
        TcpExchange {
            sport,
            dport: 443,
            request_bytes: a.bytes,
            response_bytes: 1200,
            pace_bps: a.pace_bps,
            rtt: SimDuration::from_millis(25),
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;
    use campuslab_netsim::{NodeId, PacketBuilder};
    use campuslab_wire::{DnsMessage, DnsView};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ep(node: usize, addr: [u8; 4]) -> Endpoint {
        Endpoint { node: NodeId(node), addr: Ipv4Addr::from(addr) }
    }

    struct Ctx {
        builder: PacketBuilder,
        rng: StdRng,
        schedule: Schedule,
        next_flow: u64,
        dns: Vec<u8>,
    }

    impl Ctx {
        fn new() -> Self {
            Ctx {
                builder: PacketBuilder::new(),
                rng: StdRng::seed_from_u64(5),
                schedule: Schedule::new(),
                next_flow: 0,
                dns: Vec::new(),
            }
        }
        fn env(&mut self) -> SessionEnv<'_> {
            SessionEnv {
                builder: &mut self.builder,
                rng: &mut self.rng,
                schedule: &mut self.schedule,
                next_flow: &mut self.next_flow,
                dns: &mut self.dns,
            }
        }
    }

    #[test]
    fn amplification_amplifies() {
        let mut ctx = Ctx::new();
        let campaign = DnsAmplification {
            attacker: ep(0, [203, 0, 113, 66]),
            victim: ep(1, [10, 1, 1, 10]),
            reflectors: vec![ep(2, [203, 0, 113, 1]), ep(3, [203, 0, 113, 2])],
            qps: 100.0,
            start: SimTime::ZERO,
            duration: SimDuration::from_secs(1),
        };
        dns_amplification(&mut ctx.env(), &campaign);
        let s = &ctx.schedule;
        assert_eq!(s.len(), 200); // 100 queries + 100 responses
        let victim_ip = std::net::IpAddr::V4(Ipv4Addr::new(10, 1, 1, 10));
        let to_victim: u64 = s
            .iter()
            .filter(|i| i.packet.network.dst() == victim_ip)
            .map(|i| i.packet.wire_len() as u64)
            .sum();
        let from_victim_addr: u64 = s
            .iter()
            .filter(|i| i.packet.network.src() == victim_ip)
            .map(|i| i.packet.wire_len() as u64)
            .sum();
        // The response flood dwarfs the spoofed query stream: ~10x or more.
        assert!(
            to_victim > 8 * from_victim_addr,
            "amplification factor too low: {to_victim} vs {from_victim_addr}"
        );
        assert!(s
            .iter()
            .all(|i| i.packet.truth.attack == Some(AttackKind::DnsAmplification.id())));
    }

    #[test]
    fn amplification_responses_parse_as_dns() {
        let mut ctx = Ctx::new();
        let campaign = DnsAmplification {
            attacker: ep(0, [203, 0, 113, 66]),
            victim: ep(1, [10, 1, 1, 10]),
            reflectors: vec![ep(2, [203, 0, 113, 1])],
            qps: 10.0,
            start: SimTime::ZERO,
            duration: SimDuration::from_secs(1),
        };
        dns_amplification(&mut ctx.env(), &campaign);
        for inj in ctx.schedule.iter() {
            let msg = DnsView::parse(inj.packet.payload.bytes().unwrap()).unwrap();
            let answers = msg.count(DnsSection::Answer);
            if msg.flags().response {
                assert!((14..24).contains(&answers), "{answers}");
            } else {
                assert!(msg.is_amplification_prone());
            }
        }
    }

    #[test]
    fn rotating_reflection_hops_port_and_prefix_signatures() {
        let mut ctx = Ctx::new();
        let campaign = RotatingReflection {
            attacker: ep(0, [203, 0, 113, 66]),
            victim: ep(1, [10, 1, 1, 10]),
            phases: vec![
                ReflectionPhase {
                    service_port: 53,
                    reflectors: vec![ep(2, [203, 0, 113, 1]), ep(3, [203, 0, 113, 2])],
                    start: SimTime::ZERO,
                    duration: SimDuration::from_secs(1),
                },
                ReflectionPhase {
                    service_port: 123,
                    reflectors: vec![ep(4, [198, 51, 100, 1]), ep(5, [198, 51, 100, 2])],
                    start: SimTime::from_secs(2),
                    duration: SimDuration::from_secs(1),
                },
            ],
            qps: 100.0,
        };
        rotating_reflection(&mut ctx.env(), &campaign);
        let s = &ctx.schedule;
        assert_eq!(s.len(), 400); // 2 phases x (100 triggers + 100 answers)
        let victim_ip = std::net::IpAddr::V4(Ipv4Addr::new(10, 1, 1, 10));
        // Phase 1 answers come from port 53, phase 2 answers from 123 —
        // the mid-run signature rotation a static filter cannot follow.
        let answers: Vec<_> =
            s.iter().filter(|i| i.packet.network.dst() == victim_ip).collect();
        assert_eq!(answers.len(), 200);
        for inj in &answers {
            let sport = inj.packet.transport.src_port().unwrap();
            let expected = if inj.at < SimTime::from_secs(2) { 53 } else { 123 };
            assert_eq!(sport, expected, "wrong service port at {:?}", inj.at);
            // Pools rotate prefixes with the port.
            let first_octet = match inj.packet.network.src() {
                std::net::IpAddr::V4(v4) => v4.octets()[0],
                _ => unreachable!(),
            };
            assert_eq!(first_octet, if expected == 53 { 203 } else { 198 });
        }
        // Amplification holds: answers dwarf the spoofed trigger stream.
        let to_victim: u64 = answers.iter().map(|i| i.packet.wire_len() as u64).sum();
        let triggers: u64 = s
            .iter()
            .filter(|i| i.packet.network.src() == victim_ip)
            .map(|i| i.packet.wire_len() as u64)
            .sum();
        assert!(to_victim > 8 * triggers, "amplification too low: {to_victim} vs {triggers}");
        assert!(s
            .iter()
            .all(|i| i.packet.truth.attack == Some(AttackKind::DnsAmplification.id())));
    }

    #[test]
    fn syn_flood_spoofs_sources() {
        let mut ctx = Ctx::new();
        let campaign = SynFlood {
            attacker: ep(0, [203, 0, 113, 66]),
            victim: ep(1, [10, 1, 255, 80]),
            dport: 443,
            pps: 500.0,
            start: SimTime::ZERO,
            duration: SimDuration::from_secs(2),
        };
        syn_flood(&mut ctx.env(), &campaign);
        let s = &ctx.schedule;
        assert_eq!(s.len(), 1000);
        let sources: std::collections::BTreeSet<std::net::IpAddr> =
            s.iter().map(|i| i.packet.network.src()).collect();
        assert!(sources.len() > 900, "sources not spoofed: {}", sources.len());
        for inj in s.iter() {
            match &inj.packet.transport {
                campuslab_netsim::TransportHeader::Tcp(t) => {
                    assert!(t.control.syn && !t.control.ack)
                }
                _ => panic!("syn flood emitted non-tcp"),
            }
        }
    }

    #[test]
    fn port_scan_sweeps_targets_and_ports() {
        let mut ctx = Ctx::new();
        let campaign = PortScan {
            attacker: ep(0, [203, 0, 113, 66]),
            targets: vec![ep(1, [10, 1, 1, 10]), ep(2, [10, 1, 1, 11])],
            ports: (1..=50).collect(),
            pps: 1000.0,
            start: SimTime::ZERO,
        };
        port_scan(&mut ctx.env(), &campaign);
        let probes = ctx
            .schedule
            .iter()
            .filter(|i| i.packet.network.src() == "203.0.113.66".parse::<std::net::IpAddr>().unwrap())
            .count();
        assert_eq!(probes, 100);
        // Most probes draw an RST back.
        let rsts = ctx
            .schedule
            .iter()
            .filter(|i| matches!(&i.packet.transport, campuslab_netsim::TransportHeader::Tcp(t) if t.control.rst))
            .count();
        assert!(rsts > 70 && rsts <= 100, "rsts {rsts}");
    }

    #[test]
    fn brute_force_hits_port_22_repeatedly() {
        let mut ctx = Ctx::new();
        let campaign = SshBruteForce {
            attacker: ep(0, [203, 0, 113, 66]),
            victim: ep(1, [10, 1, 1, 10]),
            attempts: 20,
            rate: 2.0,
            start: SimTime::ZERO,
        };
        ssh_brute_force(&mut ctx.env(), &campaign);
        let syns = ctx
            .schedule
            .iter()
            .filter(|i| {
                i.packet.transport.dst_port() == Some(22)
                    && matches!(&i.packet.transport, campuslab_netsim::TransportHeader::Tcp(t) if t.control.syn && !t.control.ack)
            })
            .count();
        assert_eq!(syns, 20);
        assert!(ctx
            .schedule
            .iter()
            .all(|i| i.packet.truth.attack == Some(AttackKind::SshBruteForce.id())));
    }

    #[test]
    fn water_torture_names_are_unique_and_mostly_well_formed() {
        let mut ctx = Ctx::new();
        let campaign = NxdomainFlood {
            sources: vec![ep(0, [203, 0, 113, 50]), ep(1, [203, 0, 113, 51])],
            resolver: ep(2, [10, 1, 255, 53]),
            base_domain: "torture.example.net".into(),
            qps_per_source: 50.0,
            corrupt_permille: 63,
            start: SimTime::ZERO,
            duration: SimDuration::from_secs(2),
        };
        nxdomain_flood(&mut ctx.env(), &campaign);
        let s = &ctx.schedule;
        assert_eq!(s.len(), 200); // 2 sources x 50 qps x 2 s, queries only
        let mut names = std::collections::BTreeSet::new();
        let mut corrupted = 0;
        for inj in s.iter() {
            assert_eq!(inj.packet.transport.dst_port(), Some(53));
            assert_eq!(inj.packet.truth.attack, Some(AttackKind::NxdomainFlood.id()));
            match DnsMessage::parse(inj.packet.payload.bytes().unwrap()) {
                Ok(msg) => {
                    assert!(!msg.flags.response, "flood is queries only");
                    assert!(msg.questions[0].name.ends_with(".torture.example.net"));
                    names.insert(msg.questions[0].name.clone());
                }
                Err(_) => corrupted += 1,
            }
        }
        // Unique junk labels: effectively no collisions at this scale.
        assert!(names.len() >= 190, "names {} not unique enough", names.len());
        // The corruption knob produced some malformed queries, not too many.
        assert!((1..40).contains(&corrupted), "corrupted {corrupted}");
    }

    #[test]
    fn amp_burst_spoofs_the_victim_and_asks_fat_questions() {
        let mut ctx = Ctx::new();
        let campaign = ResolverAmpBurst {
            attacker: ep(0, [203, 0, 113, 66]),
            victim: ep(1, [10, 1, 1, 10]),
            resolver: ep(2, [10, 1, 255, 53]),
            zone: "amp.example.org".into(),
            qps: 100.0,
            start: SimTime::ZERO,
            duration: SimDuration::from_secs(1),
        };
        resolver_amp_burst(&mut ctx.env(), &campaign);
        assert_eq!(ctx.schedule.len(), 100);
        for inj in ctx.schedule.iter() {
            let victim_ip: std::net::IpAddr = "10.1.1.10".parse().unwrap();
            assert_eq!(inj.packet.network.src(), victim_ip, "source must be spoofed");
            let msg = DnsView::parse(inj.packet.payload.bytes().unwrap()).unwrap();
            assert!(msg.is_amplification_prone());
        }
    }

    #[test]
    fn exfiltration_is_outbound_heavy() {
        let mut ctx = Ctx::new();
        let campaign = Exfiltration {
            compromised: ep(0, [10, 1, 3, 14]),
            sink: ep(1, [203, 0, 113, 99]),
            bytes: 5_000_000,
            pace_bps: 2_000_000,
            start: SimTime::ZERO,
        };
        exfiltration(&mut ctx.env(), &campaign);
        let out: u64 = ctx
            .schedule
            .iter()
            .filter(|i| i.packet.network.src() == "10.1.3.14".parse::<std::net::IpAddr>().unwrap())
            .map(|i| i.packet.wire_len() as u64)
            .sum();
        let inbound: u64 = ctx
            .schedule
            .iter()
            .filter(|i| i.packet.network.dst() == "10.1.3.14".parse::<std::net::IpAddr>().unwrap())
            .map(|i| i.packet.wire_len() as u64)
            .sum();
        assert!(out > 5_000_000);
        assert!(out > 20 * inbound);
        // Slow pacing stretches the transfer over many seconds.
        assert!(ctx.schedule.span().as_secs_f64() > 10.0);
    }
}
