//! The workload generator: turns a [`Campus`] and a [`WorkloadConfig`] into
//! a labeled packet [`Schedule`] — the benign campus mix plus any attack
//! campaigns layered on top.

use crate::apps::{self, Endpoint, SessionEnv};
use crate::attacks;
use crate::distributions::{diurnal_multiplier, Exponential, Zipf};
use crate::labels::AppClass;
use crate::schedule::Schedule;
use campuslab_netsim::{Campus, NodeId, PacketBuilder, SimDuration, SimTime};
use campuslab_wire::{DnsFlags, DnsType};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape of the benign workload.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// How long sessions keep starting.
    pub duration: SimDuration,
    /// Mean session arrival rate (before diurnal modulation).
    pub sessions_per_sec: f64,
    /// Application mix weights.
    pub mix: Vec<(AppClass, f64)>,
    /// Apply the day/night load curve.
    pub diurnal: bool,
    /// Length of a simulated "day" (compressible for short runs).
    pub day_length: SimDuration,
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            duration: SimDuration::from_secs(10),
            sessions_per_sec: 30.0,
            mix: default_mix(),
            diurnal: false,
            day_length: SimDuration::from_secs(86_400),
            seed: 42,
        }
    }
}

/// Modelled RTT to external services: the gap the scripted sessions leave
/// between a request and its response.
const EXTERNAL_RTT: SimDuration = SimDuration::from_millis(15);
/// Modelled RTT between two campus hosts.
const INTERNAL_RTT: SimDuration = SimDuration::from_millis(1);

/// The default campus application mix, loosely shaped like published campus
/// traffic studies: web-dominated, with DNS chatter, some video elephants,
/// and operational background (NTP, mail, backups, SSH).
pub fn default_mix() -> Vec<(AppClass, f64)> {
    vec![
        (AppClass::Dns, 0.25),
        (AppClass::Web, 0.34),
        (AppClass::Video, 0.07),
        (AppClass::Ssh, 0.08),
        (AppClass::Mail, 0.08),
        (AppClass::Backup, 0.02),
        (AppClass::Ntp, 0.14),
        (AppClass::Icmp, 0.02),
    ]
}

/// Generates labeled schedules for one campus.
pub struct TrafficGenerator<'c> {
    campus: &'c Campus,
    cfg: WorkloadConfig,
    rng: StdRng,
    builder: PacketBuilder,
    next_flow: u64,
    host_pop: Zipf,
    ext_pop: Zipf,
    domains: Vec<String>,
    /// Scratch buffer every generated DNS message is written into.
    dns: Vec<u8>,
}

impl<'c> TrafficGenerator<'c> {
    /// Create a generator for `campus`.
    pub fn new(campus: &'c Campus, cfg: WorkloadConfig) -> Self {
        assert!(!campus.hosts.is_empty(), "campus has no hosts");
        assert!(!campus.external.is_empty(), "campus has no external hosts");
        let rng = StdRng::seed_from_u64(cfg.seed);
        let domains = (0..48)
            .map(|k| {
                let tld = ["com", "org", "net", "edu"][k % 4];
                format!("svc{k}.example{}.{tld}", k % 7)
            })
            .collect();
        TrafficGenerator {
            rng,
            host_pop: Zipf::new(campus.hosts.len(), 0.9),
            ext_pop: Zipf::new(campus.external.len(), 1.0),
            campus,
            cfg,
            builder: PacketBuilder::new(),
            next_flow: 0,
            domains,
            dns: Vec::new(),
        }
    }

    /// Endpoint handle for a node.
    pub fn endpoint(&self, node: NodeId) -> Endpoint {
        Endpoint { node, addr: self.campus.addr_of(node) }
    }

    fn random_host(&mut self) -> Endpoint {
        let idx = self.host_pop.sample(&mut self.rng);
        self.endpoint(self.campus.hosts[idx])
    }

    fn random_external(&mut self) -> Endpoint {
        let idx = self.ext_pop.sample(&mut self.rng);
        self.endpoint(self.campus.external[idx])
    }

    /// The node every scripted campaign attacks from (or exfiltrates to):
    /// the last external host, which reflector pools leave alone.
    fn attacker(&self) -> Endpoint {
        self.endpoint(*self.campus.external.last().expect("external hosts"))
    }

    /// The one way into `apps::*` / `attacks::*`: lend the generator's
    /// packet builder, RNG stream and flow counter to `script`, which
    /// writes its packets into `schedule`.
    fn campaign(&mut self, schedule: &mut Schedule, script: impl FnOnce(&mut SessionEnv<'_>)) {
        script(&mut SessionEnv {
            builder: &mut self.builder,
            rng: &mut self.rng,
            schedule,
            next_flow: &mut self.next_flow,
            dns: &mut self.dns,
        });
    }

    fn pick_class(&mut self) -> AppClass {
        let total: f64 = self.cfg.mix.iter().map(|(_, w)| w).sum();
        let mut u = self.rng.gen::<f64>() * total;
        for &(class, w) in &self.cfg.mix {
            if u < w {
                return class;
            }
            u -= w;
        }
        self.cfg.mix.last().map(|&(c, _)| c).unwrap_or(AppClass::Web)
    }

    /// Generate the benign workload schedule, in generation order: the
    /// schedule's `sorted` flag records that it is not yet in time order,
    /// and [`Schedule::apply_to`] or [`Schedule::into_injections`] sort it
    /// once, after every campaign is layered on.
    pub fn generate(&mut self) -> Schedule {
        let mut schedule = Schedule::new();
        let base_gap = Exponential::new(self.cfg.sessions_per_sec.max(1e-9));
        let mut t = SimTime::ZERO;
        loop {
            let mut gap = base_gap.sample(&mut self.rng);
            if self.cfg.diurnal {
                let frac = t.as_secs_f64() / self.cfg.day_length.as_secs_f64();
                gap /= diurnal_multiplier(frac, 0.2).max(1e-3);
            }
            t += SimDuration::from_secs_f64(gap);
            if t.since(SimTime::ZERO) > self.cfg.duration {
                break;
            }
            let class = self.pick_class();
            self.emit_session(&mut schedule, t, class);
        }
        schedule
    }

    fn emit_session(&mut self, schedule: &mut Schedule, t: SimTime, class: AppClass) {
        let client = self.random_host();
        let resolver = self.endpoint(self.campus.servers.dns);
        let mail = self.endpoint(self.campus.servers.mail);
        let (ext_rtt, int_rtt) = (EXTERNAL_RTT, INTERNAL_RTT);
        let domain_idx = self.host_pop.sample(&mut self.rng) % self.domains.len();
        let server = self.random_external();
        let upstream = self.random_external();
        let domain = self.domains[domain_idx].clone();
        let peer_host = self.random_host();
        let coin: f64 = self.rng.gen();
        // Resolver cache behaviour: misses trigger upstream recursion that
        // crosses the border; a slice of upstream answers is legitimately
        // fat (DNSSEC/TXT), overlapping amplification sizes.
        let cache_miss: bool = self.rng.gen::<f64>() < 0.4;
        let fat_answer: bool = self.rng.gen::<f64>() < 0.25;
        self.campaign(schedule, |env| match class {
            AppClass::Dns => {
                apps::dns_lookup(
                    env,
                    t,
                    client,
                    resolver,
                    &domain,
                    DnsType::A,
                    server.addr,
                    int_rtt,
                );
                if cache_miss {
                    apps::dns_upstream_lookup(
                        env, t, resolver, upstream, &domain, server.addr, ext_rtt, fat_answer,
                    );
                }
            }
            AppClass::Web => {
                if cache_miss {
                    apps::dns_upstream_lookup(
                        env, t, resolver, upstream, &domain, server.addr, ext_rtt, fat_answer,
                    );
                }
                apps::web_session(env, t, client, resolver, server, &domain, ext_rtt, 16_000.0);
            }
            AppClass::Video => {
                apps::video_session(env, t, client, server, ext_rtt);
            }
            AppClass::Ssh => {
                // Half the sessions stay on campus, half go out.
                let peer = if coin < 0.5 { peer_host } else { server };
                let rtt = if coin < 0.5 { int_rtt } else { ext_rtt };
                apps::ssh_session(env, t, client, peer, rtt);
            }
            AppClass::Mail => {
                // Inbound mail (external -> campus MX) or outbound relay.
                if coin < 0.5 {
                    apps::mail_session(env, t, server, mail, ext_rtt);
                } else {
                    apps::mail_session(env, t, client, mail, int_rtt);
                }
            }
            AppClass::Backup => {
                apps::backup_session(env, t, client, server, ext_rtt);
            }
            AppClass::Ntp => {
                apps::ntp_session(env, t, client, server, ext_rtt);
            }
            AppClass::Icmp => {
                let count = env.rng.gen_range(3..8);
                apps::ping_session(env, t, client, server, ext_rtt, count);
            }
        });
    }

    /// Layer a DNS amplification campaign onto `schedule` (paper §2).
    pub fn add_dns_amplification(
        &mut self,
        schedule: &mut Schedule,
        victim: NodeId,
        qps: f64,
        start: SimTime,
        duration: SimDuration,
    ) {
        let reflectors: Vec<Endpoint> = self
            .campus
            .external
            .iter()
            .take(8.min(self.campus.external.len().saturating_sub(1)).max(1))
            .map(|&n| self.endpoint(n))
            .collect();
        let campaign = attacks::DnsAmplification {
            attacker: self.attacker(),
            victim: self.endpoint(victim),
            reflectors,
            qps,
            start,
            duration,
        };
        self.campaign(schedule, |env| attacks::dns_amplification(env, &campaign));
    }

    /// Layer a signature-rotating reflection campaign onto `schedule`:
    /// one phase per `(service_port, start, duration)` entry, each phase
    /// drawing a different reflector pool from the external population so
    /// the flood's source prefixes rotate along with its port. This is
    /// the adversarial-drift workload (experiment E17).
    pub fn add_rotating_reflection(
        &mut self,
        schedule: &mut Schedule,
        victim: NodeId,
        qps: f64,
        phases: &[(u16, SimTime, SimDuration)],
    ) {
        // The attacker node is reserved; reflector pools tile the rest.
        let ext = &self.campus.external[..self.campus.external.len().saturating_sub(1)];
        assert!(!ext.is_empty(), "rotating reflection needs non-attacker externals");
        let pool = 4.min(ext.len());
        let phases: Vec<attacks::ReflectionPhase> = phases
            .iter()
            .enumerate()
            .map(|(k, &(service_port, start, duration))| attacks::ReflectionPhase {
                service_port,
                reflectors: (0..pool)
                    .map(|j| self.endpoint(ext[(k * pool + j) % ext.len()]))
                    .collect(),
                start,
                duration,
            })
            .collect();
        let campaign = attacks::RotatingReflection {
            attacker: self.attacker(),
            victim: self.endpoint(victim),
            phases,
            qps,
        };
        self.campaign(schedule, |env| attacks::rotating_reflection(env, &campaign));
    }

    /// Layer a new-application rollout onto `schedule`: from `start`,
    /// extra sessions of `class` arrive at `sessions_per_sec` on top of
    /// the base mix — the benign-drift workload (a campus-wide app
    /// deployment shifting the feature distribution without any attack).
    pub fn add_app_rollout(
        &mut self,
        schedule: &mut Schedule,
        class: AppClass,
        sessions_per_sec: f64,
        start: SimTime,
        duration: SimDuration,
    ) {
        let gap = Exponential::new(sessions_per_sec.max(1e-9));
        let mut t = start;
        loop {
            t += SimDuration::from_secs_f64(gap.sample(&mut self.rng));
            if t.since(start) > duration {
                break;
            }
            self.emit_session(schedule, t, class);
        }
    }

    /// Layer a SYN flood at a campus server onto `schedule`.
    pub fn add_syn_flood(
        &mut self,
        schedule: &mut Schedule,
        victim: NodeId,
        dport: u16,
        pps: f64,
        start: SimTime,
        duration: SimDuration,
    ) {
        let campaign = attacks::SynFlood {
            attacker: self.attacker(),
            victim: self.endpoint(victim),
            dport,
            pps,
            start,
            duration,
        };
        self.campaign(schedule, |env| attacks::syn_flood(env, &campaign));
    }

    /// Layer a port scan of the first `n_targets` campus hosts.
    pub fn add_port_scan(
        &mut self,
        schedule: &mut Schedule,
        n_targets: usize,
        ports: Vec<u16>,
        pps: f64,
        start: SimTime,
    ) {
        let targets: Vec<Endpoint> = self
            .campus
            .hosts
            .iter()
            .take(n_targets)
            .map(|&n| self.endpoint(n))
            .collect();
        let campaign = attacks::PortScan {
            attacker: self.attacker(),
            targets,
            ports,
            pps,
            start,
        };
        self.campaign(schedule, |env| attacks::port_scan(env, &campaign));
    }

    /// Layer an SSH brute-force campaign against a campus host.
    pub fn add_ssh_brute_force(
        &mut self,
        schedule: &mut Schedule,
        victim: NodeId,
        attempts: usize,
        rate: f64,
        start: SimTime,
    ) {
        let campaign = attacks::SshBruteForce {
            attacker: self.attacker(),
            victim: self.endpoint(victim),
            attempts,
            rate,
            start,
        };
        self.campaign(schedule, |env| attacks::ssh_brute_force(env, &campaign));
    }

    /// Layer a slow exfiltration from a compromised campus host.
    pub fn add_exfiltration(
        &mut self,
        schedule: &mut Schedule,
        compromised: NodeId,
        bytes: usize,
        pace_bps: u64,
        start: SimTime,
    ) {
        let campaign = attacks::Exfiltration {
            compromised: self.endpoint(compromised),
            sink: self.attacker(),
            bytes,
            pace_bps,
            start,
        };
        self.campaign(schedule, |env| attacks::exfiltration(env, &campaign));
    }

    /// Layer one campaign of each [`AttackKind`](crate::labels::AttackKind)
    /// spread over the workload window — the "attack climate" used by
    /// multi-class experiments. The resolver water torture (`NxdomainFlood`)
    /// is left out: it only makes sense against a live resolver actor, and
    /// the ResolverLab experiment layers it itself.
    pub fn add_mixed_attacks(&mut self, schedule: &mut Schedule) {
        let victim = self.campus.hosts[0];
        let web = self.campus.servers.web;
        let span = self.cfg.duration;
        let at = |f: f64| SimTime::ZERO + SimDuration::from_secs_f64(span.as_secs_f64() * f);
        self.add_dns_amplification(
            schedule,
            victim,
            400.0,
            at(0.1),
            SimDuration::from_secs_f64(span.as_secs_f64() * 0.25),
        );
        self.add_syn_flood(
            schedule,
            web,
            443,
            800.0,
            at(0.4),
            SimDuration::from_secs_f64(span.as_secs_f64() * 0.2),
        );
        self.add_port_scan(schedule, 16, (20..60).collect(), 500.0, at(0.6));
        self.add_ssh_brute_force(schedule, self.campus.hosts[1], 30, 4.0, at(0.7));
        self.add_exfiltration(schedule, self.campus.hosts[2], 3_000_000, 4_000_000, at(0.75));
    }

    /// Benign resolver-client load for runs where a live resolver actor
    /// answers: **queries only**, Zipf-skewed over the workload domains.
    ///
    /// The regular [`AppClass::Dns`] sessions script both query and
    /// response (the resolver is a passive sink there); layering those onto
    /// a run with a real resolver actor would double every answer. This
    /// generator is the actor-era replacement.
    pub fn add_resolver_clients(
        &mut self,
        schedule: &mut Schedule,
        qps: f64,
        start: SimTime,
        duration: SimDuration,
    ) {
        let resolver = self.endpoint(self.campus.servers.dns);
        let n = (qps * duration.as_secs_f64()).round() as usize;
        let gap = SimDuration::from_secs_f64(1.0 / qps.max(1e-9));
        for i in 0..n {
            let client = self.random_host();
            let domain_idx = self.host_pop.sample(&mut self.rng) % self.domains.len();
            let t = start + SimDuration::from_nanos(gap.as_nanos() * i as u64);
            let flow_id = self.next_flow;
            self.next_flow += 1;
            let truth = campuslab_netsim::GroundTruth {
                flow_id,
                app_class: AppClass::Dns.id(),
                attack: None,
            };
            let id: u16 = self.rng.gen();
            let sport: u16 = self.rng.gen_range(1024..61000);
            let domain = &self.domains[domain_idx];
            let query = apps::dns_payload(&mut self.dns, id, DnsFlags::query(), |w| {
                w.question(domain, DnsType::A)
            });
            let pkt = self.builder.udp_v4(client.addr, resolver.addr, sport, 53, query, 64, truth);
            schedule.push(t, client.node, pkt);
        }
    }

    /// Layer a water-torture NXDOMAIN flood at the campus resolver.
    pub fn add_nxdomain_flood(
        &mut self,
        schedule: &mut Schedule,
        n_sources: usize,
        qps_per_source: f64,
        start: SimTime,
        duration: SimDuration,
    ) {
        let sources: Vec<Endpoint> = self
            .campus
            .external
            .iter()
            .rev()
            .take(n_sources.max(1))
            .map(|&n| self.endpoint(n))
            .collect();
        let campaign = attacks::NxdomainFlood {
            sources,
            resolver: self.endpoint(self.campus.servers.dns),
            base_domain: "torture.example.net".into(),
            qps_per_source,
            // ~6% of the flood arrives mangled, exercising the resolver's
            // malformed-input paths while the attack is on.
            corrupt_permille: 63,
            start,
            duration,
        };
        self.campaign(schedule, |env| attacks::nxdomain_flood(env, &campaign));
    }

    /// Layer an ANY/TXT amplification burst abusing the campus resolver.
    pub fn add_resolver_amp_burst(
        &mut self,
        schedule: &mut Schedule,
        victim: NodeId,
        qps: f64,
        start: SimTime,
        duration: SimDuration,
    ) {
        let campaign = attacks::ResolverAmpBurst {
            attacker: self.attacker(),
            victim: self.endpoint(victim),
            resolver: self.endpoint(self.campus.servers.dns),
            zone: "amp.example.org".into(),
            qps,
            start,
            duration,
        };
        self.campaign(schedule, |env| attacks::resolver_amp_burst(env, &campaign));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::AttackKind;
    use campuslab_netsim::CampusConfig;

    fn small_campus() -> Campus {
        Campus::build(CampusConfig {
            dist_count: 2,
            access_per_dist: 2,
            hosts_per_access: 4,
            external_hosts: 10,
            ..CampusConfig::default()
        })
    }

    #[test]
    fn generates_labeled_benign_mix() {
        let campus = small_campus();
        let mut g = TrafficGenerator::new(&campus, WorkloadConfig {
            duration: SimDuration::from_secs(5),
            sessions_per_sec: 20.0,
            ..WorkloadConfig::default()
        });
        let s = g.generate();
        assert!(s.len() > 500, "too few packets: {}", s.len());
        let apps: std::collections::BTreeSet<u16> =
            s.iter().map(|i| i.packet.truth.app_class).collect();
        // The two dominant classes must be present; all packets labeled.
        assert!(apps.contains(&AppClass::Dns.id()));
        assert!(apps.contains(&AppClass::Web.id()));
        assert!(!apps.contains(&0), "unlabeled packets found");
        assert!(s.iter().all(|i| !i.packet.truth.is_malicious()));
    }

    #[test]
    fn schedule_is_deterministic() {
        let campus = small_campus();
        let run = || {
            let mut g = TrafficGenerator::new(&campus, WorkloadConfig {
                duration: SimDuration::from_secs(2),
                ..WorkloadConfig::default()
            });
            let s = g.generate();
            (s.len(), s.total_bytes())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn attack_layering_marks_malicious() {
        let campus = small_campus();
        let mut g = TrafficGenerator::new(&campus, WorkloadConfig {
            duration: SimDuration::from_secs(3),
            sessions_per_sec: 5.0,
            ..WorkloadConfig::default()
        });
        let mut s = g.generate();
        let benign = s.len();
        g.add_dns_amplification(
            &mut s,
            campus.hosts[0],
            200.0,
            SimTime::from_secs(1),
            SimDuration::from_secs(1),
        );
        let mal = s.iter().filter(|i| i.packet.truth.is_malicious()).count();
        assert_eq!(s.len() - mal, benign);
        assert_eq!(mal, 400);
    }

    #[test]
    fn mixed_attacks_cover_all_kinds() {
        let campus = small_campus();
        let mut g = TrafficGenerator::new(&campus, WorkloadConfig {
            duration: SimDuration::from_secs(4),
            sessions_per_sec: 2.0,
            ..WorkloadConfig::default()
        });
        let mut s = g.generate();
        g.add_mixed_attacks(&mut s);
        let kinds: std::collections::BTreeSet<u16> = s
            .iter()
            .filter_map(|i| i.packet.truth.attack)
            .collect();
        let expected = [
            AttackKind::DnsAmplification,
            AttackKind::SynFlood,
            AttackKind::PortScan,
            AttackKind::SshBruteForce,
            AttackKind::Exfiltration,
        ];
        assert_eq!(kinds, expected.iter().map(|k| k.id()).collect());
    }

    #[test]
    fn resolver_clients_emit_queries_only() {
        let campus = small_campus();
        let mut g = TrafficGenerator::new(&campus, WorkloadConfig::default());
        let mut s = Schedule::new();
        g.add_resolver_clients(&mut s, 40.0, SimTime::ZERO, SimDuration::from_secs(2));
        assert_eq!(s.len(), 80);
        let dns_ip = std::net::IpAddr::V4(campus.addr_of(campus.servers.dns));
        for inj in s.iter() {
            assert_eq!(inj.packet.network.dst(), dns_ip, "all traffic goes to the resolver");
            assert_eq!(inj.packet.transport.dst_port(), Some(53));
            assert_eq!(inj.packet.truth.attack, None);
            let msg =
                campuslab_wire::DnsMessage::parse(inj.packet.payload.bytes().unwrap()).unwrap();
            assert!(!msg.flags.response, "clients never script responses");
        }
    }

    #[test]
    fn diurnal_shifts_load_toward_midday() {
        let campus = small_campus();
        let day = SimDuration::from_secs(100); // compressed day
        let mut g = TrafficGenerator::new(&campus, WorkloadConfig {
            duration: day,
            day_length: day,
            sessions_per_sec: 10.0,
            diurnal: true,
            mix: vec![(AppClass::Ntp, 1.0)], // constant-size sessions
            ..WorkloadConfig::default()
        });
        let s = g.generate();
        let half = SimTime::from_secs(25);
        let (mut morning, mut midday) = (0usize, 0usize);
        for i in s.iter() {
            if i.at < half {
                morning += 1;
            } else if i.at < SimTime::from_secs(75) {
                midday += 1;
            }
        }
        assert!(
            midday as f64 > 1.5 * morning as f64,
            "diurnal had no effect: morning={morning} midday={midday}"
        );
    }

    #[test]
    fn workload_runs_through_the_simulator() {
        let campus = small_campus();
        let mut g = TrafficGenerator::new(&campus, WorkloadConfig {
            duration: SimDuration::from_secs(2),
            sessions_per_sec: 10.0,
            ..WorkloadConfig::default()
        });
        let mut s = g.generate();
        let total = s.len() as u64;
        let mut net = Campus::build(CampusConfig {
            dist_count: 2,
            access_per_dist: 2,
            hosts_per_access: 4,
            external_hosts: 10,
            ..CampusConfig::default()
        })
        .net;
        s.apply_to(&mut net);
        let stats = net.run_to_completion();
        assert_eq!(stats.injected, total);
        // The benign mix must overwhelmingly survive an idle campus network.
        assert!(
            stats.delivery_ratio() > 0.99,
            "delivery ratio {} ({stats:?})",
            stats.delivery_ratio()
        );
    }
}
