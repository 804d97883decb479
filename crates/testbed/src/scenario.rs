//! Scenario definition and data collection: one simulated "day in the
//! life" of a campus, captured at the border and landed in the data store
//! (the Figure-1 data-source path).

use crate::observe::RunObs;
use campuslab_capture::{BorderTapHooks, DnsMetaRecord, FlowRecord, MonitorConfig, MonitorStats, PacketRecord, RingStats, TcpRttRecord};
use campuslab_datastore::DataStore;
use campuslab_netsim::{Campus, CampusConfig, NetStats, NodeId, SimDuration, SimTime};
use campuslab_traffic::{AppClass, Schedule, TrafficGenerator, WorkloadConfig};
use std::net::Ipv4Addr;

/// The attack content of a scenario.
#[derive(Debug, Clone)]
pub enum AttackScenario {
    /// Benign traffic only.
    None,
    /// The paper's running example, aimed at `campus.hosts[victim_index]`.
    DnsAmplification { victim_index: usize, qps: f64, start_frac: f64, duration_frac: f64 },
    /// One campaign of every kind (the multi-class climate).
    Mixed,
    /// Random-subdomain NXDOMAIN "water torture" flood at the campus
    /// recursive resolver, with an ANY/TXT amplification burst riding the
    /// same window. Benign resolver clients query for the whole scenario
    /// so cache-hit collapse and recovery are measurable. Pair with a
    /// workload mix that excludes [`AppClass::Dns`] (see
    /// [`Scenario::resolver_lab`]): the scripted query/response DNS app
    /// would double-answer queries the live resolver actor also serves.
    ResolverWaterTorture {
        /// Benign client query rate at the resolver, whole-run.
        client_qps: f64,
        /// Distinct external flood sources (each rate-limited separately).
        n_sources: usize,
        qps_per_source: f64,
        /// ANY/TXT amplification-burst rate (0 disables the burst).
        amp_qps: f64,
        start_frac: f64,
        duration_frac: f64,
    },
    /// A reflection campaign that rotates its service port and reflector
    /// pool between phases — the signature-evasion drift experiment E17
    /// pivots on. Each phase is `(service_port, start_frac,
    /// duration_frac)`; a filter trained on one phase's port/prefix
    /// signature goes stale the moment the next phase starts.
    RotatingReflection { victim_index: usize, qps: f64, phases: Vec<(u16, f64, f64)> },
    /// A benign new-application rollout: extra sessions of one class ramp
    /// in mid-run and shift the traffic mix with no attack labels at all
    /// — drift the pilot must absorb without a false mitigation.
    AppRollout { class: AppClass, sessions_per_sec: f64, start_frac: f64, duration_frac: f64 },
}

impl AttackScenario {
    /// The node the campaign is aimed at, if it has one: the victim
    /// [`build_schedule`] records and the node chaos never crashes.
    pub fn victim(&self, campus: &Campus) -> Option<NodeId> {
        match self {
            AttackScenario::None | AttackScenario::AppRollout { .. } => None,
            AttackScenario::DnsAmplification { victim_index, .. }
            | AttackScenario::RotatingReflection { victim_index, .. } => {
                Some(campus.hosts[*victim_index])
            }
            AttackScenario::Mixed => Some(campus.hosts[0]),
            AttackScenario::ResolverWaterTorture { .. } => Some(campus.servers.dns),
        }
    }
}

/// A complete scenario description.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub campus: CampusConfig,
    pub workload: WorkloadConfig,
    pub attack: AttackScenario,
    pub monitor: MonitorConfig,
}

impl Scenario {
    /// The default small scenario used across tests and examples: a
    /// compact campus, a few seconds of mixed traffic, amplification
    /// attack at host 0.
    pub fn small() -> Self {
        Scenario {
            campus: CampusConfig {
                dist_count: 2,
                access_per_dist: 2,
                hosts_per_access: 4,
                external_hosts: 12,
                ..CampusConfig::default()
            },
            workload: WorkloadConfig {
                duration: SimDuration::from_secs(8),
                sessions_per_sec: 12.0,
                ..WorkloadConfig::default()
            },
            attack: AttackScenario::DnsAmplification {
                victim_index: 0,
                qps: 600.0,
                start_frac: 0.15,
                duration_frac: 0.8,
            },
            monitor: MonitorConfig::default(),
        }
    }

    /// The ResolverLab scenario (experiment E16): a compact campus whose
    /// recursive resolver serves live benign clients, then takes a
    /// water-torture flood from two dozen external sources plus an
    /// amplification burst. The scripted DNS app is removed from the mix
    /// because the resolver actor answers port-53 traffic itself.
    ///
    /// Sizing: 24 sources x 60 qps is ~480 qps after per-client rate
    /// limiting (20 qps each), above the default resolver's upstream
    /// capacity (8 concurrent lookups, [`campuslab_resolver::ResolverConfig`],
    /// at a [`campuslab_resolver::service::UPSTREAM_RTT`] of 20 ms = 400
    /// qps), so the flood starves the upstream path and
    /// benign misses degrade to stale answers or ServFail give-ups.
    pub fn resolver_lab() -> Self {
        let mut workload = WorkloadConfig {
            duration: SimDuration::from_secs(12),
            sessions_per_sec: 6.0,
            ..WorkloadConfig::default()
        };
        workload.mix.retain(|(class, _)| *class != AppClass::Dns);
        Scenario {
            campus: CampusConfig {
                dist_count: 2,
                access_per_dist: 2,
                hosts_per_access: 4,
                external_hosts: 32,
                ..CampusConfig::default()
            },
            workload,
            attack: AttackScenario::ResolverWaterTorture {
                client_qps: 40.0,
                n_sources: 24,
                qps_per_source: 60.0,
                amp_qps: 120.0,
                start_frac: 0.25,
                duration_frac: 0.5,
            },
            monitor: MonitorConfig::default(),
        }
    }

    /// The rotating-reflection drift scenario (experiment E17): phase one
    /// reflects off port-53 servers early in the run — squarely inside
    /// the signature any amplification-trained filter knows — then the
    /// attacker rotates to port-123 reflectors from a different pool for
    /// the back half. The stale filter passes phase two untouched; only
    /// a pilot that retrains on fresh windows closes the gap. The victim
    /// is `hosts[0]`, inside the default 25% canary cohort, so canary
    /// SLOs see the drift directly.
    pub fn drift_rotation() -> Self {
        Scenario {
            campus: CampusConfig {
                dist_count: 2,
                access_per_dist: 2,
                hosts_per_access: 4,
                external_hosts: 12,
                ..CampusConfig::default()
            },
            workload: WorkloadConfig {
                duration: SimDuration::from_secs(14),
                sessions_per_sec: 12.0,
                ..WorkloadConfig::default()
            },
            attack: AttackScenario::RotatingReflection {
                victim_index: 0,
                qps: 400.0,
                phases: vec![(53, 0.05, 0.25), (123, 0.45, 0.45)],
            },
            monitor: MonitorConfig::default(),
        }
    }

    /// The smallest useful road test: a two-switch campus, three seconds
    /// of light mixed traffic, and a modest amplification campaign at
    /// host 0. This is the per-tenant workload of the plaza sweeps
    /// (experiment E18) and the tenant-isolation property suite, where
    /// dozens of tenant slices run per case — each slice must stay cheap
    /// while still exercising detection, mitigation and suppression.
    pub fn tenant_probe() -> Self {
        Scenario {
            campus: CampusConfig {
                dist_count: 1,
                access_per_dist: 2,
                hosts_per_access: 2,
                external_hosts: 6,
                ..CampusConfig::default()
            },
            workload: WorkloadConfig {
                duration: SimDuration::from_secs(3),
                sessions_per_sec: 6.0,
                ..WorkloadConfig::default()
            },
            attack: AttackScenario::DnsAmplification {
                victim_index: 0,
                qps: 150.0,
                start_frac: 0.2,
                duration_frac: 0.6,
            },
            monitor: MonitorConfig::default(),
        }
    }

    /// Benign diurnal drift: the whole day/night load curve compressed
    /// into one short run (`day_length == duration`), no attack at all.
    /// The pilot must ride out the load swing without deploying anything
    /// over the known-good program.
    pub fn drift_diurnal() -> Self {
        Scenario {
            campus: CampusConfig {
                dist_count: 2,
                access_per_dist: 2,
                hosts_per_access: 4,
                external_hosts: 12,
                ..CampusConfig::default()
            },
            workload: WorkloadConfig {
                duration: SimDuration::from_secs(10),
                sessions_per_sec: 14.0,
                diurnal: true,
                day_length: SimDuration::from_secs(10),
                ..WorkloadConfig::default()
            },
            attack: AttackScenario::None,
            monitor: MonitorConfig::default(),
        }
    }

    /// Benign new-app rollout drift: a video-class application launches
    /// campus-wide mid-run, shifting the traffic mix with zero attack
    /// labels. Retraining on these windows must stay safe (single-class
    /// data) and never produce a candidate that drops the new app.
    pub fn drift_app_rollout() -> Self {
        Scenario {
            campus: CampusConfig {
                dist_count: 2,
                access_per_dist: 2,
                hosts_per_access: 4,
                external_hosts: 12,
                ..CampusConfig::default()
            },
            workload: WorkloadConfig {
                duration: SimDuration::from_secs(10),
                sessions_per_sec: 10.0,
                ..WorkloadConfig::default()
            },
            attack: AttackScenario::AppRollout {
                class: AppClass::Video,
                sessions_per_sec: 8.0,
                start_frac: 0.5,
                duration_frac: 0.45,
            },
            monitor: MonitorConfig::default(),
        }
    }
}

/// Everything a collection run produces.
pub struct CollectedData {
    pub packets: Vec<PacketRecord>,
    pub flows: Vec<FlowRecord>,
    pub dns: Vec<DnsMetaRecord>,
    /// TCP handshake RTTs measured at the tap.
    pub rtts: Vec<TcpRttRecord>,
    pub net: NetStats,
    pub ring: RingStats,
    pub monitor: MonitorStats,
    /// Packets scheduled (injected into the network).
    pub scheduled: usize,
    /// The amplification victim's address, when the scenario has one.
    pub victim: Option<Ipv4Addr>,
    /// When the (first) attack campaign started.
    pub attack_start: Option<SimTime>,
    /// Observatory bundle: simulator + border-monitor metric sinks and the
    /// run trace, moved out after the run.
    pub obs: RunObs,
}

/// Build the schedule for a scenario on a freshly built campus, in time
/// order.
pub fn build_schedule(campus: &Campus, scenario: &Scenario) -> (Schedule, Option<Ipv4Addr>, Option<SimTime>) {
    let mut gen = TrafficGenerator::new(campus, scenario.workload.clone());
    let mut schedule = gen.generate();
    let span = scenario.workload.duration.as_secs_f64();
    let at = |frac: f64| SimTime::ZERO + SimDuration::from_secs_f64(span * frac);
    let victim = scenario.attack.victim(campus).map(|v| campus.addr_of(v));
    let mut attack_start = None;
    match &scenario.attack {
        AttackScenario::None => {}
        AttackScenario::DnsAmplification { victim_index, qps, start_frac, duration_frac } => {
            attack_start = Some(at(*start_frac));
            gen.add_dns_amplification(
                &mut schedule,
                campus.hosts[*victim_index],
                *qps,
                at(*start_frac),
                SimDuration::from_secs_f64(span * duration_frac),
            );
        }
        AttackScenario::Mixed => {
            attack_start = Some(at(0.1));
            gen.add_mixed_attacks(&mut schedule);
        }
        AttackScenario::ResolverWaterTorture {
            client_qps,
            n_sources,
            qps_per_source,
            amp_qps,
            start_frac,
            duration_frac,
        } => {
            attack_start = Some(at(*start_frac));
            let dur = SimDuration::from_secs_f64(span * duration_frac);
            gen.add_resolver_clients(
                &mut schedule,
                *client_qps,
                SimTime::ZERO,
                scenario.workload.duration,
            );
            gen.add_nxdomain_flood(&mut schedule, *n_sources, *qps_per_source, at(*start_frac), dur);
            if *amp_qps > 0.0 {
                // The burst spoofs a campus host as its reflection victim.
                gen.add_resolver_amp_burst(&mut schedule, campus.hosts[0], *amp_qps, at(*start_frac), dur);
            }
        }
        AttackScenario::RotatingReflection { victim_index, qps, phases } => {
            if let Some(&(_, f, _)) = phases.first() {
                attack_start = Some(at(f));
            }
            let plan: Vec<(u16, SimTime, SimDuration)> = phases
                .iter()
                .map(|&(port, f, d)| (port, at(f), SimDuration::from_secs_f64(span * d)))
                .collect();
            gen.add_rotating_reflection(&mut schedule, campus.hosts[*victim_index], *qps, &plan);
        }
        AttackScenario::AppRollout { class, sessions_per_sec, start_frac, duration_frac } => {
            gen.add_app_rollout(
                &mut schedule,
                *class,
                *sessions_per_sec,
                at(*start_frac),
                SimDuration::from_secs_f64(span * duration_frac),
            );
        }
    }
    // One stable sort by time for the whole day: benign packets keep
    // generation order on ties and campaign packets follow them.
    schedule.sort();
    (schedule, victim, attack_start)
}

/// Run a scenario with the border monitor attached and collect every
/// record the monitoring plane produced.
pub fn collect(scenario: &Scenario) -> CollectedData {
    let campus = Campus::build(scenario.campus.clone());
    let (mut schedule, victim, attack_start) = build_schedule(&campus, scenario);
    let scheduled = schedule.len();
    let mut net = campus.net;
    schedule.apply_to(&mut net);
    // The queue now holds a copy of every packet; don't keep two through
    // the run.
    drop(schedule);
    let mut hooks = BorderTapHooks::new(campus.border_link, scenario.monitor.clone());
    net.run(&mut hooks, None);
    hooks.monitor.finish();
    let ring = hooks.monitor.ring_stats();
    let monitor = hooks.monitor.stats;
    let packets = hooks.monitor.take_packet_records();
    let flows = hooks.monitor.take_flow_records();
    let dns = hooks.monitor.take_dns_records();
    let rtts = hooks.monitor.take_rtt_records();
    let end_ns = net.now().as_nanos();
    let mut obs = RunObs::net_only(net.obs);
    obs.capture = Some(hooks.monitor.obs);
    obs.tracer.record("collect[border-tap]".to_string(), 0, end_ns);
    CollectedData {
        packets,
        flows,
        dns,
        rtts,
        net: net.stats,
        ring,
        monitor,
        scheduled,
        victim,
        attack_start,
        obs,
    }
}

/// Land collected data in a fresh data store (the Figure-1 ingest path).
pub fn build_store(data: &CollectedData) -> DataStore {
    ingest_capture(&data.packets, data.flows.clone(), data.dns.clone())
}

/// The one ingest path for a capture: packets, then flows, then DNS, into
/// a fresh data store. Packets go through the sharded batch-ingest path —
/// one batch per capture second — which builds segments on parallel
/// workers yet yields a byte-identical store at any worker count.
pub fn ingest_capture(packets: &[PacketRecord], flows: Vec<FlowRecord>, dns: Vec<DnsMetaRecord>) -> DataStore {
    let mut ds = DataStore::new();
    ds.ingest_packet_batches(shard_by_second(packets));
    ds.ingest_flows(flows);
    ds.ingest_dns(dns);
    ds
}

/// Split a capture into per-second batches (capture order preserved
/// within each batch), the unit the parallel ingest path shards over.
pub fn shard_by_second(packets: &[PacketRecord]) -> Vec<Vec<PacketRecord>> {
    let mut batches: Vec<Vec<PacketRecord>> = Vec::new();
    for p in packets {
        let sec = (p.ts_ns / 1_000_000_000) as usize;
        if batches.len() <= sec {
            batches.resize_with(sec + 1, Vec::new);
        }
        batches[sec].push(p.clone());
    }
    batches.retain(|b| !b.is_empty());
    batches
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(crc32, injections)` over every injection of a generated day in
    /// time order: time, node, headers, truth and payload bytes. The
    /// generators must keep every byte and every RNG draw, so a change
    /// that moves either moves this pin.
    fn day_pin(scenario: &Scenario) -> (u32, usize) {
        let campus = Campus::build(scenario.campus.clone());
        let injections = build_schedule(&campus, scenario).0.into_injections();
        let mut crc = campuslab_obs::Crc32::new();
        for i in &injections {
            let p = &i.packet;
            let (at, node) = (i.at.as_nanos(), i.node.0);
            let head = format!("{at} {node} {:?} {:?} {:?}|", p.network, p.transport, p.truth);
            crc.update(head.as_bytes());
            match p.payload.bytes() {
                Some(bytes) => crc.update(bytes),
                None => crc.update(&(p.payload.len() as u64).to_le_bytes()),
            }
        }
        (crc.finish(), injections.len())
    }

    /// The small scenario's day (benign mix with its scripted lookups and
    /// upstream answers, plus the reflected amplification campaign) and
    /// the resolver lab's (live-client queries, water torture and the
    /// ANY/TXT burst): every DNS generator writes into one of them.
    #[test]
    fn generated_days_are_pinned() {
        assert_eq!(day_pin(&Scenario::small()), (0x53f9_e86d, 92_900), "small");
        assert_eq!(day_pin(&Scenario::resolver_lab()), (0x39a7_ca6d, 29_245), "resolver lab");
    }

    #[test]
    fn small_scenario_collects_labeled_data() {
        let data = collect(&Scenario::small());
        assert!(data.packets.len() > 500, "packets {}", data.packets.len());
        assert!(!data.flows.is_empty());
        assert!(!data.dns.is_empty());
        // Attack ground truth present in the capture.
        let malicious = data.packets.iter().filter(|p| p.is_malicious()).count();
        assert!(malicious > 100, "malicious {malicious}");
        assert!(data.victim.is_some());
        // Campus-scale traffic captures losslessly (the paper's premise).
        assert_eq!(data.ring.dropped, 0);
        // Everything scheduled entered the network.
        assert_eq!(data.net.injected as usize, data.scheduled);
    }

    #[test]
    fn store_round_trip_preserves_counts() {
        let data = collect(&Scenario::small());
        let ds = build_store(&data);
        assert_eq!(ds.packet_count(), data.packets.len());
        assert_eq!(ds.flow_count(), data.flows.len());
        assert_eq!(ds.dns_count(), data.dns.len());
        // The store's own Observatory saw the ingest.
        assert_eq!(ds.obs.ingested_packets(), data.packets.len() as u64);
        assert_eq!(ds.obs.packet_segments(), ds.packet_segment_count() as i64);
        // The victim's inbound flood is findable by index.
        let victim = std::net::IpAddr::V4(data.victim.unwrap());
        let hits = ds.query_packets(&campuslab_datastore::PacketQuery::for_host(victim));
        assert!(!hits.is_empty());
    }

    #[test]
    fn build_store_is_worker_count_invariant() {
        let data = collect(&Scenario::small());
        let batches = shard_by_second(&data.packets);
        let mut seq = DataStore::new();
        seq.ingest_packet_batches_with(batches.clone(), 1);
        let mut par = DataStore::new();
        par.ingest_packet_batches_with(batches, 4);
        assert_eq!(seq.storage(), par.storage());
        assert_eq!(seq.packet_segment_stats(), par.packet_segment_stats());
        assert!(seq.iter_packets().eq(par.iter_packets()));
    }

    #[test]
    fn benign_scenario_has_no_attack_labels() {
        let mut s = Scenario::small();
        s.attack = AttackScenario::None;
        s.workload.duration = SimDuration::from_secs(3);
        let data = collect(&s);
        assert!(data.packets.iter().all(|p| !p.is_malicious()));
        assert!(data.victim.is_none());
    }

    #[test]
    fn collection_obs_conserves_and_mirrors_stats() {
        let data = collect(&Scenario::small());
        let cap = data.obs.capture.as_ref().expect("capture obs");
        assert!(cap.conserved(), "capture conservation law violated");
        assert_eq!(cap.observed(), data.monitor.observed);
        assert_eq!(cap.captured(), data.monitor.captured);
        assert_eq!(data.obs.net.injected(), data.net.injected);
        assert_eq!(data.obs.net.delivered(), data.net.delivered);
        // The run trace is a single border-tap span covering the run.
        let spans = data.obs.tracer.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "collect[border-tap]");
        assert!(spans[0].end_ns > 0);
        // And the dump renders both layers.
        let prom = data.obs.prom();
        assert!(prom.contains("sim_delivered_packets_total"));
        assert!(prom.contains("cap_captured_packets_total"));
    }

    #[test]
    fn resolver_lab_schedule_mixes_clients_flood_and_burst() {
        let scenario = Scenario::resolver_lab();
        let campus = Campus::build(scenario.campus.clone());
        let (schedule, victim, attack_start) = build_schedule(&campus, &scenario);
        // The resolver itself is the victim on record.
        assert_eq!(victim, Some(campus.addr_of(campus.servers.dns)));
        assert!(attack_start.is_some());
        let truths: Vec<_> = schedule.iter().map(|i| i.packet.truth).collect();
        let flood = truths
            .iter()
            .filter(|t| t.attack == Some(campuslab_traffic::AttackKind::NxdomainFlood.id()))
            .count();
        let amp = truths
            .iter()
            .filter(|t| t.attack == Some(campuslab_traffic::AttackKind::DnsAmplification.id()))
            .count();
        let benign_dns = truths
            .iter()
            .filter(|t| t.attack.is_none() && t.app_class == AppClass::Dns.id())
            .count();
        assert!(flood > 5_000, "flood {flood}");
        assert!(amp > 500, "amp {amp}");
        assert!(benign_dns > 400, "benign dns {benign_dns}");
        // The scripted DNS app is out of the mix: every benign port-53
        // packet is a live client query for the resolver actor to answer.
        assert!(scenario.workload.mix.iter().all(|(c, _)| *c != AppClass::Dns));
    }

    #[test]
    fn drift_rotation_schedule_hops_signatures_mid_run() {
        let scenario = Scenario::drift_rotation();
        let campus = Campus::build(scenario.campus.clone());
        let (schedule, victim, attack_start) = build_schedule(&campus, &scenario);
        assert_eq!(victim, Some(campus.addr_of(campus.hosts[0])));
        assert!(attack_start.is_some());
        // Reflected answers (the big packets the victim eats) come from
        // port 53 in phase one and port 123 in phase two — two disjoint
        // signatures separated in time.
        let answers: Vec<_> = schedule
            .iter()
            .filter_map(|i| {
                let port = i.packet.transport.src_port()?;
                (i.packet.truth.attack.is_some() && (port == 53 || port == 123))
                    .then_some((i.at, port))
            })
            .collect();
        assert!(!answers.is_empty());
        let last_53 = answers.iter().filter(|(_, p)| *p == 53).map(|(t, _)| *t).max().unwrap();
        let first_123 = answers.iter().filter(|(_, p)| *p == 123).map(|(t, _)| *t).min().unwrap();
        assert!(last_53 < first_123, "phases overlap: {last_53} vs {first_123}");
    }

    #[test]
    fn app_rollout_adds_benign_sessions_only() {
        let scenario = Scenario::drift_app_rollout();
        let campus = Campus::build(scenario.campus.clone());
        let (schedule, victim, attack_start) = build_schedule(&campus, &scenario);
        assert!(victim.is_none());
        assert!(attack_start.is_none());
        assert!(schedule.iter().all(|i| i.packet.truth.attack.is_none()));
        // The rollout visibly shifts the mix toward the new class in the
        // back half of the run.
        let span = scenario.workload.duration.as_nanos();
        let video = |lo: u64, hi: u64| {
            schedule
                .iter()
                .filter(|i| {
                    i.packet.truth.app_class == AppClass::Video.id()
                        && i.at.as_nanos() >= lo
                        && i.at.as_nanos() < hi
                })
                .count()
        };
        let early = video(0, span / 2);
        let late = video(span / 2, span);
        assert!(late > 2 * early.max(1), "rollout invisible: early={early} late={late}");
    }

    #[test]
    fn collection_is_deterministic() {
        let run = || {
            let data = collect(&Scenario::small());
            (data.packets.len(), data.flows.len(), data.net.delivered)
        };
        assert_eq!(run(), run());
    }
}
