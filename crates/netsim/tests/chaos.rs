//! Integration tests for the ChaosLab fault-injection layer.
//!
//! Two properties the chaos layer must keep forever:
//!
//! 1. **Faults stay inside their windows.** With the probabilistic loss
//!    channels disabled, a chaos plan may only drop packets while one of
//!    its scheduled down windows is open — a `Fault` drop outside every
//!    link window, or a `NodeDown` drop outside every node window, means
//!    the schedule leaked.
//! 2. **Chaos is deterministic.** A full campaign — flaps, crashes,
//!    brownouts, Gilbert–Elliott bursty loss — replays byte-for-byte,
//!    sequential or fanned out over `parallel_map_with` workers.

use campuslab_netsim::par::parallel_map_with;
use campuslab_netsim::prelude::*;
use proptest::prelude::*;
use std::net::{IpAddr, Ipv4Addr};

/// h1 -- s1 -- s2 -- h2 with roomy queues: congestion cannot drop, so
/// every drop is chaos's doing.
fn line_net() -> (Network, NodeId, NodeId, LinkId) {
    let mut b = TopologyBuilder::new(7);
    let s1 = b.switch("s1");
    let s2 = b.switch("s2");
    let mid = b.link(s1, s2, LinkSpec::gbps(1, SimDuration::from_micros(10)));
    let h1 = b.host("h1", Ipv4Addr::new(10, 0, 0, 1));
    let h2 = b.host("h2", Ipv4Addr::new(10, 0, 0, 2));
    b.attach_host(h1, s1, LinkSpec::gbps(1, SimDuration::from_micros(10)));
    b.attach_host(h2, s2, LinkSpec::gbps(1, SimDuration::from_micros(10)));
    (b.build(), h1, h2, mid)
}

/// Record every drop the run produced.
#[derive(Default)]
struct DropLog {
    drops: Vec<(u64, DropReason)>,
}
impl SimHooks for DropLog {
    fn on_drop(&mut self, now: SimTime, reason: DropReason, _packet: &Packet, _cmds: &mut Commands) {
        self.drops.push((now.as_nanos(), reason));
    }
}

fn inside_any(windows: &[Outage], t_ns: u64) -> bool {
    windows.iter().any(|w| w.contains(SimTime(t_ns)))
}

/// Send one h1 → h2 packet at 3.5 s and one at 4.5 s under `plan`, and
/// assert that only the first is lost, to `reason`, within the
/// millisecond it takes to cross the line.
fn assert_only_the_3_5_s_probe_drops(plan: &ChaosPlan, reason: DropReason) {
    let (mut net, h1, _, _) = line_net();
    plan.apply_to(&mut net);
    let mut b = PacketBuilder::new();
    for t in [SimTime::from_millis(3_500), SimTime::from_millis(4_500)] {
        let pkt = b.udp_v4(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1000,
            2000,
            Payload::Synthetic(64),
            64,
            GroundTruth::default(),
        );
        net.inject(t, h1, pkt);
    }
    let mut log = DropLog::default();
    net.run(&mut log, None);
    assert_eq!(net.stats.delivered, 1, "{:?}", log.drops);
    let [(t, got)] = log.drops[..] else { panic!("expected one drop: {:?}", log.drops) };
    assert_eq!(got, reason);
    assert!((3_500_000_000..3_501_000_000).contains(&t), "dropped at {t} ns");
}

/// Two flaps of one link, `[1 s, 3 s)` and `[2 s, 4 s)`: the first
/// recovery must not end the second flap early.
#[test]
fn overlapping_link_flaps_stay_down_for_their_union() {
    let (_, _, _, mid) = line_net();
    let mut plan = ChaosPlan::new();
    plan.link_flap(mid, SimTime::from_secs(1), SimTime::from_secs(3))
        .link_flap(mid, SimTime::from_secs(2), SimTime::from_secs(4));
    assert_only_the_3_5_s_probe_drops(&plan, DropReason::Fault);
}

/// The same for two crashes of one node.
#[test]
fn overlapping_node_outages_stay_down_for_their_union() {
    let (_, _, h2, _) = line_net();
    let mut plan = ChaosPlan::new();
    plan.node_outage(h2, SimTime::from_secs(1), SimTime::from_secs(3))
        .node_outage(h2, SimTime::from_secs(2), SimTime::from_secs(4));
    assert_only_the_3_5_s_probe_drops(&plan, DropReason::NodeDown);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Random flap/crash schedules, probabilistic loss off: every drop is
    /// attributable to an open window, and conservation holds regardless.
    #[test]
    fn chaos_never_drops_outside_scheduled_windows(
        link_windows in proptest::collection::vec(
            (0u64..8_000_000, 1u64..2_000_000), 1..4),
        node_windows in proptest::collection::vec(
            (0u64..8_000_000, 1u64..2_000_000), 0..3),
        n_packets in 20usize..120,
    ) {
        let (mut net, h1, h2, mid) = line_net();
        let mut plan = ChaosPlan::new();
        for &(from, len) in &link_windows {
            plan.link_flap(mid, SimTime(from), SimTime(from + len));
        }
        for &(from, len) in &node_windows {
            plan.node_outage(h2, SimTime(from), SimTime(from + len));
        }
        plan.apply_to(&mut net);

        let mut b = PacketBuilder::new();
        for k in 0..n_packets {
            let pkt = b.udp_v4(
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
                1000,
                2000,
                Payload::Synthetic(64),
                64,
                GroundTruth::default(),
            );
            // Spread injections across the run so some land inside and
            // some outside the chaos windows.
            net.inject(SimTime(k as u64 * 90_000), h1, pkt);
        }
        let mut log = DropLog::default();
        net.run(&mut log, None);

        let link_down = plan.link_outages(mid);
        let node_down = plan.node_outages(h2);
        for &(t, reason) in &log.drops {
            match reason {
                DropReason::Fault => prop_assert!(
                    inside_any(&link_down, t),
                    "fault drop at {t}ns outside every scheduled link window {link_down:?}"
                ),
                DropReason::NodeDown => prop_assert!(
                    inside_any(&node_down, t),
                    "node-down drop at {t}ns outside every scheduled node window {node_down:?}"
                ),
                other => prop_assert!(false, "unexpected drop reason {other:?}"),
            }
        }
        let stats = net.stats;
        prop_assert_eq!(stats.injected, n_packets as u64);
        prop_assert_eq!(stats.delivered + stats.dropped_total(), n_packets as u64);
        prop_assert_eq!(stats.dropped_fault + stats.dropped_node_down, log.drops.len() as u64);
        // An empty schedule means chaos bit nothing.
        if link_down.is_empty() && node_down.is_empty() {
            prop_assert_eq!(stats.dropped_total(), 0);
        }
    }
}

/// One seeded campus run under a full chaos campaign. Returns everything
/// an observer can see: final counters, the exact tap sequence, and the
/// exact drop sequence.
#[allow(clippy::type_complexity)]
fn seeded_chaos_run() -> (NetStats, Vec<(u64, u64, usize)>, Vec<(u64, u8)>) {
    let campus = Campus::build(CampusConfig {
        dist_count: 2,
        access_per_dist: 2,
        hosts_per_access: 2,
        external_hosts: 4,
        ..CampusConfig::default()
    });
    let mut net = campus.net;
    net.set_tap(campus.border_link, true);

    // A bit of everything: flaps and brownouts in the interior, a host
    // crash, and bursty loss on the border.
    let links: Vec<LinkId> = (0..net.link_count())
        .map(LinkId)
        .filter(|l| *l != campus.border_link)
        .collect();
    let cfg = ChaosConfig {
        seed: 0xD15EA5E,
        duration: SimDuration::from_secs(2),
        link_flaps: 3,
        node_crashes: 2,
        brownouts: 2,
        burst: Some(GilbertElliott::new(0.05, 0.3, 0.0, 0.6)),
    };
    let mut plan = cfg.generate(&links, &campus.hosts);
    plan.burst_loss(campus.border_link, GilbertElliott::new(0.03, 0.4, 0.0, 0.5));
    plan.apply_to(&mut net);

    struct Log {
        taps: Vec<(u64, u64, usize)>,
        drops: Vec<(u64, u8)>,
    }
    impl SimHooks for Log {
        fn on_tap(&mut self, now: SimTime, _link: LinkId, _dir: Dir, packet: &Packet, _cmds: &mut Commands) {
            self.taps.push((now.as_nanos(), packet.id, packet.wire_len()));
        }
        fn on_drop(&mut self, now: SimTime, reason: DropReason, _packet: &Packet, _cmds: &mut Commands) {
            self.drops.push((now.as_nanos(), reason as u8));
        }
    }

    let mut b = PacketBuilder::new();
    let hosts: Vec<(NodeId, Ipv4Addr)> = campus
        .hosts
        .iter()
        .map(|&id| {
            let IpAddr::V4(addr) = net.node(id).primary_address().expect("host address") else {
                panic!("expected v4 host");
            };
            (id, addr)
        })
        .collect();
    for i in 0..400u64 {
        let (src_node, src_addr) = hosts[i as usize % hosts.len()];
        let dst = campus.config.external_addr(i as usize % campus.config.external_hosts);
        let pkt = b.udp_v4(
            src_addr,
            dst,
            (1024 + i % 1000) as u16,
            53,
            Payload::Synthetic(100 + (i as usize * 13) % 800),
            64,
            GroundTruth::default(),
        );
        // Back-to-back bursts of ten, one every 50 ms: the 2 s campaign's
        // fault windows open and close across the traffic, and each burst
        // still queues behind itself.
        net.inject(SimTime::from_millis(i / 10 * 50) + SimDuration::from_micros(i % 10 * 3), src_node, pkt);
    }
    let mut log = Log { taps: Vec::new(), drops: Vec::new() };
    net.run(&mut log, None);
    (net.stats, log.taps, log.drops)
}

#[test]
fn chaos_runs_are_byte_identical_sequential_vs_parallel() {
    let runs = parallel_map_with(&[(), ()], 2, |_, _| seeded_chaos_run());
    let (seq_stats, seq_taps, seq_drops) = seeded_chaos_run();
    assert!(!seq_taps.is_empty(), "tap log empty: traffic never crossed the border");
    assert!(!seq_drops.is_empty(), "drop log empty: the campaign injected no faults");
    assert!(seq_stats.dropped_fault > 0, "bursty loss never fired");
    for (stats, taps, drops) in &runs {
        assert_eq!(*stats, seq_stats, "NetStats differ across identically-seeded chaos runs");
        assert_eq!(*taps, seq_taps, "tap sequences differ across identically-seeded chaos runs");
        assert_eq!(*drops, seq_drops, "drop sequences differ across identically-seeded chaos runs");
    }
}
