//! Integration tests for the zero-copy packet fast path.
//!
//! Two properties the fast path must keep forever:
//!
//! 1. A drop-free run never invokes `Packet::clone` — packets move by
//!    value (boxed) from injection to delivery, and the link hands a
//!    rejected packet *back* instead of forcing a speculative snapshot.
//! 2. Running the same seeded simulation on parallel workers produces
//!    byte-identical statistics and tap sequences: parallelism across
//!    runs must not perturb ordering within a run.

use campuslab_netsim::packet::clone_count;
use campuslab_netsim::par::parallel_map_with;
use campuslab_netsim::prelude::*;
use std::net::{IpAddr, Ipv4Addr};

/// h1 -- s1 -- h2 with roomy drop-tail queues: nothing can drop.
fn line_net() -> (Network, NodeId) {
    let mut b = TopologyBuilder::new(42);
    let s1 = b.switch("s1");
    let h1 = b.host("h1", Ipv4Addr::new(10, 0, 0, 1));
    let h2 = b.host("h2", Ipv4Addr::new(10, 0, 0, 2));
    b.attach_host(h1, s1, LinkSpec::gbps(1, SimDuration::from_micros(10)));
    b.attach_host(h2, s1, LinkSpec::gbps(1, SimDuration::from_micros(10)));
    (b.build(), h1)
}

#[test]
fn drop_free_run_never_clones_a_packet() {
    let (mut net, h1) = line_net();
    let mut b = PacketBuilder::new();
    let before = clone_count();
    // 512-byte datagrams every 50 us on gigabit links: the queues never
    // build, so every packet takes the pure move path end to end.
    for i in 0..200u64 {
        let pkt = b.udp_v4(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1000,
            2000,
            Payload::Bytes(vec![0u8; 512].into()),
            64,
            GroundTruth::default(),
        );
        net.inject(SimTime::from_micros(i * 50), h1, pkt);
    }
    let stats = net.run_to_completion();
    assert_eq!(stats.injected, 200);
    assert_eq!(stats.delivered, 200);
    assert_eq!(stats.dropped_total(), 0);
    assert_eq!(
        clone_count() - before,
        0,
        "the drop-free forwarding path invoked Packet::clone"
    );
}

#[test]
fn fault_and_chaos_drops_never_clone_a_packet() {
    // The drop path must stay zero-copy too: a packet rejected by the
    // fault model (a down link, bursty loss) is handed back and freed,
    // never snapshotted.
    let (mut net, h1) = line_net();
    // Both flavors of chaos loss on h1's uplink: hard down for the first
    // half, certain loss after.
    let uplink = LinkId(0);
    let mut plan = ChaosPlan::new();
    plan.link_flap(uplink, SimTime::ZERO, SimTime::from_millis(5))
        .burst_loss(uplink, GilbertElliott::new(1.0, 0.0, 1.0, 1.0));
    plan.apply_to(&mut net);

    let mut b = PacketBuilder::new();
    let before = clone_count();
    for i in 0..200u64 {
        let pkt = b.udp_v4(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1000,
            2000,
            Payload::Bytes(vec![0u8; 512].into()),
            64,
            GroundTruth::default(),
        );
        net.inject(SimTime::from_micros(i * 50), h1, pkt);
    }
    let stats = net.run_to_completion();
    assert_eq!(stats.injected, 200);
    assert_eq!(stats.delivered, 0);
    assert_eq!(stats.dropped_fault, 200);
    assert_eq!(
        clone_count() - before,
        0,
        "the fault/chaos drop path invoked Packet::clone"
    );
}

#[test]
fn payload_clone_is_refcounted_not_copied() {
    let payload = Payload::Bytes(vec![7u8; 1 << 20].into());
    // Cloning a megabyte payload must not copy it: Arc-backed bytes
    // share the same allocation.
    let clone = payload.clone();
    match (&payload, &clone) {
        (Payload::Bytes(a), Payload::Bytes(b)) => {
            assert!(std::ptr::eq(a.as_ptr(), b.as_ptr()), "payload bytes were copied");
        }
        _ => panic!("clone changed payload variant"),
    }
}

/// One seeded campus run: cross-border traffic with the border tap on.
/// Returns everything an observer can see — final counters plus the
/// exact tap sequence.
fn seeded_campus_run() -> (NetStats, Vec<(u64, usize, u64, usize)>) {
    let campus = Campus::build(CampusConfig {
        dist_count: 2,
        access_per_dist: 2,
        hosts_per_access: 2,
        external_hosts: 4,
        ..CampusConfig::default()
    });
    let mut net = campus.net;
    net.set_tap(campus.border_link, true);

    struct TapLog {
        taps: Vec<(u64, usize, u64, usize)>,
    }
    impl SimHooks for TapLog {
        fn on_tap(
            &mut self,
            now: SimTime,
            link: LinkId,
            _dir: Dir,
            packet: &Packet,
            _cmds: &mut Commands,
        ) {
            self.taps.push((now.as_nanos(), link.0, packet.id, packet.wire_len()));
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
    // Bursty traffic from every internal host to the external set, so
    // every packet crosses the tapped border link.
    for i in 0..400u64 {
        let (src_node, src_addr) = hosts[i as usize % hosts.len()];
        let dst = campus.config.external_addr(i as usize % campus.config.external_hosts);
        let pkt = b.udp_v4(
            src_addr,
            dst,
            (1024 + i % 1000) as u16,
            53,
            Payload::Bytes(vec![i as u8; 100 + (i as usize * 13) % 800].into()),
            64,
            GroundTruth::default(),
        );
        net.inject(SimTime::from_micros(i * 3), src_node, pkt);
    }
    let mut log = TapLog { taps: Vec::new() };
    net.run(&mut log, None);
    (net.stats, log.taps)
}

#[test]
fn parallel_runs_are_byte_identical() {
    // The same seeded simulation on two concurrent workers and once
    // sequentially: all three observations must agree exactly.
    let runs = parallel_map_with(&[(), ()], 2, |_, _| seeded_campus_run());
    let (seq_stats, seq_taps) = seeded_campus_run();
    assert!(!seq_taps.is_empty(), "tap log empty: traffic never crossed the border");
    for (stats, taps) in &runs {
        assert_eq!(*stats, seq_stats, "NetStats differ across identically-seeded runs");
        assert_eq!(*taps, seq_taps, "tap sequences differ across identically-seeded runs");
    }
}
