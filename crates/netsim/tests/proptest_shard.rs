//! The sharded engine's determinism contract, property-tested: on random
//! tree topologies with mixed link latencies, random traffic and random
//! chaos campaigns, the hook-free engine at 1, 2, 4 and 8 shards
//! reproduces the sequential engine — same statistics, same Observatory
//! render, same final clock — and a run with observers attached takes the
//! sequential loop itself and says so.

use campuslab_netsim::prelude::*;
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// Propagation palette: mixing slow and fast links gives the partitioner
/// real cut thresholds (slow links become shard boundaries). Its scale
/// matches the chaos constants (0.4–0.7 s fault windows): packets stay in
/// flight for about a quarter of the 4 s campaign, so roughly one fault
/// in four overlaps live traffic.
const PROPS: [u64; 5] = [500_000, 2_000_000, 5_000_000, 200_000_000, 500_000_000];

/// A generated scenario: tree shape, per-link latency picks, traffic and
/// chaos knobs. Everything downstream derives deterministically from it.
#[derive(Debug, Clone)]
struct Scenario {
    parents: Vec<usize>,
    prop_picks: Vec<usize>,
    pair_seed: u64,
    packets: usize,
    flaps: usize,
    crashes: usize,
    brownouts: usize,
    burst: bool,
    chaos_seed: u64,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (3usize..10)
        .prop_flat_map(|n| {
            (
                proptest::collection::vec(0usize..n, n - 1).prop_map(move |mut v| {
                    for (i, p) in v.iter_mut().enumerate() {
                        *p %= i + 1; // parent index < child index: a tree
                    }
                    v
                }),
                proptest::collection::vec(0usize..PROPS.len(), 64),
                any::<u64>(),
                1usize..40,
                0usize..3,
                0usize..3,
                0usize..3,
                any::<bool>(),
                any::<u64>(),
            )
        })
        .prop_map(
            |(parents, prop_picks, pair_seed, packets, flaps, crashes, brownouts, burst, chaos_seed)| {
                Scenario { parents, prop_picks, pair_seed, packets, flaps, crashes, brownouts, burst, chaos_seed }
            },
        )
}

/// Build the scenario's network: a switch tree with one host per switch,
/// link latencies drawn from the palette, chaos plan applied, the first
/// switch-to-switch link tapped, and the traffic injected up front.
fn build(sc: &Scenario) -> Network {
    let n = sc.parents.len() + 1;
    let mut b = TopologyBuilder::new(11);
    let mut pick = sc.prop_picks.iter().cycle();
    let mut spec = |rate_gbps: u64| LinkSpec {
        rate_bps: rate_gbps * 1_000_000_000,
        propagation: SimDuration::from_nanos(PROPS[*pick.next().unwrap()]),
        queue_bytes: 40_000,
    };
    let mut switches = Vec::with_capacity(n);
    let mut trunk_links = Vec::new();
    switches.push(b.switch("s0"));
    for (i, &p) in sc.parents.iter().enumerate() {
        let s = b.switch(format!("s{}", i + 1));
        trunk_links.push(b.link(switches[p], s, spec(10)));
        switches.push(s);
    }
    let mut hosts = Vec::with_capacity(n);
    for (i, &s) in switches.iter().enumerate() {
        let addr = Ipv4Addr::new(10, 0, (i / 250) as u8, (i % 250 + 1) as u8);
        let h = b.host(format!("h{i}"), addr);
        b.attach_host(h, s, spec(1));
        hosts.push((h, addr));
    }
    let mut net = b.build();

    if let Some(&tap) = trunk_links.first() {
        net.set_tap(tap, true);
    }

    // A 4 s campaign, its fault windows 0.4–0.7 s (the chaos constants).
    let chaos = ChaosConfig {
        seed: sc.chaos_seed,
        duration: SimDuration::from_secs(4),
        link_flaps: sc.flaps,
        node_crashes: sc.crashes,
        brownouts: sc.brownouts,
        burst: sc.burst.then(|| GilbertElliott::new(0.05, 0.3, 0.01, 0.4)),
    };
    let links: Vec<LinkId> = (0..net.link_count()).map(LinkId).collect();
    let switch_nodes: Vec<NodeId> = switches.clone();
    chaos.generate(&links, &switch_nodes).apply_to(&mut net);

    let mut builder = PacketBuilder::new();
    let mut s = sc.pair_seed;
    for k in 0..sc.packets {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let a = (s as usize) % n;
        let d = (s >> 32) as usize % n;
        if a == d {
            continue;
        }
        let (src_node, src_ip) = hosts[a];
        let (_, dst_ip) = hosts[d];
        let pkt = builder.udp_v4(
            src_ip,
            dst_ip,
            1000 + k as u16,
            2000,
            Payload::Synthetic(64),
            64,
            GroundTruth::default(),
        );
        net.inject(SimTime::from_millis(k as u64), src_node, pkt);
    }
    net
}

/// Records every callback in order and issues commands the way the real
/// experiments do: the first tap arms a timer, and the timer injects one
/// extra packet.
struct Recorder {
    log: Vec<String>,
    armed: bool,
    builder: PacketBuilder,
    inject_at: NodeId,
}

impl Recorder {
    fn on(net: &Network) -> Self {
        let inject_at = NodeId(net.node_count() - 1);
        Recorder { log: Vec::new(), armed: false, builder: PacketBuilder::new(), inject_at }
    }
}

impl SimHooks for Recorder {
    fn on_tap(&mut self, now: SimTime, link: LinkId, dir: Dir, packet: &Packet, cmds: &mut Commands) {
        self.log.push(format!("tap {} {:?} {:?} #{}", now.as_nanos(), link, dir, packet.id));
        if !self.armed {
            self.armed = true;
            cmds.set_timer(now + SimDuration::from_micros(100), 7);
        }
    }

    fn on_deliver(
        &mut self,
        now: SimTime,
        node: NodeId,
        packet: &Packet,
        latency: SimDuration,
        _cmds: &mut Commands,
    ) {
        self.log.push(format!(
            "deliver {} {:?} #{} {}",
            now.as_nanos(),
            node,
            packet.id,
            latency.as_nanos()
        ));
    }

    fn on_drop(&mut self, now: SimTime, reason: DropReason, packet: &Packet, _cmds: &mut Commands) {
        self.log.push(format!("drop {} {:?} #{}", now.as_nanos(), reason, packet.id));
    }

    fn on_timer(&mut self, now: SimTime, token: u64, cmds: &mut Commands) {
        self.log.push(format!("timer {} {}", now.as_nanos(), token));
        let (src, dst) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
        let pkt = self.builder.udp_v4(src, dst, 40_000, 2000, Payload::Synthetic(64), 64, GroundTruth::default());
        cmds.inject(now + SimDuration::from_micros(500), self.inject_at, pkt);
    }
}

/// What a run leaves behind that the contract pins.
fn outcome(net: &Network) -> (NetStats, String, u64) {
    (net.stats, net.obs.render(), net.now().as_nanos())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, ..ProptestConfig::default() })]

    /// Sharded == sequential at every shard count, the work/span census
    /// accounts for every event exactly once, and a disabled sink stays
    /// empty.
    #[test]
    fn sharded_matches_sequential(sc in scenario()) {
        let mut seq = build(&sc);
        seq.run_sequential(&mut NullHooks, None);
        for shards in [1usize, 2, 4, 8] {
            let mut net = build(&sc);
            net.run_sharded(&mut NullHooks, None, shards);
            prop_assert_eq!(outcome(&net), outcome(&seq), "diverged at {} shards", shards);
            let report = net.shard_report().expect("a sharded run leaves a report");
            prop_assert!(!report.fell_back, "did not shard at {} shards: {:?}", shards, report);
            prop_assert_eq!(report.work_events, net.obs.event_seq());
            prop_assert!(report.span_events <= report.work_events);
        }
        // A disabled sink books nothing under the sharded engine either.
        let mut quiet = build(&sc);
        quiet.obs.sink.set_enabled(false);
        quiet.run_sharded(&mut NullHooks, None, 4);
        prop_assert_eq!(quiet.stats, seq.stats);
        prop_assert_eq!(quiet.obs.render(), NetObs::new().render());
    }

    /// The engine is hook-free: with observers attached it runs the
    /// sequential loop — same callback sequence, same outcome — and
    /// reports `fell_back` instead of sharding.
    #[test]
    fn observed_run_falls_back_to_sequential(sc in scenario()) {
        let mut seq = build(&sc);
        let (mut seq_rec, mut rec) = (Recorder::on(&seq), Recorder::on(&seq));
        seq.run_sequential(&mut seq_rec, None);
        let mut net = build(&sc);
        net.run_sharded(&mut rec, None, 4);
        let report = net.shard_report().expect("a sharded run leaves a report");
        prop_assert!(report.fell_back && report.windows == 0, "{:?}", report);
        prop_assert_eq!(rec.log, seq_rec.log);
        prop_assert_eq!(outcome(&net), outcome(&seq));
    }
}
