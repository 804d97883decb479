//! Property tests for topology construction and routing: on random tree
//! topologies, every host can reach every other host, and delivery
//! accounting always balances.

use campuslab_netsim::prelude::*;
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// Build a random tree of switches (parent[i] < i) with one host hanging
/// off each switch. Returns the network plus the host list with addresses.
fn build_tree(parents: &[usize]) -> (Network, Vec<(NodeId, Ipv4Addr)>) {
    let n = parents.len() + 1;
    let mut b = TopologyBuilder::new(1);
    let mut switches = Vec::with_capacity(n);
    switches.push(b.switch("s0"));
    for (i, &p) in parents.iter().enumerate() {
        let s = b.switch(format!("s{}", i + 1));
        b.link(
            switches[p],
            s,
            LinkSpec::gbps(10, SimDuration::from_micros(10)),
        );
        switches.push(s);
    }
    let mut hosts = Vec::with_capacity(n);
    for (i, &s) in switches.iter().enumerate() {
        let addr = Ipv4Addr::new(10, 0, (i / 250) as u8, (i % 250 + 1) as u8);
        let h = b.host(format!("h{i}"), addr);
        b.attach_host(h, s, LinkSpec::gbps(1, SimDuration::from_micros(5)));
        hosts.push((h, addr));
    }
    (b.build(), hosts)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// All-pairs-sampled reachability on random trees: BFS-installed routes
    /// deliver between arbitrary hosts.
    #[test]
    fn random_trees_route_all_sampled_pairs(
        // parents[i] is the parent of switch i+1: a random tree shape.
        shape in proptest::collection::vec(0usize..1, 1..2).prop_flat_map(|_| {
            (2usize..12).prop_flat_map(|n| {
                proptest::collection::vec(0usize..n, n - 1)
                    .prop_map(move |mut v| {
                        for (i, p) in v.iter_mut().enumerate() {
                            *p %= i + 1; // ensure parent index < child index
                        }
                        v
                    })
            })
        }),
        pair_seed in any::<u64>(),
    ) {
        let (mut net, hosts) = build_tree(&shape);
        let n = hosts.len();
        // Sample a handful of ordered pairs deterministically.
        let mut builder = PacketBuilder::new();
        let mut expected = 0u64;
        let mut s = pair_seed;
        for k in 0..(2 * n) {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let a = (s as usize) % n;
            let bdx = (s >> 32) as usize % n;
            if a == bdx {
                continue;
            }
            let (src_node, src_ip) = hosts[a];
            let (_, dst_ip) = hosts[bdx];
            let pkt = builder.udp_v4(
                src_ip, dst_ip, 1000 + k as u16, 2000, Payload::Synthetic(64), 64,
                GroundTruth::default(),
            );
            net.inject(SimTime::from_micros(k as u64 * 50), src_node, pkt);
            expected += 1;
        }
        let stats = net.run_to_completion();
        prop_assert_eq!(stats.injected, expected);
        prop_assert_eq!(stats.delivered, expected, "{:?}", stats);
        prop_assert_eq!(stats.dropped_total(), 0);
    }

    /// Conservation under random loss: injected = delivered + dropped.
    #[test]
    fn conservation_under_random_loss(drop_p in 0.0f64..0.9, n_packets in 1usize..200) {
        let (mut net, hosts) = build_tree(&[0, 0, 1]);
        // Lossy first switch-to-switch link: i.i.d. loss from a channel
        // that never leaves its good state.
        net.link_mut(LinkId(0)).install_burst(&GilbertElliott::new(0.0, 0.0, drop_p, 0.0));
        let mut builder = PacketBuilder::new();
        let (src_node, src_ip) = hosts[0];
        let (_, dst_ip) = hosts[3];
        for k in 0..n_packets {
            let pkt = builder.udp_v4(
                src_ip, dst_ip, 1000, 2000, Payload::Synthetic(64), 64, GroundTruth::default(),
            );
            net.inject(SimTime::from_micros(k as u64 * 20), src_node, pkt);
        }
        let stats = net.run_to_completion();
        prop_assert_eq!(stats.injected, n_packets as u64);
        prop_assert_eq!(stats.delivered + stats.dropped_total(), n_packets as u64);
        if drop_p == 0.0 {
            prop_assert_eq!(stats.delivered, n_packets as u64);
        }
    }
}
