//! Topology construction: a general builder plus the canonical three-tier
//! campus network preset used throughout CampusLab.

use crate::link::{drop_tail_for, Link, LinkId};
use crate::lpm::Prefix;
use crate::network::Network;
use crate::node::{Node, NodeId, NodeKind};
use crate::time::SimDuration;
use std::collections::VecDeque;
use std::net::{IpAddr, Ipv4Addr};

/// Physical parameters of a link.
#[derive(Debug, Clone, Copy)]
pub struct LinkSpec {
    pub rate_bps: u64,
    pub propagation: SimDuration,
    /// Drop-tail queue capacity per direction, in bytes.
    pub queue_bytes: usize,
}

impl LinkSpec {
    /// A link with a drop-tail buffer holding ~5 ms at line rate.
    pub fn new(rate_bps: u64, propagation: SimDuration) -> Self {
        LinkSpec {
            rate_bps,
            propagation,
            queue_bytes: drop_tail_for(rate_bps, 5),
        }
    }

    /// Gigabit shorthand.
    pub fn gbps(g: u64, propagation: SimDuration) -> Self {
        Self::new(g * 1_000_000_000, propagation)
    }
}

/// Incrementally builds a [`Network`], then computes routes.
pub struct TopologyBuilder {
    net: Network,
    /// Prefixes advertised by each node, used by `build` to fill routing
    /// tables via BFS (shortest hop-count paths).
    advertised: Vec<(NodeId, Prefix)>,
}

impl TopologyBuilder {
    /// Start a topology with the RNG seed used for fault models.
    pub fn new(seed: u64) -> Self {
        TopologyBuilder { net: Network::new(seed), advertised: Vec::new() }
    }

    /// Add a switch.
    pub fn switch(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.net.node_count());
        self.net.push_node(Node::switch(id, name))
    }

    /// Add a host with one IPv4 address. The host advertises a /32 for
    /// itself; attach it with [`TopologyBuilder::attach_host`].
    pub fn host(&mut self, name: impl Into<String>, addr: Ipv4Addr) -> NodeId {
        let id = NodeId(self.net.node_count());
        let id = self.net.push_node(Node::host(id, name, vec![IpAddr::V4(addr)]));
        self.advertised.push((id, Prefix::v4(addr, 32)));
        id
    }

    /// Connect two nodes.
    pub fn link(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> LinkId {
        let id = LinkId(self.net.links.len());
        self.net.push_link(Link::new(id, a, b, spec.rate_bps, spec.propagation, spec.queue_bytes))
    }

    /// Connect a host to its access switch and set the link as its gateway.
    pub fn attach_host(&mut self, host: NodeId, switch: NodeId, spec: LinkSpec) -> LinkId {
        let link = self.link(host, switch, spec);
        match &mut self.net.nodes[host.0].kind {
            NodeKind::Host { gateway, .. } => *gateway = Some(link),
            NodeKind::Switch { .. } => panic!("attach_host target is not a host"),
        }
        link
    }

    /// Advertise an aggregate prefix from a node (e.g. an access switch
    /// advertising its /24, or the border advertising a default route).
    pub fn advertise(&mut self, node: NodeId, prefix: Prefix) {
        self.advertised.push((node, prefix));
    }

    /// Compute routes for every advertised prefix (BFS shortest paths) and
    /// return the finished network.
    pub fn build(mut self) -> Network {
        let n = self.net.node_count();
        // Adjacency: node -> (link, neighbor).
        let mut adj: Vec<Vec<(LinkId, NodeId)>> = vec![Vec::new(); n];
        for link in &self.net.links {
            adj[link.a.0].push((link.id, link.b));
            adj[link.b.0].push((link.id, link.a));
        }
        for &(origin, prefix) in &self.advertised {
            // BFS from the advertising node; `via[v]` is the link v uses
            // toward the origin.
            let mut via: Vec<Option<LinkId>> = vec![None; n];
            let mut seen = vec![false; n];
            seen[origin.0] = true;
            let mut frontier = VecDeque::from([origin]);
            while let Some(u) = frontier.pop_front() {
                for &(link, v) in &adj[u.0] {
                    if !seen[v.0] {
                        seen[v.0] = true;
                        via[v.0] = Some(link);
                        // Hosts do not forward; don't BFS through them.
                        if matches!(self.net.nodes[v.0].kind, NodeKind::Switch { .. }) {
                            frontier.push_back(v);
                        }
                    }
                }
            }
            for (v, &hop) in via.iter().enumerate() {
                if v == origin.0 {
                    continue;
                }
                if let (Some(link), NodeKind::Switch { .. }) = (hop, &self.net.nodes[v].kind) {
                    self.net.nodes[v].install_route(prefix, link);
                }
            }
        }
        self.net
    }
}

/// Shape parameters for the canonical campus topology.
///
/// The defaults produce a small university: a border router behind a
/// 10 Gbps upstream (the paper's stated 10–20 Gbps range), a core, four
/// distribution switches, four access switches each, and a dozen hosts per
/// access switch, plus a server enclave (DNS resolver, web, mail) and a set
/// of external Internet hosts.
#[derive(Debug, Clone)]
pub struct CampusConfig {
    pub name: String,
    /// Second octet of the campus 10.x.0.0/16 prefix; lets multiple
    /// simulated campuses coexist with disjoint address space.
    pub index: u8,
    pub dist_count: usize,
    pub access_per_dist: usize,
    pub hosts_per_access: usize,
    pub external_hosts: usize,
    /// Upstream (border) link rate. Below 1 Gbps the link models an
    /// under-provisioned or degraded uplink — the knob for
    /// congestion/performance experiments — and gets a 50 ms buffer.
    pub upstream_mbps: u64,
    pub seed: u64,
}

impl Default for CampusConfig {
    fn default() -> Self {
        CampusConfig {
            name: "campus".into(),
            index: 1,
            dist_count: 4,
            access_per_dist: 4,
            hosts_per_access: 12,
            external_hosts: 24,
            upstream_mbps: 10_000,
            seed: 0xCA_1AB,
        }
    }
}

impl CampusConfig {
    /// The campus 10.index.0.0/16 aggregate.
    pub fn campus_prefix(&self) -> Prefix {
        Prefix::v4(Ipv4Addr::new(10, self.index, 0, 0), 16)
    }

    /// Address of host `h` on access switch `a` of distribution tier `d`.
    pub fn host_addr(&self, d: usize, a: usize, h: usize) -> Ipv4Addr {
        Ipv4Addr::new(
            10,
            self.index,
            (d * self.access_per_dist + a + 1) as u8,
            (h + 10) as u8,
        )
    }

    /// Address of the n-th external (Internet) host.
    pub fn external_addr(&self, n: usize) -> Ipv4Addr {
        // TEST-NET-3 plus a wrap into TEST-NET-2 for larger counts.
        if n < 200 {
            Ipv4Addr::new(203, 0, 113, (n + 1) as u8)
        } else {
            Ipv4Addr::new(198, 51, 100, ((n - 200) % 254 + 1) as u8)
        }
    }
}

/// The upstream link at `mbps`, 5 ms to "the Internet" (the paper's range
/// is 10-20 Gbps). Degraded sub-gigabit uplinks get the deep
/// (bufferbloated) 50 ms queue real provider edges carry; gigabit and
/// faster links keep [`LinkSpec::new`]'s shallow 5 ms buffer.
fn upstream_link(mbps: u64) -> LinkSpec {
    let mut spec = LinkSpec::new(mbps * 1_000_000, SimDuration::from_millis(5));
    if mbps < 1_000 {
        spec.queue_bytes = drop_tail_for(spec.rate_bps, 50);
    }
    spec
}

/// The server enclave of a campus.
#[derive(Debug, Clone, Copy)]
pub struct CampusServers {
    /// The campus recursive DNS resolver (10.x.255.53).
    pub dns: NodeId,
    /// The campus web server (10.x.255.80).
    pub web: NodeId,
    /// The campus mail server (10.x.255.25).
    pub mail: NodeId,
}

/// A built campus: the network plus the handles experiments need.
pub struct Campus {
    pub net: Network,
    pub config: CampusConfig,
    /// The aggregation point representing the upstream Internet.
    pub internet: NodeId,
    /// The campus border router.
    pub border: NodeId,
    /// The campus core switch.
    pub core: NodeId,
    /// The upstream link (internet <-> border) — where the paper's border
    /// tap and monitoring appliance live.
    pub border_link: LinkId,
    /// All internal end hosts.
    pub hosts: Vec<NodeId>,
    pub servers: CampusServers,
    /// External Internet hosts (web services, open resolvers, attackers).
    pub external: Vec<NodeId>,
}

impl Campus {
    /// Build a campus from its configuration.
    pub fn build(config: CampusConfig) -> Campus {
        let mut b = TopologyBuilder::new(config.seed);
        let internet = b.switch("internet-xchg");
        let border = b.switch(format!("{}-border", config.name));
        let core = b.switch(format!("{}-core", config.name));

        let us = SimDuration::from_micros;
        let border_link = b.link(internet, border, upstream_link(config.upstream_mbps));
        b.link(border, core, LinkSpec::gbps(40, us(50)));

        // Server enclave on the core.
        let dns = b.host(
            format!("{}-dns", config.name),
            Ipv4Addr::new(10, config.index, 255, 53),
        );
        let web = b.host(
            format!("{}-web", config.name),
            Ipv4Addr::new(10, config.index, 255, 80),
        );
        let mail = b.host(
            format!("{}-mail", config.name),
            Ipv4Addr::new(10, config.index, 255, 25),
        );
        for server in [dns, web, mail] {
            b.attach_host(server, core, LinkSpec::gbps(10, us(20)));
        }

        // Distribution and access tiers.
        let mut hosts = Vec::new();
        for d in 0..config.dist_count {
            let dist = b.switch(format!("{}-dist{}", config.name, d));
            b.link(core, dist, LinkSpec::gbps(20, us(30)));
            for a in 0..config.access_per_dist {
                let access = b.switch(format!("{}-acc{}-{}", config.name, d, a));
                b.link(dist, access, LinkSpec::gbps(10, us(20)));
                let subnet = Ipv4Addr::new(
                    10,
                    config.index,
                    (d * config.access_per_dist + a + 1) as u8,
                    0,
                );
                b.advertise(access, Prefix::v4(subnet, 24));
                for h in 0..config.hosts_per_access {
                    let addr = config.host_addr(d, a, h);
                    let host = b.host(format!("{}-h{}-{}-{}", config.name, d, a, h), addr);
                    b.attach_host(host, access, LinkSpec::gbps(1, us(5)));
                    hosts.push(host);
                }
            }
        }

        // External hosts hang off the internet exchange.
        let mut external = Vec::new();
        for n in 0..config.external_hosts {
            let host = b.host(format!("ext{}", n), config.external_addr(n));
            b.attach_host(host, internet, LinkSpec::gbps(10, SimDuration::from_millis(2)));
            external.push(host);
        }

        // The border advertises the campus aggregate toward the Internet,
        // and a default route toward the Internet into the campus.
        b.advertise(border, config.campus_prefix());
        b.advertise(internet, Prefix::v4_default());

        let mut net = b.build();
        // The paper's monitoring premise: tap the border.
        net.set_tap(border_link, true);

        Campus {
            net,
            config,
            internet,
            border,
            core,
            border_link,
            hosts,
            servers: CampusServers { dns, web, mail },
            external,
        }
    }

    /// Convenience: the IPv4 address of a node.
    pub fn addr_of(&self, node: NodeId) -> Ipv4Addr {
        match self.net.node(node).primary_address() {
            Some(IpAddr::V4(a)) => a,
            _ => panic!("node has no IPv4 address"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Dir;
    use crate::network::{Commands, SimHooks};
    use crate::packet::{GroundTruth, Packet, PacketBuilder, Payload};
    use crate::time::SimTime;

    /// Runs `net` to completion and counts the packets that arrived over
    /// the border link, which `Campus::build` taps.
    fn border_crossings(net: &mut Network, border: LinkId) -> u64 {
        struct Taps(LinkId, u64);
        impl SimHooks for Taps {
            fn on_tap(&mut self, _: SimTime, link: LinkId, _: Dir, _: &Packet, _: &mut Commands) {
                self.1 += u64::from(link == self.0);
            }
        }
        let mut taps = Taps(border, 0);
        net.run(&mut taps, None);
        taps.1
    }

    #[test]
    fn default_campus_builds() {
        let campus = Campus::build(CampusConfig::default());
        // 3 core switches + 3 servers + 4 dist + 16 access + 192 hosts + 24 ext
        assert_eq!(campus.hosts.len(), 4 * 4 * 12);
        assert_eq!(campus.external.len(), 24);
        assert!(campus.net.node_count() > 200);
    }

    #[test]
    fn host_to_host_across_campus() {
        let campus = Campus::build(CampusConfig::default());
        let mut net = campus.net;
        let src = campus.hosts[0];
        let dst = *campus.hosts.last().unwrap();
        let (src_ip, dst_ip) = match (
            net.node(src).primary_address().unwrap(),
            net.node(dst).primary_address().unwrap(),
        ) {
            (IpAddr::V4(a), IpAddr::V4(b)) => (a, b),
            _ => unreachable!(),
        };
        let mut b = PacketBuilder::new();
        net.inject(
            SimTime::ZERO,
            src,
            b.udp_v4(src_ip, dst_ip, 1, 2, Payload::Synthetic(100), 64, GroundTruth::default()),
        );
        let stats = net.run_to_completion();
        assert_eq!(stats.delivered, 1, "{stats:?}");
    }

    #[test]
    fn host_to_internet_and_back() {
        let campus = Campus::build(CampusConfig::default());
        let src_ip = campus.addr_of(campus.hosts[3]);
        let ext_ip = campus.addr_of(campus.external[0]);
        let mut net = campus.net;
        let mut b = PacketBuilder::new();
        net.inject(
            SimTime::ZERO,
            campus.hosts[3],
            b.udp_v4(src_ip, ext_ip, 1, 2, Payload::Synthetic(100), 64, GroundTruth::default()),
        );
        net.inject(
            SimTime::from_millis(50),
            campus.external[0],
            b.udp_v4(ext_ip, src_ip, 2, 1, Payload::Synthetic(100), 64, GroundTruth::default()),
        );
        // Both packets crossed the tapped border link.
        assert_eq!(border_crossings(&mut net, campus.border_link), 2);
        assert_eq!(net.stats.delivered, 2, "{:?}", net.stats);
    }

    #[test]
    fn dns_server_is_reachable() {
        let campus = Campus::build(CampusConfig::default());
        let src_ip = campus.addr_of(campus.hosts[7]);
        let dns_ip = campus.addr_of(campus.servers.dns);
        assert_eq!(dns_ip, Ipv4Addr::new(10, 1, 255, 53));
        let mut net = campus.net;
        let mut b = PacketBuilder::new();
        net.inject(
            SimTime::ZERO,
            campus.hosts[7],
            b.udp_v4(src_ip, dns_ip, 5353, 53, Payload::Synthetic(40), 64, GroundTruth::default()),
        );
        assert_eq!(net.run_to_completion().delivered, 1);
    }

    #[test]
    fn external_to_external_does_not_enter_campus() {
        let campus = Campus::build(CampusConfig::default());
        let a_ip = campus.addr_of(campus.external[0]);
        let b_ip = campus.addr_of(campus.external[1]);
        let border_before = campus.border_link;
        let mut net = campus.net;
        let mut builder = PacketBuilder::new();
        net.inject(
            SimTime::ZERO,
            campus.external[0],
            builder.udp_v4(a_ip, b_ip, 1, 2, Payload::Synthetic(10), 64, GroundTruth::default()),
        );
        assert_eq!(border_crossings(&mut net, border_before), 0);
        assert_eq!(net.stats.delivered, 1);
    }

    /// The upstream buffer follows the rate: 50 ms of line rate below
    /// 1 Gbps, `LinkSpec::new`'s 5 ms from 1 Gbps up.
    #[test]
    fn upstream_buffer_deepens_below_one_gigabit() {
        for (mbps, buffer_ms) in [(50, 50), (999, 50), (1_000, 5), (10_000, 5)] {
            let rate = mbps * 1_000_000;
            assert_eq!(upstream_link(mbps).queue_bytes, drop_tail_for(rate, buffer_ms), "{mbps} Mbps");
        }
        let campus = Campus::build(CampusConfig {
            upstream_mbps: 50,
            dist_count: 1,
            access_per_dist: 1,
            hosts_per_access: 2,
            external_hosts: 2,
            ..CampusConfig::default()
        });
        assert_eq!(campus.net.link(campus.border_link).rate_bps, 50_000_000);
    }

    #[test]
    fn two_campuses_have_disjoint_prefixes() {
        let c1 = CampusConfig { index: 1, ..CampusConfig::default() };
        let c2 = CampusConfig { index: 2, ..CampusConfig::default() };
        assert_ne!(c1.campus_prefix(), c2.campus_prefix());
        assert_ne!(c1.host_addr(0, 0, 0), c2.host_addr(0, 0, 0));
    }

    #[test]
    fn builder_rejects_attach_to_switch_target() {
        let mut b = TopologyBuilder::new(0);
        let s1 = b.switch("s1");
        let s2 = b.switch("s2");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.attach_host(s1, s2, LinkSpec::gbps(1, SimDuration::ZERO));
        }));
        assert!(result.is_err());
    }
}
