//! Nodes: hosts, switches and the upstream "internet" aggregation point.

use crate::link::LinkId;
use crate::fxhash::FxHashMap;
use crate::lpm::LpmTable;
use crate::packet::Packet;
use crate::time::SimTime;
use std::net::{IpAddr, Ipv4Addr};

/// Identifies a node in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize)]
pub struct NodeId(pub usize);

/// The verdict of an ingress packet program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterAction {
    /// Forward normally.
    Forward,
    /// Drop at ingress.
    Drop,
}

/// An ingress packet program attached to a switch — the deployment target
/// for compiled learning models (paper §5, road-map step (iii)).
///
/// The program runs on every packet entering the switch, before routing,
/// exactly like a match-action pipeline on a programmable ASIC.
pub trait PacketFilter: Send {
    /// Decide this packet's fate.
    fn decide(&mut self, now: SimTime, packet: &Packet) -> FilterAction;

    /// A short human-readable name for reports.
    fn name(&self) -> &str {
        "filter"
    }
}

/// Role-specific node state.
#[derive(Debug)]
pub enum NodeKind {
    /// An end host with one or more addresses, attached by a single access
    /// link it uses as its default gateway.
    Host { addrs: Vec<IpAddr>, gateway: Option<LinkId> },
    /// A switch/router forwarding by longest-prefix match.
    Switch { routes: LpmTable<LinkId> },
}

/// A node in the simulated network.
pub struct Node {
    pub id: NodeId,
    pub name: String,
    pub kind: NodeKind,
    /// Links attached to this node.
    pub ports: Vec<LinkId>,
    /// Optional ingress program (switches only, but harmless on hosts).
    pub filter: Option<Box<dyn PacketFilter>>,
    /// Open `ChaosAction::NodeDown` transitions not yet matched by a
    /// `NodeUp`: while above zero the node drops every packet it would
    /// otherwise receive or originate.
    pub down: u32,
    /// Memoized `route()` results, keyed by the IPv4 destination's bits
    /// (a packet's network header is IPv4 only). The LPM table is a
    /// linear scan, and a forwarding node sees the same handful of
    /// destinations over and over; cleared whenever a route is installed.
    route_cache: FxHashMap<u32, Option<LinkId>>,
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("kind", &self.kind)
            .field("ports", &self.ports)
            .field("filter", &self.filter.as_ref().map(|x| x.name().to_string()))
            .finish()
    }
}

impl Node {
    /// Create a host node.
    pub fn host(id: NodeId, name: impl Into<String>, addrs: Vec<IpAddr>) -> Self {
        Node {
            id,
            name: name.into(),
            kind: NodeKind::Host { addrs, gateway: None },
            ports: Vec::new(),
            filter: None,
            down: 0,
            route_cache: FxHashMap::default(),
        }
    }

    /// Create a switch node.
    pub fn switch(id: NodeId, name: impl Into<String>) -> Self {
        Node {
            id,
            name: name.into(),
            kind: NodeKind::Switch { routes: LpmTable::new() },
            ports: Vec::new(),
            filter: None,
            down: 0,
            route_cache: FxHashMap::default(),
        }
    }

    /// True while a chaos crash is in effect.
    pub fn is_down(&self) -> bool {
        self.down > 0
    }

    /// True when `ip` is one of this host's addresses.
    pub fn owns_address(&self, ip: IpAddr) -> bool {
        match &self.kind {
            NodeKind::Host { addrs, .. } => addrs.contains(&ip),
            NodeKind::Switch { .. } => false,
        }
    }

    /// The host's primary address.
    pub fn primary_address(&self) -> Option<IpAddr> {
        match &self.kind {
            NodeKind::Host { addrs, .. } => addrs.first().copied(),
            NodeKind::Switch { .. } => None,
        }
    }

    /// Next-hop link for `dst`, per this node's role.
    pub fn route(&self, dst: IpAddr) -> Option<LinkId> {
        match &self.kind {
            NodeKind::Host { gateway, .. } => *gateway,
            NodeKind::Switch { routes } => routes.lookup(dst).copied(),
        }
    }

    /// `route()`, memoized. Switches pay the linear LPM scan once per
    /// destination; hosts just read their gateway.
    pub(crate) fn route_cached(&mut self, dst: Ipv4Addr) -> Option<LinkId> {
        match &self.kind {
            NodeKind::Host { gateway, .. } => *gateway,
            NodeKind::Switch { routes } => *self
                .route_cache
                .entry(u32::from(dst))
                .or_insert_with(|| routes.lookup(IpAddr::V4(dst)).copied()),
        }
    }

    /// Install a route (switches only; panics on hosts, which route via
    /// their gateway).
    pub fn install_route(&mut self, prefix: crate::lpm::Prefix, link: LinkId) {
        match &mut self.kind {
            NodeKind::Switch { routes } => {
                routes.insert(prefix, link);
                self.route_cache.clear();
            }
            NodeKind::Host { .. } => panic!("cannot install routes on a host"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lpm::Prefix;
    use std::net::Ipv4Addr;

    #[test]
    fn host_routes_via_gateway() {
        let mut h = Node::host(NodeId(0), "h0", vec!["10.0.0.1".parse().unwrap()]);
        assert_eq!(h.route("8.8.8.8".parse().unwrap()), None);
        if let NodeKind::Host { gateway, .. } = &mut h.kind {
            *gateway = Some(LinkId(3));
        }
        assert_eq!(h.route("8.8.8.8".parse().unwrap()), Some(LinkId(3)));
        assert!(h.owns_address("10.0.0.1".parse().unwrap()));
        assert!(!h.owns_address("10.0.0.2".parse().unwrap()));
        assert_eq!(h.primary_address(), Some("10.0.0.1".parse().unwrap()));
    }

    #[test]
    fn switch_routes_by_lpm() {
        let mut s = Node::switch(NodeId(1), "core");
        s.install_route(Prefix::v4(Ipv4Addr::new(10, 0, 0, 0), 8), LinkId(1));
        s.install_route(Prefix::v4_default(), LinkId(0));
        assert_eq!(s.route("10.9.9.9".parse().unwrap()), Some(LinkId(1)));
        assert_eq!(s.route("1.1.1.1".parse().unwrap()), Some(LinkId(0)));
        assert_eq!(s.primary_address(), None);
    }

    #[test]
    #[should_panic(expected = "cannot install routes on a host")]
    fn installing_route_on_host_panics() {
        let mut h = Node::host(NodeId(0), "h0", vec![]);
        h.install_route(Prefix::v4_default(), LinkId(0));
    }
}
