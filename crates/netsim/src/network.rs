//! The network: nodes + links + the event loop that moves packets.
//!
//! User code observes and steers a running simulation through the
//! [`SimHooks`] trait. Hooks receive immutable views of simulator state and
//! push [`Command`]s, which the loop applies after each callback — this
//! keeps the borrow structure simple and every run deterministic.

use crate::chaos::ChaosAction;
use crate::event::{EventKey, EventQueue};
use crate::link::{Dir, Link, LinkId, Offer};
use crate::node::{FilterAction, Node, NodeId, NodeKind, PacketFilter};
use crate::observe::NetObs;
use crate::packet::Packet;
use crate::time::{SimDuration, SimTime};

/// Why a packet failed to reach its destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// Queue discipline rejected it (congestion).
    Queue,
    /// Link fault model rejected it (loss or outage).
    Fault,
    /// An ingress packet program dropped it.
    Filter,
    /// TTL expired in transit.
    Ttl,
    /// No route to the destination.
    NoRoute,
    /// The node it arrived at (or departed from) was down.
    NodeDown,
}

impl DropReason {
    /// Every reason, once.
    pub(crate) const ALL: [DropReason; 6] =
        [Self::Queue, Self::Fault, Self::Filter, Self::Ttl, Self::NoRoute, Self::NodeDown];
}

/// Aggregate simulation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct NetStats {
    pub injected: u64,
    pub delivered: u64,
    pub delivered_bytes: u64,
    pub dropped_queue: u64,
    pub dropped_fault: u64,
    pub dropped_filter: u64,
    pub dropped_ttl: u64,
    pub dropped_no_route: u64,
    pub dropped_node_down: u64,
    /// Sum of end-to-end latencies over delivered packets.
    pub latency_sum: SimDuration,
}

impl NetStats {
    /// The drop counter for one cause.
    pub(crate) fn dropped_mut(&mut self, reason: DropReason) -> &mut u64 {
        match reason {
            DropReason::Queue => &mut self.dropped_queue,
            DropReason::Fault => &mut self.dropped_fault,
            DropReason::Filter => &mut self.dropped_filter,
            DropReason::Ttl => &mut self.dropped_ttl,
            DropReason::NoRoute => &mut self.dropped_no_route,
            DropReason::NodeDown => &mut self.dropped_node_down,
        }
    }

    /// Total drops across all causes.
    pub fn dropped_total(&self) -> u64 {
        let mut copy = *self;
        DropReason::ALL.iter().map(|&reason| *copy.dropped_mut(reason)).sum()
    }

    /// Delivered fraction of injected packets.
    pub fn delivery_ratio(&self) -> f64 {
        if self.injected == 0 {
            return 0.0;
        }
        self.delivered as f64 / self.injected as f64
    }
}

/// Deferred mutations pushed by hooks and applied by the event loop.
pub enum Command {
    /// Attach (or replace) the ingress program on a node.
    InstallFilter(NodeId, Box<dyn PacketFilter>),
    /// Detach the ingress program from a node.
    RemoveFilter(NodeId),
    /// Fire `on_timer` with this token at the given instant.
    SetTimer(SimTime, u64),
    /// Inject a packet at a node at the given instant.
    Inject(SimTime, NodeId, Packet),
}

/// Command buffer handed to every hook invocation.
#[derive(Default)]
pub struct Commands {
    pub(crate) items: Vec<Command>,
}

impl Commands {
    /// Attach (or replace) a node's ingress program.
    pub fn install_filter(&mut self, node: NodeId, filter: Box<dyn PacketFilter>) {
        self.items.push(Command::InstallFilter(node, filter));
    }

    /// Detach a node's ingress program.
    pub fn remove_filter(&mut self, node: NodeId) {
        self.items.push(Command::RemoveFilter(node));
    }

    /// Request an `on_timer` callback at `at`.
    pub fn set_timer(&mut self, at: SimTime, token: u64) {
        self.items.push(Command::SetTimer(at, token));
    }

    /// Inject a packet from `node` at `at`.
    pub fn inject(&mut self, at: SimTime, node: NodeId, packet: Packet) {
        self.items.push(Command::Inject(at, node, packet));
    }
}

/// Observation and steering callbacks for a running simulation.
///
/// All methods have empty defaults; implement only what you need.
#[allow(unused_variables)]
pub trait SimHooks {
    /// A packet finished traversing a tapped link (what a physical optical
    /// tap feeding a capture appliance would see).
    fn on_tap(&mut self, now: SimTime, link: LinkId, dir: Dir, packet: &Packet, cmds: &mut Commands) {}

    /// A packet reached its destination host.
    fn on_deliver(
        &mut self,
        now: SimTime,
        node: NodeId,
        packet: &Packet,
        latency: SimDuration,
        cmds: &mut Commands,
    ) {
    }

    /// A packet was dropped.
    fn on_drop(&mut self, now: SimTime, reason: DropReason, packet: &Packet, cmds: &mut Commands) {}

    /// A timer requested via [`Commands::set_timer`] fired.
    fn on_timer(&mut self, now: SimTime, token: u64, cmds: &mut Commands) {}

    /// True when every callback is a no-op ([`NullHooks`]): the only runs
    /// the sharded engine partitions.
    fn is_null(&self) -> bool {
        false
    }
}

/// A no-op hook set for runs that only need final statistics.
pub struct NullHooks;

impl SimHooks for NullHooks {
    fn is_null(&self) -> bool {
        true
    }
}

/// Events keep packets boxed so a heap entry is pointer-sized: sifting
/// the binary heap moves words, not whole packets. A checkpoint stores
/// pending events as they are (`Box<Packet>` encodes as the packet).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Event {
    Inject { node: NodeId, packet: Box<Packet> },
    TxDone { link: LinkId, dir: Dir },
    Arrive { link: LinkId, dir: Dir, packet: Box<Packet> },
    Timer { token: u64 },
    /// A chaos-plan fault transition (link flap, node crash/recover,
    /// brownout). Riding the same queue as packet events keeps chaos runs
    /// byte-deterministic: the transition lands at exactly one canonical
    /// key regardless of how the run is driven.
    Chaos { action: ChaosAction },
}

/// The simulated campus network.
pub struct Network {
    pub(crate) nodes: Vec<Node>,
    pub(crate) links: Vec<Link>,
    pub(crate) queue: EventQueue<Event>,
    pub(crate) tapped: Vec<bool>,
    /// The seed per-direction link RNG streams derive from.
    pub(crate) seed: u64,
    /// Root-event counter: injections, timers and chaos transitions are
    /// numbered in program order, which is the canonical tie-break for
    /// simultaneous stimuli.
    pub(crate) root_seq: u64,
    /// `root_seq` when the engine first ran: the roots numbered below it
    /// are the build-time schedule, which a rebuild reproduces and a
    /// checkpoint therefore references instead of copying. `None` until
    /// the first run (or restore).
    pub(crate) built_roots: Option<u64>,
    /// Present only while this network runs as one shard of a sharded
    /// execution: cross-shard routing tables and the outbox (see
    /// `crate::shard`).
    pub(crate) splice: Option<Box<crate::shard::Splice>>,
    /// Counters from the most recent sharded run (see `crate::shard`).
    pub(crate) shard_report: Option<crate::shard::ShardReport>,
    pub stats: NetStats,
    /// Observatory sink: the same counters as `stats` plus histograms and
    /// chaos/event telemetry, renderable as a deterministic metrics dump.
    pub obs: NetObs,
}

impl Network {
    /// Build an empty network with a deterministic RNG seed (used by the
    /// fault models).
    pub fn new(seed: u64) -> Self {
        Network {
            nodes: Vec::new(),
            links: Vec::new(),
            queue: EventQueue::new(),
            tapped: Vec::new(),
            seed,
            root_seq: 0,
            built_roots: None,
            splice: None,
            shard_report: None,
            stats: NetStats::default(),
            obs: NetObs::new(),
        }
    }

    /// Add a node; used by the topology builder.
    pub(crate) fn push_node(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len());
        debug_assert_eq!(node.id, id);
        self.nodes.push(node);
        id
    }

    /// Add a link; used by the topology builder.
    pub(crate) fn push_link(&mut self, mut link: Link) -> LinkId {
        let id = LinkId(self.links.len());
        debug_assert_eq!(link.id, id);
        link.reseed_dirs(self.seed);
        self.nodes[link.a.0].ports.push(id);
        self.nodes[link.b.0].ports.push(id);
        self.links.push(link);
        self.tapped.push(false);
        id
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Node accessor.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Link accessor.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0]
    }

    /// Mutable link accessor.
    pub fn link_mut(&mut self, id: LinkId) -> &mut Link {
        &mut self.links[id.0]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Mark a link as tapped: every packet completing a traversal of it is
    /// reported through [`SimHooks::on_tap`].
    pub fn set_tap(&mut self, link: LinkId, enabled: bool) {
        self.tapped[link.0] = enabled;
    }

    /// The canonical key of the next root event at `time`.
    fn next_root_key(&mut self, time: SimTime) -> EventKey {
        let key = EventKey::root(time, self.root_seq);
        self.root_seq += 1;
        key
    }

    /// Schedule a packet injection: the packet departs `node` at `at`.
    ///
    /// The packet is boxed here, once; from this point it moves through
    /// queues, events and hooks as a pointer and is never copied.
    pub fn inject(&mut self, at: SimTime, node: NodeId, packet: Packet) {
        let key = self.next_root_key(at);
        self.queue.schedule(key, Event::Inject { node, packet: Box::new(packet) });
    }

    /// Schedule an `on_timer` callback.
    pub fn set_timer(&mut self, at: SimTime, token: u64) {
        let key = self.next_root_key(at);
        self.queue.schedule(key, Event::Timer { token });
    }

    /// Schedule a chaos fault transition; usually called via
    /// [`crate::chaos::ChaosPlan::apply_to`].
    pub fn schedule_chaos(&mut self, at: SimTime, action: ChaosAction) {
        let key = self.next_root_key(at);
        self.queue.schedule(key, Event::Chaos { action });
    }

    /// Mutate fault state for a chaos transition, without telemetry.
    /// The sharded coordinator applies one transition to every shard's
    /// copy of the affected element but counts it only once.
    pub(crate) fn apply_chaos_quiet(&mut self, action: ChaosAction) {
        match action {
            ChaosAction::LinkDown(l) => self.links[l.0].fault.forced_down = true,
            ChaosAction::LinkUp(l) => self.links[l.0].fault.forced_down = false,
            ChaosAction::NodeDown(n) => self.nodes[n.0].forced_down = true,
            ChaosAction::NodeUp(n) => self.nodes[n.0].forced_down = false,
            ChaosAction::BrownoutStart { link, factor } => {
                self.links[link.0].fault.rate_factor = factor.clamp(0.0, 1.0);
            }
            ChaosAction::BrownoutEnd(link) => self.links[link.0].fault.rate_factor = 1.0,
        }
    }

    /// Apply a chaos transition immediately.
    fn apply_chaos(&mut self, action: ChaosAction) {
        self.obs.on_chaos(&action);
        self.apply_chaos_quiet(action);
    }

    /// Attach an ingress packet program to a node immediately.
    pub fn install_filter(&mut self, node: NodeId, filter: Box<dyn PacketFilter>) {
        self.nodes[node.0].filter = Some(filter);
    }

    /// Detach a node's ingress program immediately.
    pub fn remove_filter(&mut self, node: NodeId) {
        self.nodes[node.0].filter = None;
    }

    /// Run until the event queue drains or the clock passes `until`.
    pub fn run(&mut self, hooks: &mut dyn SimHooks, until: Option<SimTime>) {
        self.run_sequential(hooks, until);
    }

    /// The single-queue event loop: what [`Network::run`] is, under the
    /// name differentials against [`Network::run_sharded`] call it by.
    pub fn run_sequential(&mut self, hooks: &mut dyn SimHooks, until: Option<SimTime>) {
        self.built_roots.get_or_insert(self.root_seq);
        let mut cmds = Commands::default();
        let mut events = 0;
        while let Some((key, event)) = self.queue.pop_if(|k| until.is_none_or(|u| k.time <= u)) {
            self.dispatch(key.time, event, hooks, &mut cmds);
            events += 1;
            self.apply(std::mem::take(&mut cmds.items));
        }
        self.obs.on_events(events);
    }

    /// Timestamp of the next pending event, or `None` when the queue is
    /// drained. Lets a windowed multiplexer (the plaza scheduler) decide
    /// whether a deadline-capped [`Network::run`] left work behind.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Run to completion with no observers; returns final statistics.
    pub fn run_to_completion(&mut self) -> NetStats {
        self.run(&mut NullHooks, None);
        self.stats
    }

    fn apply(&mut self, items: Vec<Command>) {
        for cmd in items {
            match cmd {
                Command::InstallFilter(node, filter) => self.install_filter(node, filter),
                Command::RemoveFilter(node) => self.remove_filter(node),
                Command::SetTimer(at, token) => self.set_timer(at, token),
                Command::Inject(at, node, packet) => self.inject(at, node, packet),
            }
        }
    }

    /// Handle one popped event; the caller books it on `obs`
    /// (`NetObs::on_events`).
    pub(crate) fn dispatch(&mut self, now: SimTime, event: Event, hooks: &mut dyn SimHooks, cmds: &mut Commands) {
        match event {
            Event::Inject { node, mut packet } => {
                self.stats.injected += 1;
                self.obs.on_inject();
                // Injection time rides in the packet: end-to-end latency
                // needs no side lookup table keyed by packet id.
                packet.injected_at = now;
                if self.nodes[node.0].is_down(now) {
                    return self.drop_packet(now, node, DropReason::NodeDown, packet, hooks, cmds);
                }
                self.forward(now, node, packet, hooks, cmds);
            }
            Event::TxDone { link, dir } => {
                debug_assert!(self.links[link.0].has_backlog(dir), "a transmit-complete with nothing waiting");
                self.begin_transmission(now, link, dir);
            }
            Event::Arrive { link, dir, packet } => {
                if self.tapped[link.0] {
                    hooks.on_tap(now, link, dir, &packet, cmds);
                }
                let node = self.links[link.0].dst_node(dir);
                self.receive(now, node, packet, hooks, cmds);
            }
            Event::Timer { token } => hooks.on_timer(now, token, cmds),
            Event::Chaos { action } => self.apply_chaos(action),
        }
    }

    /// The one way a packet leaves the network undelivered: booked on the
    /// node `at` which it was judged (unless the verdict was its egress
    /// link's — queue, fault — which no node books), on [`NetStats`] and
    /// the Observatory, reported to the hooks, and its box freed.
    /// Conservation (*injected = delivered + Σ drops-by-reason + in flight*)
    /// holds because nothing else drops.
    fn drop_packet(
        &mut self,
        now: SimTime,
        at: NodeId,
        reason: DropReason,
        packet: Box<Packet>,
        hooks: &mut dyn SimHooks,
        cmds: &mut Commands,
    ) {
        if let Some(booked) = self.nodes[at.0].stats.dropped_mut(reason) {
            *booked += 1;
        }
        *self.stats.dropped_mut(reason) += 1;
        self.obs.on_drop(reason);
        hooks.on_drop(now, reason, &packet, cmds);
    }

    /// A packet arrives at `node` from the wire.
    fn receive(
        &mut self,
        now: SimTime,
        node: NodeId,
        mut packet: Box<Packet>,
        hooks: &mut dyn SimHooks,
        cmds: &mut Commands,
    ) {
        // A down node swallows everything before its pipeline runs.
        if self.nodes[node.0].is_down(now) {
            return self.drop_packet(now, node, DropReason::NodeDown, packet, hooks, cmds);
        }
        // Ingress program first, exactly like a programmable ASIC.
        if let Some(filter) = self.nodes[node.0].filter.as_mut() {
            if filter.decide(now, &packet) == FilterAction::Drop {
                return self.drop_packet(now, node, DropReason::Filter, packet, hooks, cmds);
            }
        }
        match &self.nodes[node.0].kind {
            NodeKind::Host { .. } => {
                // Hosts sink everything addressed to them; anything else is
                // a routing error.
                if !self.nodes[node.0].owns_address(packet.network.dst()) {
                    return self.drop_packet(now, node, DropReason::NoRoute, packet, hooks, cmds);
                }
                let n = &mut self.nodes[node.0];
                n.stats.received += 1;
                n.stats.received_bytes += packet.wire_len() as u64;
                self.stats.delivered += 1;
                self.stats.delivered_bytes += packet.wire_len() as u64;
                let latency = now - packet.injected_at;
                self.stats.latency_sum += latency;
                self.obs.on_deliver(packet.wire_len() as u64, latency.as_nanos());
                hooks.on_deliver(now, node, &packet, latency, cmds);
            }
            NodeKind::Switch { .. } => {
                if !packet.network.decrement_ttl() {
                    return self.drop_packet(now, node, DropReason::Ttl, packet, hooks, cmds);
                }
                self.nodes[node.0].stats.forwarded += 1;
                self.forward(now, node, packet, hooks, cmds);
            }
        }
    }

    /// Route `packet` out of `node` and offer it to the next link.
    fn forward(
        &mut self,
        now: SimTime,
        node: NodeId,
        packet: Box<Packet>,
        hooks: &mut dyn SimHooks,
        cmds: &mut Commands,
    ) {
        let Some(link_id) = self.nodes[node.0].route_cached(packet.network.dst()) else {
            return self.drop_packet(now, node, DropReason::NoRoute, packet, hooks, cmds);
        };
        let link = &mut self.links[link_id.0];
        let dir = link.dir_from(node);
        // The link hands a rejected packet back, so the happy path moves
        // the packet by value with no speculative clone.
        match link.offer(dir, packet, now) {
            Offer::StartedTransmit => {
                self.obs.on_enqueue_depth(self.links[link_id.0].queued_bytes(dir) as u64);
                self.begin_transmission(now, link_id, dir);
            }
            Offer::Queued => {
                let link = &self.links[link_id.0];
                self.obs.on_enqueue_depth(link.queued_bytes(dir) as u64);
                // The first packet to wait behind a busy transmitter asks
                // for its transmit-complete, under the key the transmission
                // occupying the wire would have scheduled it with.
                if let Some((free_at, seq)) = link.lone_waiter(dir) {
                    let lane = (link_id.0 * 2 + dir.index()) as u32;
                    self.queue.schedule(EventKey::tx_done(free_at, lane, seq), Event::TxDone { link: link_id, dir });
                }
            }
            Offer::DroppedQueue(p) => self.drop_packet(now, node, DropReason::Queue, p, hooks, cmds),
            Offer::DroppedFault(p) => self.drop_packet(now, node, DropReason::Fault, p, hooks, cmds),
        }
    }

    fn begin_transmission(&mut self, now: SimTime, link: LinkId, dir: Dir) {
        if let Some((packet, tx, total, seq)) = self.links[link.0].start_transmit(dir, now) {
            let lane = (link.0 * 2 + dir.index()) as u32;
            // A transmit-complete exists only to send the next packet, so
            // a direction has one pending exactly while packets wait in it.
            if self.links[link.0].has_backlog(dir) {
                self.queue
                    .schedule(EventKey::tx_done(now + tx, lane, seq), Event::TxDone { link, dir });
            }
            let key = EventKey::arrive(now + total, lane, seq);
            if let Some(sp) = self.splice.as_mut() {
                // Cross-shard wire: the arrival belongs to the receiving
                // shard and is exchanged at the window barrier. A
                // transmit-complete stays local (the transmitter is ours
                // either way).
                if let Some(dst_shard) = sp.remote_shard(lane) {
                    sp.outbox.push(crate::shard::CrossPacket {
                        dst_shard,
                        key,
                        link,
                        dir,
                        packet,
                    });
                    return;
                }
            }
            self.queue.schedule(key, Event::Arrive { link, dir, packet });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lpm::Prefix;
    use crate::packet::{GroundTruth, PacketBuilder, Payload};
    use crate::time::SimDuration;
    use std::net::Ipv4Addr;

    /// h1 -- s1 -- h2, 1 Gbps links, 10 us propagation each.
    fn tiny_net() -> (Network, NodeId, NodeId, NodeId, LinkId, LinkId) {
        let mut net = Network::new(7);
        let h1 = net.push_node(Node::host(NodeId(0), "h1", vec!["10.0.0.1".parse().unwrap()]));
        let s1 = net.push_node(Node::switch(NodeId(1), "s1"));
        let h2 = net.push_node(Node::host(NodeId(2), "h2", vec!["10.0.0.2".parse().unwrap()]));
        let l1 = net.push_link(Link::new(
            LinkId(0),
            h1,
            s1,
            1_000_000_000,
            SimDuration::from_micros(10),
            1_000_000,
        ));
        let l2 = net.push_link(Link::new(
            LinkId(1),
            s1,
            h2,
            1_000_000_000,
            SimDuration::from_micros(10),
            1_000_000,
        ));
        if let NodeKind::Host { gateway, .. } = &mut net.nodes[h1.0].kind {
            *gateway = Some(l1);
        }
        if let NodeKind::Host { gateway, .. } = &mut net.nodes[h2.0].kind {
            *gateway = Some(l2);
        }
        net.nodes[s1.0].install_route(Prefix::v4(Ipv4Addr::new(10, 0, 0, 2), 32), l2);
        net.nodes[s1.0].install_route(Prefix::v4(Ipv4Addr::new(10, 0, 0, 1), 32), l1);
        (net, h1, s1, h2, l1, l2)
    }

    fn test_packet(bytes: usize) -> Packet {
        let mut b = PacketBuilder::new();
        b.udp_v4(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1000,
            2000,
            Payload::Synthetic(bytes),
            64,
            GroundTruth::default(),
        )
    }

    #[test]
    fn packet_crosses_two_links() {
        let (mut net, h1, _, h2, _, _) = tiny_net();
        net.inject(SimTime::ZERO, h1, test_packet(958));
        let stats = net.run_to_completion();
        assert_eq!(stats.injected, 1);
        assert_eq!(stats.delivered, 1);
        assert_eq!(net.node(h2).stats.received, 1);
        // Two 8 us serializations + two 10 us propagations = 36 us.
        assert_eq!(stats.latency_sum, SimDuration::from_micros(36));
    }

    /// An idle path costs one event per stimulus and per hop: the
    /// injection and two arrivals, no transmit-complete.
    #[test]
    fn one_packet_over_two_idle_links_is_three_events() {
        let (mut net, h1, _, _, _, _) = tiny_net();
        net.inject(SimTime::ZERO, h1, test_packet(958));
        assert_eq!(net.run_to_completion().delivered, 1);
        assert_eq!(net.obs.event_seq(), 3);
    }

    /// A transmit-complete is scheduled exactly once per packet that waits
    /// behind a busy transmitter. Here `k` packets queue at h1 (the switch
    /// link drains at the rate they arrive, so none waits there): 3 events
    /// per packet plus one per waiter.
    #[test]
    fn each_waiting_packet_costs_one_transmit_complete() {
        for k in [1u64, 2, 5, 40] {
            let (mut net, h1, _, _, _, _) = tiny_net();
            for _ in 0..=k {
                net.inject(SimTime::ZERO, h1, test_packet(958));
            }
            assert_eq!(net.run_to_completion().delivered, k + 1);
            assert_eq!(net.obs.event_seq(), 3 * (k + 1) + k, "{k} waiters");
        }
    }

    #[test]
    fn hooks_see_tap_and_delivery() {
        struct Observer {
            taps: u64,
            delivers: u64,
        }
        impl SimHooks for Observer {
            fn on_tap(&mut self, _: SimTime, _: LinkId, _: Dir, _: &Packet, _: &mut Commands) {
                self.taps += 1;
            }
            fn on_deliver(
                &mut self,
                _: SimTime,
                _: NodeId,
                _: &Packet,
                _: SimDuration,
                _: &mut Commands,
            ) {
                self.delivers += 1;
            }
        }
        let (mut net, h1, _, _, _, l2) = tiny_net();
        net.set_tap(l2, true);
        for i in 0..5 {
            net.inject(SimTime::from_micros(i * 100), h1, test_packet(100));
        }
        let mut obs = Observer { taps: 0, delivers: 0 };
        net.run(&mut obs, None);
        assert_eq!(obs.taps, 5);
        assert_eq!(obs.delivers, 5);
    }

    #[test]
    fn filter_drops_at_ingress() {
        struct DropUdp;
        impl PacketFilter for DropUdp {
            fn decide(&mut self, _: SimTime, p: &Packet) -> FilterAction {
                if p.transport.dst_port() == Some(2000) {
                    FilterAction::Drop
                } else {
                    FilterAction::Forward
                }
            }
        }
        let (mut net, h1, s1, h2, _, _) = tiny_net();
        net.install_filter(s1, Box::new(DropUdp));
        net.inject(SimTime::ZERO, h1, test_packet(100));
        let stats = net.run_to_completion();
        assert_eq!(stats.dropped_filter, 1);
        assert_eq!(stats.delivered, 0);
        assert_eq!(net.node(h2).stats.received, 0);
        assert_eq!(net.node(s1).stats.dropped_filter, 1);
    }

    #[test]
    fn filter_installed_mid_run_via_commands() {
        struct DropAll;
        impl PacketFilter for DropAll {
            fn decide(&mut self, _: SimTime, _: &Packet) -> FilterAction {
                FilterAction::Drop
            }
        }
        struct Installer {
            switch: NodeId,
            installed: bool,
        }
        impl SimHooks for Installer {
            fn on_timer(&mut self, _: SimTime, token: u64, cmds: &mut Commands) {
                assert_eq!(token, 42);
                cmds.install_filter(self.switch, Box::new(DropAll));
                self.installed = true;
            }
        }
        let (mut net, h1, s1, _, _, _) = tiny_net();
        // One packet before the filter lands, one after.
        net.inject(SimTime::ZERO, h1, test_packet(100));
        net.set_timer(SimTime::from_millis(1), 42);
        net.inject(SimTime::from_millis(2), h1, test_packet(100));
        let mut hooks = Installer { switch: s1, installed: false };
        net.run(&mut hooks, None);
        assert!(hooks.installed);
        assert_eq!(net.stats.delivered, 1);
        assert_eq!(net.stats.dropped_filter, 1);
    }

    #[test]
    fn no_route_is_counted() {
        let (mut net, h1, _, _, _, _) = tiny_net();
        let mut b = PacketBuilder::new();
        let pkt = b.udp_v4(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(192, 0, 2, 99), // no route on s1
            1, 2, Payload::Synthetic(10), 64, GroundTruth::default(),
        );
        net.inject(SimTime::ZERO, h1, pkt);
        let stats = net.run_to_completion();
        assert_eq!(stats.dropped_no_route, 1);
        assert_eq!(stats.delivered, 0);
    }

    #[test]
    fn ttl_expiry_is_counted() {
        let (mut net, h1, _, _, _, _) = tiny_net();
        let mut b = PacketBuilder::new();
        let pkt = b.udp_v4(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1, 2, Payload::Synthetic(10), 1, GroundTruth::default(),
        );
        net.inject(SimTime::ZERO, h1, pkt);
        let stats = net.run_to_completion();
        assert_eq!(stats.dropped_ttl, 1);
    }

    #[test]
    fn congestion_drops_under_overload() {
        // Squeeze a 1 Gbps burst through a 10 Mbps access link with a tiny
        // buffer: most packets must drop.
        let (mut net, h1, _, _, l1, _) = tiny_net();
        net.link_mut(l1).rate_bps = 10_000_000;
        let mut builder = PacketBuilder::new();
        for _ in 0..1000 {
            let pkt = builder.udp_v4(
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
                1, 2, Payload::Synthetic(1458), 64, GroundTruth::default(),
            );
            net.inject(SimTime::ZERO, h1, pkt);
        }
        // Shrink the buffer after construction for the test.
        let stats = net.run_to_completion();
        assert_eq!(stats.injected, 1000);
        assert_eq!(stats.delivered + stats.dropped_total(), 1000);
        // 1000 * 1500B = 1.5 MB burst > 1 MB buffer: some drops expected.
        assert!(stats.dropped_queue > 0, "expected queue drops, got {stats:?}");
    }

    #[test]
    fn deterministic_given_same_seed() {
        let run = || {
            let (mut net, h1, _, _, l1, _) = tiny_net();
            net.link_mut(l1).fault.drop_probability = 0.3;
            let mut b = PacketBuilder::new();
            for i in 0..500u64 {
                let pkt = b.udp_v4(
                    Ipv4Addr::new(10, 0, 0, 1),
                    Ipv4Addr::new(10, 0, 0, 2),
                    1, 2, Payload::Synthetic(100), 64, GroundTruth::default(),
                );
                net.inject(SimTime::from_micros(i * 17), h1, pkt);
            }
            net.run_to_completion()
        };
        assert_eq!(run(), run());
    }

    /// The Observatory mirrors NetStats: the two accounting surfaces are
    /// bumped at the same sites and must never disagree.
    #[test]
    fn obs_counters_agree_with_netstats() {
        let (mut net, h1, s1, _, l1, _) = tiny_net();
        net.link_mut(l1).fault.drop_probability = 0.2;
        struct DropOdd;
        impl PacketFilter for DropOdd {
            fn decide(&mut self, _: SimTime, p: &Packet) -> FilterAction {
                if p.transport.src_port() == Some(1001) {
                    FilterAction::Drop
                } else {
                    FilterAction::Forward
                }
            }
        }
        net.install_filter(s1, Box::new(DropOdd));
        let mut b = PacketBuilder::new();
        for i in 0..300u64 {
            let pkt = b.udp_v4(
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
                1000 + (i % 2) as u16, 2000,
                Payload::Synthetic(120), 64, GroundTruth::default(),
            );
            net.inject(SimTime::from_micros(i * 13), h1, pkt);
        }
        let stats = net.run_to_completion();
        let obs = &net.obs;
        assert_eq!(obs.injected(), stats.injected);
        assert_eq!(obs.delivered(), stats.delivered);
        assert_eq!(obs.delivered_bytes(), stats.delivered_bytes);
        assert_eq!(obs.dropped(DropReason::Queue), stats.dropped_queue);
        assert_eq!(obs.dropped(DropReason::Fault), stats.dropped_fault);
        assert_eq!(obs.dropped(DropReason::Filter), stats.dropped_filter);
        assert_eq!(obs.dropped(DropReason::Ttl), stats.dropped_ttl);
        assert_eq!(obs.dropped(DropReason::NoRoute), stats.dropped_no_route);
        assert_eq!(obs.dropped(DropReason::NodeDown), stats.dropped_node_down);
        assert_eq!(obs.dropped_total(), stats.dropped_total());
        assert!(stats.dropped_fault > 0 && stats.dropped_filter > 0, "test exercised no drops");
        // Latency histogram covers exactly the delivered packets, and its
        // sum matches the stats' latency accumulator (ns truncated to us).
        let lat = obs.latency_histogram();
        assert_eq!(lat.count(), stats.delivered);
        // Each observation truncates ns -> us, so the histogram sum brackets
        // the exact accumulator to within one us per delivered packet.
        let exact_ns = stats.latency_sum.as_nanos() as u128;
        assert!(lat.sum() * 1_000 <= exact_ns);
        assert!((lat.sum() + lat.count() as u128) * 1_000 > exact_ns);
        assert!(obs.event_seq() > stats.injected, "every injection is at least one event");
        // The dump renders and is stable.
        assert_eq!(net.obs.render(), net.obs.render());
    }
}
