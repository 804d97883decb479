//! The simulator adapter: [`ResolverActor`] mounts a
//! [`crate::service::ResolverService`] on a campus node and translates
//! between packets and the service's typed actions.
//!
//! The actor is deliberately thin — every decision lives in the service —
//! and it is written to compose: testbed hook stacks call
//! [`ResolverActor::handle_deliver`] / [`ResolverActor::handle_timer`]
//! from their own `SimHooks` implementation, while standalone runs can use
//! the actor directly as hooks.
//!
//! ## Determinism
//!
//! `handle_deliver` runs inside the engine's delivery hook. Every command
//! the actor emits from that path is stamped at least `PROC_DELAY` (6 ms)
//! into the future, and timer callbacks may inject at `at = now`; both
//! are pure functions of sim-time and service state, so the sequential
//! and parallel executors stay byte-identical (DESIGN.md §12).

use crate::service::{Action, Respond, ResolverService};
use campuslab_netsim::{
    Commands, NodeId, Packet, PacketBuilder, Payload, SimDuration, SimHooks, SimTime,
};
use std::net::Ipv4Addr;

/// Timer-token namespace for resolver timers ("RSLV" in ASCII), keeping
/// them disjoint from the mitigation controller's and rollout guard's.
pub const TOKEN_BASE: u64 = 0x5253_4C56_0000_0000;

const TOKEN_MASK: u64 = 0xFFFF_FFFF_0000_0000;

/// A resolver service mounted on one campus node.
pub struct ResolverActor {
    node: NodeId,
    addr: Ipv4Addr,
    service: ResolverService,
    builder: PacketBuilder,
}

impl ResolverActor {
    /// Mount `service` on `node`, answering as `addr`.
    pub fn new(node: NodeId, addr: Ipv4Addr, service: ResolverService) -> Self {
        ResolverActor { node, addr, service, builder: PacketBuilder::new() }
    }

    /// Feed a delivered packet to the service; call from `on_deliver`.
    /// Ignores anything that is not UDP/53 to our node.
    pub fn handle_deliver(&mut self, now: SimTime, node: NodeId, packet: &Packet, cmds: &mut Commands) {
        if node != self.node || packet.transport.dst_port() != Some(53) {
            return;
        }
        let sport = packet.transport.src_port().unwrap_or(0);
        // Synthetic payloads carry no bytes; an empty slice walks the
        // service's too-short path and is counted as ignored.
        let data = packet.payload.bytes().unwrap_or(&[]);
        let src = packet.network.src;
        let actions = self.service.handle_packet(now, src, sport, data, packet.truth);
        for action in actions {
            match action {
                Action::Respond(r) => self.inject_response(r, cmds),
                Action::Arm { at, seq } => cmds.set_timer(at, TOKEN_BASE | (seq & !TOKEN_MASK)),
            }
        }
    }

    /// Resolve a fired timer; call from `on_timer`. Returns `true` when
    /// the token belonged to this resolver.
    pub fn handle_timer(&mut self, now: SimTime, token: u64, cmds: &mut Commands) -> bool {
        if token & TOKEN_MASK != TOKEN_BASE {
            return false;
        }
        if let Some(r) = self.service.on_timer(now, token & !TOKEN_MASK) {
            self.inject_response(r, cmds);
        }
        true
    }

    fn inject_response(&mut self, r: Respond, cmds: &mut Commands) {
        let mut bytes = Vec::new();
        // Emission of a service-built message cannot fail; if it somehow
        // did, dropping the response is the panic-free option.
        if r.msg.emit(&mut bytes).is_err() {
            return;
        }
        let pkt =
            self.builder.udp_v4(self.addr, r.to, 53, r.dport, Payload::Bytes(bytes.into()), 64, r.truth);
        cmds.inject(r.at, self.node, pkt);
    }

    /// The node this resolver answers on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The service behind the actor.
    pub fn service(&self) -> &ResolverService {
        &self.service
    }

    /// Mutable access to the service (draining give-ups, merging sinks).
    pub fn service_mut(&mut self) -> &mut ResolverService {
        &mut self.service
    }
}

impl SimHooks for ResolverActor {
    fn on_deliver(
        &mut self,
        now: SimTime,
        node: NodeId,
        packet: &Packet,
        _latency: SimDuration,
        cmds: &mut Commands,
    ) {
        self.handle_deliver(now, node, packet, cmds);
    }

    fn on_timer(&mut self, now: SimTime, token: u64, cmds: &mut Commands) {
        self.handle_timer(now, token, cmds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ResponseKind;
    use campuslab_netsim::{Campus, CampusConfig, GroundTruth};
    use campuslab_wire::{DnsMessage, DnsRcode, DnsType};

    /// The actor plus a recorder for everything delivered back to hosts.
    struct Recorder {
        actor: ResolverActor,
        client: NodeId,
        responses: Vec<(SimTime, DnsMessage)>,
    }

    impl SimHooks for Recorder {
        fn on_deliver(
            &mut self,
            now: SimTime,
            node: NodeId,
            packet: &Packet,
            _latency: SimDuration,
            cmds: &mut Commands,
        ) {
            if node == self.client {
                if let Some(bytes) = packet.payload.bytes() {
                    if let Ok(msg) = DnsMessage::parse(bytes) {
                        self.responses.push((now, msg));
                    }
                }
            }
            self.actor.handle_deliver(now, node, packet, cmds);
        }

        fn on_timer(&mut self, now: SimTime, token: u64, cmds: &mut Commands) {
            self.actor.handle_timer(now, token, cmds);
        }
    }

    #[test]
    fn query_round_trips_through_the_simulated_campus() {
        let mut campus = Campus::build(CampusConfig::default());
        let dns_node = campus.servers.dns;
        let dns_addr = campus.addr_of(dns_node);
        let client_node = campus.hosts[0];
        let client_addr = campus.addr_of(client_node);

        let actor =
            ResolverActor::new(dns_node, dns_addr, ResolverService::campus_default());
        let mut hooks = Recorder { actor, client: client_node, responses: Vec::new() };

        let truth = GroundTruth { flow_id: 1, app_class: 1, attack: None };
        let mut b = PacketBuilder::new();
        let mut qbytes = Vec::new();
        DnsMessage::query(42, "svc0.example0.com", DnsType::A)
            .emit(&mut qbytes)
            .expect("valid query");
        let query = b.udp_v4(client_addr, dns_addr, 5353, 53, Payload::Bytes(qbytes.into()), 64, truth);
        campus.net.inject(SimTime::ZERO, client_node, query);
        campus.net.run_sequential(&mut hooks, Some(SimTime::from_secs(2)));

        assert_eq!(hooks.responses.len(), 1, "exactly one answer back at the client");
        let (at, msg) = &hooks.responses[0];
        assert_eq!(msg.id, 42);
        assert!(msg.flags.response);
        assert_eq!(msg.flags.rcode, DnsRcode::NoError);
        assert_eq!(msg.answers.len(), 1);
        // Miss path: one upstream round trip plus network transit.
        assert!(at.as_nanos() >= 20_000_000, "upstream rtt must be paid");
        let obs = hooks.actor.service().obs();
        assert_eq!(obs.queries(), 1);
        assert_eq!(obs.responses(ResponseKind::Answer), 1);
        assert_eq!(obs.cache_misses(), 1);
    }

    #[test]
    fn foreign_tokens_are_left_alone() {
        let mut actor = ResolverActor::new(
            NodeId(0),
            Ipv4Addr::new(10, 1, 255, 53),
            ResolverService::campus_default(),
        );
        let mut cmds = Commands::default();
        assert!(!actor.handle_timer(SimTime::ZERO, 0x4D49_5449_0000_0001, &mut cmds));
        assert!(actor.handle_timer(SimTime::ZERO, TOKEN_BASE | 99, &mut cmds));
    }
}
