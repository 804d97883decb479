//! PhoenixRun: freeze/thaw of a quiescent simulation engine.
//!
//! A checkpoint is taken *between* [`Network::run`] calls — no event is
//! mid-dispatch, no shard splice is live — and captures every bit of
//! dynamic state that distinguishes this engine from one freshly built
//! from the same topology: the pending event set (with canonical keys),
//! per-direction link queues and their private RNG streams, fault-model
//! state (including live Gilbert–Elliott channel state), node and network
//! counters, and the Observatory sink.
//!
//! Restore deliberately does NOT rebuild static topology (nodes, links,
//! routes, taps are cheap and deterministic to reconstruct from the
//! scenario); the caller rebuilds the same network shape and then applies
//! the frozen dynamic state on top. The determinism contract then gives
//! the strong property the CrashCart harness pins: running the remainder
//! of the schedule on a thawed engine reproduces the uninterrupted run's
//! observable output byte-for-byte.
//!
//! What is deliberately not captured:
//! * memoized route caches (rebuilt lazily, behavior-identical),
//! * trait-object ingress filters (the control plane re-installs its own
//!   filters from its own frozen state),
//! * the shard report of the previous windowed run (diagnostics only).

use crate::chaos::ChaosAction;
use crate::event::{EventKey, EventQueue};
use crate::link::{FrozenLink, LinkId};
use crate::network::{Event, Network, NetStats};
use crate::node::{NodeId, NodeStats};
use crate::time::SimTime;
use campuslab_obs::ObsSink;
use rand::rngs::StdRng;

/// A private random stream that checkpoints as its four xoshiro256++
/// state words, i.e. its exact position. The one carrier for every
/// `StdRng` a checkpoint reaches: the vendored `rand` knows nothing of
/// `serde`, so the generator itself cannot derive.
#[derive(Debug, Clone)]
pub struct StreamRng(pub StdRng);

impl PartialEq for StreamRng {
    fn eq(&self, other: &Self) -> bool {
        self.0.state() == other.0.state()
    }
}

impl serde::Serialize for StreamRng {
    fn serialize_json(&self, out: &mut String) {
        self.0.state().serialize_json(out);
    }
    fn serialize_bin(&self, out: &mut Vec<u8>) {
        self.0.state().serialize_bin(out);
    }
}

impl serde::Deserialize for StreamRng {
    fn deserialize_bin(r: &mut serde::bin::Reader<'_>) -> Result<Self, serde::bin::Error> {
        serde::Deserialize::deserialize_bin(r).map(|s| StreamRng(StdRng::from_state(s)))
    }
}

/// A node's dynamic (non-topology) state.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FrozenNode {
    pub stats: NodeStats,
    pub down_windows: Vec<crate::link::Outage>,
    pub forced_down: bool,
}

/// The engine's full dynamic state at a quiescent instant.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FrozenNetwork {
    /// Simulation clock at the freeze barrier.
    pub now: SimTime,
    /// Seed the per-direction RNG streams derive from (checked on restore;
    /// the live stream positions ride in each frozen link).
    pub seed: u64,
    /// Root-event counter (injections / timers / chaos numbered so far).
    pub root_seq: u64,
    pub stats: NetStats,
    /// The Observatory value sink (schema is rebuilt by `NetObs::new`).
    pub obs: ObsSink,
    /// Pending events in canonical key order. Packets ride by value.
    pub events: Vec<(EventKey, Event)>,
    pub nodes: Vec<FrozenNode>,
    pub links: Vec<FrozenLink>,
    pub tapped: Vec<bool>,
}

/// A frozen engine was offered to a network it was not taken from: node
/// count, link count, seed, tap set or metric schema disagree, or a
/// pending event names a node or link this topology does not have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopologyMismatch;

impl std::fmt::Display for TopologyMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("frozen network does not fit this topology")
    }
}

impl std::error::Error for TopologyMismatch {}

impl Network {
    /// Freeze the engine's dynamic state. Non-destructive: the pending
    /// event set is drained, cloned, and re-scheduled — the canonical key
    /// order depends only on the key set, so subsequent pops are
    /// unchanged.
    ///
    /// Panics if called while a shard splice is live (mid-sharded-window);
    /// checkpoints belong at run-call boundaries.
    pub fn checkpoint(&mut self) -> FrozenNetwork {
        assert!(
            self.splice.is_none(),
            "checkpoint must be taken at a quiescent barrier, not mid-shard-window"
        );
        let now = self.queue.now();
        let events = self.queue.drain_sorted();
        // Put the queue back exactly as it was: the drained run is sorted,
        // so every re-schedule hits the staged-lane fast path.
        for (key, event) in &events {
            self.queue.schedule(*key, event.clone());
        }
        FrozenNetwork {
            now,
            seed: self.seed,
            root_seq: self.root_seq,
            stats: self.stats,
            obs: self.obs.sink.clone(),
            events,
            nodes: self
                .nodes
                .iter()
                .map(|n| FrozenNode {
                    stats: n.stats,
                    down_windows: n.down_windows.clone(),
                    forced_down: n.forced_down,
                })
                .collect(),
            links: self.links.iter().map(|l| l.freeze()).collect(),
            tapped: self.tapped.clone(),
        }
    }

    /// Whether `frozen` was taken from an engine of this one's shape: same
    /// node, link and tap counts, same seed, a metric sink that fits, and
    /// no pending event naming a node or link out of range. A CRC-valid
    /// image from another scenario fails here instead of indexing out of
    /// bounds mid-run.
    pub fn accepts(&self, frozen: &FrozenNetwork) -> bool {
        let node = |n: NodeId| n.0 < self.nodes.len();
        let link = |l: LinkId| l.0 < self.links.len();
        self.nodes.len() == frozen.nodes.len()
            && self.links.len() == frozen.links.len()
            && self.tapped.len() == frozen.tapped.len()
            && self.seed == frozen.seed
            && self.obs.fits(&frozen.obs)
            && frozen.events.iter().all(|(_, event)| match *event {
                Event::Inject { node: n, .. } => node(n),
                Event::TxDone { link: l, .. } | Event::Arrive { link: l, .. } => link(l),
                Event::Timer { .. } => true,
                Event::Chaos { action } => match action {
                    ChaosAction::NodeDown(n) | ChaosAction::NodeUp(n) => node(n),
                    ChaosAction::LinkDown(l)
                    | ChaosAction::LinkUp(l)
                    | ChaosAction::BrownoutStart { link: l, .. }
                    | ChaosAction::BrownoutEnd(l) => link(l),
                },
            })
    }

    /// Apply a frozen state onto this engine, which must have been rebuilt
    /// with the same static topology; an image [`Network::accepts`] turns
    /// down is refused with the engine untouched. Ingress filters are NOT
    /// restored here; the owner of each filter re-installs it from its own
    /// thawed state.
    pub fn restore(&mut self, frozen: FrozenNetwork) -> Result<(), TopologyMismatch> {
        assert!(self.splice.is_none(), "cannot restore into a live shard splice");
        if !self.accepts(&frozen) {
            return Err(TopologyMismatch);
        }
        self.obs.thaw(frozen.obs).map_err(|_| TopologyMismatch)?;
        self.root_seq = frozen.root_seq;
        self.stats = frozen.stats;
        self.tapped = frozen.tapped;
        for (node, f) in self.nodes.iter_mut().zip(frozen.nodes) {
            node.stats = f.stats;
            node.down_windows = f.down_windows;
            node.forced_down = f.forced_down;
        }
        for (link, f) in self.links.iter_mut().zip(frozen.links) {
            link.thaw(f);
        }
        // Rebuild the pending set into a fresh queue: events are frozen in
        // canonical order, so each schedule is an O(1) staged append, and
        // the clock is advanced only after everything is in.
        let mut queue = EventQueue::new();
        for (key, event) in frozen.events {
            queue.schedule(key, event);
        }
        queue.set_now(frozen.now);
        self.queue = queue;
        self.shard_report = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{Link, QueueDiscipline};
    use crate::lpm::Prefix;
    use crate::node::{Node, NodeKind};
    use crate::packet::{GroundTruth, PacketBuilder, Payload};
    use crate::time::SimDuration;
    use std::net::Ipv4Addr;

    /// h1 -- s1 -- h2 with lossy links, same shape as network.rs tests.
    fn lossy_net() -> (Network, NodeId) {
        let mut net = Network::new(77);
        let h1 = net.push_node(Node::host(NodeId(0), "h1", vec!["10.0.0.1".parse().unwrap()]));
        let s1 = net.push_node(Node::switch(NodeId(1), "s1"));
        let h2 = net.push_node(Node::host(NodeId(2), "h2", vec!["10.0.0.2".parse().unwrap()]));
        let l1 = net.push_link(Link::new(
            LinkId(0), h1, s1, 50_000_000, SimDuration::from_micros(10),
            QueueDiscipline::Red {
                capacity_bytes: 60_000,
                min_thresh_bytes: 10_000,
                max_thresh_bytes: 40_000,
                max_p: 0.3,
            },
        ));
        let l2 = net.push_link(Link::new(
            LinkId(1), s1, h2, 50_000_000, SimDuration::from_micros(10),
            QueueDiscipline::DropTail { capacity_bytes: 30_000 },
        ));
        if let NodeKind::Host { gateway, .. } = &mut net.nodes[h1.0].kind {
            *gateway = Some(l1);
        }
        if let NodeKind::Host { gateway, .. } = &mut net.nodes[h2.0].kind {
            *gateway = Some(l2);
        }
        net.nodes[s1.0].install_route(Prefix::v4(Ipv4Addr::new(10, 0, 0, 2), 32), l2);
        net.nodes[s1.0].install_route(Prefix::v4(Ipv4Addr::new(10, 0, 0, 1), 32), l1);
        net.link_mut(l1).fault.drop_probability = 0.05;
        net.link_mut(l1).fault.burst =
            Some(crate::link::GilbertElliott::new(0.02, 0.2, 0.0, 0.6));
        (net, h1)
    }

    fn blast(net: &mut Network, h1: NodeId, from_us: u64, n: u64) {
        let mut b = PacketBuilder::new();
        for i in 0..n {
            let pkt = b.udp_v4(
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
                1000, 2000, Payload::Synthetic(600), 64, GroundTruth::default(),
            );
            net.inject(SimTime::from_micros(from_us + i * 40), h1, pkt);
        }
    }

    /// checkpoint() must not perturb the run: continuing after a freeze
    /// gives the same stats as never freezing.
    #[test]
    fn checkpoint_is_non_destructive() {
        let run_with_freeze = |freeze: bool| {
            let (mut net, h1) = lossy_net();
            blast(&mut net, h1, 0, 400);
            net.run(&mut crate::network::NullHooks, Some(SimTime::from_millis(2)));
            if freeze {
                let _ = net.checkpoint();
            }
            net.run(&mut crate::network::NullHooks, None);
            (net.stats, net.obs.render())
        };
        assert_eq!(run_with_freeze(false), run_with_freeze(true));
    }

    /// Freeze mid-run, thaw into a freshly built topology, finish both;
    /// the thawed engine must match the uninterrupted one byte-for-byte.
    #[test]
    fn restore_resumes_identically() {
        let (mut net, h1) = lossy_net();
        blast(&mut net, h1, 0, 400);
        // Leave future stimuli pending across the barrier too.
        blast(&mut net, h1, 3_000, 100);
        net.run(&mut crate::network::NullHooks, Some(SimTime::from_millis(2)));
        let frozen = net.checkpoint();

        // The run resumes from the binary form, which is what a crash leaves.
        let thawed: FrozenNetwork = serde::bin::from_slice(&serde::bin::to_vec(&frozen)).unwrap();
        assert_eq!(frozen, thawed);

        let (mut fresh, _) = lossy_net();
        fresh.restore(thawed).unwrap();
        assert_eq!(fresh.now(), net.now());

        net.run(&mut crate::network::NullHooks, None);
        fresh.run(&mut crate::network::NullHooks, None);
        assert_eq!(net.stats, fresh.stats);
        assert_eq!(net.obs.render(), fresh.obs.render());
        assert!(net.stats.injected == 500 && net.stats.delivered > 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 48, ..proptest::ProptestConfig::default() })]

        /// Wherever the barrier falls — queues full, RED and burst-loss
        /// state mid-stream, chaos pending, real payload bytes in flight —
        /// the binary form decodes to an equal value that re-serializes to
        /// the same bytes and the same JSON.
        #[test]
        fn frozen_network_round_trips_in_both_forms(
            barrier_us in 0u64..6_000,
            n in 1u64..300,
            payload in proptest::collection::vec(proptest::any::<u8>(), 0..40),
        ) {
            let (mut net, h1) = lossy_net();
            blast(&mut net, h1, 0, n);
            blast(&mut net, h1, 3_000, n / 3);
            let pkt = PacketBuilder::new().udp_v4(
                Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2),
                53, 4000, Payload::from(payload), 9, GroundTruth { flow_id: u64::MAX, app_class: 7, attack: Some(2) },
            );
            net.inject(SimTime::from_micros(barrier_us + 1), h1, pkt);
            net.schedule_chaos(SimTime::from_micros(barrier_us / 2), ChaosAction::NodeDown(NodeId(1)));
            net.schedule_chaos(SimTime::from_micros(barrier_us + 900), ChaosAction::NodeUp(NodeId(1)));
            net.run(&mut crate::network::NullHooks, Some(SimTime::from_micros(barrier_us)));
            let frozen = net.checkpoint();

            let bytes = serde::bin::to_vec(&frozen);
            let back: FrozenNetwork = serde::bin::from_slice(&bytes).expect("own encoding decodes");
            proptest::prop_assert_eq!(&back, &frozen);
            proptest::prop_assert_eq!(serde::bin::to_vec(&back), bytes);
            proptest::prop_assert_eq!(
                serde_json::to_string(&back).unwrap(),
                serde_json::to_string(&frozen).unwrap()
            );
        }
    }

    /// A well-formed image from another topology — or one whose pending
    /// events name a node or link this one lacks — is refused, and every
    /// refusal leaves the engine as it was.
    #[test]
    fn restore_refuses_an_image_that_does_not_fit() {
        let (mut net, h1) = lossy_net();
        blast(&mut net, h1, 0, 50);
        net.run(&mut crate::network::NullHooks, Some(SimTime::from_millis(1)));
        let good = net.checkpoint();
        let late = EventKey::root(SimTime::from_secs(9), u64::MAX);
        let doctors: [fn(&mut FrozenNetwork, EventKey); 7] = [
            |f, _| drop(f.nodes.pop()),
            |f, _| drop(f.links.pop()),
            |f, _| f.tapped.push(false),
            |f, _| f.seed += 1,
            |f, _| f.obs = campuslab_obs::Registry::new().sink(),
            |f, k| f.events.push((k, Event::TxDone { link: LinkId(2), dir: crate::link::Dir::AtoB })),
            |f, k| f.events.push((k, Event::Chaos { action: ChaosAction::NodeUp(NodeId(3)) })),
        ];
        let (mut fresh, _) = lossy_net();
        let untouched = fresh.checkpoint();
        for (i, doctor) in doctors.iter().enumerate() {
            let mut image = good.clone();
            doctor(&mut image, late);
            assert_eq!(fresh.restore(image), Err(TopologyMismatch), "doctor {i}");
        }
        assert_eq!(fresh.checkpoint(), untouched);
        assert_eq!(fresh.restore(good), Ok(()));
    }

    /// Restoring with pending chaos transitions and node/link fault state.
    #[test]
    fn restore_carries_fault_state() {
        let build = || {
            let (mut net, h1) = lossy_net();
            blast(&mut net, h1, 0, 200);
            net.schedule_chaos(SimTime::from_micros(500), ChaosAction::NodeDown(NodeId(1)));
            net.schedule_chaos(SimTime::from_millis(4), ChaosAction::NodeUp(NodeId(1)));
            blast(&mut net, h1, 5_000, 50);
            (net, h1)
        };
        let (mut net, _) = build();
        net.run(&mut crate::network::NullHooks, Some(SimTime::from_millis(1)));
        let frozen = net.checkpoint();
        assert!(net.nodes[1].forced_down, "chaos transition must be live at the barrier");

        let (mut fresh, _) = build();
        // Fresh copy has different pending events (chaos from build());
        // restore overwrites the whole pending set.
        fresh.restore(frozen).unwrap();
        net.run(&mut crate::network::NullHooks, None);
        fresh.run(&mut crate::network::NullHooks, None);
        assert_eq!(net.stats, fresh.stats);
        assert_eq!(net.obs.render(), fresh.obs.render());
    }
}
