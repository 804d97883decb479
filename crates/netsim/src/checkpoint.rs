//! PhoenixRun: freeze/thaw of a quiescent simulation engine.
//!
//! A checkpoint is taken *between* [`Network::run`] calls — no event is
//! mid-dispatch, no shard splice is live — and captures every bit of
//! dynamic state that distinguishes this engine from one freshly built
//! from the same topology and schedule: the pending events a rebuild
//! cannot reproduce (with canonical keys), per-direction link queues and
//! their private RNG streams and live Gilbert–Elliott channels, link and
//! node down counts, link brownout factors, the network counters, and the
//! Observatory sink.
//!
//! Restore deliberately does NOT rebuild static topology (nodes, links,
//! routes, taps are cheap and deterministic to reconstruct from the
//! scenario), nor the build-time schedule: the caller rebuilds the same
//! network shape *and* schedules the same injections, timers and chaos
//! transitions before the first run, then applies the frozen dynamic
//! state on top. The build-time roots still pending at the freeze are
//! referenced by count and digest rather than copied, and restore keeps
//! exactly those of the rebuilt engine's. The determinism contract then
//! gives the strong property the CrashCart harness pins: running the
//! remainder of the schedule on a thawed engine reproduces the
//! uninterrupted run's observable output byte-for-byte.
//!
//! What is deliberately not captured:
//! * the build-time schedule (rebuilt by the caller, verified by digest),
//! * memoized route caches (rebuilt lazily, behavior-identical),
//! * trait-object ingress filters (the control plane re-installs its own
//!   filters from its own frozen state),
//! * the shard report of the previous windowed run (diagnostics only).

use crate::chaos::ChaosAction;
use crate::event::{EventKey, CLASS_ARRIVE, CLASS_ROOT, CLASS_TX_DONE};
use crate::link::{Dir, FrozenLink, LinkId};
use crate::network::{Event, Network, NetStats};
use crate::node::NodeId;
use crate::observe::chaos_index;
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
    fn serialize_bin(&self, out: &mut Vec<u8>) {
        self.0.state().serialize_bin(out);
    }
}

impl serde::Deserialize for StreamRng {
    fn deserialize_bin(r: &mut serde::bin::Reader<'_>) -> Result<Self, serde::bin::Error> {
        serde::Deserialize::deserialize_bin(r).map(|s| StreamRng(StdRng::from_state(s)))
    }
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
    /// Pending events a rebuild cannot reproduce, in canonical key order:
    /// everything but the build-time roots. Packets ride by value.
    pub events: Vec<(EventKey, Event)>,
    /// The root counter when the engine first ran: roots numbered below
    /// it are the build-time schedule.
    pub built_roots: u64,
    /// Build-time roots still pending, left out of `events`: the last
    /// `referenced` of the schedule in key order, since dispatch always
    /// takes a key-ordered prefix.
    pub referenced: u64,
    /// FNV-1a digest of those roots (key, and what identifies each
    /// stimulus), checked against the rebuilt engine's before anything is
    /// restored.
    pub referenced_digest: u64,
    /// Each node's open chaos crashes ([`crate::node::Node::down`]), the
    /// only dynamic state a node has.
    pub nodes: Vec<u32>,
    pub links: Vec<FrozenLink>,
    pub tapped: Vec<bool>,
}

/// A frozen engine was offered to a network it was not taken from: node
/// count, link count, seed, tap set, metric schema, queue capacity or
/// build-time schedule disagree, the network has already run, a queue's
/// byte count is not what its packets weigh, or a pending event names a
/// node or link this topology does not have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopologyMismatch;

impl std::fmt::Display for TopologyMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("frozen network does not fit this topology")
    }
}

impl std::error::Error for TopologyMismatch {}

/// FNV-1a, taken a 64-bit word at a time, over what identifies each root
/// stimulus, in the order given: its key, and an injection's node, packet
/// id, destination address and ground-truth flow id, a timer's token or a
/// chaos transition's action. Each step is a bijection of the running
/// hash, so two lists that differ in one word never collide.
fn root_digest<'a>(roots: impl IntoIterator<Item = &'a (EventKey, Event)>) -> u64 {
    fn mix(hash: u64, word: u64) -> u64 {
        (hash ^ word).wrapping_mul(0x0100_0000_01b3)
    }
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for (key, event) in roots {
        let words: [u64; 4] = match *event {
            Event::Inject { node, ref packet } => [
                node.0 as u64,
                packet.id,
                u64::from(u32::from(packet.network.dst)),
                packet.truth.flow_id,
            ],
            Event::Timer { token } => [token, 0, 0, 0],
            Event::Chaos { action } => {
                let (element, factor) = match action {
                    ChaosAction::NodeDown(n) | ChaosAction::NodeUp(n) => (n.0, 0.0),
                    ChaosAction::LinkDown(l) | ChaosAction::LinkUp(l) | ChaosAction::BrownoutEnd(l) => (l.0, 0.0),
                    ChaosAction::BrownoutStart { link, factor } => (link.0, factor),
                };
                [chaos_index(&action) as u64, element as u64, factor.to_bits(), 0]
            }
            Event::TxDone { .. } | Event::Arrive { .. } => [0; 4],
        };
        let key_words = [key.time.0, u64::from(key.class) << 32 | u64::from(key.lane), key.seq];
        hash = key_words.into_iter().chain(words).fold(hash, mix);
    }
    hash
}

impl Network {
    /// Freeze the engine's dynamic state, leaving it untouched. Pending
    /// root events numbered below the root counter of the first run are
    /// the build-time schedule: they are referenced (count and digest),
    /// not copied; a checkpoint before any run references every root.
    ///
    /// Panics if called while a shard splice is live (mid-sharded-window);
    /// checkpoints belong at run-call boundaries.
    pub fn checkpoint(&self) -> FrozenNetwork {
        assert!(
            self.splice.is_none(),
            "checkpoint must be taken at a quiescent barrier, not mid-shard-window"
        );
        let built_roots = self.built_roots.unwrap_or(self.root_seq);
        let (referenced, copied): (Vec<_>, Vec<_>) = self
            .queue
            .sorted()
            .into_iter()
            .partition(|(key, _)| key.class == CLASS_ROOT && key.seq < built_roots);
        FrozenNetwork {
            now: self.queue.now(),
            seed: self.seed,
            root_seq: self.root_seq,
            stats: self.stats,
            obs: self.obs.sink.clone(),
            events: copied.into_iter().cloned().collect(),
            built_roots,
            referenced: referenced.len() as u64,
            referenced_digest: root_digest(referenced),
            nodes: self.nodes.iter().map(|n| n.down).collect(),
            links: self.links.iter().map(|l| l.freeze()).collect(),
            tapped: self.tapped.clone(),
        }
    }

    /// Whether `frozen` was taken from an engine of this one's shape and
    /// schedule: same node, link and tap counts, same seed, a metric sink
    /// that fits, link queues of this engine's capacities whose byte counts
    /// match their packets, no pending event naming a node or link out of
    /// range or keyed to another event class or link direction (the queue
    /// files a packet event under its key's lane) — and this engine has
    /// never run, numbered exactly the image's build-time roots, and holds
    /// the referenced ones (by count and digest). A CRC-valid image from another scenario fails here instead
    /// of indexing out of bounds or resuming someone else's traffic.
    pub fn accepts(&self, frozen: &FrozenNetwork) -> bool {
        let node = |n: NodeId| n.0 < self.nodes.len();
        let link = |l: LinkId| l.0 < self.links.len();
        self.nodes.len() == frozen.nodes.len()
            && self.links.len() == frozen.links.len()
            && self.tapped.len() == frozen.tapped.len()
            && self.seed == frozen.seed
            && self.obs.fits(&frozen.obs)
            && self.links.iter().zip(&frozen.links).all(|(l, f)| l.fits(f))
            && frozen.events.iter().all(|(key, event)| {
                let packet = |class: u8, l: LinkId, dir: Dir| {
                    link(l) && key.class == class && key.lane as usize == l.0 * 2 + dir.index()
                };
                match *event {
                    Event::Inject { node: n, .. } => key.class == CLASS_ROOT && node(n),
                    Event::TxDone { link: l, dir } => packet(CLASS_TX_DONE, l, dir),
                    Event::Arrive { link: l, dir, .. } => packet(CLASS_ARRIVE, l, dir),
                    Event::Timer { .. } => key.class == CLASS_ROOT,
                    Event::Chaos { action } => {
                        key.class == CLASS_ROOT
                            && match action {
                                ChaosAction::NodeDown(n) | ChaosAction::NodeUp(n) => node(n),
                                ChaosAction::LinkDown(l)
                                | ChaosAction::LinkUp(l)
                                | ChaosAction::BrownoutStart { link: l, .. }
                                | ChaosAction::BrownoutEnd(l) => link(l),
                            }
                    }
                }
            })
            && self.built_roots.is_none()
            && self.root_seq == frozen.built_roots
            && frozen.built_roots <= frozen.root_seq
            && frozen.referenced <= self.queue.len() as u64
            && {
                // Never run: everything pending is a build-time root.
                let pending = self.queue.sorted();
                let suffix = &pending[pending.len() - frozen.referenced as usize..];
                root_digest(suffix.iter().copied()) == frozen.referenced_digest
            }
    }

    /// Apply a frozen state onto this engine, which must have been rebuilt
    /// with the same static topology and build-time schedule and not run;
    /// an image [`Network::accepts`] turns down is refused with the engine
    /// untouched. Ingress filters are NOT restored here; the owner of each
    /// filter re-installs it from its own thawed state.
    pub fn restore(&mut self, frozen: FrozenNetwork) -> Result<(), TopologyMismatch> {
        assert!(self.splice.is_none(), "cannot restore into a live shard splice");
        if !self.accepts(&frozen) {
            return Err(TopologyMismatch);
        }
        self.obs.thaw(frozen.obs).map_err(|_| TopologyMismatch)?;
        self.root_seq = frozen.root_seq;
        self.built_roots = Some(frozen.built_roots);
        self.stats = frozen.stats;
        self.tapped = frozen.tapped;
        for (node, down) in self.nodes.iter_mut().zip(frozen.nodes) {
            node.down = down;
        }
        for (link, f) in self.links.iter_mut().zip(frozen.links) {
            link.thaw(f);
        }
        // The frozen run dispatched a key-ordered prefix of the build-time
        // schedule: drop it and keep the referenced suffix where it sits,
        // then add the copied events; the clock moves only after that.
        self.queue.keep_last(frozen.referenced as usize);
        for (key, event) in frozen.events {
            self.queue.schedule(key, event);
        }
        self.queue.set_now(frozen.now);
        self.shard_report = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Link;
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
        let l1 = net.push_link(Link::new(LinkId(0), h1, s1, 50_000_000, SimDuration::from_micros(10), 60_000));
        let l2 = net.push_link(Link::new(LinkId(1), s1, h2, 50_000_000, SimDuration::from_micros(10), 30_000));
        if let NodeKind::Host { gateway, .. } = &mut net.nodes[h1.0].kind {
            *gateway = Some(l1);
        }
        if let NodeKind::Host { gateway, .. } = &mut net.nodes[h2.0].kind {
            *gateway = Some(l2);
        }
        net.nodes[s1.0].install_route(Prefix::v4(Ipv4Addr::new(10, 0, 0, 2), 32), l2);
        net.nodes[s1.0].install_route(Prefix::v4(Ipv4Addr::new(10, 0, 0, 1), 32), l1);
        // Bursty loss over a 5 % i.i.d. floor.
        net.link_mut(l1).install_burst(&crate::link::GilbertElliott::new(0.02, 0.2, 0.05, 0.6));
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

    /// The 400 + 100 packet schedule `restore_resumes_identically` runs.
    fn scheduled_net() -> (Network, NodeId) {
        let (mut net, h1) = lossy_net();
        blast(&mut net, h1, 0, 400);
        // Leave future stimuli pending across the barrier too.
        blast(&mut net, h1, 3_000, 100);
        (net, h1)
    }

    /// Freeze mid-run, thaw into a freshly built topology carrying the
    /// same schedule, finish both; the thawed engine must match the
    /// uninterrupted one byte-for-byte.
    #[test]
    fn restore_resumes_identically() {
        let (mut net, _) = scheduled_net();
        net.run(&mut crate::network::NullHooks, Some(SimTime::from_millis(2)));
        let frozen = net.checkpoint();
        assert!(frozen.referenced > 0, "the barrier leaves build-time roots pending");

        // The run resumes from the binary form, which is what a crash leaves.
        let thawed: FrozenNetwork = serde::bin::from_slice(&serde::bin::to_vec(&frozen)).unwrap();
        assert_eq!(frozen, thawed);

        let (mut fresh, _) = scheduled_net();
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

        /// Wherever the barrier falls — queues full, loss and burst-loss
        /// state mid-stream, chaos pending, real payload bytes in flight —
        /// the binary form decodes to an equal value that re-serializes to
        /// the same bytes.
        #[test]
        fn frozen_network_round_trips(
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
        }
    }

    /// A well-formed image from another topology or schedule — or one
    /// whose pending events name a node or link this one lacks or carry
    /// the key of another event class or link direction, or whose queues
    /// disagree with this topology or with their own packets — is
    /// refused, and every refusal leaves the engine as it was.
    #[test]
    fn restore_refuses_an_image_that_does_not_fit() {
        let build = || {
            let (mut net, h1) = lossy_net();
            blast(&mut net, h1, 0, 50);
            net
        };
        let mut net = build();
        net.run(&mut crate::network::NullHooks, Some(SimTime::from_millis(1)));
        let good = net.checkpoint();
        let late = EventKey::root(SimTime::from_secs(9), u64::MAX);
        let doctors: [fn(&mut FrozenNetwork, EventKey); 14] = [
            |f, _| f.nodes.truncate(f.nodes.len() - 1),
            |f, _| drop(f.links.pop()),
            |f, _| f.tapped.push(false),
            |f, _| f.seed += 1,
            |f, _| f.obs = campuslab_obs::Registry::new().sink(),
            |f, k| f.events.push((k, Event::TxDone { link: LinkId(2), dir: crate::link::Dir::AtoB })),
            |f, k| f.events.push((k, Event::Chaos { action: ChaosAction::NodeUp(NodeId(3)) })),
            |f, k| f.events.push((k, Event::TxDone { link: LinkId(0), dir: crate::link::Dir::AtoB })),
            |f, k| {
                let key = EventKey::tx_done(k.time, u32::MAX, 0);
                f.events.push((key, Event::TxDone { link: LinkId(0), dir: crate::link::Dir::AtoB }));
            },
            |f, _| f.built_roots += 1,
            |f, _| f.referenced += 1,
            |f, _| f.referenced_digest ^= 1,
            |f, _| f.links[0] = Link::new(LinkId(0), NodeId(0), NodeId(1), 1, SimDuration::ZERO, 1).freeze(),
            |f, _| assert!(f.links.iter_mut().any(FrozenLink::understate_queue), "no queue holds a packet"),
        ];
        let mut fresh = build();
        let untouched = fresh.checkpoint();
        for (i, doctor) in doctors.iter().enumerate() {
            let mut image = good.clone();
            doctor(&mut image, late);
            assert_eq!(fresh.restore(image), Err(TopologyMismatch), "doctor {i}");
        }
        assert_eq!(fresh.checkpoint(), untouched);
        assert_eq!(fresh.restore(good), Ok(()));
    }

    /// Before any run every pending root is build-time: the image copies
    /// no event, and the rebuilt engine keeps its whole schedule.
    #[test]
    fn a_checkpoint_before_any_run_references_every_root() {
        let (mut net, _) = scheduled_net();
        let image = net.checkpoint();
        assert_eq!((image.events.len(), image.referenced), (0, 500));
        let (mut fresh, _) = scheduled_net();
        fresh.restore(image).unwrap();
        net.run(&mut crate::network::NullHooks, None);
        fresh.run(&mut crate::network::NullHooks, None);
        assert_eq!(net.stats, fresh.stats);
        assert_eq!(net.obs.render(), fresh.obs.render());
    }

    /// An engine that has run — even one that only restored an image — is
    /// no restore target: its pending set is no longer the build-time
    /// schedule. The refusal leaves it exactly as it was.
    #[test]
    fn restore_refuses_an_engine_that_has_run() {
        let (mut net, _) = scheduled_net();
        net.run(&mut crate::network::NullHooks, Some(SimTime::from_millis(1)));
        let image = net.checkpoint();

        let (mut ran, _) = scheduled_net();
        ran.run(&mut crate::network::NullHooks, Some(SimTime::from_micros(500)));
        let before = ran.checkpoint();
        assert_eq!(ran.restore(image.clone()), Err(TopologyMismatch));
        assert_eq!(ran.checkpoint(), before);

        let (mut restored, _) = scheduled_net();
        assert_eq!(restored.restore(image.clone()), Ok(()));
        assert_eq!(restored.restore(image), Err(TopologyMismatch));
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
        assert!(net.nodes[1].is_down(), "chaos transition must be live at the barrier");

        let (mut fresh, _) = build();
        // The fresh copy holds the whole build-time schedule; restore keeps
        // the part still pending at the barrier.
        fresh.restore(frozen).unwrap();
        net.run(&mut crate::network::NullHooks, None);
        fresh.run(&mut crate::network::NullHooks, None);
        assert_eq!(net.stats, fresh.stats);
        assert_eq!(net.obs.render(), fresh.obs.render());
    }
}
