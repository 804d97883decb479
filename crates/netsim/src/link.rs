//! Links: rate, propagation delay, a drop-tail queue per direction, and
//! the fault state chaos transitions drive (down count, brownout factor),
//! beside each direction's optional Gilbert–Elliott loss channel.

use crate::checkpoint::StreamRng;
use crate::packet::Packet;
use crate::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;

/// Identifies a link in the network. Links are full-duplex; each direction
/// has its own transmitter and queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize)]
pub struct LinkId(pub usize);

/// Direction of travel on a link: `AtoB` goes from endpoint `a` to `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Dir {
    AtoB,
    BtoA,
}

impl Dir {
    /// Index into two-element per-direction arrays.
    pub fn index(self) -> usize {
        match self {
            Dir::AtoB => 0,
            Dir::BtoA => 1,
        }
    }
}

/// The capacity, in bytes, of a drop-tail queue holding `ms` milliseconds
/// of buffering at `rate_bps` (at least two full-size frames).
pub fn drop_tail_for(rate_bps: u64, ms: u64) -> usize {
    let capacity_bytes = ((rate_bps as u128 * ms as u128) / 8000) as usize;
    capacity_bytes.max(3000)
}

/// One direction's queue plus all per-direction randomized state.
///
/// The RNG and the live burst channel are *per direction* rather than
/// per network: a direction's random stream then depends only on the
/// network seed and the (link, direction) lane, never on how offers on
/// unrelated links interleave. That independence is what lets the sharded
/// engine hand each direction to its owning shard and still reproduce the
/// sequential run bit-for-bit.
///
/// Every field is dynamic state and the declaration is its checkpoint
/// image ([`FrozenLink::dirs`]): the drop-tail capacity, the queued
/// packets and their wire bytes, the transmitter horizon, the exact RNG
/// stream position, the live burst channel and the transmission counter,
/// in this order on the wire.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DirQueue {
    /// Tail-drop once the queue would hold more than this many bytes.
    capacity_bytes: usize,
    packets: std::collections::VecDeque<Box<Packet>>,
    /// Wire bytes of `packets`.
    bytes: usize,
    /// Transmitter busy until this instant.
    busy_until: SimTime,
    /// This direction's private random stream (loss).
    rng: StreamRng,
    /// Live Gilbert–Elliott channel, installed by [`Link::install_burst`].
    burst: Option<GilbertElliott>,
    /// Transmissions started in this direction; numbers each
    /// transmission's canonical arrive event, and the transmit-complete
    /// that ends it when a packet waits behind it.
    tx_seq: u64,
}

impl DirQueue {
    fn new(capacity_bytes: usize) -> Self {
        DirQueue {
            capacity_bytes,
            packets: std::collections::VecDeque::new(),
            bytes: 0,
            busy_until: SimTime::ZERO,
            rng: StreamRng(rand::SeedableRng::seed_from_u64(0)),
            burst: None,
            tx_seq: 0,
        }
    }

    /// Decide admission and enqueue; a rejected packet is handed back to
    /// the caller rather than cloned up front, which keeps the admit path
    /// copy-free.
    fn enqueue(&mut self, pkt: Box<Packet>) -> Result<(), Box<Packet>> {
        let len = pkt.wire_len();
        if self.bytes + len <= self.capacity_bytes {
            self.bytes += len;
            self.packets.push_back(pkt);
            Ok(())
        } else {
            Err(pkt)
        }
    }

    fn dequeue(&mut self) -> Option<Box<Packet>> {
        let pkt = self.packets.pop_front()?;
        self.bytes -= pkt.wire_len();
        Some(pkt)
    }
}

/// A half-open `[from, until)` window of simulated time: a blind tap, or
/// a down window read back from a chaos plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Outage {
    pub from: SimTime,
    pub until: SimTime,
}

impl Outage {
    /// True when `now` falls inside this window.
    pub fn contains(&self, now: SimTime) -> bool {
        now >= self.from && now < self.until
    }
}

/// Two-state Gilbert–Elliott bursty loss: the link alternates between a
/// good state (near-lossless) and a bad state (heavy loss), with per-packet
/// transition probabilities. Real flapping links lose packets in bursts,
/// which stresses detectors very differently from independent loss.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GilbertElliott {
    /// P(good → bad) evaluated per packet.
    pub p_enter_bad: f64,
    /// P(bad → good) evaluated per packet.
    pub p_exit_bad: f64,
    /// Loss probability while in the good state.
    pub loss_good: f64,
    /// Loss probability while in the bad state.
    pub loss_bad: f64,
    in_bad: bool,
}

impl GilbertElliott {
    /// Build a model starting in the good state.
    pub fn new(p_enter_bad: f64, p_exit_bad: f64, loss_good: f64, loss_bad: f64) -> Self {
        GilbertElliott { p_enter_bad, p_exit_bad, loss_good, loss_bad, in_bad: false }
    }

    /// Advance the channel state one packet and decide whether it is lost.
    pub fn should_drop(&mut self, rng: &mut StdRng) -> bool {
        if self.in_bad {
            if rng.gen::<f64>() < self.p_exit_bad {
                self.in_bad = false;
            }
        } else if rng.gen::<f64>() < self.p_enter_bad {
            self.in_bad = true;
        }
        let p = if self.in_bad { self.loss_bad } else { self.loss_good };
        p > 0.0 && rng.gen::<f64>() < p
    }
}

/// The chaos-driven fault state of a link. Every change to it is a
/// [`crate::chaos::ChaosAction`] riding the event queue.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FaultModel {
    /// Open `LinkDown` transitions not yet matched by a `LinkUp`: the link
    /// drops every offer while this is above zero, so overlapping flaps
    /// keep it down for their union.
    pub down: u32,
    /// Chaos-driven rate multiplier (`BrownoutStart`/`BrownoutEnd`); 1.0
    /// means healthy.
    pub rate_factor: f64,
}

impl Default for FaultModel {
    fn default() -> Self {
        FaultModel { down: 0, rate_factor: 1.0 }
    }
}

impl FaultModel {
    /// True while a chaos `LinkDown` is in effect.
    pub fn is_down(&self) -> bool {
        self.down > 0
    }

    /// Combined drop decision for one offered packet, drawing randomness
    /// from the offering direction's private stream. The drop-free fast
    /// path pays one compare and one `Option` check here.
    fn should_drop(&self, q: &mut DirQueue) -> bool {
        if self.is_down() {
            return true;
        }
        match q.burst.as_mut() {
            Some(burst) => burst.should_drop(&mut q.rng.0),
            None => false,
        }
    }
}

/// A full-duplex point-to-point link.
#[derive(Debug)]
pub struct Link {
    pub id: LinkId,
    pub a: crate::node::NodeId,
    pub b: crate::node::NodeId,
    pub rate_bps: u64,
    pub propagation: SimDuration,
    pub fault: FaultModel,
    queues: [DirQueue; 2],
}

/// What happened when a packet was offered to a link.
///
/// Drop outcomes hand the rejected packet back to the caller, so observers
/// (drop hooks) can inspect it without the forwarding path ever cloning a
/// packet speculatively.
#[derive(Debug, PartialEq, Eq)]
pub enum Offer {
    /// Transmission begins now; the packet pops out after `tx + propagation`.
    StartedTransmit,
    /// Transmitter busy; packet queued.
    Queued,
    /// Dropped by the queue discipline; the packet is returned.
    DroppedQueue(Box<Packet>),
    /// Dropped by the fault model (bursty loss or a down link); the
    /// packet is returned.
    DroppedFault(Box<Packet>),
}

impl Link {
    /// Create a link with a `queue_bytes` drop-tail queue in both
    /// directions.
    pub fn new(
        id: LinkId,
        a: crate::node::NodeId,
        b: crate::node::NodeId,
        rate_bps: u64,
        propagation: SimDuration,
        queue_bytes: usize,
    ) -> Self {
        assert!(rate_bps > 0, "link rate must be positive");
        Link {
            id,
            a,
            b,
            rate_bps,
            propagation,
            fault: FaultModel::default(),
            queues: [DirQueue::new(queue_bytes), DirQueue::new(queue_bytes)],
        }
    }

    /// The node a packet travelling in `dir` arrives at.
    pub fn dst_node(&self, dir: Dir) -> crate::node::NodeId {
        match dir {
            Dir::AtoB => self.b,
            Dir::BtoA => self.a,
        }
    }

    /// The direction that carries traffic from `from` across this link.
    pub fn dir_from(&self, from: crate::node::NodeId) -> Dir {
        if from == self.a {
            Dir::AtoB
        } else {
            debug_assert_eq!(from, self.b, "node not an endpoint of this link");
            Dir::BtoA
        }
    }

    /// Offer a packet for transmission in `dir` at `now`, drawing any
    /// randomness (loss) from that direction's private stream.
    ///
    /// Returns what happened; when `StartedTransmit` is returned the caller
    /// starts the transmission ([`Link::start_transmit`]), and when `Queued`
    /// leaves the packet alone in the queue ([`Link::lone_waiter`]) the
    /// caller schedules the transmit-complete that will send it.
    pub fn offer(&mut self, dir: Dir, pkt: Box<Packet>, now: SimTime) -> Offer {
        let q = &mut self.queues[dir.index()];
        if self.fault.should_drop(q) {
            return Offer::DroppedFault(pkt);
        }
        if q.busy_until <= now && q.packets.is_empty() {
            // Idle transmitter: the packet goes straight to the wire.
            q.bytes += pkt.wire_len();
            q.packets.push_back(pkt);
            Offer::StartedTransmit
        } else {
            match q.enqueue(pkt) {
                Ok(()) => Offer::Queued,
                Err(pkt) => Offer::DroppedQueue(pkt),
            }
        }
    }

    /// Begin transmitting the head-of-line packet at `now`, returning the
    /// packet, its serialization time, total one-way latency, and this
    /// transmission's per-direction ordinal (the canonical event `seq`).
    /// The caller schedules the delivery, and the transmit-complete at
    /// `now + serialization` only when a packet still waits
    /// ([`Link::has_backlog`]).
    pub fn start_transmit(
        &mut self,
        dir: Dir,
        now: SimTime,
    ) -> Option<(Box<Packet>, SimDuration, SimDuration, u64)> {
        let rate = self.effective_rate_bps();
        let q = &mut self.queues[dir.index()];
        let pkt = q.dequeue()?;
        let tx = SimDuration::transmission(pkt.wire_len(), rate);
        q.busy_until = now + tx;
        let seq = q.tx_seq;
        q.tx_seq += 1;
        Some((pkt, tx, tx + self.propagation, seq))
    }

    /// The rate the transmitter runs at right now, after brownouts. The
    /// healthy path is a single float compare.
    pub fn effective_rate_bps(&self) -> u64 {
        if self.fault.rate_factor >= 1.0 {
            return self.rate_bps;
        }
        ((self.rate_bps as f64 * self.fault.rate_factor) as u64).max(1)
    }

    /// True when packets are waiting in `dir`.
    pub fn has_backlog(&self, dir: Dir) -> bool {
        !self.queues[dir.index()].packets.is_empty()
    }

    /// When exactly one packet waits in `dir`: the instant the transmitter
    /// frees up and the ordinal of the transmission occupying it — the
    /// time and `seq` of the transmit-complete that will send the waiter.
    pub fn lone_waiter(&self, dir: Dir) -> Option<(SimTime, u64)> {
        let q = &self.queues[dir.index()];
        (q.packets.len() == 1).then(|| (q.busy_until, q.tx_seq - 1))
    }

    /// Install `model` as both directions' live loss channel, each
    /// starting in the good state.
    pub fn install_burst(&mut self, model: &GilbertElliott) {
        for q in &mut self.queues {
            q.burst = Some(model.clone());
        }
    }

    /// Bytes currently queued in `dir`.
    pub fn queued_bytes(&self, dir: Dir) -> usize {
        self.queues[dir.index()].bytes
    }

    /// Seed both directions' random streams from the owning network's
    /// seed. The stream depends only on `(network seed, link id,
    /// direction)`, so any engine that replays the same offers in the same
    /// per-direction order reproduces the same losses.
    pub(crate) fn reseed_dirs(&mut self, network_seed: u64) {
        for dir in [Dir::AtoB, Dir::BtoA] {
            let lane = (self.id.0 as u64) * 2 + dir.index() as u64;
            let seed = network_seed ^ (lane + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            self.queues[dir.index()].rng = StreamRng(rand::SeedableRng::seed_from_u64(seed));
        }
    }

    /// True when neither direction holds or is transmitting a packet —
    /// the state in which the link can be split across shards.
    pub(crate) fn is_quiescent(&self) -> bool {
        self.queues.iter().all(|q| q.packets.is_empty())
    }

    /// A structural copy for a shard: same configuration, fault model and
    /// per-direction RNG/burst/tx state. Only valid on a quiescent link
    /// (asserted), whose packet queues are empty.
    pub(crate) fn shard_clone(&self) -> Link {
        assert!(self.is_quiescent(), "cannot split a link with packets in flight");
        Link {
            id: self.id,
            a: self.a,
            b: self.b,
            rate_bps: self.rate_bps,
            propagation: self.propagation,
            fault: self.fault.clone(),
            queues: self.queues.clone(),
        }
    }

    /// Take direction `dir`'s live state (queue, RNG, burst, tx counter)
    /// from `other`, the shard copy that owned that direction.
    pub(crate) fn adopt_dir(&mut self, dir: Dir, other: &mut Link) {
        debug_assert_eq!(self.id, other.id);
        let i = dir.index();
        self.queues[i] = std::mem::replace(&mut other.queues[i], DirQueue::new(self.queues[i].capacity_bytes));
    }

    /// Capture every bit of this link's dynamic state (fault model, both
    /// direction queues with their private RNG streams) for a checkpoint.
    /// Queued packets are cloned; the link is unchanged.
    pub fn freeze(&self) -> FrozenLink {
        FrozenLink { fault: self.fault.clone(), dirs: self.queues.clone() }
    }

    /// Whether `frozen` can be thawed onto this link: each direction keeps
    /// this link's drop-tail capacity, and its byte count is what its
    /// queued packets weigh on the wire, so no later dequeue underflows.
    pub(crate) fn fits(&self, frozen: &FrozenLink) -> bool {
        self.queues.iter().zip(&frozen.dirs).all(|(live, f)| {
            f.capacity_bytes == live.capacity_bytes
                && f.packets.iter().map(|p| p.wire_len()).sum::<usize>() == f.bytes
        })
    }

    /// Restore dynamic state captured by [`Link::freeze`] onto this link,
    /// which must have been rebuilt with the same static topology.
    pub fn thaw(&mut self, frozen: FrozenLink) {
        self.fault = frozen.fault;
        self.queues = frozen.dirs;
    }
}

/// Serializable snapshot of a link's full dynamic state.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FrozenLink {
    pub fault: FaultModel,
    pub dirs: [DirQueue; 2],
}

#[cfg(test)]
impl FrozenLink {
    /// Understate the byte count of the first direction holding packets,
    /// as a corrupt image could; false when both directions are empty.
    pub(crate) fn understate_queue(&mut self) -> bool {
        let Some(q) = self.dirs.iter_mut().find(|q| !q.packets.is_empty()) else {
            return false;
        };
        q.bytes -= 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;
    use crate::packet::{GroundTruth, PacketBuilder, Payload};
    use std::net::Ipv4Addr;

    fn pkt(bytes: usize) -> Packet {
        let mut b = PacketBuilder::new();
        b.udp_v4(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1,
            2,
            Payload::Synthetic(bytes),
            64,
            GroundTruth::default(),
        )
    }

    fn link(rate: u64, cap: usize) -> Link {
        Link::new(LinkId(0), NodeId(0), NodeId(1), rate, SimDuration::from_micros(10), cap)
    }

    #[test]
    fn idle_link_starts_transmit_immediately() {
        let mut l = link(1_000_000_000, 100_000);
        assert_eq!(
            l.offer(Dir::AtoB, Box::new(pkt(958)), SimTime::ZERO),
            Offer::StartedTransmit
        );
        let (p, tx, total, seq) = l.start_transmit(Dir::AtoB, SimTime::ZERO).unwrap();
        assert_eq!(seq, 0);
        // 958 + 42 header bytes = 1000 bytes at 1 Gbps = 8 us.
        assert_eq!(p.wire_len(), 1000);
        assert_eq!(tx, SimDuration::from_micros(8));
        assert_eq!(total, SimDuration::from_micros(18));
    }

    #[test]
    fn busy_link_queues_then_drops_when_full() {
        let mut l = link(1_000_000, 2000);
        assert_eq!(
            l.offer(Dir::AtoB, Box::new(pkt(958)), SimTime::ZERO),
            Offer::StartedTransmit
        );
        l.start_transmit(Dir::AtoB, SimTime::ZERO).unwrap();
        // Transmitter busy for 8ms: the next offers queue until capacity.
        assert_eq!(l.offer(Dir::AtoB, Box::new(pkt(958)), SimTime(1)), Offer::Queued);
        assert_eq!(l.offer(Dir::AtoB, Box::new(pkt(958)), SimTime(2)), Offer::Queued);
        let rejected = Box::new(pkt(958));
        let rejected_id = rejected.id;
        match l.offer(Dir::AtoB, rejected, SimTime(3)) {
            Offer::DroppedQueue(p) => assert_eq!(p.id, rejected_id),
            other => panic!("expected queue drop, got {other:?}"),
        }
        assert!(l.has_backlog(Dir::AtoB));
    }

    #[test]
    fn directions_are_independent() {
        let mut l = link(1_000_000, 2000);
        l.offer(Dir::AtoB, Box::new(pkt(958)), SimTime::ZERO);
        l.start_transmit(Dir::AtoB, SimTime::ZERO).unwrap();
        // Reverse direction is still idle.
        assert_eq!(
            l.offer(Dir::BtoA, Box::new(pkt(100)), SimTime(1)),
            Offer::StartedTransmit
        );
    }

    #[test]
    fn certain_loss_channel_drops_every_offer() {
        let mut l = link(1_000_000_000, 100_000);
        l.install_burst(&GilbertElliott::new(0.0, 0.0, 1.0, 1.0));
        for dir in [Dir::AtoB, Dir::BtoA] {
            assert!(matches!(
                l.offer(dir, Box::new(pkt(10)), SimTime::ZERO),
                Offer::DroppedFault(_)
            ));
        }
    }

    #[test]
    fn transmissions_are_numbered_and_queued_bytes_drain() {
        let mut l = link(8_000_000, 1_000_000); // 1 byte per microsecond
        l.offer(Dir::AtoB, Box::new(pkt(958)), SimTime::ZERO);
        let (first, tx, _, _) = l.start_transmit(Dir::AtoB, SimTime::ZERO).unwrap();
        assert_eq!(tx, SimDuration::from_micros(1000));
        // The second packet waits 1000 us for the first to serialize.
        assert_eq!(l.offer(Dir::AtoB, Box::new(pkt(958)), SimTime::ZERO), Offer::Queued);
        assert_eq!(l.queued_bytes(Dir::AtoB), 1000);
        let (second, _, _, seq) = l.start_transmit(Dir::AtoB, SimTime::from_micros(1000)).unwrap();
        assert_eq!(seq, 1);
        assert_eq!(first.wire_len() + second.wire_len(), 2000);
        assert_eq!(l.queued_bytes(Dir::AtoB), 0);
    }

    #[test]
    fn drop_tail_sizing_helper() {
        // 10 ms at 1 Gbps = 1.25 MB; never below two full-size frames.
        assert_eq!(drop_tail_for(1_000_000_000, 10), 1_250_000);
        assert_eq!(drop_tail_for(1_000, 1), 3_000);
    }

    #[test]
    fn gilbert_elliott_losses_come_in_bursts() {
        let mut l = link(1_000_000_000, 1_000_000);
        // Sticky bad state with certain loss; near-lossless good state.
        let model = GilbertElliott::new(0.02, 0.2, 0.0, 1.0);
        l.install_burst(&model);
        let mut outcomes = Vec::new();
        for i in 0..2000u64 {
            match l.offer(Dir::AtoB, Box::new(pkt(10)), SimTime(i)) {
                Offer::DroppedFault(_) => outcomes.push(true),
                _ => {
                    outcomes.push(false);
                    l.start_transmit(Dir::AtoB, SimTime(i)).unwrap();
                }
            }
        }
        let losses = outcomes.iter().filter(|&&d| d).count();
        // The long-run loss rate: the bad state's share times its loss.
        let bad = model.p_enter_bad / (model.p_enter_bad + model.p_exit_bad);
        let expected = bad * model.loss_bad + (1.0 - bad) * model.loss_good;
        let observed = losses as f64 / outcomes.len() as f64;
        assert!((observed - expected).abs() < 0.05, "loss rate {observed} vs {expected}");
        // Burstiness: consecutive losses are far likelier than independent
        // loss at the same mean would produce.
        let pairs = outcomes.windows(2).filter(|w| w[0] && w[1]).count();
        let loss_rate = observed;
        let independent_pairs = (outcomes.len() - 1) as f64 * loss_rate * loss_rate;
        assert!(
            pairs as f64 > 2.0 * independent_pairs,
            "losses not bursty: {pairs} pairs vs {independent_pairs:.1} expected if independent"
        );
    }

    #[test]
    fn brownout_slows_transmission() {
        let mut l = link(1_000_000_000, 1_000_000);
        assert_eq!(l.effective_rate_bps(), 1_000_000_000);
        l.fault.rate_factor = 0.1;
        assert_eq!(l.effective_rate_bps(), 100_000_000);
        l.offer(Dir::AtoB, Box::new(pkt(958)), SimTime::ZERO);
        let (_, tx, _, _) = l.start_transmit(Dir::AtoB, SimTime::ZERO).unwrap();
        // 1000 bytes at 100 Mbps (10% of 1 Gbps) = 80 us.
        assert_eq!(tx, SimDuration::from_micros(80));
        l.fault.rate_factor = 1.0;
        assert_eq!(l.effective_rate_bps(), 1_000_000_000);
        l.offer(Dir::AtoB, Box::new(pkt(958)), SimTime::from_secs(1));
        let (_, tx, _, _) = l.start_transmit(Dir::AtoB, SimTime::from_secs(1)).unwrap();
        assert_eq!(tx, SimDuration::from_micros(8));
    }

    #[test]
    fn a_down_link_drops_everything_until_its_count_clears() {
        let mut l = link(1_000_000_000, 1_000_000);
        l.fault.down = 1;
        assert!(l.fault.is_down());
        assert!(matches!(
            l.offer(Dir::AtoB, Box::new(pkt(10)), SimTime::ZERO),
            Offer::DroppedFault(_)
        ));
        l.fault.down = 0;
        assert_eq!(
            l.offer(Dir::AtoB, Box::new(pkt(10)), SimTime(1)),
            Offer::StartedTransmit
        );
    }

    #[test]
    fn dir_helpers() {
        let l = link(1, 1);
        assert_eq!(l.dir_from(NodeId(0)), Dir::AtoB);
        assert_eq!(l.dir_from(NodeId(1)), Dir::BtoA);
        assert_eq!(l.dst_node(Dir::AtoB), NodeId(1));
        assert_eq!(l.dst_node(Dir::BtoA), NodeId(0));
    }
}
