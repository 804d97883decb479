//! Links: rate, propagation delay, a queue discipline per direction, and a
//! fault-injection model (random loss, scheduled outages).

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
    /// The opposite direction.
    pub fn flip(self) -> Dir {
        match self {
            Dir::AtoB => Dir::BtoA,
            Dir::BtoA => Dir::AtoB,
        }
    }

    /// Index into two-element per-direction arrays.
    pub fn index(self) -> usize {
        match self {
            Dir::AtoB => 0,
            Dir::BtoA => 1,
        }
    }
}

/// Queue discipline configuration for one link direction.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum QueueDiscipline {
    /// Tail-drop once the queue holds `capacity_bytes`.
    DropTail { capacity_bytes: usize },
    /// Random Early Detection over an EWMA of queue occupancy.
    Red {
        capacity_bytes: usize,
        min_thresh_bytes: usize,
        max_thresh_bytes: usize,
        /// Drop probability at `max_thresh` (0.0..=1.0).
        max_p: f64,
    },
}

impl QueueDiscipline {
    /// A drop-tail queue sized for `ms` milliseconds of buffering at `rate`.
    pub fn drop_tail_for(rate_bps: u64, ms: u64) -> Self {
        let capacity_bytes = ((rate_bps as u128 * ms as u128) / 8000) as usize;
        QueueDiscipline::DropTail { capacity_bytes: capacity_bytes.max(3000) }
    }
}

/// EWMA weight for RED's average queue estimate.
const RED_WEIGHT: f64 = 0.05;

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
/// image ([`FrozenLink::dirs`]): queued packets with their enqueue stamps,
/// the RED average, the transmitter horizon, the exact RNG stream
/// position, the live burst channel and the transmission counter, in this
/// order on the wire.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DirQueue {
    discipline: QueueDiscipline,
    packets: std::collections::VecDeque<(Box<Packet>, SimTime)>,
    bytes: usize,
    avg_bytes: f64,
    /// Transmitter busy until this instant.
    busy_until: SimTime,
    /// This direction's private random stream (loss, RED).
    rng: StreamRng,
    /// Live Gilbert–Elliott channel state, synced from the installed
    /// `FaultModel::burst` template on first use / parameter change.
    burst: Option<GilbertElliott>,
    /// Transmissions started in this direction; numbers the canonical
    /// (tx_done, arrive) event pair of each transmission.
    tx_seq: u64,
}

impl DirQueue {
    fn new(discipline: QueueDiscipline) -> Self {
        DirQueue {
            discipline,
            packets: std::collections::VecDeque::new(),
            bytes: 0,
            avg_bytes: 0.0,
            busy_until: SimTime::ZERO,
            rng: StreamRng(rand::SeedableRng::seed_from_u64(0)),
            burst: None,
            tx_seq: 0,
        }
    }

    /// Decide admission and enqueue; a rejected packet is handed back to
    /// the caller rather than cloned up front, which keeps the admit path
    /// copy-free.
    fn enqueue(&mut self, pkt: Box<Packet>, now: SimTime) -> Result<(), Box<Packet>> {
        let len = pkt.wire_len();
        let admitted = match self.discipline {
            QueueDiscipline::DropTail { capacity_bytes } => self.bytes + len <= capacity_bytes,
            QueueDiscipline::Red {
                capacity_bytes,
                min_thresh_bytes,
                max_thresh_bytes,
                max_p,
            } => {
                self.avg_bytes =
                    self.avg_bytes * (1.0 - RED_WEIGHT) + (self.bytes as f64) * RED_WEIGHT;
                if self.bytes + len > capacity_bytes {
                    false
                } else if self.avg_bytes <= min_thresh_bytes as f64 {
                    true
                } else if self.avg_bytes >= max_thresh_bytes as f64 {
                    false
                } else {
                    let frac = (self.avg_bytes - min_thresh_bytes as f64)
                        / (max_thresh_bytes - min_thresh_bytes).max(1) as f64;
                    self.rng.0.gen::<f64>() >= frac * max_p
                }
            }
        };
        if admitted {
            self.bytes += len;
            self.packets.push_back((pkt, now));
            Ok(())
        } else {
            Err(pkt)
        }
    }

    fn dequeue(&mut self) -> Option<(Box<Packet>, SimTime)> {
        let (pkt, t) = self.packets.pop_front()?;
        self.bytes -= pkt.wire_len();
        Some((pkt, t))
    }
}

/// Scheduled outage window during which a link drops everything.
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

/// A window during which a link's effective rate is degraded — a
/// "brownout" (failing optics, a duplex mismatch, an overloaded
/// middlebox). Packets still flow, just slower.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RateWindow {
    pub from: SimTime,
    pub until: SimTime,
    /// Multiplier on the nominal link rate, in (0.0, 1.0].
    pub factor: f64,
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

    /// Long-run fraction of time spent in the bad state.
    pub fn bad_state_fraction(&self) -> f64 {
        let denom = self.p_enter_bad + self.p_exit_bad;
        if denom == 0.0 {
            0.0
        } else {
            self.p_enter_bad / denom
        }
    }

    /// Expected long-run loss rate.
    pub fn mean_loss(&self) -> f64 {
        let bad = self.bad_state_fraction();
        bad * self.loss_bad + (1.0 - bad) * self.loss_good
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

    /// True when `other` has identical transition/loss parameters (state
    /// excluded) — the check a live per-direction channel uses to decide
    /// whether its installed template changed underneath it.
    fn same_params(&self, other: &GilbertElliott) -> bool {
        self.p_enter_bad == other.p_enter_bad
            && self.p_exit_bad == other.p_exit_bad
            && self.loss_good == other.loss_good
            && self.loss_bad == other.loss_bad
    }
}

/// Random fault behaviour of a link.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FaultModel {
    /// Independent per-packet loss probability.
    pub drop_probability: f64,
    /// Scheduled hard outages.
    pub outages: Vec<Outage>,
    /// Optional bursty (Gilbert–Elliott) loss channel, evaluated per offer.
    pub burst: Option<GilbertElliott>,
    /// Scheduled degraded-rate windows.
    pub slowdowns: Vec<RateWindow>,
    /// Chaos-driven hard-down toggle (flipped by `ChaosAction::LinkDown`
    /// / `LinkUp` events riding the simulation event queue).
    pub forced_down: bool,
    /// Chaos-driven rate multiplier (`BrownoutStart`/`BrownoutEnd`); 1.0
    /// means healthy.
    pub rate_factor: f64,
}

impl Default for FaultModel {
    fn default() -> Self {
        FaultModel {
            drop_probability: 0.0,
            outages: Vec::new(),
            burst: None,
            slowdowns: Vec::new(),
            forced_down: false,
            rate_factor: 1.0,
        }
    }
}

impl FaultModel {
    /// True when the link is hard-down at `now` (scheduled outage or a
    /// chaos `LinkDown` in effect).
    pub fn is_down(&self, now: SimTime) -> bool {
        self.forced_down || self.outages.iter().any(|o| o.contains(now))
    }

    /// Combined drop decision for one offered packet, drawing randomness
    /// from the offering direction's private stream. The drop-free fast
    /// path pays only a handful of flag compares here.
    fn should_drop(&self, now: SimTime, q: &mut DirQueue) -> bool {
        if self.forced_down || (!self.outages.is_empty() && self.is_down(now)) {
            return true;
        }
        // Sync the direction's live burst channel with the installed
        // template: install / removal / parameter change each reset the
        // live state to the template's.
        match (&self.burst, &mut q.burst) {
            (None, live) => {
                if live.is_some() {
                    *live = None;
                }
            }
            (Some(t), Some(live)) if live.same_params(t) => {}
            (Some(t), live) => *live = Some(t.clone()),
        }
        if let Some(burst) = q.burst.as_mut() {
            if burst.should_drop(&mut q.rng.0) {
                return true;
            }
        }
        self.drop_probability > 0.0 && q.rng.0.gen::<f64>() < self.drop_probability
    }

    /// Effective rate multiplier at `now`: the chaos factor combined with
    /// any scheduled slowdown windows covering this instant.
    pub fn rate_factor_at(&self, now: SimTime) -> f64 {
        let mut f = self.rate_factor;
        for w in &self.slowdowns {
            if now >= w.from && now < w.until {
                f *= w.factor;
            }
        }
        f
    }
}

/// Per-direction transmit statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DirStats {
    pub tx_packets: u64,
    pub tx_bytes: u64,
    pub dropped_queue: u64,
    pub dropped_fault: u64,
    /// Cumulative time the transmitter spent sending, for utilization.
    pub busy: SimDuration,
    /// Cumulative queueing delay experienced by transmitted packets.
    pub queue_delay: SimDuration,
}

impl DirStats {
    /// Transmitter utilization over an observation window.
    pub fn utilization(&self, window: SimDuration) -> f64 {
        if window.as_nanos() == 0 {
            return 0.0;
        }
        self.busy.as_secs_f64() / window.as_secs_f64()
    }

    /// Mean queueing delay per transmitted packet.
    pub fn mean_queue_delay(&self) -> SimDuration {
        if self.tx_packets == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos(self.queue_delay.as_nanos() / self.tx_packets)
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
    pub stats: [DirStats; 2],
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
    /// Dropped by the fault model (random loss or outage); the packet is
    /// returned.
    DroppedFault(Box<Packet>),
}

impl Link {
    /// Create a link with the same queue discipline in both directions.
    pub fn new(
        id: LinkId,
        a: crate::node::NodeId,
        b: crate::node::NodeId,
        rate_bps: u64,
        propagation: SimDuration,
        discipline: QueueDiscipline,
    ) -> Self {
        assert!(rate_bps > 0, "link rate must be positive");
        Link {
            id,
            a,
            b,
            rate_bps,
            propagation,
            fault: FaultModel::default(),
            queues: [DirQueue::new(discipline), DirQueue::new(discipline)],
            stats: [DirStats::default(), DirStats::default()],
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
    /// randomness (loss, RED) from that direction's private stream.
    ///
    /// Returns what happened; when `StartedTransmit` is returned the caller
    /// must schedule `tx_done` at `now + serialization` and delivery at
    /// `now + serialization + propagation`.
    pub fn offer(&mut self, dir: Dir, pkt: Box<Packet>, now: SimTime) -> Offer {
        let q = &mut self.queues[dir.index()];
        if self.fault.should_drop(now, q) {
            self.stats[dir.index()].dropped_fault += 1;
            return Offer::DroppedFault(pkt);
        }
        if q.busy_until <= now && q.packets.is_empty() {
            // Idle transmitter: the packet goes straight to the wire.
            q.bytes += pkt.wire_len();
            q.packets.push_back((pkt, now));
            Offer::StartedTransmit
        } else {
            match q.enqueue(pkt, now) {
                Ok(()) => Offer::Queued,
                Err(pkt) => {
                    self.stats[dir.index()].dropped_queue += 1;
                    Offer::DroppedQueue(pkt)
                }
            }
        }
    }

    /// Begin transmitting the head-of-line packet at `now`, returning the
    /// packet, its serialization time, total one-way latency, and this
    /// transmission's per-direction ordinal (the canonical event `seq`).
    /// The caller schedules the corresponding `tx_done` and delivery
    /// events.
    pub fn start_transmit(
        &mut self,
        dir: Dir,
        now: SimTime,
    ) -> Option<(Box<Packet>, SimDuration, SimDuration, u64)> {
        let rate = self.effective_rate_bps(now);
        let q = &mut self.queues[dir.index()];
        let (pkt, enqueued_at) = q.dequeue()?;
        let tx = SimDuration::transmission(pkt.wire_len(), rate);
        q.busy_until = now + tx;
        let seq = q.tx_seq;
        q.tx_seq += 1;
        let s = &mut self.stats[dir.index()];
        s.tx_packets += 1;
        s.tx_bytes += pkt.wire_len() as u64;
        s.busy += tx;
        s.queue_delay += now - enqueued_at;
        Some((pkt, tx, tx + self.propagation, seq))
    }

    /// The rate the transmitter runs at right now, after brownouts. The
    /// healthy path is a single float compare.
    pub fn effective_rate_bps(&self, now: SimTime) -> u64 {
        if self.fault.rate_factor >= 1.0 && self.fault.slowdowns.is_empty() {
            return self.rate_bps;
        }
        let f = self.fault.rate_factor_at(now).clamp(0.0, 1.0);
        ((self.rate_bps as f64 * f) as u64).max(1)
    }

    /// True when packets are waiting in `dir`.
    pub fn has_backlog(&self, dir: Dir) -> bool {
        !self.queues[dir.index()].packets.is_empty()
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

    /// A structural copy for a shard: same configuration, fault model,
    /// per-direction RNG/burst/tx state and stats. Only valid on a
    /// quiescent link (asserted), whose packet queues are empty.
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
            stats: self.stats,
        }
    }

    /// Take direction `dir`'s live state (queue, RNG, burst, tx counter,
    /// stats) from `other`, the shard copy that owned that direction.
    pub(crate) fn adopt_dir(&mut self, dir: Dir, other: &mut Link) {
        debug_assert_eq!(self.id, other.id);
        let i = dir.index();
        self.queues[i] = std::mem::replace(&mut other.queues[i], DirQueue::new(self.queues[i].discipline));
        self.stats[i] = other.stats[i];
    }

    /// Capture every bit of this link's dynamic state (fault model, both
    /// direction queues with their private RNG streams, stats) for a
    /// checkpoint. Queued packets are cloned; the link is unchanged.
    pub fn freeze(&self) -> FrozenLink {
        FrozenLink {
            fault: self.fault.clone(),
            stats: self.stats,
            dirs: self.queues.clone(),
        }
    }

    /// Restore dynamic state captured by [`Link::freeze`] onto this link,
    /// which must have been rebuilt with the same static topology.
    pub fn thaw(&mut self, frozen: FrozenLink) {
        self.fault = frozen.fault;
        self.stats = frozen.stats;
        self.queues = frozen.dirs;
    }
}

/// Serializable snapshot of a link's full dynamic state.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FrozenLink {
    pub fault: FaultModel,
    pub stats: [DirStats; 2],
    pub dirs: [DirQueue; 2],
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
        Link::new(
            LinkId(0),
            NodeId(0),
            NodeId(1),
            rate,
            SimDuration::from_micros(10),
            QueueDiscipline::DropTail { capacity_bytes: cap },
        )
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
        assert_eq!(l.stats[0].dropped_queue, 1);
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
    fn fault_drops_and_outages() {
        let mut l = link(1_000_000_000, 100_000);
        l.fault.drop_probability = 1.0;
        assert!(matches!(
            l.offer(Dir::AtoB, Box::new(pkt(10)), SimTime::ZERO),
            Offer::DroppedFault(_)
        ));
        l.fault.drop_probability = 0.0;
        l.fault.outages.push(Outage {
            from: SimTime::from_secs(10),
            until: SimTime::from_secs(20),
        });
        assert!(l.fault.is_down(SimTime::from_secs(15)));
        assert!(matches!(
            l.offer(Dir::AtoB, Box::new(pkt(10)), SimTime::from_secs(15)),
            Offer::DroppedFault(_)
        ));
        assert!(!l.fault.is_down(SimTime::from_secs(20)));
        assert_eq!(l.stats[0].dropped_fault, 2);
    }

    #[test]
    fn red_drops_probabilistically_between_thresholds() {
        let mut l = Link::new(
            LinkId(0),
            NodeId(0),
            NodeId(1),
            1_000_000,
            SimDuration::ZERO,
            QueueDiscipline::Red {
                capacity_bytes: 1_000_000,
                min_thresh_bytes: 2_000,
                max_thresh_bytes: 20_000,
                max_p: 1.0,
            },
        );
        // Saturate the transmitter, then flood the queue.
        l.offer(Dir::AtoB, Box::new(pkt(958)), SimTime::ZERO);
        l.start_transmit(Dir::AtoB, SimTime::ZERO).unwrap();
        let mut dropped = 0;
        let mut queued = 0;
        for i in 0..200 {
            match l.offer(Dir::AtoB, Box::new(pkt(958)), SimTime(i)) {
                Offer::Queued => queued += 1,
                Offer::DroppedQueue(_) => dropped += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        // RED must drop some but not all packets once the average climbs.
        assert!(dropped > 0, "RED never dropped");
        assert!(queued > 0, "RED dropped everything");
    }

    #[test]
    fn utilization_and_queue_delay_accounting() {
        let mut l = link(8_000_000, 1_000_000); // 1 byte per microsecond
        l.offer(Dir::AtoB, Box::new(pkt(958)), SimTime::ZERO);
        l.start_transmit(Dir::AtoB, SimTime::ZERO).unwrap();
        l.offer(Dir::AtoB, Box::new(pkt(958)), SimTime::ZERO);
        // Second packet waits 1000 us for the first to serialize.
        let busy_until = SimTime::from_micros(1000);
        let (_, _, _, seq) = l.start_transmit(Dir::AtoB, busy_until).unwrap();
        assert_eq!(seq, 1);
        let s = &l.stats[0];
        assert_eq!(s.tx_packets, 2);
        assert_eq!(s.tx_bytes, 2000);
        assert_eq!(s.queue_delay, SimDuration::from_micros(1000));
        assert_eq!(s.mean_queue_delay(), SimDuration::from_micros(500));
        assert!((s.utilization(SimDuration::from_micros(2000)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn drop_tail_sizing_helper() {
        // 10 ms at 1 Gbps = 1.25 MB.
        match QueueDiscipline::drop_tail_for(1_000_000_000, 10) {
            QueueDiscipline::DropTail { capacity_bytes } => {
                assert_eq!(capacity_bytes, 1_250_000)
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn gilbert_elliott_losses_come_in_bursts() {
        let mut l = link(1_000_000_000, 1_000_000);
        // Sticky bad state with certain loss; near-lossless good state.
        l.fault.burst = Some(GilbertElliott::new(0.02, 0.2, 0.0, 1.0));
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
        let expected = l.fault.burst.as_ref().unwrap().mean_loss();
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
        l.fault.rate_factor = 0.1;
        l.offer(Dir::AtoB, Box::new(pkt(958)), SimTime::ZERO);
        let (_, tx, _, _) = l.start_transmit(Dir::AtoB, SimTime::ZERO).unwrap();
        // 1000 bytes at 100 Mbps (10% of 1 Gbps) = 80 us.
        assert_eq!(tx, SimDuration::from_micros(80));
        l.fault.rate_factor = 1.0;
        l.offer(Dir::AtoB, Box::new(pkt(958)), SimTime::from_secs(1));
        let (_, tx, _, _) = l.start_transmit(Dir::AtoB, SimTime::from_secs(1)).unwrap();
        assert_eq!(tx, SimDuration::from_micros(8));
    }

    #[test]
    fn scheduled_slowdown_window_only_applies_inside() {
        let mut l = link(1_000_000_000, 1_000_000);
        l.fault.slowdowns.push(RateWindow {
            from: SimTime::from_secs(1),
            until: SimTime::from_secs(2),
            factor: 0.5,
        });
        assert_eq!(l.effective_rate_bps(SimTime::ZERO), 1_000_000_000);
        assert_eq!(l.effective_rate_bps(SimTime::from_secs(1)), 500_000_000);
        assert_eq!(l.effective_rate_bps(SimTime::from_secs(2)), 1_000_000_000);
    }

    #[test]
    fn forced_down_drops_everything_until_cleared() {
        let mut l = link(1_000_000_000, 1_000_000);
        l.fault.forced_down = true;
        assert!(l.fault.is_down(SimTime::ZERO));
        assert!(matches!(
            l.offer(Dir::AtoB, Box::new(pkt(10)), SimTime::ZERO),
            Offer::DroppedFault(_)
        ));
        l.fault.forced_down = false;
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
        assert_eq!(Dir::AtoB.flip(), Dir::BtoA);
    }
}
