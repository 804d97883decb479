//! The simulator's Observatory schema: a [`NetObs`] is one
//! [`campuslab_obs::schema!`] table — the registry describing every netsim
//! metric plus the sink it is booked on. One `NetObs` per
//! [`crate::network::Network`] — no
//! globals, no locks, and parallel runs each own their sink.
//!
//! Every count has one owner. Injections, deliveries, delivered bytes
//! and drops by reason are decided in [`crate::network::NetStats`], the
//! struct callers read; the event loop books the sink's copies from it
//! once per run call (`Network::book`), so the two can never
//! disagree. The sink alone owns what `NetStats` does not hold: events,
//! chaos transitions and the two histograms.

use crate::chaos::ChaosAction;
use crate::network::{DropReason, NetStats};

/// Queue-depth histogram bounds, bytes (≤1 KB .. ≤10 MB, then +Inf).
pub const QUEUE_DEPTH_BOUNDS: [u64; 5] = [1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// Delivery-latency histogram bounds, microseconds (≤10 us .. ≤1 s, then +Inf).
pub const LATENCY_BOUNDS: [u64; 6] = [10, 100, 1_000, 10_000, 100_000, 1_000_000];

campuslab_obs::schema! {
    /// Metrics registry + sink for one simulated network. The sink is
    /// public so the event loop writes without an extra indirection.
    pub struct NetObs {
        /// Events dispatched so far — the simulator's event sequence number.
        counter event_seq: "sim_events_total",
            "events dispatched by the simulator loop (doubles as the event sequence number)";
        /// Injected-packet counter.
        counter injected: "sim_injected_packets_total", "packets scheduled into the network";
        /// Delivered-packet counter.
        counter delivered: "sim_delivered_packets_total",
            "packets that reached their destination host";
        /// Delivered wire bytes.
        counter delivered_bytes: "sim_delivered_bytes_total", "wire bytes of delivered packets";
        /// Indexed by [`drop_index`].
        counter drops: "sim_dropped_packets_total"
            {reason = ["queue", "fault", "filter", "ttl", "no_route", "node_down"]},
            "packets dropped, by cause";
        /// Indexed by [`chaos_index`].
        counter chaos: "sim_chaos_transitions_total"
            {kind =
                ["link_down", "link_up", "node_down", "node_up", "brownout_start", "brownout_end"]},
            "chaos-plan fault transitions applied, by kind";
        /// The queue-depth histogram.
        histogram queue_depth_histogram: "sim_link_queue_depth_bytes",
            "egress queue depth sampled at each enqueue", &QUEUE_DEPTH_BOUNDS;
        /// The delivery-latency histogram (microseconds).
        histogram latency_histogram: "sim_delivery_latency_us",
            "end-to-end delivery latency in microseconds", &LATENCY_BOUNDS;
    }
}

/// The event loop's histogram observations (queue depth at each
/// enqueue, latency at each delivery), bucketed in fields the loop owns
/// and booked on the sink once per run call, the way `NetObs::on_events`
/// books events: a hop costs a short compare chain and a few adds, not a
/// walk to the sink's histograms. Sums are `u64`: one run call's depths
/// or latencies stay far below its range.
#[derive(Debug, Clone, Default)]
pub(crate) struct HopTally {
    depth: [u64; QUEUE_DEPTH_BOUNDS.len() + 1],
    depth_sum: u64,
    latency: [u64; LATENCY_BOUNDS.len() + 1],
    latency_sum: u64,
}

/// The bucket `value` lands in: the first bound `>= value`, or `+Inf`.
#[inline]
fn bucket(bounds: &[u64], value: u64) -> usize {
    bounds.iter().position(|&b| value <= b).unwrap_or(bounds.len())
}

/// Stable index of a [`DropReason`] into `NetObs::drops`.
pub fn drop_index(reason: DropReason) -> usize {
    match reason {
        DropReason::Queue => 0,
        DropReason::Fault => 1,
        DropReason::Filter => 2,
        DropReason::Ttl => 3,
        DropReason::NoRoute => 4,
        DropReason::NodeDown => 5,
    }
}

/// Stable index of a [`ChaosAction`] kind into `NetObs::chaos`.
pub fn chaos_index(action: &ChaosAction) -> usize {
    match action {
        ChaosAction::LinkDown(_) => 0,
        ChaosAction::LinkUp(_) => 1,
        ChaosAction::NodeDown(_) => 2,
        ChaosAction::NodeUp(_) => 3,
        ChaosAction::BrownoutStart { .. } => 4,
        ChaosAction::BrownoutEnd(_) => 5,
    }
}

impl NetObs {
    /// `n` events popped off the simulator queue. The loops count in a
    /// local and book the total once per run call (or window), so the
    /// per-event cost of the counter is a register increment.
    #[inline]
    pub(crate) fn on_events(&mut self, n: u64) {
        self.sink.add(self.event_seq, n);
    }

    /// A packet was delivered `latency_ns` after its injection.
    #[inline]
    pub(crate) fn on_deliver(&self, tally: &mut HopTally, latency_ns: u64) {
        if self.sink.enabled() {
            let us = latency_ns / 1_000;
            tally.latency[bucket(&LATENCY_BOUNDS, us)] += 1;
            tally.latency_sum += us;
        }
    }

    #[inline]
    pub(crate) fn on_chaos(&mut self, action: &ChaosAction) {
        self.sink.inc(self.chaos[chaos_index(action)]);
    }

    /// A packet was offered to a link whose queue now holds `bytes`.
    #[inline]
    pub(crate) fn on_enqueue(&self, tally: &mut HopTally, bytes: u64) {
        if self.sink.enabled() {
            tally.depth[bucket(&QUEUE_DEPTH_BOUNDS, bytes)] += 1;
            tally.depth_sum += bytes;
        }
    }

    /// Bring the sink's copies of the [`NetStats`] counts up to `stats`,
    /// their owner ([`campuslab_obs::ObsSink::book`]), and book what
    /// `tally` holds, starting it afresh. A disabled sink books nothing.
    pub(crate) fn book(&mut self, stats: &NetStats, tally: &mut HopTally) {
        let counts = [
            (self.injected, stats.injected),
            (self.delivered, stats.delivered),
            (self.delivered_bytes, stats.delivered_bytes),
        ];
        let drops = DropReason::ALL.map(|reason| (self.drops[drop_index(reason)], stats.dropped(reason)));
        self.sink.book(counts.into_iter().chain(drops));
        let HopTally { depth, depth_sum, latency, latency_sum } = std::mem::take(tally);
        self.sink.observe_buckets(self.queue_depth_histogram, &depth, depth_sum.into());
        self.sink.observe_buckets(self.latency_histogram, &latency, latency_sum.into());
    }

    /// Fold a shard slice's sink (same schema by construction) into this
    /// one. The slice's `NetStats` fold into this network's at the same
    /// time, so the counts stay equal to their owner's.
    pub(crate) fn merge_from(&mut self, other: &NetObs) {
        self.sink.merge_from(&other.sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkId;

    #[test]
    fn drop_and_chaos_indices_are_dense_and_distinct() {
        use crate::network::DropReason::*;
        let reasons = [Queue, Fault, Filter, Ttl, NoRoute, NodeDown];
        let mut seen: Vec<usize> = reasons.iter().map(|&r| drop_index(r)).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
        let actions = [
            ChaosAction::LinkDown(LinkId(0)),
            ChaosAction::LinkUp(LinkId(0)),
            ChaosAction::NodeDown(crate::node::NodeId(0)),
            ChaosAction::NodeUp(crate::node::NodeId(0)),
            ChaosAction::BrownoutStart { link: LinkId(0), factor: 0.5 },
            ChaosAction::BrownoutEnd(LinkId(0)),
        ];
        let mut seen: Vec<usize> = actions.iter().map(chaos_index).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
    }
}
