//! The simulator's Observatory schema: a [`NetObs`] is one
//! [`campuslab_obs::schema!`] table — the registry describing every netsim
//! metric plus the sink the event loop bumps. One `NetObs` per
//! [`crate::network::Network`] — no
//! globals, no locks, and parallel runs each own their sink, so the fast
//! path stays a plain `u64` add.
//!
//! The counters deliberately mirror [`crate::network::NetStats`]: the
//! aggregate struct stays the cheap programmatic surface, while the
//! registry is the renderable, mergeable export surface. A coherence test
//! in `network.rs` pins the two to agree.

use crate::chaos::ChaosAction;
use crate::network::DropReason;

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
    /// One event popped off the simulator queue.
    #[inline]
    pub(crate) fn on_event(&mut self) {
        self.sink.inc(self.event_seq);
    }

    #[inline]
    pub(crate) fn on_inject(&mut self) {
        self.sink.inc(self.injected);
    }

    #[inline]
    pub(crate) fn on_deliver(&mut self, wire_bytes: u64, latency_ns: u64) {
        self.sink.inc(self.delivered);
        self.sink.add(self.delivered_bytes, wire_bytes);
        self.sink.observe(self.latency_histogram, latency_ns / 1_000);
    }

    #[inline]
    pub(crate) fn on_drop(&mut self, reason: DropReason) {
        self.sink.inc(self.drops[drop_index(reason)]);
    }

    #[inline]
    pub(crate) fn on_chaos(&mut self, action: &ChaosAction) {
        self.sink.inc(self.chaos[chaos_index(action)]);
    }

    #[inline]
    pub(crate) fn on_enqueue_depth(&mut self, bytes: u64) {
        self.sink.observe(self.queue_depth_histogram, bytes);
    }

    /// Drop counter for one cause.
    pub fn dropped(&self, reason: DropReason) -> u64 {
        self.sink.counter(self.drops[drop_index(reason)])
    }

    /// Drops summed over every cause.
    pub fn dropped_total(&self) -> u64 {
        self.drops.iter().map(|&c| self.sink.counter(c)).sum()
    }

    /// Injected → delivered ratio, straight from the registry counters.
    pub fn delivery_ratio(&self) -> f64 {
        let inj = self.injected();
        if inj == 0 {
            return 0.0;
        }
        self.delivered() as f64 / inj as f64
    }

    /// Fold another network's sink (same schema by construction) into this
    /// one — used when a sweep aggregates per-point runs.
    pub fn merge_from(&mut self, other: &NetObs) {
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
