//! Observatory schema for the capture plane: one [`CaptureObs`] per
//! [`crate::monitor::Monitor`], bumped at the same sites as
//! [`crate::monitor::MonitorStats`] so the renderable export surface and
//! the programmatic one can never disagree.
//!
//! The counters encode the tap conservation law
//! `observed == captured + ring_dropped + blackout_dropped + sampled_out`,
//! which [`CaptureObs::conserved`] checks straight off the sink.

campuslab_obs::schema! {
    /// Metrics registry + sink for one capture monitor.
    pub struct CaptureObs {
        /// Packets that crossed the tapped wire.
        counter observed: "cap_observed_packets_total", "packets that crossed the tapped wire";
        /// Packets admitted into the rings.
        counter captured: "cap_captured_packets_total", "packets admitted into capture rings";
        /// Packets the rings could not keep up with.
        counter ring_dropped: "cap_lost_packets_total" {cause = "ring"}, LOST_HELP;
        /// Packets that passed during a tap blackout.
        counter blackout_dropped: "cap_lost_packets_total" {cause = "blackout"}, LOST_HELP;
        /// Packets discarded by the sampling stage.
        counter sampled_out: "cap_lost_packets_total" {cause = "sampled"}, LOST_HELP;
        /// Wire bytes of captured packets.
        counter bytes_captured: "cap_captured_bytes_total", "wire bytes of captured packets";
    }
}

const LOST_HELP: &str = "packets lost to monitoring, by cause";

impl CaptureObs {
    #[inline]
    pub(crate) fn on_observed(&mut self) {
        self.sink.inc(self.observed);
    }

    #[inline]
    pub(crate) fn on_captured(&mut self, wire_bytes: u64) {
        self.sink.inc(self.captured);
        self.sink.add(self.bytes_captured, wire_bytes);
    }

    #[inline]
    pub(crate) fn on_ring_dropped(&mut self) {
        self.sink.inc(self.ring_dropped);
    }

    #[inline]
    pub(crate) fn on_blackout_dropped(&mut self) {
        self.sink.inc(self.blackout_dropped);
    }

    #[inline]
    pub(crate) fn on_sampled_out(&mut self) {
        self.sink.inc(self.sampled_out);
    }

    /// The tap conservation law, checked straight off the sink.
    pub fn conserved(&self) -> bool {
        self.observed()
            == self.captured() + self.ring_dropped() + self.blackout_dropped() + self.sampled_out()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_holds_by_construction() {
        let mut obs = CaptureObs::new();
        for _ in 0..10 {
            obs.on_observed();
        }
        obs.on_captured(100);
        obs.on_captured(200);
        obs.on_ring_dropped();
        obs.on_blackout_dropped();
        for _ in 0..6 {
            obs.on_sampled_out();
        }
        assert!(obs.conserved());
        assert_eq!(obs.bytes_captured(), 300);
        let text = obs.render();
        assert!(text.contains("cap_observed_packets_total 10"));
        assert!(text.contains("cap_lost_packets_total{cause=\"sampled\"} 6"));
    }
}
