//! Observatory schema for the capture plane: one [`CaptureObs`] per
//! [`crate::monitor::Monitor`], filled from its owner,
//! [`crate::monitor::MonitorStats`], when the monitor finishes
//! ([`CaptureObs::of`]), so the renderable export surface and the
//! programmatic one can never disagree.
//!
//! The counters encode the tap conservation law
//! `observed == captured + ring_dropped`,
//! which [`CaptureObs::conserved`] checks straight off the sink.

use crate::monitor::MonitorStats;

campuslab_obs::schema! {
    /// Metrics registry + sink for one capture monitor.
    pub struct CaptureObs {
        /// Packets that crossed the tapped wire.
        counter observed: "cap_observed_packets_total", "packets that crossed the tapped wire";
        /// Packets admitted into the rings.
        counter captured: "cap_captured_packets_total", "packets admitted into capture rings";
        /// Packets the rings could not keep up with.
        counter ring_dropped: "cap_lost_packets_total" {cause = "ring"}, LOST_HELP;
        /// Wire bytes of captured packets.
        counter bytes_captured: "cap_captured_bytes_total", "wire bytes of captured packets";
    }
}

const LOST_HELP: &str = "packets lost to monitoring, by cause";

impl CaptureObs {
    /// The monitor's counts as a filled sink.
    pub fn of(stats: &MonitorStats) -> Self {
        let mut obs = CaptureObs::new();
        obs.sink.add(obs.observed, stats.observed);
        obs.sink.add(obs.captured, stats.captured);
        obs.sink.add(obs.ring_dropped, stats.ring_dropped);
        obs.sink.add(obs.bytes_captured, stats.bytes_captured);
        obs
    }

    /// The tap conservation law, checked straight off the sink.
    pub fn conserved(&self) -> bool {
        self.observed() == self.captured() + self.ring_dropped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_holds_by_construction() {
        let stats = MonitorStats { observed: 10, captured: 2, ring_dropped: 8, bytes_captured: 300 };
        let obs = CaptureObs::of(&stats);
        assert!(obs.conserved());
        assert_eq!(obs.bytes_captured(), 300);
        let text = obs.render();
        assert!(text.contains("cap_observed_packets_total 10"));
        assert!(text.contains("cap_lost_packets_total{cause=\"ring\"} 8"));
    }
}
