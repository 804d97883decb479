//! Capture rings: the admission model for "continuous, lossless, full
//! packet capture at scale" (paper §5).
//!
//! A [`CaptureRing`] models one NIC receive ring feeding an indexing
//! appliance: packets drain at the appliance's sustained rate, and a packet
//! arriving to a full ring is lost *to the monitoring system* (the network
//! still delivers it — monitoring loss and network loss are different
//! things). A [`CaptureArray`] spreads load across several rings by flow
//! hash, the way RSS steers a multi-queue NIC.
//!
//! Experiment E2 sweeps offered load against ring sizing to find the
//! lossless envelope the paper claims campus-scale (10–20 Gbps) traffic
//! sits comfortably inside.

use crate::fxhash::FxHasher;
use crate::records::FlowKey;
use campuslab_netsim::SimTime;
use std::hash::{Hash, Hasher};

/// Sizing of one capture ring.
#[derive(Debug, Clone, Copy)]
pub struct RingConfig {
    /// Ring capacity in packets.
    pub capacity: usize,
    /// Sustained drain (index-to-store) rate, packets per second.
    pub drain_pps: f64,
}

impl Default for RingConfig {
    fn default() -> Self {
        // A comfortable commodity appliance: 4096-descriptor ring drained
        // at 1.5 Mpps.
        RingConfig { capacity: 4096, drain_pps: 1_500_000.0 }
    }
}

/// Counters for one ring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingStats {
    pub offered: u64,
    pub captured: u64,
    pub dropped: u64,
}

impl RingStats {
    /// Fraction of offered packets lost by the monitoring system.
    pub fn loss_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.dropped as f64 / self.offered as f64
        }
    }
}

/// One receive ring with deterministic fluid drain.
#[derive(Debug, Clone)]
pub struct CaptureRing {
    cfg: RingConfig,
    /// Current occupancy, in packets (fractional due to fluid drain).
    occupancy: f64,
    last_ns: u64,
    pub stats: RingStats,
}

impl CaptureRing {
    /// An empty ring.
    pub fn new(cfg: RingConfig) -> Self {
        CaptureRing { cfg, occupancy: 0.0, last_ns: 0, stats: RingStats::default() }
    }

    fn drain_to(&mut self, now: SimTime) {
        let now_ns = now.as_nanos();
        if now_ns > self.last_ns {
            let dt = (now_ns - self.last_ns) as f64 / 1e9;
            self.occupancy = (self.occupancy - dt * self.cfg.drain_pps).max(0.0);
            self.last_ns = now_ns;
        }
    }

    /// Offer a packet at `now`; returns true when captured.
    pub fn offer(&mut self, now: SimTime) -> bool {
        self.drain_to(now);
        self.stats.offered += 1;
        if self.occupancy + 1.0 <= self.cfg.capacity as f64 {
            self.occupancy += 1.0;
            self.stats.captured += 1;
            true
        } else {
            self.stats.dropped += 1;
            false
        }
    }

    /// Current queue depth in packets.
    pub fn occupancy(&self) -> f64 {
        self.occupancy
    }
}

/// A multi-queue capture front end with flow-hash steering.
#[derive(Debug, Clone)]
pub struct CaptureArray {
    rings: Vec<CaptureRing>,
}

impl CaptureArray {
    /// `n` identical rings; panics when `n == 0`.
    pub fn new(n: usize, cfg: RingConfig) -> Self {
        assert!(n > 0, "need at least one ring");
        CaptureArray { rings: vec![CaptureRing::new(cfg); n] }
    }

    fn steer(&self, key: &FlowKey) -> usize {
        let mut h = FxHasher::default();
        // Canonicalize so both directions of a conversation land on the
        // same ring (flow affinity, like real RSS with symmetric hashing).
        key.canonical().hash(&mut h);
        (h.finish() % self.rings.len() as u64) as usize
    }

    /// Offer a packet belonging to `key`; returns true when captured.
    pub fn offer(&mut self, now: SimTime, key: &FlowKey) -> bool {
        let idx = self.steer(key);
        self.rings[idx].offer(now)
    }

    /// Aggregate statistics over all rings.
    pub fn stats(&self) -> RingStats {
        let mut total = RingStats::default();
        for r in &self.rings {
            total.offered += r.stats.offered;
            total.captured += r.stats.captured;
            total.dropped += r.stats.dropped;
        }
        total
    }

    /// Number of rings.
    pub fn len(&self) -> usize {
        self.rings.len()
    }

    /// Always false (constructed non-empty).
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::IpAddr;

    fn key(src_last: u8, sport: u16) -> FlowKey {
        FlowKey {
            src: IpAddr::V4(std::net::Ipv4Addr::new(10, 0, 0, src_last)),
            dst: IpAddr::V4(std::net::Ipv4Addr::new(203, 0, 113, 1)),
            protocol: 17,
            src_port: sport,
            dst_port: 53,
        }
    }

    #[test]
    fn under_drain_rate_nothing_drops() {
        let mut ring = CaptureRing::new(RingConfig { capacity: 64, drain_pps: 1_000_000.0 });
        // 100k pps offered against 1M pps drain: always captured.
        for i in 0..10_000u64 {
            assert!(ring.offer(SimTime(i * 10_000)));
        }
        assert_eq!(ring.stats.dropped, 0);
        assert_eq!(ring.stats.captured, 10_000);
    }

    #[test]
    fn over_drain_rate_fills_and_drops() {
        let mut ring = CaptureRing::new(RingConfig { capacity: 100, drain_pps: 100_000.0 });
        // 1M pps offered against 100k pps drain: the ring fills, then ~90%
        // of subsequent packets drop.
        let mut dropped = 0;
        for i in 0..100_000u64 {
            if !ring.offer(SimTime(i * 1_000)) {
                dropped += 1;
            }
        }
        assert!(dropped > 80_000, "dropped {dropped}");
        let loss = ring.stats.loss_rate();
        assert!((loss - 0.9).abs() < 0.05, "loss {loss}");
    }

    #[test]
    fn burst_within_capacity_is_absorbed() {
        let mut ring = CaptureRing::new(RingConfig { capacity: 1000, drain_pps: 1000.0 });
        // 500 back-to-back packets at t=0: all buffered despite slow drain.
        for _ in 0..500 {
            assert!(ring.offer(SimTime::ZERO));
        }
        assert_eq!(ring.stats.dropped, 0);
        assert!((ring.occupancy() - 500.0).abs() < 1e-9);
        // After a second the ring has fully drained.
        assert!(ring.offer(SimTime::from_secs(1)));
        assert!(ring.occupancy() <= 1.0);
    }

    #[test]
    fn array_steers_flows_consistently() {
        let mut arr = CaptureArray::new(4, RingConfig::default());
        let k = key(1, 40_000);
        for i in 0..100u64 {
            arr.offer(SimTime(i), &k);
            arr.offer(SimTime(i), &k.reversed());
        }
        // All 200 packets (both directions) land on exactly one ring.
        let busy: Vec<_> = arr.rings.iter().map(|r| &r.stats).filter(|s| s.offered > 0).cloned().collect();
        assert_eq!(busy.len(), 1);
        assert_eq!(busy[0].offered, 200);
    }

    #[test]
    fn array_spreads_distinct_flows() {
        let mut arr = CaptureArray::new(8, RingConfig::default());
        for i in 0..2000u16 {
            arr.offer(SimTime(u64::from(i)), &key((i % 250) as u8, 1024 + i));
        }
        let active = arr.rings.iter().map(|r| &r.stats).filter(|s| s.offered > 0).count();
        assert!(active >= 6, "poor spread: {active} of 8 rings active");
    }

    #[test]
    fn more_rings_raise_the_lossless_envelope() {
        // Same aggregate offered load; 8 rings keep up where 1 cannot.
        let offered_pps = 4_000_000u64;
        let run = |n: usize| {
            let mut arr = CaptureArray::new(
                n,
                RingConfig { capacity: 4096, drain_pps: 1_000_000.0 },
            );
            let gap = 1_000_000_000 / offered_pps;
            for i in 0..200_000u64 {
                let k = key((i % 200) as u8, (i % 50_000) as u16);
                arr.offer(SimTime(i * gap), &k);
            }
            arr.stats().loss_rate()
        };
        let one = run(1);
        let eight = run(8);
        assert!(one > 0.5, "single ring should be overwhelmed: {one}");
        assert!(eight < 0.05, "eight rings should keep up: {eight}");
    }
}
