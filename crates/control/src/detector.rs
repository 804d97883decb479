//! A streaming window detector: the control-plane/cloud tier of the fast
//! loop. Buffers one tumbling window of tap records, classifies each
//! per-destination cell when the window closes, and emits detections.

use crate::observe::DetectorObs;
use campuslab_capture::PacketRecord;
use campuslab_features::{aggregate, LabelMode, WindowConfig};
use campuslab_ml::Classifier;
use campuslab_obs::{ObsSink, SinkMisfit};
use std::net::IpAddr;

/// One detection: a destination flagged in a closed window.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Detection {
    pub dst: IpAddr,
    /// Nanosecond timestamp of the end of the window that triggered.
    pub window_end_ns: u64,
    pub class: usize,
    pub confidence: f64,
    /// Packets in the triggering cell.
    pub packets: usize,
}

/// Streaming wrapper over the window aggregator + a trained model.
///
/// Telemetry gaps (tap blackouts, sampling outages) are first-class:
/// announce them with [`announce_gap`](Self::announce_gap) and each closed
/// window is handled by its observed coverage — skipped when mostly blind,
/// count-features de-skewed when partially blind — instead of silently
/// feeding the model rates computed over a window it only half saw.
pub struct StreamingWindowDetector {
    model: Box<dyn Classifier + Send>,
    state: DetectorState,
    /// Total records observed.
    pub observed: u64,
    /// Windows skipped because telemetry coverage fell below the policy.
    pub gap_windows_skipped: u64,
    /// Observatory sink: window/coverage/detection telemetry.
    pub obs: DetectorObs,
}

/// Everything a [`StreamingWindowDetector`] keeps privately besides its
/// model: the one declaration of those fields, and (in this order) the
/// head of its checkpoint image. The windowing parameters and gate ride
/// along so an image says what it was detecting with.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct DetectorState {
    cfg: WindowConfig,
    /// Minimum confidence to emit a detection.
    gate: f64,
    current_window: Option<u64>,
    buffer: Vec<PacketRecord>,
    /// Announced telemetry gaps, `[from_ns, until_ns)`, assumed disjoint.
    gaps: Vec<(u64, u64)>,
    /// Below this observed fraction a window is skipped outright rather
    /// than extrapolated from too little signal.
    min_coverage: f64,
}

/// Positions of the count-rate features in the window feature vector
/// (`campuslab_features::WINDOW_FEATURES`): the ones skewed by partial
/// coverage and de-skewed by `1/coverage`.
const PKT_COUNT_FEATURE: usize = 0;
const BYTE_COUNT_FEATURE: usize = 1;

impl StreamingWindowDetector {
    /// Create a detector around a trained window-feature model. Gap policy
    /// defaults to skipping windows with under 50% telemetry coverage.
    pub fn new(model: Box<dyn Classifier + Send>, cfg: WindowConfig, gate: f64) -> Self {
        StreamingWindowDetector {
            model,
            state: DetectorState {
                cfg,
                gate,
                current_window: None,
                buffer: Vec::new(),
                gaps: Vec::new(),
                min_coverage: 0.5,
            },
            observed: 0,
            gap_windows_skipped: 0,
            obs: DetectorObs::new(),
        }
    }

    /// Declare a telemetry gap `[from_ns, until_ns)`: the tap was blind and
    /// records from that span never arrived. Windows overlapping the gap
    /// are judged on what was actually observable.
    pub fn announce_gap(&mut self, from_ns: u64, until_ns: u64) {
        if until_ns > from_ns {
            self.state.gaps.push((from_ns, until_ns));
        }
    }

    /// Change the minimum-coverage policy (clamped to `[0, 1]`).
    pub fn set_min_coverage(&mut self, min_coverage: f64) {
        self.state.min_coverage = min_coverage.clamp(0.0, 1.0);
    }

    /// Fraction of `window` the tap could actually see.
    fn window_coverage(&self, window: u64) -> f64 {
        if self.state.gaps.is_empty() {
            return 1.0;
        }
        let start = window * self.state.cfg.window_ns;
        let end = start + self.state.cfg.window_ns;
        let blind: u64 = self
            .state
            .gaps
            .iter()
            .map(|&(f, u)| u.min(end).saturating_sub(f.max(start)))
            .sum();
        1.0 - blind.min(self.state.cfg.window_ns) as f64 / self.state.cfg.window_ns as f64
    }

    /// Feed one record (records must arrive in time order, as a tap
    /// produces them). Returns detections for any window that just closed.
    pub fn observe(&mut self, rec: &PacketRecord) -> Vec<Detection> {
        self.observed += 1;
        self.obs.on_observed();
        let w = rec.ts_ns / self.state.cfg.window_ns;
        let mut out = Vec::new();
        match self.state.current_window {
            Some(cur) if w != cur => {
                out = self.close_window(cur);
                self.state.current_window = Some(w);
            }
            None => self.state.current_window = Some(w),
            _ => {}
        }
        self.state.buffer.push(rec.clone());
        out
    }

    /// Force-close the open window (end of run).
    pub fn flush(&mut self) -> Vec<Detection> {
        match self.state.current_window.take() {
            Some(cur) => self.close_window(cur),
            None => Vec::new(),
        }
    }

    fn close_window(&mut self, window: u64) -> Vec<Detection> {
        let records = std::mem::take(&mut self.state.buffer);
        let coverage = self.window_coverage(window);
        if coverage < self.state.min_coverage {
            // Mostly blind: extrapolating a rate from a sliver of signal
            // produces confident nonsense, so the window is explicitly
            // skipped and counted, not classified.
            self.gap_windows_skipped += 1;
            self.obs.on_window_closed(coverage, true, 0);
            return Vec::new();
        }
        let cells = aggregate(&records, self.state.cfg, LabelMode::BinaryAttack);
        let window_end_ns = (window + 1) * self.state.cfg.window_ns;
        let out: Vec<Detection> = cells
            .into_iter()
            .filter_map(|cell| {
                let mut features = cell.features;
                if coverage < 1.0 {
                    // De-skew count features to full-window equivalents so
                    // a half-seen flood still looks like a flood.
                    features[PKT_COUNT_FEATURE] /= coverage;
                    features[BYTE_COUNT_FEATURE] /= coverage;
                }
                let (class, confidence) = self.model.predict_with_confidence(&features);
                (class != 0 && confidence >= self.state.gate).then_some(Detection {
                    dst: cell.dst,
                    window_end_ns,
                    class,
                    confidence,
                    packets: cell.packets,
                })
            })
            .collect();
        self.obs.on_window_closed(coverage, false, out.len() as u64);
        out
    }

    /// Freeze the detector's dynamic state for a checkpoint. The trained
    /// model is deliberately NOT captured: it is rebuilt deterministically
    /// by whoever constructs the detector (same seed, same training data),
    /// which keeps trait objects out of the checkpoint format.
    pub fn freeze(&self) -> FrozenDetector {
        FrozenDetector {
            state: self.state.clone(),
            observed: self.observed,
            gap_windows_skipped: self.gap_windows_skipped,
            sink: self.obs.sink.clone(),
        }
    }

    /// Apply a frozen image onto a freshly constructed detector (same
    /// model, same construction path). Overwrites every dynamic field; an
    /// image whose metric sink does not fit is refused untouched.
    pub fn thaw_state(&mut self, frozen: FrozenDetector) -> Result<(), SinkMisfit> {
        self.obs.thaw(frozen.sink)?;
        self.state = frozen.state;
        self.observed = frozen.observed;
        self.gap_windows_skipped = frozen.gap_windows_skipped;
        Ok(())
    }
}

/// A [`StreamingWindowDetector`]'s checkpointable image: everything but
/// the model (rebuilt by the constructor) and the metric schema (rebuilt
/// by [`DetectorObs::new`]).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct FrozenDetector {
    pub state: DetectorState,
    pub observed: u64,
    pub gap_windows_skipped: u64,
    pub sink: ObsSink,
}

#[cfg(test)]
mod tests {
    use super::*;
    use campuslab_capture::{Direction, TcpFlags};

    /// A "model" that flags any cell with >= 10 packets as class 1 with
    /// confidence scaling in the count.
    struct CountModel;
    impl Classifier for CountModel {
        fn n_classes(&self) -> usize {
            2
        }
        fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
            let p = (row[0] / 20.0).min(1.0);
            if row[0] >= 10.0 {
                vec![1.0 - p, p]
            } else {
                vec![1.0, 0.0]
            }
        }
    }

    fn rec(ts: u64, src_last: u8, dst: [u8; 4], attack: u16) -> PacketRecord {
        PacketRecord {
            ts_ns: ts,
            direction: Direction::Inbound,
            src: IpAddr::from([203, 0, 113, src_last]),
            dst: IpAddr::from(dst),
            protocol: 17,
            src_port: 53,
            dst_port: 40_000,
            wire_len: 1_200,
            ttl: 60,
            tcp_flags: TcpFlags::default(),
            flow_id: 0,
            label_app: 1,
            label_attack: attack,
        }
    }

    fn detector(gate: f64) -> StreamingWindowDetector {
        StreamingWindowDetector::new(
            Box::new(CountModel),
            WindowConfig { window_ns: 1_000_000_000, min_packets: 3 },
            gate,
        )
    }

    #[test]
    fn detects_after_window_closes() {
        let mut d = detector(0.8);
        let victim = [10, 1, 1, 10];
        // 20 packets in window 0: nothing emitted until window 1 begins.
        for i in 0..20u64 {
            let out = d.observe(&rec(i * 1_000, (i % 8) as u8, victim, 1));
            assert!(out.is_empty());
        }
        let detections = d.observe(&rec(1_000_000_500, 1, victim, 1));
        assert_eq!(detections.len(), 1);
        let det = &detections[0];
        assert_eq!(det.dst, IpAddr::from(victim));
        assert_eq!(det.window_end_ns, 1_000_000_000);
        assert!(det.confidence >= 0.8);
        assert_eq!(det.packets, 20);
    }

    #[test]
    fn quiet_windows_emit_nothing() {
        let mut d = detector(0.8);
        for i in 0..5u64 {
            d.observe(&rec(i * 1_000, 1, [10, 1, 1, 10], 0));
        }
        assert!(d.flush().is_empty()); // 5 packets < 10 threshold
    }

    #[test]
    fn gate_suppresses_low_confidence() {
        let strict = &mut detector(0.99);
        for i in 0..12u64 {
            strict.observe(&rec(i * 1_000, (i % 5) as u8, [10, 1, 1, 10], 1));
        }
        // 12 packets -> confidence 0.6 < 0.99.
        assert!(strict.flush().is_empty());
        let loose = &mut detector(0.5);
        for i in 0..12u64 {
            loose.observe(&rec(i * 1_000, (i % 5) as u8, [10, 1, 1, 10], 1));
        }
        assert_eq!(loose.flush().len(), 1);
    }

    #[test]
    fn partial_coverage_deskews_count_features() {
        // The tap was blind for the second half of window 0. Only 8 packets
        // were seen — below the model's 10-packet bar — but scaled to
        // full-window equivalents (16) the half-seen flood still flags.
        let mut d = detector(0.5);
        d.announce_gap(500_000_000, 1_000_000_000);
        for i in 0..8u64 {
            d.observe(&rec(i * 1_000, (i % 5) as u8, [10, 1, 1, 10], 1));
        }
        let out = d.flush();
        assert_eq!(out.len(), 1, "de-skewed flood not detected");
        // Control: without the gap announcement the same records are
        // under the bar.
        let mut blind = detector(0.5);
        for i in 0..8u64 {
            blind.observe(&rec(i * 1_000, (i % 5) as u8, [10, 1, 1, 10], 1));
        }
        assert!(blind.flush().is_empty());
    }

    #[test]
    fn mostly_blind_windows_are_skipped_not_classified() {
        let mut d = detector(0.5);
        // 80% of window 0 is blind: below the 50% coverage floor.
        d.announce_gap(100_000_000, 900_000_000);
        for i in 0..20u64 {
            d.observe(&rec(i * 1_000, (i % 8) as u8, [10, 1, 1, 10], 1));
        }
        assert!(d.flush().is_empty());
        assert_eq!(d.gap_windows_skipped, 1);
        // A stricter policy can be relaxed.
        let mut lax = detector(0.5);
        lax.set_min_coverage(0.1);
        lax.announce_gap(100_000_000, 900_000_000);
        for i in 0..20u64 {
            lax.observe(&rec(i * 1_000, (i % 8) as u8, [10, 1, 1, 10], 1));
        }
        assert_eq!(lax.flush().len(), 1);
        assert_eq!(lax.gap_windows_skipped, 0);
    }

    #[test]
    fn gaps_outside_a_window_leave_it_untouched() {
        let mut d = detector(0.8);
        d.announce_gap(5_000_000_000, 6_000_000_000); // window 5, far away
        for i in 0..20u64 {
            d.observe(&rec(i * 1_000, (i % 8) as u8, [10, 1, 1, 10], 1));
        }
        let out = d.flush();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].packets, 20);
        assert_eq!(d.gap_windows_skipped, 0);
    }

    #[test]
    fn flush_closes_the_tail_window() {
        let mut d = detector(0.5);
        for i in 0..15u64 {
            d.observe(&rec(i * 1_000, (i % 5) as u8, [10, 1, 1, 10], 1));
        }
        let out = d.flush();
        assert_eq!(out.len(), 1);
        assert_eq!(d.observed, 15);
        // After flush, the detector is reusable.
        assert!(d.flush().is_empty());
    }
}
