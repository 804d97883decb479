//! A streaming window detector: the control-plane/cloud tier of the fast
//! loop. Buffers one tumbling window of tap records, classifies each
//! per-destination cell when the window closes, and emits detections.

use crate::observe::DetectorObs;
use campuslab_capture::PacketRecord;
use campuslab_features::{aggregate, LabelMode, WindowConfig, WINDOW_ORDER};
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
    /// Observatory sink: window/coverage/detection telemetry, records
    /// observed and windows skipped included.
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
    /// Announced telemetry gaps, `[from_ns, until_ns)`, sorted and
    /// disjoint: [`StreamingWindowDetector::announce_gap`] coalesces.
    gaps: Vec<(u64, u64)>,
}

/// Below this observed fraction a window is skipped outright rather than
/// extrapolated from too little signal.
const MIN_COVERAGE: f64 = 0.5;

impl StreamingWindowDetector {
    /// Create a detector around a trained window-feature model. Windows
    /// with under 50% telemetry coverage are skipped. Panics on a
    /// zero-length window or a non-finite gate, either of which would
    /// otherwise surface only once records arrive (a division by zero) or
    /// never (a NaN gate passes nothing).
    pub fn new(model: Box<dyn Classifier + Send>, cfg: WindowConfig, gate: f64) -> Self {
        assert!(cfg.window_ns > 0, "window_ns = {}: a window must be at least 1 ns long", cfg.window_ns);
        assert!(gate.is_finite(), "confidence gate {gate} is not a finite number");
        StreamingWindowDetector {
            model,
            state: DetectorState {
                cfg,
                gate,
                current_window: None,
                buffer: Vec::new(),
                gaps: Vec::new(),
            },
            obs: DetectorObs::new(),
        }
    }

    /// Declare a telemetry gap `[from_ns, until_ns)`: the tap was blind and
    /// records from that span never arrived. Windows overlapping the gap
    /// are judged on what was actually observable. Gaps that overlap or
    /// touch an announced one merge with it, so blind time counts once.
    pub fn announce_gap(&mut self, from_ns: u64, until_ns: u64) {
        if until_ns <= from_ns {
            return;
        }
        let gaps = &mut self.state.gaps;
        let lo = gaps.partition_point(|&(_, u)| u < from_ns);
        let hi = gaps.partition_point(|&(f, _)| f <= until_ns);
        let merged = if lo < hi {
            (gaps[lo].0.min(from_ns), gaps[hi - 1].1.max(until_ns))
        } else {
            (from_ns, until_ns)
        };
        gaps.splice(lo..hi, [merged]);
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
        1.0 - blind as f64 / self.state.cfg.window_ns as f64
    }

    /// Feed one record (records must arrive in time order, as a tap
    /// produces them). Returns detections for any window that just closed.
    pub fn observe(&mut self, rec: &PacketRecord) -> Vec<Detection> {
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
        if coverage < MIN_COVERAGE {
            // Mostly blind: extrapolating a rate from a sliver of signal
            // produces confident nonsense, so the window is explicitly
            // skipped and counted, not classified.
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
                    for feature in WINDOW_ORDER.iter().filter(|f| f.scales_with_coverage()) {
                        features[feature.index()] /= coverage;
                    }
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
        FrozenDetector { state: self.state.clone(), sink: self.obs.sink.clone() }
    }

    /// Whether `frozen` was taken from a detector built like this one:
    /// same windowing, same gate, and a metric sink that fits. An image
    /// therefore cannot bring back a zero-length window or a non-finite
    /// gate that [`new`](Self::new) refuses.
    pub fn accepts(&self, frozen: &FrozenDetector) -> bool {
        frozen.state.cfg == self.state.cfg && frozen.state.gate == self.state.gate && self.obs.fits(&frozen.sink)
    }

    /// Apply a frozen image onto a freshly constructed detector (same
    /// model, same construction path). Overwrites every dynamic field; an
    /// image that [`accepts`](Self::accepts) turns down is refused
    /// untouched.
    pub fn thaw_state(&mut self, frozen: FrozenDetector) -> Result<(), SinkMisfit> {
        if !self.accepts(&frozen) {
            return Err(SinkMisfit);
        }
        self.obs.thaw(frozen.sink)?;
        self.state = frozen.state;
        Ok(())
    }
}

/// A [`StreamingWindowDetector`]'s checkpointable image: everything but
/// the model (rebuilt by the constructor) and the metric schema (rebuilt
/// by [`DetectorObs::new`]).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct FrozenDetector {
    pub state: DetectorState,
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
    #[should_panic(expected = "window_ns = 0")]
    fn zero_length_window_is_refused_at_construction() {
        StreamingWindowDetector::new(
            Box::new(CountModel),
            WindowConfig { window_ns: 0, min_packets: 3 },
            0.9,
        );
    }

    #[test]
    #[should_panic(expected = "confidence gate NaN")]
    fn nan_gate_is_refused_at_construction() {
        detector(f64::NAN);
    }

    #[test]
    fn image_of_another_window_or_gate_is_refused_untouched() {
        let mut d = detector(0.8);
        d.observe(&rec(1_000, 1, [10, 1, 1, 10], 1));
        let zero_window = {
            let mut f = d.freeze();
            f.state.cfg.window_ns = 0;
            f
        };
        let nan_gate = {
            let mut f = d.freeze();
            f.state.gate = f64::NAN;
            f
        };
        let mut fresh = detector(0.8);
        assert!(fresh.thaw_state(zero_window).is_err());
        assert!(fresh.thaw_state(nan_gate).is_err());
        assert!(fresh.state.buffer.is_empty() && fresh.obs.observed() == 0);
        assert!(detector(0.9).thaw_state(d.freeze()).is_err());
        assert!(fresh.thaw_state(d.freeze()).is_ok());
        assert_eq!(fresh.state.buffer.len(), 1);
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
        assert_eq!(d.obs.windows_skipped(), 1);
    }

    /// Overlapping blackouts are blind time once, not twice: `[0, 300 ms)`
    /// and `[200, 500 ms)` leave the window half seen, exactly like their
    /// union — classified and de-skewed ×2, not skipped — in either
    /// announcement order.
    #[test]
    fn overlapping_gaps_count_blind_time_once() {
        let run = |gaps: &[(u64, u64)]| {
            let mut d = detector(0.5);
            for &(from, until) in gaps {
                d.announce_gap(from, until);
            }
            for i in 0..8u64 {
                d.observe(&rec(600_000_000 + i * 1_000, (i % 5) as u8, [10, 1, 1, 10], 1));
            }
            let detections = d.flush();
            (d.obs.windows_skipped(), detections)
        };
        let union = run(&[(0, 500_000_000)]);
        assert_eq!((union.0, union.1.len()), (0, 1), "half-seen flood flagged");
        let (a, b) = ((0, 300_000_000), (200_000_000, 500_000_000));
        assert_eq!(run(&[a, b]), union);
        assert_eq!(run(&[b, a]), union);
        // Touching and nested gaps coalesce the same way.
        assert_eq!(run(&[(0, 250_000_000), (250_000_000, 500_000_000), (100_000_000, 200_000_000)]), union);
    }

    #[test]
    fn announced_gaps_stay_sorted_and_disjoint() {
        let mut d = detector(0.5);
        for (from, until) in [(50, 60), (10, 20), (30, 40), (15, 35), (70, 70), (60, 65), (0, 5)] {
            d.announce_gap(from, until);
        }
        assert_eq!(d.state.gaps, vec![(0, 5), (10, 40), (50, 65)]);
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
        assert_eq!(d.obs.windows_skipped(), 0);
    }

    #[test]
    fn flush_closes_the_tail_window() {
        let mut d = detector(0.5);
        for i in 0..15u64 {
            d.observe(&rec(i * 1_000, (i % 5) as u8, [10, 1, 1, 10], 1));
        }
        let out = d.flush();
        assert_eq!(out.len(), 1);
        assert_eq!(d.obs.observed(), 15);
        // After flush, the detector is reusable.
        assert!(d.flush().is_empty());
    }
}
