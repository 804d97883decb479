//! The fast (online) control loop of Figure 2, shadow side: a compiled
//! model evaluated per packet on mirrored traffic, enforcing nothing. The
//! enforcing side is the switch's filter bank ([`crate::BankFilter`]).

use campuslab_dataplane::{Action, FieldExtractor, PipelineProgram, PipelineRuntime};
use campuslab_netsim::{Packet, SimTime};

/// Shadow-verdict accounting for one SLO window (or the run total).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ShadowWindow {
    /// Mirrored packets evaluated.
    pub mirrored: u64,
    /// Of those, ground-truth benign.
    pub benign: u64,
    /// Benign packets the candidate *would have* dropped.
    pub would_drop_benign: u64,
    /// Attack packets the candidate would have dropped.
    pub would_drop_attack: u64,
}

impl ShadowWindow {
    /// Fraction of benign mirrored traffic the candidate flagged — the
    /// shadow-stage false-positive rate against ground truth.
    pub fn fp_rate(&self) -> f64 {
        if self.benign == 0 {
            return 0.0;
        }
        self.would_drop_benign as f64 / self.benign as f64
    }
}

/// A candidate program evaluated on mirrored tap traffic: verdicts are
/// recorded against packet ground truth but *never* enforced — no packet
/// is dropped by a shadow. This is the rollout guard's shadow stage.
///
/// Serializable wholesale: a mirror is pure state (extractor + compiled
/// runtime + accounting), so checkpoints carry it directly.
#[derive(Clone, serde::Serialize, serde::Deserialize)]
pub struct ShadowMirror {
    extractor: FieldExtractor,
    runtime: PipelineRuntime,
    window: ShadowWindow,
    totals: ShadowWindow,
}

impl ShadowMirror {
    /// Mirror `program` over traffic parsed by `extractor`.
    pub fn new(program: PipelineProgram, extractor: FieldExtractor) -> Self {
        ShadowMirror {
            extractor,
            runtime: program.into_runtime(),
            window: ShadowWindow::default(),
            totals: ShadowWindow::default(),
        }
    }

    /// Evaluate one mirrored packet; records the verdict, drops nothing.
    pub fn observe(&mut self, now: SimTime, packet: &Packet) -> Action {
        let fields = self.extractor.from_packet(packet);
        let action = self
            .runtime
            .process_at(now.as_nanos(), &fields, packet.wire_len() as u32);
        let is_attack = packet.truth.is_malicious();
        for w in [&mut self.window, &mut self.totals] {
            w.mirrored += 1;
            if !is_attack {
                w.benign += 1;
            }
            if action == Action::Drop {
                if is_attack {
                    w.would_drop_attack += 1;
                } else {
                    w.would_drop_benign += 1;
                }
            }
        }
        action
    }

    /// Take and reset the current window's accounting.
    pub fn take_window(&mut self) -> ShadowWindow {
        std::mem::take(&mut self.window)
    }

    /// Whole-run accounting (never reset).
    pub fn totals(&self) -> ShadowWindow {
        self.totals
    }
}
