//! DriftPilot: the always-on learn → distill → compile → deploy loop.
//!
//! The devloop (Figure 2's slow loop) runs once; RolloutGuard supervises
//! one deployment. DriftPilot closes the remaining gap to an *operated*
//! system: a sim-time supervisor that
//!
//! * streams per-window traffic signatures from [`campuslab_capture`]
//!   sketches ([`HeavyHitters`] over `(proto, src_port)` and source
//!   prefixes) and scores window-over-window drift,
//! * buffers fresh tap records (the "fresh datastore window") and
//!   retrains the full pipeline — teacher → XAI distillation → switch
//!   compilation — on a periodic schedule and immediately on a drift
//!   onset,
//! * budget-checks every compiled candidate against the switch resource
//!   model and hands survivors to [`crate::rollout::RolloutGuard`]'s
//!   shadow → canary → full machinery (via the testbed wiring, which
//!   drains [`DriftPilot::take_candidates`] and reports the guard's
//!   verdicts back),
//! * measures the production metric that matters: sim time from drift
//!   onset to mitigated-with-SLOs-green (`dp_drift_ttm_ms`).
//!
//! **Determinism contract.** Every retrain is a pure function of the
//! buffered records: the devloop seed is a content hash of the window, so
//! byte-identical windows yield byte-identical model and program
//! fingerprints — at any sim time, on any executor. Retrain schedules
//! derive only from sim time and sim-observed scores; nothing reads the
//! wall clock. The pipeline-determinism property suite pins this law.

use crate::devloop::{run_development_loop, DevLoopConfig, TeacherKind};
use crate::observe::DriftObs;
use crate::rollout::{RolloutEvent, RolloutEventKind};
use campuslab_capture::sketch::HeavyHitters;
use campuslab_capture::{Direction, PacketRecord};
use campuslab_dataplane::{PipelineProgram, ProgramVersion, SwitchModel};
use campuslab_ml::ForestConfig;
use campuslab_netsim::fxhash::FxHasher;
use campuslab_netsim::{Commands, Dir, LinkId, Packet, SimDuration, SimHooks, SimTime};
use campuslab_obs::{ObsSink, OpenSpan, SinkMisfit, Tracer};
use std::collections::{BTreeSet, VecDeque};
use std::hash::Hasher;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// Periodic retrain interval (sim time since the last retrain).
const RETRAIN_EVERY: SimDuration = SimDuration::from_secs(2);
/// Window drift score (0..1) at or above which a drift episode opens and
/// an immediate retrain fires.
const DRIFT_THRESHOLD: f64 = 0.5;
/// Only records younger than this feed a retrain (the "fresh datastore
/// window").
const TRAINING_HORIZON: SimDuration = SimDuration::from_secs(4);
/// Hard cap on the training buffer (oldest records leave first).
const BUFFER_CAP: usize = 20_000;
/// Retrains are skipped (and retried next window) below this many
/// buffered records — the devloop needs data.
const MIN_RECORDS: usize = 60;
/// Heavy-hitter slots per drift sketch.
const HEAVY_K: usize = 8;
/// Count-min width and depth behind each sketch.
const SKETCH_WIDTH: usize = 512;
const SKETCH_DEPTH: usize = 4;
/// Drift-sketch window length.
const WINDOW: SimDuration = SimDuration::from_secs(1);

/// A fresh, empty drift sketch.
fn drift_sketch() -> HeavyHitters {
    HeavyHitters::new(HEAVY_K, SKETCH_WIDTH, SKETCH_DEPTH)
}

/// The pipeline every retrain runs (its `seed` is replaced by the record
/// window's content hash). Tuned for the testbed's compressed campus runs:
/// the always-on pilot retrains every couple of sim seconds, so its
/// teacher is a deliberately small forest. The distilled student is what
/// deploys anyway, and an 8-tree teacher keeps a full drift road test
/// fast enough to replay in CI on every executor row. Every candidate
/// must fit `SwitchModel::default()` before submission.
fn pilot_devloop() -> DevLoopConfig {
    DevLoopConfig { teacher: TeacherKind::Forest(ForestConfig { n_trees: 8 }), ..DevLoopConfig::default() }
}

/// What fired a retrain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum RetrainTrigger {
    /// The periodic schedule came due.
    Periodic,
    /// A window crossed the drift-score threshold.
    Drift,
}

/// Where a retrain's candidate ended up, pilot-side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum RetrainOutcome {
    /// Queued for the rollout guard.
    Queued,
    /// Nothing to submit: the fingerprint is already deployed or in
    /// flight, or the window held no attack and what is deployed is still
    /// the known-good the pilot was started with.
    Unchanged,
    /// Fingerprint was previously vetoed or rolled back; not resubmitted.
    Barred,
    /// The compiled program does not fit the switch resource budget.
    BudgetRejected,
}

/// One retrain, fully fingerprinted.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RetrainRecord {
    pub at: SimTime,
    pub trigger: RetrainTrigger,
    /// Records in the training window.
    pub records: usize,
    /// Content hash of the distilled student model.
    pub model_fingerprint: u64,
    /// Fingerprint of the compiled program.
    pub program_fingerprint: u64,
    pub outcome: RetrainOutcome,
}

/// One drift episode: threshold crossing to SLOs green.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DriftEpisode {
    pub ordinal: u64,
    pub onset: SimTime,
    /// Set when a pilot candidate committed (or the score calmed with
    /// nothing left to deploy); `None` means still unmitigated.
    pub mitigated: Option<SimTime>,
}

/// The always-on pipeline supervisor. Implements [`SimHooks`]; compose it
/// with a guard + controller (the testbed's `Stack` does this,
/// draining [`DriftPilot::take_candidates`] into
/// [`crate::rollout::RolloutGuard::submit_candidate`] and feeding guard
/// events back through [`DriftPilot::on_guard_event`]).
pub struct DriftPilot {
    /// The tapped border link the pilot learns from.
    tap: LinkId,
    /// Fingerprint of the program in force at start (the guard's initial
    /// known-good): retrains reproducing it are not resubmitted.
    deployed_fingerprint: u64,
    state: PilotState,
    /// Drift episodes, in onset order.
    pub episodes: Vec<DriftEpisode>,
    /// Every retrain, in sim order.
    pub retrains: Vec<RetrainRecord>,
    /// Observatory sink + drift spans; the retrain and drift counts are
    /// booked from the two logs above by `take_obs`.
    pub obs: DriftObs,
}

/// Everything a [`DriftPilot`] keeps privately besides its config —
/// training buffer, drift sketches and references, episode machinery,
/// submission bookkeeping: the one declaration of those fields, and (in
/// this order) the head of its checkpoint image. No field copies a
/// telemetry value: the window timer's keep-alive reads the buffer, so a
/// disabled sink cannot change the run.
#[derive(Clone, serde::Serialize, serde::Deserialize)]
pub struct PilotState {
    buffer: VecDeque<PacketRecord>,
    hh_ports: HeavyHitters,
    hh_prefixes: HeavyHitters,
    ref_ports: Vec<(IpAddr, u64)>,
    ref_prefixes: Vec<(IpAddr, u64)>,
    last_retrain: SimTime,
    bootstrapped: bool,
    in_drift: bool,
    drift_span: Option<OpenSpan>,
    drift_onset: SimTime,
    ordinal: u64,
    retrained_since_onset: bool,
    deployed_fp: u64,
    /// Candidate submitted to the guard, not yet judged.
    inflight: Option<u64>,
    /// Fingerprints the guard vetoed or rolled back; never resubmitted.
    barred: BTreeSet<u64>,
    /// Every fingerprint this pilot ever submitted.
    mine: BTreeSet<u64>,
    outbox: Vec<PipelineProgram>,
}

impl DriftPilot {
    /// Timer-token namespace ("DRFT"); disjoint from the controller's
    /// ("MITI") and the guard's ("ROLL") so all three share one simulator.
    pub const TOKEN_BASE: u64 = 0x4452_4654_0000_0000;
    const WINDOW_TOKEN: u64 = Self::TOKEN_BASE;

    /// A pilot learning from `tap`, started with the program of
    /// fingerprint `deployed_fingerprint` in force.
    pub fn new(tap: LinkId, deployed_fingerprint: u64) -> Self {
        let state = PilotState {
            buffer: VecDeque::new(),
            hh_ports: drift_sketch(),
            hh_prefixes: drift_sketch(),
            ref_ports: Vec::new(),
            ref_prefixes: Vec::new(),
            last_retrain: SimTime::ZERO,
            bootstrapped: false,
            in_drift: false,
            drift_span: None,
            drift_onset: SimTime::ZERO,
            ordinal: 0,
            retrained_since_onset: false,
            deployed_fp: deployed_fingerprint,
            inflight: None,
            barred: BTreeSet::new(),
            mine: BTreeSet::new(),
            outbox: Vec::new(),
        };
        DriftPilot {
            tap,
            deployed_fingerprint,
            state,
            episodes: Vec::new(),
            retrains: Vec::new(),
            obs: DriftObs::new(),
        }
    }

    /// Feed one already-parsed record. The tap path calls this; tests
    /// feed records directly.
    pub fn ingest_record(&mut self, rec: PacketRecord) {
        self.obs.on_record();
        let sport_key =
            IpAddr::V4(Ipv4Addr::new(rec.protocol, (rec.src_port >> 8) as u8, rec.src_port as u8, 0));
        self.state.hh_ports.add(sport_key, u64::from(rec.wire_len));
        self.state.hh_prefixes.add(prefix_key(rec.src), u64::from(rec.wire_len));
        self.state.buffer.push_back(rec);
        while self.state.buffer.len() > BUFFER_CAP {
            self.state.buffer.pop_front();
        }
    }

    /// Drain candidates awaiting guard submission (testbed wiring calls
    /// this after the pilot's timer tick).
    pub fn take_candidates(&mut self) -> Vec<PipelineProgram> {
        std::mem::take(&mut self.state.outbox)
    }

    /// The guard accepted this candidate into Shadow.
    pub fn on_guard_accepted(&mut self, version: &ProgramVersion) {
        self.obs.on_submitted();
        self.state.mine.insert(version.fingerprint);
        self.state.inflight = Some(version.fingerprint);
    }

    /// The guard refused the candidate (busy/cooldown): keep it for the
    /// next window tick unless a newer retrain has replaced it.
    pub fn on_guard_refused(&mut self, program: PipelineProgram) {
        self.obs.on_guard_refused();
        if self.state.outbox.is_empty() {
            self.state.outbox.push(program);
        }
    }

    /// Observe one guard event (the wiring forwards new events after each
    /// hook callback). Events about programs the pilot never submitted
    /// are ignored.
    pub fn on_guard_event(&mut self, event: &RolloutEvent) {
        let fp = event.program.fingerprint;
        if !self.state.mine.contains(&fp) {
            return;
        }
        self.obs.on_verdict(event.kind);
        match event.kind {
            RolloutEventKind::Committed => {
                self.state.deployed_fp = fp;
                if self.state.inflight == Some(fp) {
                    self.state.inflight = None;
                }
                self.close_episode(event.at);
            }
            RolloutEventKind::Vetoed(_) => {
                self.state.barred.insert(fp);
                if self.state.inflight == Some(fp) {
                    self.state.inflight = None;
                }
            }
            RolloutEventKind::RolledBack(_) => {
                self.state.barred.insert(fp);
                if self.state.inflight == Some(fp) {
                    self.state.inflight = None;
                }
            }
            _ => {}
        }
    }

    /// Fingerprint of the program the pilot believes is in force.
    pub fn deployed_fingerprint(&self) -> u64 {
        self.state.deployed_fp
    }

    /// Book the retrain and drift counts from their two logs.
    fn book_obs(&mut self) {
        self.obs.book(&self.retrains, &self.episodes);
    }

    /// Book, then move the Observatory bundle out of a finished pilot.
    pub fn take_obs(&mut self) -> DriftObs {
        self.book_obs();
        std::mem::take(&mut self.obs)
    }

    /// Freeze the pilot's dynamic state for a checkpoint: training
    /// buffer, drift sketches and references, episode machinery,
    /// submission bookkeeping, and telemetry values. The tap and the
    /// starting fingerprint are scenario-derived: the session that
    /// restores the pilot builds it with the same two values. The retrain
    /// and drift counts are not booked here: `take_obs` books them from
    /// the thawed logs.
    pub fn freeze(&self) -> FrozenDriftPilot {
        FrozenDriftPilot {
            state: self.state.clone(),
            episodes: self.episodes.clone(),
            retrains: self.retrains.clone(),
            sink: self.obs.sink.clone(),
            tracer: self.obs.tracer.clone(),
        }
    }

    /// Apply a frozen image onto a freshly constructed pilot (same tap
    /// and fingerprint). Every dynamic field is overwritten. An image
    /// whose metric sink does not fit is refused untouched.
    pub fn thaw_state(&mut self, frozen: FrozenDriftPilot) -> Result<(), SinkMisfit> {
        self.obs.thaw(frozen.sink, frozen.tracer)?;
        self.state = frozen.state;
        self.episodes = frozen.episodes;
        self.retrains = frozen.retrains;
        Ok(())
    }

    fn close_episode(&mut self, at: SimTime) {
        if let Some(span) = self.state.drift_span.take() {
            self.obs.on_drift_mitigated(span, self.state.drift_onset.as_nanos(), at.as_nanos());
            if let Some(ep) = self.episodes.last_mut() {
                ep.mitigated = Some(at);
            }
            self.state.in_drift = false;
        }
    }

    fn arm_window(&mut self, now: SimTime, cmds: &mut Commands) {
        let w = WINDOW.as_nanos();
        let next = SimTime(((now.as_nanos() / w) + 1) * w);
        cmds.set_timer(next, Self::WINDOW_TOKEN);
    }

    fn window_tick(&mut self, now: SimTime, cmds: &mut Commands) {
        // Seal the window's sketches and score drift window-over-window:
        // 1 − histogram intersection of the heavy-hitter mass, the worse
        // of the port view and the source-prefix view.
        let ports = std::mem::replace(&mut self.state.hh_ports, drift_sketch()).top();
        let prefixes = std::mem::replace(&mut self.state.hh_prefixes, drift_sketch()).top();
        let score = drift_score(&self.state.ref_ports, &ports)
            .max(drift_score(&self.state.ref_prefixes, &prefixes));
        if !ports.is_empty() {
            self.state.ref_ports = ports;
        }
        if !prefixes.is_empty() {
            self.state.ref_prefixes = prefixes;
        }
        self.obs.on_window((score * 1_000.0) as i64);

        // Fresh-window retention.
        let horizon_floor = now.as_nanos().saturating_sub(TRAINING_HORIZON.as_nanos());
        while self.state.buffer.front().is_some_and(|r| r.ts_ns < horizon_floor) {
            self.state.buffer.pop_front();
        }
        self.obs.set_pending(self.state.buffer.len());

        let rising = score >= DRIFT_THRESHOLD && !self.state.in_drift;
        if rising {
            self.state.in_drift = true;
            self.state.ordinal += 1;
            self.state.retrained_since_onset = false;
            self.state.drift_onset = now;
            let span = self.obs.tracer.open(format!("drift[#{}]", self.state.ordinal), now.as_nanos());
            self.state.drift_span = Some(span);
            let ordinal = self.state.ordinal;
            self.episodes.push(DriftEpisode { ordinal, onset: now, mitigated: None });
        } else if self.state.in_drift
            && score < DRIFT_THRESHOLD
            && self.state.retrained_since_onset
            && self.state.inflight.is_none()
            && self.state.outbox.is_empty()
        {
            // The score calmed, the pipeline retrained, and nothing is
            // left to deploy: benign drift the current program absorbs.
            self.close_episode(now);
        }

        if rising {
            self.retrain(now, RetrainTrigger::Drift);
        } else if now.since(self.state.last_retrain) >= RETRAIN_EVERY {
            self.retrain(now, RetrainTrigger::Periodic);
        }

        // Always-on must still let a drained simulation terminate: keep
        // ticking only while there is work — a non-empty training buffer
        // (it holds every record tapped since the last tick: each is
        // stamped with its tap time, ticks are a window apart, and
        // retention keeps the whole training horizon), or a candidate
        // awaiting a verdict. Once quiet, disarm; the next tap packet
        // re-bootstraps the timer.
        let st = &self.state;
        if !st.buffer.is_empty() || st.inflight.is_some() || !st.outbox.is_empty() {
            self.arm_window(now, cmds);
        } else {
            self.state.bootstrapped = false;
        }
    }

    fn retrain(&mut self, now: SimTime, trigger: RetrainTrigger) {
        if self.state.buffer.len() < MIN_RECORDS {
            // Not enough fresh data; leave last_retrain untouched so the
            // periodic trigger retries next window.
            return;
        }
        self.state.last_retrain = now;
        self.state.retrained_since_onset = true;
        // Lend the buffer in place: a deque serializes as its sequence, so
        // straightening its ring changes no image byte.
        let records: &[PacketRecord] = self.state.buffer.make_contiguous();
        let (model_fp, program) = retrain_window(records, &pilot_devloop());
        let prog_fp = program.fingerprint();
        let outcome = if SwitchModel::default().max_concurrent(&program) == 0 {
            RetrainOutcome::BudgetRejected
        } else if prog_fp == self.state.deployed_fp
            || self.state.inflight == Some(prog_fp)
            || (self.state.deployed_fp == self.deployed_fingerprint
                && records.iter().all(|r| r.label_attack == 0))
        {
            // Already in force or on its way there — or a window with no
            // attack in it while the known-good the pilot was started
            // with is still in force. Such a window trains a single leaf
            // and compiles to a program with no rule; it is evidence that
            // rules the pilot learned have gone stale, never that the
            // operator's defences, trained on attacks outside this
            // horizon, can be stripped because the day happened to be calm.
            RetrainOutcome::Unchanged
        } else if self.state.barred.contains(&prog_fp) {
            RetrainOutcome::Barred
        } else {
            // Newest candidate wins: an undelivered older one is stale.
            self.state.outbox.clear();
            self.state.outbox.push(program);
            RetrainOutcome::Queued
        };
        self.retrains.push(RetrainRecord {
            at: now,
            trigger,
            records: records.len(),
            model_fingerprint: model_fp,
            program_fingerprint: prog_fp,
            outcome,
        });
    }
}

/// A [`DriftPilot`]'s checkpointable image. Deliberately NOT captured:
/// the config (scenario-derived, including the devloop — retrains are
/// pure functions of the buffered records, so models need no transport).
#[derive(Clone, serde::Serialize, serde::Deserialize)]
pub struct FrozenDriftPilot {
    pub state: PilotState,
    pub episodes: Vec<DriftEpisode>,
    pub retrains: Vec<RetrainRecord>,
    pub sink: ObsSink,
    pub tracer: Tracer,
}

impl SimHooks for DriftPilot {
    fn on_tap(&mut self, now: SimTime, link: LinkId, dir: Dir, packet: &Packet, cmds: &mut Commands) {
        if link != self.tap {
            return;
        }
        if !self.state.bootstrapped {
            self.state.bootstrapped = true;
            self.arm_window(now, cmds);
        }
        let rec = PacketRecord::from_packet(now, Direction::from_border_dir(dir), packet);
        self.ingest_record(rec);
    }

    fn on_timer(&mut self, now: SimTime, token: u64, cmds: &mut Commands) {
        if token == Self::WINDOW_TOKEN {
            self.window_tick(now, cmds);
        }
    }
}

/// Run the pipeline over one record window, purely: the devloop seed is
/// the window's content hash, so byte-identical windows yield identical
/// model and program fingerprints at any sim time. Returns the model
/// fingerprint and the compiled program (whose own
/// [`PipelineProgram::fingerprint`] is the program fingerprint).
pub fn retrain_window(records: &[PacketRecord], devloop: &DevLoopConfig) -> (u64, PipelineProgram) {
    let cfg = DevLoopConfig { seed: records_hash(records), ..devloop.clone() };
    let result = run_development_loop(records, &cfg);
    let mut h = FxHasher::default();
    h.write(format!("{:?}", result.student).as_bytes());
    (h.finish(), result.program)
}

/// Content hash of a record window (field-by-field, platform-stable).
pub fn records_hash(records: &[PacketRecord]) -> u64 {
    let mut h = FxHasher::default();
    h.write_usize(records.len());
    for r in records {
        h.write_u64(r.ts_ns);
        h.write_u8(match r.direction {
            Direction::Inbound => 0,
            Direction::Outbound => 1,
        });
        hash_addr(&mut h, r.src);
        hash_addr(&mut h, r.dst);
        h.write_u8(r.protocol);
        h.write_u16(r.src_port);
        h.write_u16(r.dst_port);
        h.write_u32(r.wire_len);
        h.write_u8(r.ttl);
        let f = r.tcp_flags;
        h.write_u8(
            u8::from(f.syn)
                | u8::from(f.ack) << 1
                | u8::from(f.fin) << 2
                | u8::from(f.rst) << 3
                | u8::from(f.psh) << 4,
        );
        h.write_u64(r.flow_id);
        h.write_u16(r.label_app);
        h.write_u16(r.label_attack);
    }
    h.finish()
}

fn hash_addr(h: &mut FxHasher, addr: IpAddr) {
    match addr {
        IpAddr::V4(v) => {
            h.write_u8(4);
            h.write_u32(u32::from(v));
        }
        IpAddr::V6(v) => {
            h.write_u8(6);
            h.write(&v.octets());
        }
    }
}

/// Map a source address to its routing-scale prefix (v4 /16, v6 /32):
/// the granularity at which an attacker rotates reflector pools.
fn prefix_key(addr: IpAddr) -> IpAddr {
    match addr {
        IpAddr::V4(v) => {
            let o = v.octets();
            IpAddr::V4(Ipv4Addr::new(o[0], o[1], 0, 0))
        }
        IpAddr::V6(v) => {
            let s = v.segments();
            IpAddr::V6(Ipv6Addr::new(s[0], s[1], 0, 0, 0, 0, 0, 0))
        }
    }
}

/// 1 − histogram intersection of normalized heavy-hitter mass: 0.0 for an
/// identical signature, 1.0 when the windows share no mass at all. An
/// empty side scores 0.0 — absence of evidence is not drift.
fn drift_score(reference: &[(IpAddr, u64)], current: &[(IpAddr, u64)]) -> f64 {
    if reference.is_empty() || current.is_empty() {
        return 0.0;
    }
    let ct: u64 = current.iter().map(|&(_, w)| w).sum();
    let rt: u64 = reference.iter().map(|&(_, w)| w).sum();
    if ct == 0 || rt == 0 {
        return 0.0;
    }
    let mut overlap = 0.0;
    for &(key, w) in current {
        if let Some(&(_, rw)) = reference.iter().find(|&&(k, _)| k == key) {
            overlap += (w as f64 / ct as f64).min(rw as f64 / rt as f64);
        }
    }
    (1.0 - overlap).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use campuslab_capture::TcpFlags;
    use campuslab_dataplane::ProgramVersion;

    fn rec(ts: u64, src: [u8; 4], proto: u8, sport: u16, len: u32, attack: u16) -> PacketRecord {
        PacketRecord {
            ts_ns: ts,
            direction: Direction::Inbound,
            src: IpAddr::from(src),
            dst: IpAddr::from([10, 1, 1, 10]),
            protocol: proto,
            src_port: sport,
            dst_port: 40_000,
            wire_len: len,
            ttl: 60,
            tcp_flags: TcpFlags::default(),
            flow_id: 0,
            label_app: 1,
            label_attack: attack,
        }
    }

    /// Amplification-shaped window: attacks are big UDP from `sport`.
    fn window(base_ts: u64, n: usize, sport: u16) -> Vec<PacketRecord> {
        let mut out = Vec::new();
        for i in 0..n as u64 {
            out.push(rec(base_ts + i * 3_000, [203, 0, 113, 7], 17, sport, 1_400 + (i % 200) as u32, 1));
            out.push(rec(base_ts + i * 3_000 + 1_000, [198, 51, 100, 9], 6, 443, 200 + (i % 900) as u32, 0));
            out.push(rec(base_ts + i * 3_000 + 2_000, [198, 51, 100, 3], 17, sport, 90 + (i % 40) as u32, 0));
        }
        out
    }

    #[test]
    fn retrain_is_a_pure_function_of_the_window() {
        let w = window(5_000_000, 80, 53);
        let cfg = DevLoopConfig::default();
        let (m1, p1) = retrain_window(&w, &cfg);
        let (m2, p2) = retrain_window(&w.clone(), &cfg);
        assert_eq!(m1, m2);
        assert_eq!(p1.fingerprint(), p2.fingerprint());
        // A one-bit change to the window moves the seed, so the pair is a
        // content fingerprint, not a counter.
        let mut w2 = w;
        w2[0].wire_len += 1;
        assert_ne!(records_hash(&w2), records_hash(&window(5_000_000, 80, 53)));
    }

    #[test]
    fn drift_score_flags_a_port_rotation_and_ignores_steady_state() {
        let steady = vec![(IpAddr::from([17, 0, 53, 0]), 900u64), (IpAddr::from([6, 1, 187, 0]), 100)];
        assert_eq!(drift_score(&steady, &steady), 0.0);
        let rotated = vec![(IpAddr::from([17, 0, 123, 0]), 900u64), (IpAddr::from([6, 1, 187, 0]), 100)];
        let s = drift_score(&steady, &rotated);
        assert!(s > 0.8, "rotation score {s}");
        assert_eq!(drift_score(&[], &steady), 0.0);
        assert_eq!(drift_score(&steady, &[]), 0.0);
    }

    /// The whole retrain — features, forest, distill, compile — on the
    /// amplification window: a change on that path that moves a model or
    /// a program fails here, by name, before it moves a golden.
    #[test]
    fn retrain_is_pinned() {
        let (model_fp, program) = retrain_window(&window(0, 80, 53), &DevLoopConfig::default());
        assert_eq!(
            (model_fp, program.fingerprint()),
            (0xc6c0_9ebc_3f09_63c3, 0x78b0_21e1_7d1a_52b4),
            "window(0, 80, 53)"
        );
    }

    #[test]
    fn pilot_opens_an_episode_and_queues_a_candidate_on_drift() {
        let mut pilot = DriftPilot::new(LinkId(0), 0);
        let mut cmds = Commands::default();
        // Window 0: steady DNS-amplification signature.
        for r in window(0, 80, 53) {
            pilot.ingest_record(r);
        }
        pilot.window_tick(SimTime(1_000_000_000), &mut cmds);
        assert!(pilot.episodes.is_empty(), "first window has no reference");
        // Window 1: same signature — no drift, and the first periodic
        // retrain lands here (`RETRAIN_EVERY` = 2 s since ZERO).
        for r in window(1_000_000_000, 80, 53) {
            pilot.ingest_record(r);
        }
        pilot.window_tick(SimTime(2_000_000_000), &mut cmds);
        assert!(pilot.episodes.is_empty());
        pilot.book_obs();
        assert_eq!(pilot.obs.retrains_periodic(), 1);
        let queued = pilot.take_candidates();
        assert_eq!(queued.len(), 1, "fresh program differs from fp 0");
        pilot.on_guard_accepted(&queued[0].version());
        // Window 2: the attacker rotates to NTP-style port 123.
        for r in window(2_000_000_000, 80, 123) {
            pilot.ingest_record(r);
        }
        pilot.window_tick(SimTime(3_000_000_000), &mut cmds);
        assert_eq!(pilot.episodes.len(), 1);
        pilot.book_obs();
        assert_eq!(pilot.obs.drift_onsets(), 1);
        assert_eq!(pilot.obs.retrains_drift(), 1);
        assert!(pilot.episodes[0].mitigated.is_none());
        // The guard commits a pilot candidate after the onset: the episode
        // closes and the drift TTM lands. The drift retrain may or may not
        // have compiled to new bytes (that is the model's call); commit
        // whichever pilot program is in play.
        let committed = match pilot.take_candidates().first() {
            Some(p) => {
                let v = p.version();
                pilot.on_guard_accepted(&v);
                v
            }
            None => queued[0].version(),
        };
        pilot.on_guard_event(&RolloutEvent {
            at: SimTime(6_000_000_000),
            program: committed.clone(),
            kind: RolloutEventKind::Committed,
        });
        assert_eq!(pilot.episodes[0].mitigated, Some(SimTime(6_000_000_000)));
        pilot.book_obs();
        assert_eq!(pilot.obs.drift_mitigated(), 1);
        assert_eq!(pilot.obs.drift_ttm_histogram().count(), 1);
        assert_eq!(pilot.deployed_fingerprint(), committed.fingerprint);
    }

    #[test]
    fn refused_candidates_are_retried_and_barred_ones_are_not_resubmitted() {
        let mut pilot = DriftPilot::new(LinkId(0), 0);
        let mut cmds = Commands::default();
        for r in window(0, 80, 53) {
            pilot.ingest_record(r);
        }
        pilot.window_tick(SimTime(1_000_000_000), &mut cmds);
        for r in window(1_000_000_000, 80, 53) {
            pilot.ingest_record(r);
        }
        pilot.window_tick(SimTime(2_000_000_000), &mut cmds);
        let queued = pilot.take_candidates();
        assert_eq!(queued.len(), 1);
        let version = queued[0].version();
        // Guard is busy: the candidate is requeued for the next tick.
        pilot.on_guard_refused(queued[0].clone());
        assert_eq!(pilot.obs.guard_refused(), 1);
        let retry = pilot.take_candidates();
        assert_eq!(retry.len(), 1);
        assert_eq!(retry[0].fingerprint(), version.fingerprint);
        // Accepted, then vetoed: the fingerprint is barred, so an
        // identical retrain result is not submitted again.
        pilot.on_guard_accepted(&version);
        pilot.on_guard_event(&RolloutEvent {
            at: SimTime(3_000_000_000),
            program: version.clone(),
            kind: RolloutEventKind::Vetoed(crate::rollout::SloViolation::FalsePositiveRate),
        });
        assert_eq!(pilot.obs.vetoed(), 1);
        // Retrain over the unchanged buffer: the content hash (and so the
        // whole pipeline) reproduces the barred program exactly, and the
        // pilot refuses to resubmit it.
        pilot.retrain(SimTime(2_500_000_000), RetrainTrigger::Periodic);
        assert!(pilot.take_candidates().is_empty(), "barred fingerprint resubmitted");
        let last = pilot.retrains.last().unwrap();
        assert_eq!(last.program_fingerprint, version.fingerprint);
        assert_eq!(last.outcome, RetrainOutcome::Barred);
    }

    #[test]
    fn events_about_foreign_programs_are_ignored() {
        let mut pilot = DriftPilot::new(LinkId(0), 0);
        pilot.on_guard_event(&RolloutEvent {
            at: SimTime(1),
            program: ProgramVersion { name: "not-ours".into(), fingerprint: 99 },
            kind: RolloutEventKind::Committed,
        });
        assert_eq!(pilot.obs.committed(), 0);
        assert_eq!(pilot.deployed_fingerprint(), 0);
    }
}
