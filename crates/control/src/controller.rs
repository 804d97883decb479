//! The online mitigation controller: watches the border tap, runs the
//! window detector, and — after the placement-dependent installation
//! latency — inserts victim-scoped drop rules into the border switch's
//! filter bank. This is experiment E8's machinery: the same detector at
//! the switch, the controller, or "the cloud" differ only in when the
//! rule lands.

use crate::detector::{Detection, FrozenDetector, StreamingWindowDetector};
use crate::observe::{ControllerObs, DetectorObs};
use crate::rollout::{CircuitBreaker, CircuitBreakerPolicy};
use campuslab_obs::{ObsSink, OpenSpan, SinkMisfit, Tracer};
use campuslab_capture::{Direction, PacketRecord};
use campuslab_dataplane::{Action, FieldExtractor, PipelineProgram, PipelineRuntime};
use campuslab_netsim::{
    Commands, Dir, FilterAction, LinkId, Packet, PacketFilter, SimDuration, SimTime, StreamRng,
};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::net::IpAddr;
use std::sync::Arc;

/// Where the inference tier runs (experiment E8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// Compiled rules pre-installed in the switch: reacts from packet one.
    Switch,
    /// An on-campus controller: one detection window + a small install RTT.
    Controller,
    /// An off-campus analysis service: window + WAN RTT + batch latency.
    Cloud,
}

impl Placement {
    /// Time from "detection decided" to "rule active in the switch".
    pub fn install_delay(self) -> SimDuration {
        match self {
            Placement::Switch => SimDuration::ZERO,
            Placement::Controller => SimDuration::from_millis(2),
            Placement::Cloud => SimDuration::from_millis(150),
        }
    }
}

/// Which traffic a bank entry applies to.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ProgramScope {
    /// Every packet through the bank.
    Global,
    /// Only traffic to one victim host (the mitigation case).
    Victim(IpAddr),
    /// Only traffic to a fixed destination cohort (the canary case).
    /// Kept sorted for deterministic lookup.
    AnyOf(Vec<IpAddr>),
}

impl ProgramScope {
    fn admits(&self, dst: IpAddr) -> bool {
        match self {
            ProgramScope::Global => true,
            ProgramScope::Victim(v) => *v == dst,
            ProgramScope::AnyOf(hosts) => hosts.binary_search(&dst).is_ok(),
        }
    }
}

/// One installed program: the live entry is also its [`FrozenBank`] image
/// (the compiled runtime carries its token-bucket levels).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct BankEntry {
    scope: ProgramScope,
    /// Content identity of the installed program, so a rollback can
    /// remove exactly the candidate's entries.
    fingerprint: u64,
    runtime: PipelineRuntime,
}

struct BankState {
    extractor: FieldExtractor,
    entries: Vec<BankEntry>,
    stats: FastLoopStatsSnapshot,
}

/// A handle for inserting rules into (and reading stats from) a running
/// [`BankFilter`] — the control channel to the switch.
#[derive(Clone)]
pub struct BankHandle {
    shared: Arc<Mutex<BankState>>,
}

impl BankHandle {
    /// Insert a program, optionally scoped to one destination.
    pub fn add_program(&self, scope: Option<IpAddr>, program: PipelineProgram) {
        let scope = match scope {
            Some(victim) => ProgramScope::Victim(victim),
            None => ProgramScope::Global,
        };
        self.install(scope, program);
    }

    /// Insert a program under an explicit scope.
    pub fn install(&self, mut scope: ProgramScope, program: PipelineProgram) {
        if let ProgramScope::AnyOf(hosts) = &mut scope {
            hosts.sort_unstable();
        }
        let fingerprint = program.fingerprint();
        self.shared
            .lock()
            .entries
            .push(BankEntry { scope, fingerprint, runtime: program.into_runtime() });
    }

    /// Remove every rule scoped to `victim` (attack over).
    pub fn remove_scope(&self, victim: IpAddr) {
        self.shared
            .lock()
            .entries
            .retain(|e| e.scope != ProgramScope::Victim(victim));
    }

    /// Remove every entry carrying this program fingerprint (rollback).
    /// Returns how many entries left the bank.
    pub fn remove_fingerprint(&self, fingerprint: u64) -> usize {
        let mut state = self.shared.lock();
        let before = state.entries.len();
        state.entries.retain(|e| e.fingerprint != fingerprint);
        before - state.entries.len()
    }

    /// True when an entry with this program fingerprint is installed.
    pub fn has_fingerprint(&self, fingerprint: u64) -> bool {
        self.shared.lock().entries.iter().any(|e| e.fingerprint == fingerprint)
    }

    /// Number of installed programs.
    pub fn len(&self) -> usize {
        self.shared.lock().entries.len()
    }

    /// True when no programs are installed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Freeze the bank's installed programs + aggregate stats for a
    /// checkpoint. The field extractor is construction-time config and is
    /// rebuilt by whoever re-creates the bank.
    pub fn freeze(&self) -> FrozenBank {
        let state = self.shared.lock();
        FrozenBank { entries: state.entries.clone(), stats: state.stats }
    }

    /// Apply a frozen image onto this (freshly created) bank: replaces the
    /// installed entries and stats, keeps the extractor.
    pub fn thaw(&self, frozen: FrozenBank) {
        let mut state = self.shared.lock();
        state.entries = frozen.entries;
        state.stats = frozen.stats;
    }

    /// Snapshot of the aggregate filter statistics.
    pub fn stats(&self) -> FastLoopStatsSnapshot {
        self.shared.lock().stats
    }
}

/// A [`BankHandle`]'s checkpointable image: installed programs (scope +
/// fingerprint + compiled runtime, including live token-bucket levels)
/// and the aggregate filter statistics.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct FrozenBank {
    pub entries: Vec<BankEntry>,
    pub stats: FastLoopStatsSnapshot,
}

/// The filter bank's aggregate counters, scored against packet ground
/// truth: what the bank keeps live, freezes, and hands the harness by copy.
#[derive(Debug, Clone, Copy, Default, serde::Serialize, serde::Deserialize)]
pub struct FastLoopStatsSnapshot {
    pub packets: u64,
    pub dropped: u64,
    /// Ground-truth accounting: what the filter dropped.
    pub dropped_attack: u64,
    pub dropped_benign: u64,
    /// Ground-truth accounting: attack packets it let through.
    pub passed_attack: u64,
    /// First time the filter dropped anything.
    pub first_drop: Option<SimTime>,
}

impl FastLoopStatsSnapshot {
    /// Of everything dropped, the fraction that was truly attack traffic.
    pub fn drop_precision(&self) -> f64 {
        if self.dropped == 0 {
            return 1.0;
        }
        self.dropped_attack as f64 / self.dropped as f64
    }

    /// Of all attack packets seen, the fraction dropped.
    pub fn attack_recall(&self) -> f64 {
        let attacks = self.dropped_attack + self.passed_attack;
        if attacks == 0 {
            return 1.0;
        }
        self.dropped_attack as f64 / attacks as f64
    }
}

/// The switch-resident filter bank: evaluates every installed program on
/// every packet (scoped entries only on their victim's traffic).
pub struct BankFilter {
    shared: Arc<Mutex<BankState>>,
}

impl BankFilter {
    /// Create an empty bank; install into the simulator, keep the handle.
    pub fn new(extractor: FieldExtractor) -> (Box<BankFilter>, BankHandle) {
        let shared = Arc::new(Mutex::new(BankState {
            extractor,
            entries: Vec::new(),
            stats: FastLoopStatsSnapshot::default(),
        }));
        (
            Box::new(BankFilter { shared: Arc::clone(&shared) }),
            BankHandle { shared },
        )
    }
}

impl PacketFilter for BankFilter {
    fn decide(&mut self, now: SimTime, packet: &Packet) -> FilterAction {
        let mut state = self.shared.lock();
        state.stats.packets += 1;
        let is_attack = packet.truth.is_malicious();
        let fields = state.extractor.from_packet(packet);
        let dst = packet.network.dst();
        let mut verdict = FilterAction::Forward;
        // Split borrow: walk entries while updating stats afterwards.
        let state = &mut *state;
        let wire_len = packet.wire_len() as u32;
        for entry in &mut state.entries {
            if !entry.scope.admits(dst) {
                continue;
            }
            if entry.runtime.process_at(now.as_nanos(), &fields, wire_len) == Action::Drop {
                verdict = FilterAction::Drop;
                break;
            }
        }
        if verdict == FilterAction::Drop {
            state.stats.dropped += 1;
            if is_attack {
                state.stats.dropped_attack += 1;
            } else {
                state.stats.dropped_benign += 1;
            }
            state.stats.first_drop.get_or_insert(now);
        } else if is_attack {
            state.stats.passed_attack += 1;
        }
        verdict
    }

    fn name(&self) -> &str {
        "filter-bank"
    }
}

/// One detection-to-mitigation episode.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MitigationEvent {
    pub victim: IpAddr,
    pub detected_at: SimTime,
    pub installed_at: SimTime,
    pub confidence: f64,
    /// Install attempts spent before the rule landed (1 = first try).
    pub attempts: u32,
}

/// Why the controller abandoned a detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum GiveUpReason {
    /// The retry budget ran out.
    Exhausted,
    /// The per-detection timeout would be exceeded before the next retry.
    Timeout,
    /// The install-channel circuit breaker was open.
    CircuitOpen,
    /// A monitored service (e.g. the campus resolver) abandoned client
    /// work — a ServFail with no stale fallback. Service-level failure
    /// feeding the same rollback-evidence channel as install failures.
    ServiceFailure,
}

/// A detection the controller gave up on: every install attempt flaked
/// and the retry budget or timeout ran out — or the circuit breaker
/// refused to send more. Never silently dropped: the rollout guard
/// treats each of these as a rollback-eligible failure.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct InstallGiveUp {
    pub victim: IpAddr,
    pub detected_at: SimTime,
    pub gave_up_at: SimTime,
    /// Attempts spent before giving up.
    pub attempts: u32,
    /// Which limit ended the episode.
    pub reason: GiveUpReason,
}

/// Reliability model for the controller→switch install channel, with the
/// retry discipline a production controller needs: bounded exponential
/// backoff, a retry budget, and a wall-clock timeout per detection.
#[derive(Debug, Clone)]
pub struct InstallPolicy {
    /// Probability one install attempt flakes (RPC lost, switch busy).
    pub failure_probability: f64,
    /// Retry budget per detection (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each failure.
    pub base_backoff: SimDuration,
    /// Backoff growth cap.
    pub max_backoff: SimDuration,
    /// Give up once this much time passed since the first attempt.
    pub timeout: SimDuration,
    /// Seed for the install-flake RNG — independent of the network RNG so
    /// chaos in the control channel never perturbs the data plane.
    pub seed: u64,
    /// Optional circuit breaker over the install channel: after a streak
    /// of consecutive failures the controller stops hammering the switch
    /// and sheds episodes with a typed give-up instead. `None` (the
    /// default) preserves the plain retry discipline exactly.
    pub breaker: Option<CircuitBreakerPolicy>,
}

impl Default for InstallPolicy {
    fn default() -> Self {
        InstallPolicy {
            failure_probability: 0.0,
            max_attempts: 5,
            base_backoff: SimDuration::from_millis(2),
            max_backoff: SimDuration::from_millis(100),
            timeout: SimDuration::from_secs(2),
            seed: 0x1257A11,
            breaker: None,
        }
    }
}

impl InstallPolicy {
    /// Backoff before retry number `attempts` (bounded doubling).
    fn backoff_after(&self, attempts: u32) -> SimDuration {
        let exp = attempts.saturating_sub(1).min(20);
        let ns = self.base_backoff.as_nanos().saturating_mul(1u64 << exp);
        SimDuration::from_nanos(ns.min(self.max_backoff.as_nanos()))
    }
}

/// Controller configuration.
pub struct MitigationControllerConfig {
    /// The tapped link the controller watches.
    pub tap: LinkId,
    pub placement: Placement,
    /// Confidence gate for acting (the paper's >= 0.9).
    pub gate: f64,
    pub window_ns: u64,
    pub min_packets: usize,
    /// The signature program installed (scoped to the victim) on detection.
    pub program: PipelineProgram,
    /// Install-channel reliability; `Default` is a perfectly reliable
    /// channel, so existing callers behave exactly as before.
    pub install: InstallPolicy,
    /// Known tap blackout windows: the controller sees nothing during them
    /// and announces them to the detector as telemetry gaps.
    pub tap_blackouts: Vec<campuslab_netsim::Outage>,
}

/// A detection whose install is in flight (possibly mid-retry).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct PendingInstall {
    det: Detection,
    attempts: u32,
    first_attempt: SimTime,
    /// The episode's open trace span; closed at install or give-up.
    span: OpenSpan,
}

/// The controller: an implementation of `SimHooks` that closes the loop
/// from tap observation to rule installation.
pub struct MitigationController {
    cfg: MitigationControllerConfig,
    detector: StreamingWindowDetector,
    bank: BankHandle,
    state: ControllerState,
    /// Completed episodes.
    pub events: Vec<MitigationEvent>,
    /// Detections abandoned after the retry budget/timeout ran out.
    pub giveups: Vec<InstallGiveUp>,
    /// Observatory sink + episode spans (attempts, flakes, installs,
    /// give-ups, time-to-mitigation).
    pub obs: ControllerObs,
}

/// Everything a [`MitigationController`] keeps privately besides its
/// config, detector and bank handle: the one declaration of those fields,
/// and (in this order) their place in the checkpoint image.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ControllerState {
    /// In-flight installs by timer token; ordered, so images are
    /// deterministic.
    pending: BTreeMap<u64, PendingInstall>,
    next_token: u64,
    /// The install-flake stream, at its exact position.
    install_rng: StreamRng,
    /// Circuit breaker over the install channel, when policy asks for one.
    breaker: Option<CircuitBreaker>,
}

impl MitigationController {
    /// Timer-token namespace for this controller (avoids collisions with
    /// other hook users).
    const TOKEN_BASE: u64 = 0x4D49_5449_0000_0000; // "MITI"

    /// Build a controller around a trained window model and a bank handle.
    pub fn new(
        cfg: MitigationControllerConfig,
        model: Box<dyn campuslab_ml::Classifier + Send>,
        bank: BankHandle,
    ) -> Self {
        let mut detector = StreamingWindowDetector::new(
            model,
            campuslab_features::WindowConfig {
                window_ns: cfg.window_ns,
                min_packets: cfg.min_packets,
            },
            cfg.gate,
        );
        // Known blackouts become explicit telemetry gaps, so windows the
        // controller half-saw are de-skewed rather than misread as calm.
        for w in &cfg.tap_blackouts {
            detector.announce_gap(w.from.as_nanos(), w.until.as_nanos());
        }
        let state = ControllerState {
            pending: BTreeMap::new(),
            next_token: 0,
            install_rng: StreamRng(rand::SeedableRng::seed_from_u64(cfg.install.seed)),
            breaker: cfg.install.breaker.map(CircuitBreaker::new),
        };
        MitigationController {
            cfg,
            detector,
            bank,
            state,
            events: Vec::new(),
            giveups: Vec::new(),
            obs: ControllerObs::new(),
        }
    }

    /// The wrapped detector's Observatory sink.
    pub fn detector_obs(&self) -> &DetectorObs {
        &self.detector.obs
    }

    /// The install-channel circuit breaker, when the policy carries one.
    pub fn breaker(&self) -> Option<&CircuitBreaker> {
        self.state.breaker.as_ref()
    }

    /// Move both Observatory bundles (controller + wrapped detector) out of
    /// a finished controller, leaving zeroed replacements behind. Used by
    /// the testbed to carry run telemetry past the controller's lifetime.
    pub fn take_obs(&mut self) -> (ControllerObs, DetectorObs) {
        (std::mem::take(&mut self.obs), std::mem::take(&mut self.detector.obs))
    }

    /// Freeze the controller's dynamic state for a checkpoint: detector
    /// image, in-flight installs, install-RNG position, breaker, episode
    /// history, and telemetry values. Config, model, and bank handle are
    /// reconstructed by the driver.
    pub fn freeze(&self) -> FrozenController {
        FrozenController {
            detector: self.detector.freeze(),
            state: self.state.clone(),
            events: self.events.clone(),
            giveups: self.giveups.clone(),
            sink: self.obs.sink.clone(),
            tracer: self.obs.tracer.clone(),
        }
    }

    /// Whether both metric sinks in `frozen` (the controller's and the
    /// detector's) fit the schemas they would be thawed into.
    pub fn accepts(&self, frozen: &FrozenController) -> bool {
        self.obs.fits(&frozen.sink) && self.detector.obs.fits(&frozen.detector.sink)
    }

    /// Apply a frozen image onto a freshly constructed controller (same
    /// config, model, and bank handle). The bank itself is thawed
    /// separately via [`BankHandle::thaw`]. An image that
    /// [`MitigationController::accepts`] turns down is refused untouched.
    pub fn thaw_state(&mut self, frozen: FrozenController) -> Result<(), SinkMisfit> {
        if !self.accepts(&frozen) {
            return Err(SinkMisfit);
        }
        self.obs.thaw(frozen.sink, frozen.tracer)?;
        self.detector.thaw_state(frozen.detector)?;
        self.state = frozen.state;
        self.events = frozen.events;
        self.giveups = frozen.giveups;
        Ok(())
    }

    fn handle_detections(&mut self, now: SimTime, detections: Vec<Detection>, cmds: &mut Commands) {
        for det in detections {
            // One active mitigation per victim.
            if self.events.iter().any(|e| e.victim == det.dst)
                || self.state.pending.values().any(|p| p.det.dst == det.dst)
            {
                continue;
            }
            let token = Self::TOKEN_BASE + self.state.next_token;
            self.state.next_token += 1;
            let at = now + self.cfg.placement.install_delay();
            let span = self.obs.on_episode_start(&det.dst.to_string(), now.as_nanos());
            self.state.pending
                .insert(token, PendingInstall { det, attempts: 0, first_attempt: at, span });
            cmds.set_timer(at, token);
        }
    }
}

/// A [`MitigationController`]'s checkpointable image. Deliberately NOT
/// captured: the config (scenario-derived), the trained model (retrained
/// deterministically), and the bank handle (frozen as [`FrozenBank`]).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct FrozenController {
    pub detector: FrozenDetector,
    pub state: ControllerState,
    pub events: Vec<MitigationEvent>,
    pub giveups: Vec<InstallGiveUp>,
    pub sink: ObsSink,
    pub tracer: Tracer,
}

impl campuslab_netsim::SimHooks for MitigationController {
    fn on_tap(&mut self, now: SimTime, link: LinkId, dir: Dir, packet: &Packet, cmds: &mut Commands) {
        if link != self.cfg.tap {
            return;
        }
        // During a tap blackout the controller is blind; the detector
        // already knows the window is partially covered.
        if !self.cfg.tap_blackouts.is_empty()
            && self.cfg.tap_blackouts.iter().any(|w| w.contains(now))
        {
            return;
        }
        let rec = PacketRecord::from_packet(now, Direction::from_border_dir(dir), packet);
        let detections = self.detector.observe(&rec);
        self.handle_detections(now, detections, cmds);
    }

    fn on_timer(&mut self, now: SimTime, token: u64, cmds: &mut Commands) {
        let Some(mut p) = self.state.pending.remove(&token) else { return };
        // An open circuit breaker sheds the episode before any attempt is
        // sent (or any RNG is drawn): a typed give-up, never a silent drop.
        if let Some(b) = self.state.breaker.as_mut() {
            if !b.allows(now) {
                self.obs.on_giveup(p.span, now.as_nanos());
                self.giveups.push(InstallGiveUp {
                    victim: p.det.dst,
                    detected_at: SimTime(p.det.window_end_ns),
                    gave_up_at: now,
                    attempts: p.attempts,
                    reason: GiveUpReason::CircuitOpen,
                });
                return;
            }
        }
        p.attempts += 1;
        let policy = &self.cfg.install;
        let flaked = policy.failure_probability > 0.0
            && rand::Rng::gen::<f64>(&mut self.state.install_rng.0) < policy.failure_probability;
        self.obs.on_attempt(flaked);
        if !flaked {
            if let Some(b) = self.state.breaker.as_mut() {
                b.on_success();
            }
            self.bank.add_program(Some(p.det.dst), self.cfg.program.clone());
            self.obs.on_installed(p.span, p.det.window_end_ns, now.as_nanos());
            self.events.push(MitigationEvent {
                victim: p.det.dst,
                detected_at: SimTime(p.det.window_end_ns),
                installed_at: now,
                confidence: p.det.confidence,
                attempts: p.attempts,
            });
            return;
        }
        if let Some(b) = self.state.breaker.as_mut() {
            b.on_failure(now);
        }
        // The attempt flaked. Retry with bounded exponential backoff while
        // budget and timeout allow; otherwise surface the give-up instead
        // of silently losing the mitigation.
        let deadline = p.first_attempt + policy.timeout;
        let backoff = policy.backoff_after(p.attempts);
        let reason = if p.attempts >= policy.max_attempts {
            Some(GiveUpReason::Exhausted)
        } else if now + backoff > deadline {
            Some(GiveUpReason::Timeout)
        } else {
            None
        };
        if let Some(reason) = reason {
            self.obs.on_giveup(p.span, now.as_nanos());
            self.giveups.push(InstallGiveUp {
                victim: p.det.dst,
                detected_at: SimTime(p.det.window_end_ns),
                gave_up_at: now,
                attempts: p.attempts,
                reason,
            });
            return;
        }
        let token = Self::TOKEN_BASE + self.state.next_token;
        self.state.next_token += 1;
        cmds.set_timer(now + backoff, token);
        self.state.pending.insert(token, p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use campuslab_dataplane::{TableEntry, TernaryMatch, FIELD_ORDER};
    use campuslab_netsim::Prefix;
    use campuslab_netsim::{GroundTruth, PacketBuilder, Payload};
    use std::net::Ipv4Addr;

    fn extractor() -> FieldExtractor {
        FieldExtractor::new(Prefix::v4(Ipv4Addr::new(10, 1, 0, 0), 16))
    }

    fn drop_udp53_program() -> PipelineProgram {
        let mut matches = [TernaryMatch::ANY; FIELD_ORDER.len()];
        matches[1] = TernaryMatch::exact(53, 16);
        matches[10] = TernaryMatch::exact(1, 1);
        PipelineProgram::new(
            "sig",
            vec![TableEntry { matches, action: Action::Drop, priority: 1, confidence: 0.95 }],
        )
    }

    fn amp_packet(b: &mut PacketBuilder, dst: Ipv4Addr) -> Packet {
        b.udp_v4(
            Ipv4Addr::new(203, 0, 113, 1),
            dst,
            53,
            40_000,
            Payload::Synthetic(1_200),
            64,
            GroundTruth { flow_id: 0, app_class: 1, attack: Some(1) },
        )
    }

    #[test]
    fn empty_bank_forwards_everything() {
        let (mut filter, handle) = BankFilter::new(extractor());
        let mut b = PacketBuilder::new();
        let pkt = amp_packet(&mut b, Ipv4Addr::new(10, 1, 1, 10));
        assert_eq!(filter.decide(SimTime::ZERO, &pkt), FilterAction::Forward);
        assert!(handle.is_empty());
        let s = handle.stats();
        assert_eq!(s.packets, 1);
        assert_eq!(s.passed_attack, 1);
    }

    #[test]
    fn scoped_rule_installs_live_and_drops() {
        let (mut filter, handle) = BankFilter::new(extractor());
        let victim = Ipv4Addr::new(10, 1, 1, 10);
        let mut b = PacketBuilder::new();
        // Before installation: forwarded.
        assert_eq!(
            filter.decide(SimTime::ZERO, &amp_packet(&mut b, victim)),
            FilterAction::Forward
        );
        handle.add_program(Some(IpAddr::V4(victim)), drop_udp53_program());
        assert_eq!(handle.len(), 1);
        // After installation: dropped for the victim, not for others.
        assert_eq!(
            filter.decide(SimTime::from_millis(1), &amp_packet(&mut b, victim)),
            FilterAction::Drop
        );
        assert_eq!(
            filter.decide(SimTime::from_millis(2), &amp_packet(&mut b, Ipv4Addr::new(10, 1, 2, 2))),
            FilterAction::Forward
        );
        let s = handle.stats();
        assert_eq!(s.dropped, 1);
        assert_eq!(s.dropped_attack, 1);
        assert_eq!(s.first_drop, Some(SimTime::from_millis(1)));
        // Removal restores forwarding.
        handle.remove_scope(IpAddr::V4(victim));
        assert!(handle.is_empty());
        assert_eq!(
            filter.decide(SimTime::from_millis(3), &amp_packet(&mut b, victim)),
            FilterAction::Forward
        );
    }

    fn tcp_syn() -> campuslab_wire::TcpRepr {
        campuslab_wire::TcpRepr {
            src_port: 0,
            dst_port: 0,
            seq: 1,
            ack: 0,
            control: campuslab_wire::TcpControl::SYN,
            window: 65535,
            mss: None,
            window_scale: None,
        }
    }

    #[test]
    fn global_program_drops_matching_packets() {
        let (mut filter, handle) = BankFilter::new(extractor());
        handle.add_program(None, drop_udp53_program());
        let mut b = PacketBuilder::new();
        let victim = Ipv4Addr::new(10, 1, 1, 10);
        assert_eq!(
            filter.decide(SimTime::from_millis(1), &amp_packet(&mut b, victim)),
            FilterAction::Drop
        );
        let benign_web = b.tcp_v4(
            Ipv4Addr::new(10, 1, 1, 11),
            Ipv4Addr::new(203, 0, 113, 2),
            50_000,
            443,
            tcp_syn(),
            Payload::Synthetic(100),
            GroundTruth::default(),
        );
        assert_eq!(filter.decide(SimTime::from_millis(2), &benign_web), FilterAction::Forward);
        let s = handle.stats();
        assert_eq!(s.packets, 2);
        assert_eq!(s.dropped, 1);
        assert_eq!(s.dropped_attack, 1);
        assert_eq!(s.first_drop, Some(SimTime::from_millis(1)));
        assert_eq!(s.drop_precision(), 1.0);
        assert_eq!(s.attack_recall(), 1.0);
    }

    #[test]
    fn ground_truth_accounting_tracks_misses() {
        let (mut filter, handle) = BankFilter::new(extractor());
        handle.add_program(None, drop_udp53_program());
        let mut b = PacketBuilder::new();
        // An attack packet the signature misses (TCP SYN flood).
        let syn = b.tcp_v4(
            Ipv4Addr::new(77, 1, 1, 1),
            Ipv4Addr::new(10, 1, 255, 80),
            1234,
            443,
            tcp_syn(),
            Payload::Synthetic(0),
            GroundTruth { flow_id: 0, app_class: 0, attack: Some(2) },
        );
        assert_eq!(filter.decide(SimTime::ZERO, &syn), FilterAction::Forward);
        let s = handle.stats();
        assert_eq!(s.passed_attack, 1);
        assert_eq!(s.attack_recall(), 0.0);
        assert_eq!(s.drop_precision(), 1.0); // nothing dropped yet
    }

    /// A model that never fires — controller tests drive detections by hand.
    struct NeverModel;
    impl campuslab_ml::Classifier for NeverModel {
        fn n_classes(&self) -> usize {
            2
        }
        fn predict_proba(&self, _row: &[f64]) -> Vec<f64> {
            vec![1.0, 0.0]
        }
    }

    fn controller_with(install: InstallPolicy) -> (MitigationController, BankHandle) {
        let (_, handle) = BankFilter::new(extractor());
        let ctrl = MitigationController::new(
            MitigationControllerConfig {
                tap: LinkId(0),
                placement: Placement::Controller,
                gate: 0.9,
                window_ns: 1_000_000_000,
                min_packets: 3,
                program: drop_udp53_program(),
                install,
                tap_blackouts: Vec::new(),
            },
            Box::new(NeverModel),
            handle.clone(),
        );
        (ctrl, handle)
    }

    fn detection(dst: IpAddr) -> crate::detector::Detection {
        crate::detector::Detection {
            dst,
            window_end_ns: 1_000_000_000,
            class: 1,
            confidence: 0.95,
            packets: 100,
        }
    }

    #[test]
    fn reliable_install_lands_on_first_attempt() {
        let (mut ctrl, handle) = controller_with(InstallPolicy::default());
        let victim: IpAddr = "10.1.1.10".parse().unwrap();
        let mut cmds = Commands::default();
        ctrl.handle_detections(SimTime::from_secs(1), vec![detection(victim)], &mut cmds);
        use campuslab_netsim::SimHooks;
        ctrl.on_timer(SimTime::from_secs(1), MitigationController::TOKEN_BASE, &mut cmds);
        assert_eq!(ctrl.events.len(), 1);
        assert_eq!(ctrl.events[0].attempts, 1);
        assert!(ctrl.giveups.is_empty());
        assert_eq!(handle.len(), 1);
    }

    #[test]
    fn flaky_install_retries_then_gives_up_within_budget() {
        let (mut ctrl, handle) = controller_with(InstallPolicy {
            failure_probability: 1.0,
            max_attempts: 3,
            ..InstallPolicy::default()
        });
        let victim: IpAddr = "10.1.1.10".parse().unwrap();
        let mut cmds = Commands::default();
        let t0 = SimTime::from_secs(1);
        ctrl.handle_detections(t0, vec![detection(victim)], &mut cmds);
        use campuslab_netsim::SimHooks;
        // Every attempt flakes; tokens are sequential.
        let base = MitigationController::TOKEN_BASE;
        ctrl.on_timer(t0, base, &mut cmds);
        assert!(ctrl.giveups.is_empty(), "one failure must not give up");
        ctrl.on_timer(t0 + SimDuration::from_millis(2), base + 1, &mut cmds);
        ctrl.on_timer(t0 + SimDuration::from_millis(6), base + 2, &mut cmds);
        assert!(ctrl.events.is_empty());
        assert_eq!(ctrl.giveups.len(), 1, "budget of 3 exhausted");
        assert_eq!(ctrl.giveups[0].attempts, 3);
        assert_eq!(ctrl.giveups[0].victim, victim);
        assert!(handle.is_empty(), "no rule must land after a give-up");
    }

    #[test]
    fn flaky_install_gives_up_on_timeout() {
        let (mut ctrl, _handle) = controller_with(InstallPolicy {
            failure_probability: 1.0,
            max_attempts: 100,
            base_backoff: SimDuration::from_millis(10),
            max_backoff: SimDuration::from_millis(10),
            timeout: SimDuration::from_millis(15),
            ..InstallPolicy::default()
        });
        let victim: IpAddr = "10.1.1.10".parse().unwrap();
        let mut cmds = Commands::default();
        let t0 = SimTime::from_secs(1);
        ctrl.handle_detections(t0, vec![detection(victim)], &mut cmds);
        use campuslab_netsim::SimHooks;
        let base = MitigationController::TOKEN_BASE;
        // First attempt at t0+2ms flakes; retry would land at +12ms (ok,
        // within the 15ms deadline), second flake at +12ms would retry at
        // +22ms > deadline -> give up.
        let first = t0 + Placement::Controller.install_delay();
        ctrl.on_timer(first, base, &mut cmds);
        assert!(ctrl.giveups.is_empty());
        ctrl.on_timer(first + SimDuration::from_millis(10), base + 1, &mut cmds);
        assert_eq!(ctrl.giveups.len(), 1);
        assert_eq!(ctrl.giveups[0].attempts, 2);
    }

    #[test]
    fn open_breaker_sheds_with_typed_giveup_not_silent_drop() {
        use crate::rollout::{BreakerState, CircuitBreakerPolicy};
        let (mut ctrl, handle) = controller_with(InstallPolicy {
            failure_probability: 1.0,
            max_attempts: 5,
            breaker: Some(CircuitBreakerPolicy {
                open_after: 2,
                cooldown: SimDuration::from_millis(250),
            }),
            ..InstallPolicy::default()
        });
        let victim: IpAddr = "10.1.1.10".parse().unwrap();
        let mut cmds = Commands::default();
        let t0 = SimTime::from_secs(1);
        ctrl.handle_detections(t0, vec![detection(victim)], &mut cmds);
        use campuslab_netsim::SimHooks;
        let base = MitigationController::TOKEN_BASE;
        // Two flaked attempts trip the breaker...
        ctrl.on_timer(t0, base, &mut cmds);
        assert_eq!(ctrl.breaker().unwrap().state(), BreakerState::Closed);
        ctrl.on_timer(t0 + SimDuration::from_millis(2), base + 1, &mut cmds);
        assert_eq!(ctrl.breaker().unwrap().state(), BreakerState::Open);
        assert!(ctrl.giveups.is_empty(), "retry budget not yet exhausted");
        // ...so the already-scheduled third retry fires into an open
        // circuit and is shed as a *recorded* give-up, not a lost episode.
        ctrl.on_timer(t0 + SimDuration::from_millis(6), base + 2, &mut cmds);
        assert_eq!(ctrl.giveups.len(), 1);
        assert_eq!(ctrl.giveups[0].reason, GiveUpReason::CircuitOpen);
        assert_eq!(ctrl.giveups[0].attempts, 2, "no attempt is made against an open circuit");
        assert!(ctrl.events.is_empty());
        assert!(handle.is_empty());

        // After the cooldown a new episode gets exactly one half-open
        // probe; the probe flaking re-opens immediately.
        let t1 = t0 + SimDuration::from_millis(400);
        ctrl.handle_detections(t1, vec![detection("10.1.2.20".parse().unwrap())], &mut cmds);
        ctrl.on_timer(t1 + SimDuration::from_millis(2), base + 3, &mut cmds);
        assert_eq!(ctrl.breaker().unwrap().state(), BreakerState::Open);
        assert_eq!(ctrl.breaker().unwrap().opens, 2);
        // Its pending retry is shed on arrival, again with the typed reason.
        ctrl.on_timer(t1 + SimDuration::from_millis(4), base + 4, &mut cmds);
        assert_eq!(ctrl.giveups.len(), 2);
        assert_eq!(ctrl.giveups[1].reason, GiveUpReason::CircuitOpen);
    }

    #[test]
    fn breaker_free_policy_retries_exactly_as_before() {
        // InstallPolicy::default() must keep `breaker: None` so existing
        // runs (and their goldens) draw the identical RNG sequence.
        assert!(InstallPolicy::default().breaker.is_none());
        let (ctrl, _handle) = controller_with(InstallPolicy::default());
        assert!(ctrl.breaker().is_none());
    }

    #[test]
    fn backoff_is_bounded_exponential() {
        let p = InstallPolicy {
            base_backoff: SimDuration::from_millis(2),
            max_backoff: SimDuration::from_millis(10),
            ..InstallPolicy::default()
        };
        assert_eq!(p.backoff_after(1), SimDuration::from_millis(2));
        assert_eq!(p.backoff_after(2), SimDuration::from_millis(4));
        assert_eq!(p.backoff_after(3), SimDuration::from_millis(8));
        assert_eq!(p.backoff_after(4), SimDuration::from_millis(10)); // capped
        assert_eq!(p.backoff_after(40), SimDuration::from_millis(10));
    }

    #[test]
    fn placement_delays_are_ordered() {
        assert!(Placement::Switch.install_delay() < Placement::Controller.install_delay());
        assert!(Placement::Controller.install_delay() < Placement::Cloud.install_delay());
    }

    #[test]
    fn snapshot_rates() {
        let s = FastLoopStatsSnapshot {
            packets: 100,
            dropped: 10,
            dropped_attack: 9,
            dropped_benign: 1,
            passed_attack: 3,
            first_drop: None,
        };
        assert!((s.drop_precision() - 0.9).abs() < 1e-12);
        assert!((s.attack_recall() - 0.75).abs() < 1e-12);
    }
}
