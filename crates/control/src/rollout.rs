//! RolloutGuard: SLO-guarded promotion of compiled programs through
//! shadow → canary → full deployment, with automatic rollback to a
//! versioned known-good registry.
//!
//! The devloop hands its output to a *live* campus carrying real users;
//! that is only defensible if a bad model can never take the network
//! down. The guard is a deterministic state machine driven entirely by
//! sim events:
//!
//! * **Shadow** — the candidate is evaluated on mirrored tap traffic;
//!   verdicts are recorded, never enforced. The false-positive gate
//!   (verdicts against packet ground truth) vetoes grossly bad models
//!   before they touch a single packet.
//! * **Canary** — the candidate is enforced, scoped to the hosts behind
//!   a configurable fraction of access switches. Promotion to **Full**
//!   and every later window are gated on production SLOs: benign-drop
//!   delta over the shadow-measured baseline, capture-loss delta, and
//!   the mitigation-latency budget (fed from the controller). Install
//!   give-ups count as rollback-eligible failures.
//! * Violation streaks roll the candidate back (its entries leave the
//!   bank; the known-good program never left), healthy streaks promote;
//!   windows with too little evidence freeze both streaks, and a
//!   cooldown after any veto/rollback keeps flapping links from
//!   thrashing deployments.
//!
//! The module also hosts the [`CircuitBreaker`] the controller's
//! flaky-install retry path runs behind.

use crate::controller::{BankHandle, GiveUpReason, ProgramScope};
use crate::fastloop::ShadowMirror;
use crate::observe::RolloutObs;
use campuslab_dataplane::{FieldExtractor, PipelineProgram, ProgramVersion};
use campuslab_netsim::{
    Commands, Dir, LinkId, Outage, Packet, SimDuration, SimHooks, SimTime,
};
use campuslab_obs::{ObsSink, OpenSpan, SinkMisfit, Tracer};
use std::net::IpAddr;

/// Where a candidate currently sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum RolloutStage {
    /// No candidate under supervision.
    Idle,
    /// Candidate evaluated on mirrored traffic only.
    Shadow,
    /// Candidate enforced on the canary host cohort.
    Canary,
    /// Candidate enforced campus-wide (still monitored until committed).
    Full,
}

impl RolloutStage {
    /// Gauge encoding (0 idle .. 3 full).
    pub fn code(self) -> i64 {
        match self {
            RolloutStage::Idle => 0,
            RolloutStage::Shadow => 1,
            RolloutStage::Canary => 2,
            RolloutStage::Full => 3,
        }
    }

    fn label(self) -> &'static str {
        match self {
            RolloutStage::Idle => "idle",
            RolloutStage::Shadow => "shadow",
            RolloutStage::Canary => "canary",
            RolloutStage::Full => "full",
        }
    }
}

/// Which SLO gate a window tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum SloViolation {
    /// Shadow verdicts flagged too much benign traffic.
    FalsePositiveRate,
    /// Enforced benign-drop rate rose too far above the baseline.
    BenignDropDelta,
    /// Tap coverage fell too far below the baseline.
    CaptureLossDelta,
    /// A mitigation landed slower than the budget allows.
    LatencyBudget,
    /// The controller gave up installing a mitigation this window.
    InstallGiveUp,
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum RejectReason {
    /// Another candidate is already under supervision.
    Busy,
    /// Inside the post-veto/rollback cooldown.
    Cooldown,
}

/// Shadow gate: max fraction of benign mirrored traffic the candidate may
/// flag for dropping.
const MAX_FP_RATE: f64 = 0.10;
/// Canary/full gate: max rise of the enforced benign-drop rate over the
/// shadow-measured baseline.
const MAX_BENIGN_DROP_DELTA: f64 = 0.005;
/// Canary/full gate: max rise of tap capture loss over baseline.
const MAX_CAPTURE_LOSS_DELTA: f64 = 0.25;
/// Canary/full gate: mitigation latency budget in milliseconds
/// (controller install samples above it violate the window).
const TTM_BUDGET_MS: u64 = 500;

/// SLO evaluation window (sim time).
const WINDOW: SimDuration = SimDuration::from_secs(1);
/// Windows with fewer packets in their sample are inconclusive: they
/// freeze the promotion and rollback streaks instead of moving them.
const MIN_WINDOW_PACKETS: u64 = 20;
/// Consecutive violated windows required to veto/roll back.
const ROLLBACK_AFTER: u32 = 2;
/// After any veto or rollback, refuse new candidates this long.
const COOLDOWN: SimDuration = SimDuration::from_secs(2);
/// Consecutive healthy windows to promote, for a guard with no reason to
/// hurry ([`RolloutConfig::promote_after`]).
pub const PROMOTE_AFTER: u32 = 2;

/// One guard decision, sim-time stamped.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RolloutEvent {
    pub at: SimTime,
    pub program: ProgramVersion,
    pub kind: RolloutEventKind,
}

/// What happened to a candidate.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum RolloutEventKind {
    /// Accepted for supervision; shadow evaluation begins.
    Submitted,
    /// Refused before supervision began.
    Rejected(RejectReason),
    /// Vetoed in shadow — never enforced.
    Vetoed(SloViolation),
    /// Promoted shadow→canary: now enforced on the canary cohort.
    EnteredCanary,
    /// Promoted canary→full: now enforced campus-wide.
    EnteredFull,
    /// Enforced candidate removed; known-good remains in force.
    RolledBack(SloViolation),
    /// Candidate committed as the new known-good version.
    Committed,
    /// First healthy window after a rollback: SLOs back at baseline.
    Recovered,
}

/// The versioned last-known-good lineage. The newest entry is what a
/// rollback leaves in force.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct ProgramRegistry {
    versions: Vec<(ProgramVersion, PipelineProgram)>,
}

impl ProgramRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ProgramRegistry::default()
    }

    /// Commit a program as the new known-good head.
    pub fn commit(&mut self, program: PipelineProgram) -> ProgramVersion {
        let version = program.version();
        self.versions.push((version.clone(), program));
        version
    }

    /// Full lineage, oldest first.
    pub fn lineage(&self) -> impl Iterator<Item = &ProgramVersion> {
        self.versions.iter().map(|(v, _)| v)
    }

    /// Number of committed versions.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// True when nothing was ever committed.
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// True when a version with this fingerprint was ever committed.
    pub fn contains(&self, fingerprint: u64) -> bool {
        self.versions.iter().any(|(v, _)| v.fingerprint == fingerprint)
    }
}

/// Consecutive failures that trip a [`CircuitBreaker`] open.
const BREAKER_OPEN_AFTER: u32 = 3;

/// How long an open [`CircuitBreaker`] blocks before allowing one probe.
const BREAKER_COOLDOWN: SimDuration = SimDuration::from_millis(250);

/// Breaker position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum BreakerState {
    /// Requests flow; failures are counted.
    #[default]
    Closed,
    /// Requests are refused until the cooldown elapses.
    Open,
    /// One probe request is allowed; its outcome decides the next state.
    HalfOpen,
}

/// A deterministic circuit breaker over the install channel: `Closed`
/// until `BREAKER_OPEN_AFTER` (3) consecutive failures, then `Open` for
/// `BREAKER_COOLDOWN` (250 ms), then `HalfOpen` letting a single probe
/// through — probe success closes it, probe failure re-opens it. A new
/// breaker (`default()`) is closed.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct CircuitBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    open_until: SimTime,
}

impl CircuitBreaker {
    /// Current position (advancing Open→HalfOpen if the cooldown passed).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// May a request go out now? Open breakers move to HalfOpen (one
    /// probe) once the cooldown elapses.
    pub fn allows(&mut self, now: SimTime) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if now >= self.open_until {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// A request succeeded: close and forget the failure streak.
    pub fn on_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
    }

    /// A request failed: count it (Closed) or re-open (HalfOpen probe).
    pub fn on_failure(&mut self, now: SimTime) {
        match self.state {
            BreakerState::HalfOpen => self.trip(now),
            _ => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= BREAKER_OPEN_AFTER {
                    self.trip(now);
                }
            }
        }
    }

    fn trip(&mut self, now: SimTime) {
        self.state = BreakerState::Open;
        self.open_until = now + BREAKER_COOLDOWN;
        self.consecutive_failures = 0;
    }
}

/// Guard configuration.
pub struct RolloutConfig {
    /// The tapped link whose mirrored traffic feeds shadow evaluation.
    pub tap: LinkId,
    /// Field extractor matching the campus prefix.
    pub extractor: FieldExtractor,
    /// Consecutive healthy windows required to promote (and, after
    /// reaching Full, to commit the candidate as known-good).
    pub promote_after: u32,
    /// Destinations behind the canary fraction of access switches.
    pub canary_hosts: Vec<IpAddr>,
    /// Known tap blackout windows: mirrored evaluation pauses inside
    /// them (the capture-loss gate sees the coverage dip).
    pub tap_blackouts: Vec<Outage>,
    /// Candidates to submit at scheduled sim times.
    pub submissions: Vec<(SimTime, PipelineProgram)>,
}

/// A candidate under supervision: program, version, and the live shadow
/// mirror (whose runtime carries token-bucket levels mid-window).
#[derive(Clone, serde::Serialize, serde::Deserialize)]
pub struct Candidate {
    program: PipelineProgram,
    version: ProgramVersion,
    mirror: ShadowMirror,
}

/// The deployment supervisor. Implements [`SimHooks`]; compose it with a
/// [`crate::controller::MitigationController`] so both see the tap (the
/// testbed's `Stack` does this and forwards the controller's
/// latency samples and give-ups here).
pub struct RolloutGuard {
    cfg: RolloutConfig,
    bank: BankHandle,
    state: GuardState,
    /// Guard decisions, in sim order.
    pub events: Vec<RolloutEvent>,
    /// Observatory sink + per-stage spans; the decision counts and the
    /// stage and registry gauges are booked by `take_obs`.
    pub obs: RolloutObs,
}

/// Everything a [`RolloutGuard`] keeps privately besides its config and
/// bank handle — lineage, stage machine, candidate, baselines, streaks,
/// cooldowns: the one declaration of those fields, and (in this order) the
/// head of its checkpoint image. Readable so tests and probes can look
/// inside an image; the live copy is the guard's own.
#[derive(Clone, serde::Serialize, serde::Deserialize)]
pub struct GuardState {
    pub registry: ProgramRegistry,
    pub known_good: ProgramVersion,
    pub stage: RolloutStage,
    pub candidate: Option<Candidate>,
    pub stage_span: Option<OpenSpan>,
    pub stage_entered: SimTime,
    pub cooldown_until: SimTime,
    pub healthy_streak: u32,
    pub violation_streak: u32,
    /// Bank stats at the last window boundary, for per-window deltas.
    pub last_bank: crate::controller::FastLoopStatsSnapshot,
    /// Baseline means accumulated over shadow windows (candidate not yet
    /// enforced): benign-drop rate and capture loss.
    pub baseline_benign_drop: Mean,
    pub baseline_capture_loss: Mean,
    /// Mitigation latency samples (ms) and give-ups fed in this window.
    pub window_ttm_ms: Vec<u64>,
    pub window_giveups: u32,
    /// After a rollback: keep evaluating windows until one confirms the
    /// SLOs are back at baseline.
    pub awaiting_recovery: bool,
    pub rolled_back_version: Option<ProgramVersion>,
    pub bootstrapped: bool,
    pub ticking: bool,
    pub next_submission: usize,
}

/// Deterministic running mean (same accumulation order every run).
/// Public only so checkpoints ([`GuardState`]) can carry the baselines.
#[derive(Debug, Clone, Copy, Default, serde::Serialize, serde::Deserialize)]
pub struct Mean {
    sum: f64,
    n: u64,
}

impl Mean {
    fn push(&mut self, v: f64) {
        self.sum += v;
        self.n += 1;
    }

    fn get(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

/// Per-window evidence, assembled at each tick.
struct WindowEvidence {
    /// Packets the bank filter saw this window (enforced path).
    bank_packets: u64,
    /// Packets mirrored to the candidate this window.
    mirrored: u64,
    fp_rate: f64,
    benign_drop_rate: f64,
    capture_loss: f64,
    worst_ttm_ms: Option<u64>,
    giveups: u32,
}

impl RolloutGuard {
    /// Timer-token namespace ("ROLL"); disjoint from the controller's so
    /// the two hooks can share one simulator.
    pub const TOKEN_BASE: u64 = 0x524F_4C4C_0000_0000;
    const WINDOW_TOKEN: u64 = Self::TOKEN_BASE;

    /// Build a guard: `known_good` is committed to the registry and
    /// installed globally in the bank before anything runs.
    pub fn new(cfg: RolloutConfig, known_good: PipelineProgram, bank: BankHandle) -> Self {
        let mut registry = ProgramRegistry::new();
        let known_good_version = registry.commit(known_good.clone());
        bank.install(ProgramScope::Global, known_good);
        let state = GuardState {
            registry,
            known_good: known_good_version,
            stage: RolloutStage::Idle,
            candidate: None,
            stage_span: None,
            stage_entered: SimTime::ZERO,
            cooldown_until: SimTime::ZERO,
            healthy_streak: 0,
            violation_streak: 0,
            last_bank: bank.stats(),
            baseline_benign_drop: Mean::default(),
            baseline_capture_loss: Mean::default(),
            window_ttm_ms: Vec::new(),
            window_giveups: 0,
            awaiting_recovery: false,
            rolled_back_version: None,
            bootstrapped: false,
            ticking: false,
            next_submission: 0,
        };
        RolloutGuard { cfg, bank, state, events: Vec::new(), obs: RolloutObs::new() }
    }

    /// Current stage.
    pub fn stage(&self) -> RolloutStage {
        self.state.stage
    }

    /// The known-good lineage.
    pub fn registry(&self) -> &ProgramRegistry {
        &self.state.registry
    }

    /// The version a rollback leaves in force.
    pub fn known_good(&self) -> &ProgramVersion {
        &self.state.known_good
    }

    /// First rollback → first recovery after it, when both are on the
    /// decision log.
    pub fn recovery_time(&self) -> Option<SimDuration> {
        let first = |want: fn(&RolloutEventKind) -> bool| {
            self.events.iter().find(|e| want(&e.kind)).map(|e| e.at)
        };
        let rolled_back = first(|k| matches!(k, RolloutEventKind::RolledBack(_)))?;
        let recovered = first(|k| matches!(k, RolloutEventKind::Recovered))?;
        (recovered >= rolled_back).then(|| recovered - rolled_back)
    }

    /// Feed one mitigation-latency sample (ms) from the controller.
    pub fn record_ttm_sample(&mut self, ttm_ms: u64) {
        self.state.window_ttm_ms.push(ttm_ms);
    }

    /// Feed a controller install give-up: a rollback-eligible failure,
    /// never a silent drop.
    pub fn record_giveup(&mut self, _reason: GiveUpReason) {
        self.state.window_giveups += 1;
        self.obs.on_giveup_observed();
    }

    /// Book the decision counts from `events`, the gauges from `state`.
    fn book_obs(&mut self) {
        self.obs.book(&self.events, self.state.stage, self.state.registry.len());
    }

    /// Book, then move the Observatory bundle out of a finished guard.
    pub fn take_obs(&mut self) -> RolloutObs {
        self.book_obs();
        std::mem::take(&mut self.obs)
    }

    /// Re-home the guard's telemetry under a metric-name prefix (the
    /// plaza gives each tenant's guard `"<tenant>_"` so co-scheduled
    /// guards never collide in a merged dump). Call before the
    /// simulation runs: the fresh sink and tracer start empty, so any
    /// samples or spans already recorded would be lost.
    pub fn set_obs_prefix(&mut self, prefix: impl Into<String>) {
        self.obs = RolloutObs::with_prefix(prefix);
    }

    /// Freeze the guard's dynamic state for a checkpoint: lineage, stage
    /// machine, candidate (with its live shadow mirror), baselines,
    /// streaks, cooldowns, and telemetry values. Config and bank handle
    /// are rebuilt by the session that restores it; the bank's contents
    /// freeze separately as [`crate::controller::FrozenBank`]. The decision
    /// counts and gauges are not booked here: `take_obs` books them from
    /// the thawed log and state.
    pub fn freeze(&self) -> FrozenGuard {
        FrozenGuard {
            state: self.state.clone(),
            events: self.events.clone(),
            sink: self.obs.sink.clone(),
            tracer: self.obs.tracer.clone(),
        }
    }

    /// Apply a frozen image onto a freshly constructed guard (same config,
    /// same known-good program, fresh bank handle). Every dynamic field is
    /// overwritten; the metric prefix is preserved so plaza tenants thaw
    /// under their own names. An image whose metric sink does not fit is
    /// refused untouched.
    pub fn thaw_state(&mut self, frozen: FrozenGuard) -> Result<(), SinkMisfit> {
        self.obs.thaw(frozen.sink, frozen.tracer)?;
        self.state = frozen.state;
        self.events = frozen.events;
        Ok(())
    }

    fn enter_stage(&mut self, now: SimTime, stage: RolloutStage) {
        if let Some(span) = self.state.stage_span.take() {
            self.obs.on_stage_exit(span, self.state.stage_entered.as_nanos(), now.as_nanos());
        }
        self.state.stage = stage;
        self.state.stage_entered = now;
        self.state.healthy_streak = 0;
        self.state.violation_streak = 0;
        if stage != RolloutStage::Idle {
            let label = match &self.state.candidate {
                Some(c) => format!("{} {}", stage.label(), c.version),
                None => stage.label().to_string(),
            };
            self.state.stage_span = Some(self.obs.on_stage_enter(&label, now.as_nanos()));
        }
    }

    fn push_event(&mut self, at: SimTime, program: ProgramVersion, kind: RolloutEventKind) {
        self.events.push(RolloutEvent { at, program, kind });
    }

    /// Submit a dynamically produced candidate (DriftPilot's retrained
    /// programs arrive here), outside the config-scheduled submission
    /// list. Returns the version that entered Shadow, or why the guard
    /// refused it (busy with another candidate, or inside the
    /// post-rollback cooldown). A rejection is recorded as a guard event
    /// either way, so the decision is auditable.
    pub fn submit_candidate(
        &mut self,
        now: SimTime,
        program: PipelineProgram,
        cmds: &mut Commands,
    ) -> Result<ProgramVersion, RejectReason> {
        let version = program.version();
        match self.submit(now, program, cmds) {
            None => Ok(version),
            Some(reason) => Err(reason),
        }
    }

    fn submit(
        &mut self,
        now: SimTime,
        program: PipelineProgram,
        cmds: &mut Commands,
    ) -> Option<RejectReason> {
        let version = program.version();
        let reject = if self.state.stage != RolloutStage::Idle {
            Some(RejectReason::Busy)
        } else if now < self.state.cooldown_until {
            Some(RejectReason::Cooldown)
        } else {
            None
        };
        if let Some(reason) = reject {
            self.push_event(now, version, RolloutEventKind::Rejected(reason));
            return Some(reason);
        }
        let mirror = ShadowMirror::new(program.clone(), self.cfg.extractor.clone());
        self.state.candidate = Some(Candidate { program, version: version.clone(), mirror });
        // Recovery watching (if any) yields to the new candidate.
        self.state.awaiting_recovery = false;
        self.state.rolled_back_version = None;
        self.push_event(now, version, RolloutEventKind::Submitted);
        self.enter_stage(now, RolloutStage::Shadow);
        self.state.last_bank = self.bank.stats();
        self.arm_window(now, cmds);
        None
    }

    fn arm_window(&mut self, now: SimTime, cmds: &mut Commands) {
        if self.state.ticking {
            return;
        }
        let w = WINDOW.as_nanos();
        let next = SimTime(((now.as_nanos() / w) + 1) * w);
        cmds.set_timer(next, Self::WINDOW_TOKEN);
        self.state.ticking = true;
    }

    fn gather_evidence(&mut self) -> WindowEvidence {
        let bank_now = self.bank.stats();
        let last = std::mem::replace(&mut self.state.last_bank, bank_now);
        let d_packets = bank_now.packets.saturating_sub(last.packets);
        let d_dropped_attack = bank_now.dropped_attack.saturating_sub(last.dropped_attack);
        let d_dropped_benign = bank_now.dropped_benign.saturating_sub(last.dropped_benign);
        let d_passed_attack = bank_now.passed_attack.saturating_sub(last.passed_attack);
        let benign_seen = d_packets.saturating_sub(d_dropped_attack + d_passed_attack);
        let benign_drop_rate = if benign_seen == 0 {
            0.0
        } else {
            d_dropped_benign as f64 / benign_seen as f64
        };
        let shadow = match &mut self.state.candidate {
            Some(c) => c.mirror.take_window(),
            None => Default::default(),
        };
        let capture_loss = if d_packets == 0 {
            0.0
        } else {
            (1.0 - shadow.mirrored as f64 / d_packets as f64).max(0.0)
        };
        WindowEvidence {
            bank_packets: d_packets,
            mirrored: shadow.mirrored,
            fp_rate: shadow.fp_rate(),
            benign_drop_rate,
            capture_loss,
            worst_ttm_ms: self.state.window_ttm_ms.drain(..).max(),
            giveups: std::mem::take(&mut self.state.window_giveups),
        }
    }

    /// The violated gates for this window, in fixed severity order.
    fn violations(&self, ev: &WindowEvidence) -> Vec<SloViolation> {
        let mut out = Vec::new();
        match self.state.stage {
            RolloutStage::Shadow => {
                if ev.fp_rate > MAX_FP_RATE {
                    out.push(SloViolation::FalsePositiveRate);
                }
            }
            RolloutStage::Canary | RolloutStage::Full => {
                if ev.fp_rate > MAX_FP_RATE {
                    out.push(SloViolation::FalsePositiveRate);
                }
                let drop_limit = self.state.baseline_benign_drop.get() + MAX_BENIGN_DROP_DELTA;
                if ev.benign_drop_rate > drop_limit {
                    out.push(SloViolation::BenignDropDelta);
                }
                let loss_limit = self.state.baseline_capture_loss.get() + MAX_CAPTURE_LOSS_DELTA;
                if ev.capture_loss > loss_limit {
                    out.push(SloViolation::CaptureLossDelta);
                }
                if ev.worst_ttm_ms.is_some_and(|w| w > TTM_BUDGET_MS) {
                    out.push(SloViolation::LatencyBudget);
                }
                if ev.giveups > 0 {
                    out.push(SloViolation::InstallGiveUp);
                }
            }
            RolloutStage::Idle => {
                // Recovery watching: no mirror is running, so only the
                // enforced-path benign-drop gate applies.
                let drop_limit = self.state.baseline_benign_drop.get() + MAX_BENIGN_DROP_DELTA;
                if ev.benign_drop_rate > drop_limit {
                    out.push(SloViolation::BenignDropDelta);
                }
            }
        }
        out
    }

    fn evaluate_window(&mut self, now: SimTime, cmds: &mut Commands) {
        self.state.ticking = false;
        let ev = self.gather_evidence();
        // The capture-loss gate stays live even when mirroring itself is
        // starved — a full blackout must read as a coverage violation,
        // not as "no evidence".
        let capture_violated = matches!(self.state.stage, RolloutStage::Canary | RolloutStage::Full)
            && ev.capture_loss > self.state.baseline_capture_loss.get() + MAX_CAPTURE_LOSS_DELTA;
        // Conclusiveness keys off the traffic the verdict actually rests
        // on: mirrored packets while a candidate is evaluated, enforced
        // bank traffic during post-rollback recovery watching.
        let sample = if self.state.candidate.is_some() { ev.mirrored } else { ev.bank_packets };
        if sample < MIN_WINDOW_PACKETS && !capture_violated {
            self.obs.on_window(None);
            self.keep_ticking(now, cmds);
            return;
        }
        let violations = self.violations(&ev);
        for &v in &violations {
            self.obs.on_violation(v);
        }
        let healthy = violations.is_empty();
        self.obs.on_window(Some(healthy));
        if matches!(self.state.stage, RolloutStage::Shadow) {
            // The candidate is not enforced yet, so these windows define
            // the production baseline the canary is judged against.
            self.state.baseline_benign_drop.push(ev.benign_drop_rate);
            self.state.baseline_capture_loss.push(ev.capture_loss);
        }
        if healthy {
            self.state.healthy_streak += 1;
            self.state.violation_streak = 0;
            self.on_healthy_streak(now);
        } else {
            self.state.violation_streak += 1;
            self.state.healthy_streak = 0;
            self.on_violation_streak(now, violations[0]);
        }
        self.keep_ticking(now, cmds);
    }

    fn keep_ticking(&mut self, now: SimTime, cmds: &mut Commands) {
        let more_submissions = self.state.next_submission < self.cfg.submissions.len();
        let st = &self.state;
        if st.stage != RolloutStage::Idle || st.awaiting_recovery || more_submissions {
            self.arm_window(now, cmds);
        }
    }

    fn on_healthy_streak(&mut self, now: SimTime) {
        if self.state.awaiting_recovery {
            // Any single healthy window confirms the known-good program
            // restored the SLOs.
            self.state.awaiting_recovery = false;
            let st = &mut self.state;
            let version = st.rolled_back_version.take().unwrap_or_else(|| st.known_good.clone());
            self.push_event(now, version, RolloutEventKind::Recovered);
            return;
        }
        if self.state.healthy_streak < self.cfg.promote_after {
            return;
        }
        match self.state.stage {
            RolloutStage::Shadow => {
                let Some(c) = &self.state.candidate else { return };
                let version = c.version.clone();
                self.bank
                    .install(ProgramScope::AnyOf(self.cfg.canary_hosts.clone()), c.program.clone());
                self.push_event(now, version, RolloutEventKind::EnteredCanary);
                self.enter_stage(now, RolloutStage::Canary);
            }
            RolloutStage::Canary => {
                let Some(c) = &self.state.candidate else { return };
                let version = c.version.clone();
                // Re-scope: the canary entry leaves, a global one lands.
                self.bank.remove_fingerprint(version.fingerprint);
                self.bank.install(ProgramScope::Global, c.program.clone());
                self.push_event(now, version, RolloutEventKind::EnteredFull);
                self.enter_stage(now, RolloutStage::Full);
            }
            RolloutStage::Full => {
                let Some(c) = self.state.candidate.take() else { return };
                let version = c.version.clone();
                // The candidate becomes the known-good head; the old
                // known-good entry retires from the bank.
                self.bank.remove_fingerprint(self.state.known_good.fingerprint);
                self.state.known_good = self.state.registry.commit(c.program);
                self.push_event(now, version, RolloutEventKind::Committed);
                self.enter_stage(now, RolloutStage::Idle);
            }
            RolloutStage::Idle => {}
        }
    }

    fn on_violation_streak(&mut self, now: SimTime, worst: SloViolation) {
        if self.state.violation_streak < ROLLBACK_AFTER {
            return;
        }
        match self.state.stage {
            RolloutStage::Shadow => {
                let Some(c) = self.state.candidate.take() else { return };
                self.push_event(now, c.version, RolloutEventKind::Vetoed(worst));
                self.state.cooldown_until = now + COOLDOWN;
                self.enter_stage(now, RolloutStage::Idle);
            }
            RolloutStage::Canary | RolloutStage::Full => {
                let Some(c) = self.state.candidate.take() else { return };
                // Remove every candidate entry; the known-good program
                // never left the bank, so it is back in sole force now.
                self.bank.remove_fingerprint(c.version.fingerprint);
                self.push_event(now, c.version.clone(), RolloutEventKind::RolledBack(worst));
                self.state.cooldown_until = now + COOLDOWN;
                self.state.awaiting_recovery = true;
                self.state.rolled_back_version = Some(c.version);
                self.enter_stage(now, RolloutStage::Idle);
            }
            RolloutStage::Idle => {
                // Recovery watching saw a violated window: keep watching.
            }
        }
    }
}

/// A [`RolloutGuard`]'s checkpointable image. Deliberately NOT captured:
/// the config (scenario-derived) and the bank handle (frozen separately).
#[derive(Clone, serde::Serialize, serde::Deserialize)]
pub struct FrozenGuard {
    pub state: GuardState,
    pub events: Vec<RolloutEvent>,
    pub sink: ObsSink,
    pub tracer: Tracer,
}

impl SimHooks for RolloutGuard {
    fn on_tap(&mut self, now: SimTime, link: LinkId, _dir: Dir, packet: &Packet, cmds: &mut Commands) {
        if link != self.cfg.tap {
            return;
        }
        if !self.state.bootstrapped {
            self.state.bootstrapped = true;
            for (i, (at, _)) in self.cfg.submissions.iter().enumerate() {
                let fire = if *at > now { *at } else { now + SimDuration::from_nanos(1) };
                cmds.set_timer(fire, Self::TOKEN_BASE + 1 + i as u64);
            }
        }
        // Mirrored evaluation pauses inside announced tap blackouts; the
        // coverage dip is exactly what the capture-loss gate measures.
        if !self.cfg.tap_blackouts.is_empty()
            && self.cfg.tap_blackouts.iter().any(|w| w.contains(now))
        {
            return;
        }
        if let Some(c) = &mut self.state.candidate {
            c.mirror.observe(now, packet);
        }
    }

    fn on_timer(&mut self, now: SimTime, token: u64, cmds: &mut Commands) {
        if token == Self::WINDOW_TOKEN {
            self.evaluate_window(now, cmds);
            return;
        }
        let Some(idx) = token.checked_sub(Self::TOKEN_BASE + 1) else { return };
        let idx = idx as usize;
        if idx >= self.cfg.submissions.len() || idx != self.state.next_submission {
            return;
        }
        self.state.next_submission += 1;
        let program = self.cfg.submissions[idx].1.clone();
        self.submit(now, program, cmds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::BankFilter;
    use campuslab_dataplane::{Action, HeaderField, TableEntry};
    use campuslab_netsim::{GroundTruth, PacketBuilder, PacketFilter, Payload, Prefix};
    use std::net::Ipv4Addr;

    /// True when an entry with this program fingerprint is installed.
    fn has_fingerprint(handle: &BankHandle, fingerprint: u64) -> bool {
        handle.freeze().entries.iter().any(|e| e.fingerprint == fingerprint)
    }

    fn extractor() -> FieldExtractor {
        FieldExtractor::new(Prefix::v4(Ipv4Addr::new(10, 1, 0, 0), 16))
    }

    /// Drops UDP traffic sourced from port 53 (the known-good signature).
    fn drop_dns_amp(name: &str) -> PipelineProgram {
        let udp53 = [(HeaderField::SrcPort, 53), (HeaderField::IsUdp, 1)];
        PipelineProgram::new(name, vec![TableEntry::exact(&udp53, Action::Drop, 1, 0.95)])
    }

    /// Drops *all* UDP — grossly over-broad, the shadow stage must veto it.
    fn drop_all_udp(name: &str) -> PipelineProgram {
        let udp = [(HeaderField::IsUdp, 1)];
        PipelineProgram::new(name, vec![TableEntry::exact(&udp, Action::Drop, 1, 0.95)])
    }

    /// Drops TCP port-443 traffic — quiet on a UDP-only feed, harmful once
    /// web traffic appears (the subtle-degradation case).
    fn drop_https(name: &str) -> PipelineProgram {
        let https = [(HeaderField::DstPort, 443), (HeaderField::IsTcp, 1)];
        PipelineProgram::new(name, vec![TableEntry::exact(&https, Action::Drop, 1, 0.95)])
    }

    fn benign_udp(b: &mut PacketBuilder, dst: Ipv4Addr) -> campuslab_netsim::Packet {
        b.udp_v4(
            Ipv4Addr::new(203, 0, 113, 9),
            dst,
            9_000,
            40_000,
            Payload::Synthetic(200),
            64,
            GroundTruth::default(),
        )
    }

    fn benign_https(b: &mut PacketBuilder, dst: Ipv4Addr) -> campuslab_netsim::Packet {
        b.tcp_v4(
            Ipv4Addr::new(203, 0, 113, 9),
            dst,
            50_000,
            443,
            campuslab_wire::TcpRepr {
                src_port: 0,
                dst_port: 0,
                seq: 1,
                ack: 0,
                control: campuslab_wire::TcpControl::ACK,
                mss: None,
                window_scale: None,
            },
            Payload::Synthetic(400),
            GroundTruth::default(),
        )
    }

    /// Packets per window that make it conclusive.
    const CONCLUSIVE: usize = MIN_WINDOW_PACKETS as usize;

    fn guard_with(
        submissions: Vec<(SimTime, PipelineProgram)>,
        canary_hosts: Vec<IpAddr>,
    ) -> (RolloutGuard, BankHandle, Box<crate::controller::BankFilter>) {
        let (filter, handle) = BankFilter::new(extractor());
        let cfg = RolloutConfig {
            tap: LinkId(0),
            extractor: extractor(),
            promote_after: PROMOTE_AFTER,
            canary_hosts,
            tap_blackouts: Vec::new(),
            submissions,
        };
        let guard = RolloutGuard::new(cfg, drop_dns_amp("kg-v1"), handle.clone());
        (guard, handle, filter)
    }

    /// Feed `n` packets to both the guard's tap and the enforced bank at
    /// evenly spaced times inside the window starting at `from`.
    #[allow(clippy::too_many_arguments)]
    fn feed_window(
        guard: &mut RolloutGuard,
        filter: &mut crate::controller::BankFilter,
        b: &mut PacketBuilder,
        from: SimTime,
        n: usize,
        mk: impl Fn(&mut PacketBuilder, Ipv4Addr) -> campuslab_netsim::Packet,
        dst: Ipv4Addr,
        cmds: &mut Commands,
    ) {
        for i in 0..n {
            let at = from + SimDuration::from_millis(1 + i as u64);
            let pkt = mk(b, dst);
            filter.decide(at, &pkt);
            guard.on_tap(at, LinkId(0), Dir::AtoB, &pkt, cmds);
        }
    }

    fn tick(guard: &mut RolloutGuard, at: SimTime, cmds: &mut Commands) {
        guard.on_timer(at, RolloutGuard::WINDOW_TOKEN, cmds);
    }

    const SUBMIT0: u64 = RolloutGuard::TOKEN_BASE + 1;

    #[test]
    fn breaker_opens_blocks_probes_and_recloses() {
        let mut b = CircuitBreaker::default();
        let t0 = SimTime::ZERO;
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allows(t0));
        b.on_failure(t0);
        b.on_failure(t0);
        assert_eq!(b.state(), BreakerState::Closed, "two failures keep it closed");
        b.on_failure(t0);
        assert_eq!(b.state(), BreakerState::Open);
        // Blocked until the 250 ms cooldown elapses.
        assert!(!b.allows(t0 + SimDuration::from_millis(249)));
        // Then exactly one probe is allowed.
        let probe_at = t0 + BREAKER_COOLDOWN;
        assert!(b.allows(probe_at));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // A failed probe re-opens immediately (no streak needed).
        b.on_failure(probe_at);
        assert_eq!(b.state(), BreakerState::Open);
        // A successful probe closes it for good.
        let probe2 = probe_at + BREAKER_COOLDOWN;
        assert!(b.allows(probe2));
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allows(probe2));
    }

    #[test]
    fn registry_tracks_known_good_lineage() {
        let mut reg = ProgramRegistry::new();
        assert!(reg.is_empty());
        let v1 = reg.commit(drop_dns_amp("v1"));
        let v2 = reg.commit(drop_https("v2"));
        assert_eq!(reg.len(), 2);
        assert!(reg.contains(v1.fingerprint));
        assert!(reg.contains(v2.fingerprint));
        assert!(!reg.contains(0xDEAD_BEEF));
        let (head, program) = reg.versions.last().expect("head");
        assert_eq!(*head, v2);
        assert_eq!(program.version(), v2);
        let lineage: Vec<_> = reg.lineage().cloned().collect();
        assert_eq!(lineage, vec![v1, v2]);
    }

    #[test]
    fn shadow_vetoes_an_overbroad_candidate_without_enforcing_it() {
        let v2 = drop_all_udp("v2");
        let v2_fp = v2.fingerprint();
        let (mut guard, handle, mut filter) =
            guard_with(vec![(SimTime::from_secs(1), v2)], Vec::new());
        let mut b = PacketBuilder::new();
        let mut cmds = Commands::default();
        let dst = Ipv4Addr::new(10, 1, 1, 10);

        // Bootstrap: the first tapped packet schedules the submission.
        let p = benign_udp(&mut b, dst);
        guard.on_tap(SimTime::from_millis(1), LinkId(0), Dir::AtoB, &p, &mut cmds);
        guard.on_timer(SimTime::from_secs(1), SUBMIT0, &mut cmds);
        assert_eq!(guard.stage(), RolloutStage::Shadow);

        // Two windows of benign UDP: the candidate would drop all of it.
        for w in 0..2 {
            let from = SimTime::from_secs(1 + w);
            feed_window(&mut guard, &mut filter, &mut b, from, CONCLUSIVE, benign_udp, dst, &mut cmds);
            tick(&mut guard, SimTime::from_secs(2 + w), &mut cmds);
        }
        assert_eq!(guard.stage(), RolloutStage::Idle);
        assert!(matches!(
            guard.events.last().map(|e| e.kind),
            Some(RolloutEventKind::Vetoed(SloViolation::FalsePositiveRate))
        ));
        // Never enforced: the bank still holds only the known-good entry.
        assert_eq!(handle.len(), 1);
        assert!(!has_fingerprint(&handle, v2_fp));
        guard.book_obs();
        assert_eq!(guard.obs.vetoes(), 1);
        assert_eq!(guard.obs.windows_violated(), 2);
        // Nothing was actually dropped while shadowing.
        assert_eq!(handle.stats().dropped, 0);
    }

    #[test]
    fn healthy_candidate_promotes_through_canary_to_commit() {
        let v2 = drop_https("v2");
        let v2_version = v2.version();
        let canary: Vec<IpAddr> = vec![Ipv4Addr::new(10, 1, 1, 10).into()];
        let (mut guard, handle, mut filter) =
            guard_with(vec![(SimTime::from_secs(1), v2)], canary);
        let kg_fp = guard.known_good().fingerprint;
        let mut b = PacketBuilder::new();
        let mut cmds = Commands::default();
        let dst = Ipv4Addr::new(10, 1, 1, 10);

        let p = benign_udp(&mut b, dst);
        guard.on_tap(SimTime::from_millis(1), LinkId(0), Dir::AtoB, &p, &mut cmds);
        guard.on_timer(SimTime::from_secs(1), SUBMIT0, &mut cmds);

        // Benign UDP only: drop-https flags nothing, every window healthy.
        // 2 shadow + 2 canary + 2 full windows walk it to a commit.
        for w in 0..6u64 {
            let from = SimTime::from_secs(1 + w);
            feed_window(&mut guard, &mut filter, &mut b, from, CONCLUSIVE, benign_udp, dst, &mut cmds);
            tick(&mut guard, SimTime::from_secs(2 + w), &mut cmds);
        }
        let kinds: Vec<_> = guard.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                RolloutEventKind::Submitted,
                RolloutEventKind::EnteredCanary,
                RolloutEventKind::EnteredFull,
                RolloutEventKind::Committed,
            ]
        );
        assert_eq!(guard.stage(), RolloutStage::Idle);
        // Committed: the candidate is the registry head and the old
        // known-good entry has retired from the bank.
        assert_eq!(guard.registry().len(), 2);
        assert_eq!(guard.registry().versions.last().unwrap().0, v2_version);
        assert!(has_fingerprint(&handle, v2_version.fingerprint));
        assert!(!has_fingerprint(&handle, kg_fp));
        guard.book_obs();
        assert_eq!(guard.obs.promotions(), 2);
        assert_eq!(guard.obs.commits(), 1);
        assert_eq!((guard.obs.stage(), guard.obs.registry_versions()), (0, 2));
        // Two stages were exited with recorded durations by commit time
        // (shadow and canary), plus full on the final transition.
        assert_eq!(guard.obs.stage_histogram().count(), 3);
        // Nothing was rolled back, so there is no recovery to time.
        assert_eq!(guard.recovery_time(), None);
    }

    #[test]
    fn canary_rollback_restores_known_good_and_confirms_recovery() {
        let v3 = drop_https("v3");
        let v3_fp = v3.fingerprint();
        let canary_host = Ipv4Addr::new(10, 1, 1, 10);
        let (mut guard, handle, mut filter) =
            guard_with(vec![(SimTime::from_secs(1), v3)], vec![canary_host.into()]);
        let mut b = PacketBuilder::new();
        let mut cmds = Commands::default();

        let p = benign_udp(&mut b, canary_host);
        guard.on_tap(SimTime::from_millis(1), LinkId(0), Dir::AtoB, &p, &mut cmds);
        guard.on_timer(SimTime::from_secs(1), SUBMIT0, &mut cmds);

        // Shadow passes on two quiet UDP windows (drop-https sees nothing).
        for w in 0..2u64 {
            let from = SimTime::from_secs(1 + w);
            feed_window(
                &mut guard, &mut filter, &mut b, from, CONCLUSIVE, benign_udp, canary_host, &mut cmds,
            );
            tick(&mut guard, SimTime::from_secs(2 + w), &mut cmds);
        }
        assert_eq!(guard.stage(), RolloutStage::Canary);
        assert!(has_fingerprint(&handle, v3_fp));

        // Canary: benign HTTPS to the canary host is now enforced-dropped
        // — a benign-drop delta the baseline never saw. It reaches the
        // bank off-tap, so the mirror's FP gate stays quiet and the
        // enforced-path gate is what must catch it.
        for w in 2..4u64 {
            let from = SimTime::from_secs(1 + w);
            feed_window(
                &mut guard, &mut filter, &mut b, from, CONCLUSIVE, benign_udp, canary_host, &mut cmds,
            );
            for i in 0..5 {
                let at = from + SimDuration::from_millis(500 + i as u64);
                let pkt = benign_https(&mut b, canary_host);
                filter.decide(at, &pkt);
            }
            tick(&mut guard, SimTime::from_secs(2 + w), &mut cmds);
        }
        assert!(matches!(
            guard.events.last().map(|e| e.kind),
            Some(RolloutEventKind::RolledBack(SloViolation::BenignDropDelta))
        ));
        assert_eq!(guard.stage(), RolloutStage::Idle);
        // The candidate's entries left the bank; known-good remains.
        assert!(!has_fingerprint(&handle, v3_fp));
        assert_eq!(handle.len(), 1);
        guard.book_obs();
        assert_eq!(guard.obs.rollbacks(), 1);
        let rollback_at = guard.events.last().unwrap().at;

        // Post-rollback, the same traffic now passes: recovery confirmed
        // on the next conclusive window.
        let from = SimTime::from_secs(5);
        feed_window(
            &mut guard, &mut filter, &mut b, from, CONCLUSIVE, benign_https, canary_host, &mut cmds,
        );
        tick(&mut guard, SimTime::from_secs(6), &mut cmds);
        guard.book_obs();
        let last = guard.events.last().unwrap();
        assert_eq!(last.kind, RolloutEventKind::Recovered);
        assert!(last.at > rollback_at);
        assert_eq!(guard.obs.recoveries(), 1);
        assert_eq!(guard.recovery_time(), Some(last.at - rollback_at));

        // And the cooldown refuses an immediate resubmission.
        guard.submit(rollback_at + SimDuration::from_millis(1), drop_https("v4"), &mut cmds);
        assert!(matches!(
            guard.events.last().map(|e| e.kind),
            Some(RolloutEventKind::Rejected(RejectReason::Cooldown))
        ));
        guard.book_obs();
        assert_eq!(guard.obs.rejected(), 1);
    }

    #[test]
    fn giveups_are_rollback_eligible_violations() {
        // A candidate sits in canary; the controller reports an install
        // give-up each window. That alone must drive the rollback.
        let v3 = drop_https("v3");
        let canary_host = Ipv4Addr::new(10, 1, 1, 10);
        let (mut guard, _handle, mut filter) =
            guard_with(vec![(SimTime::from_secs(1), v3)], vec![canary_host.into()]);
        let mut b = PacketBuilder::new();
        let mut cmds = Commands::default();

        let p = benign_udp(&mut b, canary_host);
        guard.on_tap(SimTime::from_millis(1), LinkId(0), Dir::AtoB, &p, &mut cmds);
        guard.on_timer(SimTime::from_secs(1), SUBMIT0, &mut cmds);
        for w in 0..2u64 {
            let from = SimTime::from_secs(1 + w);
            feed_window(
                &mut guard, &mut filter, &mut b, from, CONCLUSIVE, benign_udp, canary_host, &mut cmds,
            );
            tick(&mut guard, SimTime::from_secs(2 + w), &mut cmds);
        }
        assert_eq!(guard.stage(), RolloutStage::Canary);

        for w in 2..4u64 {
            let from = SimTime::from_secs(1 + w);
            feed_window(
                &mut guard, &mut filter, &mut b, from, CONCLUSIVE, benign_udp, canary_host, &mut cmds,
            );
            guard.record_giveup(GiveUpReason::CircuitOpen);
            tick(&mut guard, SimTime::from_secs(2 + w), &mut cmds);
        }
        assert!(matches!(
            guard.events.last().map(|e| e.kind),
            Some(RolloutEventKind::RolledBack(SloViolation::InstallGiveUp))
        ));
        assert_eq!(guard.obs.giveups_observed(), 2);
    }

    #[test]
    fn busy_guard_rejects_competing_submissions() {
        let (mut guard, _handle, mut filter) = guard_with(
            vec![(SimTime::from_secs(1), drop_https("v2"))],
            Vec::new(),
        );
        let mut b = PacketBuilder::new();
        let mut cmds = Commands::default();
        let dst = Ipv4Addr::new(10, 1, 1, 10);
        let p = benign_udp(&mut b, dst);
        guard.on_tap(SimTime::from_millis(1), LinkId(0), Dir::AtoB, &p, &mut cmds);
        guard.on_timer(SimTime::from_secs(1), SUBMIT0, &mut cmds);
        assert_eq!(guard.stage(), RolloutStage::Shadow);
        let _ = &mut filter;
        guard.submit(SimTime::from_millis(1_500), drop_all_udp("v9"), &mut cmds);
        assert!(matches!(
            guard.events.last().map(|e| e.kind),
            Some(RolloutEventKind::Rejected(RejectReason::Busy))
        ));
        guard.book_obs();
        assert_eq!(guard.obs.submissions(), 2);
        assert_eq!(guard.obs.rejected(), 1);
    }

    #[test]
    fn blackout_windows_are_inconclusive_not_vetoes() {
        // Mirrored evaluation pauses in a blackout; a window with too few
        // mirrored packets must freeze the streaks, not move them.
        let v2 = drop_all_udp("v2");
        let (filter, handle) = BankFilter::new(extractor());
        let mut filter = filter;
        let cfg = RolloutConfig {
            tap: LinkId(0),
            extractor: extractor(),
            promote_after: PROMOTE_AFTER,
            canary_hosts: Vec::new(),
            tap_blackouts: vec![Outage {
                from: SimTime::from_secs(2),
                until: SimTime::from_secs(3),
            }],
            submissions: vec![(SimTime::from_secs(1), v2)],
        };
        let mut guard = RolloutGuard::new(cfg, drop_dns_amp("kg-v1"), handle.clone());
        let mut b = PacketBuilder::new();
        let mut cmds = Commands::default();
        let dst = Ipv4Addr::new(10, 1, 1, 10);
        let p = benign_udp(&mut b, dst);
        guard.on_tap(SimTime::from_millis(1), LinkId(0), Dir::AtoB, &p, &mut cmds);
        guard.on_timer(SimTime::from_secs(1), SUBMIT0, &mut cmds);

        // First window violates (high FP) ...
        feed_window(&mut guard, &mut filter, &mut b, SimTime::from_secs(1), CONCLUSIVE, benign_udp, dst, &mut cmds);
        tick(&mut guard, SimTime::from_secs(2), &mut cmds);
        assert_eq!(guard.stage(), RolloutStage::Shadow, "one bad window must not veto");
        // ... the blacked-out window is inconclusive and freezes the
        // streak instead of completing the veto ...
        feed_window(&mut guard, &mut filter, &mut b, SimTime::from_secs(2), CONCLUSIVE, benign_udp, dst, &mut cmds);
        tick(&mut guard, SimTime::from_secs(3), &mut cmds);
        assert_eq!(guard.stage(), RolloutStage::Shadow);
        assert_eq!(guard.obs.windows_inconclusive(), 1);
        // ... so is a window one packet short of conclusive ...
        let thin = CONCLUSIVE - 1;
        feed_window(&mut guard, &mut filter, &mut b, SimTime::from_secs(3), thin, benign_udp, dst, &mut cmds);
        tick(&mut guard, SimTime::from_secs(4), &mut cmds);
        assert_eq!(guard.stage(), RolloutStage::Shadow);
        assert_eq!(guard.obs.windows_inconclusive(), 2);
        // ... and two more violating windows finish the job.
        for w in 4..6u64 {
            let from = SimTime::from_secs(w);
            feed_window(&mut guard, &mut filter, &mut b, from, CONCLUSIVE, benign_udp, dst, &mut cmds);
            tick(&mut guard, SimTime::from_secs(w + 1), &mut cmds);
        }
        assert!(matches!(
            guard.events.last().map(|e| e.kind),
            Some(RolloutEventKind::Vetoed(SloViolation::FalsePositiveRate))
        ));
    }

    #[test]
    fn candidate_arriving_mid_cooldown_waits_out_the_veto() {
        // A veto arms the cooldown; a fresh candidate arriving inside it
        // must be refused — and the same candidate is welcome the moment
        // the cooldown expires.
        let (mut guard, _handle, mut filter) = guard_with(Vec::new(), Vec::new());
        let mut b = PacketBuilder::new();
        let mut cmds = Commands::default();
        let dst = Ipv4Addr::new(10, 1, 1, 10);

        guard
            .submit_candidate(SimTime::from_secs(1), drop_all_udp("bad"), &mut cmds)
            .expect("idle guard takes the first candidate");
        // Two windows of benign UDP: the overbroad candidate flags all of
        // it and is vetoed at t=3s, arming the 2s cooldown.
        for w in 0..2u64 {
            let from = SimTime::from_secs(1 + w);
            feed_window(&mut guard, &mut filter, &mut b, from, CONCLUSIVE, benign_udp, dst, &mut cmds);
            tick(&mut guard, SimTime::from_secs(2 + w), &mut cmds);
        }
        assert!(matches!(
            guard.events.last().map(|e| e.kind),
            Some(RolloutEventKind::Vetoed(SloViolation::FalsePositiveRate))
        ));
        assert_eq!(guard.stage(), RolloutStage::Idle);

        // t=4s is mid-cooldown: refused even though the guard is Idle,
        // and the refusal is an auditable event.
        let v2 = drop_https("v2");
        let refused = guard.submit_candidate(SimTime::from_secs(4), v2.clone(), &mut cmds);
        assert_eq!(refused.unwrap_err(), RejectReason::Cooldown);
        assert_eq!(guard.stage(), RolloutStage::Idle);
        assert!(matches!(
            guard.events.last().map(|e| e.kind),
            Some(RolloutEventKind::Rejected(RejectReason::Cooldown))
        ));
        guard.book_obs();
        assert_eq!(guard.obs.rejected(), 1);

        // At exactly t=5s the cooldown has elapsed: accepted into Shadow.
        let accepted = guard.submit_candidate(SimTime::from_secs(5), v2, &mut cmds);
        assert_eq!(accepted.expect("cooldown expired").name, "v2");
        assert_eq!(guard.stage(), RolloutStage::Shadow);
    }

    #[test]
    fn back_to_back_candidates_race_a_single_slo_window() {
        // Two candidates inside one SLO window: the first takes the
        // guard, the second bounces with Busy, and the survivor's window
        // evidence is evaluated unpolluted — it promotes on its own
        // schedule, with the loser shut out for the whole rollout.
        let (mut guard, _handle, mut filter) = guard_with(Vec::new(), Vec::new());
        let mut b = PacketBuilder::new();
        let mut cmds = Commands::default();
        let dst = Ipv4Addr::new(10, 1, 1, 10);

        let first = drop_https("first");
        let second = drop_https("second");
        let first_version = first.version();
        guard
            .submit_candidate(SimTime::from_millis(1_100), first, &mut cmds)
            .expect("first candidate enters Shadow");
        // 500ms later, same SLO window: the race is lost cleanly.
        let lost =
            guard.submit_candidate(SimTime::from_millis(1_600), second.clone(), &mut cmds);
        assert_eq!(lost.unwrap_err(), RejectReason::Busy);
        assert_eq!(guard.events.last().unwrap().program, second.version());

        // The race leaves no mark on the survivor: quiet UDP windows walk
        // it through Shadow exactly as if it had arrived alone.
        for w in 0..2u64 {
            let from = SimTime::from_secs(1 + w);
            feed_window(&mut guard, &mut filter, &mut b, from, CONCLUSIVE, benign_udp, dst, &mut cmds);
            tick(&mut guard, SimTime::from_secs(2 + w), &mut cmds);
        }
        assert_eq!(guard.stage(), RolloutStage::Canary);
        let submitted: Vec<_> = guard
            .events
            .iter()
            .filter(|e| e.kind == RolloutEventKind::Submitted)
            .map(|e| e.program.clone())
            .collect();
        assert_eq!(submitted, vec![first_version], "only the winner was ever admitted");

        // Mid-canary the loser still cannot slip in.
        let retry = guard.submit_candidate(SimTime::from_millis(3_100), second, &mut cmds);
        assert_eq!(retry.unwrap_err(), RejectReason::Busy);
        guard.book_obs();
        assert_eq!(guard.obs.rejected(), 2);
    }
}
