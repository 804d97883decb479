//! One way to compose a run (DESIGN.md §16, "Session and Stack"). A
//! [`Stack`] is the hook set of every testbed run: optional members in one
//! fixed order, one [`SimHooks`] fan-out, one evidence pass between the
//! members, one freeze/thaw pair. A [`Session`] is the only place that
//! turns a [`Scenario`] plus a [`RoadTestConfig`] into campus + schedule +
//! chaos + filter bank + stack, and it gives every composition the
//! same lifecycle: [`Session::run_until`], [`Session::checkpoint`],
//! [`Session::restore`], [`Session::finish`]. The road-test drivers
//! (`road_test`, `guarded_road_test`, `drift_road_test`, `resolver_run`,
//! a plaza tenant) only choose members; every one but `road_test`
//! hands back the [`Finished`] itself, and callers read what they need
//! off its stack members. One run is composed elsewhere:
//! [`crate::scenario::collect`], the data-source half, runs a scenario
//! with the border monitor alone, with no road-test knobs, chaos or
//! filter bank, so it builds its campus, schedule and tap hooks itself.

use crate::observe::RunObs;
use crate::phoenix::PhoenixCheckpoint;
use crate::roadtest::RoadTestConfig;
use crate::rollout::canary_hosts;
use crate::scenario::{build_schedule, Scenario};
use campuslab_capture::BorderTapHooks;
use campuslab_control::{
    BankFilter, BankHandle, DriftPilot, FastLoopStatsSnapshot, FrozenController,
    FrozenDriftPilot, FrozenGuard, GiveUpReason, MitigationController, MitigationControllerConfig,
    Placement, RolloutConfig, RolloutGuard,
};
use campuslab_dataplane::{FieldExtractor, PipelineProgram};
use campuslab_ml::Classifier;
use campuslab_netsim::{
    Campus, Commands, Dir, DropReason, LinkId, NetStats, Network, NodeId, Packet,
    SimDuration, SimHooks, SimTime,
};
use campuslab_resolver::{ResolverActor, ResolverService};
use std::net::Ipv4Addr;

/// Why a stack (a session, a plaza tenant) could not be frozen or thawed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreezeError {
    /// The stack captures at the border: the monitor's mid-run state
    /// (flow table, DNS extractor, RTT estimator) is deliberately not
    /// checkpointable, so capture runs restart instead of resuming.
    CaptureMonitor,
    /// The stack hosts the resolver actor, whose cache and in-flight
    /// lookups have no frozen mirror: a checkpoint would silently drop
    /// them.
    ResolverActor,
    /// The frozen image's member shape disagrees with the stack it is
    /// being applied to, one of its metric sinks does not fit the schema
    /// it would be thawed into, or its simulator image is of another
    /// topology or seed — the arguments (or the build) that made the
    /// session are not the ones that produced the image.
    JobMismatch,
}

impl std::fmt::Display for FreezeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FreezeError::CaptureMonitor => {
                "capture runs are not checkpointable (border monitor state)"
            }
            FreezeError::ResolverActor => {
                "resolver runs are not checkpointable (resolver cache and lookups)"
            }
            FreezeError::JobMismatch => "checkpoint image does not match this session's build",
        })
    }
}

impl std::error::Error for FreezeError {}

/// The hook stack of one run. Members are optional and always fire in
/// this order: border monitor (capture must observe traffic before any
/// reaction lands this event), rollout guard (mirroring must see traffic
/// the way the bank does), resolver actor (service), mitigation
/// controller (defense reaction), drift pilot (feature ingest). After the
/// members, `Stack::sync` moves evidence between them.
#[derive(Default)]
pub struct Stack {
    pub monitor: Option<BorderTapHooks>,
    pub guard: Option<RolloutGuard>,
    pub resolver: Option<ResolverActor>,
    pub controller: Option<MitigationController>,
    pub pilot: Option<DriftPilot>,
    // Crate-visible so in-crate callers can build a stack with
    // `..Stack::default()`.
    pub(crate) seen: SyncCursors,
    pub(crate) surfaced_giveups: u64,
}

/// The evidence-sync cursors: how much of the controller's episode and
/// give-up logs the guard has been fed, and how much of the guard's
/// decision log the pilot has. They are not in the checkpoint: an
/// evidence pass follows every hook, so at a barrier each cursor sits at
/// the end of the log it reads (`Stack::synced`), and a thaw derives
/// them from the thawed logs. A restored stack therefore neither replays
/// controller episodes the guard already counted nor re-delivers guard
/// verdicts the pilot already acted on, and no image can point a cursor
/// past its log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncCursors {
    pub ctl_events: usize,
    pub ctl_giveups: usize,
    pub guard_events: usize,
}

/// Checkpoint image of a [`Stack`]: each control layer's frozen state.
/// The evidence-sync cursors between them are derived at thaw
/// ([`SyncCursors`]). Field order is the checkpoint's wire order (PHNX
/// payloads are positional).
#[derive(Clone, serde::Serialize, serde::Deserialize)]
pub struct FrozenStack {
    pub guard: Option<FrozenGuard>,
    pub controller: Option<FrozenController>,
    pub pilot: Option<FrozenDriftPilot>,
}

/// Fire one hook on every present member in stack order, then sync.
macro_rules! fan_out {
    ($stack:ident . $hook:ident ( $($arg:expr),* )) => {{
        if let Some(m) = &mut $stack.monitor {
            m.$hook($($arg),*);
        }
        if let Some(m) = &mut $stack.guard {
            m.$hook($($arg),*);
        }
        if let Some(m) = &mut $stack.resolver {
            m.$hook($($arg),*);
        }
        if let Some(m) = &mut $stack.controller {
            m.$hook($($arg),*);
        }
        if let Some(m) = &mut $stack.pilot {
            m.$hook($($arg),*);
        }
        $stack.sync();
    }};
}

impl Stack {
    /// Resolver give-ups forwarded to the guard so far.
    pub fn surfaced_giveups(&self) -> u64 {
        self.surfaced_giveups
    }

    /// One evidence pass after each hook. Controller episodes reach the
    /// guard as SLO evidence: landed installs become latency samples
    /// against the TTM budget, give-ups become rollback-eligible failures
    /// (never silently dropped). Every client the resolver abandoned
    /// reaches the guard through the same give-up channel. Guard verdicts
    /// then reach the pilot, so they land before it decides what to queue
    /// next.
    fn sync(&mut self) {
        if let Some(guard) = &mut self.guard {
            if let Some(ctl) = &self.controller {
                for e in &ctl.events[self.seen.ctl_events..] {
                    let ttm_ms = (e.installed_at - e.detected_at).as_nanos() / 1_000_000;
                    guard.record_ttm_sample(ttm_ms);
                }
                self.seen.ctl_events = ctl.events.len();
                for g in &ctl.giveups[self.seen.ctl_giveups..] {
                    guard.record_giveup(g.reason);
                }
                self.seen.ctl_giveups = ctl.giveups.len();
            }
            if let Some(resolver) = &mut self.resolver {
                for _giveup in resolver.service_mut().take_giveups() {
                    self.surfaced_giveups += 1;
                    guard.record_giveup(GiveUpReason::ServiceFailure);
                }
            }
        }
        self.forward_guard_events();
    }

    /// The cursors an evidence pass leaves behind: each at the end of the
    /// log it reads when the member it feeds is present, else 0.
    fn synced(&self) -> SyncCursors {
        let ctl = self.controller.as_ref().filter(|_| self.guard.is_some());
        let guard = self.guard.as_ref().filter(|_| self.pilot.is_some());
        SyncCursors {
            ctl_events: ctl.map_or(0, |c| c.events.len()),
            ctl_giveups: ctl.map_or(0, |c| c.giveups.len()),
            guard_events: guard.map_or(0, |g| g.events.len()),
        }
    }

    fn forward_guard_events(&mut self) {
        if let (Some(guard), Some(pilot)) = (&self.guard, &mut self.pilot) {
            for e in &guard.events[self.seen.guard_events..] {
                pilot.on_guard_event(e);
            }
            self.seen.guard_events = guard.events.len();
        }
    }

    /// Submit the pilot's queued candidates — on timer events only, so a
    /// candidate refused while the guard is busy retries at timer cadence
    /// (a handful per sim second) instead of on every packet, which would
    /// flood the decision log with rejections. Candidates are produced by
    /// the pilot's own window timer, so submission latency is zero; the
    /// drain runs once, never to quiescence, because a refused candidate
    /// re-queues itself and a loop would spin.
    fn drain_candidates(&mut self, now: SimTime, cmds: &mut Commands) {
        if let (Some(guard), Some(pilot)) = (&mut self.guard, &mut self.pilot) {
            for program in pilot.take_candidates() {
                match guard.submit_candidate(now, program.clone(), cmds) {
                    Ok(version) => pilot.on_guard_accepted(&version),
                    Err(_) => pilot.on_guard_refused(program),
                }
            }
        }
        // The submissions themselves appended Submitted/Rejected events.
        self.forward_guard_events();
    }

    fn checkpointable(&self) -> Result<(), FreezeError> {
        if self.monitor.is_some() {
            return Err(FreezeError::CaptureMonitor);
        }
        if self.resolver.is_some() {
            return Err(FreezeError::ResolverActor);
        }
        Ok(())
    }

    /// Snapshot the control layers' dynamic state. Stacks holding a
    /// border monitor or a resolver actor are refused with a typed error:
    /// those members have no frozen mirror.
    pub fn freeze(&self) -> Result<FrozenStack, FreezeError> {
        self.checkpointable()?;
        debug_assert_eq!(self.seen, self.synced(), "a freeze follows an evidence pass");
        Ok(FrozenStack {
            guard: self.guard.as_ref().map(RolloutGuard::freeze),
            controller: self.controller.as_ref().map(MitigationController::freeze),
            pilot: self.pilot.as_ref().map(DriftPilot::freeze),
        })
    }

    /// Whether `frozen` can be thawed into this stack: the stack is
    /// checkpointable, `frozen` has its member shape, and every metric
    /// sink in it fits the schema it would be thawed into.
    fn accepts(&self, frozen: &FrozenStack) -> Result<(), FreezeError> {
        self.checkpointable()?;
        fn both<M, F>(
            member: &Option<M>,
            image: &Option<F>,
            fits: impl Fn(&M, &F) -> bool,
        ) -> bool {
            match (member, image) {
                (Some(m), Some(f)) => fits(m, f),
                (None, None) => true,
                _ => false,
            }
        }
        let fits = both(&self.guard, &frozen.guard, |g, f| g.obs.fits(&f.sink))
            && both(&self.controller, &frozen.controller, MitigationController::accepts)
            && both(&self.pilot, &frozen.pilot, |p, f| p.obs.fits(&f.sink));
        fits.then_some(()).ok_or(FreezeError::JobMismatch)
    }

    /// Apply a frozen snapshot onto a freshly built stack (same configs,
    /// same bank handle), then derive the evidence-sync cursors from the
    /// thawed logs. An image whose member shape disagrees with this
    /// stack, or that carries a metric sink of the wrong shape, is refused
    /// before anything is applied.
    pub fn thaw_state(&mut self, frozen: FrozenStack) -> Result<(), FreezeError> {
        self.accepts(&frozen)?;
        let misfit = |_| FreezeError::JobMismatch;
        if let (Some(guard), Some(f)) = (&mut self.guard, frozen.guard) {
            guard.thaw_state(f).map_err(misfit)?;
        }
        if let (Some(controller), Some(f)) = (&mut self.controller, frozen.controller) {
            controller.thaw_state(f).map_err(misfit)?;
        }
        if let (Some(pilot), Some(f)) = (&mut self.pilot, frozen.pilot) {
            pilot.thaw_state(f).map_err(misfit)?;
        }
        self.seen = self.synced();
        Ok(())
    }
}

impl SimHooks for Stack {
    fn on_tap(&mut self, now: SimTime, link: LinkId, dir: Dir, packet: &Packet, cmds: &mut Commands) {
        fan_out!(self.on_tap(now, link, dir, packet, cmds));
    }

    fn on_deliver(
        &mut self,
        now: SimTime,
        node: NodeId,
        packet: &Packet,
        latency: SimDuration,
        cmds: &mut Commands,
    ) {
        fan_out!(self.on_deliver(now, node, packet, latency, cmds));
    }

    fn on_drop(&mut self, now: SimTime, reason: DropReason, packet: &Packet, cmds: &mut Commands) {
        fan_out!(self.on_drop(now, reason, packet, cmds));
    }

    fn on_timer(&mut self, now: SimTime, token: u64, cmds: &mut Commands) {
        fan_out!(self.on_timer(now, token, cmds));
        self.drain_candidates(now, cmds);
    }

    fn is_null(&self) -> bool {
        self.monitor.is_none()
            && self.guard.is_none()
            && self.resolver.is_none()
            && self.controller.is_none()
            && self.pilot.is_none()
    }
}

/// The guard member's knobs.
pub struct GuardSpec {
    /// Consecutive healthy SLO windows that promote a candidate one stage.
    pub promote_after: u32,
    /// Fraction of access switches whose hosts form the canary cohort.
    pub canary_fraction: f64,
    /// Candidates submitted to the guard at scheduled sim times.
    pub submissions: Vec<(SimTime, PipelineProgram)>,
}

/// Which members a session's stack carries.
#[derive(Default)]
pub struct Members {
    /// Capture at the border (makes the session non-checkpointable).
    pub monitor: bool,
    /// Supervise deployments with a rollout guard; the session's program
    /// is its known-good.
    pub guard: Option<GuardSpec>,
    /// Serve port 53 at the campus DNS node (makes the session
    /// non-checkpointable).
    pub resolver: bool,
    /// Defend with a mitigation controller driven by this window model.
    /// Without one nothing reacts online; under [`Placement::Switch`] the
    /// session's program is then in the switch before the run starts.
    pub window_model: Option<Box<dyn Classifier + Send>>,
    /// Retrain on fresh tap windows: a pilot built by
    /// [`DriftPilot::new`] on the border link, started from the
    /// session program's fingerprint.
    pub pilot: bool,
}

/// A run that can stop at any barrier, checkpoint, resume and tear down.
/// Building one runs nothing. Two sessions built from equal arguments are
/// interchangeable restore targets: everything not in the checkpoint is a
/// deterministic function of the arguments.
pub struct Session {
    label: String,
    net: Network,
    /// The hook stack; callers read their outcome extras off its members.
    pub stack: Stack,
    handle: BankHandle,
    victim: Option<Ipv4Addr>,
    attack_start: Option<SimTime>,
    deadline: Option<SimTime>,
}

impl Session {
    /// Build the campus, schedule, chaos plan, filter bank and the chosen
    /// stack members. `label` names the run-level trace span; `program` is
    /// the deployed lineage (known-good for the guard, mitigation program
    /// for the controller); `deadline` is the hard stop, `None` running
    /// until the event queue drains.
    pub fn new(
        label: impl Into<String>,
        scenario: &Scenario,
        program: PipelineProgram,
        road: &RoadTestConfig,
        members: Members,
        deadline: Option<SimTime>,
    ) -> Self {
        let campus = Campus::build(scenario.campus.clone());
        let (mut schedule, victim, attack_start) = build_schedule(&campus, scenario);
        let tap = campus.border_link;
        let cohort = members.guard.as_ref().map(|g| canary_hosts(&campus, g.canary_fraction));
        let resolver = members.resolver.then(|| {
            let node = campus.servers.dns;
            ResolverActor::new(node, campus.addr_of(node), ResolverService::campus_default())
        });
        let mut net = campus.net;
        schedule.apply_to(&mut net);
        if let Some(chaos) = &road.chaos {
            chaos.apply_to(&mut net);
        }

        let extractor = FieldExtractor::new(scenario.campus.campus_prefix());
        let (bank, handle) = BankFilter::new(extractor.clone());
        net.install_filter(campus.border, bank);

        let monitor = members.monitor.then(|| BorderTapHooks::new(tap, scenario.monitor.clone()));
        let guard = members.guard.map(|spec| {
            RolloutGuard::new(
                RolloutConfig {
                    tap,
                    extractor,
                    promote_after: spec.promote_after,
                    canary_hosts: cohort.unwrap_or_default(),
                    tap_blackouts: road.tap_blackouts.clone(),
                    submissions: spec.submissions,
                },
                program.clone(),
                handle.clone(),
            )
        });
        let controller = members.window_model.map(|model| {
            MitigationController::new(
                MitigationControllerConfig {
                    tap,
                    placement: road.placement,
                    gate: road.gate,
                    window_ns: road.window_ns,
                    min_packets: road.min_packets,
                    program: program.clone(),
                    install: road.install.clone(),
                    tap_blackouts: road.tap_blackouts.clone(),
                },
                model,
                handle.clone(),
            )
        });
        let pilot = members
            .pilot
            .then(|| DriftPilot::new(tap, program.fingerprint()));
        if controller.is_none() && road.placement == Placement::Switch {
            // Compiled rules are in the switch before the attack exists.
            handle.add_program(None, program);
        }

        Session {
            label: label.into(),
            net,
            stack: Stack { monitor, guard, resolver, controller, pilot, ..Stack::default() },
            handle,
            victim,
            attack_start,
            deadline,
        }
    }

    /// The session's hard stop, when it has one.
    pub fn deadline(&self) -> Option<SimTime> {
        self.deadline
    }

    /// Process every event up to `min(until, deadline)`. Returning from
    /// this call is a quiescent barrier: no event is mid-dispatch, so a
    /// checkpoint taken here is consistent.
    pub fn run_until(&mut self, until: SimTime) {
        let cap = self.deadline.map_or(until, |d| d.min(until));
        self.net.run(&mut self.stack, Some(cap));
    }

    /// Process every remaining event up to the deadline (or until the
    /// queue drains when there is none). Window-by-window driving equals
    /// this single call: the event queue carries over between caps.
    pub fn run_to_end(&mut self) {
        self.net.run(&mut self.stack, self.deadline);
    }

    /// Snapshot the full dynamic state at a quiescent barrier: simulator,
    /// stack, and the shared filter bank.
    pub fn checkpoint(&self) -> Result<PhoenixCheckpoint, FreezeError> {
        let hooks = self.stack.freeze()?;
        Ok(PhoenixCheckpoint { net: self.net.checkpoint(), hooks, bank: self.handle.freeze() })
    }

    /// Load a checkpoint into this (freshly built, not yet run) session.
    /// The session must have been built from the same arguments as the
    /// one that took the checkpoint — a member-shape mismatch, a metric
    /// sink that does not fit its schema, or a simulator image from
    /// another topology or seed ([`Network::accepts`]) is refused with the
    /// session left as it was; hook configs are the caller's contract.
    /// The stack image is checked, the network restored (it checks its
    /// own image, once), and only then is the stack applied.
    pub fn restore(&mut self, cp: PhoenixCheckpoint) -> Result<(), FreezeError> {
        self.stack.accepts(&cp.hooks)?;
        self.net.restore(cp.net).map_err(|_| FreezeError::JobMismatch)?;
        self.stack.thaw_state(cp.hooks)?;
        self.handle.thaw(cp.bank);
        Ok(())
    }

    /// Tear the session down where it stands (run nothing further): the
    /// Observatory bundle of every member, the run trace, and the stack
    /// itself for composition-specific extras.
    ///
    /// The run-level span covers the whole simulation in sim-time; member
    /// spans (controller episodes, guard stages, pilot retrains) are
    /// merged in after it in stack order, so span sequence numbers depend
    /// only on simulated history.
    pub fn finish(mut self) -> Finished {
        let end_ns = self.net.now().as_nanos();
        let mut obs = RunObs::net_only(self.net.obs);
        obs.tracer.record(self.label, 0, end_ns);
        if let Some(m) = &mut self.stack.monitor {
            m.monitor.finish();
            obs.capture = Some(std::mem::take(&mut m.monitor.obs));
        }
        if let Some(c) = &mut self.stack.controller {
            let (cobs, dobs) = c.take_obs();
            obs.tracer.merge_from(&cobs.tracer);
            (obs.controller, obs.detector) = (Some(cobs), Some(dobs));
        }
        if let Some(g) = &mut self.stack.guard {
            let robs = g.take_obs();
            obs.tracer.merge_from(&robs.tracer);
            obs.rollout = Some(robs);
        }
        if let Some(p) = &mut self.stack.pilot {
            let dobs = p.take_obs();
            obs.tracer.merge_from(&dobs.tracer);
            obs.drift = Some(dobs);
        }
        obs.resolver = self.stack.resolver.as_ref().map(|r| r.service().obs().clone());
        let filter = self.handle.stats();
        obs.filter = Some(filter);
        Finished {
            net: self.net.stats,
            filter,
            victim: self.victim,
            attack_start: self.attack_start,
            obs,
            stack: self.stack,
        }
    }
}

/// What every finished session carries out.
pub struct Finished {
    pub net: NetStats,
    pub filter: FastLoopStatsSnapshot,
    /// The attack victim's address, when the scenario has one.
    pub victim: Option<Ipv4Addr>,
    /// When the (first) attack campaign started.
    pub attack_start: Option<SimTime>,
    /// Observatory bundle of every member that took part.
    pub obs: RunObs,
    /// The stack after the run, telemetry moved out: event logs,
    /// episodes, resolver windows and capture records are still on it.
    pub stack: Stack,
}

impl Finished {
    /// Guard decisions, pilot retrains and drift episodes merged into one
    /// sim-ordered log, one line per entry — the story an operator reads
    /// after an incident. Members the stack did not carry contribute
    /// nothing.
    pub fn timeline(&self) -> String {
        let events = self.stack.guard.as_ref().map_or(&[][..], |g| &g.events);
        let (retrains, episodes) =
            self.stack.pilot.as_ref().map_or((&[][..], &[][..]), |p| (&p.retrains, &p.episodes));
        let mut lines: Vec<(SimTime, String)> = Vec::new();
        for r in retrains {
            lines.push((
                r.at,
                format!(
                    "{} retrain[{:?}] records={} fp={:016x} -> {:?}\n",
                    r.at, r.trigger, r.records, r.program_fingerprint, r.outcome
                ),
            ));
        }
        for e in events {
            lines.push((e.at, format!("{} {} {:?}\n", e.at, e.program, e.kind)));
        }
        for ep in episodes {
            lines.push((ep.onset, format!("{} drift[#{}] onset\n", ep.onset, ep.ordinal)));
            if let Some(m) = ep.mitigated {
                lines.push((m, format!("{} drift[#{}] mitigated\n", m, ep.ordinal)));
            }
        }
        lines.sort_by_key(|(at, _)| *at);
        lines.into_iter().map(|(_, l)| l).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rollout::{guarded_road_test, GuardedRunConfig};
    use campuslab_capture::MonitorConfig;
    use campuslab_control::{
        InstallGiveUp, MitigationEvent, RolloutEvent, RolloutEventKind, SloViolation,
    };
    use campuslab_dataplane::ProgramVersion;
    use campuslab_ml::{Dataset, DecisionTree, TreeConfig};
    use campuslab_resolver::ResolverService;
    use std::net::IpAddr;

    const VICTIM: IpAddr = IpAddr::V4(Ipv4Addr::new(10, 1, 0, 10));

    /// Hand-built members over a throwaway bank: the evidence pass needs
    /// no simulation to be exercised. `members` is in stack order.
    fn stack_of([monitor, guard, resolver, controller, pilot]: [bool; 5]) -> Stack {
        let tap = LinkId(0);
        let extractor = FieldExtractor::new(Scenario::small().campus.campus_prefix());
        let (_bank, handle) = BankFilter::new(extractor.clone());
        let program = PipelineProgram::new("known-good", vec![]);
        let road = RoadTestConfig::default();
        Stack {
            monitor: monitor.then(|| BorderTapHooks::new(tap, MonitorConfig::default())),
            guard: guard.then(|| {
                RolloutGuard::new(
                    RolloutConfig {
                        tap,
                        extractor,
                        promote_after: campuslab_control::PROMOTE_AFTER,
                        canary_hosts: Vec::new(),
                        tap_blackouts: Vec::new(),
                        submissions: Vec::new(),
                    },
                    program.clone(),
                    handle.clone(),
                )
            }),
            resolver: resolver.then(|| {
                ResolverActor::new(NodeId(0), Ipv4Addr::new(10, 1, 255, 53), ResolverService::campus_default())
            }),
            controller: controller.then(|| {
                let data = Dataset::new(vec![vec![0.0], vec![1.0]], vec![0, 1], vec!["f".into()]);
                MitigationController::new(
                    MitigationControllerConfig {
                        tap,
                        placement: road.placement,
                        gate: road.gate,
                        window_ns: road.window_ns,
                        min_packets: road.min_packets,
                        program: program.clone(),
                        install: road.install.clone(),
                        tap_blackouts: Vec::new(),
                    },
                    Box::new(DecisionTree::fit(&data, TreeConfig::shallow(1))),
                    handle.clone(),
                )
            }),
            pilot: pilot.then(|| DriftPilot::new(tap, program.fingerprint())),
            ..Stack::default()
        }
    }

    /// Append `episodes` landed installs and `giveups` abandoned ones to
    /// the controller's log, and `verdicts` vetoes of `candidate` to the
    /// guard's, the way their own hooks would.
    fn feed(stack: &mut Stack, candidate: &ProgramVersion, episodes: usize, giveups: usize, verdicts: usize) {
        if let Some(c) = &mut stack.controller {
            for _ in 0..episodes {
                c.events.push(MitigationEvent {
                    victim: VICTIM,
                    detected_at: SimTime::from_secs(1),
                    installed_at: SimTime::from_millis(1_040),
                    confidence: 0.95,
                    attempts: 1,
                });
            }
            for _ in 0..giveups {
                c.giveups.push(InstallGiveUp {
                    victim: VICTIM,
                    detected_at: SimTime::from_secs(1),
                    gave_up_at: SimTime::from_secs(2),
                    attempts: 4,
                    reason: GiveUpReason::Exhausted,
                });
            }
        }
        if let Some(g) = &mut stack.guard {
            for _ in 0..verdicts {
                g.events.push(RolloutEvent {
                    at: SimTime::from_secs(2),
                    program: candidate.clone(),
                    kind: RolloutEventKind::Vetoed(SloViolation::FalsePositiveRate),
                });
            }
        }
    }

    /// Every composition's member set: each controller episode, give-up
    /// and guard verdict is forwarded exactly once — across repeated
    /// passes, and across a freeze → fresh stack → thaw in the middle.
    #[test]
    fn evidence_is_forwarded_exactly_once_for_every_member_set() {
        // Stack order: monitor, guard, resolver, controller, pilot.
        const COMPOSITIONS: [(&str, [bool; 5]); 7] = [
            ("road_test[Switch] / plaza SloProbe", [false, false, false, false, false]),
            ("road_test[Controller] / plaza Defend", [false, false, false, true, false]),
            ("guarded_road_test / plaza Guarded", [false, true, false, true, false]),
            ("drift_road_test", [false, true, false, true, true]),
            ("resolver_run undefended", [false, true, true, false, false]),
            ("resolver_run defended", [false, true, true, true, false]),
            ("plaza Guarded + capture", [true, true, false, true, false]),
        ];
        let candidate = ProgramVersion { name: "candidate".into(), fingerprint: 0xC0FFEE };
        for (name, members) in COMPOSITIONS {
            let [monitor, guard, resolver, controller, pilot] = members;
            let mut stack = stack_of(members);
            if let Some(p) = &mut stack.pilot {
                p.on_guard_accepted(&candidate);
            }
            feed(&mut stack, &candidate, 2, 1, 1);
            stack.sync();
            stack.sync(); // nothing new: a second pass forwards nothing

            let mut stack = match stack.freeze() {
                Ok(frozen) => {
                    assert!(!monitor && !resolver, "{name}: froze an unfreezable member");
                    // Through the checkpoint's binary form: decode then
                    // re-encode must give back every byte.
                    let bytes = serde::bin::to_vec(&frozen);
                    let back: FrozenStack = serde::bin::from_slice(&bytes).unwrap();
                    assert_eq!(serde::bin::to_vec(&back), bytes, "{name}: binary fixed point");
                    let mut fresh = stack_of(members);
                    fresh.thaw_state(back).unwrap();
                    fresh
                }
                Err(e) => {
                    let want = if monitor {
                        FreezeError::CaptureMonitor
                    } else {
                        FreezeError::ResolverActor
                    };
                    assert_eq!(e, want, "{name}");
                    stack
                }
            };
            feed(&mut stack, &candidate, 1, 2, 1);
            stack.sync();

            if let Some(g) = &mut stack.guard {
                let (samples, giveups) = if controller { (3, 3) } else { (0, 0) };
                assert_eq!(g.freeze().state.window_ttm_ms, vec![40; samples], "{name}: ttm samples");
                assert_eq!(g.obs.giveups_observed(), giveups, "{name}: give-ups");
            }
            if let Some(p) = &stack.pilot {
                assert_eq!(p.obs.vetoed(), if guard { 2 } else { 0 }, "{name}: verdicts");
            }
            assert_eq!(stack.is_null(), members == [false; 5], "{name}: is_null");
            assert_eq!(pilot, stack.pilot.is_some());
        }
    }

    /// Telemetry is write-only: a drift session whose network, guard,
    /// controller and pilot sinks are all disabled makes the
    /// same decisions, moves the same packets and filters the same
    /// traffic as one that records everything.
    #[test]
    fn telemetry_is_write_only() {
        let run = |sinks: bool| {
            let mut scenario = Scenario::small();
            scenario.workload.duration = SimDuration::from_secs(5);
            let (known_good, model) = crate::fixtures::trained();
            let drift = crate::driftpilot::DriftSession::new(
                &scenario,
                known_good.clone(),
                Box::new(model.clone()),
                crate::driftpilot::DriftRunConfig { settle: SimDuration::ZERO },
            );
            let mut session: Session = drift.into();
            session.net.obs.sink.set_enabled(sinks);
            let stack = &mut session.stack;
            stack.guard.as_mut().unwrap().obs.sink.set_enabled(sinks);
            stack.controller.as_mut().unwrap().obs.sink.set_enabled(sinks);
            stack.pilot.as_mut().unwrap().obs.sink.set_enabled(sinks);
            session.run_to_end();
            let done = session.finish();
            let pilot_records = done.obs.drift.as_ref().unwrap().records();
            (done.timeline(), done.net, serde::bin::to_vec(&done.filter), pilot_records)
        };
        let (on, off) = (run(true), run(false));
        assert!(on.3 > 0 && off.3 == 0, "the sinks were not switched: {} / {}", on.3, off.3);
        assert!(!on.0.is_empty(), "the run decided nothing");
        assert_eq!(off.0, on.0, "timeline");
        assert_eq!(off.1, on.1, "NetStats");
        assert_eq!(off.2, on.2, "filter snapshot");
    }

    /// A zero-length detector window fails when the session is built, not
    /// at the first tapped record.
    #[test]
    #[should_panic(expected = "window_ns = 0")]
    fn zero_length_window_fails_the_build() {
        let data = Dataset::new(vec![vec![0.0], vec![1.0]], vec![0, 1], vec!["f".into()]);
        let members = Members {
            window_model: Some(Box::new(DecisionTree::fit(&data, TreeConfig::shallow(1)))),
            ..Members::default()
        };
        let road = RoadTestConfig { window_ns: 0, ..RoadTestConfig::default() };
        let program = PipelineProgram::new("known-good", vec![]);
        Session::new("zero-window", &Scenario::small(), program, &road, members, None);
    }

    #[test]
    fn thaw_refuses_a_member_shape_mismatch() {
        let guarded = [false, true, false, true, false];
        let image = stack_of(guarded).freeze().unwrap();
        for other in [
            [false, false, false, true, false],
            [false, true, false, true, true],
            [false, false, false, false, false],
        ] {
            let err = stack_of(other).thaw_state(image.clone()).err();
            assert_eq!(err, Some(FreezeError::JobMismatch), "{other:?}");
        }
        assert!(stack_of(guarded).thaw_state(image).is_ok());
    }

    /// Monitor, controller and pilot driven by one simulation: each sees
    /// the tapped packet, and the pilot's window timer — armed from inside
    /// its own tap hook — comes back through the stack's timer fan-out.
    #[test]
    fn every_member_sees_every_event() {
        use campuslab_netsim::prelude::*;
        let campus = Campus::build(CampusConfig {
            dist_count: 1,
            access_per_dist: 1,
            hosts_per_access: 2,
            external_hosts: 2,
            ..CampusConfig::default()
        });
        let src = campus.hosts[0];
        let src_ip = campus.addr_of(src);
        let ext_ip = campus.addr_of(campus.external[0]);
        let tap = campus.border_link;
        let mut net = campus.net;
        let mut b = PacketBuilder::new();
        net.inject(
            SimTime::ZERO,
            src,
            b.udp_v4(src_ip, ext_ip, 1, 2, Payload::Synthetic(10), 64, GroundTruth::default()),
        );
        let mut stack = stack_of([true, false, false, true, true]);
        assert_eq!(tap, LinkId(0), "stack_of taps link 0");
        net.run(&mut stack, Some(SimTime::from_secs(2)));
        assert_eq!(stack.monitor.as_ref().unwrap().monitor.stats.observed, 1);
        assert_eq!(stack.controller.as_mut().unwrap().take_obs().1.observed(), 1);
        let pilot = stack.pilot.as_ref().unwrap();
        assert_eq!(pilot.obs.records(), 1);
        assert!(pilot.obs.windows() >= 1, "the pilot's window timer never fired");
    }

    /// The knobs `Session` applies by construction: a chaos flap of the
    /// border link reaches the guarded and resolver compositions, not just
    /// the plain road test.
    #[test]
    fn border_outage_reaches_guarded_and_resolver_runs() {
        let (known_good, model) = crate::fixtures::trained().clone();
        let road = |scenario: &Scenario| {
            let campus = Campus::build(scenario.campus.clone());
            let mut chaos = campuslab_netsim::ChaosPlan::new();
            let span = scenario.workload.duration.as_secs_f64();
            let at = |frac: f64| SimTime::ZERO + SimDuration::from_secs_f64(span * frac);
            chaos.link_flap(campus.border_link, at(0.3), at(0.5));
            RoadTestConfig { chaos: Some(chaos), ..RoadTestConfig::default() }
        };
        let small = Scenario::small();
        let guarded = guarded_road_test(
            &small,
            known_good,
            Box::new(model),
            GuardedRunConfig { road: road(&small), ..GuardedRunConfig::default() },
        );
        assert!(guarded.net.dropped_fault > 0, "guarded run ignored the flap");
        let lab = Scenario::resolver_lab();
        let undefended = PipelineProgram::new("resolver-undefended", vec![]);
        let members = Members { resolver: true, ..Members::default() };
        let mut resolver = Session::new("resolverlab", &lab, undefended, &road(&lab), members, None);
        resolver.run_to_end();
        assert!(resolver.finish().net.dropped_fault > 0, "resolver run ignored the flap");
    }
}
