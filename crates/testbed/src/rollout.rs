//! Guarded road tests (experiment E15): the rollout guard supervises a
//! candidate program's shadow → canary → full promotion on a live campus
//! while the mitigation controller defends it, and the two hooks share
//! one simulation. The guard reads the controller's latency samples and
//! install give-ups each event, so a flaky control channel is
//! rollback-eligible evidence, not an invisible failure.

use crate::observe::RunObs;
use crate::roadtest::RoadTestConfig;
use crate::scenario::Scenario;
use crate::session::{timeline, GuardSpec, Members, Session};
use campuslab_control::{RolloutEvent, RolloutEventKind, RolloutStage, SloPolicy};
use campuslab_dataplane::PipelineProgram;
use campuslab_ml::Classifier;
use campuslab_netsim::{Campus, SimDuration, SimTime};
use std::net::IpAddr;

/// Parameters of a guarded road test, over and above the road-test ones.
pub struct GuardedRunConfig {
    /// Base road-test knobs (placement, chaos, blackouts, install channel).
    pub road: RoadTestConfig,
    /// SLO windows, gates and hysteresis for the guard.
    pub slo: SloPolicy,
    /// Fraction of access switches whose hosts form the canary cohort.
    pub canary_fraction: f64,
    /// Candidates submitted to the guard at scheduled sim times.
    pub submissions: Vec<(SimTime, PipelineProgram)>,
    /// Hard stop for the simulation. `None` (the default) runs until the
    /// event queue drains; a plaza slice or an operator-imposed budget
    /// caps the run, possibly mid-ladder — the guard simply freezes in
    /// whatever stage the deadline caught it.
    pub deadline: Option<SimTime>,
}

impl Default for GuardedRunConfig {
    fn default() -> Self {
        GuardedRunConfig {
            road: RoadTestConfig::default(),
            slo: SloPolicy::default(),
            canary_fraction: 0.25,
            submissions: Vec::new(),
            deadline: None,
        }
    }
}

/// The hosts behind the first `ceil(fraction * n_access)` access switches,
/// in topology order. `Campus::build` pushes hosts grouped by access
/// switch, so the chunks below are exactly the per-switch cohorts.
pub fn canary_hosts(campus: &Campus, fraction: f64) -> Vec<IpAddr> {
    let per_access = campus.config.hosts_per_access.max(1);
    let n_access = campus.config.dist_count * campus.config.access_per_dist;
    let take = ((fraction.clamp(0.0, 1.0) * n_access as f64).ceil() as usize).min(n_access);
    campus
        .hosts
        .chunks(per_access)
        .take(take)
        .flatten()
        .map(|&h| IpAddr::V4(campus.addr_of(h)))
        .collect()
}

/// What a guarded road test measured.
pub struct GuardedRunOutcome {
    /// The guard's decision log, in sim order.
    pub events: Vec<RolloutEvent>,
    /// Stage when the run ended.
    pub final_stage: RolloutStage,
    /// Known-good versions committed by the end of the run.
    pub registry_len: usize,
    /// Rollback → first healthy window, when both happened.
    pub recovery_time: Option<SimDuration>,
    pub filter: campuslab_control::FastLoopStatsSnapshot,
    pub net: campuslab_netsim::NetStats,
    /// Observatory bundle, rollout section included.
    pub obs: RunObs,
}

impl GuardedRunOutcome {
    /// The decision log as one line per event (sim-time stamped) — the
    /// deployment timeline an operator reads after an incident.
    pub fn timeline(&self) -> String {
        timeline(&self.events, &[], &[])
    }
}

/// Run a guarded road test: the scenario plays out while the controller
/// defends the campus and the guard walks each submitted candidate
/// through shadow → canary → full, vetoing or rolling back on SLO
/// violations.
pub fn guarded_road_test(
    scenario: &Scenario,
    known_good: PipelineProgram,
    window_model: Box<dyn Classifier + Send>,
    cfg: GuardedRunConfig,
) -> GuardedRunOutcome {
    let mut session = session(scenario, known_good, window_model, cfg);
    session.run_to_end();
    let done = session.finish();
    let guard = done.stack.guard.expect("guarded stack has a guard");

    let rolled_back_at = guard.events.iter().find_map(|e| {
        matches!(e.kind, RolloutEventKind::RolledBack(_)).then_some(e.at)
    });
    let recovered_at = guard.events.iter().find_map(|e| {
        matches!(e.kind, RolloutEventKind::Recovered).then_some(e.at)
    });
    let recovery_time = match (rolled_back_at, recovered_at) {
        (Some(r), Some(h)) if h >= r => Some(h - r),
        _ => None,
    };

    GuardedRunOutcome {
        final_stage: guard.stage(),
        registry_len: guard.registry().len(),
        events: guard.events,
        recovery_time,
        filter: done.filter,
        net: done.net,
        obs: done.obs,
    }
}

/// The guard + controller [`Session`] a guarded road test runs.
fn session(
    scenario: &Scenario,
    known_good: PipelineProgram,
    window_model: Box<dyn Classifier + Send>,
    cfg: GuardedRunConfig,
) -> Session {
    Session::new(
        "guarded-roadtest",
        scenario,
        known_good,
        &cfg.road,
        Members {
            guard: Some(GuardSpec {
                slo: cfg.slo,
                canary_fraction: cfg.canary_fraction,
                submissions: cfg.submissions,
            }),
            window_model: Some(window_model),
            ..Members::default()
        },
        cfg.deadline,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use campuslab_control::{CircuitBreakerPolicy, InstallPolicy, SloViolation};
    use campuslab_dataplane::{Action, TableEntry, TernaryMatch, FIELD_ORDER};
    use campuslab_ml::DecisionTree;

    fn trained() -> (PipelineProgram, DecisionTree) {
        crate::fixtures::trained().clone()
    }

    /// Grossly over-broad: a wildcard drop rule — every packet, benign or
    /// not, matches it. The live campus is mostly TCP, so anything less
    /// (e.g. a drop-all-UDP rule) can sneak under the FP gate.
    fn drop_everything() -> PipelineProgram {
        let matches = [TernaryMatch::ANY; FIELD_ORDER.len()];
        PipelineProgram::new(
            "overbroad-wildcard",
            vec![TableEntry { matches, action: Action::Drop, priority: 9, confidence: 0.5 }],
        )
    }

    #[test]
    fn canary_cohort_follows_access_switch_grouping() {
        let campus = Campus::build(Scenario::small().campus);
        // Scenario::small: 2 dists x 2 access x 4 hosts = 4 access switches.
        let quarter = canary_hosts(&campus, 0.25);
        assert_eq!(quarter.len(), campus.config.hosts_per_access);
        let half = canary_hosts(&campus, 0.5);
        assert_eq!(half.len(), 2 * campus.config.hosts_per_access);
        assert!(half.starts_with(&quarter));
        let all = canary_hosts(&campus, 1.0);
        assert_eq!(all.len(), campus.hosts.len());
        // A sliver still canaries one full switch, never a partial one.
        assert_eq!(canary_hosts(&campus, 0.01).len(), campus.config.hosts_per_access);
    }

    #[test]
    fn shadow_vetoes_overbroad_candidate_on_a_live_campus() {
        let (known_good, model) = trained();
        let outcome = guarded_road_test(
            &Scenario::small(),
            known_good,
            Box::new(model),
            GuardedRunConfig {
                submissions: vec![(SimTime::from_secs(1), drop_everything())],
                ..GuardedRunConfig::default()
            },
        );
        assert!(
            outcome.events.iter().any(|e| matches!(
                e.kind,
                RolloutEventKind::Vetoed(SloViolation::FalsePositiveRate)
            )),
            "timeline:\n{}",
            outcome.timeline()
        );
        // Vetoed in shadow: only the known-good version was ever committed.
        assert_eq!(outcome.registry_len, 1);
        assert_eq!(outcome.final_stage, RolloutStage::Idle);
        let robs = outcome.obs.rollout.as_ref().expect("rollout obs");
        assert_eq!(robs.vetoes(), 1);
        assert!(outcome.obs.prom().contains("rollout_vetoes_total 1"));
    }

    /// Matches nothing on the live campus (dst port 9, the discard
    /// protocol): zero FP, zero benign drops — a candidate that promotes
    /// cleanly through the ladder.
    fn drop_discard_port() -> PipelineProgram {
        let mut matches = [TernaryMatch::ANY; FIELD_ORDER.len()];
        matches[2] = TernaryMatch::exact(9, 16); // FIELD_ORDER[2] = DstPort
        PipelineProgram::new(
            "noop-discard-port",
            vec![TableEntry { matches, action: Action::Drop, priority: 9, confidence: 0.99 }],
        )
    }

    #[test]
    fn deadline_mid_canary_freezes_the_ladder() {
        let (known_good, model) = trained();
        let cfg = || GuardedRunConfig {
            submissions: vec![(SimTime::from_secs(1), drop_discard_port())],
            ..GuardedRunConfig::default()
        };
        // Uncapped reference run: the clean candidate walks the full
        // ladder; note when it entered canary and when it left.
        let full = guarded_road_test(&Scenario::small(), known_good.clone(), Box::new(model.clone()), cfg());
        let canary_at = full
            .events
            .iter()
            .find(|e| e.kind == RolloutEventKind::EnteredCanary)
            .map(|e| e.at)
            .unwrap_or_else(|| panic!("no canary entry; timeline:\n{}", full.timeline()));
        let left_at = full
            .events
            .iter()
            .find(|e| e.kind == RolloutEventKind::EnteredFull)
            .map(|e| e.at)
            .unwrap_or_else(|| panic!("no full entry; timeline:\n{}", full.timeline()));
        assert!(left_at > canary_at, "canary must span a nonzero interval");
        // Capped run: stop the sim strictly inside the canary interval.
        let deadline = SimTime(canary_at.as_nanos() + (left_at.as_nanos() - canary_at.as_nanos()) / 2);
        let capped = guarded_road_test(
            &Scenario::small(),
            known_good,
            Box::new(model),
            GuardedRunConfig { deadline: Some(deadline), ..cfg() },
        );
        assert_eq!(
            capped.final_stage,
            RolloutStage::Canary,
            "deadline mid-canary must freeze the guard in canary; timeline:\n{}",
            capped.timeline()
        );
        assert!(
            !capped.events.iter().any(|e| matches!(
                e.kind,
                RolloutEventKind::EnteredFull | RolloutEventKind::Committed
            )),
            "nothing past canary may have happened"
        );
        assert_eq!(capped.registry_len, 1, "no commit under the deadline");
        assert!(
            capped.events.iter().all(|e| e.at <= deadline),
            "no guard decision may be stamped past the deadline"
        );
        // The frozen bundle still renders a coherent rollout section.
        let robs = capped.obs.rollout.as_ref().expect("rollout obs");
        assert_eq!(robs.stage(), 2, "stage gauge frozen at canary");
        assert!(capped.obs.prom().contains("rollout_stage 2"));
    }

    /// PhoenixRun over the guarded composition: kill at every boundary of
    /// a run whose clean candidate climbs the whole ladder — including the
    /// boundaries that catch the guard mid-canary — and every resumed
    /// fingerprint equals the uninterrupted run's.
    #[test]
    fn guarded_session_resumes_byte_identically_from_every_boundary() {
        use crate::phoenix::CrashCart;
        let (known_good, model) = trained();
        // Five seconds is enough for the ladder and keeps the sweep cheap.
        let mut scenario = Scenario::small();
        scenario.workload.duration = SimDuration::from_secs(5);
        let deadline = SimTime::ZERO + scenario.workload.duration;
        let cart = CrashCart::new(
            || {
                session(
                    &scenario,
                    known_good.clone(),
                    Box::new(model.clone()),
                    GuardedRunConfig {
                        submissions: vec![(SimTime::from_secs(1), drop_discard_port())],
                        deadline: Some(deadline),
                        ..GuardedRunConfig::default()
                    },
                )
            },
            SimDuration::from_secs(1),
        );
        let mut probe = cart.make_session();
        let mid_canary = cart.boundaries().into_iter().any(|t| {
            probe.run_until(t);
            probe.stack.guard.as_ref().unwrap().stage() == RolloutStage::Canary
        });
        assert!(mid_canary, "no boundary caught the guard mid-canary");
        assert_eq!(cart.sweep(), Vec::<usize>::new());
    }

    #[test]
    fn guarded_run_is_deterministic() {
        let (known_good, model) = trained();
        let run = || {
            let outcome = guarded_road_test(
                &Scenario::small(),
                known_good.clone(),
                Box::new(model.clone()),
                GuardedRunConfig {
                    road: RoadTestConfig {
                        install: InstallPolicy {
                            failure_probability: 0.5,
                            breaker: Some(CircuitBreakerPolicy::default()),
                            ..InstallPolicy::default()
                        },
                        ..RoadTestConfig::default()
                    },
                    submissions: vec![(SimTime::from_secs(1), drop_everything())],
                    ..GuardedRunConfig::default()
                },
            );
            (outcome.timeline(), outcome.obs.prom(), outcome.obs.trace_json())
        };
        assert_eq!(run(), run(), "guarded run must be bit-identical across runs");
    }
}
