//! Guarded road tests (experiment E15): the rollout guard supervises a
//! candidate program's shadow → canary → full promotion on a live campus
//! while the mitigation controller defends it, and the two hooks share
//! one simulation. The guard reads the controller's latency samples and
//! install give-ups each event, so a flaky control channel is
//! rollback-eligible evidence, not an invisible failure. A guarded run
//! returns the session's [`Finished`]: the guard on its stack carries the
//! decision log, the final stage, the registry and the recovery time.

use crate::roadtest::RoadTestConfig;
use crate::scenario::Scenario;
use crate::session::{Finished, GuardSpec, Members, Session};
use campuslab_control::PROMOTE_AFTER;
use campuslab_dataplane::PipelineProgram;
use campuslab_ml::Classifier;
use campuslab_netsim::{Campus, SimTime};
use std::net::IpAddr;

/// Fraction of access switches whose hosts form a guard's canary cohort:
/// one of the small campus's four.
pub const CANARY_FRACTION: f64 = 0.25;

/// Parameters of a guarded road test, over and above the road-test ones.
/// The guard promotes after [`PROMOTE_AFTER`] healthy windows and runs a
/// [`CANARY_FRACTION`] cohort.
#[derive(Default)]
pub struct GuardedRunConfig {
    /// Base road-test knobs (placement, chaos, blackouts, install channel).
    pub road: RoadTestConfig,
    /// Candidates submitted to the guard at scheduled sim times.
    pub submissions: Vec<(SimTime, PipelineProgram)>,
}

/// The hosts behind the first `ceil(fraction * n_access)` access switches,
/// in topology order. `Campus::build` pushes hosts grouped by access
/// switch, so the chunks below are exactly the per-switch cohorts. Panics
/// on a non-finite fraction, which would otherwise read as 0.
pub fn canary_hosts(campus: &Campus, fraction: f64) -> Vec<IpAddr> {
    assert!(fraction.is_finite(), "canary fraction {fraction} is not a finite number");
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

/// Run a guarded road test: the scenario plays out while the controller
/// defends the campus and the guard walks each submitted candidate
/// through shadow → canary → full, vetoing or rolling back on SLO
/// violations. The guard (decision log, final stage, registry, recovery
/// time) is on the returned stack. The run goes until the event queue
/// drains; a capped run is a [`Session`] built with a deadline.
pub fn guarded_road_test(
    scenario: &Scenario,
    known_good: PipelineProgram,
    window_model: Box<dyn Classifier + Send>,
    cfg: GuardedRunConfig,
) -> Finished {
    let members = guarded_members(window_model, cfg.submissions);
    let mut session =
        Session::new("guarded-roadtest", scenario, known_good, &cfg.road, members, None);
    session.run_to_end();
    session.finish()
}

/// The guard + controller members a guarded road test runs.
fn guarded_members(
    window_model: Box<dyn Classifier + Send>,
    submissions: Vec<(SimTime, PipelineProgram)>,
) -> Members {
    Members {
        guard: Some(GuardSpec {
            promote_after: PROMOTE_AFTER,
            canary_fraction: CANARY_FRACTION,
            submissions,
        }),
        window_model: Some(window_model),
        ..Members::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use campuslab_control::{InstallPolicy, RolloutEventKind, RolloutGuard, RolloutStage, SloViolation};
    use campuslab_dataplane::{Action, HeaderField, TableEntry};
    use campuslab_ml::DecisionTree;
    use campuslab_netsim::SimDuration;

    fn guard(run: &Finished) -> &RolloutGuard {
        run.stack.guard.as_ref().expect("guarded stack has a guard")
    }

    fn trained() -> (PipelineProgram, DecisionTree) {
        crate::fixtures::trained().clone()
    }

    /// A guarded road test that stops at `deadline`, possibly mid-ladder:
    /// the guard freezes in whatever stage the deadline caught it.
    fn capped(
        scenario: &Scenario,
        known_good: PipelineProgram,
        model: DecisionTree,
        submissions: Vec<(SimTime, PipelineProgram)>,
        deadline: SimTime,
    ) -> Session {
        let members = guarded_members(Box::new(model), submissions);
        let road = RoadTestConfig::default();
        Session::new("guarded-roadtest", scenario, known_good, &road, members, Some(deadline))
    }

    /// Grossly over-broad: a wildcard drop rule — every packet, benign or
    /// not, matches it. The live campus is mostly TCP, so anything less
    /// (e.g. a drop-all-UDP rule) can sneak under the FP gate.
    fn drop_everything() -> PipelineProgram {
        PipelineProgram::new("overbroad-wildcard", vec![TableEntry::exact(&[], Action::Drop, 9, 0.5)])
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
    #[should_panic(expected = "canary fraction NaN")]
    fn nan_canary_fraction_is_refused() {
        canary_hosts(&Campus::build(Scenario::small().campus), f64::NAN);
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
        let g = guard(&outcome);
        assert!(
            g.events.iter().any(|e| matches!(
                e.kind,
                RolloutEventKind::Vetoed(SloViolation::FalsePositiveRate)
            )),
            "timeline:\n{}",
            outcome.timeline()
        );
        // Vetoed in shadow: only the known-good version was ever committed.
        assert_eq!(g.registry().len(), 1);
        assert_eq!(g.stage(), RolloutStage::Idle);
        let robs = outcome.obs.rollout.as_ref().expect("rollout obs");
        assert_eq!(robs.vetoes(), 1);
        assert!(outcome.obs.prom().contains("rollout_vetoes_total 1"));
    }

    /// Matches nothing on the live campus (dst port 9, the discard
    /// protocol): zero FP, zero benign drops — a candidate that promotes
    /// cleanly through the ladder.
    fn drop_discard_port() -> PipelineProgram {
        PipelineProgram::new(
            "noop-discard-port",
            vec![TableEntry::exact(&[(HeaderField::DstPort, 9)], Action::Drop, 9, 0.99)],
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
        let canary_at = guard(&full)
            .events
            .iter()
            .find(|e| e.kind == RolloutEventKind::EnteredCanary)
            .map(|e| e.at)
            .unwrap_or_else(|| panic!("no canary entry; timeline:\n{}", full.timeline()));
        let left_at = guard(&full)
            .events
            .iter()
            .find(|e| e.kind == RolloutEventKind::EnteredFull)
            .map(|e| e.at)
            .unwrap_or_else(|| panic!("no full entry; timeline:\n{}", full.timeline()));
        assert!(left_at > canary_at, "canary must span a nonzero interval");
        // Capped run: stop the sim strictly inside the canary interval.
        let deadline = SimTime(canary_at.as_nanos() + (left_at.as_nanos() - canary_at.as_nanos()) / 2);
        let mut capped = capped(&Scenario::small(), known_good, model, cfg().submissions, deadline);
        capped.run_to_end();
        let capped = capped.finish();
        let g = guard(&capped);
        assert_eq!(
            g.stage(),
            RolloutStage::Canary,
            "deadline mid-canary must freeze the guard in canary; timeline:\n{}",
            capped.timeline()
        );
        assert!(
            !g.events.iter().any(|e| matches!(
                e.kind,
                RolloutEventKind::EnteredFull | RolloutEventKind::Committed
            )),
            "nothing past canary may have happened"
        );
        assert_eq!(g.registry().len(), 1, "no commit under the deadline");
        assert!(
            g.events.iter().all(|e| e.at <= deadline),
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
                let submissions = vec![(SimTime::from_secs(1), drop_discard_port())];
                capped(&scenario, known_good.clone(), model.clone(), submissions, deadline)
            },
            SimDuration::from_secs(1),
        );
        let mut probe = cart.make_session();
        let mid_canary = cart.boundaries().into_iter().any(|t| {
            probe.run_until(t);
            probe.stack.guard.as_ref().unwrap().stage() == RolloutStage::Canary
        });
        assert!(mid_canary, "no boundary caught the guard mid-canary");
        assert_eq!(cart.sweep().1, Vec::<usize>::new());
    }

    #[test]
    fn guarded_run_is_deterministic() {
        let (known_good, model) = trained();
        let run = || {
            crate::phoenix::fingerprint(&guarded_road_test(
                &Scenario::small(),
                known_good.clone(),
                Box::new(model.clone()),
                GuardedRunConfig {
                    road: RoadTestConfig {
                        install: InstallPolicy {
                            failure_probability: 0.5,
                            breaker: true,
                            ..InstallPolicy::default()
                        },
                        ..RoadTestConfig::default()
                    },
                    submissions: vec![(SimTime::from_secs(1), drop_everything())],
                },
            ))
        };
        assert_eq!(run(), run(), "guarded run must be bit-identical across runs");
    }
}
