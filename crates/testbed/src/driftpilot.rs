//! Drift road tests (experiment E17): the always-on learn → distill →
//! compile → deploy loop under traffic drift. A [`campuslab_control::DriftPilot`] streams
//! features off the border tap, retrains on fresh windows when its drift
//! score fires (or on the periodic schedule), and hands candidate
//! programs to the [`campuslab_control::RolloutGuard`]'s shadow → canary →
//! full machinery — while the
//! [`campuslab_control::MitigationController`] keeps defending the campus with
//! whatever program is currently deployed. All three hooks share one
//! simulation; every coupling between them happens inside hook callbacks
//! on sim-time state only, so the whole pipeline replays byte-identically
//! under the sequential and parallel executors. A run ends in the
//! session's [`Finished`]: the pilot on its stack carries the episodes,
//! the retrains and the deployed fingerprint, the guard the decision log.

use crate::phoenix::PhoenixCheckpoint;
use crate::roadtest::RoadTestConfig;
use crate::rollout::CANARY_FRACTION;
use crate::scenario::Scenario;
use crate::session::{Finished, GuardSpec, Members, Session};
use campuslab_dataplane::PipelineProgram;
use campuslab_ml::Classifier;
use campuslab_netsim::{SimDuration, SimTime};

/// Parameters of a drift road test. The run takes the default road-test
/// knobs, and its pilot is `DriftPilotConfig::new`'s.
pub struct DriftRunConfig {
    /// Settling margin past the workload's end before the run's hard
    /// deadline. The default (4 s) gives in-flight candidates time to
    /// finish the ladder; `SimDuration::ZERO` cuts the run at the last
    /// workload packet — the early-termination edge a plaza slice hits.
    pub settle: SimDuration,
}

impl Default for DriftRunConfig {
    fn default() -> Self {
        DriftRunConfig { settle: SimDuration::from_secs(4) }
    }
}

/// Run a drift road test: the scenario plays out while the controller
/// defends the campus with the known-good program, the pilot retrains on
/// fresh tap windows, and the guard walks each pilot candidate through
/// shadow → canary → full.
pub fn drift_road_test(
    scenario: &Scenario,
    known_good: PipelineProgram,
    window_model: Box<dyn Classifier + Send>,
    cfg: DriftRunConfig,
) -> Finished {
    // The uninterrupted special case of a resumable session: build, one
    // capped run straight to the deadline inside `finish`. E19's CrashCart
    // pins the other cases (stop at any barrier, checkpoint, resume) to
    // this one's fingerprint.
    DriftSession::new(scenario, known_good, window_model, cfg).finish()
}

/// A drift road test that can stop, checkpoint, and resume: the
/// guard + controller + pilot [`Session`], advanced window by window so a
/// [`PhoenixCheckpoint`] can be taken at any quiescent barrier. Building
/// one runs nothing; drive it with [`DriftSession::run_until`] and tear it
/// down with [`DriftSession::finish`].
pub struct DriftSession(Session);

impl From<DriftSession> for Session {
    fn from(drift: DriftSession) -> Session {
        drift.0
    }
}

impl DriftSession {
    /// Build the drift composition. [`drift_road_test`] is this
    /// constructor plus [`DriftSession::finish`].
    pub fn new(
        scenario: &Scenario,
        known_good: PipelineProgram,
        window_model: Box<dyn Classifier + Send>,
        cfg: DriftRunConfig,
    ) -> Self {
        // An always-on pipeline has no natural drain point: a candidate
        // submitted just before traffic ends would leave the guard
        // evaluating inconclusive empty windows forever. Cap the run at
        // the workload span plus the configured settling margin — a
        // deterministic sim-time bound, identical under every executor.
        let deadline = SimTime::ZERO + scenario.workload.duration + cfg.settle;
        DriftSession(Session::new(
            "drift-roadtest",
            scenario,
            known_good,
            &RoadTestConfig::default(),
            Members {
                guard: Some(GuardSpec {
                    // One healthy window per rung: a candidate climbs the
                    // full ladder in three SLO windows — drift mitigation
                    // is racing live damage, and the shadow/canary gates
                    // still veto a bad program before it spreads.
                    promote_after: 1,
                    canary_fraction: CANARY_FRACTION,
                    submissions: Vec::new(),
                }),
                window_model: Some(window_model),
                pilot: true,
                ..Members::default()
            },
            Some(deadline),
        ))
    }

    /// The session's hard stop (workload end + settle).
    pub fn deadline(&self) -> SimTime {
        self.0.deadline().expect("drift sessions are deadline-bounded")
    }

    /// Process every event up to `min(until, deadline)`; see
    /// [`Session::run_until`].
    pub fn run_until(&mut self, until: SimTime) {
        self.0.run_until(until);
    }

    /// Snapshot the full dynamic state at a quiescent barrier.
    pub fn checkpoint(&mut self) -> PhoenixCheckpoint {
        self.0.checkpoint().expect("the drift stack has no monitor or resolver")
    }

    /// Load a checkpoint into this (freshly built, not yet run) session;
    /// see [`Session::restore`]. Panics when the checkpoint was not taken
    /// from a drift session of this build (member shape or metric schema
    /// disagree).
    pub fn restore(&mut self, cp: PhoenixCheckpoint) {
        self.0.restore(cp).expect("checkpoint was taken from a drift session");
    }

    /// Run any remaining events to the deadline, then tear the session
    /// down into the [`Finished`] a drift road test produces.
    pub fn finish(mut self) -> Finished {
        self.0.run_to_end();
        self.0.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use campuslab_control::{DriftPilot, RetrainOutcome, RolloutEventKind, RolloutGuard};
    use campuslab_ml::DecisionTree;

    fn members(run: &Finished) -> (&RolloutGuard, &DriftPilot) {
        let guard = run.stack.guard.as_ref().expect("drift stack has a guard");
        (guard, run.stack.pilot.as_ref().expect("drift stack has a pilot"))
    }

    fn trained() -> (PipelineProgram, DecisionTree) {
        crate::fixtures::trained().clone()
    }

    #[test]
    fn pilot_retrains_and_commits_under_rotation_drift() {
        let (known_good, model) = trained();
        let outcome = drift_road_test(
            &Scenario::drift_rotation(),
            known_good.clone(),
            Box::new(model),
            DriftRunConfig::default(),
        );
        let dobs = outcome.obs.drift.as_ref().expect("drift obs");
        let (guard, pilot) = members(&outcome);
        // The pilot lived: windows sealed, records streamed, retrains ran.
        assert!(dobs.windows() >= 10, "windows {}", dobs.windows());
        assert!(dobs.records() > 1_000, "records {}", dobs.records());
        assert!(dobs.retrains() >= 2, "timeline:\n{}", outcome.timeline());
        // At least one candidate was handed to the guard and at least one
        // pilot candidate was committed as the new known-good.
        assert!(dobs.submitted() >= 1, "timeline:\n{}", outcome.timeline());
        let committed = guard
            .events
            .iter()
            .filter(|e| matches!(e.kind, RolloutEventKind::Committed))
            .count();
        assert!(committed >= 1, "timeline:\n{}", outcome.timeline());
        assert!(guard.registry().len() >= 2, "registry {}", guard.registry().len());
        // The pilot's deployed fingerprint moved off the stale program.
        assert_ne!(pilot.deployed_fingerprint(), known_good.fingerprint());
        // Every retrain is on the record with a fate.
        assert_eq!(pilot.retrains.len() as u64, dobs.retrains());
        // The prom dump carries the drift section.
        assert!(outcome.obs.prom().contains("dp_retrains_total"));
    }

    #[test]
    fn benign_drift_never_bars_or_breaks_the_pipeline() {
        let (known_good, model) = trained();
        let outcome = drift_road_test(
            &Scenario::drift_app_rollout(),
            known_good,
            Box::new(model),
            DriftRunConfig::default(),
        );
        // Single-class (all-benign) windows retrain safely: no panic, and
        // every retrain lands one of the sanctioned fates.
        assert!(members(&outcome).1.retrains.iter().all(|r| matches!(
            r.outcome,
            RetrainOutcome::Queued | RetrainOutcome::Unchanged | RetrainOutcome::Barred
        )));
        // No attack, so the deployed filter never dropped benign traffic
        // wholesale — the campus stays functional under model churn.
        let total = outcome.filter.packets.max(1);
        assert!(
            outcome.filter.dropped_benign * 10 < total,
            "benign drops {} of {}",
            outcome.filter.dropped_benign,
            total
        );
    }

    /// An attack-free day has nothing to mitigate, so the pilot has
    /// nothing to deploy: a retrain on all-benign windows compiles a
    /// program with no drop rule, and committing that over the known-good
    /// would leave the campus undefended. The guard never hears of it, and
    /// a drift episode the load swing opens closes when the score calms,
    /// not through a commit.
    #[test]
    fn attack_free_day_deploys_nothing_over_the_known_good() {
        let (known_good, model) = trained();
        let outcome = drift_road_test(
            &Scenario::drift_diurnal(),
            known_good.clone(),
            Box::new(model),
            DriftRunConfig::default(),
        );
        let story = outcome.timeline();
        let (guard, pilot) = members(&outcome);
        assert!(!pilot.retrains.is_empty(), "the pilot never retrained:\n{story}");
        assert!(guard.events.is_empty(), "no Submitted, so no Committed either:\n{story}");
        assert_eq!(guard.registry().len(), 1, "timeline:\n{story}");
        assert_eq!(pilot.deployed_fingerprint(), known_good.fingerprint());
        // The known-good stays in force all day, so what it drops is its
        // own false-positive rate (2 of 69,116 packets), not the pilot's.
        assert_eq!(outcome.filter.dropped_attack, 0);
        assert!(outcome.filter.dropped_benign * 1_000 < outcome.filter.packets, "{:?}", outcome.filter);
        assert!(pilot.episodes.iter().all(|ep| ep.mitigated.is_some()), "timeline:\n{story}");
    }

    #[test]
    fn zero_settle_cuts_the_run_at_workload_end_without_breaking_anything() {
        let (known_good, model) = trained();
        let scenario = Scenario::drift_rotation();
        let outcome = drift_road_test(
            &scenario,
            known_good,
            Box::new(model),
            DriftRunConfig { settle: SimDuration::ZERO },
        );
        // The hard deadline with no settling margin: nothing — retrains,
        // guard decisions, episode onsets — may be stamped after it.
        let deadline = SimTime::ZERO + scenario.workload.duration;
        let (guard, pilot) = members(&outcome);
        assert!(pilot.retrains.iter().all(|r| r.at <= deadline));
        assert!(guard.events.iter().all(|e| e.at <= deadline));
        assert!(pilot.episodes.iter().all(|ep| ep.onset <= deadline));
        // The pilot still lived through the workload itself...
        let dobs = outcome.obs.drift.as_ref().expect("drift obs");
        assert!(dobs.windows() >= 1, "no windows sealed before the deadline");
        assert!(dobs.retrains() >= 1, "timeline:\n{}", outcome.timeline());
        // ...and an episode the deadline caught mid-flight is simply left
        // open (typed as unmitigated), never a panic or a phantom close.
        for ep in &pilot.episodes {
            if let Some(m) = ep.mitigated {
                assert!(m <= deadline);
            }
        }
        // The truncated bundle still renders coherently.
        let prom = outcome.obs.prom();
        assert!(prom.contains("dp_windows_total"));
        assert!(prom.contains("rollout_submissions_total"));
    }

    /// The rotation day's first retrain as the pilot ran it on its live
    /// buffer, which is full and has shed its oldest records by then:
    /// when, how many records, and both fingerprints.
    #[test]
    fn first_rotation_retrain_is_pinned() {
        let (known_good, model) = trained();
        let mut session = DriftSession::new(
            &Scenario::drift_rotation(),
            known_good,
            Box::new(model),
            DriftRunConfig::default(),
        );
        let mut until = SimTime::ZERO;
        let first = loop {
            until += SimDuration::from_millis(250);
            assert!(until <= session.deadline(), "the pilot never retrained");
            session.run_until(until);
            let pilot = session.0.stack.pilot.as_ref().expect("drift stack has a pilot");
            if let Some(first) = pilot.retrains.first() {
                break first.clone();
            }
        };
        assert_eq!(
            (first.at.as_nanos(), first.records, first.model_fingerprint, first.program_fingerprint),
            (2_000_000_000, 20_000, 0x43b9_4024_699f_a2bb, 0xf4c5_94b0_165d_b983),
            "drift rotation"
        );
    }

    #[test]
    fn drift_run_is_deterministic() {
        let (known_good, model) = trained();
        let run = || {
            crate::phoenix::fingerprint(&drift_road_test(
                &Scenario::drift_rotation(),
                known_good.clone(),
                Box::new(model.clone()),
                DriftRunConfig::default(),
            ))
        };
        assert_eq!(run(), run(), "drift run must be bit-identical across runs");
    }
}
