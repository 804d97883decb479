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
//! under the sequential and parallel executors.

use crate::observe::RunObs;
use crate::phoenix::PhoenixCheckpoint;
use crate::roadtest::RoadTestConfig;
use crate::scenario::Scenario;
use crate::session::{timeline, GuardSpec, Members, Session};
use campuslab_control::{
    DriftEpisode, DriftPilotConfig, RetrainRecord, RolloutEvent, SloPolicy, TeacherKind,
};
use campuslab_dataplane::PipelineProgram;
use campuslab_ml::{Classifier, ForestConfig};
use campuslab_netsim::{LinkId, SimDuration, SimTime};
use std::net::Ipv4Addr;

/// Parameters of a drift road test.
pub struct DriftRunConfig {
    /// Base road-test knobs (placement, chaos, blackouts, install channel).
    pub road: RoadTestConfig,
    /// SLO windows, gates and hysteresis for the guard. The default uses
    /// `promote_after: 1` so a healthy candidate climbs the full ladder in
    /// three SLO windows — drift mitigation is racing live damage, and the
    /// shadow/canary gates still veto a bad program before it spreads.
    pub slo: SloPolicy,
    /// Fraction of access switches whose hosts form the canary cohort.
    pub canary_fraction: f64,
    /// Pilot knobs. `tap` and `deployed_fingerprint` are overwritten by
    /// the runner (border link, known-good program's fingerprint).
    pub pilot: DriftPilotConfig,
    /// Settling margin past the workload's end before the run's hard
    /// deadline. The default (4 s) gives in-flight candidates time to
    /// finish the ladder; `SimDuration::ZERO` cuts the run at the last
    /// workload packet — the early-termination edge a plaza slice hits.
    pub settle: SimDuration,
}

impl Default for DriftRunConfig {
    fn default() -> Self {
        // The always-on pilot retrains every couple of sim seconds, so its
        // teacher is a deliberately small forest: the distilled student is
        // what deploys anyway, and an 8-tree teacher keeps a full drift
        // road test fast enough to replay in CI on every executor row.
        let mut pilot = DriftPilotConfig::new(LinkId(0), 0);
        pilot.devloop.teacher =
            TeacherKind::Forest(ForestConfig { n_trees: 8, ..ForestConfig::default() });
        DriftRunConfig {
            road: RoadTestConfig::default(),
            slo: SloPolicy { promote_after: 1, ..SloPolicy::default() },
            canary_fraction: 0.25,
            pilot,
            settle: SimDuration::from_secs(4),
        }
    }
}

/// What a drift road test measured.
pub struct DriftRunOutcome {
    /// Drift episodes the pilot opened, in onset order.
    pub episodes: Vec<DriftEpisode>,
    /// Every retraining run: trigger, window hash, fingerprints, fate.
    pub retrains: Vec<RetrainRecord>,
    /// The guard's decision log, in sim order.
    pub events: Vec<RolloutEvent>,
    /// Fingerprint the pilot believes is deployed at run end.
    pub final_deployed: u64,
    /// Known-good versions committed by the end of the run.
    pub registry_len: usize,
    pub filter: campuslab_control::FastLoopStatsSnapshot,
    pub net: campuslab_netsim::NetStats,
    /// The amplification victim's address, when the scenario has one.
    pub victim: Option<Ipv4Addr>,
    /// When the (first) attack campaign started.
    pub attack_start: Option<SimTime>,
    /// Observatory bundle, drift section included.
    pub obs: RunObs,
}

impl DriftRunOutcome {
    /// Retrains and guard decisions merged into one sim-ordered log — the
    /// always-on pipeline's story an operator reads after an incident.
    pub fn timeline(&self) -> String {
        timeline(&self.events, &self.retrains, &self.episodes)
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
) -> DriftRunOutcome {
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
            &cfg.road,
            Members {
                guard: Some(GuardSpec {
                    slo: cfg.slo,
                    canary_fraction: cfg.canary_fraction,
                    submissions: Vec::new(),
                }),
                window_model: Some(window_model),
                pilot: Some(cfg.pilot),
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
    /// down into the [`DriftRunOutcome`] a drift road test produces.
    pub fn finish(mut self) -> DriftRunOutcome {
        self.0.run_to_end();
        let done = self.0.finish();
        let guard = done.stack.guard.expect("drift stack has a guard");
        let pilot = done.stack.pilot.expect("drift stack has a pilot");
        DriftRunOutcome {
            final_deployed: pilot.deployed_fingerprint(),
            episodes: pilot.episodes,
            retrains: pilot.retrains,
            registry_len: guard.registry().len(),
            events: guard.events,
            filter: done.filter,
            net: done.net,
            victim: done.victim,
            attack_start: done.attack_start,
            obs: done.obs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use campuslab_control::{RetrainOutcome, RolloutEventKind};
    use campuslab_ml::DecisionTree;

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
        // The pilot lived: windows sealed, records streamed, retrains ran.
        assert!(dobs.windows() >= 10, "windows {}", dobs.windows());
        assert!(dobs.records() > 1_000, "records {}", dobs.records());
        assert!(dobs.retrains() >= 2, "timeline:\n{}", outcome.timeline());
        // At least one candidate was handed to the guard and at least one
        // pilot candidate was committed as the new known-good.
        assert!(dobs.submitted() >= 1, "timeline:\n{}", outcome.timeline());
        let committed = outcome
            .events
            .iter()
            .filter(|e| matches!(e.kind, RolloutEventKind::Committed))
            .count();
        assert!(committed >= 1, "timeline:\n{}", outcome.timeline());
        assert!(outcome.registry_len >= 2, "registry {}", outcome.registry_len);
        // The pilot's deployed fingerprint moved off the stale program.
        assert_ne!(outcome.final_deployed, known_good.fingerprint());
        // Every retrain is on the record with a fate.
        assert_eq!(outcome.retrains.len() as u64, dobs.retrains());
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
        assert!(outcome.retrains.iter().all(|r| matches!(
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
        assert!(!outcome.retrains.is_empty(), "the pilot never retrained:\n{story}");
        assert!(outcome.events.is_empty(), "no Submitted, so no Committed either:\n{story}");
        assert_eq!(outcome.registry_len, 1, "timeline:\n{story}");
        assert_eq!(outcome.final_deployed, known_good.fingerprint());
        // The known-good stays in force all day, so what it drops is its
        // own false-positive rate (2 of 69,116 packets), not the pilot's.
        assert_eq!(outcome.filter.dropped_attack, 0);
        assert!(outcome.filter.dropped_benign * 1_000 < outcome.filter.packets, "{:?}", outcome.filter);
        assert!(outcome.episodes.iter().all(|ep| ep.mitigated.is_some()), "timeline:\n{story}");
    }

    #[test]
    fn zero_settle_cuts_the_run_at_workload_end_without_breaking_anything() {
        let (known_good, model) = trained();
        let scenario = Scenario::drift_rotation();
        let outcome = drift_road_test(
            &scenario,
            known_good,
            Box::new(model),
            DriftRunConfig { settle: SimDuration::ZERO, ..DriftRunConfig::default() },
        );
        // The hard deadline with no settling margin: nothing — retrains,
        // guard decisions, episode onsets — may be stamped after it.
        let deadline = SimTime::ZERO + scenario.workload.duration;
        assert!(outcome.retrains.iter().all(|r| r.at <= deadline));
        assert!(outcome.events.iter().all(|e| e.at <= deadline));
        assert!(outcome.episodes.iter().all(|ep| ep.onset <= deadline));
        // The pilot still lived through the workload itself...
        let dobs = outcome.obs.drift.as_ref().expect("drift obs");
        assert!(dobs.windows() >= 1, "no windows sealed before the deadline");
        assert!(dobs.retrains() >= 1, "timeline:\n{}", outcome.timeline());
        // ...and an episode the deadline caught mid-flight is simply left
        // open (typed as unmitigated), never a panic or a phantom close.
        for ep in &outcome.episodes {
            if let Some(m) = ep.mitigated {
                assert!(m <= deadline);
            }
        }
        // The truncated bundle still renders coherently.
        let prom = outcome.obs.prom();
        assert!(prom.contains("dp_windows_total"));
        assert!(prom.contains("rollout_submissions_total"));
    }

    #[test]
    fn drift_run_is_deterministic() {
        let (known_good, model) = trained();
        let run = || {
            let outcome = drift_road_test(
                &Scenario::drift_rotation(),
                known_good.clone(),
                Box::new(model.clone()),
                DriftRunConfig::default(),
            );
            (outcome.timeline(), outcome.obs.prom(), outcome.obs.trace_json())
        };
        assert_eq!(run(), run(), "drift run must be bit-identical across runs");
    }
}
