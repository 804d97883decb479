//! Road-testing (the paper's Part-2 proposal): deploy a developed model on
//! the live campus testbed under a fresh attack and measure what the
//! operator cares about — time to mitigation, attack suppression, and
//! collateral damage to benign traffic.

use crate::observe::RunObs;
use crate::scenario::Scenario;
use crate::session::{Members, Session};
use campuslab_control::{
    FastLoopStatsSnapshot, InstallGiveUp, InstallPolicy, MitigationEvent, Placement,
};
use campuslab_capture::PacketRecord;
use campuslab_dataplane::PipelineProgram;
use campuslab_features::{window_dataset, LabelMode, WindowConfig};
use campuslab_ml::{Classifier, DecisionTree, TreeConfig};
use campuslab_netsim::{ChaosPlan, NetStats, Outage, SimDuration, SimTime};
use std::net::Ipv4Addr;

/// Road-test parameters.
pub struct RoadTestConfig {
    pub placement: Placement,
    /// Detector confidence gate (the paper's >= 0.9).
    pub gate: f64,
    pub window_ns: u64,
    pub min_packets: usize,
    /// Optional chaos campaign (link flaps, node crashes, brownouts,
    /// bursty loss) applied to the network before the run.
    pub chaos: Option<ChaosPlan>,
    /// Windows where the controller's tap is blind (monitor blackout).
    pub tap_blackouts: Vec<Outage>,
    /// Reliability of the controller→switch install channel.
    pub install: InstallPolicy,
}

impl Default for RoadTestConfig {
    fn default() -> Self {
        RoadTestConfig {
            placement: Placement::Controller,
            gate: 0.9,
            window_ns: 1_000_000_000,
            min_packets: 5,
            chaos: None,
            tap_blackouts: Vec::new(),
            install: InstallPolicy::default(),
        }
    }
}

/// What a road test measured.
#[derive(Debug, Clone)]
pub struct RoadTestOutcome {
    pub placement: Placement,
    pub filter: FastLoopStatsSnapshot,
    pub net: NetStats,
    pub mitigations: Vec<MitigationEvent>,
    /// Detections abandoned because every install attempt flaked.
    pub giveups: Vec<InstallGiveUp>,
    pub victim: Option<Ipv4Addr>,
    pub attack_start: Option<SimTime>,
    /// Attack start → rule active. None when nothing was installed.
    pub time_to_mitigation: Option<SimDuration>,
    /// Attack packets that reached the victim before/despite mitigation.
    pub attack_packets_passed: u64,
    /// Benign packets dropped by the mitigation (collateral).
    pub benign_packets_dropped: u64,
    /// Observatory bundle: per-layer metric sinks + the run trace, moved
    /// out of the simulator and controller after the run.
    pub obs: RunObs,
}

impl RoadTestOutcome {
    /// Attack suppression: dropped / (dropped + passed).
    pub fn suppression(&self) -> f64 {
        self.filter.attack_recall()
    }

    /// Total install attempts spent across landed and abandoned episodes.
    pub fn install_attempts(&self) -> u32 {
        self.mitigations.iter().map(|m| m.attempts).sum::<u32>()
            + self.giveups.iter().map(|g| g.attempts).sum::<u32>()
    }

    /// Fraction of injected packets that were delivered end to end.
    pub fn delivery_ratio(&self) -> f64 {
        if self.net.injected == 0 {
            return 1.0;
        }
        self.net.delivered as f64 / self.net.injected as f64
    }
}

/// Fit the controller and cloud placements' window model on captured
/// records: a depth-4 tree over 1 s per-destination windows of at least
/// five packets, labelled attack or not.
pub fn train_window_model(records: &[PacketRecord]) -> DecisionTree {
    let cfg = WindowConfig { window_ns: 1_000_000_000, min_packets: 5 };
    DecisionTree::fit(&window_dataset(records, cfg, LabelMode::BinaryAttack), TreeConfig::shallow(4))
}

/// Run a road test: the scenario plays out on a fresh campus while the
/// deployed model (placement-dependent) defends it. A switch placement
/// installs `program` up front; a controller or cloud placement defends
/// through `window_model`, and without one runs undefended (no
/// mitigation, `time_to_mitigation` is `None`).
pub fn road_test(
    scenario: &Scenario,
    program: PipelineProgram,
    window_model: Option<Box<dyn Classifier + Send>>,
    cfg: RoadTestConfig,
) -> RoadTestOutcome {
    let placement = cfg.placement;
    let mut session = Session::new(
        format!("roadtest[{placement:?}]"),
        scenario,
        program,
        &cfg,
        Members { window_model, ..Members::default() },
        None,
    );
    session.run_to_end();
    let done = session.finish();
    let (mitigations, giveups) =
        done.stack.controller.map(|c| (c.events, c.giveups)).unwrap_or_default();
    let time_to_mitigation = match placement {
        Placement::Switch => Some(SimDuration::ZERO),
        _ => match (done.attack_start, mitigations.first()) {
            (Some(start), Some(event)) => Some(event.installed_at - start),
            _ => None,
        },
    };
    RoadTestOutcome {
        placement,
        filter: done.filter,
        net: done.net,
        mitigations,
        giveups,
        victim: done.victim,
        attack_start: done.attack_start,
        time_to_mitigation,
        attack_packets_passed: done.filter.passed_attack,
        benign_packets_dropped: done.filter.dropped_benign,
        obs: done.obs,
    }
}

/// Go/no-go criteria for promoting a model from road test to production —
/// the "support contract" checklist between researcher and IT (paper §4).
#[derive(Debug, Clone, Copy)]
pub struct GateCriteria {
    pub min_suppression: f64,
    /// Benign drops per benign packet crossing the filter.
    pub max_collateral_rate: f64,
    pub require_mitigation_within: Option<SimDuration>,
}

impl Default for GateCriteria {
    fn default() -> Self {
        GateCriteria {
            min_suppression: 0.8,
            max_collateral_rate: 0.01,
            require_mitigation_within: Some(SimDuration::from_secs(5)),
        }
    }
}

/// The gate's verdict with its reasoning.
#[derive(Debug, Clone)]
pub struct DeploymentDecision {
    pub approved: bool,
    pub reasons: Vec<String>,
}

/// Evaluate the deployment gate over a road-test outcome.
pub fn deployment_decision(outcome: &RoadTestOutcome, criteria: GateCriteria) -> DeploymentDecision {
    let mut reasons = Vec::new();
    let suppression = outcome.suppression();
    if suppression < criteria.min_suppression {
        reasons.push(format!(
            "attack suppression {:.1}% below required {:.1}%",
            suppression * 100.0,
            criteria.min_suppression * 100.0
        ));
    }
    let benign_seen = outcome.filter.packets - outcome.filter.dropped_attack
        - outcome.filter.passed_attack;
    let collateral_rate = if benign_seen > 0 {
        outcome.filter.dropped_benign as f64 / benign_seen as f64
    } else {
        0.0
    };
    if collateral_rate > criteria.max_collateral_rate {
        reasons.push(format!(
            "collateral drop rate {:.3}% above allowed {:.3}%",
            collateral_rate * 100.0,
            criteria.max_collateral_rate * 100.0
        ));
    }
    if let Some(deadline) = criteria.require_mitigation_within {
        match outcome.time_to_mitigation {
            Some(t) if t <= deadline => {}
            Some(t) => reasons.push(format!(
                "mitigation took {t} (deadline {deadline})"
            )),
            None => reasons.push("attack was never mitigated".to_string()),
        }
    }
    DeploymentDecision { approved: reasons.is_empty(), reasons }
}

#[cfg(test)]
mod tests {
    use super::*;
    use campuslab_ml::DecisionTree;

    /// Models trained on one collection pass, road-tested on fresh runs.
    fn trained() -> (PipelineProgram, DecisionTree) {
        crate::fixtures::trained().clone()
    }

    #[test]
    fn switch_placement_suppresses_from_the_start() {
        let (program, _) = trained();
        let outcome = road_test(
            &Scenario::small(),
            program,
            None,
            RoadTestConfig { placement: Placement::Switch, ..Default::default() },
        );
        assert!(outcome.suppression() > 0.8, "suppression {}", outcome.suppression());
        assert_eq!(outcome.time_to_mitigation, Some(SimDuration::ZERO));
        // Collateral damage stays tiny.
        let decision = deployment_decision(&outcome, GateCriteria::default());
        assert!(decision.approved, "rejected: {:?}", decision.reasons);
    }

    #[test]
    fn controller_placement_detects_then_mitigates() {
        let (program, window_model) = trained();
        let outcome = road_test(
            &Scenario::small(),
            program,
            Some(Box::new(window_model)),
            RoadTestConfig { placement: Placement::Controller, ..Default::default() },
        );
        assert!(!outcome.mitigations.is_empty(), "controller never fired");
        let ttm = outcome.time_to_mitigation.expect("mitigated");
        assert!(ttm > SimDuration::ZERO);
        assert!(
            outcome.mitigations[0].victim == std::net::IpAddr::V4(outcome.victim.unwrap()),
            "mitigated the wrong host"
        );
        // Some attack passed before the window closed, then drops began.
        assert!(outcome.filter.dropped_attack > 0);
    }

    #[test]
    fn cloud_placement_is_slower_than_controller() {
        let (program, window_model) = trained();
        let (p2, w2) = (program.clone(), window_model.clone());
        let controller = road_test(
            &Scenario::small(),
            program,
            Some(Box::new(window_model)),
            RoadTestConfig { placement: Placement::Controller, ..Default::default() },
        );
        let cloud = road_test(
            &Scenario::small(),
            p2,
            Some(Box::new(w2)),
            RoadTestConfig { placement: Placement::Cloud, ..Default::default() },
        );
        let t_controller = controller.time_to_mitigation.expect("controller mitigated");
        let t_cloud = cloud.time_to_mitigation.expect("cloud mitigated");
        assert!(t_cloud > t_controller, "cloud {t_cloud} vs controller {t_controller}");
        // And the slower tier lets more attack through.
        assert!(cloud.attack_packets_passed >= controller.attack_packets_passed);
    }

    #[test]
    fn border_outage_is_survivable() {
        // Failure injection: the border link goes dark for 20% of the run.
        // The system must keep functioning (no panic, sane accounting) and
        // the switch-resident mitigation must still suppress what arrives.
        let (program, _) = trained();
        let scenario = Scenario::small();
        let campus = campuslab_netsim::Campus::build(scenario.campus.clone());
        let span = scenario.workload.duration.as_secs_f64();
        let at = |frac: f64| SimTime::ZERO + SimDuration::from_secs_f64(span * frac);
        let mut chaos = ChaosPlan::new();
        chaos.link_flap(campus.border_link, at(0.3), at(0.5));
        let outcome = road_test(
            &scenario,
            program,
            None,
            RoadTestConfig { placement: Placement::Switch, chaos: Some(chaos), ..Default::default() },
        );
        assert!(outcome.net.dropped_fault > 0, "outage dropped nothing");
        // Everything that did arrive was still filtered correctly.
        assert!(outcome.suppression() > 0.9, "suppression {}", outcome.suppression());
        assert_eq!(
            outcome.net.injected,
            outcome.net.delivered + outcome.net.dropped_total()
        );
    }

    #[test]
    fn rate_limit_mitigation_is_gentler_than_drop() {
        let (program, _) = trained();
        let policed = program.with_drops_as_policers(500_000); // 0.5 Mbps
        let hard = road_test(
            &Scenario::small(),
            program,
            None,
            RoadTestConfig { placement: Placement::Switch, ..Default::default() },
        );
        let soft = road_test(
            &Scenario::small(),
            policed,
            None,
            RoadTestConfig { placement: Placement::Switch, ..Default::default() },
        );
        // The policer lets a trickle through (by design) but still removes
        // the bulk of the flood.
        assert!(soft.attack_packets_passed > hard.attack_packets_passed);
        assert!(
            soft.suppression() > 0.5,
            "policer suppressed too little: {}",
            soft.suppression()
        );
    }

    #[test]
    fn obs_bundle_mirrors_outcome_and_traces_the_run() {
        let (program, window_model) = trained();
        let outcome = road_test(
            &Scenario::small(),
            program,
            Some(Box::new(window_model)),
            RoadTestConfig { placement: Placement::Controller, ..Default::default() },
        );
        // Simulator counters mirror NetStats exactly.
        let net = &outcome.obs.net;
        assert_eq!(net.injected(), outcome.net.injected);
        assert_eq!(net.delivered(), outcome.net.delivered);
        let dump = net.render();
        let drops = dump.lines().filter_map(|l| l.strip_prefix("sim_dropped_packets_total{"));
        let dropped: u64 = drops.filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok()).sum();
        assert_eq!(dropped, outcome.net.dropped_total());
        // Controller counters mirror the event log.
        let ctl = outcome.obs.controller.as_ref().expect("controller obs");
        assert_eq!(ctl.installs() as usize, outcome.mitigations.len());
        assert_eq!(ctl.giveups() as usize, outcome.giveups.len());
        assert!(ctl.installs() > 0, "controller never fired");
        // The trace opens with the run-level span and carries one closed
        // episode span per mitigation.
        let spans = outcome.obs.tracer.spans();
        assert_eq!(spans[0].name, "roadtest[Controller]");
        assert_eq!(spans[0].start_ns, 0);
        let episodes = spans.iter().filter(|s| s.name.starts_with("mitigate[")).count();
        assert_eq!(episodes as u64, ctl.episodes());
        // The dump contains every section a controller road test produces.
        let prom = outcome.obs.prom();
        for family in
            ["sim_events_total", "flt_packets_total", "det_windows_closed_total", "ctl_installs_total"]
        {
            assert!(prom.contains(family), "dump missing {family}");
        }
        assert!(!prom.contains("cap_observed_packets_total"), "no monitor in a road test");
    }

    /// The default config is a controller placement; with no window model
    /// it is a legal, undefended run, not a panic.
    #[test]
    fn controller_placement_without_a_model_runs_undefended() {
        let (program, _) = trained();
        let outcome = road_test(&Scenario::small(), program, None, RoadTestConfig::default());
        assert_eq!(outcome.placement, Placement::Controller);
        assert!(outcome.mitigations.is_empty() && outcome.giveups.is_empty());
        assert_eq!(outcome.time_to_mitigation, None);
        assert_eq!(outcome.filter.dropped_attack, 0, "nothing was installed");
        assert!(outcome.obs.controller.is_none());
        let decision = deployment_decision(&outcome, GateCriteria::default());
        assert!(decision.reasons.iter().any(|r| r.contains("never mitigated")));
    }

    #[test]
    fn gate_rejects_a_useless_program() {
        // An empty program drops nothing: suppression 0.
        let outcome = road_test(
            &Scenario::small(),
            PipelineProgram::new("empty", vec![]),
            None,
            RoadTestConfig { placement: Placement::Switch, ..Default::default() },
        );
        let decision = deployment_decision(&outcome, GateCriteria::default());
        assert!(!decision.approved);
        assert!(decision.reasons.iter().any(|r| r.contains("suppression")));
    }
}
