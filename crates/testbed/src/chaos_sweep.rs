//! Robustness-under-chaos sweeps (experiment E14): scale one fault
//! intensity knob from 0 (calm) to 1 (mayhem), derive a seed-driven chaos
//! campaign for each point, road-test the deployed defense under it, and
//! report the degradation curve an operator actually cares about —
//! detection recall, mitigation latency, delivery ratio, and how hard the
//! control channel had to work (install attempts, give-ups).
//!
//! Every point is a self-contained deterministic run (own campus, own
//! seeds), so the sweep parallelizes under
//! [`campuslab_netsim::par::parallel_map`] with byte-identical results.

use crate::roadtest::{road_test, RoadTestConfig, RoadTestOutcome};
use crate::scenario::Scenario;
use campuslab_control::InstallPolicy;
use campuslab_dataplane::PipelineProgram;
use campuslab_ml::Classifier;
use campuslab_netsim::par::parallel_map;
use campuslab_netsim::{
    Campus, ChaosConfig, GilbertElliott, LinkId, NodeId, Outage, SimDuration, SimTime,
};

/// A chaos sweep: which intensities to visit and how to seed the
/// campaigns derived from them.
#[derive(Debug, Clone)]
pub struct ChaosSweepConfig {
    /// Fault intensities in `[0, 1]`, each one road-tested independently.
    pub intensities: Vec<f64>,
    /// Base seed; each point derives its campaign from `seed ^ point`.
    pub seed: u64,
}

impl Default for ChaosSweepConfig {
    fn default() -> Self {
        ChaosSweepConfig {
            intensities: vec![0.0, 0.25, 0.5, 0.75, 1.0],
            seed: 0xE14C4A05,
        }
    }
}

/// One point on the degradation curve.
#[derive(Debug, Clone)]
pub struct ChaosPoint {
    pub intensity: f64,
    /// Attack suppression (detection recall at the filter).
    pub suppression: f64,
    /// Injected → delivered, end to end.
    pub delivery_ratio: f64,
    /// Attack start → first rule active, when mitigation landed at all.
    pub time_to_mitigation_ms: Option<f64>,
    /// Total install attempts spent, from the Observatory registry — lands,
    /// give-ups and attempts still in flight when the run ended.
    pub install_attempts: u32,
    /// Detections abandoned after the retry budget/timeout ran out.
    pub giveups: usize,
    pub mitigated: bool,
    /// Packets lost to link faults (outages, bursty loss).
    pub dropped_fault: u64,
    /// Packets swallowed by crashed nodes.
    pub dropped_node_down: u64,
}

/// Map one intensity in `[0, 1]` onto a full [`RoadTestConfig`] at the
/// default (controller) placement: a chaos campaign over the scenario's
/// internal links and hosts, a tap blackout covering part of the attack's
/// opening, and an increasingly flaky install channel. Intensity 0 is
/// exactly the fault-free configuration.
pub fn chaos_road_test_config(scenario: &Scenario, intensity: f64, seed: u64) -> RoadTestConfig {
    let t = intensity.clamp(0.0, 1.0);
    let mut cfg = RoadTestConfig::default();
    if t <= 0.0 {
        return cfg;
    }
    // Campus::build is deterministic, so this throwaway build sees the
    // same link/node ids as the one inside road_test.
    let campus = Campus::build(scenario.campus.clone());
    let duration = scenario.workload.duration;
    // Chaos targets the campus interior: every link except the tapped
    // border uplink, and every end host except the attack victim — the
    // border stays up so the experiment measures how the *defense*
    // degrades, not whether traffic existed at all.
    let links: Vec<LinkId> = (0..campus.net.link_count())
        .map(LinkId)
        .filter(|l| *l != campus.border_link)
        .collect();
    let victim = scenario.attack.victim(&campus);
    let nodes: Vec<NodeId> = campus
        .hosts
        .iter()
        .copied()
        .filter(|n| Some(*n) != victim)
        .collect();
    let chaos_cfg = ChaosConfig {
        seed,
        duration,
        link_flaps: (t * 6.0).round() as usize,
        node_crashes: (t * 3.0).round() as usize,
        brownouts: (t * 4.0).round() as usize,
        burst: Some(GilbertElliott::new(0.02 * t, 0.3, 0.0, 0.5 * t)),
    };
    cfg.chaos = Some(chaos_cfg.generate(&links, &nodes));
    // The tap goes dark over the attack's opening act: detection must
    // work from the partially-observed windows that remain.
    let span = duration.as_secs_f64();
    let blackout_start = SimTime::ZERO + SimDuration::from_secs_f64(span * 0.2);
    let blackout_len = SimDuration::from_secs_f64(span * 0.25 * t);
    cfg.tap_blackouts = vec![Outage { from: blackout_start, until: blackout_start + blackout_len }];
    cfg.install = InstallPolicy {
        failure_probability: 0.7 * t,
        max_attempts: 4,
        base_backoff: SimDuration::from_millis(20),
        max_backoff: SimDuration::from_millis(200),
        seed: seed ^ 0x1257A11,
        ..InstallPolicy::default()
    };
    cfg
}

/// Derive one curve point from a finished road test: network counts from
/// `NetStats`, their owner, and controller counts from the controller's
/// Observatory sink, booked from the controller's logs when the session
/// finished (in-flight attempts included). The metrics dump books the
/// network counts from the same `NetStats`, so the curve and the dump
/// cannot disagree.
fn point_from(intensity: f64, outcome: &RoadTestOutcome) -> ChaosPoint {
    let net = &outcome.net;
    let ctl = outcome.obs.controller.as_ref();
    ChaosPoint {
        intensity,
        suppression: outcome.suppression(),
        delivery_ratio: if net.injected == 0 { 1.0 } else { net.delivery_ratio() },
        time_to_mitigation_ms: outcome
            .time_to_mitigation
            .map(|d| d.as_nanos() as f64 / 1e6),
        install_attempts: ctl.map_or(0, |c| c.attempts()) as u32,
        giveups: ctl.map_or(0, |c| c.giveups()) as usize,
        mitigated: ctl.is_some_and(|c| c.installs() > 0),
        dropped_fault: net.dropped_fault,
        dropped_node_down: net.dropped_node_down,
    }
}

/// Run the sweep: one road test per intensity, fanned out over worker
/// threads, points returned in intensity order beside each point's
/// Observatory bundle, so the degradation curve can ship with the full
/// metrics dump it was derived from. `mk_model` builds a fresh window
/// model per point (each run consumes one).
pub fn chaos_sweep(
    scenario: &Scenario,
    program: &PipelineProgram,
    mk_model: impl Fn() -> Box<dyn Classifier + Send> + Sync,
    sweep: &ChaosSweepConfig,
) -> (Vec<ChaosPoint>, Vec<crate::observe::RunObs>) {
    parallel_map(&sweep.intensities, |i, &intensity| {
        let cfg = chaos_road_test_config(scenario, intensity, sweep.seed ^ i as u64);
        let outcome = road_test(scenario, program.clone(), Some(mk_model()), cfg);
        let point = point_from(intensity, &outcome);
        (point, outcome.obs)
    })
    .into_iter()
    .unzip()
}

#[cfg(test)]
mod tests {
    use super::*;
    use campuslab_ml::DecisionTree;

    fn trained() -> (PipelineProgram, DecisionTree) {
        crate::fixtures::trained().clone()
    }

    #[test]
    fn zero_intensity_is_the_fault_free_config() {
        let cfg = chaos_road_test_config(&Scenario::small(), 0.0, 7);
        assert!(cfg.chaos.is_none());
        assert!(cfg.tap_blackouts.is_empty());
        assert_eq!(cfg.install.failure_probability, 0.0);
    }

    #[test]
    fn campaigns_scale_with_intensity_and_spare_the_border() {
        let s = Scenario::small();
        let lo = chaos_road_test_config(&s, 0.3, 7);
        let hi = chaos_road_test_config(&s, 1.0, 7);
        let lo_plan = lo.chaos.unwrap();
        let hi_plan = hi.chaos.unwrap();
        assert!(hi_plan.events.len() > lo_plan.events.len());
        assert!(hi.install.failure_probability > lo.install.failure_probability);
        let campus = Campus::build(s.campus.clone());
        assert!(
            hi_plan.link_outages(campus.border_link).is_empty(),
            "chaos must not flap the tapped border link"
        );
        // Burst channels cover the interior, never the border.
        assert!(hi_plan.burst.iter().all(|(l, _)| *l != campus.border_link));
        assert_eq!(hi_plan.burst.len(), campus.net.link_count() - 1);
    }

    /// Chaos degrades the defense, never the attack's own target: whatever
    /// host a campaign is aimed at stays up at any seed, for every attack
    /// family with a victim among the hosts.
    #[test]
    fn chaos_never_crashes_the_victim() {
        let mut mixed = Scenario::small();
        mixed.attack = crate::scenario::AttackScenario::Mixed;
        for scenario in [Scenario::drift_rotation(), mixed] {
            let campus = Campus::build(scenario.campus.clone());
            let victim = scenario.attack.victim(&campus).expect("the campaign has a victim");
            for seed in 0..64 {
                let plan = chaos_road_test_config(&scenario, 1.0, seed).chaos.unwrap();
                assert!(
                    plan.node_outages(victim).is_empty(),
                    "seed {seed} crashes the victim of {:?}",
                    scenario.attack
                );
            }
        }
    }

    /// The acceptance-criteria sanity check: more chaos never *improves*
    /// the defense. Recall under zero chaos bounds recall under max chaos,
    /// and chaos actually bites (fault drops appear).
    #[test]
    fn degradation_is_monotone_from_calm_to_mayhem() {
        let (program, model) = trained();
        let sweep = ChaosSweepConfig {
            intensities: vec![0.0, 1.0],
            ..ChaosSweepConfig::default()
        };
        let (points, _) = chaos_sweep(
            &Scenario::small(),
            &program,
            || Box::new(model.clone()),
            &sweep,
        );
        assert_eq!(points.len(), 2);
        let calm = &points[0];
        let mayhem = &points[1];
        assert!(calm.mitigated, "calm run must mitigate");
        assert!(
            calm.suppression >= mayhem.suppression,
            "recall must not improve under chaos: calm {} vs mayhem {}",
            calm.suppression,
            mayhem.suppression
        );
        assert!(calm.delivery_ratio >= mayhem.delivery_ratio);
        assert!(mayhem.dropped_fault + mayhem.dropped_node_down > 0, "chaos never bit");
        assert_eq!(calm.dropped_node_down, 0);
    }

    /// Every curve point field agrees with the outcome's own records and
    /// with the metrics dump: if these ever diverge, the degradation curve
    /// and the dump are lying to someone.
    #[test]
    fn curve_points_agree_with_legacy_stats() {
        let (program, model) = trained();
        let s = Scenario::small();
        let cfg = chaos_road_test_config(&s, 0.6, 0xC0FFEE);
        let outcome = road_test(&s, program, Some(Box::new(model)), cfg);
        let point = point_from(0.6, &outcome);
        assert_eq!(point.dropped_fault, outcome.net.dropped_fault);
        assert_eq!(point.dropped_node_down, outcome.net.dropped_node_down);
        assert!((point.delivery_ratio - outcome.delivery_ratio()).abs() < 1e-12);
        let dump = outcome.obs.net.render();
        let sample = |reason: &str, n: u64| format!("sim_dropped_packets_total{{reason=\"{reason}\"}} {n}\n");
        assert!(dump.contains(&sample("fault", point.dropped_fault)), "{dump}");
        assert!(dump.contains(&sample("node_down", point.dropped_node_down)), "{dump}");
        assert_eq!(point.mitigated, !outcome.mitigations.is_empty());
        let ctl = outcome.obs.controller.as_ref().unwrap();
        assert_eq!(ctl.installs() as usize, outcome.mitigations.len());
        assert_eq!(point.giveups, outcome.giveups.len());
        // The registry also counts attempts of episodes still in flight at
        // end-of-run, so it can only run ahead of the resolved total.
        assert!(point.install_attempts >= outcome.install_attempts());
    }
}
