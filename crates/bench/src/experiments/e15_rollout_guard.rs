//! **E15 — guarded deployment under chaos** (the RolloutGuard campaign;
//! ISSUE 5): the paper's premise — road-testing AI/ML tools on a live
//! campus — is only defensible if a bad model can never take the network
//! down. This experiment submits two deliberately-degraded candidate
//! programs to the guard. A grossly broken one (a wildcard drop rule, the
//! distillation equivalent of a model that learned "block everything")
//! is caught in **shadow**: its verdicts are mirrored against ground
//! truth and it is vetoed before a single packet is enforced. A subtly
//! broken one passes shadow, is promoted to **canary** — and meets a
//! chaos campaign with a dead rule-install channel, whose circuit-broken
//! give-ups are rollback-eligible SLO evidence: the guard rolls back to
//! the last known-good program and confirms SLO recovery within a
//! bounded sim-time. Both runs fan out over the parallel runner and the
//! whole bundle is golden-pinned byte-for-byte.

use crate::obs_export::ObsBundle;
use crate::table::Table;
use campuslab::control::{InstallPolicy, RolloutEventKind, RolloutGuard};
use campuslab::dataplane::{Action, HeaderField, PipelineProgram, TableEntry};
use campuslab::netsim::par::parallel_map;
use campuslab::netsim::{SimDuration, SimTime};
use campuslab::obs::Tracer;
use campuslab::testbed::{
    chaos_road_test_config, guarded_road_test, Finished, GuardedRunConfig, Scenario,
};
use campuslab::Platform;

/// Grossly degraded: a wildcard drop rule that matches every packet. The
/// live campus is mostly TCP, so anything narrower (a drop-all-UDP rule,
/// say) can sneak under the shadow FP gate — this one cannot.
fn grossly_degraded() -> PipelineProgram {
    PipelineProgram::new("degraded-wildcard", vec![TableEntry::exact(&[], Action::Drop, 9, 0.5)])
}

/// Subtly degraded: collateral damage confined to DNS responses
/// (UDP, source port 53) — a slice small enough to pass the shadow FP
/// gate on mirrored traffic, so only the canary stage can judge it.
fn subtly_degraded() -> PipelineProgram {
    let dns_responses = [(HeaderField::SrcPort, 53), (HeaderField::IsUdp, 1)];
    PipelineProgram::new(
        "degraded-dns-collateral",
        vec![TableEntry::exact(&dns_responses, Action::Drop, 9, 0.5)],
    )
}

/// A guarded run's guard: decision log, registry, recovery time.
fn guard(o: &Finished) -> &RolloutGuard {
    o.stack.guard.as_ref().expect("guarded runs carry a guard")
}

/// The fault-intensity knob for the canary-rollback run's chaos campaign.
const CHAOS_INTENSITY: f64 = 0.6;

/// Run the experiment and return the full Observatory bundle: the
/// deployment timelines and verdict table plus each run's metrics dump
/// and trace. Both guarded runs are independent, self-seeded simulations,
/// so they fan out over [`parallel_map`] with byte-identical results.
pub fn run() -> ObsBundle {
    let mut out = String::from("E15: guarded deployment under chaos (shadow -> canary -> full)\n\n");
    let platform = Platform::new(Scenario::small());
    let data = platform.collect();
    let dev = platform.develop(&data);
    let model = platform.train_window_model(&data);

    // Two guarded road tests: a calm campus facing the grossly degraded
    // candidate, and a chaotic campus (link flaps, brownouts, a tap
    // blackout, and a rule-install channel that is fully down behind its
    // circuit breaker) facing the subtly degraded one.
    let specs: [(&str, f64); 2] = [("shadow-veto", 0.0), ("canary-rollback", CHAOS_INTENSITY)];
    let results: Vec<(&str, Finished)> = parallel_map(&specs, |_, &(name, intensity)| {
        let mut cfg = GuardedRunConfig::default();
        if intensity > 0.0 {
            let mut road = chaos_road_test_config(&platform.scenario, intensity, 0xE15);
            road.install = InstallPolicy {
                failure_probability: 1.0,
                breaker: true,
                ..road.install
            };
            cfg.road = road;
            cfg.submissions = vec![(SimTime::from_secs(1), subtly_degraded())];
        } else {
            cfg.submissions = vec![(SimTime::from_secs(1), grossly_degraded())];
        }
        let outcome = guarded_road_test(
            &platform.scenario,
            dev.program.clone(),
            Box::new(model.clone()),
            cfg,
        );
        (name, outcome)
    });

    let verdict = |o: &Finished| {
        guard(o)
            .events
            .iter()
            .rev()
            .find_map(|e| match &e.kind {
                RolloutEventKind::Vetoed(v) => Some(format!("vetoed in shadow ({v:?})")),
                RolloutEventKind::RolledBack(v) => Some(format!("rolled back in canary ({v:?})")),
                RolloutEventKind::Committed => Some("committed".into()),
                _ => None,
            })
            .unwrap_or_else(|| "no verdict".into())
    };
    let mut t = Table::new(&[
        "run",
        "candidate",
        "verdict",
        "windows h/v/i",
        "give-ups",
        "benign drops",
        "recovery",
        "registry",
    ]);
    for (name, o) in &results {
        let robs = o.obs.rollout.as_ref().expect("guarded runs carry rollout obs");
        let g = guard(o);
        t.row(vec![
            name.to_string(),
            g.events.first().map(|e| e.program.to_string()).unwrap_or_default(),
            verdict(o),
            format!(
                "{}/{}/{}",
                robs.windows_healthy(),
                robs.windows_violated(),
                robs.windows_inconclusive()
            ),
            robs.giveups_observed().to_string(),
            o.filter.dropped_benign.to_string(),
            g.recovery_time()
                .map(|d| format!("{:.1}s", d.as_secs_f64()))
                .unwrap_or_else(|| "-".into()),
            g.registry().len().to_string(),
        ]);
    }
    out.push_str(&t.render());

    out.push_str("\ndeployment timelines (sim-time decision log):\n");
    for (name, o) in &results {
        out.push_str(&format!("\n[{name}]\n{}", o.timeline()));
    }

    let (veto, rollback) = (guard(&results[0].1), guard(&results[1].1));
    let vetoed_in_shadow = veto
        .events
        .iter()
        .any(|e| matches!(e.kind, RolloutEventKind::Vetoed(_)))
        && !veto
            .events
            .iter()
            .any(|e| matches!(e.kind, RolloutEventKind::EnteredCanary));
    let rolled_back_in_canary = rollback
        .events
        .iter()
        .any(|e| matches!(e.kind, RolloutEventKind::EnteredCanary))
        && rollback
            .events
            .iter()
            .any(|e| matches!(e.kind, RolloutEventKind::RolledBack(_)))
        && !rollback
            .events
            .iter()
            .any(|e| matches!(e.kind, RolloutEventKind::EnteredFull));
    let recovery_bounded = rollback
        .recovery_time()
        .is_some_and(|d| d <= SimDuration::from_secs(2));
    let known_good_retained = veto.registry().len() == 1 && rollback.registry().len() == 1;
    out.push_str(&format!(
        "\nshadow vetoed the wildcard before any enforcement: {}\n\
         canary rolled back on circuit-broken install give-ups: {}\n\
         known-good restored SLOs within 2s of sim-time: {}\n\
         registry kept exactly the known-good lineage in both runs: {}\n\
         \nshape check: the guard is the paper's missing support contract - a\n\
         grossly bad model dies in shadow where its verdicts are mirrored, a\n\
         subtly bad one dies in canary where the blast radius is one access\n\
         cohort, and when the control channel itself is the casualty, give-ups\n\
         count as rollback evidence instead of vanishing. Either way the\n\
         campus ends the day on the last known-good program.\n",
        if vetoed_in_shadow { "yes" } else { "NO (bug)" },
        if rolled_back_in_canary { "yes" } else { "NO (bug)" },
        if recovery_bounded { "yes" } else { "NO (bug)" },
        if known_good_retained { "yes" } else { "NO (bug)" },
    ));

    let mut prom = String::new();
    let mut tracer = Tracer::new();
    for (name, o) in &results {
        prom.push_str(&format!("# run: {name}\n{}", o.obs.prom()));
        tracer.merge_from(&o.obs.tracer);
    }
    ObsBundle { table: out, prom, trace: tracer.render_json() }
}
