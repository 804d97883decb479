//! **E17 — always-on pipeline under drift** (the DriftPilot campaign;
//! ISSUE 8): the paper's Figure-2 loop is drawn as a cycle, but every
//! earlier experiment ran it exactly once — collect, train, distill,
//! compile, deploy, done. A real campus drifts: attackers rotate
//! reflector ports and prefixes, the traffic mix moves. This experiment
//! plays the rotating-reflection scenario twice. **Undefended**, the
//! stale program (trained on phase one's port-53 signature) rides the
//! ordinary mitigation controller and never sees phase two coming — the
//! port-123 answers sail through until the run ends. **Defended**, a
//! DriftPilot streams features off the same tap, scores each sealed
//! window for drift, retrains on fresh windows when the rotation fires
//! its threshold, and walks the re-distilled, re-compiled candidate
//! through the rollout guard's shadow → canary → full ladder. The
//! headline number is sim-time from drift onset to
//! mitigated-with-SLOs-green (`dp_drift_ttm_ms`), and the whole bundle
//! is golden-pinned byte-for-byte under the sequential and parallel
//! executors.

use crate::obs_export::ObsBundle;
use crate::table::Table;
use campuslab::control::RolloutEventKind;
use campuslab::netsim::{SimDuration, SimTime};
use campuslab::obs::Tracer;
use campuslab::testbed::{
    drift_road_test, road_test, AttackScenario, DriftRunConfig, RoadTestConfig, Scenario,
};
use campuslab::Platform;

/// Run the experiment and return the full Observatory bundle.
pub fn run() -> ObsBundle {
    let mut out =
        String::from("E17: always-on learn->distill->compile->deploy under drift (DriftPilot)\n\n");
    let scenario = Scenario::drift_rotation();

    // The stale lineage: a program and window model developed offline on
    // the amplification scenario — phase one's exact signature, and the
    // last thing any one-shot pipeline would ever learn.
    let platform = Platform::new(Scenario::small());
    let data = platform.collect();
    let dev = platform.develop(&data);
    let model = platform.train_window_model(&data);

    // When the attacker rotates (the last phase's start): drift onset for
    // the undefended run's censored clock.
    let rotation_onset = match &scenario.attack {
        AttackScenario::RotatingReflection { phases, .. } => {
            let span = scenario.workload.duration.as_secs_f64();
            let (_, frac, _) = *phases.last().expect("rotation scenario has phases");
            SimTime::ZERO + SimDuration::from_secs_f64(span * frac)
        }
        _ => unreachable!("drift_rotation is a rotating-reflection scenario"),
    };

    let undefended = road_test(
        &scenario,
        dev.program.clone(),
        Some(Box::new(model.clone())),
        RoadTestConfig::default(),
    );
    let defended = drift_road_test(
        &scenario,
        dev.program.clone(),
        Box::new(model),
        DriftRunConfig::default(),
    );

    let dobs = defended.obs.drift.as_ref().expect("drift runs carry drift obs");
    // The rotation episode: the drift episode that opened once the
    // attacker moved to the port-123 pool.
    let rotation_episode =
        defended.episodes.iter().find(|e| e.onset >= rotation_onset);
    let defended_ttm = rotation_episode.and_then(|e| e.mitigated.map(|m| m - e.onset));
    // Undefended there is no pilot: the drift is never mitigated, so its
    // TTM is censored at the end of the run.
    let run_end = SimTime(undefended.obs.tracer.spans().first().map(|s| s.end_ns).unwrap_or(0));
    let censored_ttm = run_end - rotation_onset;

    let mut t = Table::new(&[
        "run",
        "retrains p/d",
        "cand sub/com/veto",
        "episodes",
        "drift ttm",
        "attack passed",
        "benign dropped",
    ]);
    t.row(vec![
        "undefended".into(),
        "0/0".into(),
        "0/0/0".into(),
        "-".into(),
        format!(">{:.1}s (censored)", censored_ttm.as_secs_f64()),
        undefended.attack_packets_passed.to_string(),
        undefended.benign_packets_dropped.to_string(),
    ]);
    t.row(vec![
        "defended".into(),
        format!("{}/{}", dobs.retrains_periodic(), dobs.retrains_drift()),
        format!("{}/{}/{}", dobs.submitted(), dobs.committed(), dobs.vetoed()),
        defended.episodes.len().to_string(),
        defended_ttm
            .map(|d| format!("{:.1}s", d.as_secs_f64()))
            .unwrap_or_else(|| "-".into()),
        defended.filter.passed_attack.to_string(),
        defended.filter.dropped_benign.to_string(),
    ]);
    out.push_str(&t.render());

    out.push_str("\npipeline timeline (defended run, sim-time log):\n\n");
    out.push_str(&defended.timeline());

    let episode_after_rotation = rotation_episode.is_some();
    let candidate_committed = defended
        .events
        .iter()
        .any(|e| matches!(e.kind, RolloutEventKind::Committed))
        && defended.final_deployed != dev.program.fingerprint();
    let mitigated_green = defended_ttm.is_some();
    let beats_censored = defended_ttm.is_some_and(|d| d < censored_ttm);
    let leak_contained = defended.filter.passed_attack < undefended.attack_packets_passed;
    out.push_str(&format!(
        "\npilot opened a drift episode after the port rotation: {}\n\
         a retrained candidate was committed and the deployed lineage moved: {}\n\
         drift was mitigated with SLOs green before the run ended: {}\n\
         defended TTM beats the undefended (censored) TTM: {}\n\
         the defended campus passed fewer attack packets: {}\n\
         \nshape check: one-shot development is a snapshot, and the snapshot\n\
         goes stale the moment the attacker rotates. The always-on pilot turns\n\
         Figure 2 into the loop the paper drew: drift scored on the live tap,\n\
         retraining on fresh windows, re-distillation and re-compilation under\n\
         the same resource budget, and deployment only through the guarded\n\
         shadow -> canary -> full ladder that E15 proved safe.\n",
        if episode_after_rotation { "yes" } else { "NO (bug)" },
        if candidate_committed { "yes" } else { "NO (bug)" },
        if mitigated_green { "yes" } else { "NO (bug)" },
        if beats_censored { "yes" } else { "NO (bug)" },
        if leak_contained { "yes" } else { "NO (bug)" },
    ));

    let mut prom = String::new();
    let mut tracer = Tracer::new();
    for (name, obs) in [("undefended", &undefended.obs), ("defended", &defended.obs)] {
        prom.push_str(&format!("# run: {name}\n{}", obs.prom()));
        tracer.merge_from(&obs.tracer);
    }
    ObsBundle { table: out, prom, trace: tracer.render_json() }
}
