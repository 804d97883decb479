//! Tier-1's one trip down the crash path: the paper's always-on loop is
//! only trustworthy if a killed run resumes exactly, so the root suite —
//! which otherwise never checkpoints anything — kills a drift session
//! once and demands the uninterrupted outcome back. The exhaustive
//! boundary sweep and the randomized differential live with the testbed
//! (`phoenix::tests`, `tests/phoenix_diff.rs`); this is the smoke that a
//! change to any layer a checkpoint reaches sees first.

use campuslab::netsim::SimDuration;
use campuslab::testbed::{CrashCart, DriftRunConfig, DriftSession, Scenario};
use campuslab::Platform;

#[test]
fn a_drift_session_killed_mid_run_resumes_byte_identically() {
    let platform = Platform::new(Scenario::small());
    let data = platform.collect();
    let program = platform.develop(&data).program;
    let model = platform.train_window_model(&data);

    // The amplification campus cut to a 5 s workload: guard, controller
    // and pilot all live, cheap enough for a debug build.
    let mut scenario = Scenario::small();
    scenario.workload.duration = SimDuration::from_secs(5);
    let cart = CrashCart::new(
        || {
            DriftSession::new(
                &scenario,
                program.clone(),
                Box::new(model.clone()),
                DriftRunConfig { settle: SimDuration::ZERO, ..DriftRunConfig::default() },
            )
        },
        SimDuration::from_secs(1),
    );
    // Boundary 2 is t = 3 s: the attack is on, the controller has
    // mitigated, the pilot's first retrain is behind it, and two seconds
    // of traffic are still pending in the event queue.
    let boundaries = cart.boundaries();
    assert_eq!(boundaries.len(), 5);
    let resumed = cart.killed_at(2).expect("a clean envelope decodes");
    let baseline = cart.uninterrupted();
    assert!(!baseline.0.is_empty(), "the run produced a timeline");
    assert_eq!(resumed, baseline, "killed at {} != uninterrupted", boundaries[2]);
}
