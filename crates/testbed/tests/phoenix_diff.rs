//! The PhoenixRun differential, as a property: for a *random* drift
//! scenario (workload span), a *random* checkpoint grid, and a *random*
//! kill point on that grid, killing the process at the boundary —
//! carrying nothing across but the encoded checkpoint bytes — and
//! resuming in a fresh session must reproduce the uninterrupted run's
//! fingerprint byte for byte.
//!
//! The in-crate sweep (`phoenix::tests::kill_at_every_boundary_...`)
//! pins one fixed scenario exhaustively; this suite walks the scenario
//! space. Case counts are small because each case pays for two full
//! simulation runs; the vendored proptest shim keeps every index
//! deterministic, so a failure here reproduces exactly.

use campuslab_netsim::SimDuration;
use campuslab_testbed::fixtures::trained;
use campuslab_testbed::{CrashCart, DriftRunConfig, DriftSession, Scenario};
use proptest::prelude::*;
use proptest::{proptest, ProptestConfig};

/// A drift session over the amplification scenario cut to `dur_s`
/// seconds of workload, no settle margin — the cheapest full stack that
/// still exercises guard + controller + pilot.
fn session(dur_s: u64) -> DriftSession {
    let (program, model) = trained();
    let mut scenario = Scenario::small();
    scenario.workload.duration = SimDuration::from_secs(dur_s);
    DriftSession::new(
        &scenario,
        program.clone(),
        Box::new(model.clone()),
        DriftRunConfig { settle: SimDuration::ZERO, ..DriftRunConfig::default() },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    #[test]
    fn any_kill_point_on_any_grid_resumes_byte_identically(
        dur_s in 4u64..7,
        step_halves in 1u64..4,
        kill_permille in 0u64..1000,
    ) {
        let step = SimDuration::from_millis(500 * step_halves);
        let cart = CrashCart::new(move || session(dur_s), step);
        let boundaries = cart.boundaries();
        let kill = ((kill_permille * boundaries.len() as u64) / 1000) as usize;
        let baseline = cart.uninterrupted();
        let resumed = cart.killed_at(kill).expect("the envelope round trip is lossless");
        prop_assert_eq!(baseline, resumed, "kill at boundary {} of {}", kill, boundaries.len());
    }
}
