//! PhoenixRun checkpoint overhead: the wall-clock price of freezing a
//! mid-campaign checkpoint during the E17 drift run. The E19 experiment
//! pins the *bytes* of checkpoint/restore; this bench pins the *price*
//! — ci.sh reads `BENCH_phoenix.json` and gates the freeze-at-a-barrier
//! run within 5% of the checkpoint-free baseline, so durability never
//! quietly becomes the dominant cost of an always-on pipeline. The
//! envelope encode (pure serialization of an already-frozen image, off
//! the simulation path) is priced by the PerfLedger's `testbed.encode_s`.

use campuslab::netsim::SimTime;
use campuslab::testbed::{DriftRunConfig, DriftSession, Scenario};
use campuslab::Platform;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    // Machine-readable results for CI and the perf history; the
    // BENCH_JSON environment variable still overrides the path.
    c.json_path("BENCH_phoenix.json");

    // The E17 lineage, trained once for both routines.
    let platform = Platform::new(Scenario::small());
    let data = platform.collect();
    let dev = platform.develop(&data);
    let model = platform.train_window_model(&data);
    let scenario = Scenario::drift_rotation();
    let make = || {
        DriftSession::new(
            &scenario,
            dev.program.clone(),
            Box::new(model.clone()),
            DriftRunConfig::default(),
        )
    };

    c.bench_function("phoenix/drift_run_plain", |b| {
        b.iter(|| {
            let session = make();
            let outcome = session.finish();
            black_box(outcome.net.delivered)
        })
    });

    // The same run paying for durability: one mid-campaign checkpoint
    // frozen at a quiescent barrier (the non-destructive event-queue
    // drain + re-schedule plus every layer's freeze). This is the cost
    // the *simulation* pays; encoding the frozen image to bytes happens
    // off the hot path.
    c.bench_function("phoenix/drift_run_checkpointed", |b| {
        b.iter(|| {
            let mut session = make();
            session.run_until(SimTime::from_secs(9));
            black_box(session.checkpoint().net.events.len());
            let outcome = session.finish();
            black_box(outcome.net.delivered)
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
