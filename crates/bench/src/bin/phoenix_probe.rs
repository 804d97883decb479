//! Operator probe for PhoenixRun: stage-by-stage wall-clock and sizes
//! for the checkpoint path (run-to-barrier, freeze, envelope encode,
//! decode, restore, run-to-completion) on the small and drift-rotation
//! scenarios. Run it when a kill-point sweep feels slow to see which
//! stage is paying.

use campuslab::netsim::{SimDuration, SimTime};
use campuslab::testbed::{
    decode_checkpoint, encode_checkpoint, fingerprint, DriftRunConfig, DriftSession, Scenario,
};
use campuslab::Platform;
use std::time::Instant;

fn main() {
    let platform = Platform::new(Scenario::small());
    let t = Instant::now();
    let data = platform.collect();
    eprintln!("collect(small): {:.2?}", t.elapsed());
    let t = Instant::now();
    let dev = platform.develop(&data);
    eprintln!("develop: {:.2?}", t.elapsed());
    let t = Instant::now();
    let model = platform.train_window_model(&data);
    eprintln!("train_window_model: {:.2?}", t.elapsed());

    for (name, scenario, barrier) in [
        ("small-5s", {
            let mut s = Scenario::small();
            s.workload.duration = SimDuration::from_secs(5);
            s
        }, SimTime::from_millis(1_500)),
        ("drift_rotation", Scenario::drift_rotation(), SimTime::from_secs(6)),
    ] {
        eprintln!("--- {name} ---");
        let make = || {
            DriftSession::new(
                &scenario,
                dev.program.clone(),
                Box::new(model.clone()),
                DriftRunConfig::default(),
            )
        };
        let t = Instant::now();
        let mut session = make();
        eprintln!("  build: {:.2?}", t.elapsed());
        let t = Instant::now();
        session.run_until(barrier);
        eprintln!("  run_until({barrier:?}): {:.2?}", t.elapsed());
        let t = Instant::now();
        let cp = session.checkpoint();
        eprintln!("  checkpoint(): {:.2?}", t.elapsed());
        let t = Instant::now();
        let bytes = encode_checkpoint(&cp);
        eprintln!("  encode: {:.2?} ({} bytes)", t.elapsed(), bytes.len());
        // What the image is made of: how far it shrinks when each part is
        // emptied (exact up to the emptied part's own count/tag bytes).
        let without = |empty: &dyn Fn(&mut campuslab::testbed::PhoenixCheckpoint)| {
            let mut part = cp.clone();
            empty(&mut part);
            bytes.len() - encode_checkpoint(&part).len()
        };
        let events = without(&|c| c.net.events.clear());
        let hooks = without(&|c| (c.hooks.guard, c.hooks.controller, c.hooks.pilot) = (None, None, None));
        let bank = without(&|c| c.bank.entries.clear());
        eprintln!(
            "    image: {} pending events {events} B ({:.1} B/event), hook stack {hooks} B, \
             bank {bank} B, rest (nodes, links, obs, envelope) {} B",
            cp.net.events.len(),
            events as f64 / cp.net.events.len().max(1) as f64,
            bytes.len() - events - hooks - bank,
        );
        let t = Instant::now();
        let back = decode_checkpoint(&bytes).expect("clean envelope decodes");
        eprintln!("  decode: {:.2?}", t.elapsed());
        let t = Instant::now();
        let mut revived = make();
        revived.restore(back);
        eprintln!("  build+restore: {:.2?}", t.elapsed());
        let t = Instant::now();
        let fp = fingerprint(&revived.finish());
        eprintln!("  finish: {:.2?} (timeline {} lines)", t.elapsed(), fp.0.len());

        // Grid-stepped driving (what CrashCart does) vs the single-shot
        // run above: equal bytes by contract, and this prints the price.
        let t = Instant::now();
        let mut stepped = make();
        let deadline = stepped.deadline();
        let step = SimDuration::from_secs(3);
        let mut at = SimTime::ZERO;
        let mut steps = 0u32;
        while at < deadline {
            at += step;
            let t1 = Instant::now();
            stepped.run_until(at);
            eprintln!("    step to {at:?}: {:.2?}", t1.elapsed());
            steps += 1;
        }
        let fp2 = fingerprint(&stepped.finish());
        eprintln!("  grid-stepped run ({steps} steps): {:.2?} (equal: {})", t.elapsed(), fp2 == fp);
    }
}
