//! The three wall-clock ratios nothing exact can stand in for: what the
//! Observatory sink, a mid-campaign checkpoint freeze and the 8-shard engine
//! each cost relative to the run without them. Two runs back-to-back in one
//! process see the same drift of a shared box's speed, so a ratio needs no
//! retry; absolute times are the PerfLedger's job (`benchmark/`). Beside
//! them, the one exact count a decision rests on: the 8-shard work/span.

// The workspace bans `Instant` (clippy.toml) so that nothing an experiment
// prints can depend on a clock. This file prints nothing that is pinned: it
// is a gate, and a wall-clock ratio is the one thing it exists to measure.
#![allow(clippy::disallowed_types)]

use campuslab::netsim::prelude::*;
use campuslab::testbed::{DriftRunConfig, DriftSession, Scenario};
use campuslab::traffic::{Injection, TrafficGenerator, WorkloadConfig};
use campuslab::Platform;
use std::{hint::black_box, sync::Mutex, time::Instant};

/// Tests in one binary run on parallel threads; timed runs take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Pairs per gate: the only knob when quartiles straddle a limit on a quiet box.
const PAIRS: usize = 50;

/// Median over [`PAIRS`] of `time(num) / time(den)`, each side fed a fresh
/// untimed `setup()`. Which side runs first alternates pair by pair, so
/// warm-up and drift land on both sides equally instead of on one.
fn median_pair_ratio<I>(setup: impl Fn() -> I, num: impl Fn(I), den: impl Fn(I)) -> f64 {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let time = |side: &dyn Fn(I)| {
        let input = setup();
        let started = Instant::now();
        side(input);
        started.elapsed().as_secs_f64()
    };
    let mut ratios: Vec<f64> = (0..PAIRS)
        .map(|pair| {
            if pair % 2 == 0 {
                let n = time(&num);
                n / time(&den)
            } else {
                let d = time(&den);
                time(&num) / d
            }
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let [q1, q3] = [1, 3].map(|quarter| ratios[(PAIRS - 1) * quarter / 4]);
    let median = (ratios[(PAIRS - 1) / 2] + ratios[PAIRS / 2]) / 2.0;
    println!("{PAIRS} pairs: median {median:.3}, quartiles {q1:.3}..{q3:.3}");
    median
}

fn small_campus() -> Campus {
    Campus::build(CampusConfig {
        dist_count: 2,
        access_per_dist: 2,
        hosts_per_access: 4,
        external_hosts: 8,
        ..CampusConfig::default()
    })
}

/// One second of campus traffic, generated once and replayed per run.
fn campus_second() -> Vec<Injection> {
    let workload = WorkloadConfig {
        duration: SimDuration::from_secs(1),
        sessions_per_sec: 20.0,
        ..WorkloadConfig::default()
    };
    let generated = TrafficGenerator::new(&small_campus(), workload).generate();
    generated.into_injections()
}

/// One timed run of the campus second on a fresh campus: sink on or off,
/// under the sequential loop or `shards` shards.
fn campus_run(sink_on: bool, shards: Option<usize>) -> impl Fn((Network, Vec<Injection>)) {
    move |(mut net, injections)| {
        net.obs.sink.set_enabled(sink_on);
        for inj in injections {
            net.inject(inj.at, inj.node, inj.packet);
        }
        match shards {
            Some(n) => net.run_sharded(&mut NullHooks, None, n),
            None => net.run_sequential(&mut NullHooks, None),
        }
        black_box(net.stats.delivered);
    }
}

/// Obs bumps must stay plain `u64` adds: the instrumented event loop
/// within 5% of the same run with the sink gated off.
#[test]
#[cfg_attr(debug_assertions, ignore = "times optimised code only")]
fn obs_sink_costs_at_most_5_percent() {
    let injections = campus_second();
    let fresh = || (small_campus().net, injections.clone());
    let ratio = median_pair_ratio(fresh, campus_run(true, None), campus_run(false, None));
    assert!(ratio <= 1.05, "obs sink on / off = {ratio:.3}");
}

/// Durability must never become the dominant cost of an always-on pipeline:
/// the E17 drift run (session build included) with one checkpoint frozen at a
/// mid-campaign barrier within 5% of the plain run. (Encoding the image is
/// off the simulation path; the ledger prices it as `testbed.encode_s`.)
#[test]
#[cfg_attr(debug_assertions, ignore = "times optimised code only")]
fn mid_run_checkpoint_costs_at_most_5_percent() {
    let platform = Platform::new(Scenario::small());
    let data = platform.collect();
    let program = platform.develop(&data).program;
    let model = platform.train_window_model(&data);
    let scenario = Scenario::drift_rotation();
    let session = || {
        DriftSession::new(
            &scenario,
            program.clone(),
            Box::new(model.clone()),
            DriftRunConfig::default(),
        )
    };
    let ratio = median_pair_ratio(
        || (),
        |()| {
            let mut session = session();
            session.run_until(SimTime::from_secs(9));
            black_box(session.checkpoint().net.events.len());
            drop(black_box(session.finish()));
        },
        |()| drop(black_box(session().finish())),
    );
    assert!(ratio <= 1.05, "checkpointed / plain drift run = {ratio:.3}");
}

/// The 8-shard engine drives its windows on the calling thread, so there
/// is no parallelism to harvest: partitioning, barriers and reassembly on
/// the campus second may cost at most 30% over the sequential loop.
#[test]
#[cfg_attr(debug_assertions, ignore = "times optimised code only")]
fn eight_shards_pay_for_their_coordination() {
    let injections = campus_second();
    let fresh = || (small_campus().net, injections.clone());
    let ratio = median_pair_ratio(fresh, campus_run(true, Some(8)), campus_run(true, None));
    assert!(ratio <= 1.30, "8-shard / sequential = {ratio:.3}");
}

/// Why those windows run inline: `work_events / span_events` is the most
/// any executor, with free barriers and a core per shard, could gain from
/// running a window's shards at once, and on the campus it is under 2x at
/// 8 shards. Exact and box-independent; if a topology or partitioner change
/// ever lifts it past 2x, this fails and a worker pool is worth re-opening
/// (DESIGN.md section 11).
#[test]
fn eight_shard_work_over_span_is_below_two() {
    let mut net = small_campus().net;
    for inj in campus_second() {
        net.inject(inj.at, inj.node, inj.packet);
    }
    net.run_sharded(&mut NullHooks, None, 8);
    let report = net.shard_report().expect("a sharded run leaves a report");
    let (work, span) = (report.work_events, report.span_events);
    println!("{} shards: work {work}, span {span}, work/span {:.3}", report.shards, work as f64 / span as f64);
    assert!(!report.fell_back && report.shards > 1, "did not shard: {report:?}");
    assert_eq!(work, net.obs.event_seq(), "work is every dispatched event, once");
    assert!(work < 2 * span, "work {work} >= 2 x span {span}: re-open the pool question");
}
