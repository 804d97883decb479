//! The two wall-clock ratios nothing exact can stand in for: what the
//! Observatory sink and the 8-shard engine each cost relative to the run
//! without them. Two runs back-to-back in one process see the same drift of
//! a shared box's speed, so a ratio needs no retry; absolute times are the
//! PerfLedger's job (`benchmark/`). Beside them, the four exact counts
//! decisions rest on: the 8-shard, par-ingest and plaza work/span, and the
//! share of a drift run a mid-run checkpoint copies.

// The workspace bans `Instant` (clippy.toml) so that nothing an experiment
// prints can depend on a clock. This file prints nothing that is pinned: it
// is a gate, and a wall-clock ratio is the one thing it exists to measure.
#![allow(clippy::disallowed_types)]

use campuslab::dataplane::AdmissionDecision;
use campuslab::netsim::prelude::*;
use campuslab::plaza::{Plaza, TenantOutcome, TenantSpec};
use campuslab::testbed::{
    collect, encode_checkpoint, fixtures, shard_by_second, AttackScenario, DriftRunConfig,
    DriftSession, Scenario,
};
use campuslab::traffic::{Injection, TrafficGenerator, WorkloadConfig};
use campuslab_bench::experiments::e18_tenant_plaza::story_cast;
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

/// Durability must never become the dominant cost of an always-on
/// pipeline. A freeze copies every pending event a rebuild cannot
/// reproduce, so those over the events the whole run dispatches are the
/// checkpoint's share of the simulation's work: at 9 s into the E17 drift
/// day it may be at most 5 %. The build-time roots it references instead
/// are printed beside them, and E19's barrier (6 s) beside that. Exact and
/// box-independent.
#[test]
fn mid_run_checkpoint_copies_at_most_5_percent_of_the_run() {
    let (program, model) = fixtures::trained().clone();
    let mut session = DriftSession::new(
        &Scenario::drift_rotation(),
        program,
        Box::new(model),
        DriftRunConfig::default(),
    );
    let mut copied = 0;
    for barrier in [6, 9] {
        session.run_until(SimTime::from_secs(barrier));
        let image = session.checkpoint();
        copied = image.net.events.len() as u64;
        let referenced = image.net.referenced;
        let bytes = encode_checkpoint(&image).len();
        println!("{barrier} s barrier: {copied} pending events copied, {referenced} referenced, {bytes} B image");
    }
    let dispatched = session.finish().obs.net.event_seq();
    let share = copied as f64 / dispatched as f64;
    println!("9 s: {copied} of {dispatched} dispatched events = {:.2} %", 100.0 * share);
    assert!(share <= 0.05, "a 9 s checkpoint copies {:.2} % of the run", 100.0 * share);
}

/// The PerfLedger's campus day (`campus_day` in `benchmark/src/scenarios.rs`,
/// seed 7): `Scenario::small()`'s campaign on the default campus, 15 s at
/// 30 sessions/s.
fn ledger_day() -> Scenario {
    Scenario {
        campus: CampusConfig::default(),
        workload: WorkloadConfig {
            duration: SimDuration::from_secs(15),
            sessions_per_sec: 30.0,
            ..WorkloadConfig::default()
        },
        attack: AttackScenario::DnsAmplification {
            victim_index: 7,
            qps: 600.0,
            start_frac: 0.15,
            duration_frac: 0.8,
        },
        ..Scenario::small()
    }
}

/// Parallel ingest builds each per-second batch of a capture on its own
/// worker (`DataStore::ingest_packet_batches`), so work is every record and
/// span the largest batch. On `Scenario::small` that bound must stay at 2x
/// or more, or the pool and `tests/par_ingest.rs` should go (DESIGN.md
/// section 9). The ledger day, the drift day and the plaza's capture
/// tenant are printed for context.
#[test]
fn par_ingest_work_over_span_is_at_least_two() {
    let figure = |name: &str, scenario: &Scenario| {
        let batches = shard_by_second(&collect(scenario).packets);
        let work: usize = batches.iter().map(Vec::len).sum();
        let span = batches.iter().map(Vec::len).max().unwrap_or(0);
        let ratio = work as f64 / span as f64;
        let n = batches.len();
        println!("{name}: {n} batches, work {work}, span {span}, work/span {ratio:.2}");
        (work, span)
    };
    figure("ledger day", &ledger_day());
    figure("drift_rotation", &Scenario::drift_rotation());
    figure("tenant_probe", &Scenario::tenant_probe());
    let (work, span) = figure("small", &Scenario::small());
    assert!(work >= 2 * span, "work {work} < 2 x span {span}: delete the par-ingest pool");
}

/// Plaza runs each admission round's slices as one worker batch, so work is
/// every slice's events and span the sum over rounds of each round's
/// largest slice. On E18's story cast that bound must stay at 2x or more,
/// or the fan-out should go. The 64-probe fleet is one round of identical
/// slices: its bound is the tenant count.
#[test]
fn plaza_work_over_span_is_at_least_two() {
    let (program, model) = fixtures::trained();
    let mut plaza = Plaza::new();
    let mut first_round = 0;
    for spec in story_cast(program, model) {
        let decision = plaza.submit(spec);
        first_round += usize::from(matches!(decision, AdmissionDecision::Admitted { .. }));
    }
    let report = plaza.run();
    assert_eq!(report.rounds, 2, "queued tenants all drain into the second round");
    let (one, two) = report.outcomes.split_at(first_round);
    let largest =
        |round: &[TenantOutcome]| round.iter().map(TenantOutcome::sim_events).max().unwrap_or(0);
    let work: u64 = report.outcomes.iter().map(TenantOutcome::sim_events).sum();
    let span = largest(one) + largest(two);
    println!(
        "story cast: {} + {} tenants, work {work}, span {span}, work/span {:.2}",
        one.len(),
        two.len(),
        work as f64 / span as f64
    );
    let mut fleet = Plaza::new();
    let admitted = (0..64)
        .map(|i| fleet.submit(TenantSpec::probe(format!("p{i}"))))
        .filter(|d| matches!(d, AdmissionDecision::Admitted { .. }))
        .count();
    println!("64-probe fleet: {admitted} identical slices in one round, work/span {admitted}");
    assert!(work >= 2 * span, "work {work} < 2 x span {span}: delete the plaza fan-out");
}
