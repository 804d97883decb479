//! `sim_forward` and `sim_sharded`: the simulator alone, no tap, no ML.
//! The day's injections are generated once in set-up; an iteration builds
//! a fresh campus, injects them and runs the network dry.

use super::{Checks, Digest, Specific, Verdict, Workload};
use crate::harness::median;
use crate::scenarios::{campus_day, victim_index, SHARDS};
use crate::trace::Trace;
use campuslab::netsim::{Campus, CampusConfig, NetStats, Network, NullHooks};
use campuslab::testbed::build_schedule;
use campuslab::traffic::Schedule;
use std::time::Instant;

/// What set-up leaves behind for both workloads.
struct Injections {
    campus: CampusConfig,
    schedule: Schedule,
    victim_index: u64,
}

/// Spans: `netsim.campus_build`, `traffic.generate`.
fn generate(seed: u64, smoke: bool, t: &mut Trace) -> Injections {
    let scenario = campus_day(seed, smoke);
    let campus = t.span("netsim.campus_build", |_| {
        Campus::build(scenario.campus.clone())
    });
    let ((schedule, ..), allocations) =
        crate::alloc::count(|| t.span("traffic.generate", |_| build_schedule(&campus, &scenario)));
    t.set("traffic.packets", schedule.len() as f64);
    t.set(
        "traffic.allocs_per_pkt",
        allocations as f64 / schedule.len() as f64,
    );
    Injections {
        victim_index: victim_index(&scenario),
        campus: scenario.campus,
        schedule,
    }
}

impl Injections {
    /// Build a fresh campus, inject the day, run it with `run` under the
    /// span `run_span`. Spans: `netsim.campus_build`, `netsim.inject`.
    fn simulate(
        &mut self,
        t: &mut Trace,
        run_span: &'static str,
        run: impl FnOnce(&mut Network),
    ) -> Network {
        let mut campus = t.span("netsim.campus_build", |_| {
            Campus::build(self.campus.clone())
        });
        let ((), allocations) = crate::alloc::count(|| {
            t.span("netsim.inject", |_| self.schedule.apply_to(&mut campus.net));
            t.span(run_span, |_| run(&mut campus.net));
        });
        t.set(
            "netsim.allocs_per_pkt",
            allocations as f64 / self.schedule.len() as f64,
        );
        campus.net
    }

    fn digest(&self, stats: &NetStats) -> Digest {
        let mut digest = Digest::new();
        digest.add(self.victim_index).add_net(stats);
        digest
    }
}

pub struct SimForward(Injections);

pub fn setup_forward(seed: u64, smoke: bool, t: &mut Trace) -> Box<dyn Workload> {
    Box::new(SimForward(generate(seed, smoke, t)))
}

impl Workload for SimForward {
    fn iterate(&mut self, t: &mut Trace) -> Verdict {
        let net = self.0.simulate(t, "netsim.run", |net| {
            net.run_sequential(&mut NullHooks, None)
        });
        t.set("netsim.events", net.obs.event_seq() as f64);
        t.set("netsim.delivered", net.stats.delivered as f64);
        t.set("netsim.dropped_queue", net.stats.dropped_queue as f64);
        let mut checks = Checks::default();
        checks.conserved("sim_forward", &net.stats);
        let scheduled = self.0.schedule.len();
        checks.require(net.stats.injected as usize == scheduled, || {
            format!("injected {} of {scheduled} scheduled", net.stats.injected)
        });
        checks.verdict(&self.0.digest(&net.stats), Specific::default())
    }

    /// `obs.overhead_share`: the same run with the Observatory sink on and
    /// off, five pairs, alternating which goes first.
    fn probes(&mut self, t: &mut Trace) {
        let mut timed_run = |sink_on: bool| {
            let mut campus = Campus::build(self.0.campus.clone());
            self.0.schedule.apply_to(&mut campus.net);
            campus.net.obs.sink.set_enabled(sink_on);
            let started = Instant::now();
            campus.net.run_sequential(&mut NullHooks, None);
            started.elapsed().as_secs_f64()
        };
        let mut shares: Vec<f64> = (0..5)
            .map(|pair| {
                let (on, off) = if pair % 2 == 0 {
                    let on = timed_run(true);
                    (on, timed_run(false))
                } else {
                    let off = timed_run(false);
                    (timed_run(true), off)
                };
                (on - off) / off
            })
            .collect();
        t.set("obs.overhead_share", median(&mut shares));
        eprintln!(
            "obs.overhead_share pairs (sorted): {}",
            shares
                .iter()
                .map(|s| format!("{s:+.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
}

pub struct SimSharded {
    injections: Injections,
    /// Statistics of a sequential run of the same injections.
    reference: NetStats,
}

/// Spans: those of [`generate`], and the sequential reference run's
/// `netsim.run`, the base of `netsim.shard.speedup`.
pub fn setup_sharded(seed: u64, smoke: bool, t: &mut Trace) -> Box<dyn Workload> {
    let mut injections = generate(seed, smoke, t);
    let reference = injections
        .simulate(t, "netsim.run", |net| {
            net.run_sequential(&mut NullHooks, None)
        })
        .stats;
    Box::new(SimSharded {
        injections,
        reference,
    })
}

impl Workload for SimSharded {
    fn iterate(&mut self, t: &mut Trace) -> Verdict {
        let net = self.injections.simulate(t, "netsim.shard.run", |net| {
            net.run_sharded(&mut NullHooks, None, SHARDS)
        });
        let report = net.shard_report().unwrap_or_default();
        t.set("netsim.shard.windows", report.windows as f64);
        t.set("netsim.shard.serial_phases", report.serial_phases as f64);
        t.set("netsim.shard.cross_packets", report.cross_packets as f64);
        t.set("netsim.shard.replayed_hooks", report.replayed_hooks as f64);
        let mut checks = Checks::default();
        checks.conserved("sim_sharded", &net.stats);
        checks.require(net.stats == self.reference, || {
            format!(
                "sharded stats {:?} != sequential {:?}",
                net.stats, self.reference
            )
        });
        checks.require(!report.fell_back && report.shards > 1, || {
            format!("sharded engine did not shard: {report:?}")
        });
        let mut digest = self.injections.digest(&net.stats);
        digest.add(report.shards as u64);
        checks.verdict(&digest, Specific::default())
    }
}
