//! `pipeline_e1`: the paper's road to deployment on one campus day —
//! collect → store → develop → train the window model → road-test with
//! the detector at the controller tier.
//!
//! End-to-end numbers come from the product's own entry points
//! (`Platform::collect`, `store`, `develop`, `train_window_model`,
//! `road_test_at`), one span each. Only a recorded iteration composes
//! collection, the window model and the road test from their public
//! pieces, to get spans at the layer boundaries inside them; its digest
//! must equal the direct iterations', which is what keeps the copies from
//! drifting away from the originals.

use super::{Checks, Digest, Specific, Verdict, Workload};
use crate::harness::median;
use crate::scenarios::{campus_day, victim_index};
use crate::trace::{run_hooked, Trace};
use campuslab::capture::{BorderTapHooks, PacketRecord};
use campuslab::control::{
    BankFilter, DevLoopResult, FastLoopStatsSnapshot, InstallGiveUp, MitigationController,
    MitigationControllerConfig, MitigationEvent, Placement,
};
use campuslab::dataplane::{fields_from_record, FieldExtractor, PipelineProgram};
use campuslab::datastore::DataStore;
use campuslab::features::{window_dataset, LabelMode, WindowConfig};
use campuslab::ml::{DecisionTree, TreeConfig};
use campuslab::netsim::{Campus, NetStats, SimTime};
use campuslab::testbed::{build_schedule, CollectedData, RoadTestConfig, RunObs, Scenario};
use campuslab::wire::{DnsMessage, DnsRcode, DnsRecord, DnsRecordData, DnsType};
use campuslab::Platform;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;

pub struct PipelineE1 {
    platform: Platform,
    /// Packets the day schedules, learnt in set-up; both simulations of
    /// every iteration must inject exactly these.
    scheduled: usize,
    /// Capture and compiled program of the last recorded iteration, kept
    /// for the probes.
    last: Option<(Vec<PacketRecord>, PipelineProgram)>,
}

/// Spans: `netsim.campus_build`, `traffic.generate`.
pub fn setup(seed: u64, smoke: bool, t: &mut Trace) -> Box<dyn Workload> {
    let scenario = campus_day(seed, smoke);
    let campus = t.span("netsim.campus_build", |_| {
        Campus::build(scenario.campus.clone())
    });
    let (schedule, ..) = t.span("traffic.generate", |_| build_schedule(&campus, &scenario));
    Box::new(PipelineE1 {
        platform: Platform::new(scenario),
        scheduled: schedule.len(),
        last: None,
    })
}

/// What the checks and the digest need of a road test, from either path.
struct Road {
    net: NetStats,
    filter: FastLoopStatsSnapshot,
    mitigations: Vec<MitigationEvent>,
    giveups: Vec<InstallGiveUp>,
    attack_start: Option<SimTime>,
}

/// A fresh campus with the scenario's schedule injected.
struct Loaded {
    campus: Campus,
    scheduled: usize,
    victim: Option<Ipv4Addr>,
    attack_start: Option<SimTime>,
}

/// Spans: `netsim.campus_build`, `traffic.generate`, `netsim.inject`.
fn loaded_campus(scenario: &Scenario, t: &mut Trace) -> Loaded {
    let mut campus = t.span("netsim.campus_build", |_| {
        Campus::build(scenario.campus.clone())
    });
    let (mut schedule, victim, attack_start) =
        t.span("traffic.generate", |_| build_schedule(&campus, scenario));
    t.span("netsim.inject", |_| schedule.apply_to(&mut campus.net));
    Loaded {
        campus,
        scheduled: schedule.len(),
        victim,
        attack_start,
    }
}

/// `testbed::collect`, with a span at each layer boundary. Spans: those
/// of [`loaded_campus`], `netsim.run` with `capture.on_tap` split out,
/// `capture.finish`.
fn collect_composed(scenario: &Scenario, t: &mut Trace) -> CollectedData {
    let loaded = loaded_campus(scenario, t);
    let mut net = loaded.campus.net;
    let mut hooks = BorderTapHooks::new(loaded.campus.border_link, scenario.monitor.clone());
    run_hooked(t, &mut net, &mut hooks, "capture.on_tap");
    t.span("capture.finish", |_| hooks.monitor.finish());
    let ring = hooks.monitor.ring_stats();
    let monitor = hooks.monitor.stats;
    let packets = hooks.monitor.take_packet_records();
    let flows = hooks.monitor.take_flow_records();
    let dns = hooks.monitor.take_dns_records();
    let rtts = hooks.monitor.take_rtt_records();
    let mut obs = RunObs::net_only(net.obs);
    obs.capture = Some(hooks.monitor.obs);
    CollectedData {
        packets,
        flows,
        dns,
        rtts,
        net: net.stats,
        ring,
        monitor,
        scheduled: loaded.scheduled,
        victim: loaded.victim,
        attack_start: loaded.attack_start,
        obs,
    }
}

/// `testbed::road_test` at `Placement::Controller` with default knobs,
/// with a span at each layer boundary. Spans: those of [`loaded_campus`],
/// `netsim.run` with `control.controller_hooks` split out.
fn road_test_composed(
    scenario: &Scenario,
    program: PipelineProgram,
    window_model: DecisionTree,
    t: &mut Trace,
) -> Road {
    let Loaded {
        campus,
        attack_start,
        ..
    } = loaded_campus(scenario, t);
    let mut net = campus.net;
    let (bank, handle) = BankFilter::new(FieldExtractor::new(scenario.campus.campus_prefix()));
    net.install_filter(campus.border, bank);
    let knobs = RoadTestConfig::default();
    let mut controller = MitigationController::new(
        MitigationControllerConfig {
            tap: campus.border_link,
            placement: Placement::Controller,
            gate: knobs.gate,
            window_ns: knobs.window_ns,
            min_packets: knobs.min_packets,
            program,
            install: knobs.install,
            tap_blackouts: knobs.tap_blackouts,
        },
        Box::new(window_model),
        handle.clone(),
    );
    run_hooked(t, &mut net, &mut controller, "control.controller_hooks");
    Road {
        net: net.stats,
        filter: handle.stats(),
        mitigations: controller.events,
        giveups: controller.giveups,
        attack_start,
    }
}

impl PipelineE1 {
    fn direct(&self, t: &mut Trace) -> (CollectedData, DataStore, DevLoopResult, Road) {
        let p = &self.platform;
        let data = t.span("testbed.collect", |_| p.collect());
        let store = t.span("datastore.ingest", |_| p.store(&data));
        let dev = t.span("control.devloop", |_| p.develop(&data));
        let window_model = t.span("ml.window_model", |_| p.train_window_model(&data));
        let outcome = t.span("testbed.road_test", |_| {
            p.road_test_at(&dev, window_model, Placement::Controller)
        });
        let road = Road {
            net: outcome.net,
            filter: outcome.filter,
            mitigations: outcome.mitigations,
            giveups: outcome.giveups,
            attack_start: outcome.attack_start,
        };
        (data, store, dev, road)
    }

    fn composed(&self, t: &mut Trace) -> (CollectedData, DataStore, DevLoopResult, Road) {
        let p = &self.platform;
        // The two stages the testbed composes are reported whole, not as
        // the glue left once their inner layers are taken out.
        let whole = |t: &Trace, before| (t.wall() - before).as_secs_f64();
        let before = t.wall();
        let data = t.span("testbed.collect", |t| collect_composed(&p.scenario, t));
        let collect_s = whole(t, before);
        t.set("testbed.collect_s", collect_s);
        let (store, allocations) =
            crate::alloc::count(|| t.span("datastore.ingest", |_| p.store(&data)));
        t.set(
            "datastore.allocs_per_rec",
            allocations as f64 / data.packets.len() as f64,
        );
        let dev = t.span("control.devloop", |_| p.develop(&data));
        // `Platform::train_window_model`, split at the layer boundary.
        let window_model = t.span("ml.window_model", |t| {
            let windows = t.span("features.window_dataset", |_| {
                window_dataset(
                    &data.packets,
                    WindowConfig {
                        window_ns: 1_000_000_000,
                        min_packets: 5,
                    },
                    LabelMode::BinaryAttack,
                )
            });
            t.span("ml.window_tree_fit", |_| {
                DecisionTree::fit(&windows, TreeConfig::shallow(4))
            })
        });
        let before = t.wall();
        let road = t.span("testbed.road_test", |t| {
            road_test_composed(&p.scenario, dev.program.clone(), window_model, t)
        });
        let road_test_s = whole(t, before);
        t.set("testbed.road_test_s", road_test_s);
        (data, store, dev, road)
    }
}

impl Workload for PipelineE1 {
    fn iterate(&mut self, t: &mut Trace) -> Verdict {
        let (data, store, dev, road) = if t.recording() {
            self.composed(t)
        } else {
            self.direct(t)
        };

        let captured = data.packets.len();
        t.set("capture.observed", data.monitor.observed as f64);
        t.set("capture.captured", data.monitor.captured as f64);
        t.set("capture.ring_dropped", data.ring.dropped as f64);
        t.set(
            "capture.capture_ratio",
            data.monitor.captured as f64 / data.monitor.observed as f64,
        );
        t.set("traffic.packets", data.scheduled as f64);
        t.set("control.mitigations", road.mitigations.len() as f64);
        t.set("control.install_giveups", road.giveups.len() as f64);

        let mut checks = Checks::default();
        checks.conserved("collect", &data.net);
        checks.conserved("road test", &road.net);
        for (which, injected) in [
            ("collect", data.net.injected),
            ("road test", road.net.injected),
        ] {
            checks.require(injected as usize == self.scheduled, || {
                format!(
                    "{which}: injected {injected} of {} scheduled",
                    self.scheduled
                )
            });
        }
        checks.require(data.ring.dropped == 0, || {
            format!("ring dropped {}", data.ring.dropped)
        });
        checks.require(store.packet_count() == captured, || {
            format!("stored {} of {captured} captured", store.packet_count())
        });
        let suppression = road.filter.attack_recall();
        checks.require(suppression >= 0.5, || {
            format!("suppression {suppression:.3} < 0.5")
        });
        let mitigated_at = road.mitigations.first().map(|m| m.installed_at);
        checks.require(
            road.attack_start.is_some() && mitigated_at.is_some(),
            || "no time to mitigation: the attack was never mitigated".into(),
        );

        let mut digest = Digest::new();
        digest
            .add(victim_index(&self.platform.scenario))
            .add_net(&data.net)
            .add_net(&road.net)
            .add(captured as u64)
            .add(data.flows.len() as u64)
            .add(data.dns.len() as u64)
            .add(dev.train_rows as u64)
            .add(dev.program.fingerprint())
            .add(road.mitigations.len() as u64)
            .add(mitigated_at.map_or(0, |at| at.as_nanos()))
            .add(road.filter.dropped_attack)
            .add(road.filter.passed_attack)
            .add(road.filter.dropped_benign);
        if t.recording() {
            self.last = Some((data.packets, dev.program));
        }
        checks.verdict(&digest, Specific::default())
    }

    fn probes(&mut self, t: &mut Trace) {
        let (packets, program) = self
            .last
            .take()
            .expect("probes follow a recorded iteration");

        // datastore.par_ingest_ratio: the same per-second batches through
        // the batch-ingest path on four workers and on one.
        let mut batches: Vec<Vec<PacketRecord>> = Vec::new();
        for p in &packets {
            let second = (p.ts_ns / 1_000_000_000) as usize;
            if batches.len() <= second {
                batches.resize_with(second + 1, Vec::new);
            }
            batches[second].push(p.clone());
        }
        let ingest_seconds = |workers: usize| {
            let mut samples: Vec<f64> = (0..5)
                .map(|_| {
                    let input = batches.clone();
                    let mut store = DataStore::new();
                    let started = Instant::now();
                    store.ingest_packet_batches_with(input, workers);
                    let elapsed = started.elapsed().as_secs_f64();
                    black_box(store.packet_count());
                    elapsed
                })
                .collect();
            median(&mut samples)
        };
        t.set(
            "datastore.par_ingest_ratio",
            ingest_seconds(4) / ingest_seconds(1),
        );

        // dataplane.lookup_ns_per_pkt: the compiled program replayed over
        // the capture, field extraction included.
        t.set("dataplane.tcam_entries", program.n_entries() as f64);
        let mut runtime = program.into_runtime();
        let started = Instant::now();
        for record in &packets {
            black_box(runtime.process(&fields_from_record(record)));
        }
        t.set(
            "dataplane.lookup_ns_per_pkt",
            started.elapsed().as_nanos() as f64 / packets.len() as f64,
        );

        let (parse_ns, emit_ns) = dns_codec_ns();
        t.set("wire.dns_parse_ns", parse_ns);
        t.set("wire.dns_emit_ns", emit_ns);
    }
}

/// `wire.dns_parse_ns` / `wire.dns_emit_ns`: a fixed corpus of queries and
/// fat TXT answers, the shapes the capture path parses all day.
fn dns_codec_ns() -> (f64, f64) {
    let corpus: Vec<DnsMessage> = (0..64u16)
        .flat_map(|k| {
            let query = DnsMessage::query(k, &format!("svc{k}.example{}.org", k % 7), DnsType::Any);
            let answers = (0..(2 + k % 12))
                .map(|r| DnsRecord {
                    name: format!("svc{k}.example{}.org", k % 7),
                    ttl: 300,
                    data: DnsRecordData::Txt(vec![
                        b'a' + (r % 26) as u8;
                        40 + (k as usize * 3) % 120
                    ]),
                })
                .collect();
            let answer = query.answer(answers, DnsRcode::NoError);
            [query, answer]
        })
        .collect();
    let wire: Vec<Vec<u8>> = corpus
        .iter()
        .map(|m| {
            let mut buf = Vec::new();
            m.emit(&mut buf).expect("corpus names are valid");
            buf
        })
        .collect();
    const ROUNDS: usize = 200;
    let per_message =
        |elapsed: std::time::Duration| elapsed.as_nanos() as f64 / (ROUNDS * corpus.len()) as f64;
    let mut parse = Vec::new();
    let mut emit = Vec::new();
    for _ in 0..5 {
        let started = Instant::now();
        for _ in 0..ROUNDS {
            for bytes in &wire {
                black_box(DnsMessage::parse(black_box(bytes)).expect("corpus parses"));
            }
        }
        parse.push(per_message(started.elapsed()));
        let mut buf = Vec::with_capacity(4096);
        let started = Instant::now();
        for _ in 0..ROUNDS {
            for message in &corpus {
                buf.clear();
                black_box(message)
                    .emit(&mut buf)
                    .expect("corpus names are valid");
                black_box(&buf);
            }
        }
        emit.push(per_message(started.elapsed()));
    }
    (median(&mut parse), median(&mut emit))
}
