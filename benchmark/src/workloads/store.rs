//! `store_mixed`: the durable store under writes beside reads. The capture
//! arrives in 250 ms batches; each is scrubbed, appended to the WAL, and
//! followed by eight indexed queries against the live store. Then the log
//! is sealed, the process "dies" (the store is dropped) and recovery
//! replays it.

use super::{Checks, Digest, Specific, Verdict, Workload};
use crate::harness::{median, out_dir};
use crate::scenarios::{campus_day, victim_index, SCAN_CHECK_EVERY, STORE_BATCH_NS};
use crate::trace::Trace;
use campuslab::capture::PacketRecord;
use campuslab::datastore::{PacketQuery, WalConfig, WalStore};
use campuslab::privacy::{ScrubPolicy, Scrubber};
use campuslab::testbed::collect;
use std::net::IpAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

const SCRUB_KEY: u128 = 0x5eed_c0de_5eed_c0de_5eed_c0de_5eed_c0de;
/// Median-latency metric of each query class, in the order a batch issues
/// the classes (two queries of each).
const CLASS_P50: [&str; 4] = [
    "datastore.query_host_p50_us",
    "datastore.query_host_window_p50_us",
    "datastore.query_attack_window_p50_us",
    "datastore.query_port_window_p50_us",
];

pub struct StoreMixed {
    batches: Vec<Vec<PacketRecord>>,
    scrubber: Scrubber,
    /// The two hosts queried, as they appear after scrubbing: the attack
    /// victim (a heavy hitter) and the first captured packet's source.
    hosts: [IpAddr; 2],
    victim_index: u64,
    iterations: u32,
}

pub fn setup(seed: u64, smoke: bool, t: &mut Trace) -> Box<dyn Workload> {
    let scenario = campus_day(seed, smoke);
    let packets = t.span("testbed.collect", |_| collect(&scenario)).packets;
    let scrubber = Scrubber::new(SCRUB_KEY, ScrubPolicy::internal_research());
    let victim = packets
        .iter()
        .find(|p| p.is_malicious())
        .expect("capture holds the campaign");
    let hosts = [
        scrubber.scrub_packet(victim.clone()).dst,
        scrubber.scrub_packet(packets[0].clone()).src,
    ];
    let mut batches: Vec<Vec<PacketRecord>> = Vec::new();
    for p in packets {
        let slot = (p.ts_ns / STORE_BATCH_NS) as usize;
        if batches.len() <= slot {
            batches.resize_with(slot + 1, Vec::new);
        }
        batches[slot].push(p);
    }
    batches.retain(|b| !b.is_empty());
    Box::new(StoreMixed {
        batches,
        scrubber,
        hosts,
        victim_index: victim_index(&scenario),
        iterations: 0,
    })
}

fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

/// Totals the iteration feeds into its digest and checks.
#[derive(Default)]
struct Totals {
    appended: usize,
    hits: [u64; 4],
    examined: u64,
    segments_total: u64,
    segments_pruned: u64,
    /// (class, nanoseconds) per indexed query.
    latencies: Vec<(usize, u64)>,
    wal_bytes: u64,
    recover_s: f64,
}

impl StoreMixed {
    fn queries(&self, now_ns: u64) -> [PacketQuery; 8] {
        let back = |ns: u64| now_ns.saturating_sub(ns);
        let [a, b] = self.hosts;
        [
            PacketQuery::for_host(a),
            PacketQuery::for_host(b),
            PacketQuery::for_host(a).window(back(1_000_000_000), now_ns),
            PacketQuery::for_host(b).window(back(1_000_000_000), now_ns),
            PacketQuery::in_window(back(500_000_000), now_ns).malicious(),
            PacketQuery::in_window(back(1_000_000_000), back(500_000_000)).malicious(),
            PacketQuery::in_window(back(500_000_000), now_ns).port(53),
            PacketQuery::in_window(back(1_000_000_000), back(500_000_000)).port(53),
        ]
    }

    fn run(&self, dir: &Path, t: &mut Trace, checks: &mut Checks) -> Result<Totals, String> {
        let fail = |what: &str, e: &dyn std::fmt::Debug| format!("{what}: {e:?}");
        let mut tally = Totals::default();
        let (mut wal, _) = t
            .span("datastore.wal_open", |_| {
                WalStore::open(dir, WalConfig::default())
            })
            .map_err(|e| fail("open", &e))?;
        let mut issued = 0usize;
        for batch in &self.batches {
            let now_ns = batch.last().expect("empty batches were dropped").ts_ns + 1;
            let scrubbed: Vec<PacketRecord> = t.span("privacy.scrub", |_| {
                batch
                    .iter()
                    .map(|p| self.scrubber.scrub_packet(p.clone()))
                    .collect()
            });
            tally.appended += scrubbed.len();
            t.span("datastore.wal_append", |_| wal.append_packets(scrubbed))
                .map_err(|e| fail("append", &e))?;

            let queries = self.queries(now_ns);
            let store = wal.store();
            let answers: Vec<usize> = t.span("datastore.query", |_| {
                queries
                    .iter()
                    .enumerate()
                    .map(|(i, q)| {
                        let started = Instant::now();
                        let (hits, stats) = store.query_packets_with_stats(q);
                        tally
                            .latencies
                            .push((i / 2, started.elapsed().as_nanos() as u64));
                        tally.hits[i / 2] += hits.len() as u64;
                        tally.examined += stats.records_examined as u64;
                        tally.segments_total += stats.segments_total as u64;
                        tally.segments_pruned += stats.segments_pruned as u64;
                        hits.len()
                    })
                    .collect()
            });
            // Untimed: a sample of the answers is checked against a scan.
            for (q, &indexed) in queries.iter().zip(&answers) {
                if issued.is_multiple_of(SCAN_CHECK_EVERY) {
                    let scanned = store.scan_packets(q).len();
                    checks.require(scanned == indexed, || {
                        format!("query {issued}: index found {indexed}, scan {scanned}")
                    });
                }
                issued += 1;
            }
        }
        t.span("datastore.wal_seal", |_| wal.seal())
            .map_err(|e| fail("seal", &e))?;
        drop(wal);
        tally.wal_bytes = dir_bytes(dir).map_err(|e| fail("dir size", &e))?;

        let started = Instant::now();
        let (recovered, report) = t
            .span("datastore.wal_recover", |_| {
                WalStore::open(dir, WalConfig::default())
            })
            .map_err(|e| fail("recover", &e))?;
        tally.recover_s = started.elapsed().as_secs_f64();
        let back = recovered.store().packet_count();
        checks.require(back == tally.appended && !report.was_lossy(), || {
            format!(
                "recovered {back} of {} appended ({report:?})",
                tally.appended
            )
        });
        Ok(tally)
    }
}

impl Workload for StoreMixed {
    fn iterate(&mut self, t: &mut Trace) -> Verdict {
        self.iterations += 1;
        let dir: PathBuf = out_dir().join(format!(
            "tmp/store-{}-{}",
            std::process::id(),
            self.iterations
        ));
        let mut checks = Checks::default();
        let mut digest = Digest::new();
        digest.add(self.victim_index);
        let outcome = std::fs::create_dir_all(&dir)
            .map_err(|e| format!("create {}: {e}", dir.display()))
            .and_then(|()| self.run(&dir, t, &mut checks));
        let _ = std::fs::remove_dir_all(&dir);
        let mut specific = Specific::default();
        match outcome {
            Err(e) => checks.require(false, || e),
            Ok(tally) => {
                digest.add(tally.appended as u64).add(tally.wal_bytes);
                for hits in tally.hits {
                    digest.add(hits);
                }
                digest.add(tally.examined);
                let hits: u64 = tally.hits.iter().sum();
                t.set("datastore.wal_records", tally.appended as f64);
                t.set(
                    "datastore.wal_bytes_per_rec",
                    tally.wal_bytes as f64 / tally.appended as f64,
                );
                t.set(
                    "datastore.examined_per_hit",
                    tally.examined as f64 / hits.max(1) as f64,
                );
                t.set(
                    "datastore.segments_pruned_share",
                    tally.segments_pruned as f64 / tally.segments_total.max(1) as f64,
                );
                for (class, metric) in CLASS_P50.into_iter().enumerate() {
                    let mut us: Vec<f64> = tally
                        .latencies
                        .iter()
                        .filter(|(c, _)| *c == class)
                        .map(|&(_, ns)| ns as f64 / 1e3)
                        .collect();
                    t.set(metric, median(&mut us));
                }
                specific = Specific {
                    recover_s: Some(tally.recover_s),
                    durable_bytes: Some(tally.wal_bytes),
                    query_ns: tally.latencies.iter().map(|&(_, ns)| ns).collect(),
                };
            }
        }
        checks.verdict(&digest, specific)
    }
}
