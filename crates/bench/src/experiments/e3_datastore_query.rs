//! **E3 — the §5 data-store claim**: stored data is "linked and indexed to
//! provide fast and flexible search capabilities". Runs query shapes
//! against the *real* store built from a collected scenario and against a
//! campus-scale synthetic store, reporting deterministic work metrics —
//! records examined, segments pruned — instead of wall time, so the whole
//! bundle golden-replays byte-for-byte (wall-clock query and ingest times
//! are the PerfLedger's `datastore.*` and `query_p50_us` metrics).
//!
//! Trace spans use the work metric as their extent: span `e3[<shape>]`
//! runs from 0 to `records_examined` "ns" — a sim-cost ruler, not a
//! clock, and exactly as deterministic as the rest of the bundle.

use crate::obs_export::ObsBundle;
use crate::table::{f, Table};
use campuslab::capture::{Direction, PacketRecord, TcpFlags};
use campuslab::datastore::{DataStore, PacketQuery};
use campuslab::obs::Tracer;
use campuslab::testbed::{build_store, collect, Scenario};
use std::net::IpAddr;

/// Campus-scale synthetic capture: deterministic by construction, ingested
/// through the sharded parallel batch path (one batch per 50k records).
fn synthetic_store(n: u64) -> DataStore {
    let mut batches: Vec<Vec<PacketRecord>> = Vec::new();
    let mut batch = Vec::new();
    for i in 0..n {
        batch.push(PacketRecord {
            ts_ns: i * 10_000,
            direction: if i % 3 == 0 { Direction::Inbound } else { Direction::Outbound },
            src: IpAddr::from([10, 1, (i % 16) as u8 + 1, (i % 200) as u8 + 10]),
            dst: IpAddr::from([203, 0, 113, (i % 24) as u8 + 1]),
            protocol: if i % 4 == 0 { 17 } else { 6 },
            src_port: (1024 + (i * 31) % 60_000) as u16,
            dst_port: [443, 80, 53, 22, 25, 123][(i % 6) as usize],
            wire_len: 60 + (i % 1400) as u32,
            ttl: 64,
            tcp_flags: TcpFlags { syn: i % 50 == 0, ..Default::default() },
            flow_id: i / 20,
            label_app: (i % 7 + 1) as u16,
            label_attack: u16::from(i % 100 == 0),
        });
        if batch.len() == 50_000 {
            batches.push(std::mem::take(&mut batch));
        }
    }
    if !batch.is_empty() {
        batches.push(batch);
    }
    let mut ds = DataStore::new();
    ds.ingest_packet_batches(batches);
    ds
}

/// Run every shape through indexed and scan paths (both Observatory-
/// booked), assert agreement, and append one table row per shape.
fn sweep(
    t: &mut Table,
    tracer: &mut Tracer,
    ds: &mut DataStore,
    store_label: &str,
    shapes: Vec<(&str, PacketQuery)>,
) {
    for (name, q) in shapes {
        let (idx_hits, idx) = {
            let (hits, stats) = ds.query_packets_observed(&q);
            (hits.iter().map(|r| r.ts_ns).collect::<Vec<u64>>(), stats)
        };
        let (scan_hits, scan) = {
            let (hits, stats) = ds.scan_packets_observed(&q);
            (hits.iter().map(|r| r.ts_ns).collect::<Vec<u64>>(), stats)
        };
        assert_eq!(idx_hits, scan_hits, "index disagrees with scan for {name}");
        tracer.record(
            format!("e3[{store_label}/{name}]"),
            0,
            idx.records_examined as u64,
        );
        t.row(vec![
            format!("{store_label}: {name}"),
            idx.hits.to_string(),
            scan.records_examined.to_string(),
            idx.records_examined.to_string(),
            format!("{}/{}", idx.segments_pruned, idx.segments_total),
            format!("{}x", f(idx.work_reduction_vs(&scan), 0)),
        ]);
    }
}

/// Run the experiment and return the full Observatory bundle.
pub fn run() -> ObsBundle {
    let mut out = String::from(
        "E3: segment-indexed search vs full scan (deterministic work metrics)\n\n",
    );
    let mut tracer = Tracer::new();
    let mut t = Table::new(&[
        "query shape",
        "hits",
        "scan recs",
        "indexed recs",
        "segs pruned",
        "work reduction",
    ]);

    // (a) The real store: a collected scenario landed through the
    // Figure-1 ingest path, queried for its ground truth.
    let scenario = Scenario::small();
    let data = collect(&scenario);
    let mut real = build_store(&data);
    let victim = std::net::IpAddr::V4(data.victim.expect("small scenario has a victim"));
    let span_ns = data.packets.last().map(|p| p.ts_ns).unwrap_or(0);
    let real_shapes = vec![
        ("victim host", PacketQuery::for_host(victim)),
        (
            "victim in attack window",
            PacketQuery::for_host(victim).window(span_ns / 4, span_ns / 2),
        ),
        ("dns responses (port 53)", PacketQuery::default().port(53)),
        ("attack packets", PacketQuery::default().malicious()),
        (
            "first quarter",
            PacketQuery::in_window(0, span_ns / 4),
        ),
    ];
    sweep(&mut t, &mut tracer, &mut real, "real", real_shapes);

    // (b) Campus scale: 500k synthetic records, parallel batch ingest.
    let n = 500_000u64;
    let mut synth = synthetic_store(n);
    let synth_shapes = vec![
        ("host lookup", PacketQuery::for_host("10.1.5.14".parse().unwrap())),
        (
            "host + time window",
            PacketQuery::for_host("10.1.5.14".parse().unwrap())
                .window(1_000_000_000, 3_000_000_000),
        ),
        ("service port (dst 53)", PacketQuery::default().port(53)),
        ("attack packets only", PacketQuery::default().malicious()),
        (
            "attack in window",
            PacketQuery::default().malicious().window(0, 2_000_000_000),
        ),
        ("time window only", PacketQuery::in_window(1_000_000_000, 1_200_000_000)),
    ];
    sweep(&mut t, &mut tracer, &mut synth, "500k", synth_shapes);

    out.push_str(&t.render());
    out.push_str(&format!(
        "\nreal store: {} packets in {} segments; synthetic: {} packets in {} segments.\n",
        real.packet_count(),
        real.packet_segment_count(),
        synth.packet_count(),
        synth.packet_segment_count(),
    ));
    out.push_str(
        "\nshape check: selective shapes examine orders of magnitude fewer records\nthan the scan (postings + segment pruning); window shapes prune whole\nsegments by time bounds. Work metrics are deterministic, so this table is\ngolden-pinned; wall-clock speedups are tracked by the datastore bench.\nIndexes return exactly what the scan returns (asserted in the harness).\n",
    );

    tracer.merge_from(&data.obs.tracer);
    let prom = format!(
        "# run: collect[small]\n{}# run: datastore[real]\n{}# run: datastore[500k]\n{}",
        data.obs.prom(),
        real.obs.render(),
        synth.obs.render()
    );
    ObsBundle { table: out, prom, trace: tracer.render_json() }
}
