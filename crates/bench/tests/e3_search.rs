//! E3 end-to-end: a small scenario collected at the border, landed in the
//! segment-indexed store through the sharded ingest path, and searched.
//! The bundle's bytes are pinned by `golden_replay.rs`; this checks the
//! search path itself.

use campuslab::datastore::PacketQuery;
use campuslab::testbed::{build_store, collect, Scenario};

/// The search path end-to-end, independent of the golden bytes: everything
/// the tap captured is in the store, the indexed store finds the scenario's
/// ground truth, and the store's Observatory saw every step.
#[test]
fn e3_store_serves_scenario_ground_truth() {
    let data = collect(&Scenario::small());
    let mut ds = build_store(&data);
    // Capture → store conservation.
    assert_eq!(ds.packet_count(), data.packets.len());
    assert_eq!(ds.flow_count(), data.flows.len());
    assert_eq!(ds.obs.ingested_packets(), data.packets.len() as u64);
    // The victim's flood is findable by index and agrees with the scan.
    let victim = std::net::IpAddr::V4(data.victim.expect("victim"));
    let q = PacketQuery::for_host(victim).malicious();
    let (hits, stats) = {
        let (refs, stats) = ds.query_packets_observed(&q);
        (refs.into_iter().cloned().collect::<Vec<_>>(), stats)
    };
    assert!(!hits.is_empty(), "no attack traffic found at the victim");
    assert!(hits.iter().all(|r| r.is_malicious()));
    let scan: Vec<_> = ds.scan_packets(&q).into_iter().cloned().collect();
    assert_eq!(hits, scan);
    // The indexed plan did less work than the scan on a selective query.
    assert!(
        stats.records_examined < ds.packet_count(),
        "indexed path examined the whole table ({} of {})",
        stats.records_examined,
        ds.packet_count()
    );
    assert_eq!(ds.obs.queries_indexed(), 1);
    assert!(ds.obs.query_cost_total() >= stats.records_examined as u128);
}
