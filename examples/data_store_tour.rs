//! A tour of the data store's operational features: indexed search,
//! mining, persistence across restarts, heavy-hitter telemetry,
//! governance, differentially-private aggregate release, and
//! counterfactual queries against the deployed model.
//!
//! ```sh
//! cargo run --release --example data_store_tour
//! ```

use campuslab::capture::HeavyHitters;
use campuslab::datastore::{summarize, top_talkers, PacketQuery, WalConfig, WalStore};
use campuslab::features::packet_features;
use campuslab::privacy::{
    BudgetLedger, DataClass, LaplaceMechanism, PolicyEngine, Purpose, Role,
};
use campuslab::testbed::{shard_by_second, Scenario};
use campuslab::xai::counterfactual;
use campuslab::Platform;

fn main() {
    println!("== Data store tour ==\n");
    let platform = Platform::new(Scenario::small());
    let data = platform.collect();
    let store = platform.store(&data);

    // --- 1. Search and mining ---------------------------------------------
    let summary = summarize(&store);
    println!(
        "[search] {} packet records, {} flows, {} DNS transactions in store",
        summary.packets,
        store.flow_count(),
        store.dns_count()
    );
    let victim = std::net::IpAddr::V4(data.victim.expect("victim"));
    let hits = store.query_packets(&PacketQuery::for_host(victim).malicious());
    println!("[search] indexed malicious-to-victim query: {} hits", hits.len());
    println!("[mining] top talkers:");
    for (addr, bytes) in top_talkers(&store, 3) {
        println!("         {addr:<16} {bytes} bytes");
    }

    // --- 2. Streaming heavy hitters (constant memory) ----------------------
    let mut hh = HeavyHitters::new(5, 1024, 4);
    for rec in store.iter_packets() {
        hh.add(rec.dst, u64::from(rec.wire_len));
    }
    println!("\n[sketch] heavy hitters from a 1024x4 count-min sketch:");
    for (addr, est) in hh.top().into_iter().take(3) {
        println!("         {addr:<16} ~{est} bytes");
    }
    println!("         (the flood victim surfaces without per-host state)");

    // --- 3. Persistence ------------------------------------------------------
    // A write-ahead-log directory is how a store outlives its process:
    // every batch is appended and flushed before it lands in memory, and
    // reopening the directory replays the log.
    let dir = std::env::temp_dir().join(format!("campuslab-tour-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        // Seal every MiB (the default is 4) so this small capture leaves
        // sealed segments as well as a tail.
        let (mut wal, _) = WalStore::open(&dir, WalConfig { seal_bytes: 1 << 20 }).expect("create the log");
        for batch in shard_by_second(&data.packets) {
            wal.append_packets(batch).expect("append a batch");
        }
    } // the process "dies" here, tail unsealed
    let (reopened, report) = WalStore::open(&dir, WalConfig::default()).expect("recover the log");
    println!(
        "\n[persist] reopened the log: {} frames replayed, {} records back, indexes rebuilt",
        report.frames_replayed,
        reopened.store().packet_count()
    );
    assert!(!report.was_lossy());
    // MANIFEST is one checksummed binary frame; this is how to read it.
    let sealed = reopened.sealed_segments();
    println!(
        "[persist] manifest: {} sealed segments ({} frames, {} bytes, each pinned by length + \
         crc32), tail wal-{:06}.seg",
        sealed.len(),
        sealed.iter().map(|s| s.frames).sum::<u64>(),
        sealed.iter().map(|s| s.bytes).sum::<u64>(),
        reopened.tail_segment()
    );
    assert_eq!(
        reopened.store().query_packets(&PacketQuery::for_host(victim)).len(),
        store.query_packets(&PacketQuery::for_host(victim)).len()
    );
    drop(reopened);
    std::fs::remove_dir_all(&dir).expect("remove the log directory");

    // --- 4. Governance + DP release ----------------------------------------
    let mut engine = PolicyEngine::new();
    let verdict = engine.check(1, Role::External, Purpose::Research, DataClass::AggregateStats);
    println!("\n[policy] external researcher asks for aggregates: {verdict:?}");
    println!("[policy] even aggregates leave only through the DP mechanism:");
    let mechanism = LaplaceMechanism::new(0x70AC_C0DE, 0.5);
    let mut ledger = BudgetLedger::new(1.0);
    for (i, (name, value)) in [
        ("total_packets", summary.packets),
        ("malicious_packets", summary.malicious_packets),
        ("distinct_seconds", 10),
    ]
    .iter()
    .enumerate()
    {
        match ledger.record(mechanism.release_count(name, *value, i as u64)) {
            Ok(release) => println!(
                "         {:<18} true {:>6} -> released {:>9.1} (eps {:.1})",
                release.name, value, release.value, release.epsilon_spent
            ),
            Err(e) => println!("         {name:<18} REFUSED: {e}"),
        }
    }
    println!("         remaining budget: eps {:.2}", ledger.remaining());

    // --- 5. Counterfactual queries against the deployed model ---------------
    let dev = platform.develop(&data);
    let attack = data.packets.iter().find(|p| p.is_malicious()).expect("attack");
    let row = packet_features(attack);
    println!("\n[what-if] the operator asks: what would make this flood packet pass?");
    if let Some(cf) = counterfactual(&dev.student, &dev.feature_names, &row, 0) {
        print!("{}", cf.to_text("benign"));
    }
    println!("\ndone.");
}
