//! A tour of the data store's operational features: indexed search,
//! mining, persistence across restarts, heavy-hitter telemetry,
//! governance, differentially-private aggregate release, and
//! counterfactual queries against the deployed model. Every claim it
//! prints is also asserted, so a run that exits 0 checked them all.
//!
//! ```sh
//! cargo run --release --example data_store_tour
//! ```

use campuslab::capture::HeavyHitters;
use campuslab::datastore::{summarize, top_talkers, PacketQuery, WalConfig, WalStore};
use campuslab::features::packet_features;
use campuslab::ml::Classifier;
use campuslab::privacy::{
    BudgetLedger, DataClass, PolicyEngine, Purpose, ReleaseRefused, Role,
    Verdict,
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
    assert_eq!(summary.packets as usize, store.packet_count());
    let victim = std::net::IpAddr::V4(data.victim.expect("victim"));
    let query = PacketQuery::for_host(victim).malicious();
    let hits = store.query_packets(&query);
    println!("[search] indexed malicious-to-victim query: {} hits", hits.len());
    // The index answers exactly what a full scan with the same filter does.
    assert!(!hits.is_empty());
    assert_eq!(hits.len(), store.iter_packets().filter(|r| query.matches(r)).count());
    println!("[mining] top talkers:");
    let talkers = top_talkers(&store, 3);
    for (addr, bytes) in &talkers {
        println!("         {addr:<16} {bytes} bytes");
    }
    assert!(talkers.windows(2).all(|w| w[0].1 >= w[1].1), "top talkers out of order");

    // --- 2. Streaming heavy hitters (constant memory) ----------------------
    let mut hh = HeavyHitters::new(5, 1024, 4);
    for rec in store.iter_packets() {
        hh.add(rec.dst, u64::from(rec.wire_len));
    }
    println!("\n[sketch] heavy hitters from a 1024x4 count-min sketch:");
    let heavy = hh.top();
    for (addr, est) in heavy.iter().take(3) {
        println!("         {addr:<16} ~{est} bytes");
    }
    println!("         (the flood victim surfaces without per-host state)");
    assert_eq!(heavy[0].0, victim, "the flood victim is not the heaviest hitter");

    // --- 3. Persistence ------------------------------------------------------
    // A write-ahead-log directory is how a store outlives its process:
    // every batch is appended and flushed before it lands in memory, and
    // reopening the directory replays the log.
    let dir = std::env::temp_dir().join(format!("campuslab-tour-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let batches = shard_by_second(&data.packets);
    {
        // Seal every MiB (the default is 4) so this small capture leaves
        // sealed segments as well as a tail.
        let (mut wal, _) = WalStore::open(&dir, WalConfig { seal_bytes: 1 << 20 }).expect("create the log");
        for batch in &batches {
            wal.append_packets(batch.clone()).expect("append a batch");
        }
    } // the process "dies" here, tail unsealed
    let (reopened, report) = WalStore::open(&dir, WalConfig::default()).expect("recover the log");
    println!(
        "\n[persist] reopened the log: {} frames replayed, {} records back, indexes rebuilt",
        report.frames_replayed,
        reopened.store().packet_count()
    );
    // One frame per appended batch comes back, and every record with it.
    assert!(!report.was_lossy());
    assert_eq!(report.frames_replayed, batches.len() as u64);
    assert_eq!(reopened.store().packet_count(), data.packets.len());
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
    assert_eq!(report.sealed_segments, sealed.len() as u64);
    assert!(!sealed.is_empty(), "a 1 MiB seal size left no sealed segment");
    assert!(sealed.iter().map(|s| s.frames).sum::<u64>() < report.frames_replayed);
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
    assert_eq!(verdict, Verdict::Deny);
    let mut ledger = BudgetLedger::new(0x70AC_C0DE, 0.5, 1.0).expect("finite positive epsilons");
    // The ledger asks the same matrix: the external request gets no noised
    // count and costs no budget.
    let denied = ledger
        .release(Role::External, Purpose::Research, "total_packets", summary.packets, 0)
        .expect_err("the matrix denies external aggregates");
    println!("[policy] its DP release: REFUSED: {denied}");
    assert_eq!(denied, ReleaseRefused::Denied { role: Role::External, purpose: Purpose::Research });
    assert_eq!(ledger.remaining(), 1.0);
    let verdict = engine.check(2, Role::Researcher, Purpose::Research, DataClass::AggregateStats);
    println!("[policy] campus researcher asks for aggregates: {verdict:?}");
    assert_eq!(verdict, Verdict::Allow);
    println!("[policy] even allowed aggregates leave only through the DP mechanism:");
    let mut refused = Vec::new();
    for (i, (name, value)) in [
        ("total_packets", summary.packets),
        ("malicious_packets", summary.malicious_packets),
        ("distinct_seconds", batches.len() as u64),
    ]
    .iter()
    .enumerate()
    {
        match ledger.release(Role::Researcher, Purpose::Research, name, *value, i as u64) {
            Ok(release) => println!(
                "         {:<18} true {:>6} -> released {:>9.1} (eps {:.1})",
                release.name, value, release.value, release.epsilon_spent
            ),
            Err(e) => {
                println!("         {name:<18} REFUSED: {e}");
                refused.push(*name);
            }
        }
    }
    println!("         remaining budget: eps {:.2}", ledger.remaining());
    // Two releases at eps 0.5 spend the budget of 1; the third is refused.
    assert_eq!(refused, ["distinct_seconds"]);
    assert_eq!(ledger.remaining(), 0.0);

    // --- 5. Counterfactual queries against the deployed model ---------------
    let dev = platform.develop(&data);
    let attack = data.packets.iter().find(|p| p.is_malicious()).expect("attack");
    let row = packet_features(attack);
    println!("\n[what-if] the operator asks: what would make this flood packet pass?");
    assert_eq!(dev.student.predict(&row), 1, "the deployed model passes the flood packet");
    let cf = counterfactual(&dev.student, &dev.feature_names, &row, 0).expect("a counterfactual");
    print!("{}", cf.to_text("benign"));
    // Making exactly the listed changes flips the verdict to benign.
    let mut changed = row.clone();
    for c in &cf.changes {
        changed[c.feature_index] = c.to;
    }
    assert_eq!(dev.student.predict(&changed), 0);
    println!("\ndone.");
}
