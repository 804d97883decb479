//! Quickstart: the whole CampusLab story in one run.
//!
//! 1. Build a campus network and run a day of labeled traffic over it,
//!    with a DNS-amplification attack at one host (the paper's §2 example).
//! 2. Capture everything at the border tap into the data store (Part 1:
//!    campus as data source).
//! 3. Run the development loop: black-box forest → distilled tree →
//!    compiled switch program (Figure 2, slow loop).
//! 4. Road-test the compiled program on the live campus (Part 2: campus
//!    as testbed) and print the operator-facing report.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use campuslab::datastore::{summarize, PacketQuery};
use campuslab::testbed::{deployment_decision, GateCriteria, Scenario};
use campuslab::Platform;

fn main() {
    println!("== CampusLab quickstart ==\n");
    let platform = Platform::new(Scenario::small());

    // --- Part 1: the campus as data source -------------------------------
    println!("[1/4] running the campus and capturing at the border tap...");
    let data = platform.collect();
    println!(
        "      scheduled {} packets; network delivered {} ({:.1}% delivery)",
        data.scheduled,
        data.net.delivered,
        data.net.delivery_ratio() * 100.0
    );
    println!(
        "      border monitor captured {} packets ({} flows, {} DNS transactions), ring loss {:.3}%",
        data.monitor.captured,
        data.flows.len(),
        data.dns.len(),
        data.ring.loss_rate() * 100.0
    );

    println!("[2/4] landing records in the data store...");
    let store = platform.store(&data);
    let summary = summarize(&store);
    println!(
        "      store: {} packet records, mean border rate {:.2} Mbps, {} labeled attack packets",
        summary.packets,
        summary.mean_bps() / 1e6,
        summary.malicious_packets
    );
    if let Some(victim) = data.victim {
        let hits = store.query_packets(
            &PacketQuery::for_host(std::net::IpAddr::V4(victim)).malicious(),
        );
        println!(
            "      indexed query: {} attack packets aimed at victim {victim}",
            hits.len()
        );
    }

    // --- Figure 2: the development loop ----------------------------------
    println!("[3/4] development loop: train black box, distill, compile...");
    let dev = platform.develop(&data);
    println!(
        "      teacher (random forest): F1={:.3}  |  student (depth-{} tree): F1={:.3}",
        dev.teacher_eval.f1_attack, dev.distillation.student_depth, dev.student_eval.f1_attack
    );
    println!(
        "      fidelity {:.1}%  |  student {} nodes -> {} TCAM entries ({} leaves gated out at {:.0}% confidence)",
        dev.fidelity * 100.0,
        dev.distillation.student_nodes,
        dev.program.n_entries(),
        dev.compile.leaves_gated_out,
        90.0
    );
    println!("      trained on {} rows, held out {}", dev.train_rows, dev.test_rows);

    // --- Part 2: the campus as testbed ------------------------------------
    println!("[4/4] road test: compiled rules live in the border switch...");
    let outcome = platform.road_test_switch(&dev);
    println!(
        "      attack suppression {:.1}%  |  collateral benign drops: {}  |  drop precision {:.1}%",
        outcome.suppression() * 100.0,
        outcome.benign_packets_dropped,
        outcome.filter.drop_precision() * 100.0
    );
    let decision = deployment_decision(&outcome, GateCriteria::default());
    if decision.approved {
        println!("      deployment gate: APPROVED for production");
    } else {
        println!("      deployment gate: REJECTED");
        for reason in &decision.reasons {
            println!("        - {reason}");
        }
    }
    println!("\ndone.");
}
