//! Data-plane capacity planning (paper §2): modern data planes are
//! "currently not capable of supporting this capability at scale; i.e.,
//! executing hundreds or thousands of such tasks concurrently".
//!
//! This example makes the claim concrete: distill deployable trees of
//! increasing depth, compile each, and ask the Tofino-like resource model
//! how many concurrent automation tasks of that shape one switch hosts.
//! Also prints the monitoring side: the lossless-capture envelope of a
//! ring configuration against offered packet rates.
//!
//! ```sh
//! cargo run --release --example capacity_planning
//! ```

use campuslab::capture::{CaptureArray, FlowKey, RingConfig};
use campuslab::control::{DevLoopConfig, Teacher};
use campuslab::dataplane::{CompileConfig, SwitchModel};
use campuslab::ml::TreeConfig;
use campuslab::netsim::SimTime;
use campuslab::testbed::{collect, Scenario};
use campuslab::xai::DistillConfig;

fn main() {
    println!("== Capacity planning ==\n");
    let data = collect(&Scenario::small());
    let switch = SwitchModel::default();
    println!(
        "switch model: {} stages x {} TCAM entries x {} tables/stage\n",
        switch.stages, switch.tcam_entries_per_stage, switch.max_tables_per_stage
    );

    println!(
        "{:>6} {:>8} {:>8} {:>12} {:>12} {:>18}",
        "depth", "leaves", "F1", "entries", "stageslots", "concurrent tasks"
    );
    let teacher = Teacher::fit(&data.packets, &DevLoopConfig::default());
    for depth in [1usize, 2, 3, 4, 5, 6, 8, 10] {
        let student =
            teacher.extract(DistillConfig { tree: TreeConfig::shallow(depth), ..Default::default() });
        let (program, _) =
            student.compile(CompileConfig { confidence_gate: 0.9, ..Default::default() });
        let fp = switch.footprint(&program);
        println!(
            "{:>6} {:>8} {:>8.3} {:>12} {:>12} {:>18}",
            depth,
            student.report.student_leaves,
            student.eval.f1_attack,
            program.n_entries(),
            fp.stage_slots,
            switch.max_concurrent(&program)
        );
    }

    println!("\nthe shape to notice: concurrency is bounded by table slots for shallow");
    println!("trees and by TCAM for deep ones — tens of tasks, not thousands, exactly");
    println!("the scale wall the paper describes.\n");

    // --- Monitoring capacity: the lossless envelope ------------------------
    println!("lossless-capture envelope (8 rings x 4096 @ 1.5 Mpps drain):");
    println!("{:>14} {:>12}", "offered pps", "monitor loss");
    for offered_mpps in [1.0f64, 5.0, 8.0, 12.0, 16.0, 24.0, 48.0] {
        let mut arr = CaptureArray::new(8, RingConfig::default());
        let offered_pps = offered_mpps * 1e6;
        let gap_ns = (1e9 / offered_pps) as u64;
        let n = 400_000u64;
        for i in 0..n {
            let key = FlowKey {
                src: std::net::IpAddr::from([203, 0, 113, (i % 200) as u8]),
                dst: std::net::IpAddr::from([10, 1, 1, (i % 100) as u8]),
                protocol: 17,
                src_port: (1024 + (i % 50_000)) as u16,
                dst_port: 53,
            };
            arr.offer(SimTime(i * gap_ns), &key);
        }
        println!(
            "{:>11.1} M {:>11.3}%",
            offered_mpps,
            arr.stats().loss_rate() * 100.0
        );
    }
    println!("\ncampus border traffic (10-20 Gbps ~ 1-3 Mpps) sits far inside the");
    println!("envelope; the same appliance begins to drop an order of magnitude higher");
    println!("— the paper's point that campuses are the *right size* to monitor fully.");
}
