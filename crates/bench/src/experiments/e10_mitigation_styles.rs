//! **E10 — ablation: hard drop vs rate-limit policing.** The paper's §2
//! example action is "drop attack traffic on ingress"; real operators
//! often prefer policing (bounded blast radius if the model is wrong).
//! Same model, same attack, three enforcement styles.

use crate::obs_export::ObsBundle;
use crate::table::{pct, Table};
use campuslab::control::Placement;
use campuslab::control::{run_development_loop, DevLoopConfig};
use campuslab::testbed::{road_test, RoadTestConfig, Scenario};

/// Run the experiment and render its report.
pub fn run() -> ObsBundle {
    let mut out = String::from("E10: enforcement style - hard drop vs policing\n\n");
    let scenario = Scenario::small();
    let data = campuslab::testbed::collect(&scenario);
    let dev = run_development_loop(&data.packets, &DevLoopConfig::default());

    let styles: Vec<(String, campuslab::dataplane::PipelineProgram)> = vec![
        ("hard drop".into(), dev.program.clone()),
        ("police @ 8 Mbps".into(), dev.program.with_drops_as_policers(8_000_000)),
        ("police @ 2 Mbps".into(), dev.program.with_drops_as_policers(2_000_000)),
        ("police @ 1 Mbps".into(), dev.program.with_drops_as_policers(1_000_000)),
    ];

    let mut t = Table::new(&[
        "enforcement",
        "suppression",
        "attack passed",
        "benign dropped",
        "drop precision",
    ]);
    for (name, program) in styles {
        let outcome = road_test(
            &scenario,
            program,
            None,
            RoadTestConfig { placement: Placement::Switch, ..Default::default() },
        );
        t.row(vec![
            name,
            pct(outcome.suppression()),
            outcome.attack_packets_passed.to_string(),
            outcome.benign_packets_dropped.to_string(),
            pct(outcome.filter.drop_precision()),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nshape check: the policer admits a bounded trickle (its token rate) and\ndrops the flood's excess; tightening the rate approaches the hard drop.\nThe knob buys insurance: a mistaken rule rate-limits a victim instead of\nblack-holing them.\n",
    );
    ObsBundle::table_only(out)
}
