//! **E8 — the §2 placement claim**: where an automation task runs (data
//! plane, control plane, cloud) "will depend on how fast and with what
//! accuracy that task has to be performed". The same detector defends the
//! same campus from each tier.

use crate::obs_export::ObsBundle;
use crate::table::{pct, Table};
use campuslab::control::Placement;
use campuslab::testbed::Scenario;
use campuslab::Platform;

/// Run the experiment and render its report.
pub fn run() -> ObsBundle {
    let mut out = String::from("E8: inference placement vs reaction latency\n\n");
    let platform = Platform::new(Scenario::small());
    let data = platform.collect();
    let dev = platform.develop(&data);
    out.push_str(&format!(
        "deployable model: depth-{} tree, {} TCAM entries, fidelity {}\n\n",
        dev.distillation.student_depth,
        dev.program.n_entries(),
        pct(dev.fidelity)
    ));

    let mut t = Table::new(&[
        "placement",
        "detect+install",
        "time-to-mitigation",
        "suppression",
        "attack passed",
        "benign dropped",
    ]);
    for placement in [Placement::Switch, Placement::Controller, Placement::Cloud] {
        let outcome = match placement {
            Placement::Switch => platform.road_test_switch(&dev),
            p => {
                let wm = platform.train_window_model(&data);
                platform.road_test_at(&dev, wm, p)
            }
        };
        t.row(vec![
            format!("{placement:?}"),
            placement.install_delay().to_string(),
            outcome
                .time_to_mitigation
                .map(|d| d.to_string())
                .unwrap_or_else(|| "never".into()),
            pct(outcome.suppression()),
            outcome.attack_packets_passed.to_string(),
            outcome.benign_packets_dropped.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nshape check: the switch tier reacts from packet one; the controller pays\none detection window; the cloud pays the window plus WAN latency - and the\nsuppression gap is exactly the packets that land during the blind period.\nThe trade the paper assigns to resource placement is visible end to end.\n",
    );
    ObsBundle::table_only(out)
}
