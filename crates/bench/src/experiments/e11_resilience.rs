//! **E11 — failure injection**: a production network is not a clean
//! testbed — links flap. The paper's §3 notes universities "are also prone
//! to network faults and outages"; a road-tested tool must behave sanely
//! through one. Injects a border outage during the attack and checks the
//! platform's conservation laws and mitigation behaviour.

use crate::obs_export::ObsBundle;
use crate::table::{pct, Table};
use campuslab::control::Placement;
use campuslab::control::{run_development_loop, DevLoopConfig};
use campuslab::testbed::{road_test, RoadTestConfig, Scenario};

/// Run the experiment and render its report.
pub fn run() -> ObsBundle {
    let mut out = String::from("E11: road-testing through a border outage\n\n");
    let scenario = Scenario::small();
    let data = campuslab::testbed::collect(&scenario);
    let dev = run_development_loop(&data.packets, &DevLoopConfig::default());

    let cases: Vec<(&str, Option<(f64, f64)>)> = vec![
        ("no outage", None),
        ("outage 30-40% of run", Some((0.3, 0.4))),
        ("outage 30-60% of run", Some((0.3, 0.6))),
    ];
    let mut t = Table::new(&[
        "condition",
        "delivered",
        "fault drops",
        "filter drops",
        "suppression",
        "conservation",
    ]);
    for (name, border_outage) in cases {
        let outcome = road_test(
            &scenario,
            dev.program.clone(),
            None,
            RoadTestConfig {
                placement: Placement::Switch,
                border_outage,
                ..Default::default()
            },
        );
        let conserved = outcome.net.injected
            == outcome.net.delivered + outcome.net.dropped_total();
        t.row(vec![
            name.to_string(),
            outcome.net.delivered.to_string(),
            outcome.net.dropped_fault.to_string(),
            outcome.net.dropped_filter.to_string(),
            pct(outcome.suppression()),
            if conserved { "holds".into() } else { "VIOLATED".into() },
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nshape check: the outage removes traffic (fault drops rise, deliveries\nfall) without perturbing the mitigation's judgment on what does arrive -\nsuppression stays at its no-outage level and packet conservation holds in\nevery condition.\n",
    );
    ObsBundle::table_only(out)
}
