//! **E11 — failure injection**: a production network is not a clean
//! testbed — links flap. The paper's §3 notes universities "are also prone
//! to network faults and outages"; a road-tested tool must behave sanely
//! through one. Injects a border outage during the attack and checks the
//! platform's conservation laws and mitigation behaviour.

use crate::obs_export::ObsBundle;
use crate::table::{pct, Table};
use campuslab::control::Placement;
use campuslab::control::{run_development_loop, DevLoopConfig};
use campuslab::netsim::{Campus, ChaosPlan, SimDuration, SimTime};
use campuslab::testbed::{road_test, RoadTestConfig, Scenario};

/// Run the experiment and render its report.
pub fn run() -> ObsBundle {
    let mut out = String::from("E11: road-testing through a border outage\n\n");
    let scenario = Scenario::small();
    let data = campuslab::testbed::collect(&scenario);
    let dev = run_development_loop(&data.packets, &DevLoopConfig::default());

    // An outage is a flap of the border link in the chaos plan, its ends
    // given as fractions of the workload. Campus::build is deterministic,
    // so this throwaway build sees the same link id as the road test's.
    let border = Campus::build(scenario.campus.clone()).border_link;
    let span = scenario.workload.duration.as_secs_f64();
    let at = |frac: f64| SimTime::ZERO + SimDuration::from_secs_f64(span * frac);
    let outage = |from: f64, until: f64| {
        let mut plan = ChaosPlan::new();
        plan.link_flap(border, at(from), at(until));
        Some(plan)
    };
    let cases: Vec<(&str, Option<ChaosPlan>)> = vec![
        ("no outage", None),
        ("outage 30-40% of run", outage(0.3, 0.4)),
        ("outage 30-60% of run", outage(0.3, 0.6)),
    ];
    let mut t = Table::new(&[
        "condition",
        "delivered",
        "fault drops",
        "filter drops",
        "suppression",
        "conservation",
    ]);
    for (name, chaos) in cases {
        let outcome = road_test(
            &scenario,
            dev.program.clone(),
            None,
            RoadTestConfig {
                placement: Placement::Switch,
                chaos,
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
