//! **E14 — robustness under chaos** (the ChaosLab campaign; ISSUE 2's
//! "E9 robustness-under-chaos", renumbered because E9 is the trust
//! report): the paper's §3 warns that campus networks "are also prone to
//! network faults and outages", so a defense that only works on a calm
//! network has not been road-tested at all. This experiment sweeps one
//! fault-intensity knob from 0 to 1 — link flaps, node crashes, rate
//! brownouts, Gilbert–Elliott bursty loss, tap blackouts and a flaky
//! rule-install channel all scale together — and reports the degradation
//! curve. The golden replay runs it at one worker and at four, so the
//! sweep's fan-out is checked byte for byte there.

use crate::obs_export::ObsBundle;
use crate::table::{pct, Table};
use campuslab::obs::Tracer;
use campuslab::testbed::{chaos_sweep, Scenario};
use campuslab::Platform;

/// Run the experiment and return the full Observatory bundle: the
/// degradation table plus every intensity point's metrics dump and trace.
/// The table is derived from the same registries the dump renders (that is
/// the point of the Observatory routing), so they cannot disagree.
pub fn run() -> ObsBundle {
    let mut out = String::from("E14: robustness under chaos (graceful degradation)\n\n");
    let platform = Platform::new(Scenario::small());
    let data = platform.collect();
    let dev = platform.develop(&data);
    let model = platform.train_window_model(&data);

    let (points, point_obs) = chaos_sweep(&platform.scenario, &dev.program, || Box::new(model.clone()));

    let mut t = Table::new(&[
        "intensity",
        "suppression",
        "delivery",
        "time-to-mitigation",
        "installs",
        "give-ups",
        "fault drops",
        "node-down drops",
    ]);
    for p in &points {
        t.row(vec![
            format!("{:.2}", p.intensity),
            pct(p.suppression),
            pct(p.delivery_ratio),
            p.time_to_mitigation_ms
                .map(|ms| format!("{ms:.1}ms"))
                .unwrap_or_else(|| "never".into()),
            p.install_attempts.to_string(),
            p.giveups.to_string(),
            p.dropped_fault.to_string(),
            p.dropped_node_down.to_string(),
        ]);
    }
    out.push_str(&t.render());
    let calm = points.first();
    let mayhem = points.last();
    let monotone = match (calm, mayhem) {
        (Some(c), Some(m)) => c.suppression >= m.suppression && c.delivery_ratio >= m.delivery_ratio,
        _ => false,
    };
    out.push_str(&format!(
        "\ncalm bounds mayhem (suppression and delivery): {}\n\
         \nshape check: as the chaos knob turns, faults remove traffic (delivery\n\
         falls), tap blackouts blind detection windows, and install flakes cost\n\
         retries and give-ups - so suppression degrades and mitigation arrives\n\
         later, but it degrades *gracefully*: accounting stays conserved, no\n\
         panic, and the calm run upper-bounds every chaotic one.\n",
        if monotone { "yes" } else { "NO (bug)" },
    ));
    let mut prom = String::new();
    let mut tracer = Tracer::new();
    for (p, o) in points.iter().zip(&point_obs) {
        prom.push_str(&format!("# intensity: {:.2}\n{}", p.intensity, o.prom()));
        tracer.merge_from(&o.tracer);
    }
    ObsBundle { table: out, prom, trace: tracer.render_json() }
}
