//! **E13 — performance pinpointing (§3)**: universities "experience
//! performance issues ... there is a need to be able to pinpoint
//! performance problems and notify the service or cloud provider(s)".
//! The tap's TCP handshake RTT measurements make congestion visible: the
//! same workload runs over progressively under-provisioned uplinks, and
//! the measured handshake RTT distribution shifts exactly where queueing
//! theory says it must.

use crate::obs_export::ObsBundle;
use crate::table::{f, pct, Table};
use campuslab::testbed::{collect, AttackScenario, Scenario};

fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx] as f64 / 1e6
}

/// Run the experiment and render its report.
pub fn run() -> ObsBundle {
    let mut out = String::from("E13: pinpointing upstream congestion from handshake RTTs\n\n");
    let mut t = Table::new(&[
        "uplink",
        "handshakes",
        "median RTT",
        "p95 RTT",
        "queue drops",
        "delivery",
    ]);
    for (label, mbps) in [
        ("10 Gbps (healthy)", 10_000u64),
        ("200 Mbps", 200),
        ("100 Mbps", 100),
        ("60 Mbps (degraded)", 60),
        ("40 Mbps (saturated)", 40),
    ] {
        let mut scenario = Scenario::small();
        scenario.attack = AttackScenario::None; // performance, not security
        scenario.campus.upstream_mbps = mbps;
        let data = collect(&scenario);
        let mut rtts: Vec<u64> = data.rtts.iter().map(|r| r.rtt_ns).collect();
        rtts.sort_unstable();
        t.row(vec![
            label.to_string(),
            rtts.len().to_string(),
            format!("{:.2} ms", percentile(&rtts, 0.5)),
            format!("{:.2} ms", percentile(&rtts, 0.95)),
            data.net.dropped_queue.to_string(),
            pct(data.net.delivery_ratio()),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\n(the workload offers ~{} Mbps at the border; the synthesized external RTT is 15 ms)\n",
        f(45.0, 0)
    ));
    out.push_str(
        "\nshape check: at healthy provisioning the handshake RTT sits at the path\nlatency. As the uplink approaches the offered load, loss appears first\n(queue drops, shrinking delivery) with a mild RTT drift - the surviving\nhandshakes are the ones that dodged the bursts (survivorship). Once the\nlink saturates outright, the bufferbloated queue stays full and even the\nsurvivors carry tens of milliseconds of standing delay. Either signature,\nread passively at the tap, is the evidence an operator needs to 'notify\nthe provider' without sending a single active probe.\n",
    );
    ObsBundle::table_only(out)
}
