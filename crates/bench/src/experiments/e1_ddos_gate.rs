//! **E1 — the §2 running example, quantified**: "drop attack traffic on
//! ingress if confidence in detection is at least 90%". Sweeps the
//! compile-time confidence gate for two deployable-model capacities:
//! the production-sized distilled tree (whose leaves are confident — the
//! gate is a cheap safety net) and a deliberately capacity-starved tree
//! (whose impure leaves make the gate's precision/recall trade visible).

use crate::obs_export::ObsBundle;
use crate::table::{f, pct, Table};
use campuslab::control::{DevLoopConfig, Placement, Teacher};
use campuslab::dataplane::{compile_tree, CompileConfig, CompileReport, PipelineProgram};
use campuslab::features::{packet_dataset, LabelMode};
use campuslab::ml::{DecisionTree, TreeConfig};
use campuslab::obs::Tracer;
use campuslab::testbed::{road_test, CollectedData, RoadTestConfig, Scenario};
use campuslab::xai::DistillConfig;

const GATES: [f64; 6] = [0.5, 0.7, 0.8, 0.9, 0.95, 0.99];

/// Compile one model at every gate, road-test each program on the switch
/// and tabulate the outcomes.
fn gate_sweep(
    scenario: &Scenario,
    compile: impl Fn(CompileConfig) -> (PipelineProgram, CompileReport),
) -> String {
    let mut t = Table::new(&[
        "gate",
        "TCAM entries",
        "leaves gated out",
        "suppression",
        "attack passed",
        "benign dropped",
        "drop precision",
    ]);
    for gate in GATES {
        let (program, report) = compile(CompileConfig { confidence_gate: gate, ..Default::default() });
        let outcome = road_test(
            scenario,
            program,
            None,
            RoadTestConfig { placement: Placement::Switch, ..Default::default() },
        );
        t.row(vec![
            f(gate, 2),
            report.tcam_entries.to_string(),
            report.leaves_gated_out.to_string(),
            pct(outcome.suppression()),
            outcome.attack_packets_passed.to_string(),
            outcome.benign_packets_dropped.to_string(),
            pct(outcome.filter.drop_precision()),
        ]);
    }
    t.render()
}

/// Sweep (b): a tree fit directly on ground-truth labels against a
/// stealthy campaign, restricted to the three fields a minimal switch key
/// can carry (`is_udp`, `src_port_is_dns`, `wire_len`). Benign DNSSEC/TXT
/// recursion and the attack overlap in that projection, so leaves have
/// graded confidence and the gate visibly trades recall for precision.
fn sweep_direct_tree(out: &mut String, data: &CollectedData, scenario: &Scenario) {
    out.push_str(
        "\n(b) stealthy 30 qps campaign, minimal switch key {is_udp, src53, wire_len}:\n\n",
    );
    let mut dataset = packet_dataset(&data.packets, LabelMode::BinaryAttack);
    // Project onto the minimal switch key: zero every column except
    // is_udp (10), src_port_is_dns (12) and wire_len (3).
    for row in &mut dataset.x {
        for (i, v) in row.iter_mut().enumerate() {
            if i != 3 && i != 10 && i != 12 {
                *v = 0.0;
            }
        }
    }
    // Fit on the raw, unbalanced capture: the overlap between attack and
    // benign fat answers is carried by a handful of benign packets, and
    // naive rebalancing tends to throw exactly those away.
    let tree = DecisionTree::fit(
        &dataset,
        TreeConfig { max_depth: 3, min_samples_leaf: 40 },
    );
    let confidences: Vec<String> = tree
        .leaf_rules()
        .iter()
        .filter(|r| r.class == 1)
        .map(|r| format!("{:.3} (n={})", r.confidence, r.support))
        .collect();
    out.push_str(&format!("drop-leaf confidences: {}\n\n", confidences.join(", ")));
    out.push_str(&gate_sweep(scenario, |cfg| {
        compile_tree(&tree, cfg, format!("raw-gate-{:.2}", cfg.confidence_gate))
    }));
}

/// Run the experiment and return the full Observatory bundle: the table
/// plus the metrics dumps and sim-time traces of both collection runs.
pub fn run() -> ObsBundle {
    let mut out = String::from(
        "E1: the confidence gate on ingress drops (DNS amplification)\n",
    );
    let scenario = Scenario::small();
    let data = campuslab::testbed::collect(&scenario);

    // Sweep (a): the production model, fitted and distilled once.
    let student = Teacher::fit(&data.packets, &DevLoopConfig::default())
        .extract(DistillConfig { tree: TreeConfig::shallow(6), ..Default::default() });
    out.push_str("\n(a) production model (depth-6 distilled tree):\n\n");
    out.push_str(&gate_sweep(&scenario, |cfg| student.compile(cfg)));
    // A stealthy campaign: 30 qps hiding inside 4x the benign session rate,
    // so attack evidence is comparable in volume to benign DNS recursion.
    let mut stealth = Scenario::small();
    stealth.workload.sessions_per_sec = 40.0;
    stealth.attack = campuslab::testbed::AttackScenario::DnsAmplification {
        victim_index: 0,
        qps: 30.0,
        start_frac: 0.15,
        duration_frac: 0.8,
    };
    let stealth_data = campuslab::testbed::collect(&stealth);
    sweep_direct_tree(&mut out, &stealth_data, &stealth);
    out.push_str(
        "\nshape check: a volumetric flood is overwhelming evidence - every leaf is\nconfident and the gate costs nothing (a finding in itself). Against a\nstealthy campaign with a coarse model, leaves are impure: low gates ship\nthem (benign collateral), high gates prune them (suppression falls) - the\nprecision/recall dial the paper's >=90% rule is turning.\n",
    );
    let prom = format!(
        "# run: collect[volumetric]\n{}# run: collect[stealthy]\n{}",
        data.obs.prom(),
        stealth_data.obs.prom()
    );
    let mut tracer = Tracer::new();
    tracer.merge_from(&data.obs.tracer);
    tracer.merge_from(&stealth_data.obs.tracer);
    ObsBundle { table: out, prom, trace: tracer.render_json() }
}
