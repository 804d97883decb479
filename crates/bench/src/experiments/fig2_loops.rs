//! **F2 — Figure 2, executable**: the slow offline development loop versus
//! the fast online control loop — the work each development stage does and
//! the size of what it produces on one side, comparisons per deployed
//! decision on the other. Counts, not seconds: the table is golden-pinned,
//! and the wall-clock of every stage named here is a PerfLedger metric.

use crate::obs_export::ObsBundle;
use crate::table::{f, mean_cost, pct, Table};
use campuslab::control::{run_development_loop, DevLoopConfig, TeacherKind};
use campuslab::dataplane::fields_from_record;
use campuslab::features::{packet_dataset, packet_features, LabelMode};
use campuslab::ml::{ForestConfig, MlpConfig, RandomForest};
use campuslab::testbed::{collect, Scenario};

/// Run the experiment and render its report.
pub fn run() -> ObsBundle {
    let mut out = String::from("F2: development loop (slow) vs control loop (fast)\n\n");
    let data = collect(&Scenario::small());

    // --- the slow loop, stage by stage ---------------------------------------
    let dataset = packet_dataset(&data.packets, LabelMode::BinaryAttack);
    let forest = RandomForest::fit(&dataset, ForestConfig::default());
    let dev = run_development_loop(&data.packets, &DevLoopConfig::default());
    let mlp_dev = run_development_loop(
        &data.packets,
        &DevLoopConfig {
            teacher: TeacherKind::Mlp(MlpConfig { epochs: 40 }),
            ..Default::default()
        },
    );

    let mut t = Table::new(&["development loop stage", "work done / artifact"]);
    t.row(vec![
        "featurize capture".into(),
        format!("{} rows x {} features", dataset.len(), dataset.n_features()),
    ]);
    t.row(vec![
        "train black box (forest)".into(),
        format!("{} trees, {} nodes", forest.n_trees(), forest.total_nodes()),
    ]);
    t.row(vec![
        "full loop w/ forest teacher".into(),
        format!(
            "{} train rows -> tree depth {} ({} nodes) -> {} TCAM entries",
            dev.train_rows,
            dev.distillation.student_depth,
            dev.distillation.student_nodes,
            dev.program.n_entries()
        ),
    ]);
    t.row(vec![
        "full loop w/ MLP teacher".into(),
        format!(
            "tree depth {} ({} nodes), fidelity {}",
            mlp_dev.distillation.student_depth,
            mlp_dev.distillation.student_nodes,
            pct(mlp_dev.fidelity)
        ),
    ]);
    out.push_str(&t.render());

    // --- the fast loop: comparisons per decision ------------------------------
    // Every k-th packet of the whole capture, so the attack window is in it.
    let stride = (data.packets.len() / 20_000).max(1);
    let sample: Vec<_> = data.packets.iter().step_by(stride).collect();
    let rows: Vec<Vec<f64>> = sample.iter().map(|r| packet_features(r)).collect();
    let field_rows: Vec<_> = sample.iter().map(|r| fields_from_record(r)).collect();

    // First-match TCAM walk: the hit's index + 1, or every entry on a miss.
    let pipeline = mean_cost(&field_rows, |fields| {
        dev.program.lookup(fields).map_or(dev.program.n_entries(), |(i, _)| i + 1)
    });
    let tree = mean_cost(&rows, |row| dev.student.decision_path(row).len());
    let black_box = mean_cost(&rows, |row| {
        forest.trees().iter().map(|t| t.decision_path(row).len()).sum()
    });

    let mut t = Table::new(&["fast-loop inference path", "comparisons/decision", "deployable?"]);
    t.row(vec!["compiled pipeline (switch model)".into(), f(pipeline, 1), "yes - match-action".into()]);
    t.row(vec!["distilled tree (controller CPU)".into(), f(tree, 1), "yes - software".into()]);
    t.row(vec!["random forest (black box)".into(), f(black_box, 1), "no - too large for data plane".into()]);
    out.push('\n');
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nshape check: the development loop chews the whole capture and grows {} nodes\n\
         of black box (offline, fine); the deployed decision costs {:.1} threshold\n\
         comparisons against the black box's {:.1}, and only the distilled artifact\n\
         compiles to the switch at all (a TCAM matches its entries in parallel: the\n\
         sequential count is the software model's). Where the seconds live: the\n\
         PerfLedger's features.packet_dataset_s, ml.forest_fit_s, control.devloop_s\n\
         and dataplane.lookup_ns_per_pkt.\n",
        forest.total_nodes(),
        tree,
        black_box
    ));
    ObsBundle::table_only(out)
}
