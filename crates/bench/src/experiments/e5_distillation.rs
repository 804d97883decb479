//! **E5 — model extraction (§5 steps (i)–(ii))**: replace the black box
//! with a model that is "explainable or interpretable, lightweight and
//! closely approximates the original model". Sweeps student depth against
//! two teachers and reports fidelity, accuracy, size and operations per
//! decision (threshold comparisons down a tree path, summed over a
//! forest's trees; multiply-accumulates through the MLP).

use crate::obs_export::ObsBundle;
use crate::table::{f, mean_cost, pct, Table};
use campuslab::features::{packet_dataset, LabelMode};
use campuslab::ml::{
    fidelity, Classifier, ConfusionMatrix, ForestConfig, Mlp, MlpConfig, Normalizer, RandomForest,
    TreeConfig,
};
use campuslab::testbed::{collect, Scenario};
use campuslab::xai::{distill, DistillConfig};

/// Run the experiment and render its report.
pub fn run() -> ObsBundle {
    let mut out = String::from("E5: distilling the black box into a deployable tree\n\n");
    let data = collect(&Scenario::small());
    let dataset = packet_dataset(&data.packets, LabelMode::BinaryAttack);
    let (train, test) = dataset.split_by_order(0.7);

    let forest = RandomForest::fit(&train, ForestConfig::default());
    let norm = Normalizer::fit(&train);
    let mlp = Mlp::fit(&norm.transform(&train), MlpConfig { epochs: 40, ..Default::default() });
    struct NormedMlp {
        norm: Normalizer,
        mlp: Mlp,
    }
    impl Classifier for NormedMlp {
        fn n_classes(&self) -> usize {
            self.mlp.n_classes()
        }
        fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
            self.mlp.predict_proba(&self.norm.transform_row(row))
        }
    }
    let mlp = NormedMlp { norm, mlp };

    let sample: Vec<Vec<f64>> = test.x.iter().take(10_000).cloned().collect();
    let forest_ops =
        mean_cost(&sample, |row| forest.trees().iter().map(|t| t.decision_path(row).len()).sum());
    // (name, model, size, operations per decision)
    let teachers: Vec<(&str, &dyn Classifier, usize, f64)> = vec![
        ("forest", &forest, forest.total_nodes(), forest_ops),
        ("mlp", &mlp, mlp.mlp.n_parameters(), mlp.mlp.n_parameters() as f64),
    ];

    let mut t = Table::new(&[
        "teacher",
        "depth",
        "fidelity(test)",
        "teacher F1",
        "student F1",
        "teacher size",
        "student nodes",
        "teacher ops/decision",
        "student ops/decision",
    ]);
    for (name, teacher, size, teacher_ops) in &teachers {
        let teacher_cm = ConfusionMatrix::evaluate(*teacher, &test);
        for depth in [1usize, 2, 3, 4, 6, 8] {
            let (student, _report) = distill(
                *teacher,
                &train,
                DistillConfig { tree: TreeConfig::shallow(depth), ..Default::default() },
            );
            let student_cm = ConfusionMatrix::evaluate(&student, &test);
            let fid = fidelity(*teacher, &student, &test);
            t.row(vec![
                name.to_string(),
                depth.to_string(),
                pct(fid),
                f(teacher_cm.f1(1), 3),
                f(student_cm.f1(1), 3),
                size.to_string(),
                student.n_nodes().to_string(),
                f(*teacher_ops, 1),
                f(mean_cost(&sample, |row| student.decision_path(row).len()), 1),
            ]);
        }
    }
    out.push_str(&t.render());
    out.push_str(
        "\nshape check: fidelity climbs with depth and saturates within a few levels;\nthe student is orders of magnitude smaller than either teacher and decides\nin a handful of comparisons while matching its decisions - the premise of\nroad-map step (ii).\n",
    );
    ObsBundle::table_only(out)
}
