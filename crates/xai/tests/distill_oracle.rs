//! Differential oracle for the fit-once distiller. This file keeps a copy
//! of the extraction loop it replaced — refit the student after the
//! relabelled data and again after every query round — as the reference
//! only: for any teacher, data, round count and depth, the student must
//! serialize to the same bytes as the reference's last one, and every
//! report field must be equal, floats to the bit. Inputs are tie-heavy on
//! purpose (small per-column alphabets, −0.0 beside 0.0, repeated rows,
//! one to four classes), because a changed aggregate shows first where
//! the grower breaks ties.

use campuslab_ml::{Classifier, Dataset, DecisionTree, ForestConfig, RandomForest, TreeConfig};
use campuslab_xai::distill::{distill, DistillConfig, DistillationReport};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SAMPLES_PER_ROUND: usize = 2_000;
const SEED: u64 = 0x00D1_5711;

/// The distiller as it was: a fit after round 0 and one after each round.
fn reference(
    teacher: &dyn Classifier,
    data: &Dataset,
    cfg: DistillConfig,
) -> (DecisionTree, DistillationReport) {
    assert!(!data.is_empty(), "need data to define the input manifold");
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut queries = 0usize;

    let labels = data.x.iter().map(|row| teacher.predict(row)).collect();
    queries += data.len();
    let mut agg = Dataset::new(data.x.clone(), labels, data.feature_names.clone());
    agg.n_classes = agg.n_classes.max(teacher.n_classes()).max(data.n_classes);
    let mut student = DecisionTree::fit(&agg, cfg.tree);

    for _ in 0..cfg.rounds {
        for _ in 0..SAMPLES_PER_ROUND {
            let row = synthesize(&mut rng, data);
            queries += 1;
            let label = teacher.predict(&row);
            agg.n_classes = agg.n_classes.max(label + 1);
            agg.y.push(label);
            agg.x.push(row);
        }
        student = DecisionTree::fit(&agg, cfg.tree);
    }

    let agree = data
        .x
        .iter()
        .zip(&agg.y)
        .filter(|&(row, &label)| label == student.predict(row))
        .count();
    let fidelity = agree as f64 / data.len() as f64;

    let n_eval = 2_000;
    let eval_agree = (0..n_eval)
        .filter(|_| {
            let row = synthesize(&mut rng, data);
            teacher.predict(&row) == student.predict(&row)
        })
        .count();
    let report = DistillationReport {
        fidelity,
        synthetic_fidelity: eval_agree as f64 / n_eval as f64,
        student_nodes: student.n_nodes(),
        student_leaves: student.n_leaves(),
        student_depth: student.depth(),
        teacher_queries: queries,
    };
    (student, report)
}

fn synthesize(rng: &mut StdRng, data: &Dataset) -> Vec<f64> {
    let base = &data.x[rng.gen_range(0..data.len())];
    let mut row = base.clone();
    let k = rng.gen_range(1..=row.len().clamp(1, 4));
    for _ in 0..k {
        let f = rng.gen_range(0..row.len());
        row[f] = data.x[rng.gen_range(0..data.len())][f];
    }
    row
}

/// Symbol `s` of a column's alphabet: 0 is −0.0, the rest step by 1.5
/// from −1.5 (so 2 is 0.0).
fn value(s: usize) -> f64 {
    if s == 0 {
        -0.0
    } else {
        (s as f64 - 2.0) * 1.5
    }
}

/// Tie-heavy datasets: per-column alphabets of 2–5 symbols or 60–400,
/// then some rows repeated.
fn tie_heavy() -> impl Strategy<Value = Dataset> {
    (1usize..6, 4usize..200, 1usize..=4).prop_flat_map(|(n_features, n_rows, n_classes)| {
        (
            proptest::collection::vec(prop_oneof![2usize..6, 2usize..6, 60usize..400], n_features),
            proptest::collection::vec(proptest::collection::vec(any::<u64>(), n_features), n_rows),
            proptest::collection::vec(0usize..n_classes, n_rows),
            proptest::collection::vec(0usize..n_rows, 0..n_rows),
        )
            .prop_map(move |(alphabets, draws, mut y, repeats)| {
                let mut x: Vec<Vec<f64>> = draws
                    .iter()
                    .map(|row| {
                        row.iter().zip(&alphabets).map(|(&d, &a)| value(d as usize % a)).collect()
                    })
                    .collect();
                for r in repeats {
                    x.push(x[r].clone());
                    y.push(y[r]);
                }
                let names = (0..n_features).map(|f| format!("f{f}")).collect();
                Dataset::new(x, y, names)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// A forest teacher at any round count and student depth: same
    /// student bytes, same report.
    #[test]
    fn one_fit_matches_the_refit_every_round_reference(
        data in tie_heavy(),
        n_trees in 1usize..4,
        rounds in 0usize..=4,
        max_depth in 1usize..=8,
    ) {
        let teacher = RandomForest::fit(&data, ForestConfig { n_trees });
        let cfg = DistillConfig { tree: TreeConfig::shallow(max_depth), rounds };
        let (student, report) = distill(&teacher, &data, cfg);
        let (ref_student, ref_report) = reference(&teacher, &data, cfg);
        prop_assert_eq!(serde::bin::to_vec(&student), serde::bin::to_vec(&ref_student));
        prop_assert_eq!(report.fidelity.to_bits(), ref_report.fidelity.to_bits());
        prop_assert_eq!(
            report.synthetic_fidelity.to_bits(),
            ref_report.synthetic_fidelity.to_bits()
        );
        prop_assert_eq!(report.student_nodes, ref_report.student_nodes);
        prop_assert_eq!(report.student_leaves, ref_report.student_leaves);
        prop_assert_eq!(report.student_depth, ref_report.student_depth);
        prop_assert_eq!(report.teacher_queries, ref_report.teacher_queries);
    }
}
