//! Model extraction: replace a heavyweight black box with an explainable,
//! lightweight surrogate "that closely approximates the original model" —
//! step (ii) of the paper's road to deployment (§5), after Bastani et
//! al.'s model extraction [8–10]. The teacher labels the real data and
//! rounds of synthetic rows drawn near it, and one shallow tree is fitted
//! to the lot. The sampler reads the data alone: unlike DAgger/VIPER it
//! never asks where the current student goes, so a round is a batch of
//! teacher queries, not a refit. A student-guided sampler would change
//! every student, and with them every pinned fingerprint and golden.

use campuslab_ml::{Classifier, Dataset, DecisionTree, TreeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Teacher-labelled synthetic queries per round.
const SAMPLES_PER_ROUND: usize = 2_000;
/// Synthesis seed: a student is a pure function of teacher, data and
/// config.
const SEED: u64 = 0x00D1_5711;

/// Extraction hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct DistillConfig {
    /// Shape of the student tree (shallow = deployable).
    pub tree: TreeConfig,
    /// Query rounds: each round is one batch of 2,000 synthetic inputs
    /// near the data manifold, labelled by the teacher and added to the
    /// training aggregate. The student is fitted once, after the last.
    pub rounds: usize,
}

impl Default for DistillConfig {
    fn default() -> Self {
        DistillConfig { tree: TreeConfig::shallow(6), rounds: 4 }
    }
}

/// What extraction produced and how faithful it is.
#[derive(Debug, Clone)]
pub struct DistillationReport {
    /// Student/teacher agreement on the provided data.
    pub fidelity: f64,
    /// Student/teacher agreement on held-out synthetic queries.
    pub synthetic_fidelity: f64,
    pub student_nodes: usize,
    pub student_leaves: usize,
    pub student_depth: usize,
    pub teacher_queries: usize,
}

/// Distill `teacher` into a shallow decision tree using `data` as the
/// sampling manifold. Returns the student and a fidelity report.
pub fn distill(
    teacher: &dyn Classifier,
    data: &Dataset,
    cfg: DistillConfig,
) -> (DecisionTree, DistillationReport) {
    assert!(!data.is_empty(), "need data to define the input manifold");
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut queries = 0usize;

    // Relabel the real data with the teacher (pure distillation).
    let labels = data.x.iter().map(|row| teacher.predict(row)).collect();
    queries += data.len();
    let mut agg = Dataset::new(data.x.clone(), labels, data.feature_names.clone());
    agg.n_classes = agg.n_classes.max(teacher.n_classes()).max(data.n_classes);

    // Each round adds one batch of synthetic rows, labelled by the
    // teacher. Sampling never reads a student, so the one fit comes after
    // the last round.
    for _ in 0..cfg.rounds * SAMPLES_PER_ROUND {
        let row = synthesize(&mut rng, data);
        queries += 1;
        let label = teacher.predict(&row);
        agg.n_classes = agg.n_classes.max(label + 1);
        agg.y.push(label);
        agg.x.push(row);
    }
    let student = DecisionTree::fit(&agg, cfg.tree);

    // Fidelity on the original data, against the teacher's labels.
    let agree = data
        .x
        .iter()
        .zip(&agg.y)
        .filter(|&(row, &label)| label == student.predict(row))
        .count();
    let fidelity = agree as f64 / data.len() as f64;

    // Fidelity on fresh synthetic queries (never trained on).
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

/// Synthesize an input near the data manifold: take a random real row and
/// resample a few coordinates from other rows' empirical marginals (the
/// standard extraction trick — stays realistic per-feature, explores
/// combinations the trace never showed).
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

#[cfg(test)]
mod tests {
    use super::*;
    use campuslab_ml::{ForestConfig, RandomForest};

    /// Labels depend on a threshold over feature 0 and a flag feature 1 —
    /// tree-friendly structure a shallow student can capture.
    fn data(seed: u64, n: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let v = rng.gen_range(0.0..100.0);
            let flag = f64::from(u8::from(rng.gen::<bool>()));
            let label = usize::from(v > 60.0 && flag > 0.5);
            x.push(vec![v, flag, rng.gen_range(0.0..1.0)]);
            y.push(label);
        }
        Dataset::new(x, y, vec!["v".into(), "flag".into(), "noise".into()])
    }

    #[test]
    fn student_is_faithful_and_small() {
        let d = data(1, 1500);
        let teacher = RandomForest::fit(&d, ForestConfig { n_trees: 25 });
        let (student, report) = distill(&teacher, &d, DistillConfig::default());
        assert!(report.fidelity > 0.95, "fidelity {}", report.fidelity);
        assert!(
            report.synthetic_fidelity > 0.9,
            "synthetic fidelity {}",
            report.synthetic_fidelity
        );
        assert!(student.n_nodes() * 20 < teacher.total_nodes());
        assert!(report.student_depth <= 6);
        assert_eq!(report.student_nodes, student.n_nodes());
    }

    #[test]
    fn dagger_rounds_do_not_hurt_fidelity() {
        let d = data(2, 800);
        let teacher = RandomForest::fit(&d, ForestConfig { n_trees: 10 });
        let (_, no_dagger) = distill(
            &teacher,
            &d,
            DistillConfig { rounds: 0, ..Default::default() },
        );
        let (_, dagger) = distill(&teacher, &d, DistillConfig::default());
        assert!(dagger.synthetic_fidelity + 0.03 >= no_dagger.synthetic_fidelity);
        assert!(dagger.teacher_queries > no_dagger.teacher_queries);
    }

    #[test]
    fn deterministic_per_seed() {
        let d = data(3, 500);
        let teacher = RandomForest::fit(&d, ForestConfig { n_trees: 5 });
        let (s1, r1) = distill(&teacher, &d, DistillConfig::default());
        let (s2, r2) = distill(&teacher, &d, DistillConfig::default());
        assert_eq!(r1.fidelity, r2.fidelity);
        for row in d.x.iter().take(100) {
            assert_eq!(s1.predict(row), s2.predict(row));
        }
    }

    #[test]
    fn depth_budget_trades_fidelity() {
        let d = data(4, 1000);
        let teacher = RandomForest::fit(&d, ForestConfig { n_trees: 20 });
        let (_, deep) = distill(
            &teacher,
            &d,
            DistillConfig { tree: TreeConfig::shallow(8), ..Default::default() },
        );
        let (_, stump) = distill(
            &teacher,
            &d,
            DistillConfig { tree: TreeConfig::shallow(1), ..Default::default() },
        );
        assert!(deep.fidelity >= stump.fidelity);
        assert!(stump.student_depth <= 1);
    }
}
