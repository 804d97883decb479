//! The slow (offline) development loop of Figure 2, in the paper's three
//! stages, each handing a typed value to the next: [`Teacher::fit`]
//! (records → one seeded split and balance → black-box training; the black
//! box answers the test split once), [`Teacher::extract`] (XAI extraction
//! into a [`Student`]: the distilled tree, its report, test-split confusion
//! matrix and evaluation, and fidelity) and [`Student::compile`] (a named
//! target-specific program). [`run_development_loop`] runs all three under
//! one config. A sweep fits once and repeats only its knob's stage: E1
//! compiles per confidence gate, E6 extracts per depth.

use campuslab_capture::PacketRecord;
use campuslab_dataplane::{compile_tree, CompileConfig, CompileReport, PipelineProgram};
use campuslab_features::{packet_dataset, LabelMode};
use campuslab_ml::{
    Classifier, ConfusionMatrix, Dataset, DecisionTree, ForestConfig, MlpConfig, NormalizedMlp,
    RandomForest,
};
use campuslab_xai::{distill, DistillConfig, DistillationReport};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which black box anchors the loop.
#[derive(Debug, Clone, Copy)]
pub enum TeacherKind {
    Forest(ForestConfig),
    Mlp(MlpConfig),
}

impl Default for TeacherKind {
    fn default() -> Self {
        TeacherKind::Forest(ForestConfig::default())
    }
}

/// Development-loop configuration.
#[derive(Debug, Clone)]
pub struct DevLoopConfig {
    pub label_mode: LabelMode,
    pub teacher: TeacherKind,
    pub distill: DistillConfig,
    pub compile: CompileConfig,
    /// Time-ordered train fraction.
    pub train_frac: f64,
    /// Cap majority/minority ratio on the training split (None = as-is).
    pub balance_ratio: Option<f64>,
    /// Use a shuffled (i.i.d.) split instead of the time-ordered one.
    /// Ordered splits are the honest default for deployment studies;
    /// shuffled splits suit protocol studies (e.g. cross-campus transfer)
    /// where the test tail may contain no positives at all.
    pub shuffle_split: bool,
    pub seed: u64,
}

impl Default for DevLoopConfig {
    fn default() -> Self {
        DevLoopConfig {
            label_mode: LabelMode::BinaryAttack,
            teacher: TeacherKind::default(),
            distill: DistillConfig::default(),
            compile: CompileConfig::default(),
            train_frac: 0.7,
            balance_ratio: Some(3.0),
            shuffle_split: false,
            seed: 0xDE_100,
        }
    }
}

/// Metrics for one model on the held-out test split.
#[derive(Debug, Clone)]
pub struct ModelEval {
    pub accuracy: f64,
    pub precision_attack: f64,
    pub recall_attack: f64,
    pub f1_attack: f64,
    pub macro_f1: f64,
}

impl ModelEval {
    /// Score one model's answers (`pred[i]` for `test` row `i`).
    fn score(test: &Dataset, n_classes: usize, pred: &[usize]) -> (ConfusionMatrix, Self) {
        let cm = ConfusionMatrix::from_pairs(
            test.n_classes.max(n_classes),
            test.y.iter().copied().zip(pred.iter().copied()),
        );
        let positive = 1.min(test.n_classes.saturating_sub(1));
        let eval = ModelEval {
            accuracy: cm.accuracy(),
            precision_attack: cm.precision(positive),
            recall_attack: cm.recall(positive),
            f1_attack: cm.f1(positive),
            macro_f1: cm.macro_f1(),
        };
        (cm, eval)
    }
}

/// The fitted black box of a [`Teacher`].
pub enum TeacherModel {
    Forest(RandomForest),
    Mlp(NormalizedMlp),
}

impl TeacherModel {
    fn classifier(&self) -> &dyn Classifier {
        match self {
            TeacherModel::Forest(forest) => forest,
            TeacherModel::Mlp(mlp) => mlp,
        }
    }
}

/// Stage 1's hand-off: a black box fitted on one record window, with the
/// splits it was fitted and tested on.
pub struct Teacher {
    pub model: TeacherModel,
    /// The (balanced) training split: extraction's sampling manifold.
    pub train: Dataset,
    /// The held-out test split.
    pub test: Dataset,
    /// The black box on the test split.
    pub eval: ModelEval,
    /// The black box's answer for each test row, computed once.
    test_pred: Vec<usize>,
}

impl Teacher {
    /// Build the packet dataset, split it and balance the training split
    /// with the one `cfg.seed` RNG, fit `cfg.teacher` and answer the test
    /// split. Reads neither `cfg.distill` nor `cfg.compile`.
    pub fn fit(records: &[PacketRecord], cfg: &DevLoopConfig) -> Teacher {
        assert!(records.len() >= 20, "development loop needs data");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let (mut train, test) = {
            let data = packet_dataset(records, cfg.label_mode);
            if cfg.shuffle_split {
                data.split_shuffled(cfg.train_frac, &mut rng)
            } else {
                data.split_by_order(cfg.train_frac)
            }
        };
        if let Some(ratio) = cfg.balance_ratio {
            train = train.balance(ratio, &mut rng);
        }
        assert!(!train.is_empty() && !test.is_empty(), "degenerate split");

        // Step (i): heavyweight black-box training.
        let model = match cfg.teacher {
            TeacherKind::Forest(fcfg) => TeacherModel::Forest(RandomForest::fit(&train, fcfg)),
            TeacherKind::Mlp(mcfg) => TeacherModel::Mlp(NormalizedMlp::fit(&train, mcfg)),
        };
        let model_ref = model.classifier();
        let test_pred = model_ref.predict_batch(&test.x);
        let (_, eval) = ModelEval::score(&test, model_ref.n_classes(), &test_pred);
        Teacher { model, train, test, eval, test_pred }
    }

    /// Step (ii): extract a shallow tree from the teacher and evaluate it
    /// on the test split.
    pub fn extract(&self, cfg: DistillConfig) -> Student {
        let (tree, report) = distill(self.model.classifier(), &self.train, cfg);
        let pred = tree.predict_batch(&self.test.x);
        let (cm, eval) = ModelEval::score(&self.test, tree.n_classes(), &pred);
        let agree = self.test_pred.iter().zip(&pred).filter(|(t, s)| t == s).count();
        Student { tree, report, cm, eval, fidelity: agree as f64 / self.test.len() as f64 }
    }
}

/// Stage 2's hand-off: a distilled tree and its evidence.
#[derive(Debug, Clone)]
pub struct Student {
    pub tree: DecisionTree,
    pub report: DistillationReport,
    /// The tree on the test split, per class.
    pub cm: ConfusionMatrix,
    pub eval: ModelEval,
    /// Student/teacher agreement on the test split.
    pub fidelity: f64,
}

impl Student {
    /// Step (iii): compile to the switch target. The program is named
    /// `distilled-depth{d}-gate{g:.2}`, and the name is part of its
    /// fingerprint.
    pub fn compile(&self, cfg: CompileConfig) -> (PipelineProgram, CompileReport) {
        let (depth, gate) = (self.report.student_depth, cfg.confidence_gate);
        compile_tree(&self.tree, cfg, format!("distilled-depth{depth}-gate{gate:.2}"))
    }
}

/// Everything one development-loop run produces.
pub struct DevLoopResult {
    /// The deployable distilled tree.
    pub student: DecisionTree,
    /// The compiled switch program.
    pub program: PipelineProgram,
    pub teacher_eval: ModelEval,
    pub student_eval: ModelEval,
    /// Student/teacher agreement on the test split.
    pub fidelity: f64,
    pub distillation: DistillationReport,
    pub compile: CompileReport,
    pub feature_names: Vec<String>,
    pub train_rows: usize,
    pub test_rows: usize,
    /// Wall-clock time of the whole loop. The workspace's one clock read
    /// outside a timing gate, kept for the PerfLedger alone: its
    /// `control.devloop_replay_share` divides a step-by-step replay by this
    /// (`benchmark/src/workloads/learn.rs`). No experiment prints it.
    pub wall: std::time::Duration,
    /// The held-out test split, for downstream experiments.
    pub test: Dataset,
}

/// Run the development loop over captured (time-ordered) packet records:
/// [`Teacher::fit`], [`Teacher::extract`] and [`Student::compile`] in a
/// row, under one config.
pub fn run_development_loop(records: &[PacketRecord], cfg: &DevLoopConfig) -> DevLoopResult {
    #[allow(clippy::disallowed_types)] // read by benchmark/ only; see `DevLoopResult::wall`
    let started = std::time::Instant::now();
    let teacher = Teacher::fit(records, cfg);
    let student = teacher.extract(cfg.distill);
    let (program, compile) = student.compile(cfg.compile);
    let Teacher { eval: teacher_eval, train, test, .. } = teacher;
    DevLoopResult {
        student: student.tree,
        program,
        teacher_eval,
        student_eval: student.eval,
        fidelity: student.fidelity,
        distillation: student.report,
        compile,
        feature_names: test.feature_names.clone(),
        train_rows: train.len(),
        test_rows: test.len(),
        wall: started.elapsed(),
        test,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use campuslab_capture::{Direction, TcpFlags};
    use std::net::IpAddr;

    fn rec(ts: u64, proto: u8, sport: u16, len: u32, attack: u16) -> PacketRecord {
        PacketRecord {
            ts_ns: ts,
            direction: Direction::Inbound,
            src: IpAddr::from([203, 0, 113, 1]),
            dst: IpAddr::from([10, 1, 1, 10]),
            protocol: proto,
            src_port: sport,
            dst_port: 40_000,
            wire_len: len,
            ttl: 60,
            tcp_flags: TcpFlags::default(),
            flow_id: 0,
            label_app: 1,
            label_attack: attack,
        }
    }

    /// Amplification-shaped records: attacks are big UDP from port 53.
    fn records(n: usize) -> Vec<PacketRecord> {
        let mut out = Vec::new();
        for i in 0..n as u64 {
            out.push(rec(i * 3_000, 17, 53, 1_400 + (i % 200) as u32, 1));
            out.push(rec(i * 3_000 + 1_000, 6, 443, 200 + (i % 900) as u32, 0));
            out.push(rec(i * 3_000 + 2_000, 17, 53, 90 + (i % 40) as u32, 0));
        }
        out
    }

    #[test]
    fn full_loop_produces_accurate_deployable_model() {
        let result = run_development_loop(&records(400), &DevLoopConfig::default());
        assert!(result.teacher_eval.f1_attack > 0.95, "{:?}", result.teacher_eval);
        assert!(result.student_eval.f1_attack > 0.9, "{:?}", result.student_eval);
        assert!(result.fidelity > 0.9, "fidelity {}", result.fidelity);
        assert!(result.program.n_entries() > 0);
        assert!(result.compile.leaves_drop > 0);
        assert!(result.distillation.student_depth <= 6);
        assert!(result.train_rows > 0 && result.test_rows > 0);
    }

    #[test]
    fn mlp_teacher_also_works() {
        let cfg = DevLoopConfig {
            teacher: TeacherKind::Mlp(MlpConfig { epochs: 30 }),
            ..Default::default()
        };
        let teacher = Teacher::fit(&records(250), &cfg);
        assert!(matches!(teacher.model, TeacherModel::Mlp(_)));
        assert!(teacher.eval.accuracy > 0.9, "{:?}", teacher.eval);
        assert!(teacher.extract(cfg.distill).fidelity > 0.85);
    }

    /// Asserts, field by field, that the staged `teacher` and `student`
    /// reproduce one `run_development_loop` call under `cfg`.
    fn assert_same(cfg: &DevLoopConfig, teacher: &Teacher, student: &Student, knob: &str) {
        let dev = run_development_loop(&records(400), cfg);
        let (program, compile) = student.compile(cfg.compile);
        let debug = |v: &dyn std::fmt::Debug| format!("{v:?}");
        assert_eq!(dev.program.fingerprint(), program.fingerprint(), "{knob}: program");
        assert_eq!(debug(&dev.compile), debug(&compile), "{knob}: compile report");
        assert_eq!(debug(&dev.student), debug(&student.tree), "{knob}: student");
        assert_eq!(debug(&dev.teacher_eval), debug(&teacher.eval), "{knob}: teacher eval");
        assert_eq!(debug(&dev.student_eval), debug(&student.eval), "{knob}: student eval");
        assert_eq!(dev.fidelity.to_bits(), student.fidelity.to_bits(), "{knob}: fidelity");
        assert_eq!(debug(&dev.distillation), debug(&student.report), "{knob}: distillation");
        assert_eq!(dev.train_rows, teacher.train.len(), "{knob}: train rows");
        assert_eq!(dev.test_rows, teacher.test.len(), "{knob}: test rows");
    }

    #[test]
    fn one_fit_swept_over_gates_and_depths_equals_one_loop_per_knob() {
        let teacher = Teacher::fit(&records(400), &DevLoopConfig::default());
        let student = teacher.extract(DistillConfig::default());
        // E1's gates: one student, compiled per gate.
        for gate in [0.5, 0.7, 0.8, 0.9, 0.95, 0.99] {
            let cfg = DevLoopConfig {
                compile: CompileConfig { confidence_gate: gate, ..Default::default() },
                ..Default::default()
            };
            assert_same(&cfg, &teacher, &student, &format!("gate {gate}"));
        }
        // E6's depths: one teacher, extracted per depth.
        for depth in [1usize, 2, 4, 6, 8] {
            let distill = DistillConfig {
                tree: campuslab_ml::TreeConfig::shallow(depth),
                ..Default::default()
            };
            let cfg = DevLoopConfig { distill, ..Default::default() };
            assert_same(&cfg, &teacher, &teacher.extract(distill), &format!("depth {depth}"));
        }
    }

    #[test]
    fn staged_mlp_teacher_equals_the_loop() {
        let cfg = DevLoopConfig {
            teacher: TeacherKind::Mlp(MlpConfig { epochs: 30 }),
            ..Default::default()
        };
        let teacher = Teacher::fit(&records(400), &cfg);
        assert_same(&cfg, &teacher, &teacher.extract(cfg.distill), "mlp");
    }

    #[test]
    fn student_is_deployable_where_teacher_is_not() {
        let result = run_development_loop(&records(400), &DevLoopConfig::default());
        // The whole point: the student compiles into a bounded number of
        // TCAM entries; a 40-tree forest has no compilation path at all.
        let switch = campuslab_dataplane::SwitchModel::default();
        assert!(switch.max_concurrent(&result.program) >= 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let r1 = run_development_loop(&records(150), &DevLoopConfig::default());
        let r2 = run_development_loop(&records(150), &DevLoopConfig::default());
        assert_eq!(r1.student_eval.accuracy, r2.student_eval.accuracy);
        assert_eq!(r1.program.n_entries(), r2.program.n_entries());
    }

    #[test]
    #[should_panic(expected = "needs data")]
    fn too_little_data_panics() {
        run_development_loop(&records(2)[..6], &DevLoopConfig::default());
    }
}
