//! The slow (offline) development loop of Figure 2: data store → black-box
//! training → XAI model extraction → compilation to a target-specific
//! program — producing a *deployable learning model* plus the evidence an
//! operator needs to trust it.

use campuslab_capture::PacketRecord;
use campuslab_dataplane::{compile_tree, CompileConfig, CompileReport, PipelineProgram};
use campuslab_features::{packet_dataset, LabelMode};
use campuslab_ml::{
    fidelity, Classifier, ConfusionMatrix, Dataset, DecisionTree, ForestConfig, GbtConfig,
    GradientBoostedTrees, Mlp, MlpConfig, Normalizer, RandomForest,
};
use campuslab_xai::{distill, DistillConfig, DistillationReport};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

/// Which black box anchors the loop.
#[derive(Debug, Clone, Copy)]
pub enum TeacherKind {
    Forest(ForestConfig),
    Mlp(MlpConfig),
    /// Gradient-boosted trees (binary label modes only).
    Gbt(GbtConfig),
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
#[derive(Debug, Clone, Serialize)]
pub struct ModelEval {
    pub accuracy: f64,
    pub precision_attack: f64,
    pub recall_attack: f64,
    pub f1_attack: f64,
    pub macro_f1: f64,
}

impl ModelEval {
    fn from_cm(cm: &ConfusionMatrix, positive: usize) -> Self {
        ModelEval {
            accuracy: cm.accuracy(),
            precision_attack: cm.precision(positive),
            recall_attack: cm.recall(positive),
            f1_attack: cm.f1(positive),
            macro_f1: cm.macro_f1(),
        }
    }
}

/// Everything one development-loop run produces.
pub struct DevLoopResult {
    /// The black-box teacher (kept for comparison experiments).
    pub teacher: Box<dyn Classifier + Send>,
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
    /// The feature normalizer (identity mapping info for MLP teachers).
    pub normalizer: Option<Normalizer>,
}

/// Run the development loop over captured (time-ordered) packet records.
pub fn run_development_loop(records: &[PacketRecord], cfg: &DevLoopConfig) -> DevLoopResult {
    assert!(records.len() >= 20, "development loop needs data");
    #[allow(clippy::disallowed_types)] // read by benchmark/ only; see `DevLoopResult::wall`
    let started = std::time::Instant::now();
    let data = packet_dataset(records, cfg.label_mode);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let (mut train, test) = if cfg.shuffle_split {
        data.split_shuffled(cfg.train_frac, &mut rng)
    } else {
        data.split_by_order(cfg.train_frac)
    };
    if let Some(ratio) = cfg.balance_ratio {
        train = train.balance(ratio, &mut rng);
    }
    assert!(!train.is_empty() && !test.is_empty(), "degenerate split");

    // Step (i): heavyweight black-box training.
    let (teacher, normalizer): (Box<dyn Classifier + Send>, Option<Normalizer>) =
        match cfg.teacher {
            TeacherKind::Forest(fcfg) => (Box::new(RandomForest::fit(&train, fcfg)), None),
            TeacherKind::Mlp(mcfg) => {
                let norm = Normalizer::fit(&train);
                let model = Mlp::fit(&norm.transform(&train), mcfg);
                (Box::new(NormalizedMlp { norm: norm.clone(), model }), Some(norm))
            }
            TeacherKind::Gbt(gcfg) => {
                assert!(
                    matches!(cfg.label_mode, LabelMode::BinaryAttack),
                    "GBT teacher requires the binary label mode"
                );
                (Box::new(GradientBoostedTrees::fit(&train, gcfg)), None)
            }
        };

    // Step (ii): model extraction into a shallow tree.
    let (student, distillation) = distill(teacher.as_ref(), &train, cfg.distill);

    // Step (iii): compile to the switch target.
    let (program, compile) = compile_tree(
        &student,
        cfg.compile,
        format!(
            "distilled-depth{}-gate{:.2}",
            distillation.student_depth, cfg.compile.confidence_gate
        ),
    );

    let teacher_cm = ConfusionMatrix::evaluate(teacher.as_ref(), &test);
    let student_cm = ConfusionMatrix::evaluate(&student, &test);
    let fid = fidelity(teacher.as_ref(), &student, &test);
    let positive = 1.min(test.n_classes.saturating_sub(1));
    DevLoopResult {
        teacher_eval: ModelEval::from_cm(&teacher_cm, positive),
        student_eval: ModelEval::from_cm(&student_cm, positive),
        fidelity: fid,
        teacher,
        student,
        program,
        distillation,
        compile,
        feature_names: data.feature_names.clone(),
        train_rows: train.len(),
        test_rows: test.len(),
        wall: started.elapsed(),
        test,
        normalizer,
    }
}

/// An MLP plus its input normalizer, presented as one classifier.
struct NormalizedMlp {
    norm: Normalizer,
    model: Mlp,
}

impl Classifier for NormalizedMlp {
    fn n_classes(&self) -> usize {
        self.model.n_classes()
    }

    fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        self.model.predict_proba(&self.norm.transform_row(row))
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
    fn gbt_teacher_also_works() {
        let cfg = DevLoopConfig {
            teacher: TeacherKind::Gbt(GbtConfig { n_rounds: 30, ..Default::default() }),
            ..Default::default()
        };
        let result = run_development_loop(&records(250), &cfg);
        assert!(result.teacher_eval.f1_attack > 0.9, "{:?}", result.teacher_eval);
        assert!(result.fidelity > 0.85, "fidelity {}", result.fidelity);
        assert!(result.program.n_entries() > 0);
    }

    #[test]
    fn mlp_teacher_also_works() {
        let cfg = DevLoopConfig {
            teacher: TeacherKind::Mlp(MlpConfig { epochs: 30, ..Default::default() }),
            ..Default::default()
        };
        let result = run_development_loop(&records(250), &cfg);
        assert!(result.teacher_eval.accuracy > 0.9, "{:?}", result.teacher_eval);
        assert!(result.normalizer.is_some());
        assert!(result.fidelity > 0.85);
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
