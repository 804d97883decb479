//! `learn_sweep`: E1's confidence-gate sweep — the development loop run
//! once per gate on a stored capture. Each pass retrains the identical
//! teacher, as E1 really does.

use super::{Checks, Digest, Specific, Verdict, Workload};
use crate::scenarios::{campus_day, victim_index, GATES};
use crate::trace::Trace;
use campuslab::capture::PacketRecord;
use campuslab::control::{run_development_loop, DevLoopConfig, TeacherKind};
use campuslab::dataplane::{compile_tree, CompileConfig};
use campuslab::features::packet_dataset;
use campuslab::ml::{fidelity, Classifier, ConfusionMatrix, RandomForest};
use campuslab::testbed::collect;
use campuslab::xai::distill;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

pub struct LearnSweep {
    packets: Vec<PacketRecord>,
    victim_index: u64,
}

pub fn setup(seed: u64, smoke: bool, t: &mut Trace) -> Box<dyn Workload> {
    let scenario = campus_day(seed, smoke);
    let packets = t.span("testbed.collect", |_| collect(&scenario)).packets;
    Box::new(LearnSweep {
        packets,
        victim_index: victim_index(&scenario),
    })
}

impl Workload for LearnSweep {
    fn iterate(&mut self, t: &mut Trace) -> Verdict {
        let mut checks = Checks::default();
        let mut digest = Digest::new();
        digest.add(self.victim_index);
        for gate in GATES {
            let cfg = DevLoopConfig {
                compile: CompileConfig {
                    confidence_gate: gate,
                    ..Default::default()
                },
                ..Default::default()
            };
            let dev = t.span("control.devloop", |_| {
                run_development_loop(&self.packets, &cfg)
            });
            checks.require(dev.fidelity > 0.8, || {
                format!("gate {gate}: fidelity {:.3}", dev.fidelity)
            });
            checks.require(dev.compile.tcam_entries == dev.program.n_entries(), || {
                format!("gate {gate}: report and program disagree on entries")
            });
            digest
                .add(dev.train_rows as u64)
                .add(dev.test_rows as u64)
                .add(dev.distillation.student_nodes as u64)
                .add(dev.program.fingerprint())
                .add(dev.fidelity.to_bits());
        }
        checks.verdict(&digest, Specific::default())
    }

    /// The development loop replayed step by step at the default gate, so
    /// each learning layer gets its own span. The replay must compile to
    /// the program the real call compiles, and the steps' sum is compared
    /// with what that call reports for itself (`DevLoopResult::wall`).
    fn probes(&mut self, t: &mut Trace) {
        let cfg = DevLoopConfig::default();
        let TeacherKind::Forest(forest_cfg) = cfg.teacher else {
            unreachable!("the default teacher is a random forest");
        };
        let before = t.wall();
        let data = t.span("features.packet_dataset", |_| {
            packet_dataset(&self.packets, cfg.label_mode)
        });
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let (train, test) = t.span("ml.balance", |_| {
            let (train, test) = data.split_by_order(cfg.train_frac);
            (
                train.balance(cfg.balance_ratio.expect("default balances"), &mut rng),
                test,
            )
        });
        // Boxed as the loop boxes it: later steps call it through the trait.
        let teacher: Box<dyn Classifier + Send> = t.span("ml.forest_fit", |_| {
            Box::new(RandomForest::fit(&train, forest_cfg))
        });
        let teacher = teacher.as_ref();
        let (student, report) = t.span("xai.distill", |_| distill(teacher, &train, cfg.distill));
        // Named as the loop names it: the name is part of the fingerprint.
        let name = format!(
            "distilled-depth{}-gate{:.2}",
            report.student_depth, cfg.compile.confidence_gate
        );
        let (program, _) = t.span("dataplane.compile", |_| {
            compile_tree(&student, cfg.compile, name)
        });
        t.span("ml.evaluate", |_| {
            black_box(ConfusionMatrix::evaluate(teacher, &test));
            black_box(ConfusionMatrix::evaluate(&student, &test));
            black_box(fidelity(teacher, &student, &test));
        });
        let replayed = (t.wall() - before).as_secs_f64();
        let real = run_development_loop(&self.packets, &cfg);
        assert_eq!(
            program.fingerprint(),
            real.program.fingerprint(),
            "replay diverged from the loop"
        );
        t.set("features.rows", data.len() as f64);
        t.set("ml.train_rows", train.len() as f64);
        t.set("xai.fidelity", report.fidelity);
        t.set(
            "control.devloop_replay_share",
            replayed / real.wall.as_secs_f64(),
        );
    }
}
