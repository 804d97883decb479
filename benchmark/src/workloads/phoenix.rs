//! `phoenix_ckpt`: what a kill costs an always-on drift session. A session
//! is built and run to the barrier, checkpointed and encoded; the process
//! "dies" (the session is dropped); the bytes are decoded and restored
//! into a fresh session, which finishes the run. The outcome must be
//! byte-for-byte the uninterrupted run's, computed in set-up.

use super::{Checks, Digest, Specific, Verdict, Workload};
use crate::scenarios::{drift_day, victim_index, PHOENIX_BARRIER_SECS, SMOKE_PHOENIX_BARRIER_SECS};
use crate::trace::Trace;
use campuslab::dataplane::PipelineProgram;
use campuslab::ml::DecisionTree;
use campuslab::netsim::{SimDuration, SimTime};
use campuslab::testbed::{
    decode_checkpoint, encode_checkpoint, fingerprint, DriftRunConfig, DriftSession, Fingerprint,
    Scenario,
};
use campuslab::Platform;
use std::time::Instant;

pub struct PhoenixCkpt {
    scenario: Scenario,
    program: PipelineProgram,
    window_model: DecisionTree,
    barrier: SimTime,
    /// Fingerprint of the same session run without interruption.
    uninterrupted: Fingerprint,
}

impl PhoenixCkpt {
    /// Span: `testbed.session_build`.
    fn session(&self, t: &mut Trace) -> DriftSession {
        t.span("testbed.session_build", |_| {
            DriftSession::new(
                &self.scenario,
                self.program.clone(),
                Box::new(self.window_model.clone()),
                DriftRunConfig::default(),
            )
        })
    }
}

pub fn setup(seed: u64, smoke: bool, _t: &mut Trace) -> Box<dyn Workload> {
    // The deployed lineage (known-good program + window model), trained as
    // E17/E19 train it.
    let platform = Platform::new(Scenario::small());
    let data = platform.collect();
    let mut workload = PhoenixCkpt {
        scenario: drift_day(seed, smoke),
        barrier: SimTime::ZERO
            + SimDuration::from_secs(if smoke {
                SMOKE_PHOENIX_BARRIER_SECS
            } else {
                PHOENIX_BARRIER_SECS
            }),
        program: platform.develop(&data).program,
        window_model: platform.train_window_model(&data),
        uninterrupted: Fingerprint::default(),
    };
    let session = workload.session(&mut Trace::new(false));
    workload.uninterrupted = fingerprint(&session.finish());
    Box::new(workload)
}

impl Workload for PhoenixCkpt {
    fn iterate(&mut self, t: &mut Trace) -> Verdict {
        let mut victim = self.session(t);
        t.span("testbed.run_to_barrier", |_| victim.run_until(self.barrier));
        let checkpoint = t.span("testbed.checkpoint", |_| victim.checkpoint());
        let bytes = t.span("testbed.encode", |_| encode_checkpoint(&checkpoint));
        drop(checkpoint);
        drop(victim);

        let mut checks = Checks::default();
        let mut digest = Digest::new();
        digest
            .add(victim_index(&self.scenario))
            .add(bytes.len() as u64);
        let mut specific = Specific {
            durable_bytes: Some(bytes.len() as u64),
            ..Specific::default()
        };
        let mut revived = self.session(t);
        let started = Instant::now();
        match t.span("testbed.decode", |_| decode_checkpoint(&bytes)) {
            Err(e) => checks.require(false, || format!("decode: {e}")),
            Ok(decoded) => {
                t.span("testbed.restore", |_| revived.restore(decoded));
                specific.recover_s = Some(started.elapsed().as_secs_f64());
                let outcome = t.span("testbed.finish", |_| revived.finish());
                // The session stops at a deadline, so packets may be in flight.
                let net = &outcome.net;
                checks.require(net.injected >= net.delivered + net.dropped_total(), || {
                    format!(
                        "resumed run delivered or dropped more than the {} injected",
                        net.injected
                    )
                });
                let resumed = fingerprint(&outcome);
                checks.require(resumed == self.uninterrupted, || {
                    "resumed fingerprint differs from the uninterrupted run".into()
                });
                digest
                    .add_net(&outcome.net)
                    .add_bytes(resumed.0.as_bytes())
                    .add_bytes(resumed.1.as_bytes())
                    .add_bytes(resumed.2.as_bytes());
            }
        }
        checks.verdict(&digest, specific)
    }
}
