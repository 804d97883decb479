//! The plaza service: admit tenants against the shared switch budget,
//! schedule admitted slices, drain the FIFO queue as grants free up.
//!
//! The scheduler has two executors and one contract: a tenant's bytes
//! never depend on which executor ran it.
//!
//! * **Interleaved** (one worker): all slices of an admission round
//!   advance in lockstep over a shared window grid — cooperative
//!   multiplexing of N experiments on one OS thread.
//! * **Parallel** (N workers): whole slices run on
//!   [`campuslab_netsim::par`] worker threads, each reproducing the same
//!   window grid privately.
//!
//! The contract holds because a slice's advance schedule is a pure
//! function of its own spec (see [`TenantSlice`]), and it is pinned by
//! the differential suite in `tests/isolation.rs` plus experiment E18's
//! golden replay.

use crate::tenant::{TenantOutcome, TenantSlice, TenantSpec};
use campuslab_control::PlazaObs;
use campuslab_dataplane::{AdmissionController, AdmissionDecision, SwitchModel};
use campuslab_netsim::par::{parallel_map_vec, worker_count};
use campuslab_netsim::{SimDuration, SimTime};

/// Plaza-wide knobs.
#[derive(Debug, Clone)]
pub struct PlazaConfig {
    /// The shared dataplane budget every tenant's demand is accounted
    /// against.
    pub switch: SwitchModel,
    /// The scheduling window: the interleaved executor advances every
    /// live slice to each successive multiple of this.
    pub window: SimDuration,
    /// Per-tenant settle time past its workload end (the slice deadline
    /// is `workload.duration + settle`).
    pub settle: SimDuration,
}

impl Default for PlazaConfig {
    fn default() -> Self {
        PlazaConfig {
            switch: SwitchModel::default(),
            window: SimDuration::from_millis(500),
            settle: SimDuration::from_secs(4),
        }
    }
}

/// One submission's audit-trail entry: who asked, what the arbiter said.
#[derive(Debug, Clone)]
pub struct TenantRecord {
    pub tenant: String,
    pub decision: AdmissionDecision,
}

/// Everything a plaza session produced.
pub struct PlazaReport {
    /// Finished tenant outcomes, in completion order (admission rounds in
    /// order; within a round, submission order).
    pub outcomes: Vec<TenantOutcome>,
    /// The admission audit trail, in submission order.
    pub records: Vec<TenantRecord>,
    /// Admission rounds the scheduler executed.
    pub rounds: u64,
    /// Service-level telemetry (admission counters, budget gauges, slice
    /// histogram).
    pub obs: PlazaObs,
}

impl PlazaReport {
    /// Look one tenant's outcome up by name.
    pub fn outcome(&self, tenant: &str) -> Option<&TenantOutcome> {
        self.outcomes.iter().find(|o| o.name == tenant)
    }

    /// The admission story as one line per submission.
    pub fn admission_log(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            let verdict = match &r.decision {
                AdmissionDecision::Admitted { slots_used, tcam_used } => {
                    format!("admitted (pool now {slots_used} slots, {tcam_used} tcam)")
                }
                AdmissionDecision::Queued { position } => format!("queued at {position}"),
                AdmissionDecision::Rejected(e) => format!("rejected: {e}"),
            };
            out.push_str(&format!("{}: {}\n", r.tenant, verdict));
        }
        out
    }
}

/// Experimentation-as-a-Service over one shared campus testbed: submit
/// tenants, then [`Plaza::run`] every admitted experiment to completion,
/// draining the queue in strict FIFO order as budgets free up.
pub struct Plaza {
    cfg: PlazaConfig,
    admission: AdmissionController,
    obs: PlazaObs,
    records: Vec<TenantRecord>,
    /// Admitted specs not yet run, in admission order.
    ready: Vec<TenantSpec>,
    /// Queued specs, FIFO, mirroring the admission controller's queue.
    waiting: Vec<TenantSpec>,
}

impl Plaza {
    /// An empty plaza over `cfg.switch`'s budget.
    pub fn new(cfg: PlazaConfig) -> Self {
        let admission = AdmissionController::new(cfg.switch);
        Plaza {
            cfg,
            admission,
            obs: PlazaObs::new(),
            records: Vec::new(),
            ready: Vec::new(),
            waiting: Vec::new(),
        }
    }

    /// Submit one tenant for admission. The typed decision comes back
    /// immediately; admitted and queued tenants run on [`Plaza::run`],
    /// rejected ones are recorded and dropped. Tenant names must be
    /// unique — the name is the admission controller's release handle.
    pub fn submit(&mut self, spec: TenantSpec) -> AdmissionDecision {
        let demand = spec.demand(&self.cfg.switch);
        let decision = self.admission.submit(demand);
        self.records.push(TenantRecord { tenant: spec.name.clone(), decision: decision.clone() });
        match &decision {
            AdmissionDecision::Admitted { .. } => {
                self.obs.on_admitted();
                self.ready.push(spec);
            }
            AdmissionDecision::Queued { .. } => {
                self.obs.on_queued();
                self.waiting.push(spec);
            }
            AdmissionDecision::Rejected(_) => self.obs.on_rejected(),
        }
        self.set_budget_gauges();
        decision
    }

    /// Tenants currently waiting in the FIFO queue.
    pub fn queue_len(&self) -> usize {
        self.admission.queue_len()
    }

    /// Run every admitted tenant to completion, releasing each grant as
    /// its slice finishes and admitting queued tenants into the freed
    /// budget (strict FIFO) until nothing is left to run.
    pub fn run(mut self) -> PlazaReport {
        let mut outcomes = Vec::new();
        let mut rounds = 0u64;
        while !self.ready.is_empty() {
            rounds += 1;
            self.obs.on_round();
            let batch = std::mem::take(&mut self.ready);
            for outcome in run_batch(&self.cfg, batch) {
                self.obs.on_slice(
                    outcome.net.injected + outcome.net.delivered + outcome.net.dropped_total(),
                );
                self.obs.on_released();
                for newly in self.admission.release(&outcome.name) {
                    // The drained spec was parked in submission order, so
                    // the first waiting entry with the drained name is it.
                    let i = self
                        .waiting
                        .iter()
                        .position(|s| s.name == newly.tenant)
                        .expect("queued demand always has a waiting spec");
                    self.obs.on_admitted();
                    self.ready.push(self.waiting.remove(i));
                }
                outcomes.push(outcome);
            }
            self.set_budget_gauges();
        }
        PlazaReport { outcomes, records: self.records, rounds, obs: self.obs }
    }

    fn set_budget_gauges(&mut self) {
        self.obs.set_budget(
            self.admission.slots_used(),
            self.admission.tcam_used(),
            self.admission.admitted().len(),
        );
    }
}

/// Run one admission round's slices to completion. One worker (or one
/// slice) interleaves on the shared window grid; more workers run whole
/// slices in parallel over the identical grid. Outcomes come back in
/// batch order either way.
fn run_batch(cfg: &PlazaConfig, specs: Vec<TenantSpec>) -> Vec<TenantOutcome> {
    let workers = worker_count(specs.len());
    if workers <= 1 {
        let mut slices: Vec<TenantSlice> = specs
            .into_iter()
            .map(|s| TenantSlice::build(s, &cfg.switch, cfg.window, cfg.settle))
            .collect();
        let step = cfg.window.as_nanos().max(1);
        let mut round = 0u64;
        while slices.iter().any(|s| !s.is_done()) {
            round += 1;
            let cap = SimTime(step.saturating_mul(round));
            for s in slices.iter_mut() {
                s.advance(cap);
            }
        }
        slices.into_iter().map(TenantSlice::finish).collect()
    } else {
        let (switch, window, settle) = (cfg.switch, cfg.window, cfg.settle);
        parallel_map_vec(specs, workers, move |_, spec| {
            let mut slice = TenantSlice::build(spec, &switch, window, settle);
            slice.run_to_completion();
            slice.finish()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three tenants sized so the default switch (24576 TCAM) holds two:
    /// each reserves 10_000 TCAM entries on top of the 1-entry sentinel.
    fn heavy(name: &str) -> TenantSpec {
        let mut spec = TenantSpec::probe(name);
        spec.reserved_tcam = 10_000;
        spec
    }

    #[test]
    fn overflow_queues_then_drains_fifo_and_everyone_runs() {
        let mut plaza = Plaza::new(PlazaConfig::default());
        assert!(matches!(
            plaza.submit(heavy("alpha")),
            AdmissionDecision::Admitted { .. }
        ));
        assert!(matches!(
            plaza.submit(heavy("bravo")),
            AdmissionDecision::Admitted { .. }
        ));
        assert_eq!(plaza.submit(heavy("charlie")), AdmissionDecision::Queued { position: 0 });
        assert_eq!(plaza.queue_len(), 1);

        let report = plaza.run();
        assert_eq!(report.rounds, 2, "queued tenant needs a second round");
        let names: Vec<&str> = report.outcomes.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names, ["alpha", "bravo", "charlie"]);
        assert!(report.outcomes.iter().all(|o| o.net.injected > 0));
        // Service telemetry tells the same story.
        assert_eq!(report.obs.admitted(), 3);
        assert_eq!(report.obs.queued(), 1);
        assert_eq!(report.obs.rejected(), 0);
        assert_eq!(report.obs.released(), 3);
        assert_eq!(report.obs.slices(), 3);
        assert_eq!(report.obs.tenants_active(), 0, "all grants released");
        let log = report.admission_log();
        assert!(log.contains("charlie: queued at 0"), "log:\n{log}");
    }

    #[test]
    fn infeasible_tenant_is_rejected_and_never_runs() {
        let mut plaza = Plaza::new(PlazaConfig::default());
        let mut monster = TenantSpec::probe("monster");
        monster.reserved_tcam = 1_000_000;
        assert!(matches!(plaza.submit(monster), AdmissionDecision::Rejected(_)));
        plaza.submit(TenantSpec::probe("ok"));
        let report = plaza.run();
        assert_eq!(report.outcomes.len(), 1);
        assert_eq!(report.outcomes[0].name, "ok");
        assert_eq!(report.obs.rejected(), 1);
        assert!(report.admission_log().contains("monster: rejected"));
    }

    #[test]
    fn per_tenant_bytes_ignore_the_neighbor_count() {
        // The heart of the tenancy story, in miniature: "alpha" alone
        // and "alpha" next to two neighbors produce identical bytes.
        // (The full differential suite lives in tests/isolation.rs.)
        let solo = {
            let mut plaza = Plaza::new(PlazaConfig::default());
            plaza.submit(TenantSpec::probe("alpha"));
            plaza.run()
        };
        let crowded = {
            let mut plaza = Plaza::new(PlazaConfig::default());
            plaza.submit(TenantSpec::probe("alpha"));
            plaza.submit(TenantSpec::probe("bravo"));
            plaza.submit(TenantSpec::probe("charlie"));
            plaza.run()
        };
        let a = solo.outcome("alpha").unwrap().fingerprint();
        let b = crowded.outcome("alpha").unwrap().fingerprint();
        assert_eq!(a, b, "alpha's bytes changed when neighbors appeared");
    }
}
