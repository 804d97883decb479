//! The plaza service: admit tenants against the shared switch budget,
//! run admitted tenants, drain the FIFO queue as grants free up.
//!
//! The scheduler has one executor: each admission round's tenants run to
//! completion through [`campuslab_netsim::par::parallel_map_vec`] under
//! `CAMPUSLAB_JOBS` — on worker threads, or inline in batch order with one
//! worker. A tenant's bytes never depend on the worker count, because each
//! tenant is one private session run once to its own deadline (see
//! [`crate::tenant`]); the differential suite in `tests/isolation.rs` and
//! experiment E18's golden replay pin that at 1 and 4 workers.

use crate::tenant::{TenantOutcome, TenantSpec};
use campuslab_control::{PlazaObs, PlazaTally};
use campuslab_dataplane::{AdmissionController, AdmissionDecision, SwitchModel};
use campuslab_netsim::par::{parallel_map_vec, worker_count};

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
    /// histogram), booked from the fields above and the grants held at
    /// the end.
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
/// draining the queue in strict FIFO order as budgets free up. Every
/// tenant's demand is accounted against `SwitchModel::default()`.
pub struct Plaza {
    admission: AdmissionController,
    records: Vec<TenantRecord>,
    /// Admitted specs not yet run, in admission order.
    ready: Vec<TenantSpec>,
    /// Queued specs, FIFO, mirroring the admission controller's queue.
    waiting: Vec<TenantSpec>,
}

impl Default for Plaza {
    fn default() -> Self {
        Plaza::new()
    }
}

impl Plaza {
    /// An empty plaza over the default switch's budget.
    pub fn new() -> Self {
        Plaza {
            admission: AdmissionController::new(SwitchModel::default()),
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
        let demand = spec.demand(self.admission.switch());
        let decision = self.admission.submit(demand);
        self.records.push(TenantRecord { tenant: spec.name.clone(), decision: decision.clone() });
        match &decision {
            AdmissionDecision::Admitted { .. } => self.ready.push(spec),
            AdmissionDecision::Queued { .. } => self.waiting.push(spec),
            AdmissionDecision::Rejected(_) => {}
        }
        decision
    }

    /// Tenants currently waiting in the FIFO queue.
    pub fn queue_len(&self) -> usize {
        self.admission.queue_len()
    }

    /// Run every admitted tenant to completion, releasing each grant as
    /// its tenant finishes and admitting queued tenants into the freed
    /// budget (strict FIFO) until nothing is left to run.
    pub fn run(mut self) -> PlazaReport {
        let mut outcomes = Vec::new();
        let mut rounds = 0u64;
        while !self.ready.is_empty() {
            rounds += 1;
            let batch = std::mem::take(&mut self.ready);
            for outcome in run_batch(self.admission.switch(), batch) {
                for newly in self.admission.release(&outcome.name) {
                    // The drained spec was parked in submission order, so
                    // the first waiting entry with the drained name is it.
                    let i = self
                        .waiting
                        .iter()
                        .position(|s| s.name == newly.tenant)
                        .expect("queued demand always has a waiting spec");
                    self.ready.push(self.waiting.remove(i));
                }
                outcomes.push(outcome);
            }
        }
        let mut obs = PlazaObs::new();
        obs.book(&self.tally(&outcomes, rounds));
        PlazaReport { outcomes, records: self.records, rounds, obs }
    }

    /// The counts the admission records, the outcomes and `rounds`
    /// decide, and the grants held now. A queued tenant was admitted
    /// unless it is still waiting; every outcome released its grant.
    fn tally(&self, outcomes: &[TenantOutcome], rounds: u64) -> PlazaTally {
        let decided = |want: fn(&AdmissionDecision) -> bool| {
            self.records.iter().filter(|r| want(&r.decision)).count() as u64
        };
        let queued = decided(|d| matches!(d, AdmissionDecision::Queued { .. }));
        let admitted = decided(|d| matches!(d, AdmissionDecision::Admitted { .. }));
        PlazaTally {
            admitted: admitted + queued - self.admission.queue_len() as u64,
            queued,
            rejected: decided(|d| matches!(d, AdmissionDecision::Rejected(_))),
            released: outcomes.len() as u64,
            rounds,
            slice_events: outcomes.iter().map(TenantOutcome::sim_events).collect(),
            slots_used: self.admission.slots_used(),
            tcam_used: self.admission.tcam_used(),
            tenants_active: self.admission.admitted().len(),
        }
    }
}

/// Run one admission round's tenants to completion, whole tenants per
/// worker. Outcomes come back in batch order.
fn run_batch(switch: &SwitchModel, specs: Vec<TenantSpec>) -> Vec<TenantOutcome> {
    let workers = worker_count(specs.len());
    parallel_map_vec(specs, workers, |_, spec| spec.run(switch))
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
        let mut plaza = Plaza::new();
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
        assert!(report.outcomes.iter().all(|o| o.run.net.injected > 0));
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
        let mut plaza = Plaza::new();
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
            let mut plaza = Plaza::new();
            plaza.submit(TenantSpec::probe("alpha"));
            plaza.run()
        };
        let crowded = {
            let mut plaza = Plaza::new();
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
