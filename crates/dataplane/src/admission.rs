//! Tenant admission against the switch resource envelope.
//!
//! The plaza service admits many independent road-tests ("tenants") onto
//! one shared campus, but the dataplane budget — stage slots and TCAM —
//! is a single pool ([`SwitchModel`]). The [`AdmissionController`] is the
//! arbiter: each tenant declares a [`TenantDemand`] up front, and the
//! controller either grants it immediately, parks it in a strict-FIFO
//! queue until earlier tenants release their budget, or rejects it
//! outright (typed, never a panic) when the demand could not fit even an
//! empty switch.
//!
//! Invariants, pinned by unit tests here and a property suite in
//! `tests/admission.rs`:
//! * granted slots never exceed [`SwitchModel::total_slots`] and granted
//!   TCAM never exceeds [`SwitchModel::total_tcam`], at every step;
//! * the queue drains in exact submission order (the head blocks — no
//!   smaller tenant ever jumps a waiting larger one, so admission order
//!   is a pure function of the submission sequence);
//! * every decision is a typed [`AdmissionDecision`].

use crate::program::PipelineProgram;
use crate::resources::{ResourceError, SwitchModel};
use std::collections::VecDeque;

/// One tenant's declared dataplane demand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantDemand {
    /// Tenant name; the controller's handle for release.
    pub tenant: String,
    /// TCAM entries the tenant may install, across all its programs.
    pub tcam_entries: usize,
    /// Stage/table slots the tenant occupies.
    pub stage_slots: usize,
}

impl TenantDemand {
    /// Demand for a flat entry budget: slots follow the same
    /// `ceil(entries / per-stage)` rule as [`SwitchModel::footprint`],
    /// with the one-slot minimum (a tenant always owns a table).
    pub fn for_entries(tenant: impl Into<String>, entries: usize, switch: &SwitchModel) -> Self {
        TenantDemand {
            tenant: tenant.into(),
            tcam_entries: entries,
            stage_slots: entries
                .div_ceil(switch.tcam_entries_per_stage.max(1))
                .max(1),
        }
    }

    /// Demand covering a concrete program set plus `reserved_entries` of
    /// headroom (rules the tenant may still install mid-run — mitigation
    /// rules, rollout candidates).
    pub fn for_programs(
        tenant: impl Into<String>,
        programs: &[&PipelineProgram],
        reserved_entries: usize,
        switch: &SwitchModel,
    ) -> Self {
        let entries: usize = programs.iter().map(|p| p.n_entries()).sum();
        TenantDemand::for_entries(tenant, entries + reserved_entries, switch)
    }
}

/// The controller's typed verdict on one submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Budget granted; the pool totals after the grant ride along.
    Admitted { slots_used: usize, tcam_used: usize },
    /// Parked in the FIFO queue; `position` is 0-based from the head.
    Queued { position: usize },
    /// The demand cannot fit even an empty switch: refused outright.
    Rejected(ResourceError),
}

/// FIFO admission over one switch's budget. See the module docs for the
/// invariants.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    switch: SwitchModel,
    admitted: Vec<TenantDemand>,
    queue: VecDeque<TenantDemand>,
}

impl AdmissionController {
    /// An empty controller over `switch`'s budget.
    pub fn new(switch: SwitchModel) -> Self {
        AdmissionController { switch, admitted: Vec::new(), queue: VecDeque::new() }
    }

    /// The budget envelope being arbitrated.
    pub fn switch(&self) -> &SwitchModel {
        &self.switch
    }

    /// Stage slots currently granted.
    pub fn slots_used(&self) -> usize {
        self.admitted.iter().map(|d| d.stage_slots).sum()
    }

    /// TCAM entries currently granted.
    pub fn tcam_used(&self) -> usize {
        self.admitted.iter().map(|d| d.tcam_entries).sum()
    }

    /// Tenants currently holding a grant, in admission order.
    pub fn admitted(&self) -> &[TenantDemand] {
        &self.admitted
    }

    /// Tenants waiting, head first.
    pub fn queued(&self) -> impl Iterator<Item = &TenantDemand> {
        self.queue.iter()
    }

    /// Number of tenants waiting.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    fn fits(&self, d: &TenantDemand) -> bool {
        self.slots_used() + d.stage_slots <= self.switch.total_slots()
            && self.tcam_used() + d.tcam_entries <= self.switch.total_tcam()
    }

    /// Could `d` fit an empty switch at all? A typed error when not.
    fn feasible(&self, d: &TenantDemand) -> Result<(), ResourceError> {
        if d.tcam_entries > self.switch.total_tcam() {
            return Err(ResourceError::ProgramTooLarge {
                name: d.tenant.clone(),
                entries: d.tcam_entries,
                capacity: self.switch.total_tcam(),
            });
        }
        if d.stage_slots > self.switch.total_slots() {
            return Err(ResourceError::OutOfSlots {
                needed: d.stage_slots,
                available: self.switch.total_slots(),
            });
        }
        Ok(())
    }

    /// Submit one tenant. Infeasible demands are rejected; feasible ones
    /// are admitted when the pool has room AND nobody is waiting (strict
    /// FIFO — arrivals never overtake the queue), else queued.
    pub fn submit(&mut self, demand: TenantDemand) -> AdmissionDecision {
        if let Err(e) = self.feasible(&demand) {
            return AdmissionDecision::Rejected(e);
        }
        if self.queue.is_empty() && self.fits(&demand) {
            self.admitted.push(demand);
            AdmissionDecision::Admitted {
                slots_used: self.slots_used(),
                tcam_used: self.tcam_used(),
            }
        } else {
            self.queue.push_back(demand);
            AdmissionDecision::Queued { position: self.queue.len() - 1 }
        }
    }

    /// Free `tenant`'s grant (a no-op for unknown or queued names) and
    /// drain the queue head-first into the freed room. Returns the
    /// demands admitted by this release, in admission order.
    pub fn release(&mut self, tenant: &str) -> Vec<TenantDemand> {
        if let Some(i) = self.admitted.iter().position(|d| d.tenant == tenant) {
            self.admitted.remove(i);
        }
        self.drain_queue()
    }

    /// Admit from the queue head while the head fits; the first
    /// non-fitting head blocks everything behind it.
    fn drain_queue(&mut self) -> Vec<TenantDemand> {
        let mut newly = Vec::new();
        while let Some(head) = self.queue.front() {
            if !self.fits(head) {
                break;
            }
            let d = self.queue.pop_front().expect("front() just returned Some");
            self.admitted.push(d.clone());
            newly.push(d);
        }
        newly
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_switch() -> SwitchModel {
        SwitchModel { stages: 2, tcam_entries_per_stage: 100, max_tables_per_stage: 2 }
    }

    #[test]
    fn demand_follows_the_footprint_rule() {
        let sw = SwitchModel::default();
        let d = TenantDemand::for_entries("t", 0, &sw);
        assert_eq!(d.stage_slots, 1, "a tenant always owns at least one table");
        let d = TenantDemand::for_entries("t", 2_049, &sw);
        assert_eq!(d.stage_slots, 2);
    }

    #[test]
    fn admit_until_full_then_queue_then_drain_fifo() {
        // 4 slots, 200 TCAM total.
        let mut ac = AdmissionController::new(small_switch());
        for name in ["a", "b", "c", "d"] {
            assert!(matches!(
                ac.submit(TenantDemand::for_entries(name, 10, &ac.switch().clone())),
                AdmissionDecision::Admitted { .. }
            ));
        }
        let sw = *ac.switch();
        assert_eq!(ac.submit(TenantDemand::for_entries("e", 10, &sw)), AdmissionDecision::Queued { position: 0 });
        assert_eq!(ac.submit(TenantDemand::for_entries("f", 10, &sw)), AdmissionDecision::Queued { position: 1 });
        // Freeing one slot admits exactly the head.
        let newly = ac.release("b");
        assert_eq!(newly.len(), 1);
        assert_eq!(newly[0].tenant, "e");
        assert_eq!(ac.queue_len(), 1);
        // Freeing another admits "f".
        assert_eq!(ac.release("a")[0].tenant, "f");
        assert_eq!(ac.queue_len(), 0);
        assert_eq!(ac.slots_used(), 4);
    }

    #[test]
    fn head_of_line_blocks_smaller_tenants_behind_it() {
        let mut ac = AdmissionController::new(small_switch());
        let sw = *ac.switch();
        // 150 TCAM admitted; a 100-TCAM head cannot fit, a 10-TCAM tenant
        // behind it could — but strict FIFO keeps it waiting.
        ac.submit(TenantDemand::for_entries("big", 150, &sw));
        ac.submit(TenantDemand::for_entries("head", 100, &sw));
        let d = ac.submit(TenantDemand::for_entries("tiny", 10, &sw));
        assert_eq!(d, AdmissionDecision::Queued { position: 1 });
        assert_eq!(ac.release("nobody").len(), 0, "no release, no drain");
        let newly = ac.release("big");
        assert_eq!(
            newly.iter().map(|d| d.tenant.as_str()).collect::<Vec<_>>(),
            ["head", "tiny"],
            "drain admits in FIFO order once the head fits"
        );
    }

    #[test]
    fn infeasible_demands_are_rejected_typed() {
        let mut ac = AdmissionController::new(small_switch());
        let sw = *ac.switch();
        match ac.submit(TenantDemand::for_entries("monster", 10_000, &sw)) {
            AdmissionDecision::Rejected(ResourceError::ProgramTooLarge { entries, capacity, .. }) => {
                assert_eq!(entries, 10_000);
                assert_eq!(capacity, 200);
            }
            other => panic!("expected typed reject, got {other:?}"),
        }
        // A rejected tenant never enters the queue.
        assert_eq!(ac.queue_len(), 0);
        // Slot infeasibility is its own type: 200 TCAM fits, but a
        // hand-built demand can still ask for more slots than exist.
        let d = TenantDemand { tenant: "slots".into(), tcam_entries: 10, stage_slots: 5 };
        assert!(matches!(
            ac.submit(d),
            AdmissionDecision::Rejected(ResourceError::OutOfSlots { needed: 5, available: 4 })
        ));
    }

    #[test]
    fn program_demand_includes_reserved_headroom() {
        let sw = SwitchModel::default();
        use crate::program::{Action, PipelineProgram, TableEntry};
        let p = PipelineProgram::new(
            "p",
            (0..50).map(|_| TableEntry::default_entry(Action::Drop)).collect(),
        );
        let d = TenantDemand::for_programs("t", &[&p], 4_046, &sw);
        assert_eq!(d.tcam_entries, 4_096);
        assert_eq!(d.stage_slots, 2);
    }
}
