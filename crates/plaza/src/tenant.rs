//! One tenant's experiment, packaged for the plaza: the spec that
//! describes it, the slice that runs it, and the outcome that comes back.
//!
//! Isolation is by construction: every tenant slice owns a private campus
//! simulation (its own [`campuslab_netsim::Network`], traffic schedule, filter bank, hooks
//! and telemetry), built entirely from the tenant's [`TenantSpec`]. The
//! only resource tenants genuinely share is the dataplane budget, which
//! the plaza arbitrates up front through
//! [`campuslab_dataplane::AdmissionController`] — so nothing a neighbor
//! does (including a chaos campaign) can leak into another tenant's
//! bytes. The differential property suite in `tests/isolation.rs` pins
//! exactly that: solo and co-scheduled runs of the same spec are
//! byte-identical.
//!
//! Determinism across worker counts is a scheduling-grid argument: a slice
//! always advances along the same window grid (`WINDOW`, `2*WINDOW`, ...)
//! to its own deadline, whichever worker runs it and whoever its neighbors
//! are. Window counts are a per-slice function of the spec alone, so
//! they may appear in outcomes without breaking the solo-vs-co-scheduled
//! differential.

use campuslab_control::{Placement, PlazaObs, PROMOTE_AFTER};
use campuslab_dataplane::{
    Action, HeaderField, PipelineProgram, SwitchModel, TableEntry, TenantDemand,
};
use campuslab_datastore::DataStore;
use campuslab_ml::{Classifier, DecisionTree};
use campuslab_netsim::{ChaosPlan, SimDuration, SimTime};
use campuslab_testbed::{
    fingerprint, shard_by_second, Finished, GuardSpec, Members, PhoenixCheckpoint,
    RoadTestConfig, Scenario, Session, CANARY_FRACTION,
};
pub use campuslab_testbed::SliceFreezeError;

/// The scheduling grid: a slice pauses at every multiple of this.
const WINDOW: SimDuration = SimDuration::from_millis(500);
/// Settle time past a tenant's workload end: its slice deadline is
/// `workload.duration + SETTLE`.
const SETTLE: SimDuration = SimDuration::from_secs(4);

/// What the tenant wants to run on its slice of the campus.
#[derive(Clone)]
pub enum TenantJob {
    /// Install the program in the switch up front and just measure the
    /// campus under it — the cheapest job, used by the plaza sweeps.
    SloProbe,
    /// A controller-placement road test: the window model watches the
    /// border tap and installs victim-scoped mitigations.
    Defend { window_model: DecisionTree },
    /// A guarded rollout: candidates submitted at scheduled sim times
    /// climb shadow → canary → full under the tenant's own
    /// [`campuslab_control::RolloutGuard`] ladder (telemetry prefixed with
    /// the tenant name), while the window model defends as in `Defend`.
    Guarded { submissions: Vec<(SimTime, PipelineProgram)>, window_model: DecisionTree },
}

/// Everything the plaza needs to admit and run one tenant.
#[derive(Clone)]
pub struct TenantSpec {
    /// Unique tenant name: the admission handle, the metric prefix and
    /// the report key. Co-scheduled tenants must not share names.
    pub name: String,
    /// The tenant's private campus + workload + attack.
    pub scenario: Scenario,
    /// The tenant's base program (preinstalled for [`TenantJob::SloProbe`],
    /// the known-good / mitigation program otherwise).
    pub program: PipelineProgram,
    pub job: TenantJob,
    /// Optional chaos campaign applied to the tenant's own campus.
    pub chaos: Option<ChaosPlan>,
    /// Capture at the border and land the records in a per-tenant
    /// [`DataStore`] view.
    pub capture: bool,
    /// Extra TCAM entries reserved beyond the declared programs —
    /// headroom for mid-run installs, and the knob experiments turn to
    /// exercise queueing and rejection.
    pub reserved_tcam: usize,
}

impl TenantSpec {
    /// The cheapest useful tenant: [`Scenario::tenant_probe`] guarded by a
    /// one-entry sentinel program (drops TCP/UDP discard-port traffic the
    /// probe workload never sends, so it occupies exactly one stage slot
    /// without touching the tenant's bytes).
    pub fn probe(name: impl Into<String>) -> Self {
        let name = name.into();
        let program = discard_sentinel(&name);
        TenantSpec {
            name,
            scenario: Scenario::tenant_probe(),
            program,
            job: TenantJob::SloProbe,
            chaos: None,
            capture: false,
            reserved_tcam: 0,
        }
    }

    /// The tenant's up-front dataplane demand: every program it may ever
    /// install (base + scheduled rollout candidates) plus the reserved
    /// headroom, footprinted against `switch`.
    pub fn demand(&self, switch: &SwitchModel) -> TenantDemand {
        let mut programs: Vec<&PipelineProgram> = vec![&self.program];
        if let TenantJob::Guarded { submissions, .. } = &self.job {
            programs.extend(submissions.iter().map(|(_, p)| p));
        }
        TenantDemand::for_programs(self.name.clone(), &programs, self.reserved_tcam, switch)
    }

    /// The tenant's metric-name prefix: the name lowercased with
    /// non-alphanumerics folded to `_`, plus a trailing `_` — a valid
    /// Prometheus name fragment that keeps co-scheduled guards' families
    /// disjoint in any merged dump.
    pub fn obs_prefix(&self) -> String {
        let mut p: String = self
            .name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
            .collect();
        p.push('_');
        p
    }
}

/// A one-entry program dropping TCP/UDP discard-port (9) traffic: a
/// deliberate no-op against every scenario this crate ships, costing one
/// stage slot and one TCAM entry.
fn discard_sentinel(name: &str) -> PipelineProgram {
    PipelineProgram::new(
        format!("{name}-sentinel"),
        vec![TableEntry::exact(&[(HeaderField::DstPort, 9)], Action::Drop, 9, 0.99)],
    )
}

/// One tenant's running experiment: a private campus [`Session`] advanced
/// window by window until its own deadline.
pub struct TenantSlice {
    name: String,
    session: Session,
    grant: TenantDemand,
    /// Hard stop: workload end + settle.
    deadline: SimTime,
    /// The furthest cap this slice has been advanced to.
    horizon: SimTime,
    /// Grid windows advanced through so far.
    windows: u64,
    done: bool,
}

impl TenantSlice {
    /// Build the tenant's private session: campus, schedule, chaos,
    /// filter bank and the stack members its job needs, its demand priced
    /// against `switch`. Nothing has run yet.
    pub fn build(spec: TenantSpec, switch: &SwitchModel) -> Self {
        let grant = spec.demand(switch);
        let prefix = spec.obs_prefix();
        let deadline = SimTime::ZERO + spec.scenario.workload.duration + SETTLE;
        // An SLO probe has its program in the switch up front; the other
        // jobs defend from the controller tier with default knobs.
        let (placement, guard, window_model) = match spec.job {
            TenantJob::SloProbe => (Placement::Switch, None, None),
            TenantJob::Defend { window_model } => (Placement::Controller, None, Some(window_model)),
            TenantJob::Guarded { submissions, window_model } => (
                Placement::Controller,
                Some(GuardSpec {
                    promote_after: PROMOTE_AFTER,
                    canary_fraction: CANARY_FRACTION,
                    submissions,
                }),
                Some(window_model),
            ),
        };
        let window_model = window_model.map(|m| Box::new(m) as Box<dyn Classifier + Send>);
        let mut session = Session::new(
            format!("tenant[{}]", spec.name),
            &spec.scenario,
            spec.program,
            &RoadTestConfig { placement, chaos: spec.chaos, ..RoadTestConfig::default() },
            Members { monitor: spec.capture, guard, window_model, ..Members::default() },
            Some(deadline),
        );
        if let Some(guard) = &mut session.stack.guard {
            guard.set_obs_prefix(prefix);
        }

        TenantSlice {
            name: spec.name,
            session,
            grant,
            deadline,
            horizon: SimTime::ZERO,
            windows: 0,
            done: false,
        }
    }

    /// The tenant's name (the plaza's release handle).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Process every event up to `min(until, deadline)` and re-check for
    /// completion. Calls that do not extend the slice's horizon — on a
    /// finished slice, or with a cap at/behind the last one — are no-ops.
    fn advance(&mut self, until: SimTime) {
        let cap = until.min(self.deadline);
        if self.done || cap <= self.horizon {
            return;
        }
        self.windows += 1;
        self.horizon = cap;
        self.session.run_until(cap);
        self.done = self.session.is_done();
    }

    /// Freeze this slice's dynamic state at a window barrier — the
    /// per-tenant leg of the PhoenixRun checkpoint (DESIGN.md §15). The
    /// frozen image captures only what evolved since [`TenantSlice::build`]
    /// (the session checkpoint plus grid bookkeeping); restoring it onto a
    /// fresh slice built from the *same spec* resumes byte-identically.
    /// Capture slices are refused with a typed error: the border
    /// monitor's mid-run state (flow table, DNS extractor, RTT estimator)
    /// is deliberately outside the checkpoint contract.
    pub fn freeze(&mut self) -> Result<FrozenSlice, SliceFreezeError> {
        Ok(FrozenSlice {
            session: self.session.checkpoint()?,
            horizon: self.horizon,
            windows: self.windows,
            done: self.done,
        })
    }

    /// Apply a frozen image onto this freshly built slice. The slice must
    /// have been built from the same [`TenantSpec`] that produced the
    /// image; a job-shape mismatch (the image froze a different job kind)
    /// is refused with a typed error rather than silently misapplied.
    pub fn thaw_state(&mut self, frozen: FrozenSlice) -> Result<(), SliceFreezeError> {
        self.session.restore(frozen.session)?;
        self.horizon = frozen.horizon;
        self.windows = frozen.windows;
        self.done = frozen.done;
        Ok(())
    }

    /// Drive the slice over its own window grid until done.
    pub fn run_to_completion(&mut self) {
        let step = WINDOW.as_nanos();
        while !self.done {
            let next = SimTime(step.saturating_mul(self.windows + 1));
            self.advance(next);
        }
    }

    /// Tear the finished slice down into its outcome: job results, the
    /// per-tenant Observatory bundle (plaza section included), and the
    /// per-tenant datastore view when capture was on.
    pub fn finish(self) -> TenantOutcome {
        let mut fin = self.session.finish();
        let store = fin.stack.monitor.as_mut().map(|m| {
            let mut ds = DataStore::new();
            ds.ingest_packet_batches(shard_by_second(&m.monitor.take_packet_records()));
            ds.ingest_flows(m.monitor.take_flow_records());
            ds.ingest_dns(m.monitor.take_dns_records());
            ds
        });

        // The tenant-scoped plaza section carries only spec-derived
        // values: its own grant, the one admission round it ran in, its
        // own slice's simulator events — nothing that depends on who else
        // was in the plaza.
        let mut plaza = PlazaObs::new();
        plaza.on_admitted();
        plaza.set_budget(self.grant.stage_slots, self.grant.tcam_entries, 1);
        plaza.on_round();
        plaza.on_slice(fin.obs.net.event_seq());
        fin.obs.plaza = Some(plaza);

        TenantOutcome { name: self.name, windows: self.windows, store, run: fin }
    }
}

/// One tenant slice's dynamic state, frozen at a window barrier. Only
/// state that evolved since [`TenantSlice::build`] is carried; the static
/// half (topology, schedule, chaos plan, job wiring) is rebuilt from the
/// tenant's [`TenantSpec`] on the restore side.
#[derive(Clone, serde::Serialize, serde::Deserialize)]
pub struct FrozenSlice {
    pub session: PhoenixCheckpoint,
    pub horizon: SimTime,
    pub windows: u64,
    pub done: bool,
}

/// What one tenant's experiment measured, fully private to the tenant.
pub struct TenantOutcome {
    pub name: String,
    /// Scheduler windows this slice consumed (a function of the spec
    /// alone — the grid is fixed, finished slices stop counting).
    pub windows: u64,
    /// Per-tenant datastore view (capture tenants only).
    pub store: Option<DataStore>,
    /// The tenant's finished session: its own simulator counters,
    /// filter-bank accounting, stack members (guard decisions, controller
    /// episodes) and Observatory bundle, plaza section included.
    pub run: Finished,
}

impl TenantOutcome {
    /// The simulator events this tenant's slice dispatched
    /// (`sim_events_total`): the slice's share of the plaza's work.
    pub fn sim_events(&self) -> u64 {
        self.run.obs.net.event_seq()
    }

    /// Every observable byte of this tenant's run, canonically rendered:
    /// summary scalars, the guard timeline, the datastore view's storage
    /// accounting, the full Prometheus dump and the trace. The isolation
    /// suite diffs this string solo vs co-scheduled.
    pub fn fingerprint(&self) -> String {
        let run = &self.run;
        let (timeline, prom, trace) = fingerprint(run);
        let (final_stage, registry_len) =
            run.stack.guard.as_ref().map_or((None, 0), |g| (Some(g.stage()), g.registry().len()));
        let (mitigations, giveups) =
            run.stack.controller.as_ref().map_or((0, 0), |c| (c.events.len(), c.giveups.len()));
        let mut out = String::new();
        out.push_str(&format!("== tenant {} ==\n", self.name));
        out.push_str(&format!("filter {:?}\n", run.filter));
        out.push_str(&format!("net {:?}\n", run.net));
        out.push_str(&format!("windows {}\n", self.windows));
        out.push_str(&format!(
            "stage {final_stage:?} registry {registry_len} mitigations {mitigations} giveups {giveups}\n"
        ));
        out.push_str(&format!("victim {:?} attack_start {:?}\n", run.victim, run.attack_start));
        out.push_str(&timeline);
        if let Some(ds) = &self.store {
            out.push_str(&format!(
                "store {:?} packets {} flows {} dns {}\n",
                ds.storage(),
                ds.packet_count(),
                ds.flow_count(),
                ds.dns_count()
            ));
        }
        out.push_str("== prom ==\n");
        out.push_str(&prom);
        out.push_str("== trace ==\n");
        out.push_str(&trace);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use campuslab_ml::{Dataset, TreeConfig};
    use campuslab_netsim::Campus;

    /// A one-split window model, for jobs whose model never decides
    /// anything the test looks at.
    fn stump() -> DecisionTree {
        let data = Dataset::new(vec![vec![0.0], vec![1.0]], vec![0, 1], vec!["f".into()]);
        DecisionTree::fit(&data, TreeConfig::shallow(1))
    }

    #[test]
    fn probe_slice_runs_to_completion_and_fingerprints_deterministically() {
        let run = || {
            let spec = TenantSpec::probe("alpha");
            let mut slice = TenantSlice::build(spec, &SwitchModel::default());
            slice.run_to_completion();
            assert!(slice.done);
            slice.finish()
        };
        let a = run();
        let b = run();
        assert!(a.run.net.injected > 0, "probe injected nothing");
        assert!(a.windows > 0);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // The sentinel program never touches the probe's traffic.
        assert_eq!(a.run.filter.dropped, 0, "sentinel dropped real packets");
        // The tenant's plaza section carries its own grant.
        let p = a.run.obs.plaza.as_ref().expect("plaza section");
        assert_eq!(p.admitted(), 1);
        assert_eq!(p.slots_used(), 1);
        assert_eq!(p.slices(), 1);
    }

    /// The tenant section books what its HELP strings say: the slice's
    /// simulator events (`sim_events_total`) and the one admission round
    /// the slice ran in, however many grid windows it took.
    #[test]
    fn tenant_section_books_its_slice_events_and_one_round() {
        let mut slice = TenantSlice::build(TenantSpec::probe("books"), &SwitchModel::default());
        slice.run_to_completion();
        let out = slice.finish();
        assert!(out.windows > 1, "the probe spans several grid windows");
        let p = out.run.obs.plaza.as_ref().expect("plaza section");
        assert_eq!(p.rounds(), 1);
        assert_eq!(p.slice_events_histogram().count(), 1);
        assert_eq!(p.slice_events_histogram().sum(), u128::from(out.run.obs.net.event_seq()));
        assert_eq!(out.sim_events(), out.run.obs.net.event_seq());
    }

    /// The Defend job through the shared `Session` lifecycle: the window
    /// grid only decides when the simulator pauses, so every byte but the
    /// window count equals a single advance straight to the deadline.
    #[test]
    fn windowed_defend_slice_equals_one_shot() {
        let (program, model) =
            campuslab_testbed::fixtures::train(&Scenario::tenant_probe());
        let build = || {
            let mut spec = TenantSpec::probe("defend");
            spec.job = TenantJob::Defend { window_model: model.clone() };
            spec.program = program.clone();
            TenantSlice::build(spec, &SwitchModel::default())
        };
        let print = |mut o: TenantOutcome| {
            o.run.obs.plaza = None; // carries the round count
            let ctl = o.run.stack.controller.as_ref().expect("Defend runs a controller");
            let episodes = (ctl.events.len(), ctl.giveups.len());
            (o.run.net, format!("{:?}", o.run.filter), episodes, fingerprint(&o.run))
        };
        let mut windowed = build();
        windowed.run_to_completion();
        let mut one_shot = build();
        one_shot.advance(SimTime(u64::MAX));
        assert!(one_shot.done);
        let windowed = windowed.finish();
        let detector = windowed.run.obs.detector.as_ref().expect("Defend runs a detector");
        assert!(
            windowed.windows > 1 && detector.windows_closed() > 0,
            "slice windows {} detector windows {}",
            windowed.windows,
            detector.windows_closed()
        );
        assert_eq!(print(windowed), print(one_shot.finish()));
    }

    #[test]
    fn capture_tenant_lands_a_private_store_view() {
        let mut spec = TenantSpec::probe("cap");
        spec.capture = true;
        let mut slice = TenantSlice::build(spec, &SwitchModel::default());
        slice.run_to_completion();
        let outcome = slice.finish();
        let ds = outcome.store.as_ref().expect("capture tenant has a store view");
        assert!(ds.packet_count() > 0);
        assert!(outcome.run.obs.capture.is_some(), "capture obs section missing");
        assert!(outcome.run.obs.prom().contains("cap_observed_packets_total"));
    }

    #[test]
    fn demand_covers_base_program_submissions_and_headroom() {
        let sw = SwitchModel::default();
        let mut spec = TenantSpec::probe("d");
        spec.reserved_tcam = 4_095;
        // 1 sentinel entry + 4095 reserved = 4096 entries = 2 stages.
        let d = spec.demand(&sw);
        assert_eq!(d.tcam_entries, 4_096);
        assert_eq!(d.stage_slots, 2);
        spec.job = TenantJob::Guarded {
            submissions: vec![(SimTime::from_secs(1), discard_sentinel("extra"))],
            window_model: stump(),
        };
        assert_eq!(spec.demand(&sw).tcam_entries, 4_097);
    }

    /// A probe slice whose own campus takes a border-link flap mid-run —
    /// the bad neighbor the restored slice must not notice.
    fn chaos_neighbor_slice() -> TenantSlice {
        let mut spec = TenantSpec::probe("gremlin");
        let campus = Campus::build(spec.scenario.campus.clone());
        let mut plan = ChaosPlan::new();
        plan.link_flap(campus.border_link, SimTime::from_millis(600), SimTime::from_millis(1400));
        spec.chaos = Some(plan);
        TenantSlice::build(spec, &SwitchModel::default())
    }

    /// The plaza leg of the PhoenixRun contract: crash a tenant three
    /// windows in, carry its frozen image through JSON (the checkpoint
    /// payload encoding), restore it in a "new process" next to a
    /// chaos-running neighbor, and finish both interleaved on the shared
    /// grid. The resumed tenant's fingerprint must match its solo
    /// uninterrupted run byte for byte.
    #[test]
    fn frozen_slice_resumes_byte_identically_next_to_a_chaos_neighbor() {
        let build = || {
            TenantSlice::build(TenantSpec::probe("phx"), &SwitchModel::default())
        };
        let mut solo = build();
        solo.run_to_completion();
        let want = solo.finish().fingerprint();

        let step = 500_000_000u64;
        let mut victim = build();
        for r in 1..=3 {
            victim.advance(SimTime(step * r));
        }
        let image = serde::bin::to_vec(&victim.freeze().unwrap());
        drop(victim); // the "crash"

        let frozen: FrozenSlice = serde::bin::from_slice(&image).unwrap();
        let mut restored = build();
        restored.thaw_state(frozen).unwrap();
        let mut neighbor = chaos_neighbor_slice();
        let mut r = 3u64;
        while !restored.done || !neighbor.done {
            r += 1;
            neighbor.advance(SimTime(step * r));
            restored.advance(SimTime(step * r));
        }
        let got = restored.finish().fingerprint();
        assert_eq!(got, want);
        let n = neighbor.finish();
        assert!(n.run.net.dropped_fault > 0, "the neighbor's chaos flap dropped nothing");
    }

    #[test]
    fn capture_slices_refuse_to_freeze_with_a_typed_error() {
        let mut spec = TenantSpec::probe("cap-freeze");
        spec.capture = true;
        let mut slice = TenantSlice::build(spec, &SwitchModel::default());
        assert_eq!(slice.freeze().err(), Some(SliceFreezeError::CaptureMonitor));
    }

    #[test]
    fn job_shape_mismatch_is_refused_on_thaw() {
        let mut idle = TenantSlice::build(TenantSpec::probe("idle"), &SwitchModel::default());
        let image = idle.freeze().unwrap();
        let mut spec = TenantSpec::probe("defend");
        spec.job = TenantJob::Defend { window_model: stump() };
        let mut defend = TenantSlice::build(spec, &SwitchModel::default());
        assert_eq!(defend.thaw_state(image).err(), Some(SliceFreezeError::JobMismatch));
    }

    #[test]
    fn obs_prefix_is_a_sanitized_metric_fragment() {
        let mut spec = TenantSpec::probe("Team Rocket-7");
        assert_eq!(spec.obs_prefix(), "team_rocket_7_");
        spec.name = "ok".into();
        assert_eq!(spec.obs_prefix(), "ok_");
    }
}
