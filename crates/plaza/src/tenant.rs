//! One tenant's experiment, packaged for the plaza: the spec that
//! describes it and the outcome that comes back.
//!
//! Isolation is by construction: every tenant runs one private campus
//! [`Session`] (its own [`campuslab_netsim::Network`], traffic schedule,
//! filter bank, hooks and telemetry), built entirely from the tenant's
//! [`TenantSpec`] and run once to its own deadline. The only resource
//! tenants genuinely share is the dataplane budget, which the plaza
//! arbitrates up front through [`campuslab_dataplane::AdmissionController`]
//! — so nothing a neighbor does (including a chaos campaign) can leak into
//! another tenant's bytes, whichever worker runs it. The differential
//! property suite in `tests/isolation.rs` pins exactly that: solo and
//! co-scheduled runs of the same spec are byte-identical.

use campuslab_control::{Placement, PlazaObs, PlazaTally, PROMOTE_AFTER};
use campuslab_dataplane::{
    Action, HeaderField, PipelineProgram, SwitchModel, TableEntry, TenantDemand,
};
use campuslab_datastore::DataStore;
use campuslab_ml::{Classifier, DecisionTree};
use campuslab_netsim::{ChaosPlan, SimDuration, SimTime};
use campuslab_testbed::{
    fingerprint, shard_by_second, Finished, GuardSpec, Members, RoadTestConfig, Scenario,
    Session, CANARY_FRACTION,
};

/// Settle time past a tenant's workload end: its session deadline is
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
    /// non-alphanumerics folded to `_`, behind a `_` when it starts with a
    /// digit, plus a trailing `_` — a valid Prometheus name fragment that
    /// keeps co-scheduled guards' families disjoint in any merged dump.
    pub fn obs_prefix(&self) -> String {
        let mut p = String::new();
        if self.name.starts_with(|c: char| c.is_ascii_digit()) {
            p.push('_');
        }
        p.extend(
            self.name
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '_' }),
        );
        p.push('_');
        p
    }

    /// Build the tenant's session, run it once to its deadline and tear
    /// it down into the outcome.
    pub(crate) fn run(self, switch: &SwitchModel) -> TenantOutcome {
        let (name, grant) = (self.name.clone(), self.demand(switch));
        let mut session = self.session();
        session.run_to_end();
        TenantOutcome::finish(name, &grant, session)
    }

    /// The tenant's private session: campus, schedule, chaos, filter bank
    /// and the stack members its job needs. Nothing has run yet.
    fn session(self) -> Session {
        let prefix = self.obs_prefix();
        let deadline = SimTime::ZERO + self.scenario.workload.duration + SETTLE;
        // An SLO probe has its program in the switch up front; the other
        // jobs defend from the controller tier with default knobs.
        let (placement, guard, window_model) = match self.job {
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
            format!("tenant[{}]", self.name),
            &self.scenario,
            self.program,
            &RoadTestConfig { placement, chaos: self.chaos, ..RoadTestConfig::default() },
            Members { monitor: self.capture, guard, window_model, ..Members::default() },
            Some(deadline),
        );
        if let Some(guard) = &mut session.stack.guard {
            guard.set_obs_prefix(prefix);
        }
        session
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

/// What one tenant's experiment measured, fully private to the tenant.
pub struct TenantOutcome {
    pub name: String,
    /// Per-tenant datastore view (capture tenants only).
    pub store: Option<DataStore>,
    /// The tenant's finished session: its own simulator counters,
    /// filter-bank accounting, stack members (guard decisions, controller
    /// episodes) and Observatory bundle, plaza section included.
    pub run: Finished,
}

impl TenantOutcome {
    /// Tear a tenant's session down where it stands into its outcome: job
    /// results, the per-tenant Observatory bundle (plaza section
    /// included), and the per-tenant datastore view when capture was on.
    fn finish(name: String, grant: &TenantDemand, session: Session) -> Self {
        let mut fin = session.finish();
        let store = fin.stack.monitor.as_mut().map(|m| {
            let mut ds = DataStore::new();
            ds.ingest_packet_batches(shard_by_second(&m.monitor.take_packet_records()));
            ds.ingest_flows(m.monitor.take_flow_records());
            ds.ingest_dns(m.monitor.take_dns_records());
            ds
        });

        // The tenant-scoped plaza section carries only spec-derived
        // values: its own grant, the one admission round it ran in, its
        // own session's simulator events — nothing that depends on who
        // else was in the plaza.
        let mut plaza = PlazaObs::new();
        plaza.book(&PlazaTally {
            admitted: 1,
            rounds: 1,
            slice_events: vec![fin.obs.net.event_seq()],
            slots_used: grant.stage_slots,
            tcam_used: grant.tcam_entries,
            tenants_active: 1,
            ..PlazaTally::default()
        });
        fin.obs.plaza = Some(plaza);

        TenantOutcome { name, store, run: fin }
    }

    /// The simulator events this tenant's session dispatched
    /// (`sim_events_total`): the tenant's share of the plaza's work.
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
    use campuslab_testbed::{decode_checkpoint, encode_checkpoint};

    /// A one-split window model, for jobs whose model never decides
    /// anything the test looks at.
    fn stump() -> DecisionTree {
        let data = Dataset::new(vec![vec![0.0], vec![1.0]], vec![0, 1], vec!["f".into()]);
        DecisionTree::fit(&data, TreeConfig::shallow(1))
    }

    fn run(spec: TenantSpec) -> TenantOutcome {
        spec.run(&SwitchModel::default())
    }

    #[test]
    fn probe_tenant_runs_and_fingerprints_deterministically() {
        let a = run(TenantSpec::probe("alpha"));
        let b = run(TenantSpec::probe("alpha"));
        assert!(a.run.net.injected > 0, "probe injected nothing");
        assert_eq!(a.fingerprint(), b.fingerprint());
        // The sentinel program never touches the probe's traffic.
        assert_eq!(a.run.filter.dropped, 0, "sentinel dropped real packets");
        // The tenant's plaza section carries its own grant.
        let p = a.run.obs.plaza.as_ref().expect("plaza section");
        assert_eq!(p.admitted(), 1);
        assert_eq!(p.slots_used(), 1);
        assert_eq!(p.slices(), 1);
    }

    /// The tenant section books what its HELP strings say: the session's
    /// simulator events (`sim_events_total`) and the one admission round
    /// the tenant ran in.
    #[test]
    fn tenant_section_books_its_session_events_and_one_round() {
        let out = run(TenantSpec::probe("books"));
        let p = out.run.obs.plaza.as_ref().expect("plaza section");
        assert_eq!(p.rounds(), 1);
        assert_eq!(p.slice_events_histogram().count(), 1);
        assert_eq!(p.slice_events_histogram().sum(), u128::from(out.run.obs.net.event_seq()));
        assert_eq!(out.sim_events(), out.run.obs.net.event_seq());
    }

    #[test]
    fn capture_tenant_lands_a_private_store_view() {
        let mut spec = TenantSpec::probe("cap");
        spec.capture = true;
        let outcome = run(spec);
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

    /// The plaza leg of the PhoenixRun contract, through the one way a run
    /// freezes: kill a guarded tenant's session 1.5 s in, its candidate
    /// mid-ladder, carry its checkpoint through the PHNX envelope, restore
    /// it into a freshly built tenant next to a neighbor whose own campus
    /// takes a border flap, and finish both interleaved. The resumed
    /// tenant's fingerprint must match its uninterrupted run byte for byte.
    #[test]
    fn checkpointed_tenant_resumes_byte_identically_next_to_a_chaos_neighbor() {
        let (program, model) = campuslab_testbed::fixtures::train(&Scenario::tenant_probe());
        let spec = || TenantSpec {
            program: program.clone(),
            job: TenantJob::Guarded {
                submissions: vec![(SimTime::from_secs(1), program.clone())],
                window_model: model.clone(),
            },
            ..TenantSpec::probe("phx")
        };
        let want = run(spec()).fingerprint();

        let mut victim = spec().session();
        victim.run_until(SimTime::from_millis(1_500));
        let guard_events = |s: &Session| s.stack.guard.as_ref().map_or(0, |g| g.events.len());
        let at_kill = guard_events(&victim);
        assert!(at_kill > 0, "the candidate was not submitted before the kill");
        let image = encode_checkpoint(&victim.checkpoint().unwrap());
        drop(victim); // the "crash"

        let mut restored = spec().session();
        restored.restore(decode_checkpoint(&image).unwrap()).unwrap();
        assert_eq!(guard_events(&restored), at_kill, "the restore rebuilt instead of resuming");
        let mut gremlin = TenantSpec::probe("gremlin");
        let campus = Campus::build(gremlin.scenario.campus.clone());
        let mut plan = ChaosPlan::new();
        plan.link_flap(campus.border_link, SimTime::from_millis(600), SimTime::from_millis(1_400));
        gremlin.chaos = Some(plan);
        let mut neighbor = gremlin.session();
        for ms in (500..=4_000).step_by(500) {
            neighbor.run_until(SimTime::from_millis(ms));
            restored.run_until(SimTime::from_millis(ms));
        }
        neighbor.run_to_end();
        restored.run_to_end();

        let grant = spec().demand(&SwitchModel::default());
        let got = TenantOutcome::finish("phx".into(), &grant, restored);
        assert_eq!(got.fingerprint(), want);
        let n = neighbor.finish();
        assert!(n.net.dropped_fault > 0, "the neighbor's chaos flap dropped nothing");
    }

    #[test]
    fn obs_prefix_is_a_sanitized_metric_fragment() {
        let mut spec = TenantSpec::probe("Team Rocket-7");
        assert_eq!(spec.obs_prefix(), "team_rocket_7_");
        spec.name = "ok".into();
        assert_eq!(spec.obs_prefix(), "ok_");
        spec.name = "7up".into();
        assert_eq!(spec.obs_prefix(), "_7up_");
    }
}
