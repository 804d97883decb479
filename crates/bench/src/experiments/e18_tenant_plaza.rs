//! **E18 — multi-tenant experimentation-as-a-service** (the TenantPlaza
//! campaign; ISSUE 9): the paper's democratization pitch only scales if
//! MANY research groups can road-test on the shared campus at once
//! without renting it whole. This experiment drives the plaza twice
//! over. First a **story cast** of eight tenants with wildly different
//! demands — probes, a capture tenant building a private datastore
//! view, a defended tenant running the mitigation controller, a guarded
//! tenant whose wildcard candidate must be vetoed in shadow, two TCAM
//! hogs that overflow the switch budget (one queued FIFO, drained when
//! a grant releases), an infeasible monster (typed rejection), and a
//! chaos-running neighbor — then diffs three tenants' entire byte
//! output (metrics, guard events, datastore accounting, trace) solo vs
//! co-scheduled. Second a **fleet sweep** (1 → 64 probe tenants)
//! measuring admission, scheduler rounds, and aggregate slice events,
//! with one tenant's bytes pinned identical at every fleet size. The
//! whole bundle is golden-pinned byte-for-byte under the sequential and
//! parallel executors; per-tenant cost is pinned by the
//! sweep's exact round and slice-event counts, not by a wall-clock gate.

use crate::obs_export::ObsBundle;
use crate::table::Table;
use campuslab::control::RolloutEventKind;
use campuslab::dataplane::{Action, AdmissionDecision, PipelineProgram, TableEntry};
use campuslab::netsim::{Campus, ChaosPlan, SimTime};
use campuslab::obs::Tracer;
use campuslab::plaza::{Plaza, TenantJob, TenantOutcome, TenantSpec};
use campuslab::testbed::Scenario;
use campuslab::Platform;

/// The candidate the guarded tenant submits: a wildcard drop rule (the
/// distillation equivalent of "block everything"), which the shadow
/// stage must veto — proving each tenant gets a full private guard
/// ladder, not a shared one.
fn wildcard_drop() -> PipelineProgram {
    PipelineProgram::new("warden-wildcard", vec![TableEntry::exact(&[], Action::Drop, 9, 0.5)])
}

/// A probe tenant whose own campus suffers a border-link flap mid-run:
/// the worst neighbor the plaza can host.
fn chaos_neighbor(name: &str) -> TenantSpec {
    let mut spec = TenantSpec::probe(name);
    let campus = Campus::build(spec.scenario.campus.clone());
    let mut plan = ChaosPlan::new();
    plan.link_flap(campus.border_link, SimTime::from_millis(600), SimTime::from_millis(1400));
    spec.chaos = Some(plan);
    spec
}

/// The story cast, rebuilt fresh for every plaza run (solo or crowded)
/// so each run starts from an identical spec sheet.
pub fn story_cast(
    program: &PipelineProgram,
    model: &campuslab::ml::DecisionTree,
) -> Vec<TenantSpec> {
    let mut beacon = TenantSpec::probe("beacon");
    beacon.capture = true;
    let mut cascade = TenantSpec::probe("cascade");
    cascade.reserved_tcam = 12_500;
    let mut drumlin = TenantSpec::probe("drumlin");
    drumlin.reserved_tcam = 12_500;
    let mut monster = TenantSpec::probe("monster");
    monster.reserved_tcam = 1_000_000;
    vec![
        TenantSpec::probe("atlas"),
        beacon,
        TenantSpec {
            name: "warden".into(),
            scenario: Scenario::tenant_probe(),
            program: program.clone(),
            job: TenantJob::Guarded {
                submissions: vec![(SimTime::from_secs(1), wildcard_drop())],
                window_model: model.clone(),
            },
            chaos: None,
            capture: false,
            reserved_tcam: 0,
        },
        TenantSpec {
            name: "ranger".into(),
            scenario: Scenario::tenant_probe(),
            program: program.clone(),
            job: TenantJob::Defend { window_model: model.clone() },
            chaos: None,
            capture: false,
            reserved_tcam: 0,
        },
        cascade,
        drumlin,
        monster,
        chaos_neighbor("gremlin"),
    ]
}

/// Run a plaza over `specs` and hand back the report.
fn run_plaza(specs: Vec<TenantSpec>) -> campuslab::plaza::PlazaReport {
    let mut plaza = Plaza::new();
    for spec in specs {
        plaza.submit(spec);
    }
    plaza.run()
}

/// One tenant's entire observable output, run alone on an empty plaza.
fn solo_fingerprint(spec: TenantSpec) -> String {
    let name = spec.name.clone();
    run_plaza(vec![spec])
        .outcomes
        .into_iter()
        .find(|o| o.name == name)
        .expect("solo tenant finished")
        .fingerprint()
}

/// Run the experiment and return the full Observatory bundle.
pub fn run() -> ObsBundle {
    let mut out =
        String::from("E18: multi-tenant experimentation-as-a-service (TenantPlaza)\n\n");

    // One shared lineage for the defended/guarded tenants: the program
    // and window model developed offline in the fig-1/2 pipeline.
    let platform = Platform::new(Scenario::small());
    let data = platform.collect();
    let dev = platform.develop(&data);
    let model = platform.train_window_model(&data);

    // --- Act 1: the story cast on one crowded plaza. ---
    let report = run_plaza(story_cast(&dev.program, &model));

    out.push_str("admission log (submission order):\n\n");
    out.push_str(&report.admission_log());

    let mut t = Table::new(&[
        "tenant",
        "decision",
        "events",
        "mitig/giveups",
        "guard verdict",
        "store pkts",
    ]);
    for rec in &report.records {
        let decision = match &rec.decision {
            AdmissionDecision::Admitted { .. } => "admitted".to_string(),
            AdmissionDecision::Queued { position } => format!("queued@{position}"),
            AdmissionDecision::Rejected(_) => "rejected".to_string(),
        };
        let Some(o) = report.outcome(&rec.tenant) else {
            t.row(vec![
                rec.tenant.clone(),
                decision,
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        };
        let verdict = o
            .run
            .stack
            .guard
            .iter()
            .flat_map(|g| g.events.iter().rev())
            .find_map(|e| match &e.kind {
                RolloutEventKind::Vetoed(v) => Some(format!("vetoed ({v:?})")),
                RolloutEventKind::RolledBack(v) => Some(format!("rolled back ({v:?})")),
                RolloutEventKind::Committed => Some("committed".into()),
                _ => None,
            })
            .unwrap_or_else(|| "-".into());
        let (mitigations, giveups) =
            o.run.stack.controller.as_ref().map_or((0, 0), |c| (c.events.len(), c.giveups.len()));
        t.row(vec![
            o.name.clone(),
            decision,
            o.sim_events().to_string(),
            format!("{mitigations}/{giveups}"),
            verdict,
            o.store.as_ref().map(|s| s.packet_count().to_string()).unwrap_or_else(|| "-".into()),
        ]);
    }
    out.push('\n');
    out.push_str(&t.render());

    // --- Act 2: the isolation differential, inline. Three tenants rerun
    // alone on an empty plaza; their bytes must not know the difference.
    let warden_solo = solo_fingerprint(story_cast(&dev.program, &model).remove(2));
    let beacon_solo = solo_fingerprint(story_cast(&dev.program, &model).remove(1));
    let drumlin_solo = solo_fingerprint(story_cast(&dev.program, &model).remove(5));

    let co_fp = |name: &str| {
        report.outcome(name).map(|o| o.fingerprint()).unwrap_or_default()
    };
    let warden_identical = warden_solo == co_fp("warden");
    let beacon_identical = beacon_solo == co_fp("beacon");
    let drumlin_identical = drumlin_solo == co_fp("drumlin");
    let warden_vetoed = report
        .outcome("warden")
        .and_then(|o| o.run.stack.guard.as_ref())
        .is_some_and(|g| g.events.iter().any(|e| matches!(e.kind, RolloutEventKind::Vetoed(_))));
    let drumlin_queued_then_ran = report
        .records
        .iter()
        .any(|r| r.tenant == "drumlin" && matches!(r.decision, AdmissionDecision::Queued { .. }))
        && report.outcome("drumlin").is_some();
    let monster_rejected_never_ran = report
        .records
        .iter()
        .any(|r| r.tenant == "monster" && matches!(r.decision, AdmissionDecision::Rejected(_)))
        && report.outcome("monster").is_none();

    out.push_str(&format!(
        "\nwarden's private guard vetoed the wildcard candidate in shadow: {}\n\
         warden's bytes are identical solo vs co-scheduled: {}\n\
         beacon's capture + datastore view ignores the chaos neighbor: {}\n\
         drumlin was queued FIFO, drained on release, and still matches its solo bytes: {}\n\
         monster got a typed rejection and never touched the campus: {}\n",
        if warden_vetoed { "yes" } else { "NO (bug)" },
        if warden_identical { "yes" } else { "NO (bug)" },
        if beacon_identical { "yes" } else { "NO (bug)" },
        if drumlin_queued_then_ran && drumlin_identical { "yes" } else { "NO (bug)" },
        if monster_rejected_never_ran { "yes" } else { "NO (bug)" },
    ));

    // --- Act 3: the fleet sweep. Identical probe tenants at every
    // power-of-two fleet size; p0's bytes are pinned across all of them.
    let mut sweep = Table::new(&[
        "tenants",
        "admitted",
        "queued",
        "rejected",
        "sched rounds",
        "slice events",
        "p0 bytes stable",
    ]);
    let p0_reference = solo_fingerprint(TenantSpec::probe("p0"));
    for n in [1usize, 2, 4, 8, 16, 32, 64] {
        let specs: Vec<TenantSpec> =
            (0..n).map(|i| TenantSpec::probe(format!("p{i}"))).collect();
        let rep = run_plaza(specs);
        let p0_stable = rep
            .outcome("p0")
            .is_some_and(|o| o.fingerprint() == p0_reference);
        let events: u64 = rep.outcomes.iter().map(TenantOutcome::sim_events).sum();
        sweep.row(vec![
            n.to_string(),
            rep.obs.admitted().to_string(),
            rep.obs.queued().to_string(),
            rep.obs.rejected().to_string(),
            rep.rounds.to_string(),
            events.to_string(),
            if p0_stable { "yes".into() } else { "NO (bug)".into() },
        ]);
    }
    out.push_str("\nfleet sweep (identical probe tenants, shared switch budget):\n\n");
    out.push_str(&sweep.render());

    out.push_str(
        "\nshape check: admission is typed and budget-derived (96 stage slots,\n\
         24576 TCAM entries on the default switch), scheduling is a pure\n\
         function of each tenant's own spec, and every tenant's telemetry is\n\
         namespaced — so a 64-tenant fleet admits cleanly and no tenant's\n\
         bytes ever depend on who else is on the campus. Per-tenant\n\
         cost is pinned by the sweep table above: one scheduler round and\n\
         the same slice events per tenant at every fleet size.\n",
    );

    // Prom + trace: the crowded plaza's service-level obs, then each
    // story tenant's namespaced bundle.
    let mut prom = format!("# service\n{}", report.obs.render());
    let mut tracer = Tracer::new();
    for o in &report.outcomes {
        prom.push_str(&format!("# tenant: {}\n{}", o.name, o.run.obs.prom()));
        tracer.merge_from(&o.run.obs.tracer);
    }
    ObsBundle { table: out, prom, trace: tracer.render_json() }
}
