//! The tenant-isolation differential suite: the plaza's core promise is
//! that co-scheduling changes WHEN a tenant's experiment runs, never WHAT
//! it measures. Every test here renders a tenant's entire observable run
//! — metrics bundle, guard decision log, trace, datastore view — into
//! [`TenantOutcome::fingerprint`] and diffs it byte-for-byte between a
//! solo plaza and a crowded one, across the interleaved (one worker) and
//! parallel (`CAMPUSLAB_JOBS=4`) executors.
//!
//! The neighbor cast deliberately includes a chaos-running tenant (its
//! own campus suffers a border flap) and budget-hungry tenants that force
//! admission queueing: neither may move a single byte of anyone else.

use campuslab_dataplane::PipelineProgram;
use campuslab_ml::DecisionTree;
use campuslab_netsim::{Campus, ChaosPlan, SimTime};
use campuslab_plaza::{Plaza, PlazaConfig, TenantJob, TenantSpec};
use campuslab_testbed::{fixtures, Scenario};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// Serializes every test in this file: they all mutate `CAMPUSLAB_JOBS`.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Train the probe scenario's program + window model exactly once; every
/// Defend/Guarded tenant in the suite clones from here.
fn trained() -> &'static (PipelineProgram, DecisionTree) {
    static TRAINED: OnceLock<(PipelineProgram, DecisionTree)> = OnceLock::new();
    TRAINED.get_or_init(|| fixtures::train(&Scenario::tenant_probe()))
}

/// A probe tenant whose own campus takes a border-link flap mid-run —
/// the bad neighbor every other tenant must not notice.
fn chaos_neighbor(name: &str) -> TenantSpec {
    let mut spec = TenantSpec::probe(name);
    let campus = Campus::build(spec.scenario.campus.clone());
    let mut plan = ChaosPlan::new();
    plan.link_flap(campus.border_link, SimTime::from_millis(600), SimTime::from_millis(1400));
    spec.chaos = Some(plan);
    spec
}

/// The tenant palette the property test samples from.
fn tenant(kind: u8, name: &str) -> TenantSpec {
    let (program, model) = trained();
    match kind % 5 {
        0 => TenantSpec::probe(name),
        1 => {
            let mut spec = TenantSpec::probe(name);
            spec.capture = true;
            spec
        }
        // Budget hog: three of these overflow the default switch's TCAM,
        // so crowded cases exercise queueing + FIFO drain too.
        2 => {
            let mut spec = TenantSpec::probe(name);
            spec.reserved_tcam = 9_000;
            spec
        }
        3 => TenantSpec {
            name: name.into(),
            scenario: Scenario::tenant_probe(),
            program: program.clone(),
            window_model: Some(model.clone()),
            job: TenantJob::Defend,
            chaos: None,
            capture: false,
            reserved_tcam: 0,
        },
        _ => TenantSpec {
            name: name.into(),
            scenario: Scenario::tenant_probe(),
            program: program.clone(),
            window_model: Some(model.clone()),
            job: TenantJob::Guarded {
                submissions: vec![(SimTime::from_secs(1), program.clone())],
            },
            chaos: None,
            capture: false,
            reserved_tcam: 64,
        },
    }
}

fn set_jobs(n: usize) {
    std::env::set_var("CAMPUSLAB_JOBS", n.to_string());
}

/// Run a plaza over `specs` and return every finished tenant's
/// fingerprint, keyed by name.
fn fingerprints(specs: Vec<TenantSpec>) -> BTreeMap<String, String> {
    let mut plaza = Plaza::new(PlazaConfig::default());
    for spec in specs {
        plaza.submit(spec);
    }
    plaza
        .run()
        .outcomes
        .into_iter()
        .map(|o| {
            let fp = o.fingerprint();
            (o.name, fp)
        })
        .collect()
}

/// The deterministic anchor case: a guarded tenant and a capture tenant
/// next to a chaos-running neighbor, solo vs crowded, interleaved vs
/// parallel — four executions, one set of bytes per tenant.
#[test]
fn guarded_and_capture_tenants_ignore_a_chaos_neighbor() {
    let _guard = ENV_LOCK.lock().unwrap();
    let cast = || {
        vec![tenant(4, "guarded"), tenant(1, "capture"), chaos_neighbor("gremlin")]
    };

    set_jobs(1);
    let solo: BTreeMap<String, String> = cast()
        .into_iter()
        .map(|spec| {
            let name = spec.name.clone();
            let fp = fingerprints(vec![spec]).remove(&name).expect("solo run finished");
            (name, fp)
        })
        .collect();
    let co_seq = fingerprints(cast());
    set_jobs(4);
    let co_par = fingerprints(cast());
    std::env::remove_var("CAMPUSLAB_JOBS");

    for (name, fp) in &solo {
        assert_eq!(
            fp,
            co_seq.get(name).expect("tenant finished co-scheduled"),
            "{name}: solo vs interleaved co-schedule diverged"
        );
        assert_eq!(
            fp,
            co_par.get(name).expect("tenant finished under JOBS=4"),
            "{name}: solo vs parallel co-schedule diverged"
        );
    }
    // Sanity: the guarded tenant actually ran its ladder and the chaos
    // neighbor actually suffered — this differential is not vacuous.
    assert!(solo["guarded"].contains("guarded_rollout"), "prefixed guard metrics missing");
    assert!(solo["gremlin"].contains("dropped_fault: "), "chaos flap dropped nothing");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// Random casts from the palette (always plus the chaos neighbor):
    /// every tenant's bytes must survive co-scheduling on both executors.
    #[test]
    fn any_cast_is_byte_identical_solo_vs_co_scheduled(
        kinds in proptest::collection::vec(0u8..5, 2..4),
    ) {
        let _guard = ENV_LOCK.lock().unwrap();
        let cast = || {
            let mut specs: Vec<TenantSpec> = kinds
                .iter()
                .enumerate()
                .map(|(i, &k)| tenant(k, &format!("t{i}")))
                .collect();
            specs.push(chaos_neighbor("gremlin"));
            specs
        };

        set_jobs(1);
        let solo: BTreeMap<String, String> = cast()
            .into_iter()
            .map(|spec| {
                let name = spec.name.clone();
                let fp = fingerprints(vec![spec]).remove(&name).expect("solo run finished");
                (name, fp)
            })
            .collect();
        let co_seq = fingerprints(cast());
        set_jobs(4);
        let co_par = fingerprints(cast());
        std::env::remove_var("CAMPUSLAB_JOBS");

        prop_assert_eq!(co_seq.len(), solo.len(), "a tenant went missing co-scheduled");
        for (name, fp) in &solo {
            prop_assert_eq!(
                fp,
                co_seq.get(name).expect("tenant finished co-scheduled"),
                "{}: solo vs interleaved co-schedule diverged",
                name
            );
            prop_assert_eq!(
                fp,
                co_par.get(name).expect("tenant finished under JOBS=4"),
                "{}: solo vs parallel co-schedule diverged",
                name
            );
        }
    }
}
