//! Seed handling: a seed fixes a workload's inputs and therefore its
//! digest; another seed gives other inputs; every output check holds on
//! both. Run on the smoke mode's short campus day.

use campuslab_perfledger::harness::{iterate, Tally};
use campuslab_perfledger::report::parse_result_line;
use campuslab_perfledger::trace::Trace;
use campuslab_perfledger::workloads::{Spec, WORKLOADS};
use std::process::Command;

/// Set a workload up from `seed`, iterate it twice, return its digest.
fn digest(spec: &Spec, seed: u64) -> u64 {
    let mut t = Trace::new(false);
    let mut workload = (spec.setup)(seed, true, &mut t);
    let mut tally = Tally::default();
    for _ in 0..2 {
        iterate(workload.as_mut(), &mut t, &mut tally).expect("no panic");
    }
    assert!(
        tally.correct(),
        "{} seed {seed}: {:?}",
        spec.name,
        tally.failures
    );
    tally.digest()
}

#[test]
fn a_seed_fixes_the_digest_and_another_seed_changes_it() {
    for spec in &WORKLOADS {
        let first = digest(spec, 42);
        assert_eq!(
            first,
            digest(spec, 42),
            "{}: same seed, different digest",
            spec.name
        );
        assert_ne!(
            first,
            digest(spec, 43),
            "{}: seeds 42 and 43 collide",
            spec.name
        );
    }
}

#[test]
fn unknown_workloads_are_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfledger"))
        .args(["--workload", "no_such_workload", "--smoke"])
        .output()
        .expect("spawn perfledger");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "a refused run printed a result");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workload"));
}

#[test]
fn unknown_metric_names_and_units_are_refused() {
    let line = |name: &str, unit: &str| {
        format!(
            "{{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {{\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}}}}}"
        )
    };
    let ok = parse_result_line(&line("wall_s", "s")).expect("a known metric parses");
    assert_eq!((ok.attempted, ok.failed, ok.metrics[0].1), (3, 0, 1.5));
    assert!(parse_result_line(&line("wall_seconds", "s"))
        .unwrap_err()
        .contains("unknown metric"));
    assert!(parse_result_line(&line("wall_s", "ms"))
        .unwrap_err()
        .contains("unit"));
    assert!(parse_result_line("not json").is_err());
}
