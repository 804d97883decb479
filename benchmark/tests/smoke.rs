//! The `--smoke` mode end to end, through the executable: every workload
//! on a 3 s campus day, every output check, both passes.

use campuslab_perfledger::manifest::{END_TO_END, PER_LAYER, SPECIFIC};
use campuslab_perfledger::report::parse_result_line;
use std::process::Command;

fn perfledger(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfledger"))
        .args(args)
        .output()
        .expect("spawn");
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn smoke_runs_every_workload_and_every_traced_pass() {
    let (ok, stdout) = perfledger(&["--smoke"]);
    assert!(ok, "smoke failed:\n{stdout}");
    for name in [
        "pipeline_e1",
        "phoenix_ckpt",
        "fail_share",
        "query_p99_us",
        "netsim.ns_per_event",
        "testbed.decode_s",
    ] {
        assert!(stdout.contains(name), "{name} missing from:\n{stdout}");
    }
}

#[test]
fn a_result_line_carries_exactly_the_registered_metrics() {
    let (ok, stdout) = perfledger(&["--workload", "sim_forward", "--smoke", "--trace", "0"]);
    assert!(ok);
    let result = parse_result_line(stdout.lines().last().unwrap()).unwrap();
    let names: Vec<&str> = result.metrics.iter().map(|(m, _)| m.name).collect();
    assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
    assert!(result.correct && result.attempted >= 1 && result.failed == 0);
    assert!(result
        .metrics
        .iter()
        .all(|&(_, v)| v.is_finite() && v > 0.0));

    let (ok, stdout) = perfledger(&["--workload", "sim_forward", "--smoke", "--trace", "1"]);
    assert!(ok);
    let result = parse_result_line(stdout.lines().last().unwrap()).unwrap();
    let names: Vec<&str> = result.metrics.iter().map(|(m, _)| m.name).collect();
    let registered = SPECIFIC.iter().chain(&PER_LAYER).map(|m| m.name);
    assert_eq!(names, registered.collect::<Vec<_>>());
    for (metric, value) in &result.metrics {
        assert!(value.is_finite(), "{} is {value}", metric.name);
    }
}
