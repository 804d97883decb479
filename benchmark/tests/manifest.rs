//! `BENCHMARK.json` at the repository root and the registry in the code
//! must name the same workloads and metrics.

use campuslab_perfledger::manifest::{Metric, END_TO_END, PER_LAYER, SPECIFIC};
use campuslab_perfledger::workloads::WORKLOADS;
use serde::json::{parse, Value};

fn text<'a>(entry: &'a Value, key: &str) -> &'a str {
    match entry.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("`{key}` is {other:?}"),
    }
}

fn assert_metrics(listed: &Value, registry: &[&Metric], bounded: bool) {
    let listed = listed.as_array().unwrap();
    assert_eq!(listed.len(), registry.len());
    for (entry, metric) in listed.iter().zip(registry) {
        assert_eq!(text(entry, "name"), metric.name);
        assert_eq!(text(entry, "unit"), metric.unit, "{}", metric.name);
        assert_eq!(
            text(entry, "better"),
            metric.better.as_str(),
            "{}",
            metric.name
        );
        let keys = entry.as_object().unwrap().len();
        if bounded {
            let bound: f64 = entry
                .get("bound")
                .unwrap()
                .as_num()
                .unwrap()
                .parse()
                .unwrap();
            assert_eq!(Some(bound), metric.bound, "{}", metric.name);
            assert!(bound <= 0.25);
            assert_eq!(keys, 4);
        } else {
            assert_eq!(keys, 3);
        }
    }
}

#[test]
fn benchmark_json_matches_the_registry() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .unwrap();
    let keys: Vec<&str> = doc
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let workloads = doc.get("workloads").unwrap().as_array().unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (entry, spec) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(text(entry, "name"), spec.name);
        assert_eq!(text(entry, "why"), spec.why);
        assert!(
            spec.why.len() <= 200 && !spec.why.contains('\n'),
            "{}: why too long",
            spec.name
        );
    }
    let end_to_end: Vec<&Metric> = END_TO_END.iter().collect();
    // The workload-specific end-to-end metrics lead the per-layer list.
    let per_layer: Vec<&Metric> = SPECIFIC.iter().chain(&PER_LAYER).collect();
    assert_metrics(doc.get("end_to_end").unwrap(), &end_to_end, true);
    assert_metrics(doc.get("per_layer").unwrap(), &per_layer, false);
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));

    let mut names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(end_to_end.iter().chain(&per_layer).map(|m| m.name))
        .collect();
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
}
