//! `METRICS.md` is generated from the `schema!` tables, never edited: a
//! metric added, renamed or re-documented without regenerating it fails
//! here. Regenerate with `cargo run --release -p campuslab-bench --bin gen_golden`.

#[test]
fn committed_metrics_md_is_fresh() {
    assert_eq!(
        include_str!("../../../METRICS.md"),
        campuslab::testbed::metric_catalogue(),
        "METRICS.md is stale (cargo run --release -p campuslab-bench --bin gen_golden)"
    );
}
