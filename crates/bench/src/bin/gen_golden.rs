//! Regenerate the committed golden-replay files under `crates/bench/golden/`
//! and the metric catalogue, `METRICS.md` at the repo root.
//!
//! Each file is the canonical Observatory bundle of one pinned experiment
//! (`campuslab_bench::PINNED`): table, Prometheus dump, sim-time trace. The
//! golden-replay integration test asserts current runs — sequential *and*
//! parallel — reproduce these bytes exactly, so run this only when an
//! intentional change moves an experiment's output, and commit the diff
//! with it. The catalogue is rendered from the `schema!` tables
//! (`campuslab::testbed::metric_catalogue`); `tests/metrics_catalogue.rs`
//! fails when the committed copy is stale.
//!
//! ```sh
//! cargo run --release -p campuslab-bench --bin gen_golden
//! ```

fn main() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/golden");
    std::fs::create_dir_all(dir).expect("create golden dir");
    for (id, run) in campuslab_bench::PINNED {
        let canonical = run().canonical();
        let path = format!("{dir}/{id}.golden");
        std::fs::write(&path, &canonical).expect("write golden file");
        eprintln!("{path}: {} bytes", canonical.len());
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../METRICS.md");
    std::fs::write(path, campuslab::testbed::metric_catalogue()).expect("write METRICS.md");
}
