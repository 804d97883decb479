//! Regenerate everything that is generated: the golden-replay files under
//! `crates/bench/golden/`, the marked table blocks of `EXPERIMENTS.md`,
//! and the metric catalogue, `METRICS.md`, at the repo root.
//!
//! Each golden is the canonical bundle of one `campuslab_bench::EXPERIMENTS`
//! entry: table, Prometheus dump, sim-time trace. The golden-replay
//! integration test asserts current runs — sequential *and* parallel —
//! reproduce these bytes exactly, so run this only when an intentional
//! change moves an experiment's output, and commit the diff with it. Each
//! `<!-- exp:ID -->` block in `EXPERIMENTS.md` is rewritten with that
//! run's table, and the catalogue is rendered from the `schema!` tables
//! (`campuslab::testbed::metric_catalogue`); `tests/metrics_catalogue.rs`
//! fails when either committed document is stale.
//!
//! ```sh
//! cargo run --release -p campuslab-bench --bin gen_golden
//! ```

use campuslab_bench::{docs, runner};

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

fn main() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/golden");
    std::fs::create_dir_all(dir).expect("create golden dir");
    let reports = runner::run_all();
    for report in &reports {
        let canonical = report.obs.canonical();
        let path = format!("{dir}/{}.golden", report.id);
        std::fs::write(&path, &canonical).expect("write golden file");
        eprintln!("{path}: {} bytes", canonical.len());
    }
    let path = format!("{ROOT}/EXPERIMENTS.md");
    let md = std::fs::read_to_string(&path).expect("read EXPERIMENTS.md");
    let table_of = |id: &str| reports.iter().find(|r| r.id == id).map(|r| r.obs.table.as_str());
    std::fs::write(&path, docs::with_fresh_blocks(&md, table_of)).expect("write EXPERIMENTS.md");
    std::fs::write(format!("{ROOT}/METRICS.md"), campuslab::testbed::metric_catalogue())
        .expect("write METRICS.md");
}
