//! Golden-replay suite: the canonical bundle (table + Prometheus dump +
//! sim-time trace) of every `campuslab_bench::EXPERIMENTS` entry is pinned
//! byte-for-byte against a committed golden file, under both the
//! sequential and the parallel runner.
//!
//! This is the determinism contract's enforcement point: metrics are
//! stamped in sim-time and event sequence, never wall clock, so thread
//! scheduling must not be able to move a single byte. If an intentional
//! change shifts an experiment's output, regenerate with
//! `cargo run -p campuslab-bench --bin gen_golden` and commit the diff.

use campuslab_bench::EXPERIMENTS;
use std::collections::BTreeSet;

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden");

#[test]
fn every_experiment_replays_byte_for_byte() {
    let on_disk: BTreeSet<String> = std::fs::read_dir(GOLDEN_DIR)
        .expect("golden dir")
        .map(|entry| {
            entry
                .expect("golden dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    let listed: BTreeSet<String> = EXPERIMENTS
        .iter()
        .map(|(id, _, _)| format!("{id}.golden"))
        .collect();
    assert_eq!(
        on_disk, listed,
        "golden/ and campuslab_bench::EXPERIMENTS name different experiments"
    );

    for (id, _, run) in EXPERIMENTS {
        let golden =
            std::fs::read_to_string(format!("{GOLDEN_DIR}/{id}.golden")).expect("read golden");
        // Every story line an experiment prints ends `yes` or `NO (bug)`:
        // a regenerated golden with a failed story must not be committable.
        assert!(
            !golden.contains("NO (bug)"),
            "{id}: committed golden records a failed story line"
        );
        std::env::set_var("CAMPUSLAB_JOBS", "1");
        let sequential = run().canonical();
        std::env::set_var("CAMPUSLAB_JOBS", "4");
        let parallel = run().canonical();
        std::env::remove_var("CAMPUSLAB_JOBS");
        assert_eq!(
            sequential, parallel,
            "{id}: sequential and parallel runners produced different bytes"
        );
        assert_eq!(
            sequential, golden,
            "{id}: output drifted from the committed golden file \
             (if intentional: cargo run -p campuslab-bench --bin gen_golden)"
        );
    }
}
