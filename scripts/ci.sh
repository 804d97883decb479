#!/bin/sh
# The checks a change must pass before merging. Run from the repo root.
# Every gate is a typed assertion inside a test or a tool's own exit
# status; this file only says which targets run under which environment.
set -eu

cargo build --release
cargo test --workspace -q
cargo clippy --workspace --all-targets -- -D warnings -D rust_2018_idioms
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
# `cargo test` compiles the examples but never runs them; this one's
# asserts (a store reopened from its log answers the same query) do.
cargo run --release -q --example data_store_tour
# The third sweep over the staged development loop (one teacher, a
# student per depth) beside E1 and E6, which the goldens already run.
cargo run --release -q --example capacity_planning

# A property failure writes its case index into a proptest-regressions/
# file; that reproducer must be committed alongside the fix. An untracked
# or modified one here means a failure was observed but its recording
# never made it into the tree. (--error-unmatch: nonzero when none is.)
if git ls-files --others --modified --exclude-standard --error-unmatch -- '*proptest-regressions*' 2>/dev/null; then
    echo "error: the proptest reproducers listed above are not committed" >&2
    exit 1
fi

# Line-coverage floor where cargo-llvm-cov is installed (optional
# tooling, not a build dependency; bare containers skip with a notice).
if cargo llvm-cov --version >/dev/null 2>&1; then
    cargo llvm-cov --workspace --summary-only --fail-under-lines 67
else
    echo "notice: cargo-llvm-cov not installed; skipping coverage floor" >&2
fi

# Never-panic fuzz soak: every untrusted-input decoder (wire's DNS codec,
# WAL tail scanner, PHNX envelope, datastore codec) and every structure
# keyed by untrusted input (the scrubber's address memo, checked against
# its unmemoized oracle) reads CAMPUSLAB_FUZZ_CASES and takes 10k seeded
# cases. By whole package, not by test name: a name
# filter that a rename turns into a silent no-op is not a gate. The rest
# of each package rides along, which is also its release-mode run
# (kill-at-every-boundary, phoenix_diff, WAL recovery).
CAMPUSLAB_FUZZ_CASES=10000 cargo test -q --release \
    -p campuslab-wire -p campuslab-datastore -p campuslab-testbed -p campuslab-privacy

# Executor matrix, release. The workspace run above was the unset row in
# debug; this is it optimised. golden_replay itself sets CAMPUSLAB_JOBS
# to 1 and then 4 for every id, and isolation pins its own widths.
cargo test -q --release -p campuslab-bench --test golden_replay --test e3_search
cargo test -q --release -p campuslab-plaza --test isolation
cargo test -q --release -p campuslab-netsim --test proptest_shard --test chaos --test allocs
cargo test -q --release -p campuslab-ml --test allocs --test presort_oracle
cargo test -q --release -p campuslab-xai --test distill_oracle
cargo test -q --release -p campuslab-capture --test sketch_oracle

# The one benchmark harness: its tests assert every workload's output
# checks through the executable; the run after them puts this box's
# ledger, layer by layer, into the log. --locked: a changed dependency
# list in any crate would otherwise rewrite benchmark/Cargo.lock silently,
# and that file is the benchmark's, not the change's.
cargo test -q --release --offline --locked --manifest-path benchmark/Cargo.toml
cargo run --release --offline --locked --quiet --manifest-path benchmark/Cargo.toml -- --smoke

# Wall-clock ratio gates (obs sink, 8 shards): release only (ignored in
# debug: timing unoptimised code gates nothing; the four exact counts
# beside them, 8-shard, par-ingest and plaza work/span and the share of a
# run a checkpoint copies, ran in the workspace row too), and last because
# a tripped timing gate should not hide a determinism row above.
cargo test -q --release -p campuslab-bench --test ratio_gates
