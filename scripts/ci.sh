#!/bin/sh
# The checks a change must pass before merging. Run from the repo root.
# Every gate is a typed assertion inside a test or a tool's own exit
# status; this file only says which targets run under which environment.
set -eu

cargo build --release
cargo test --workspace -q
cargo clippy --workspace --all-targets -- -D warnings -D rust_2018_idioms
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
# Size: the non-test lines under crates/*/src, counted by the census
# rule, into the log, so a change reports its size from one script.
echo "non-test lines under crates/*/src: $(sh scripts/size.sh)"
# `cargo test` compiles the examples but never runs them: run every one,
# so a panic or a failed assert in any of them fails here. Each asserts
# what it prints (data_store_tour reopens a store from its log and checks
# it; privacy_audit checks prefix preservation and the audit log).
for example in examples/*.rs; do
    cargo run --release -q --example "$(basename "$example" .rs)"
done

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
# the durable frame in obs that PHNX images, WAL segments and the WAL
# manifest share, the WAL tail scanner and a checkpoint's payload behind
# it, datastore codec) and every structure keyed by untrusted input (the
# scrubber's address memo, checked against its unmemoized oracle) reads
# CAMPUSLAB_FUZZ_CASES and takes 10k seeded cases. By whole package, not
# by test name: a name
# filter that a rename turns into a silent no-op is not a gate. The rest
# of each package rides along, which is also its release-mode run
# (kill-at-every-boundary, phoenix_diff, WAL recovery, and obs's CRC-32
# tests, which reach the one `unsafe` call in an optimised build).
CAMPUSLAB_FUZZ_CASES=10000 cargo test -q --release \
    -p campuslab-wire -p campuslab-datastore -p campuslab-testbed -p campuslab-privacy -p campuslab-obs

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
