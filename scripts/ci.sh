#!/bin/sh
# The checks a change must pass before merging. Run from the repo root.
set -eu

cargo build --release
cargo test --workspace -q
cargo clippy --workspace --all-targets -- -D warnings

# Run one named test (`gate <cargo test flags> -- <full test path>`) and
# fail when the path matches nothing: a test that moved or was renamed
# must break its gate, not turn it into a silent no-op.
gate() {
    gate_out=$(cargo test -q "$@" --exact 2>&1) || { echo "$gate_out" >&2; exit 1; }
    echo "$gate_out" | grep -Eq "test result: ok\. [1-9][0-9]* passed" || {
        echo "error: gate matched no test: cargo test $*" >&2
        exit 1
    }
}

# A property failure writes its case index into a proptest-regressions/
# file; that reproducer must be committed alongside the fix. An untracked
# or modified regression file here means a failure was observed but its
# recording never made it into the tree.
regr_dirty=$( (git ls-files --others --exclude-standard -- '*proptest-regressions*'; \
               git diff --name-only -- '*proptest-regressions*') | sort -u)
if [ -n "$regr_dirty" ]; then
    echo "error: proptest recorded failures that are not committed:" >&2
    echo "$regr_dirty" >&2
    echo "fix the property (or commit the reproducer) before merging" >&2
    exit 1
fi

# Line-coverage floor, gated on cargo-llvm-cov being installed (the tool
# is optional tooling, not a build dependency; CI images that carry it
# enforce the floor, bare containers skip with a notice).
if cargo llvm-cov --version >/dev/null 2>&1; then
    cargo llvm-cov --workspace --summary-only --fail-under-lines 67
else
    echo "notice: cargo-llvm-cov not installed; skipping coverage floor" >&2
fi

# The Observatory's schema tables: the law test over all ten (layer
# prefix, contiguous families, no family in two tables, every row
# rendered at zero, a sink fits its own table only) and the freshness of
# the generated METRICS.md.
gate -p campuslab-testbed --lib -- observe::tests::schema_laws_hold_for_every_table
gate -p campuslab-bench --test metrics_catalogue -- committed_metrics_md_is_fresh

# Never-panic fuzz smoke: every untrusted-input parser (wire dns/ipv4/
# ipv6/tcp/udp/icmp/arp/ethernet and capture pcap) takes 10k
# deterministic cases per target — structured corpora plus corruption
# and truncation operators — with zero panics and stable
# parse->encode->parse round trips. The vendored proptest shim is
# seeded and shrink-free, so a failure here reproduces exactly.
CAMPUSLAB_FUZZ_CASES=10000 cargo test -q --release -p campuslab-wire --test fuzz_wire
CAMPUSLAB_FUZZ_CASES=10000 cargo test -q --release -p campuslab-capture --test fuzz_pcap

# The chaos layer's determinism and windowing invariants are load-bearing
# for every robustness claim: gate on them explicitly.
cargo test -q -p campuslab-netsim --test chaos

# The datastore's differential and determinism suites are load-bearing
# for every E3 search claim: indexed results must equal the scan on
# arbitrary inputs, and worker count must never change the bytes.
cargo test -q -p campuslab-datastore --test differential --test par_ingest

# E14 smoke run: the chaos sweep must complete, stay deterministic under
# the parallel runner, and keep the calm run as an upper bound.
out=$(cargo run -q --release -p campuslab-bench --bin exp -- E14)
echo "$out"
echo "$out" | grep -q "parallel runner byte-identical to sequential: yes"
echo "$out" | grep -q "calm bounds mayhem (suppression and delivery): yes"

# E15 gates: the guarded-deployment bundle must replay byte-for-byte
# against its committed golden under both the sequential and the parallel
# runner, the guarded run itself must stay bit-deterministic, and a smoke
# run must show the full story: shadow veto, canary rollback on
# circuit-broken give-ups, and bounded SLO recovery on known-good.
cargo test -q -p campuslab-bench --test golden_replay e15_rollout_guard_replays_byte_for_byte
gate -p campuslab-testbed --lib -- rollout::tests::guarded_run_is_deterministic
out=$(cargo run -q --release -p campuslab-bench --bin exp -- E15)
echo "$out"
echo "$out" | grep -q "shadow vetoed the wildcard before any enforcement: yes"
echo "$out" | grep -q "canary rolled back on circuit-broken install give-ups: yes"
echo "$out" | grep -q "known-good restored SLOs within 2s of sim-time: yes"

# E16 gates: the resolver water-torture bundle must replay byte-for-byte
# against its committed golden (the ShardSim gates below replay it again
# under 1 and 4 shards), the resolver scenario run must stay
# bit-deterministic, and a smoke run must show the full story: the flood
# shed by rate limiting, typed degradation instead of death, cache-hit
# collapse and recovery, abandoned clients surfacing as rollout-guard
# rollback evidence, and the border defense mitigating the resolver.
cargo test -q -p campuslab-bench --test golden_replay e16_resolver_replays_byte_for_byte
gate -p campuslab-testbed --lib -- resolverlab::tests::resolver_run_is_deterministic
out=$(cargo run -q --release -p campuslab-bench --bin exp -- E16)
echo "$out"
echo "$out" | grep -q "per-client rate limiting shed the flood bulk: yes"
echo "$out" | grep -q "starved resolver degraded (stale/ServFail), never died: yes"
echo "$out" | grep -q "cache-hit rate collapsed under flood and recovered after: yes"
echo "$out" | grep -q "abandoned clients became rollout-guard rollback evidence: yes"
echo "$out" | grep -q "controller detected the flood and mitigated the resolver: yes"

# E17 gates: the drift bundle must replay byte-for-byte against its
# committed golden (the ShardSim gates below replay it again under 1 and
# 4 shards; the extra line here covers 8), the drift road test must stay
# bit-deterministic, and a smoke run must show the full always-on story:
# a drift episode opened by the rotation, a drift-triggered retrain
# committed through the guard's ladder, mitigation with SLOs green — and
# the TTM sanity law: the defended time-to-mitigation strictly below the
# undefended (censored-at-run-end) one.
cargo test -q -p campuslab-bench --test golden_replay e17_driftpilot_replays_byte_for_byte
CAMPUSLAB_SHARDS=8 cargo test -q -p campuslab-bench --test golden_replay e17_driftpilot_replays_byte_for_byte
gate -p campuslab-testbed --lib -- driftpilot::tests::drift_run_is_deterministic
out=$(cargo run -q --release -p campuslab-bench --bin exp -- E17)
echo "$out"
echo "$out" | grep -q "pilot opened a drift episode after the port rotation: yes"
echo "$out" | grep -q "a retrained candidate was committed and the deployed lineage moved: yes"
echo "$out" | grep -q "drift was mitigated with SLOs green before the run ended: yes"
echo "$out" | grep -q "defended TTM beats the undefended (censored) TTM: yes"
echo "$out" | grep -q "the defended campus passed fewer attack packets: yes"

# E18 gates: the multi-tenant plaza bundle must replay byte-for-byte
# against its committed golden (the ShardSim gates below replay it again
# under 1 and 4 shards; the extra line here covers 8), the
# tenant-isolation differential suite must prove solo == co-scheduled
# bytes under the interleaved, parallel, 4-shard and 8-shard executors,
# the admission arbiter must hold its property suite against the shadow
# model, and a smoke run must show the full story: typed admission, a
# private shadow veto, FIFO queue drain, and inline solo-vs-co checks.
cargo test -q -p campuslab-bench --test golden_replay e18_tenant_plaza_replays_byte_for_byte
CAMPUSLAB_SHARDS=8 cargo test -q -p campuslab-bench --test golden_replay e18_tenant_plaza_replays_byte_for_byte
cargo test -q --release -p campuslab-plaza --test isolation
CAMPUSLAB_SHARDS=4 cargo test -q --release -p campuslab-plaza --test isolation
CAMPUSLAB_SHARDS=8 cargo test -q --release -p campuslab-plaza --test isolation
cargo test -q -p campuslab-dataplane --test admission
out=$(cargo run -q --release -p campuslab-bench --bin exp -- E18)
echo "$out"
echo "$out" | grep -q "warden's private guard vetoed the wildcard candidate in shadow: yes"
echo "$out" | grep -q "warden's bytes are identical solo vs co-scheduled: yes"
echo "$out" | grep -q "beacon's capture + datastore view ignores the chaos neighbor: yes"
echo "$out" | grep -q "drumlin was queued FIFO, drained on release, and still matches its solo bytes: yes"
echo "$out" | grep -q "monster got a typed rejection and never touched the campus: yes"

# E19 gates: the PhoenixRun bundle must replay byte-for-byte against its
# committed golden (the ShardSim gates below replay it again under 1 and
# 4 shards; the extra line here covers 8), the kill-anywhere contract
# must hold in-crate (every checkpoint boundary resumes byte-identically
# for the drift and the guarded composition, and the windowed session
# equals the one-shot road test), the random scenario x random kill
# point differential must pass, the WAL must
# recover a torn tail to the last good prefix with typed errors, and a
# smoke run must show the full story: a clean kill-point sweep, typed
# decoder verdicts on every crash-shaped corruption, and lossless
# sealed-segment recovery.
cargo test -q -p campuslab-bench --test golden_replay e19_phoenix_replays_byte_for_byte
CAMPUSLAB_SHARDS=8 cargo test -q -p campuslab-bench --test golden_replay e19_phoenix_replays_byte_for_byte
gate --release -p campuslab-testbed --lib -- phoenix::tests::kill_at_every_boundary_resumes_byte_identically
gate --release -p campuslab-testbed --lib -- phoenix::tests::windowed_session_equals_drift_road_test
gate --release -p campuslab-testbed --lib -- rollout::tests::guarded_session_resumes_byte_identically_from_every_boundary
gate --release -p campuslab-testbed --lib -- phoenix::tests::restore_refuses_a_sink_that_does_not_fit
cargo test -q --release -p campuslab-testbed --test phoenix_diff
cargo test -q --release -p campuslab-datastore --lib wal::
out=$(cargo run -q --release -p campuslab-bench --bin exp -- E19)
echo "$out"
echo "$out" | grep -q "every kill point resumed byte-identically: yes"
echo "$out" | grep -q "corrupt checkpoints all map to typed errors: yes"
echo "$out" | grep -q "torn WAL tail recovered to the last good prefix, sealed frames intact: yes"

# The never-panic fuzz discipline extends to the crash-recovery decoders:
# the checkpoint envelope (truncation, bit flips, version skew, byte
# soup) and the WAL tail scanner (every cut point, deterministic
# single-bit flips) must reject corruption with typed errors only. Both
# carry a re-stamped-CRC arm (payload damaged, header checksum recomputed)
# so the binary decoder behind the checksum is fuzzed too, and the codec
# property suite round-trips generated record batches through both forms.
# The vendored serde is not a workspace member: its codec edge-case suite
# (vendor/serde/tests/bin.rs) is run by name.
cargo test -q -p serde
(export CAMPUSLAB_FUZZ_CASES=10000; gate --release -p campuslab-testbed --lib -- phoenix::tests::envelope_decoder_never_panics_on_corrupt_input)
CAMPUSLAB_FUZZ_CASES=10000 cargo test -q --release -p campuslab-datastore --lib wal::tests::tail_scanner_never_panics_on_corrupt_images
CAMPUSLAB_FUZZ_CASES=10000 cargo test -q --release -p campuslab-datastore --test codec

# Phoenix overhead gate: the committed bench snapshot must exist, and a
# fresh CRITERION_FAST run must keep the drift run with one mid-campaign
# checkpoint *freeze* within 5% of the checkpoint-free baseline — the
# freeze is what the running simulation pays; the envelope encode is off
# the hot path and priced by the PerfLedger (testbed.encode_s).
# Seconds-scale runs on shared boxes drift a few percent, so like the
# simulator gate this retries up to three times: a clean box passes
# first try, a real regression fails all attempts.
test -f crates/bench/BENCH_phoenix.json
bench_json=$(mktemp)
phoenix_ok=0
for attempt in 1 2 3; do
    BENCH_JSON="$bench_json" CRITERION_FAST=1 cargo bench -q -p campuslab-bench --bench phoenix >/dev/null
    if python3 - "$bench_json" <<'EOF'
import json, sys
results = {r["name"]: r["ns_per_iter"] for r in json.load(open(sys.argv[1]))}
plain = results["phoenix/drift_run_plain"]
ckpt = results["phoenix/drift_run_checkpointed"]
overhead = ckpt / plain - 1.0
print(f"checkpoint overhead: {overhead:+.1%} (plain {plain:.0f} ns, checkpointed {ckpt:.0f} ns)")
if overhead > 0.05:
    sys.exit("error: mid-run checkpoint overhead exceeds 5%")
EOF
    then phoenix_ok=1; break; fi
    echo "notice: phoenix overhead gate attempt $attempt failed; retrying" >&2
done
rm -f "$bench_json"
if [ "$phoenix_ok" -ne 1 ]; then
    echo "error: phoenix overhead gate failed on all attempts" >&2
    exit 1
fi

# Plaza overhead gate: the committed bench snapshot must exist, and a
# fresh CRITERION_FAST run of the plaza group must keep the amortized
# per-tenant cost of the 64-tenant fleet within 1.5x of the solo
# baseline (the scheduler amortizes fixed costs, so the steady-state
# ratio is ~1.0; 1.5x leaves noise headroom while catching any
# per-neighbor coupling that would make fleets super-linear).
test -f crates/bench/BENCH_plaza.json
bench_json=$(mktemp)
BENCH_JSON="$bench_json" CRITERION_FAST=1 cargo bench -q -p campuslab-bench --bench plaza >/dev/null
python3 - "$bench_json" <<'EOF'
import json, sys
results = {r["name"]: r["ns_per_iter"] for r in json.load(open(sys.argv[1]))}
solo = results["plaza/run_tenants_1"]
fleet = results["plaza/run_tenants_64"]
ratio = (fleet / 64) / solo
print(f"plaza per-tenant: solo {solo:.0f} ns, 64-fleet {fleet / 64:.0f} ns/tenant ({ratio:.2f}x)")
if ratio > 1.5:
    sys.exit("error: 64-tenant plaza per-tenant overhead exceeds 1.5x the solo baseline")
EOF
rm -f "$bench_json"

# Simulator perf gates, from fresh CRITERION_FAST runs of the group.
# (a) Observatory overhead: the instrumented event loop must stay within
#     5% of the same run with the obs sink gated off (a real regression
#     means obs bumps grew beyond plain u64 adds).
# (b) ShardSim: the committed snapshot must exist, and the 8-shard engine
#     must beat the sequential loop on the campus second by a margin the
#     runner can actually deliver: 3x with >=8 cores, 2x with 4-7 cores
#     (the theoretical ceiling on exactly 4 -- possibly shared/throttled --
#     cores is ~4x before coordination overhead, so demanding 3x there
#     gates on machine capability, not regressions). A runner under 4
#     cores has no parallelism to harvest, so there the sharded run must
#     merely stay within 30% of sequential (pure coordination overhead).
# Shared CI boxes drift several percent in speed on a seconds scale —
# comparable to threshold (a) itself — so the gate retries the whole
# group up to three times and passes if any run clears both bars: a
# clean box passes first try, a noisy box within three, while a real
# regression fails all attempts.
test -f crates/bench/BENCH_netsim.json
bench_json=$(mktemp)
perf_ok=0
for attempt in 1 2 3; do
    BENCH_JSON="$bench_json" CRITERION_FAST=1 cargo bench -q -p campuslab-bench --bench simulator >/dev/null
    if python3 - "$bench_json" <<'EOF'
import json, os, sys
results = {r["name"]: r["ns_per_iter"] for r in json.load(open(sys.argv[1]))}
on = results["simulator/run_1s_campus_second"]
off = results["simulator/run_1s_campus_second_obs_off"]
overhead = on / off - 1.0
print(f"obs overhead: {overhead:+.1%} (on {on:.0f} ns, off {off:.0f} ns)")
if overhead > 0.05:
    sys.exit("error: Observatory instrumentation overhead exceeds 5%")
shard = results["simulator/run_1s_campus_second_sharded"]
cores = os.cpu_count() or 1
ratio = on / shard
print(f"sharded campus second: sequential {on:.0f} ns, 8-shard {shard:.0f} ns "
      f"({ratio:.2f}x, {cores} cores)")
need = 3.0 if cores >= 8 else 2.0 if cores >= 4 else None
if need is not None:
    if ratio < need:
        sys.exit(f"error: sharded engine {ratio:.2f}x < required {need:.1f}x on {cores} cores")
elif shard > on * 1.30:
    sys.exit("error: sharded engine regressed past the low-core overhead floor")
EOF
    then perf_ok=1; break; fi
    echo "notice: simulator perf gate attempt $attempt failed; retrying" >&2
done
rm -f "$bench_json"
if [ "$perf_ok" -ne 1 ]; then
    echo "error: simulator perf gates failed on all attempts" >&2
    exit 1
fi

# E3 search gate: the committed bench snapshot must exist (it is the
# artifact EXPERIMENTS.md cites), and a fresh run of the datastore group
# must keep the segment index at least 5x faster than the naive scan on
# the selective host query. CRITERION_FAST keeps the window small; the
# steady-state ratio is ~100x, so 5x leaves ample headroom for noise
# while still catching an index that silently degrades to a scan.
test -f crates/bench/BENCH_datastore.json
bench_json=$(mktemp)
BENCH_JSON="$bench_json" CRITERION_FAST=1 cargo bench -q -p campuslab-bench --bench datastore >/dev/null
python3 - "$bench_json" <<'EOF'
import json, sys
results = {r["name"]: r["ns_per_iter"] for r in json.load(open(sys.argv[1]))}
indexed = results["datastore/indexed_host_query_200k"]
scan = results["datastore/scan_host_query_200k"]
ratio = scan / indexed
print(f"datastore host query: indexed {indexed:.0f} ns, scan {scan:.0f} ns ({ratio:.0f}x)")
if ratio < 5.0:
    sys.exit("error: segment index no longer beats the full scan by 5x")
EOF
rm -f "$bench_json"

# ShardSim determinism gate: the golden experiment bundles must replay
# byte-for-byte under the sharded engine — 1 shard and 4 shards, and for
# the 4-shard case both the inline executor (CAMPUSLAB_JOBS=1) and a
# multi-threaded worker pool — exactly as they do sequentially. The
# differential property suite rides along.
CAMPUSLAB_SHARDS=1 cargo test -q -p campuslab-bench --test golden_replay
CAMPUSLAB_SHARDS=4 CAMPUSLAB_JOBS=1 cargo test -q -p campuslab-bench --test golden_replay
CAMPUSLAB_SHARDS=4 CAMPUSLAB_JOBS=4 cargo test -q -p campuslab-bench --test golden_replay
cargo test -q -p campuslab-netsim --test proptest_shard --test shard_workers
