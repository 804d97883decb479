//! The metric registry: every name the benchmark may print, with its unit
//! and direction. `BENCHMARK.json` at the repository root lists the same
//! names (a test compares them); a result carrying any other name is
//! refused.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression; per-layer metrics
    /// have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a user of the system sees on every workload; these are the
/// `end_to_end` list of `BENCHMARK.json`. The bounds are what the box the
/// benchmark was written on can resolve, not what the issue asked for
/// (8 % and 10 %): see "Noise floor" in the README.
///
/// * `wall_s` — median wall-clock of one iteration's timed region.
/// * `setup_s` — median of the repeated untimed preparation.
/// * `peak_rss_mb` — `VmHWM` of the workload's process when it ends.
pub const END_TO_END: [Metric; 3] = [
    e2e("wall_s", "s", 0.25),
    e2e("setup_s", "s", 0.25),
    e2e("peak_rss_mb", "MB", 0.25),
];

/// End-to-end metrics only some workloads have, measured on the untraced
/// iterations like the ones above and bounded the same way (`--aa` holds
/// them to their bounds). `BENCHMARK.json` wants every workload to report
/// every `end_to_end` metric, so there these four stand in `per_layer`,
/// reading 0 where a workload has no such thing.
///
/// * `recover_s` — dead process to usable state: `WalStore::open` on
///   `store_mixed`, `decode_checkpoint` + `restore` on `phoenix_ckpt`.
/// * `durable_bytes` — WAL directory; PHNX envelope. Repeats exactly.
/// * `query_p50_us`, `query_p99_us` — indexed-query latency pooled over a
///   run's measured iterations; `store_mixed` only. Bounds by the issue's
///   rule, max(10 %, 2 × the observed A/A difference of 11.5 % and 19.8 %).
pub const SPECIFIC: [Metric; 4] = [
    e2e("recover_s", "s", 0.10),
    e2e("durable_bytes", "B", 0.01),
    e2e("query_p50_us", "us", 0.25),
    e2e("query_p99_us", "us", 0.40),
];

/// Failed operations ÷ attempted, where an operation is one timed call
/// into a layer and fails on `Err`, a caught panic or a failed output
/// check. It is 0 on a correct run, and `BENCHMARK.json` wants metrics
/// that never are, so there it is the result line's `failed` / `attempted`.
pub const FAIL_SHARE: Metric = e2e("fail_share", "ratio", 0.0);

/// Single-layer metrics, `<crate>.<metric>`, from the traced pass of one
/// workload; a metric reads 0 on a workload that does not exercise its
/// layer. The README says which end-to-end number each should move.
pub const PER_LAYER: [Metric; 76] = [
    lower("traffic.generate_s", "s"),
    higher("traffic.packets", "count"),
    lower("traffic.allocs_per_pkt", "count"),
    lower("netsim.campus_build_s", "s"),
    lower("netsim.inject_s", "s"),
    lower("netsim.run_self_s", "s"),
    lower("netsim.events", "count"),
    lower("netsim.ns_per_event", "ns"),
    lower("netsim.allocs_per_pkt", "count"),
    higher("netsim.delivered", "count"),
    lower("netsim.dropped_queue", "count"),
    lower("netsim.shard.windows", "count"),
    lower("netsim.shard.serial_phases", "count"),
    lower("netsim.shard.cross_packets", "count"),
    lower("netsim.shard.replayed_hooks", "count"),
    lower("netsim.shard.run_s", "s"),
    higher("netsim.shard.speedup", "x"),
    lower("capture.on_tap_s", "s"),
    lower("capture.ns_per_pkt", "ns"),
    lower("capture.finish_s", "s"),
    higher("capture.observed", "count"),
    higher("capture.captured", "count"),
    lower("capture.ring_dropped", "count"),
    higher("capture.capture_ratio", "ratio"),
    lower("datastore.ingest_s", "s"),
    higher("datastore.ingest_rec_per_s", "1/s"),
    lower("datastore.par_ingest_ratio", "ratio"),
    lower("datastore.allocs_per_rec", "count"),
    lower("datastore.wal_open_s", "s"),
    lower("datastore.wal_append_s", "s"),
    higher("datastore.wal_append_rec_per_s", "1/s"),
    lower("datastore.wal_seal_s", "s"),
    lower("datastore.wal_recover_s", "s"),
    lower("datastore.wal_bytes_per_rec", "B"),
    lower("datastore.query_s", "s"),
    lower("datastore.query_host_p50_us", "us"),
    lower("datastore.query_host_window_p50_us", "us"),
    lower("datastore.query_attack_window_p50_us", "us"),
    lower("datastore.query_port_window_p50_us", "us"),
    lower("datastore.examined_per_hit", "ratio"),
    higher("datastore.segments_pruned_share", "ratio"),
    lower("privacy.scrub_s", "s"),
    lower("privacy.scrub_ns_per_rec", "ns"),
    lower("features.packet_dataset_s", "s"),
    lower("features.window_dataset_s", "s"),
    higher("features.rows", "count"),
    lower("ml.balance_s", "s"),
    lower("ml.forest_fit_s", "s"),
    lower("ml.evaluate_s", "s"),
    lower("ml.window_tree_fit_s", "s"),
    higher("ml.train_rows", "count"),
    lower("xai.distill_s", "s"),
    higher("xai.fidelity", "ratio"),
    lower("dataplane.compile_s", "s"),
    lower("dataplane.tcam_entries", "count"),
    lower("dataplane.lookup_ns_per_pkt", "ns"),
    lower("control.devloop_s", "s"),
    lower("control.devloop_replay_share", "ratio"),
    lower("control.controller_hooks_s", "s"),
    higher("control.mitigations", "count"),
    lower("control.install_giveups", "count"),
    lower("testbed.collect_s", "s"),
    lower("testbed.road_test_s", "s"),
    lower("testbed.session_build_s", "s"),
    lower("testbed.run_to_barrier_s", "s"),
    lower("testbed.checkpoint_s", "s"),
    lower("testbed.encode_s", "s"),
    lower("testbed.decode_s", "s"),
    lower("testbed.restore_s", "s"),
    lower("testbed.finish_s", "s"),
    lower("obs.overhead_share", "ratio"),
    lower("wire.dns_parse_ns", "ns"),
    lower("wire.dns_emit_ns", "ns"),
    lower("mem.peak_heap_mb", "MB"),
    lower("trace.wall_s", "s"),
    lower("trace.overhead_share", "ratio"),
];

/// Look a metric up by name in all three lists.
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(&SPECIFIC)
        .chain([&FAIL_SHARE])
        .chain(&PER_LAYER)
        .find(|m| m.name == name)
}
