//! The six workloads. Each is set up once from a seed (untimed), then
//! iterated: one iteration is one closed-loop pass of a single caller over
//! the workload's timed region, with its outputs checked.

mod learn;
mod phoenix;
mod pipeline;
mod sim;
mod store;

use crate::trace::Trace;
use campuslab::netsim::NetStats;

/// What one iteration produced besides its spans.
pub struct Verdict {
    /// Hash of the iteration's simulated statistics and result counts. It
    /// must repeat exactly across iterations, and across commits that only
    /// change speed.
    pub digest: u64,
    /// One line per failed output check or failed call.
    pub failures: Vec<String>,
    pub specific: Specific,
}

/// End-to-end readings only some workloads have; the harness pools them
/// over a run's measured iterations.
#[derive(Default)]
pub struct Specific {
    /// Dead process to usable state, seconds.
    pub recover_s: Option<f64>,
    /// Bytes of the durable form; must repeat exactly.
    pub durable_bytes: Option<u64>,
    /// Latency of every indexed query issued, nanoseconds.
    pub query_ns: Vec<u64>,
}

pub trait Workload {
    /// Run the timed region once, wrapping every timed call in a span.
    fn iterate(&mut self, t: &mut Trace) -> Verdict;

    /// Measurements that only feed per-layer metrics; the traced pass runs
    /// them once after the traced iteration.
    fn probes(&mut self, _t: &mut Trace) {}
}

pub struct Spec {
    pub name: &'static str,
    /// One line: why this workload is in the benchmark.
    pub why: &'static str,
    /// Untimed preparation; its spans feed set-up-side layer metrics.
    pub setup: fn(seed: u64, smoke: bool, t: &mut Trace) -> Box<dyn Workload>,
}

pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "pipeline_e1",
        why: "the paper's loop end to end (collect, store, develop, road-test): every layer contributes, so a layer win shows in proportion to its share",
        setup: pipeline::setup,
    },
    Spec {
        name: "sim_forward",
        why: "netsim alone (inject + sequential run, no tap): isolates per-event cost; a learning-side change must leave it flat",
        setup: sim::setup_forward,
    },
    Spec {
        name: "sim_sharded",
        why: "the same injections under the 8-shard engine: a sharding win that taxes the sequential loop, or the reverse, shows on the sibling",
        setup: sim::setup_sharded,
    },
    Spec {
        name: "learn_sweep",
        why: "E1's gate sweep on a stored capture (features, forest, distill, compile x3): learning does all the work and netsim none",
        setup: learn::setup,
    },
    Spec {
        name: "store_mixed",
        why: "scrub + WAL append beside indexed queries, then seal and recovery: an ingest win that slows queries or recovery is visible",
        setup: store::setup,
    },
    Spec {
        name: "phoenix_ckpt",
        why: "the crash path of a drift session (run to a barrier, checkpoint, encode, decode, restore, finish): what users pay on every kill",
        setup: phoenix::setup,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// FNV-1a over 64-bit words: stable across runs, machines and toolchains.
pub(crate) struct Digest(u64);

impl Digest {
    pub(crate) fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn add(&mut self, word: u64) -> &mut Self {
        self.add_bytes(&word.to_le_bytes())
    }

    pub(crate) fn add_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &byte in bytes {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub(crate) fn add_net(&mut self, s: &NetStats) -> &mut Self {
        for word in [
            s.injected,
            s.delivered,
            s.delivered_bytes,
            s.dropped_queue,
            s.dropped_fault,
            s.dropped_filter,
            s.dropped_ttl,
            s.dropped_no_route,
            s.dropped_node_down,
            s.latency_sum.as_nanos(),
        ] {
            self.add(word);
        }
        self
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// Collects failed output checks.
#[derive(Default)]
pub(crate) struct Checks {
    failures: Vec<String>,
}

impl Checks {
    pub(crate) fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Packet conservation: everything injected was delivered or dropped.
    pub(crate) fn conserved(&mut self, which: &str, s: &NetStats) {
        self.require(s.injected == s.delivered + s.dropped_total(), || {
            format!(
                "{which}: injected {} != delivered {} + dropped {}",
                s.injected,
                s.delivered,
                s.dropped_total()
            )
        });
    }

    pub(crate) fn verdict(self, digest: &Digest, specific: Specific) -> Verdict {
        Verdict {
            digest: digest.finish(),
            failures: self.failures,
            specific,
        }
    }
}
