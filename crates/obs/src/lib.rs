//! # campuslab-obs
//!
//! The Observatory: a zero-dependency metrics registry (counters, gauges,
//! fixed-bucket histograms) plus span-based stage tracing for every layer
//! of the CampusLab pipeline.
//!
//! Two properties drive the whole design:
//!
//! * **Determinism.** Every value is timestamped in *sim-time* nanoseconds
//!   and event sequence numbers — wall clock never enters a dump. Rendering
//!   walks metrics in registration order and spans in sequence order, so a
//!   dump or trace from the same seeded run is byte-for-byte identical, run
//!   after run, sequential or parallel.
//! * **Cheap on the fast path.** An [`ObsSink`] is a flat `Vec<u64>` owned
//!   by whoever is being instrumented; bumping a counter is an array index
//!   and an add. No globals, no locks, no atomics — parallel runners give
//!   each worker its own sink and [`ObsSink::merge_from`] folds them.
//!
//! Layers do not call the registry by hand: each `*Obs` struct is one
//! [`schema!`] table (see [`mod@schema`]), which generates the struct, its
//! registration, getters, render and checked thaw. The registry itself:
//!
//! ```
//! use campuslab_obs::Registry;
//!
//! let mut reg = Registry::new();
//! let hits = reg.counter("cache_hits_total", "route cache hits");
//! let depth = reg.histogram("queue_depth_bytes", "egress queue depth", &[100, 1_000, 10_000]);
//! let mut sink = reg.sink();
//! sink.inc(hits);
//! sink.observe(depth, 250);
//! let dump = reg.render(&sink);
//! assert!(dump.contains("cache_hits_total 1"));
//! assert!(dump.contains("queue_depth_bytes_bucket{le=\"1000\"} 1"));
//! ```

#![deny(rust_2018_idioms)]
#![deny(unreachable_pub)]

pub mod metrics;
pub mod schema;
pub mod trace;

pub use metrics::{
    CounterId, GaugeId, Histogram, HistogramId, Kind, Metric, ObsSink, Registry, SinkMisfit,
};
pub use trace::{OpenSpan, Span, Tracer};

/// Escape a string for inclusion in a JSON string literal (hand-rolled so
/// deterministic renders need no serde).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Slice-by-8 lookup tables for the reflected IEEE polynomial, built at
/// compile time. `CRC_TABLES[0]` is the classic byte-at-a-time table;
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
};

/// A running CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320): feed it
/// bytes as they are written, read the sum with [`Crc32::finish`]. Splitting
/// the input across `update` calls never changes the result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    pub const fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Fold `bytes` into the sum, eight at a time.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC_TABLES;
        let mut crc = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][(lo >> 8 & 0xFF) as usize]
                ^ t[5][(lo >> 16 & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][c[4] as usize]
                ^ t[2][c[5] as usize]
                ^ t[1][c[6] as usize]
                ^ t[0][c[7] as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// The checksum of everything fed so far.
    pub const fn finish(&self) -> u32 {
        !self.state
    }
}

/// CRC-32 of `bytes` in one call: the checksum every durability layer
/// (checkpoint envelopes, WAL record frames, segment manifests) shares,
/// with zero dependencies. The crash path makes several passes over tens
/// of megabytes, so this is table-driven (see [`Crc32`]); bit-exactness
/// across platforms is pinned by the known-answer vector and by the
/// bitwise reference loop in the tests.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::{crc32, json_escape, Crc32};

    /// The bit-at-a-time loop the tables replaced, kept as the reference.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"), "single-byte change must move the sum");
    }

    #[test]
    fn crc32_tables_equal_the_bitwise_loop_whole_and_split() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for case in 0..400 {
            // Lengths around the 8-byte stride and a few long buffers.
            let len = if case < 64 { case } else { (next() % 5_000) as usize };
            let buf: Vec<u8> = (0..len).map(|_| (next() >> 32) as u8).collect();
            let want = crc32_bitwise(&buf);
            assert_eq!(crc32(&buf), want, "len {len}");
            let mut split = Crc32::new();
            let mut rest = &buf[..];
            while !rest.is_empty() {
                let (head, tail) = rest.split_at(1 + next() as usize % rest.len());
                split.update(head);
                rest = tail;
            }
            assert_eq!(split.finish(), want, "len {len}, split updates");
        }
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
