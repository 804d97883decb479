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
//! The crate also owns the durable frame ([`mod@frame`]): the one on-disk
//! codec under checkpoint images, WAL segments and the WAL manifest, with
//! one typed error, [`FrameError`]. Its checksum is [`crc32`]: carry-less
//! multiply where the CPU has it, slice-by-8 tables everywhere else,
//! bit-identical either way.
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

#![deny(unreachable_pub)]

pub mod frame;
pub mod metrics;
pub mod schema;
pub mod trace;

pub use frame::FrameError;
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

/// Fold `bytes` into the raw CRC register `crc`, eight bytes at a time
/// through [`CRC_TABLES`]: the portable path, and the tail of the
/// carry-less one.
fn update_tables(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
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
    crc
}

/// CRC-32 by carry-less multiplication (Intel, "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction", 2009) for the
/// reflected IEEE polynomial: fold 64-byte blocks four 16-byte lanes at a
/// time, fold the lanes into one, reduce 128 to 64 bits, then
/// Barrett-reduce to 32. The constants are `x^k mod P` for the fold
/// distances, bit-reflected and shifted as the paper's reflected variant
/// takes them.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Fold distance 4 × 128 bits: `x^(512+32)` and `x^(512-32)` mod P.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// Fold distance 128 bits: `x^(128+32)` and `x^(128-32)` mod P.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// 64 → 32-bit step of the 128 → 64 reduction: `x^64` mod P.
    const K5: i64 = 0x1_63cd_6124;
    /// The polynomial P(x) and the Barrett constant μ = x^64 / P(x).
    const P: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// The next 16 bytes as one lane, first byte lowest.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn take16(bytes: &mut &[u8]) -> __m128i {
        let (head, tail) = bytes.split_at(16);
        *bytes = tail;
        let lo = u64::from_le_bytes(head[..8].try_into().expect("a 16-byte block"));
        let hi = u64::from_le_bytes(head[8..].try_into().expect("a 16-byte block"));
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    /// Carry `acc` 128 bits forward (by the distance `keys` encode) and
    /// add the next lane.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, keys);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// Fold every whole 16-byte block of `bytes`, which holds at least 64,
    /// into the raw register `crc`; returns the new register and the
    /// bytes left over, fewer than 16, for the table path.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold_clmul(crc: u32, mut bytes: &[u8]) -> (u32, &[u8]) {
        debug_assert!(bytes.len() >= 64);
        let mut x3 = _mm_xor_si128(take16(&mut bytes), _mm_cvtsi32_si128(crc as i32));
        let mut x2 = take16(&mut bytes);
        let mut x1 = take16(&mut bytes);
        let mut x0 = take16(&mut bytes);
        let k1k2 = _mm_set_epi64x(K2, K1);
        while bytes.len() >= 64 {
            x3 = fold(x3, take16(&mut bytes), k1k2);
            x2 = fold(x2, take16(&mut bytes), k1k2);
            x1 = fold(x1, take16(&mut bytes), k1k2);
            x0 = fold(x0, take16(&mut bytes), k1k2);
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(fold(fold(x3, x2, k3k4), x1, k3k4), x0, k3k4);
        while bytes.len() >= 16 {
            x = fold(x, take16(&mut bytes), k3k4);
        }
        // 128 → 64 bits, in the reflected variant's order (the form the
        // Linux and zlib kernels use): fold the low half onto the high
        // half, then the low 32 bits by x^64 onto the remaining 64.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let x = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(x, k3k4), _mm_srli_si128::<8>(x));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );
        // Barrett: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P, and the
        // reflected remainder is the high 32 bits of the low half of R ^ T2.
        let pu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
        (_mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32, bytes)
    }
}

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

    /// Fold `bytes` into the sum: an input of 64 bytes or more by
    /// carry-less multiply where the CPU has it, up to its last partial
    /// 16-byte block; everything else eight bytes at a time.
    pub fn update(&mut self, bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        let bytes = if bytes.len() >= 64
            && std::is_x86_feature_detected!("pclmulqdq")
            && std::is_x86_feature_detected!("sse4.1")
        {
            // SAFETY: `fold_clmul` is safe apart from its target features,
            // and both were detected on this CPU just above.
            let (state, rest) = unsafe { clmul::fold_clmul(self.state, bytes) };
            self.state = state;
            rest
        } else {
            bytes
        };
        self.state = update_tables(self.state, bytes);
    }

    /// The checksum of everything fed so far.
    pub const fn finish(&self) -> u32 {
        !self.state
    }
}

/// CRC-32 of `bytes` in one call: the checksum every durability layer
/// (checkpoint envelopes, WAL record frames, segment manifests) shares,
/// with zero dependencies. The crash path makes several passes over tens
/// of megabytes, so inputs of 64 bytes and more fold by carry-less
/// multiply on x86-64 CPUs with PCLMULQDQ and SSE4.1, and everything else
/// runs slice-by-8 tables (see [`Crc32`]). Bit-exactness across both paths
/// and all platforms is pinned by the known-answer vector and by the
/// bitwise reference loop in the tests.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::{crc32, json_escape, update_tables, Crc32};

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

    /// Deterministic test bytes (xorshift-multiply).
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed;
        move || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    #[test]
    fn crc32_tables_equal_the_bitwise_loop_whole_and_split() {
        let mut next = rng(0x9E37_79B9_7F4A_7C15);
        // One buffer read at start offsets 0..16, so a 16-byte lane starts
        // at every alignment the carry-less path can meet.
        let pool: Vec<u8> = (0..70_016).map(|_| (next() >> 32) as u8).collect();
        // Every length across the 64-byte switch-over and the 16-byte
        // tail, then random lengths up to 70 kB.
        let random: Vec<usize> = (0..60).map(|_| (next() % 70_000) as usize).collect();
        for (case, len) in (0..=300).chain(random).enumerate() {
            let buf = &pool[case % 16..][..len];
            let want = crc32_bitwise(buf);
            assert_eq!(crc32(buf), want, "len {len}");
            let mut split = Crc32::new();
            let mut rest = buf;
            while !rest.is_empty() {
                // Short cuts land inside a 64-byte block; long ones cross
                // several and leave a partial block on both sides.
                let cut = if next() & 1 == 0 { 1 + next() % 63 } else { 1 + next() % 4_000 };
                let (head, tail) = rest.split_at((cut as usize).min(rest.len()));
                split.update(head);
                rest = tail;
            }
            assert_eq!(split.finish(), want, "len {len}, split updates");
        }
    }

    /// The portable path on inputs long enough that `update` would hand
    /// them to the carry-less kernel, so it stays tested on CPUs that
    /// have one.
    #[test]
    fn crc32_table_path_equals_the_bitwise_loop_on_long_inputs() {
        let mut next = rng(0x2545_F491_4F6C_DD1D);
        for len in [64, 65, 127, 128, 1_000, 4_097, 65_536, 100_003] {
            let buf: Vec<u8> = (0..len).map(|_| (next() >> 32) as u8).collect();
            assert_eq!(!update_tables(0xFFFF_FFFF, &buf), crc32_bitwise(&buf), "len {len}");
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
