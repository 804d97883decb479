//! A small multiply-xor hasher for flow steering and datastore indexes.
//!
//! The capture plane hashes short, fixed-shape keys (5-tuples, addresses,
//! ports) millions of times per simulated second. SipHash — the standard
//! library default — buys DoS resistance this simulator does not need and
//! pays for it on every lookup. This hasher is the Firefox/rustc "Fx"
//! construction: one wrapping multiply and a rotate-xor per word, which is
//! both several times faster on short keys and fully deterministic across
//! platforms and processes (SipHash's per-process random keys are exactly
//! what the deterministic-replay tests must avoid).

use std::hash::{BuildHasherDefault, Hasher};

/// Knuth's 64-bit multiplicative-hash constant (2^64 / φ).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx multiply-xor hasher.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add_to_hash(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` producing [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`]: the workspace's one use of the
/// standard map, whose default random seeding its lint bans.
#[allow(clippy::disallowed_types)] // fixed keys: the same order in every process
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn deterministic_across_hasher_instances() {
        let key = (std::net::Ipv4Addr::new(10, 1, 2, 3), 443u16, 17u8);
        assert_eq!(hash_of(&key), hash_of(&key));
    }

    #[test]
    fn distinct_keys_spread() {
        let mut seen = std::collections::BTreeSet::new();
        for port in 0u16..4096 {
            seen.insert(hash_of(&port) % 64);
        }
        // 4096 sequential ports must reach essentially every bucket of 64.
        assert!(seen.len() >= 60, "only {} buckets hit", seen.len());
    }

    #[test]
    fn unaligned_tails_differ() {
        assert_ne!(hash_of(&[1u8, 2, 3]), hash_of(&[1u8, 2, 4]));
        assert_ne!(hash_of(&"abc"), hash_of(&"abd"));
    }
}
