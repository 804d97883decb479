//! Differential oracle for the one-pass heavy-hitter update. This file
//! keeps a copy of the update it replaced — bump every sketch row, hash
//! every row again for the estimate, then sort all candidates — as the
//! reference only: fed the same stream, the tracker must report the same
//! top list, total and estimates, and serialize to the same bytes. The
//! sketches are tiny on purpose (width ≤ 8, depth ≤ 3, k ≤ 4) so that
//! row collisions, tied weights and evictions all happen.
//!
//! The row indices themselves come from std's `DefaultHasher`, whose
//! algorithm std leaves unspecified across releases. They are part of
//! every checkpoint image and drive the drift pilot's score, so
//! `row_indices_are_pinned` fixes them for two keys: a toolchain that
//! hashes differently fails that test by name.

use campuslab_capture::{CountMinSketch, HeavyHitters};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::net::IpAddr;

/// `CountMinSketch`'s serialized shape, field for field.
#[derive(Serialize, Deserialize)]
struct RefSketch {
    width: usize,
    depth: usize,
    rows: Vec<Vec<u64>>,
    total: u64,
}

impl RefSketch {
    fn new(width: usize, depth: usize) -> Self {
        RefSketch { width, depth, rows: vec![vec![0; width]; depth], total: 0 }
    }

    fn index<K: Hash>(&self, key: &K, row: usize) -> usize {
        let mut h = DefaultHasher::new();
        row.hash(&mut h);
        key.hash(&mut h);
        (h.finish() % self.width as u64) as usize
    }

    fn add<K: Hash>(&mut self, key: &K, weight: u64) {
        for row in 0..self.depth {
            let i = self.index(key, row);
            self.rows[row][i] += weight;
        }
        self.total += weight;
    }

    fn estimate<K: Hash>(&self, key: &K) -> u64 {
        (0..self.depth).map(|row| self.rows[row][self.index(key, row)]).min().unwrap_or(0)
    }
}

/// `HeavyHitters`' serialized shape, with its old update.
#[derive(Serialize)]
struct RefHeavyHitters {
    sketch: RefSketch,
    k: usize,
    top: Vec<(IpAddr, u64)>,
}

impl RefHeavyHitters {
    fn new(k: usize, width: usize, depth: usize) -> Self {
        RefHeavyHitters { sketch: RefSketch::new(width, depth), k, top: Vec::new() }
    }

    /// Add, estimate with a second pass over the rows, sort everything.
    fn add(&mut self, addr: IpAddr, weight: u64) {
        self.sketch.add(&addr, weight);
        let est = self.sketch.estimate(&addr);
        if let Some(entry) = self.top.iter_mut().find(|(a, _)| *a == addr) {
            entry.1 = est;
        } else if self.top.len() < self.k {
            self.top.push((addr, est));
        } else if let Some(lightest) = self.top.last_mut().filter(|(_, w)| est > *w) {
            *lightest = (addr, est);
        } else {
            return;
        }
        self.top.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    }
}

/// Twelve addresses, both families, several sharing a /16.
fn alphabet() -> Vec<IpAddr> {
    let mut keys: Vec<IpAddr> = (0..8u8).map(|i| IpAddr::from([203, 0, 113, i])).collect();
    keys.push(IpAddr::from([198, 51, 100, 9]));
    keys.push(IpAddr::from([17, 0, 53, 0]));
    keys.push(IpAddr::from([0x2001, 0xdb8, 0, 0, 0, 0, 0, 1]));
    keys.push(IpAddr::from([0x2001, 0xdb8, 0, 0, 0, 0, 0, 2]));
    keys
}

/// A stream of `(key index, weight)`: weights from a small set (zero
/// included) so estimates tie often.
fn stream() -> impl Strategy<Value = Vec<(usize, u64)>> {
    let weight = proptest::sample::select(vec![0u64, 1, 2, 3, 5, 8, 100]);
    proptest::collection::vec((0..12usize, weight), 0..200)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn tracker_matches_the_sort_every_add_reference(
        k in 1..=4usize,
        width in 1..=8usize,
        depth in 1..=3usize,
        adds in stream(),
    ) {
        let keys = alphabet();
        let mut live = HeavyHitters::new(k, width, depth);
        let mut reference = RefHeavyHitters::new(k, width, depth);
        for &(key, weight) in &adds {
            live.add(keys[key], weight);
            reference.add(keys[key], weight);
            prop_assert_eq!(live.top(), reference.top.clone());
            prop_assert_eq!(live.total(), reference.sketch.total);
        }
        prop_assert_eq!(serde::bin::to_vec(&live), serde::bin::to_vec(&reference));
    }

    #[test]
    fn one_pass_add_returns_the_two_pass_estimate(
        width in 1..=8usize,
        depth in 1..=3usize,
        adds in stream(),
    ) {
        let keys = alphabet();
        let mut live = CountMinSketch::new(width, depth);
        let mut reference = RefSketch::new(width, depth);
        for &(key, weight) in &adds {
            let est = live.add(&keys[key], weight);
            reference.add(&keys[key], weight);
            prop_assert_eq!(est, reference.estimate(&keys[key]));
        }
        // Adding 0 reads a key's estimate.
        for key in &keys {
            prop_assert_eq!(live.add(key, 0), reference.estimate(key));
        }
        prop_assert_eq!(serde::bin::to_vec(&live), serde::bin::to_vec(&reference));
    }
}

/// The counter each row of a drift-pilot-sized sketch (512 × 4) bumps
/// for `key`, read back from the sketch's image.
fn row_indices(key: IpAddr) -> Vec<usize> {
    let mut sketch = CountMinSketch::new(512, 4);
    sketch.add(&key, 1);
    let image: RefSketch = serde::bin::from_slice(&serde::bin::to_vec(&sketch)).unwrap();
    image.rows.iter().map(|row| row.iter().position(|&c| c == 1).unwrap()).collect()
}

/// A drift-pilot port key (UDP source port 53) and a source /16 prefix.
#[test]
fn row_indices_are_pinned() {
    assert_eq!(
        row_indices(IpAddr::from([17, 0, 53, 0])),
        vec![375, 511, 77, 499],
        "port key"
    );
    assert_eq!(
        row_indices(IpAddr::from([203, 0, 0, 0])),
        vec![229, 18, 322, 371],
        "prefix key"
    );
}
