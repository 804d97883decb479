//! Streaming sketches for on-the-fly telemetry: a count-min sketch with a
//! top-k heavy-hitter tracker — the constant-memory way a monitoring
//! appliance (or a programmable switch) answers "who is moving the bytes
//! right now?" without storing per-host state.

use std::hash::{Hash, Hasher};
use std::net::IpAddr;

/// A count-min sketch over arbitrary hashable keys.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CountMinSketch {
    width: usize,
    depth: usize,
    rows: Vec<Vec<u64>>,
    /// Total weight inserted (for error bounds).
    pub total: u64,
}

impl CountMinSketch {
    /// A sketch with `depth` rows of `width` counters. Error bound:
    /// overestimate ≤ `e * total / width` with probability `1 - e^-depth`.
    pub fn new(width: usize, depth: usize) -> Self {
        assert!(width > 0 && depth > 0);
        CountMinSketch { width, depth, rows: vec![vec![0; width]; depth], total: 0 }
    }

    fn index<K: Hash>(&self, key: &K, row: usize) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        row.hash(&mut h);
        key.hash(&mut h);
        (h.finish() % self.width as u64) as usize
    }

    /// Add `weight` to `key` and return its new estimate: the least of the
    /// counters just bumped, one hash per row. The estimate never
    /// underestimates; adding 0 reads it.
    pub fn add<K: Hash>(&mut self, key: &K, weight: u64) -> u64 {
        let mut est = u64::MAX;
        for row in 0..self.depth {
            let i = self.index(key, row);
            let counter = &mut self.rows[row][i];
            *counter += weight;
            est = est.min(*counter);
        }
        self.total += weight;
        est
    }

    /// Worst-case overestimate bound at this fill level.
    pub fn error_bound(&self) -> f64 {
        std::f64::consts::E * self.total as f64 / self.width as f64
    }
}

/// Tracks the `k` heaviest keys exactly, fed by sketch estimates — the
/// classic sketch + heap heavy-hitter construction. Its checkpoint image is
/// the tracker itself: the candidates are a list in [`HeavyHitters::top`]'s
/// order, so a restored tracker evicts exactly as the live one would.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct HeavyHitters {
    sketch: CountMinSketch,
    k: usize,
    /// Candidates with their estimated weight, heaviest first, ties by
    /// address: the last entry is the one a newcomer evicts.
    top: Vec<(IpAddr, u64)>,
}

impl HeavyHitters {
    /// Track the top `k` addresses with a `width x depth` sketch.
    pub fn new(k: usize, width: usize, depth: usize) -> Self {
        assert!(k > 0);
        HeavyHitters { sketch: CountMinSketch::new(width, depth), k, top: Vec::new() }
    }

    /// Account `weight` bytes to `addr`.
    pub fn add(&mut self, addr: IpAddr, weight: u64) {
        let est = self.sketch.add(&addr, weight);
        let mut at = match self.top.iter().position(|(a, _)| *a == addr) {
            Some(at) => at,
            None if self.top.len() < self.k => {
                self.top.push((addr, est));
                self.top.len() - 1
            }
            // Replace the lightest candidate: it now outweighs it.
            None if self.top.last().is_some_and(|&(_, w)| est > w) => self.top.len() - 1,
            None => return,
        };
        self.top[at] = (addr, est);
        // The rest of the list is in order and a count-min estimate never
        // falls, so the updated entry can only move up.
        while at > 0 && ranks_before(self.top[at], self.top[at - 1]) {
            self.top.swap(at, at - 1);
            at -= 1;
        }
    }

    /// The current top talkers, heaviest first (ties by address).
    pub fn top(&self) -> Vec<(IpAddr, u64)> {
        self.top.clone()
    }

    /// Total bytes observed.
    pub fn total(&self) -> u64 {
        self.sketch.total
    }
}

/// `top()`'s order: heavier first, ties by address.
fn ranks_before(a: (IpAddr, u64), b: (IpAddr, u64)) -> bool {
    a.1 > b.1 || (a.1 == b.1 && a.0 < b.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(last: u8) -> IpAddr {
        IpAddr::from([10, 0, 0, last])
    }

    #[test]
    fn estimates_never_underestimate() {
        let mut s = CountMinSketch::new(256, 4);
        let mut truth: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
        for i in 0..5_000u32 {
            let key = i % 300;
            let w = u64::from(key % 7 + 1);
            s.add(&key, w);
            *truth.entry(key).or_insert(0) += w;
        }
        for (key, &count) in &truth {
            assert!(s.add(key, 0) >= count, "underestimate for {key}");
        }
    }

    #[test]
    fn overestimates_stay_within_the_bound() {
        let mut s = CountMinSketch::new(512, 4);
        for i in 0..20_000u32 {
            s.add(&(i % 1_000), 1);
        }
        let bound = s.error_bound();
        let mut violations = 0;
        for key in 0..1_000u32 {
            let err = s.add(&key, 0).saturating_sub(20);
            if err as f64 > bound {
                violations += 1;
            }
        }
        // The bound holds with probability 1 - e^-4 per key.
        assert!(violations < 40, "bound violated {violations} times");
    }

    #[test]
    fn heavy_hitters_find_the_elephant() {
        let mut hh = HeavyHitters::new(3, 512, 4);
        // One elephant, many mice.
        for round in 0..200u64 {
            hh.add(ip(1), 10_000);
            hh.add(ip((round % 200) as u8), 100);
        }
        let top = hh.top();
        assert_eq!(top[0].0, ip(1));
        assert!(top[0].1 >= 2_000_000);
        assert_eq!(hh.total(), 200 * 10_100);
    }

    #[test]
    fn top_is_capped_at_k() {
        let mut hh = HeavyHitters::new(2, 128, 3);
        for i in 0..50u8 {
            hh.add(ip(i), u64::from(i) * 1_000);
        }
        let top = hh.top();
        assert_eq!(top.len(), 2);
        // The heaviest two inserted last dominate.
        assert_eq!(top[0].0, ip(49));
        assert_eq!(top[1].0, ip(48));
    }

    /// Three equal keys then a heavier one: the newcomer evicts the
    /// lightest candidate, and among tied ones always the same, here the
    /// highest address.
    fn fed_a_tie(hh: &mut HeavyHitters) {
        for last in [3, 1, 2] {
            hh.add(ip(last), 100);
        }
        hh.add(ip(4), 150);
    }

    #[test]
    fn ties_evict_the_same_candidate_in_every_tracker() {
        let tops: std::collections::BTreeSet<Vec<(IpAddr, u64)>> = (0..50)
            .map(|_| {
                let mut hh = HeavyHitters::new(2, 1024, 4);
                fed_a_tie(&mut hh);
                hh.top()
            })
            .collect();
        let want = vec![(ip(4), 150), (ip(1), 100)];
        assert_eq!(tops.into_iter().collect::<Vec<_>>(), vec![want]);
    }

    #[test]
    fn a_restored_tracker_evicts_as_the_live_one() {
        for _ in 0..20 {
            let mut live = HeavyHitters::new(2, 1024, 4);
            for last in [3, 1] {
                live.add(ip(last), 100);
            }
            let image = serde::bin::to_vec(&live);
            let mut restored: HeavyHitters = serde::bin::from_slice(&image).unwrap();
            for hh in [&mut live, &mut restored] {
                hh.add(ip(2), 100);
                hh.add(ip(4), 150);
            }
            assert_eq!(live.top(), vec![(ip(4), 150), (ip(1), 100)]);
            assert_eq!(serde::bin::to_vec(&restored), serde::bin::to_vec(&live));
        }
    }

    #[test]
    fn amplification_victim_surfaces_as_heavy_hitter() {
        // The ops use case: during an amplification flood, the victim's
        // inbound byte count dwarfs everyone within a window.
        let mut hh = HeavyHitters::new(5, 1024, 4);
        for i in 0..2_000u64 {
            hh.add(ip((i % 100) as u8), 800); // background
            if i % 2 == 0 {
                hh.add(ip(200), 3_000); // victim flood
            }
        }
        assert_eq!(hh.top()[0].0, ip(200));
    }
}
