//! Streaming sketches for on-the-fly telemetry: a count-min sketch with a
//! top-k heavy-hitter tracker — the constant-memory way a monitoring
//! appliance (or a programmable switch) answers "who is moving the bytes
//! right now?" without storing per-host state.

use std::collections::HashMap;
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

    /// Add `weight` to `key`.
    pub fn add<K: Hash>(&mut self, key: &K, weight: u64) {
        for row in 0..self.depth {
            let i = self.index(key, row);
            self.rows[row][i] += weight;
        }
        self.total += weight;
    }

    /// Point estimate for `key` (never underestimates).
    pub fn estimate<K: Hash>(&self, key: &K) -> u64 {
        (0..self.depth)
            .map(|row| self.rows[row][self.index(key, row)])
            .min()
            .unwrap_or(0)
    }

    /// Worst-case overestimate bound at this fill level.
    pub fn error_bound(&self) -> f64 {
        std::f64::consts::E * self.total as f64 / self.width as f64
    }
}

/// Tracks the `k` heaviest keys exactly, fed by sketch estimates — the
/// classic sketch + heap heavy-hitter construction.
#[derive(Debug, Clone)]
pub struct HeavyHitters {
    sketch: CountMinSketch,
    k: usize,
    /// Current candidates: key -> estimated weight.
    top: HashMap<IpAddr, u64>,
}

impl HeavyHitters {
    /// Track the top `k` addresses with a `width x depth` sketch.
    pub fn new(k: usize, width: usize, depth: usize) -> Self {
        assert!(k > 0);
        HeavyHitters { sketch: CountMinSketch::new(width, depth), k, top: HashMap::new() }
    }

    /// Account `weight` bytes to `addr`.
    pub fn add(&mut self, addr: IpAddr, weight: u64) {
        self.sketch.add(&addr, weight);
        let est = self.sketch.estimate(&addr);
        if self.top.len() < self.k || self.top.contains_key(&addr) {
            self.top.insert(addr, est);
            return;
        }
        // Replace the lightest candidate if this key now outweighs it.
        if let Some((&lightest, &w)) = self.top.iter().min_by_key(|(_, &w)| w) {
            if est > w {
                self.top.remove(&lightest);
                self.top.insert(addr, est);
            }
        }
        // Trim (k can shrink only through construction, but keep safe).
        while self.top.len() > self.k {
            if let Some((&lightest, _)) = self.top.iter().min_by_key(|(_, &w)| w) {
                self.top.remove(&lightest);
            }
        }
    }

    /// The current top talkers, heaviest first.
    pub fn top(&self) -> Vec<(IpAddr, u64)> {
        let mut v: Vec<(IpAddr, u64)> = self.top.iter().map(|(&a, &w)| (a, w)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Total bytes observed.
    pub fn total(&self) -> u64 {
        self.sketch.total
    }

    /// Freeze the tracker for a checkpoint: the candidate map flattens to
    /// its deterministic heaviest-first order.
    pub fn freeze(&self) -> FrozenHeavyHitters {
        FrozenHeavyHitters { sketch: self.sketch.clone(), k: self.k, top: self.top() }
    }

    /// Rebuild a tracker from a frozen image.
    pub fn thaw(frozen: FrozenHeavyHitters) -> Self {
        HeavyHitters {
            sketch: frozen.sketch,
            k: frozen.k,
            top: frozen.top.into_iter().collect(),
        }
    }
}

// Hand-rolled through the freeze/thaw pair (the image lists candidates
// heaviest first, which is no map's order), so a layer holding live
// trackers can derive its own state.
impl serde::Serialize for HeavyHitters {
    fn serialize_json(&self, out: &mut String) {
        self.freeze().serialize_json(out);
    }
    fn serialize_bin(&self, out: &mut Vec<u8>) {
        self.freeze().serialize_bin(out);
    }
}

impl serde::Deserialize for HeavyHitters {
    fn deserialize_bin(r: &mut serde::bin::Reader<'_>) -> Result<Self, serde::bin::Error> {
        FrozenHeavyHitters::deserialize_bin(r).map(HeavyHitters::thaw)
    }
}

/// A [`HeavyHitters`]'s checkpointable image.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FrozenHeavyHitters {
    pub sketch: CountMinSketch,
    pub k: usize,
    /// Candidates, heaviest first (ties by address) — the same order
    /// [`HeavyHitters::top`] reports.
    pub top: Vec<(IpAddr, u64)>,
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
        let mut truth: HashMap<u32, u64> = HashMap::new();
        for i in 0..5_000u32 {
            let key = i % 300;
            let w = u64::from(key % 7 + 1);
            s.add(&key, w);
            *truth.entry(key).or_insert(0) += w;
        }
        for (key, &count) in &truth {
            assert!(s.estimate(key) >= count, "underestimate for {key}");
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
            let err = s.estimate(&key).saturating_sub(20);
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
