//! Range-to-ternary expansion: TCAMs match (value, mask) pairs, so an
//! integer range must be covered by a minimal set of aligned prefix
//! blocks. This expansion is exactly why tree depth is expensive in the
//! data plane (experiment E6).

use serde::{Deserialize, Serialize};

/// One TCAM cell: matches `x` when `x & mask == value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TernaryMatch {
    pub value: u32,
    pub mask: u32,
}

impl TernaryMatch {
    /// The wildcard: matches anything.
    pub const ANY: TernaryMatch = TernaryMatch { value: 0, mask: 0 };

    /// Whether `x` matches this cell.
    pub fn matches(&self, x: u32) -> bool {
        x & self.mask == self.value
    }
}

fn width_mask(width: u32) -> u32 {
    if width >= 32 {
        u32::MAX
    } else {
        (1u32 << width) - 1
    }
}

/// Cover the inclusive range `[lo, hi]` of a `width`-bit field with the
/// minimal set of aligned power-of-two blocks (the standard greedy
/// prefix-expansion; worst case `2*width - 2` entries).
pub fn range_to_ternary(lo: u32, hi: u32, width: u32) -> Vec<TernaryMatch> {
    assert!((1..=32).contains(&width));
    let field_mask = width_mask(width);
    assert!(lo <= hi, "empty range");
    assert!(hi <= field_mask, "range exceeds field width");
    if lo == 0 && hi == field_mask {
        return vec![TernaryMatch { value: 0, mask: 0 }];
    }
    let mut out = Vec::new();
    let mut at = u64::from(lo);
    let hi = u64::from(hi);
    while at <= hi {
        // Largest power-of-two block that starts at `at` (alignment) and
        // stays within the range.
        let align = if at == 0 { 1u64 << width } else { at & at.wrapping_neg() };
        let mut block = align;
        while at + block - 1 > hi {
            block >>= 1;
        }
        let block_bits = block.trailing_zeros();
        let mask = field_mask & !(((1u64 << block_bits) - 1) as u32);
        out.push(TernaryMatch { value: (at as u32) & mask, mask });
        at += block;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn covered(entries: &[TernaryMatch], width: u32) -> Vec<u32> {
        (0..=width_mask(width))
            .filter(|&x| entries.iter().any(|e| e.matches(x)))
            .collect()
    }

    #[test]
    fn full_range_is_one_wildcard() {
        let e = range_to_ternary(0, 255, 8);
        assert_eq!(e, vec![TernaryMatch { value: 0, mask: 0 }]);
    }

    #[test]
    fn exact_value_is_one_entry() {
        let e = range_to_ternary(53, 53, 16);
        assert_eq!(e.len(), 1);
        assert!(e[0].matches(53));
        assert!(!e[0].matches(54));
    }

    #[test]
    fn aligned_block_is_one_entry() {
        let e = range_to_ternary(64, 127, 8);
        assert_eq!(e.len(), 1);
        assert_eq!(covered(&e, 8), (64..=127).collect::<Vec<u32>>());
    }

    #[test]
    fn worst_case_range_expands_but_stays_bounded() {
        // [1, 2^16 - 2] is the classic worst case: 2*16 - 2 = 30 entries.
        let e = range_to_ternary(1, 65_534, 16);
        assert!(e.len() <= 30, "expansion {}", e.len());
        assert!(e.len() >= 16);
    }

    #[test]
    fn exhaustive_correctness_8bit() {
        // Every possible 8-bit range maps to exactly its members.
        for lo in 0..=255u32 {
            for hi in lo..=255u32 {
                let e = range_to_ternary(lo, hi, 8);
                let got = covered(&e, 8);
                let want: Vec<u32> = (lo..=hi).collect();
                assert_eq!(got, want, "range [{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn entries_within_one_expansion_are_disjoint() {
        let e = range_to_ternary(100, 9_999, 16);
        for x in 0..=0xffffu32 {
            let hits = e.iter().filter(|t| t.matches(x)).count();
            assert!(hits <= 1, "value {x} hit {hits} entries");
        }
    }

    #[test]
    fn boolean_fields() {
        assert_eq!(range_to_ternary(0, 0, 1).len(), 1);
        assert_eq!(range_to_ternary(1, 1, 1).len(), 1);
        assert_eq!(range_to_ternary(0, 1, 1), vec![TernaryMatch::ANY]);
    }

    #[test]
    #[should_panic(expected = "range exceeds field width")]
    fn oversized_range_panics() {
        range_to_ternary(0, 300, 8);
    }
}
