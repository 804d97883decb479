//! Prefix-preserving IP address anonymization (Crypto-PAn construction,
//! Xu et al. 2002) over the SPECK PRF.
//!
//! Invariant: for any two addresses that share exactly a k-bit prefix, the
//! anonymized addresses also share exactly a k-bit prefix. Subnet structure
//! — which is what features and routing care about — survives; identities
//! do not.

use crate::speck::Speck64;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// A keyed, deterministic, prefix-preserving address anonymizer.
#[derive(Debug, Clone)]
pub struct PrefixPreservingAnon {
    prf: Speck64,
    /// Domain separator so v4 and v6 use disjoint PRF inputs.
    v6_prf: Speck64,
}

impl PrefixPreservingAnon {
    /// Create from a 128-bit key held by the IT organization.
    pub fn new(key: u128) -> Self {
        PrefixPreservingAnon {
            prf: Speck64::new(key),
            v6_prf: Speck64::new(key ^ 0x6666_6666_6666_6666_6666_6666_6666_6666),
        }
    }

    /// Anonymize an IPv4 address.
    ///
    /// For each bit position i, the output bit is the input bit XOR a PRF
    /// bit computed from the i-bit input prefix — the classic Crypto-PAn
    /// one-time-pad-per-prefix construction.
    pub fn anonymize_v4(&self, addr: Ipv4Addr) -> Ipv4Addr {
        let input = u32::from(addr);
        let mut output = 0u32;
        for i in 0..32u32 {
            // The i-bit prefix, left-aligned, plus the length in the low
            // bits so distinct lengths give distinct PRF inputs.
            let prefix = if i == 0 { 0 } else { input >> (32 - i) } as u64;
            let pad = self.prf.prf_bit((prefix << 6) | u64::from(i));
            let bit = (input >> (31 - i)) & 1;
            output = (output << 1) | (bit ^ u32::from(pad));
        }
        Ipv4Addr::from(output)
    }

    /// Anonymize an IPv6 address (same construction over 128 bits; the PRF
    /// input hashes the prefix into 58 bits, which keeps the invariant
    /// because equal prefixes map to equal PRF inputs).
    pub fn anonymize_v6(&self, addr: Ipv6Addr) -> Ipv6Addr {
        let input = u128::from(addr);
        let mut output = 0u128;
        for i in 0..128u32 {
            let prefix = if i == 0 { 0 } else { input >> (128 - i) };
            // Fold the up-to-128-bit prefix through the PRF to 64 bits
            // first, then mix in the position.
            let folded = self
                .v6_prf
                .prf_u64((prefix as u64) ^ self.v6_prf.prf_u64((prefix >> 64) as u64));
            let pad = self.v6_prf.prf_bit(folded ^ u64::from(i).rotate_left(32));
            let bit = (input >> (127 - i)) & 1;
            output = (output << 1) | (bit ^ u128::from(pad));
        }
        Ipv6Addr::from(output)
    }

    /// Anonymize either address family.
    pub fn anonymize(&self, addr: IpAddr) -> IpAddr {
        match addr {
            IpAddr::V4(a) => IpAddr::V4(self.anonymize_v4(a)),
            IpAddr::V6(a) => IpAddr::V6(self.anonymize_v6(a)),
        }
    }

    /// Deterministic pseudonym for a port number (format-preserving within
    /// u16 space is not required; the mapping just needs to be stable and
    /// keyed). Well-known ports (< 1024) are preserved — they are service
    /// identifiers, not user identifiers.
    pub fn pseudonymize_port(&self, port: u16) -> u16 {
        if port < 1024 {
            port
        } else {
            1024 + (self.prf.prf_u64(0x7070_0000 | u64::from(port)) % (65536 - 1024)) as u16
        }
    }
}

/// The length of the longest common prefix of two IPv4 addresses.
pub fn common_prefix_len_v4(a: Ipv4Addr, b: Ipv4Addr) -> u32 {
    (u32::from(a) ^ u32::from(b)).leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The length of the longest common prefix of two IPv6 addresses.
    fn common_prefix_len_v6(a: Ipv6Addr, b: Ipv6Addr) -> u32 {
        (u128::from(a) ^ u128::from(b)).leading_zeros()
    }

    fn anon() -> PrefixPreservingAnon {
        PrefixPreservingAnon::new(0x0123_4567_89ab_cdef_0f0f_0f0f_0f0f_0f0f)
    }

    #[test]
    fn deterministic() {
        let a = anon();
        let ip = Ipv4Addr::new(10, 1, 3, 77);
        assert_eq!(a.anonymize_v4(ip), a.anonymize_v4(ip));
    }

    #[test]
    fn different_keys_differ() {
        let a = PrefixPreservingAnon::new(1);
        let b = PrefixPreservingAnon::new(2);
        let ip = Ipv4Addr::new(10, 1, 3, 77);
        assert_ne!(a.anonymize_v4(ip), b.anonymize_v4(ip));
    }

    #[test]
    fn addresses_actually_change() {
        let a = anon();
        let mut changed = 0;
        for i in 0..256 {
            let ip = Ipv4Addr::new(10, 1, 1, i as u8);
            if a.anonymize_v4(ip) != ip {
                changed += 1;
            }
        }
        assert!(changed > 250, "only {changed}/256 changed");
    }

    #[test]
    fn prefix_preservation_exact_v4() {
        let a = anon();
        let pairs = [
            (Ipv4Addr::new(10, 1, 2, 3), Ipv4Addr::new(10, 1, 2, 200)),   // /24 shared
            (Ipv4Addr::new(10, 1, 2, 3), Ipv4Addr::new(10, 1, 99, 3)),    // /16 shared
            (Ipv4Addr::new(10, 1, 2, 3), Ipv4Addr::new(192, 168, 0, 1)),  // divergent early
            (Ipv4Addr::new(203, 0, 113, 9), Ipv4Addr::new(203, 0, 113, 10)),
        ];
        for (x, y) in pairs {
            let shared = common_prefix_len_v4(x, y);
            let shared_anon = common_prefix_len_v4(a.anonymize_v4(x), a.anonymize_v4(y));
            assert_eq!(shared, shared_anon, "{x} vs {y}");
        }
    }

    #[test]
    fn prefix_preservation_exhaustive_last_octet() {
        let a = anon();
        let base = Ipv4Addr::new(10, 5, 7, 0);
        let anon_base = a.anonymize_v4(base);
        for i in 1..=255u8 {
            let other = Ipv4Addr::new(10, 5, 7, i);
            assert_eq!(
                common_prefix_len_v4(base, other),
                common_prefix_len_v4(anon_base, a.anonymize_v4(other)),
                "failed at {other}"
            );
        }
    }

    #[test]
    fn injective_over_a_subnet() {
        let a = anon();
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..=255u8 {
            assert!(seen.insert(a.anonymize_v4(Ipv4Addr::new(10, 9, 9, i))));
        }
    }

    #[test]
    fn prefix_preservation_v6() {
        let a = anon();
        let x: Ipv6Addr = "2001:db8:aaaa::1".parse().unwrap();
        let y: Ipv6Addr = "2001:db8:aaaa::ffff".parse().unwrap();
        let z: Ipv6Addr = "2001:db9::1".parse().unwrap();
        assert_eq!(
            common_prefix_len_v6(x, y),
            common_prefix_len_v6(a.anonymize_v6(x), a.anonymize_v6(y))
        );
        assert_eq!(
            common_prefix_len_v6(x, z),
            common_prefix_len_v6(a.anonymize_v6(x), a.anonymize_v6(z))
        );
        assert_ne!(a.anonymize_v6(x), x);
    }

    #[test]
    fn port_pseudonymization_preserves_wellknown() {
        let a = anon();
        assert_eq!(a.pseudonymize_port(53), 53);
        assert_eq!(a.pseudonymize_port(443), 443);
        let p = a.pseudonymize_port(51515);
        assert!(p >= 1024);
        assert_eq!(p, a.pseudonymize_port(51515));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn prefix_invariant_holds_for_random_pairs(x in any::<u32>(), y in any::<u32>(), key in any::<u128>()) {
            let a = PrefixPreservingAnon::new(key);
            let (x, y) = (Ipv4Addr::from(x), Ipv4Addr::from(y));
            prop_assert_eq!(
                common_prefix_len_v4(x, y),
                common_prefix_len_v4(a.anonymize_v4(x), a.anonymize_v4(y))
            );
        }

        #[test]
        fn anonymization_is_injective_on_random_sets(addrs in proptest::collection::btree_set(any::<u32>(), 1..200)) {
            let a = PrefixPreservingAnon::new(0xabcd);
            let out: std::collections::BTreeSet<Ipv4Addr> = addrs
                .iter()
                .map(|&x| a.anonymize_v4(Ipv4Addr::from(x)))
                .collect();
            prop_assert_eq!(out.len(), addrs.len());
        }
    }
}
