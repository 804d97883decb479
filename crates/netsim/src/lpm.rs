//! Longest-prefix-match routing tables.

use std::net::{IpAddr, Ipv4Addr};

/// A CIDR prefix. Only IPv4 prefixes are built, so no IPv6 address
/// falls inside one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Prefix {
    /// Network address with host bits cleared.
    pub addr: IpAddr,
    /// Prefix length in bits.
    pub len: u8,
}

impl Prefix {
    /// An IPv4 prefix; host bits are masked off.
    pub fn v4(addr: Ipv4Addr, len: u8) -> Self {
        assert!(len <= 32, "IPv4 prefix length out of range");
        let masked = if len == 0 {
            0
        } else {
            u32::from(addr) & (u32::MAX << (32 - len))
        };
        Prefix { addr: IpAddr::V4(Ipv4Addr::from(masked)), len }
    }

    /// The default (match-everything) IPv4 route.
    pub fn v4_default() -> Self {
        Prefix::v4(Ipv4Addr::UNSPECIFIED, 0)
    }

    /// True when `ip` falls inside this prefix.
    pub fn contains(&self, ip: IpAddr) -> bool {
        match (self.addr, ip) {
            (IpAddr::V4(net), IpAddr::V4(ip)) => {
                if self.len == 0 {
                    return true;
                }
                let mask = u32::MAX << (32 - self.len);
                (u32::from(ip) & mask) == u32::from(net)
            }
            _ => false,
        }
    }
}

impl std::fmt::Display for Prefix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

/// A longest-prefix-match table mapping prefixes to values.
///
/// Lookups scan entries sorted by descending prefix length, which is simple,
/// correct, and plenty fast for campus-scale tables (tens of routes). The
/// data-plane crate has its own TCAM model; this table is the control-plane
/// view.
#[derive(Debug, Clone, Default)]
pub struct LpmTable<V> {
    // Sorted by descending prefix length so the first hit is the longest.
    entries: Vec<(Prefix, V)>,
}

impl<V: Clone> LpmTable<V> {
    /// An empty table.
    pub fn new() -> Self {
        LpmTable { entries: Vec::new() }
    }

    /// Insert a route. Re-inserting the same prefix replaces its value.
    pub fn insert(&mut self, prefix: Prefix, value: V) {
        if let Some(slot) = self.entries.iter_mut().find(|(p, _)| *p == prefix) {
            slot.1 = value;
            return;
        }
        let pos = self
            .entries
            .partition_point(|(p, _)| p.len >= prefix.len);
        self.entries.insert(pos, (prefix, value));
    }

    /// Longest-prefix lookup.
    pub fn lookup(&self, ip: IpAddr) -> Option<&V> {
        self.entries
            .iter()
            .find(|(p, _)| p.contains(ip))
            .map(|(_, v)| v)
    }

    /// Number of routes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the table has no routes.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over `(prefix, value)` entries, longest first.
    pub fn iter(&self) -> impl Iterator<Item = &(Prefix, V)> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_host_bits() {
        let p = Prefix::v4(Ipv4Addr::new(10, 1, 2, 3), 16);
        assert_eq!(p.addr, IpAddr::V4(Ipv4Addr::new(10, 1, 0, 0)));
        assert_eq!(p.to_string(), "10.1.0.0/16");
    }

    #[test]
    fn contains_respects_length() {
        let p = Prefix::v4(Ipv4Addr::new(10, 1, 0, 0), 16);
        assert!(p.contains("10.1.200.4".parse().unwrap()));
        assert!(!p.contains("10.2.0.1".parse().unwrap()));
        assert!(!p.contains("2001:db8::1".parse().unwrap()));
    }

    #[test]
    fn default_route_matches_everything_v4() {
        let p = Prefix::v4_default();
        assert!(p.contains("255.255.255.255".parse().unwrap()));
        assert!(p.contains("0.0.0.0".parse().unwrap()));
    }

    #[test]
    fn longest_prefix_wins() {
        let mut t = LpmTable::new();
        t.insert(Prefix::v4_default(), "upstream");
        t.insert(Prefix::v4(Ipv4Addr::new(10, 0, 0, 0), 8), "campus");
        t.insert(Prefix::v4(Ipv4Addr::new(10, 5, 0, 0), 16), "cs-dept");
        t.insert(Prefix::v4(Ipv4Addr::new(10, 5, 1, 0), 24), "cs-lab");
        assert_eq!(t.lookup("10.5.1.77".parse().unwrap()), Some(&"cs-lab"));
        assert_eq!(t.lookup("10.5.9.1".parse().unwrap()), Some(&"cs-dept"));
        assert_eq!(t.lookup("10.200.0.1".parse().unwrap()), Some(&"campus"));
        assert_eq!(t.lookup("8.8.8.8".parse().unwrap()), Some(&"upstream"));
    }

    #[test]
    fn reinsert_replaces() {
        let mut t = LpmTable::new();
        let p = Prefix::v4(Ipv4Addr::new(10, 0, 0, 0), 8);
        t.insert(p, 1);
        t.insert(p, 2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup("10.0.0.1".parse().unwrap()), Some(&2));
    }

    #[test]
    fn empty_table_misses() {
        let t: LpmTable<u8> = LpmTable::new();
        assert!(t.is_empty());
        assert_eq!(t.lookup("10.0.0.1".parse().unwrap()), None);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn lookup_agrees_with_bruteforce(
            routes in proptest::collection::vec((any::<u32>(), 0u8..=32), 1..40),
            probe in any::<u32>(),
        ) {
            let mut t = LpmTable::new();
            let mut list = Vec::new();
            for (i, &(addr, len)) in routes.iter().enumerate() {
                let p = Prefix::v4(Ipv4Addr::from(addr), len);
                t.insert(p, i);
                list.retain(|&(q, _): &(Prefix, usize)| q != p);
                list.push((p, i));
            }
            let ip = IpAddr::V4(Ipv4Addr::from(probe));
            let expected = list
                .iter()
                .filter(|(p, _)| p.contains(ip))
                .max_by_key(|(p, _)| p.len)
                .map(|&(_, v)| v);
            // When multiple same-length prefixes match they are identical
            // after masking, so insert-order/replace semantics agree.
            prop_assert_eq!(t.lookup(ip).copied(), expected);
        }
    }
}
