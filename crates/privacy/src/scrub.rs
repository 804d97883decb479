//! Record scrubbing: applies the anonymization policy to the record types
//! before they are released beyond the IT organization's enclave.
//!
//! [`PrefixPreservingAnon`] is the pure function a scrubbed record must
//! agree with; [`Scrubber`] puts two tables in front of it so that scrubbing
//! keeps up with capture. Crypto-PAn costs 32 SPECK encryptions per IPv4
//! address, and a capture repeats a small set of addresses (a campus day's
//! 246,636 records hold 133 distinct ones), so a record used to cost 66
//! encryptions for answers already computed.
//!
//! * **Addresses: a direct-mapped memo** of `MEMO_SLOTS` (4,096) lock-free
//!   64-bit slots, 32 KiB allocated once in [`Scrubber::new`]. Direct-mapped
//!   because a lookup is then one multiply, one load and one compare, with
//!   no probing, eviction policy or lock, and a fill is one store. An
//!   address that misses (empty slot, or a slot another address holds)
//!   computes exactly `anonymize_v4` and overwrites the slot, so a miss
//!   costs today's computation plus that one store. Memory is bounded by
//!   construction: however many distinct (possibly spoofed) addresses
//!   arrive, the memo never grows, they only evict each other. IPv6 takes
//!   the unmemoized path.
//! * **Ports: a 65,536-entry pseudonym table** (128 KiB), one entry per
//!   `u16`, filled once in `new` (64,512 encryptions, ≈ 2 ms).
//!
//! Both tables hold the oracle's answers and nothing else, so the output is
//! bit-identical to the unmemoized scrubber for every input.

use crate::cryptopan::PrefixPreservingAnon;
use campuslab_capture::PacketRecord;
use std::net::{IpAddr, Ipv4Addr};
use std::sync::atomic::{AtomicU64, Ordering};

/// What survives scrubbing. There is one policy: IP addresses are
/// prefix-preservingly anonymized and ephemeral ports pseudonymized
/// (well-known ports survive); labels and volume fields stay intact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrubPolicy;

impl ScrubPolicy {
    /// The policy for researchers inside the university: anonymized
    /// identities, labels intact (labels are synthetic anyway).
    pub fn internal_research() -> Self {
        ScrubPolicy
    }
}

/// log2 of the address memo's slot count.
const MEMO_BITS: u32 = 12;
/// Address memo slots: 4,096 × 8 B = 32 KiB, which stays cache-resident.
/// A campus capture has a few hundred distinct addresses at most (133 on
/// the benchmark's day), which 4,096 slots hold with few collisions
/// (≈ n² / 8,192 colliding pairs: ≈ 2 at 133); a collision only costs the
/// unmemoized computation.
const MEMO_SLOTS: usize = 1 << MEMO_BITS;
/// An odd multiplier (2³² / φ), so `addr * MIX` is a bijection on `u32`:
/// its top [`MEMO_BITS`] pick the slot, its other 20 bits are the tag, and
/// slot plus tag identify the address exactly.
const MIX: u32 = 0x9E37_79B9;
/// Set in every filled slot. An empty slot is 0, so it never answers.
const FILLED: u64 = 1 << 32;

/// The slot an IPv4 address maps to, and the word's upper half (tag plus
/// [`FILLED`]) that the slot holds while it caches that address.
fn slot_and_tag(addr: u32) -> (usize, u64) {
    let h = addr.wrapping_mul(MIX);
    let tag = u64::from(h & ((1 << (32 - MEMO_BITS)) - 1));
    ((h >> (32 - MEMO_BITS)) as usize, tag << 33 | FILLED)
}

/// A scrubber bound to a key, applying [`ScrubPolicy`].
pub struct Scrubber {
    anon: PrefixPreservingAnon,
    /// Direct-mapped IPv4 memo: each slot is 0 or `tag << 33 | FILLED |
    /// image`. One atomic word per pair, so a racing reader sees a whole
    /// pair or an empty slot, never half of one (`Relaxed` suffices: a
    /// word carries no other memory with it).
    memo: Box<[AtomicU64]>,
    /// `pseudonymize_port(p)` at index `p`.
    ports: Box<[u16]>,
}

// Experiments scrub from worker threads through a shared `&Scrubber`.
const _: fn() = || {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<Scrubber>();
};

impl Scrubber {
    /// Create a scrubber.
    pub fn new(key: u128, _policy: ScrubPolicy) -> Self {
        let anon = PrefixPreservingAnon::new(key);
        let memo = (0..MEMO_SLOTS).map(|_| AtomicU64::new(0)).collect();
        let ports = (0..=u16::MAX).map(|p| anon.pseudonymize_port(p)).collect();
        Scrubber { anon, memo, ports }
    }

    /// `PrefixPreservingAnon::anonymize_v4`, answered from the memo when
    /// the address's slot holds it.
    fn anonymize_v4(&self, addr: Ipv4Addr) -> Ipv4Addr {
        let (slot, tag) = slot_and_tag(u32::from(addr));
        let word = self.memo[slot].load(Ordering::Relaxed);
        if word & !0xffff_ffff == tag {
            return Ipv4Addr::from(word as u32);
        }
        let image = self.anon.anonymize_v4(addr);
        self.memo[slot].store(tag | u64::from(u32::from(image)), Ordering::Relaxed);
        image
    }

    fn anonymize(&self, addr: IpAddr) -> IpAddr {
        match addr {
            IpAddr::V4(a) => IpAddr::V4(self.anonymize_v4(a)),
            IpAddr::V6(_) => self.anon.anonymize(addr),
        }
    }

    /// Scrub one packet record.
    pub fn scrub_packet(&self, mut rec: PacketRecord) -> PacketRecord {
        rec.src = self.anonymize(rec.src);
        rec.dst = self.anonymize(rec.dst);
        rec.src_port = self.ports[usize::from(rec.src_port)];
        rec.dst_port = self.ports[usize::from(rec.dst_port)];
        rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use campuslab_capture::{Direction, TcpFlags};

    fn packet() -> PacketRecord {
        PacketRecord {
            ts_ns: 1,
            direction: Direction::Inbound,
            src: "203.0.113.7".parse().unwrap(),
            dst: "10.1.1.10".parse().unwrap(),
            protocol: 17,
            src_port: 53,
            dst_port: 49_152,
            wire_len: 100,
            ttl: 64,
            tcp_flags: TcpFlags::default(),
            flow_id: 77,
            label_app: 1,
            label_attack: 1,
        }
    }

    #[test]
    fn internal_policy_recodes_identity_keeps_labels() {
        let s = Scrubber::new(42, ScrubPolicy::internal_research());
        let out = s.scrub_packet(packet());
        assert_ne!(out.src, packet().src);
        assert_ne!(out.dst, packet().dst);
        assert_eq!(out.src_port, 53, "well-known port preserved");
        assert_ne!(out.dst_port, 49_152, "ephemeral port recoded");
        assert_eq!(out.label_attack, 1, "labels preserved for research");
        assert_eq!(out.wire_len, 100, "volume features preserved");
    }

    #[test]
    fn scrubbing_is_deterministic_per_key() {
        let s1 = Scrubber::new(42, ScrubPolicy::internal_research());
        let s2 = Scrubber::new(42, ScrubPolicy::internal_research());
        let s3 = Scrubber::new(43, ScrubPolicy::internal_research());
        assert_eq!(s1.scrub_packet(packet()), s2.scrub_packet(packet()));
        assert_ne!(s1.scrub_packet(packet()).src, s3.scrub_packet(packet()).src);
    }

    /// What scrubbing does to a model's input: the packet feature row
    /// (`fields_from_record`) carries no address, but it carries both
    /// ports, so a record's row changes exactly in its ephemeral
    /// (≥ 1024) `SrcPort`/`DstPort` values. Well-known ports (so
    /// `SrcPortIsDns`), protocol, size, TTL, direction and flags come
    /// through equal. A model trained on scrubbed records therefore sees
    /// other rows than one trained on raw records, which is the cost E4
    /// measures with its second development loop.
    #[test]
    fn scrubbing_changes_a_feature_row_only_in_ephemeral_ports() {
        use campuslab_capture::{fields_from_record, HeaderField, FIELD_ORDER};
        let s = Scrubber::new(42, ScrubPolicy::internal_research());
        let ports = [0, 22, 53, 80, 443, 1023, 1024, 5353, 40_000, 49_152, u16::MAX];
        let mut ephemeral_changes = 0;
        for (i, (&src_port, &dst_port)) in ports.iter().flat_map(|a| ports.iter().map(move |b| (a, b))).enumerate() {
            let i = i as u32;
            let rec = PacketRecord {
                direction: if i.is_multiple_of(2) { Direction::Inbound } else { Direction::Outbound },
                protocol: [6, 17, 1][i as usize % 3],
                src_port,
                dst_port,
                wire_len: 60 + i * 37,
                ttl: (i % 255) as u8,
                tcp_flags: TcpFlags {
                    syn: i.is_multiple_of(2),
                    ack: i.is_multiple_of(3),
                    fin: i.is_multiple_of(5),
                    rst: i.is_multiple_of(7),
                    psh: true,
                },
                ..packet()
            };
            let (raw, scrubbed) = (fields_from_record(&rec), fields_from_record(&s.scrub_packet(rec.clone())));
            for ((field, before), after) in FIELD_ORDER.iter().zip(raw).zip(scrubbed) {
                let ephemeral = match field {
                    HeaderField::SrcPort => src_port >= 1024,
                    HeaderField::DstPort => dst_port >= 1024,
                    _ => false,
                };
                if ephemeral {
                    ephemeral_changes += usize::from(before != after);
                } else {
                    assert_eq!(before, after, "{field:?} of {rec:?}");
                }
            }
        }
        // Five of the eleven ports are ephemeral, so the 11 × 11 records
        // hold 2 × 11 × 5 ephemeral values; the pseudonym moves every one.
        assert_eq!(ephemeral_changes, 2 * 11 * 5);
    }
}

/// The memoized scrubber against its oracle, [`PrefixPreservingAnon`].
/// `CAMPUSLAB_FUZZ_CASES` scales the property (the memo is keyed by
/// untrusted input, so CI soaks it with the decoders).
#[cfg(test)]
mod memo_oracle {
    use super::*;
    use crate::cryptopan::common_prefix_len_v4;
    use campuslab_capture::{Direction, TcpFlags};
    use proptest::prelude::*;
    use proptest::{proptest, ProptestConfig};
    use std::net::Ipv6Addr;
    use std::sync::OnceLock;

    fn fuzz_cases() -> u32 {
        std::env::var("CAMPUSLAB_FUZZ_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(64)
    }

    fn record(src: IpAddr, dst: IpAddr, src_port: u16, dst_port: u16) -> PacketRecord {
        PacketRecord {
            ts_ns: 0,
            direction: Direction::Outbound,
            src,
            dst,
            protocol: 6,
            src_port,
            dst_port,
            wire_len: 60,
            ttl: 64,
            tcp_flags: TcpFlags::default(),
            flow_id: 0,
            label_app: 0,
            label_attack: 0,
        }
    }

    /// Scrub `addr` as a source and as a destination, twice each (a miss,
    /// then whatever the slot holds), and demand the oracle's answer.
    fn agrees(s: &Scrubber, oracle: &PrefixPreservingAnon, addr: IpAddr) -> Result<(), String> {
        let want = oracle.anonymize(addr);
        for _ in 0..2 {
            let out = s.scrub_packet(record(addr, addr, 0, 0));
            if (out.src, out.dst) != (want, want) {
                return Err(format!("{addr}: scrubbed to {} / {}, oracle {want}", out.src, out.dst));
            }
        }
        Ok(())
    }

    /// `MIX⁻¹ mod 2³²` (Newton's iteration doubles the correct low bits).
    fn mix_inverse() -> u32 {
        let mut inv = MIX;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u32.wrapping_sub(MIX.wrapping_mul(inv)));
        }
        assert_eq!(MIX.wrapping_mul(inv), 1);
        inv
    }

    /// The address whose slot is `slot` and whose tag bits are `tag`.
    fn in_slot(slot: u32, tag: u32) -> Ipv4Addr {
        let h = slot << (32 - MEMO_BITS) | tag & ((1 << (32 - MEMO_BITS)) - 1);
        Ipv4Addr::from(h.wrapping_mul(mix_inverse()))
    }

    #[test]
    fn every_port_matches_pseudonymize_port() {
        let s = Scrubber::new(0x5eed, ScrubPolicy::internal_research());
        let oracle = PrefixPreservingAnon::new(0x5eed);
        let any = IpAddr::V4(Ipv4Addr::LOCALHOST);
        for p in 0..=u16::MAX {
            let out = s.scrub_packet(record(any, any, p, u16::MAX - p));
            assert_eq!(out.src_port, oracle.pseudonymize_port(p), "port {p}");
            assert_eq!(out.dst_port, oracle.pseudonymize_port(u16::MAX - p), "port {}", u16::MAX - p);
        }
    }

    /// Without [`FILLED`], an empty (all-zero) slot 0 would read as the
    /// pair `0.0.0.0 -> 0.0.0.0` and answer for `0.0.0.0`, which no key
    /// below maps to itself. The other addresses are the extremes and slot
    /// 0's first tags.
    #[test]
    fn edge_addresses_and_the_empty_slot_alias() {
        assert_eq!(slot_and_tag(0), (0, FILLED), "0.0.0.0 is what an all-zero word would name");
        for key in 0..64u128 {
            let s = Scrubber::new(key, ScrubPolicy::internal_research());
            let oracle = PrefixPreservingAnon::new(key);
            for addr in [Ipv4Addr::UNSPECIFIED, Ipv4Addr::BROADCAST, in_slot(0, 0), in_slot(0, 1)] {
                agrees(&s, &oracle, IpAddr::V4(addr)).unwrap();
            }
        }
    }

    #[test]
    fn more_distinct_addresses_than_slots_keep_the_memo_size() {
        let s = Scrubber::new(0xabcd, ScrubPolicy::internal_research());
        let oracle = PrefixPreservingAnon::new(0xabcd);
        let footprint = (s.memo.len(), std::mem::size_of_val(&*s.memo));
        assert_eq!(footprint, (MEMO_SLOTS, MEMO_SLOTS * 8));
        // Every slot gets two tenants, then the first tenants come back.
        let addrs: Vec<Ipv4Addr> = (0..2 * MEMO_SLOTS as u32)
            .map(|i| in_slot(i % MEMO_SLOTS as u32, 0x5_5555 + i / MEMO_SLOTS as u32))
            .collect();
        for &a in addrs.iter().chain(&addrs[..MEMO_SLOTS]) {
            agrees(&s, &oracle, IpAddr::V4(a)).unwrap();
        }
        assert_eq!((s.memo.len(), std::mem::size_of_val(&*s.memo)), footprint);
        assert!(s.memo.iter().all(|w| w.load(Ordering::Relaxed) & FILLED != 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: fuzz_cases(), ..ProptestConfig::default() })]

        /// One scrubber for every case, so each case also meets the
        /// slots earlier cases filled.
        #[test]
        fn random_addresses_match_the_oracle(
            v4 in proptest::collection::vec(any::<u32>(), 1..48),
            slot in 0u32..MEMO_SLOTS as u32,
            tag in any::<u32>(),
            v6 in proptest::collection::vec(any::<u128>(), 0..3),
        ) {
            static SHARED: OnceLock<(Scrubber, PrefixPreservingAnon)> = OnceLock::new();
            let (s, oracle) = SHARED.get_or_init(|| {
                (Scrubber::new(0xfeed, ScrubPolicy::internal_research()), PrefixPreservingAnon::new(0xfeed))
            });
            // One slot, taken in turn by `tag` and each address whose tag
            // differs from it in one bit: every tag bit must tell them apart.
            let crowded = (0..32 - MEMO_BITS).flat_map(|k| [in_slot(slot, tag), in_slot(slot, tag ^ 1 << k)]);
            for a in v4.iter().map(|&a| Ipv4Addr::from(a)).chain(crowded) {
                prop_assert_eq!(agrees(s, oracle, IpAddr::V4(a)), Ok(()));
            }
            for &a in &v6 {
                prop_assert_eq!(agrees(s, oracle, IpAddr::V6(Ipv6Addr::from(a))), Ok(()));
            }
            // The memo's answers keep the invariant the oracle has.
            let (x, y) = (Ipv4Addr::from(v4[0]), Ipv4Addr::from(v4[v4.len() - 1]));
            let out = s.scrub_packet(record(IpAddr::V4(x), IpAddr::V4(y), 0, 0));
            let (IpAddr::V4(ax), IpAddr::V4(ay)) = (out.src, out.dst) else { unreachable!() };
            prop_assert_eq!(common_prefix_len_v4(x, y), common_prefix_len_v4(ax, ay));
        }
    }
}
