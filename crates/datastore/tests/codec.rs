//! The WAL's frame payload is the derive's binary form of one packet batch,
//! `Vec<PacketRecord>`. Property: for batches drawn over the whole value
//! range of every field, `from_slice(to_vec(x))` re-serializes to the same
//! bytes and prints the same `Debug` text as `x` (a batch holds no hash
//! map, so that text is order-stable). A second property damages the
//! bytes: the decoder answers with a value or a typed error, never a panic.
//!
//! Iteration count defaults to a quick smoke and is raised by CI through
//! `CAMPUSLAB_FUZZ_CASES`.

use campuslab_capture::{Direction, PacketRecord, TcpFlags};
use proptest::prelude::*;
use proptest::{proptest, ProptestConfig};
use serde::bin::{from_slice, to_vec};
use std::net::IpAddr;

fn fuzz_cases() -> u32 {
    std::env::var("CAMPUSLAB_FUZZ_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(256)
}

/// A word stream (xorshift*) that builds records field by field, so every
/// field sees its full range — both address families and `u64::MAX`-scale
/// timestamps.
struct Words(u64);

impl Words {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Small values as often as huge ones: varint widths all get exercised.
    fn word(&mut self) -> u64 {
        let w = self.next();
        w >> (self.next() % 64)
    }

    fn flag(&mut self) -> bool {
        self.next() & 1 == 1
    }

    fn ip(&mut self) -> IpAddr {
        if self.flag() {
            IpAddr::from((self.next() as u32).to_be_bytes())
        } else {
            IpAddr::from((u128::from(self.next()) << 64 | u128::from(self.next())).to_be_bytes())
        }
    }

    fn packet(&mut self) -> PacketRecord {
        PacketRecord {
            ts_ns: self.word(),
            direction: if self.flag() { Direction::Inbound } else { Direction::Outbound },
            src: self.ip(),
            dst: self.ip(),
            protocol: self.next() as u8,
            src_port: self.word() as u16,
            dst_port: self.word() as u16,
            wire_len: self.word() as u32,
            ttl: self.next() as u8,
            tcp_flags: TcpFlags {
                syn: self.flag(),
                ack: self.flag(),
                fin: self.flag(),
                rst: self.flag(),
                psh: self.flag(),
            },
            flow_id: self.word(),
            label_app: self.word() as u16,
            label_attack: self.word() as u16,
        }
    }

    /// One batch, `len` records long.
    fn batch(&mut self, len: usize) -> Vec<PacketRecord> {
        (0..len).map(|_| self.packet()).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: fuzz_cases(), ..ProptestConfig::default() })]

    #[test]
    fn packet_batches_round_trip(seed in any::<u64>(), len in 0usize..24) {
        let batch = Words(seed | 1).batch(len);
        let bytes = to_vec(&batch);
        let back: Vec<PacketRecord> = from_slice(&bytes).expect("own encoding decodes");
        prop_assert_eq!(to_vec(&back), bytes);
        prop_assert_eq!(format!("{back:?}"), format!("{batch:?}"));
    }

    /// Damage behind a (notionally re-stamped) checksum: overwrite a byte
    /// or cut the encoding short, then decode. `Ok` must re-encode to
    /// exactly the damaged bytes (nothing was guessed); everything else is
    /// a typed error.
    #[test]
    fn damaged_batches_decode_to_a_value_or_a_typed_error(
        seed in any::<u64>(),
        len in 1usize..12,
        pos in any::<u32>(),
        byte in any::<u8>(),
        cut in any::<bool>(),
    ) {
        let mut bytes = to_vec(&Words(seed | 1).batch(len));
        let at = pos as usize % bytes.len();
        if cut {
            bytes.truncate(at);
            prop_assert!(from_slice::<Vec<PacketRecord>>(&bytes).is_err(), "a strict prefix decoded");
        } else {
            bytes[at] = byte;
            if let Ok(back) = from_slice::<Vec<PacketRecord>>(&bytes) {
                prop_assert_eq!(to_vec(&back), bytes);
            }
        }
    }
}
