//! The WAL's frame payload is the derive's binary form of [`WalRecord`].
//! Property: for batches of every record type, drawn over the whole value
//! range of every field, `from_slice(to_vec(x))` re-serializes to the same
//! bytes *and* the same JSON as `x` — the binary form loses nothing the
//! JSON export can see. A second property damages the bytes: the decoder
//! answers with a value or a typed error, never a panic.
//!
//! Iteration count defaults to a quick smoke and is raised by CI through
//! `CAMPUSLAB_FUZZ_CASES`.

use campuslab_capture::{
    Direction, DnsMetaRecord, FlowKey, FlowRecord, PacketRecord, SensorRecord, TcpFlags,
};
use campuslab_datastore::WalRecord;
use proptest::prelude::*;
use proptest::{proptest, ProptestConfig};
use serde::bin::{from_slice, to_vec};
use std::net::IpAddr;

fn fuzz_cases() -> u32 {
    std::env::var("CAMPUSLAB_FUZZ_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(256)
}

/// A word stream (xorshift*) that builds records field by field, so every
/// field sees its full range — both address families, `u64::MAX`-scale
/// timestamps, empty and multi-byte strings.
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

    fn direction(&mut self) -> Direction {
        if self.flag() {
            Direction::Inbound
        } else {
            Direction::Outbound
        }
    }

    fn text(&mut self) -> String {
        const ALPHABET: [&str; 6] = ["a", "Z", ".", "\"", "é", "\u{1F980}"];
        (0..self.next() % 12).map(|_| ALPHABET[(self.next() % 6) as usize]).collect()
    }

    fn packet(&mut self) -> PacketRecord {
        PacketRecord {
            ts_ns: self.word(),
            direction: self.direction(),
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

    fn flow(&mut self) -> FlowRecord {
        FlowRecord {
            key: FlowKey {
                src: self.ip(),
                dst: self.ip(),
                protocol: self.next() as u8,
                src_port: self.word() as u16,
                dst_port: self.word() as u16,
            },
            first_ts_ns: self.word(),
            last_ts_ns: self.word(),
            fwd_packets: self.word(),
            fwd_bytes: self.word(),
            rev_packets: self.word(),
            rev_bytes: self.word(),
            syn_count: self.word() as u32,
            fin_count: self.word() as u32,
            rst_count: self.word() as u32,
            mean_iat_ns: self.word(),
            min_len: self.word() as u32,
            max_len: self.word() as u32,
            label_app: self.word() as u16,
            label_attack: self.word() as u16,
        }
    }

    fn dns(&mut self) -> DnsMetaRecord {
        DnsMetaRecord {
            ts_ns: self.word(),
            direction: self.direction(),
            client: self.ip(),
            server: self.ip(),
            qname: self.text(),
            qtype: self.word() as u16,
            is_response: self.flag(),
            answer_count: self.word() as u16,
            wire_len: self.word() as u32,
            amplification_prone: self.flag(),
            label_attack: self.word() as u16,
        }
    }

    fn sensor(&mut self) -> SensorRecord {
        match self.next() % 3 {
            0 => SensorRecord::Syslog {
                ts_ns: self.word(),
                host: self.ip(),
                severity: self.next() as u8,
                message: self.text(),
            },
            1 => SensorRecord::Firewall {
                ts_ns: self.word(),
                src: self.ip(),
                dst: self.ip(),
                dst_port: self.word() as u16,
                allowed: self.flag(),
            },
            _ => SensorRecord::ConfigChange {
                ts_ns: self.word(),
                device: self.text(),
                summary: self.text(),
            },
        }
    }

    /// One batch of each table, `len` records long.
    fn batches(&mut self, len: usize) -> [WalRecord; 4] {
        [
            WalRecord::Packets((0..len).map(|_| self.packet()).collect()),
            WalRecord::Flows((0..len).map(|_| self.flow()).collect()),
            WalRecord::Dns((0..len).map(|_| self.dns()).collect()),
            WalRecord::Sensors((0..len).map(|_| self.sensor()).collect()),
        ]
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: fuzz_cases(), ..ProptestConfig::default() })]

    #[test]
    fn record_batches_round_trip_in_both_forms(seed in any::<u64>(), len in 0usize..24) {
        for rec in Words(seed | 1).batches(len) {
            let bytes = to_vec(&rec);
            let back: WalRecord = from_slice(&bytes).expect("own encoding decodes");
            prop_assert_eq!(to_vec(&back), bytes);
            prop_assert_eq!(
                serde_json::to_string(&back).expect("in-memory"),
                serde_json::to_string(&rec).expect("in-memory")
            );
        }
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
        for rec in Words(seed | 1).batches(len) {
            let mut bytes = to_vec(&rec);
            let at = pos as usize % bytes.len();
            if cut {
                bytes.truncate(at);
                prop_assert!(from_slice::<WalRecord>(&bytes).is_err(), "a strict prefix decoded");
            } else {
                bytes[at] = byte;
                if let Ok(back) = from_slice::<WalRecord>(&bytes) {
                    prop_assert_eq!(to_vec(&back), bytes);
                }
            }
        }
    }
}
