//! Deterministic fuzz harness over the one wire parser that reads
//! attacker-controlled bytes: DNS.
//!
//! The target emits a valid message from drawn fields, applies one
//! structured mutation (pristine pass-through, truncation, bit flip,
//! splice, or pure noise), and asserts two properties:
//!
//! 1. **Never panic**: the parser returns `Ok` or a typed `wire::Error`
//!    on every mutated input.
//! 2. **Round-trip stability**: whatever the parser accepts re-encodes
//!    without error and re-parses to the identical representation — a
//!    hostile buffer can never smuggle a value through parse that the
//!    encoder would corrupt or reject.
//!
//! The iteration count defaults to a quick smoke and is raised by CI via
//! `CAMPUSLAB_FUZZ_CASES` (>= 10_000). The vendored proptest shim keeps
//! the byte streams seeded and deterministic, so a CI failure reproduces
//! locally by case index through proptest-regressions.

use campuslab_wire::*;
use proptest::prelude::*;
use proptest::{proptest, ProptestConfig};
use std::net::Ipv4Addr;

/// Iterations per fuzz target; CI raises this through the environment.
fn fuzz_cases() -> u32 {
    std::env::var("CAMPUSLAB_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(512)
}

/// Apply one structured mutation to a valid emission. Positions are drawn
/// as permille of the buffer length so every case is meaningful for every
/// target regardless of its size.
fn corrupt(
    mut bytes: Vec<u8>,
    mode: u8,
    cut_permille: u16,
    bit: u32,
    at_permille: u16,
    noise: &[u8],
) -> Vec<u8> {
    if bytes.is_empty() {
        return noise.to_vec();
    }
    match mode % 5 {
        // Pristine: the baseline round-trip must of course hold.
        0 => bytes,
        // Truncate to a strict or improper prefix.
        1 => {
            let cut = bytes.len() * usize::from(cut_permille % 1001) / 1000;
            bytes.truncate(cut);
            bytes
        }
        // Flip a single bit.
        2 => {
            let pos = (bit as usize / 8) % bytes.len();
            bytes[pos] ^= 1 << (bit % 8);
            bytes
        }
        // Splice noise over (and possibly past) the tail.
        3 => {
            let at = bytes.len() * usize::from(at_permille % 1000) / 1000;
            for (i, &b) in noise.iter().enumerate() {
                let idx = at + i;
                if idx < bytes.len() {
                    bytes[idx] = b;
                } else {
                    bytes.push(b);
                }
            }
            bytes
        }
        // Replace with pure noise.
        _ => noise.to_vec(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: fuzz_cases(), ..ProptestConfig::default() })]

    #[test]
    fn fuzz_dns(
        id in any::<u16>(),
        labels in proptest::collection::vec("[a-z0-9]{1,12}", 1..4),
        qtype_raw in any::<u16>(),
        addrs in proptest::collection::vec(any::<u32>(), 0..4),
        txt in proptest::collection::vec(any::<u8>(), 0..32),
        mode in any::<u8>(),
        cut in any::<u16>(),
        bit in any::<u32>(),
        at in any::<u16>(),
        noise in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        let name = labels.join(".");
        let q = DnsMessage::query(id, &name, DnsType::from(qtype_raw));
        let mut answers: Vec<DnsRecord> = addrs
            .iter()
            .map(|&a| DnsRecord {
                name: name.clone(),
                ttl: 300,
                data: DnsRecordData::A(Ipv4Addr::from(a)),
            })
            .collect();
        answers.push(DnsRecord {
            name: name.clone(),
            ttl: 60,
            data: DnsRecordData::Txt(txt),
        });
        let msg = q.answer(answers, DnsRcode::NoError);
        let mut buf = Vec::new();
        msg.emit(&mut buf).unwrap();
        let data = corrupt(buf, mode, cut, bit, at, &noise);
        if let Ok(parsed) = DnsMessage::parse(&data) {
            // Anything parse accepts must re-encode cleanly: parse enforces
            // label bytes, label lengths and MAX_NAME_LEN, so emit has no
            // grounds left to refuse.
            let mut out = Vec::new();
            parsed.emit(&mut out).unwrap();
            prop_assert_eq!(DnsMessage::parse(&out).unwrap(), parsed);
        }
    }
}
