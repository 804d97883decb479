//! The durable frame: the one on-disk codec under PHNX checkpoints, WAL
//! segments and the WAL `MANIFEST` (DESIGN.md §15).
//!
//! ```text
//! frame     len u64 LE | crc32 u32 LE | payload     payload = serde::bin of one value
//! envelope  magic [u8; 4] | version u32 LE | frame  and nothing after it
//! ```
//!
//! A segment is frames back to back ([`scan_frames`]); an image and a
//! manifest are one envelope each. The CRC covers the payload only. The
//! payload is serialized in place behind a reserved header, which is then
//! patched, so a value is never copied. Decoding is total: a value or a
//! typed [`FrameError`], never a panic, and a length field is checked
//! against the bytes present before anything is read for it.

use crate::crc32;
use serde::{Deserialize, Serialize};

/// Bytes in front of a frame's payload: its length, then its checksum.
pub const FRAME_HEADER: usize = 8 + 4;
/// Bytes in front of an envelope's payload: magic, version, frame header.
const ENVELOPE_HEADER: usize = 4 + 4 + FRAME_HEADER;

/// Why bytes are not a whole, honest frame or envelope. `expected` and
/// `got` count bytes from the start of the input handed to the decoder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than a header, or than a length promises: a torn write.
    Truncated { expected: u64, got: u64 },
    /// More bytes than a length accounts for, such as bytes after an
    /// envelope's frame.
    TrailingBytes { expected: u64, got: u64 },
    /// Another magic: not this kind of file.
    BadMagic { found: [u8; 4] },
    /// A format version this build does not speak; refused, not guessed at.
    VersionSkew { found: u32, supported: u32 },
    /// The payload does not hash to the header's checksum: torn or flipped.
    Checksum { expected: u32, found: u32 },
    /// The checksum held but the payload is no value of the expected type:
    /// an encoder bug, not storage damage.
    Payload(serde::bin::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { expected, got } => write!(f, "truncated: expected {expected} bytes, got {got}"),
            FrameError::TrailingBytes { expected, got } => write!(f, "trailing bytes: expected {expected} bytes, got {got}"),
            FrameError::BadMagic { found } => write!(f, "bad magic {found:02x?}"),
            FrameError::VersionSkew { found, supported } => {
                write!(f, "format version {found} (this build supports {supported})")
            }
            FrameError::Checksum { expected, found } => {
                write!(f, "checksum mismatch: header {expected:08x}, payload {found:08x}")
            }
            FrameError::Payload(e) => write!(f, "payload undecodable: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Append the frame carrying `value` to `out`.
pub fn write_frame<T: Serialize + ?Sized>(out: &mut Vec<u8>, value: &T) {
    let start = out.len();
    out.resize(start + FRAME_HEADER, 0);
    value.serialize_bin(out);
    let (header, payload) = out[start..].split_at_mut(FRAME_HEADER);
    header[..8].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    header[8..].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// The envelope `magic | version | frame(value)`.
pub fn encode_envelope<T: Serialize + ?Sized>(magic: [u8; 4], version: u32, value: &T) -> Vec<u8> {
    let mut out = [magic, version.to_le_bytes()].concat();
    write_frame(&mut out, value);
    out
}

/// The payload and stored checksum of the frame at `bytes[at..]`, once
/// its header is present and its length fits in `bytes`.
fn frame_at(bytes: &[u8], at: usize) -> Result<(&[u8], u32), FrameError> {
    let (body, got) = (at + FRAME_HEADER, bytes.len() as u64);
    let Some(header) = bytes.get(at..body) else {
        return Err(FrameError::Truncated { expected: body as u64, got });
    };
    let len = u64::from_le_bytes(header[..8].try_into().expect("8 bytes"));
    let end = (body as u64).saturating_add(len);
    if end > got {
        return Err(FrameError::Truncated { expected: end, got });
    }
    Ok((&bytes[body..end as usize], u32::from_le_bytes(header[8..].try_into().expect("4 bytes"))))
}

/// Check `payload` against its stored checksum, then decode it.
fn open<T: Deserialize>(payload: &[u8], crc: u32) -> Result<T, FrameError> {
    let found = crc32(payload);
    if found != crc {
        return Err(FrameError::Checksum { expected: crc, found });
    }
    serde::bin::from_slice(payload).map_err(FrameError::Payload)
}

/// Decode the frames laid back to back in `bytes`: the values of the
/// longest run of good frames at its head, that run's length in bytes, and
/// why the frame after it is bad (`None` when every byte was consumed).
pub fn scan_frames<T: Deserialize>(bytes: &[u8]) -> (Vec<T>, u64, Option<FrameError>) {
    let mut values = Vec::new();
    let mut off = 0;
    while off < bytes.len() {
        match frame_at(bytes, off).and_then(|(payload, crc)| open(payload, crc).map(|value| (value, payload.len()))) {
            Ok((value, len)) => {
                values.push(value);
                off += FRAME_HEADER + len;
            }
            Err(why) => return (values, off as u64, Some(why)),
        }
    }
    (values, off as u64, None)
}

/// Decode an envelope written by [`encode_envelope`] with this `magic`
/// and `version`. Checks, in order: magic and version, the frame's length
/// against the input (shorter is `Truncated`, longer `TrailingBytes`),
/// checksum, then the payload.
pub fn decode_envelope<T: Deserialize>(bytes: &[u8], magic: [u8; 4], version: u32) -> Result<T, FrameError> {
    let got = bytes.len() as u64;
    let Some(&[m0, m1, m2, m3, v0, v1, v2, v3]) = bytes.first_chunk::<8>() else {
        return Err(FrameError::Truncated { expected: ENVELOPE_HEADER as u64, got });
    };
    if [m0, m1, m2, m3] != magic {
        return Err(FrameError::BadMagic { found: [m0, m1, m2, m3] });
    }
    let found = u32::from_le_bytes([v0, v1, v2, v3]);
    if found != version {
        return Err(FrameError::VersionSkew { found, supported: version });
    }
    let (payload, crc) = frame_at(bytes, 8)?;
    let expected = (ENVELOPE_HEADER + payload.len()) as u64;
    if got > expected {
        return Err(FrameError::TrailingBytes { expected, got });
    }
    open(payload, crc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::bin::ErrorKind;

    const MAGIC: [u8; 4] = *b"TEST";
    const VERSION: u32 = 3;

    /// A value with nested length prefixes, so a damaged payload can
    /// misread as a count, a string or a tag.
    type Doc = Vec<(u64, String, Vec<u32>, Option<i64>)>;

    fn doc(n: u64) -> Doc {
        (0..n)
            .map(|i| (i << (i % 50), format!("row-{i}"), (0..i as u32).collect(), (i % 3 == 0).then_some(-(i as i64))))
            .collect()
    }

    fn fuzz_cases() -> u64 {
        std::env::var("CAMPUSLAB_FUZZ_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(256)
    }

    /// xorshift64*: a deterministic stream for the fuzz arms.
    fn next(x: &mut u64) -> u64 {
        *x ^= *x >> 12;
        *x ^= *x << 25;
        *x ^= *x >> 27;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// The envelope a writer that checksummed `payload` honestly would
    /// leave: the checksum cannot tell this damage from a good payload.
    fn restamp(payload: &[u8]) -> Vec<u8> {
        let mut image = MAGIC.to_vec();
        image.extend_from_slice(&VERSION.to_le_bytes());
        image.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        image.extend_from_slice(&crc32(payload).to_le_bytes());
        image.extend_from_slice(payload);
        image
    }

    fn frame(value: &Doc) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, value);
        out
    }

    fn decode(bytes: &[u8]) -> Result<Doc, FrameError> {
        decode_envelope(bytes, MAGIC, VERSION)
    }

    #[test]
    fn envelope_layout_and_round_trip() {
        let value = doc(40);
        let payload = serde::bin::to_vec(&value);
        let image = encode_envelope(MAGIC, VERSION, &value);
        assert_eq!(image, restamp(&payload), "magic | version | len u64 | crc32 | payload");
        assert_eq!(image.len(), ENVELOPE_HEADER + payload.len());
        assert_eq!(serde::bin::to_vec(&decode(&image).unwrap()), payload);
        assert_eq!(frame(&value), image[8..], "an envelope's tail is the value's frame");
    }

    #[test]
    fn frames_scan_back_to_back_and_stop_at_the_first_bad_one() {
        let docs: Vec<Doc> = (0..5).map(doc).collect();
        let stream: Vec<u8> = docs.iter().flat_map(frame).collect();
        let (back, good, bad) = scan_frames::<Doc>(&stream);
        assert_eq!((back, good, bad), (docs.clone(), stream.len() as u64, None));

        let first = frame(&docs[0]).len();
        let second = frame(&docs[1]).len();
        let mut torn = stream.clone();
        torn.truncate(first + second - 1);
        let (back, good, bad) = scan_frames::<Doc>(&torn);
        assert_eq!((back.len(), good), (1, first as u64));
        let (expected, got) = ((first + second) as u64, torn.len() as u64);
        assert_eq!(bad, Some(FrameError::Truncated { expected, got }), "counted from the stream's start");

        let mut flipped = stream.clone();
        flipped[first + FRAME_HEADER] ^= 1;
        let (back, good, bad) = scan_frames::<Doc>(&flipped);
        assert_eq!((back.len(), good), (1, first as u64));
        assert!(matches!(bad, Some(FrameError::Checksum { .. })));
    }

    #[test]
    fn each_refusal_is_its_own_variant() {
        let image = encode_envelope(MAGIC, VERSION, &doc(12));
        let got = |bytes: &[u8]| bytes.len() as u64;

        assert_eq!(decode(&[]), Err(FrameError::Truncated { expected: ENVELOPE_HEADER as u64, got: 0 }));
        let short = &image[..ENVELOPE_HEADER - 1];
        assert_eq!(decode(short), Err(FrameError::Truncated { expected: ENVELOPE_HEADER as u64, got: got(short) }));
        let half = &image[..image.len() / 2];
        assert_eq!(decode(half), Err(FrameError::Truncated { expected: got(&image), got: got(half) }));

        let mut padded = image.clone();
        padded.push(0);
        assert_eq!(decode(&padded), Err(FrameError::TrailingBytes { expected: got(&image), got: got(&padded) }));

        let mut magic = image.clone();
        magic[0] = b'Q';
        assert_eq!(decode(&magic), Err(FrameError::BadMagic { found: *b"QEST" }));
        // Magic and version are read as soon as their eight bytes are there.
        assert_eq!(decode(&magic[..8]), Err(FrameError::BadMagic { found: *b"QEST" }));

        for found in [0, VERSION - 1, VERSION + 1, u32::MAX] {
            let mut skew = image.clone();
            skew[4..8].copy_from_slice(&found.to_le_bytes());
            assert_eq!(decode(&skew), Err(FrameError::VersionSkew { found, supported: VERSION }));
        }

        let mut flipped = image.clone();
        *flipped.last_mut().unwrap() ^= 0x80;
        let (expected, found) = (crc32(&image[ENVELOPE_HEADER..]), crc32(&flipped[ENVELOPE_HEADER..]));
        assert_eq!(decode(&flipped), Err(FrameError::Checksum { expected, found }));

        let not_a_doc = restamp(&[0xff]);
        assert!(matches!(decode(&not_a_doc), Err(FrameError::Payload(e)) if e.kind == ErrorKind::UnexpectedEof));
    }

    /// Never-panic fuzz over the shared decoders, `CAMPUSLAB_FUZZ_CASES`
    /// scaled: every prefix of an envelope and of a frame stream,
    /// single-bit flips, payloads damaged behind a re-stamped checksum,
    /// trailing bytes, wrong magic, version skew and forged 2^60 lengths.
    #[test]
    fn decoders_never_panic_on_damaged_input() {
        let cases = fuzz_cases();
        let image = encode_envelope(MAGIC, VERSION, &doc(24));
        let stream: Vec<u8> = (0..4).flat_map(|n| frame(&doc(n * 7))).collect();

        // Torn writes: every prefix is refused; a stream keeps whole frames.
        for cut in 0..image.len() {
            assert!(matches!(decode(&image[..cut]), Err(FrameError::Truncated { .. })), "prefix {cut}");
        }
        for cut in 0..=stream.len() {
            let (back, good, bad) = scan_frames::<Doc>(&stream[..cut]);
            assert!(good <= cut as u64 && back.len() <= 4);
            assert_eq!(bad.is_none(), good == cut as u64, "cut {cut}");
        }

        // One flipped bit anywhere in an envelope is refused: the magic,
        // version, length or checksum check catches it before the payload
        // is decoded. In a stream the good prefix ends at or before the
        // flipped frame.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..cases {
            let r = next(&mut x);
            let bit = (r >> 48) as u8 & 7;
            let mut flipped = image.clone();
            flipped[r as usize % image.len()] ^= 1 << bit;
            assert!(decode(&flipped).is_err(), "a single-bit flip decoded clean");
            let pos = r as usize % stream.len();
            let mut flipped = stream.clone();
            flipped[pos] ^= 1 << bit;
            let (_, good, bad) = scan_frames::<Doc>(&flipped);
            assert!(bad.is_some() && good <= pos as u64, "flip at {pos} survived to {good}");
        }

        // Re-stamped checksum: overwrite, insert or cut payload bytes and
        // patch the header to match. The payload decoder itself must hold:
        // a value or `Payload`, never a panic, never another variant.
        let payload = &image[ENVELOPE_HEADER..];
        for _ in 0..cases {
            let r = next(&mut x);
            let pos = r as usize % payload.len();
            let mut damaged = payload.to_vec();
            match r >> 62 {
                0 => damaged[pos] = (r >> 40) as u8,
                1 => damaged.insert(pos, (r >> 40) as u8),
                _ => damaged.truncate(pos),
            }
            match decode(&restamp(&damaged)) {
                Ok(_) | Err(FrameError::Payload(_)) => {}
                Err(other) => panic!("re-stamped payload refused as {other:?}"),
            }
            let mut frame = restamp(&damaged)[8..].to_vec();
            frame.extend_from_slice(&stream);
            let (back, good, bad) = scan_frames::<Doc>(&frame);
            assert!(bad.is_none() && back.len() == 5 || good == 0 && matches!(bad, Some(FrameError::Payload(_))));
        }

        // Trailing bytes, wrong magic and version skew, at every length.
        for extra in 1..=cases.min(64) as usize {
            let mut padded = image.clone();
            padded.resize(image.len() + extra, extra as u8);
            assert!(matches!(decode(&padded), Err(FrameError::TrailingBytes { .. })));
        }
        for r in (0..cases).map(|_| next(&mut x)) {
            let mut other = image.clone();
            other[..8].copy_from_slice(&r.to_le_bytes());
            let refused = decode(&other).unwrap_err();
            if other[..4] != MAGIC {
                assert!(matches!(refused, FrameError::BadMagic { .. }));
            } else if other[4..8] != VERSION.to_le_bytes() {
                assert!(matches!(refused, FrameError::VersionSkew { .. }));
            }
        }

        // A forged 2^60 length field is a torn frame, decided from the
        // header alone; a forged 2^60 element count behind an honest
        // checksum is refused by the payload decoder before it reserves.
        let mut forged = image.clone();
        forged[8..16].copy_from_slice(&(1u64 << 60).to_le_bytes());
        let expected = ENVELOPE_HEADER as u64 + (1 << 60);
        assert_eq!(decode(&forged), Err(FrameError::Truncated { expected, got: image.len() as u64 }));
        assert_eq!(scan_frames::<Doc>(&forged[8..]).2, Some(FrameError::Truncated { expected: expected - 8, got: image.len() as u64 - 8 }));
        forged[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(decode(&forged), Err(FrameError::Truncated { expected: u64::MAX, .. })));
        let mut count = Vec::new();
        serde::bin::write_varint(&mut count, 1 << 60);
        match decode(&restamp(&count)) {
            Err(FrameError::Payload(e)) => assert!(matches!(e.kind, ErrorKind::LengthOverrun { .. }), "{e}"),
            other => panic!("forged count accepted: {other:?}"),
        }

        // Byte soup of assorted lengths, some behind this magic and version.
        for i in 0..cases {
            let r = next(&mut x);
            let len = (r % 96) as usize;
            let mut soup: Vec<u8> = (0..len).map(|j| (r.rotate_left(j as u32 % 63) >> 13) as u8).collect();
            if i % 2 == 0 && len >= 8 {
                soup[..8].copy_from_slice(&image[..8]);
            }
            let _ = decode(&soup);
            let _ = scan_frames::<Doc>(&soup);
        }
    }
}
