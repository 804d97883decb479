//! # campuslab-wire
//!
//! Wire-format parsing and emission for the protocols that cross a campus
//! network's border: Ethernet II, IPv4, IPv6, UDP, TCP, ICMPv4 and DNS.
//!
//! The design follows the smoltcp idiom: every protocol has a plain-old-data
//! `*Repr` struct that can be `parse`d from a byte slice (with full
//! validation, including checksums) and `emit`ted into a byte vector
//! (generating correct checksums). There are no clever type tricks; the goal
//! is simplicity and robustness.
//!
//! `campuslab-netsim` moves owned `Repr` values around for speed, and
//! serializes them through this crate whenever real bytes are needed — for
//! the capture plane or payload inspection.
//!
//! ```
//! use campuslab_wire::{Ipv4Repr, IpProtocol};
//! use std::net::Ipv4Addr;
//!
//! let repr = Ipv4Repr {
//!     src: Ipv4Addr::new(10, 1, 2, 3),
//!     dst: Ipv4Addr::new(192, 0, 2, 1),
//!     protocol: IpProtocol::Udp,
//!     ttl: 64,
//!     payload_len: 8,
//!     dscp: 0,
//!     identification: 0x42,
//!     dont_fragment: true,
//! };
//! let mut buf = Vec::new();
//! repr.emit(&mut buf);
//! buf.extend_from_slice(&[0u8; 8]); // payload
//! let (parsed, payload) = Ipv4Repr::parse(&buf).unwrap();
//! assert_eq!(parsed, repr);
//! assert_eq!(payload.len(), 8);
//! ```

pub mod checksum;
pub mod ethernet;
pub mod ipv4;
pub mod ipv6;
pub mod udp;
pub mod tcp;
pub mod icmp;
pub mod dns;

pub use ethernet::{EtherType, EthernetAddress, EthernetRepr, ETHERNET_HEADER_LEN};
pub use ipv4::{IpProtocol, Ipv4Repr, IPV4_HEADER_LEN};
pub use ipv6::{Ipv6Repr, IPV6_HEADER_LEN};
pub use udp::{UdpRepr, UDP_HEADER_LEN};
pub use tcp::{TcpControl, TcpRepr, TCP_HEADER_LEN};
pub use icmp::{IcmpRepr, IcmpType};
pub use dns::{
    DnsFlags, DnsMessage, DnsOpcode, DnsQuestion, DnsRcode, DnsRecord, DnsRecordData, DnsType,
};

/// Errors that can occur while parsing or emitting a wire format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// The buffer is shorter than the protocol's minimum header.
    Truncated,
    /// A length field disagrees with the amount of data present.
    BadLength,
    /// A checksum did not verify.
    BadChecksum,
    /// A version field holds an unexpected value.
    BadVersion,
    /// A field holds a value this implementation does not support.
    Unsupported,
    /// A DNS name is malformed (bad label length, compression loop, ...).
    BadName,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Error::Truncated => "buffer truncated",
            Error::BadLength => "inconsistent length field",
            Error::BadChecksum => "checksum mismatch",
            Error::BadVersion => "unexpected version",
            Error::Unsupported => "unsupported field value",
            Error::BadName => "malformed DNS name",
        };
        f.write_str(s)
    }
}

impl std::error::Error for Error {}

/// Convenience alias used throughout the wire crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Read a big-endian u16 at `offset`; the caller guarantees bounds.
#[inline]
pub(crate) fn be16(data: &[u8], offset: usize) -> u16 {
    u16::from_be_bytes([data[offset], data[offset + 1]])
}

/// Read a big-endian u32 at `offset`; the caller guarantees bounds.
#[inline]
pub(crate) fn be32(data: &[u8], offset: usize) -> u32 {
    u32::from_be_bytes([
        data[offset],
        data[offset + 1],
        data[offset + 2],
        data[offset + 3],
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_stable() {
        assert_eq!(Error::Truncated.to_string(), "buffer truncated");
        assert_eq!(Error::BadChecksum.to_string(), "checksum mismatch");
        assert_eq!(Error::BadName.to_string(), "malformed DNS name");
    }

    #[test]
    fn be_readers() {
        let data = [0x12, 0x34, 0x56, 0x78];
        assert_eq!(be16(&data, 0), 0x1234);
        assert_eq!(be16(&data, 2), 0x5678);
        assert_eq!(be32(&data, 0), 0x1234_5678);
    }
}
