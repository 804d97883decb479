//! # campuslab-wire
//!
//! The header summaries a simulated packet carries (UDP, TCP, ICMPv4), the
//! header sizes that set its serialization delay, and the one wire codec
//! the tree uses: DNS.
//!
//! `campuslab-netsim` moves owned header values around; nothing serializes
//! a frame. DNS is different: its messages travel as real payload bytes,
//! which the traffic generator writes in place ([`DnsWriter`]), the
//! resolver `emit`s, and the capture plane reads, with full validation,
//! through a borrowed [`DnsView`] into metadata records.
//!
//! ```
//! use campuslab_wire::{DnsMessage, DnsType, DnsView};
//!
//! let query = DnsMessage::query(0x42, "www.example.edu", DnsType::A);
//! let mut buf = Vec::new();
//! query.emit(&mut buf).unwrap();
//! assert_eq!(buf.len(), query.wire_len());
//! assert_eq!(DnsMessage::parse(&buf).unwrap(), query);
//! let view = DnsView::parse(&buf).unwrap();
//! assert_eq!(view.questions().next().unwrap().name.to_owned(), "www.example.edu");
//! ```

pub mod udp;
pub mod tcp;
pub mod icmp;
pub mod dns;

pub use udp::{UdpRepr, UDP_HEADER_LEN};
pub use tcp::{TcpControl, TcpRepr, TCP_HEADER_LEN};
pub use icmp::{IcmpRepr, IcmpType};
pub use dns::{
    DnsFlags, DnsMessage, DnsName, DnsOpcode, DnsQuestion, DnsQuestionView, DnsRcode, DnsRecord,
    DnsRecordData, DnsRecordView, DnsSection, DnsType, DnsView, DnsWriter,
};

/// Length of an Ethernet II header: destination, source, ethertype.
pub const ETHERNET_HEADER_LEN: usize = 14;

/// Length of an IPv4 header without options.
pub const IPV4_HEADER_LEN: usize = 20;

/// Errors that can occur while parsing or emitting a DNS message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// The buffer is shorter than the message claims.
    Truncated,
    /// A length or count disagrees with the data, or does not fit its
    /// 16-bit field.
    BadLength,
    /// A DNS name is malformed (bad label length, compression loop, ...).
    BadName,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Error::Truncated => "buffer truncated",
            Error::BadLength => "inconsistent length field",
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
        assert_eq!(Error::BadLength.to_string(), "inconsistent length field");
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
