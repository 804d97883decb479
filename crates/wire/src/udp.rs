//! UDP (RFC 768) headers.

/// Length of a UDP header.
pub const UDP_HEADER_LEN: usize = 8;

/// A UDP header: its ports. The length and checksum fields follow from
/// the payload and are never stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct UdpRepr {
    pub src_port: u16,
    pub dst_port: u16,
}
