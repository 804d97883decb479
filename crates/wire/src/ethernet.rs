//! Ethernet II framing.

use crate::{be16, Error, Result};

/// Length of an Ethernet II header: destination, source, ethertype.
pub const ETHERNET_HEADER_LEN: usize = 14;

/// A 48-bit IEEE 802 MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, serde::Serialize, serde::Deserialize)]
pub struct EthernetAddress(pub [u8; 6]);

impl EthernetAddress {
    /// Construct from six octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8, e: u8, f: u8) -> Self {
        EthernetAddress([a, b, c, d, e, f])
    }

    /// Build a locally-administered unicast address from a 32-bit host id.
    /// CampusLab uses this to assign deterministic MACs to simulated hosts.
    pub const fn from_host_id(id: u32) -> Self {
        let b = id.to_be_bytes();
        // 0x02 sets the locally-administered bit and keeps unicast.
        EthernetAddress([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }
}

impl std::fmt::Display for EthernetAddress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let o = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            o[0], o[1], o[2], o[3], o[4], o[5]
        )
    }
}

/// The EtherType values CampusLab understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    Ipv4,
    Arp,
    Ipv6,
    /// Anything else, preserved verbatim.
    Other(u16),
}

impl From<u16> for EtherType {
    fn from(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            0x86dd => EtherType::Ipv6,
            other => EtherType::Other(other),
        }
    }
}

impl From<EtherType> for u16 {
    fn from(v: EtherType) -> u16 {
        match v {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Ipv6 => 0x86dd,
            EtherType::Other(other) => other,
        }
    }
}

/// A parsed/parseable Ethernet II header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EthernetRepr {
    pub dst: EthernetAddress,
    pub src: EthernetAddress,
    pub ethertype: EtherType,
}

impl EthernetRepr {
    /// Parse a frame, returning the header and the payload slice.
    pub fn parse(data: &[u8]) -> Result<(EthernetRepr, &[u8])> {
        if data.len() < ETHERNET_HEADER_LEN {
            return Err(Error::Truncated);
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&data[0..6]);
        src.copy_from_slice(&data[6..12]);
        let repr = EthernetRepr {
            dst: EthernetAddress(dst),
            src: EthernetAddress(src),
            ethertype: EtherType::from(be16(data, 12)),
        };
        Ok((repr, &data[ETHERNET_HEADER_LEN..]))
    }

    /// Append the header to `buf`.
    pub fn emit(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.dst.0);
        buf.extend_from_slice(&self.src.0);
        buf.extend_from_slice(&u16::from(self.ethertype).to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EthernetRepr {
        EthernetRepr {
            dst: EthernetAddress::new(0xff, 0xff, 0xff, 0xff, 0xff, 0xff),
            src: EthernetAddress::from_host_id(7),
            ethertype: EtherType::Ipv4,
        }
    }

    #[test]
    fn round_trip() {
        let repr = sample();
        let mut buf = Vec::new();
        repr.emit(&mut buf);
        buf.extend_from_slice(b"payload");
        let (parsed, rest) = EthernetRepr::parse(&buf).unwrap();
        assert_eq!(parsed, repr);
        assert_eq!(rest, b"payload");
    }

    #[test]
    fn truncated_is_rejected() {
        assert_eq!(
            EthernetRepr::parse(&[0u8; 13]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn host_id_addresses_are_distinct_and_stable() {
        assert_ne!(
            EthernetAddress::from_host_id(1),
            EthernetAddress::from_host_id(2)
        );
        assert_eq!(
            EthernetAddress::from_host_id(0x01020304).to_string(),
            "02:00:01:02:03:04"
        );
    }

    #[test]
    fn ethertype_mapping() {
        for ty in [EtherType::Ipv4, EtherType::Arp, EtherType::Ipv6, EtherType::Other(0x1234)] {
            assert_eq!(EtherType::from(u16::from(ty)), ty);
        }
    }
}
