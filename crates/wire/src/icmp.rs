//! ICMPv4 (RFC 792) echo messages, the ones the campus traffic carries.

/// The ICMPv4 messages CampusLab generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum IcmpType {
    EchoReply,
    EchoRequest,
}

/// An ICMPv4 echo message.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct IcmpRepr {
    pub icmp_type: IcmpType,
    /// The "rest of header" word: identifier (high half) and sequence
    /// number (low half).
    pub rest_of_header: u32,
    /// Message body following the 8-byte ICMP header.
    pub payload: Vec<u8>,
}

impl IcmpRepr {
    /// Build an echo request with identifier and sequence number.
    pub fn echo_request(ident: u16, seq: u16, payload: &[u8]) -> Self {
        IcmpRepr {
            icmp_type: IcmpType::EchoRequest,
            rest_of_header: (u32::from(ident) << 16) | u32::from(seq),
            payload: payload.to_vec(),
        }
    }

    /// Build the matching echo reply.
    pub fn echo_reply(ident: u16, seq: u16, payload: &[u8]) -> Self {
        IcmpRepr {
            icmp_type: IcmpType::EchoReply,
            rest_of_header: (u32::from(ident) << 16) | u32::from(seq),
            payload: payload.to_vec(),
        }
    }

    /// On-wire length.
    pub fn total_len(&self) -> usize {
        8 + self.payload.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_matches_request_fields() {
        let request = IcmpRepr::echo_request(9, 1, b"abc");
        let reply = IcmpRepr::echo_reply(9, 1, b"abc");
        assert_eq!(request.icmp_type, IcmpType::EchoRequest);
        assert_eq!(reply.icmp_type, IcmpType::EchoReply);
        assert_eq!(reply.rest_of_header, request.rest_of_header);
        assert_eq!(reply.rest_of_header, (9 << 16) | 1);
        assert_eq!(reply.total_len(), 11);
    }
}
