//! TCP segment headers (RFC 793), with MSS and window-scale options.

/// Length of a TCP header without options.
pub const TCP_HEADER_LEN: usize = 20;

/// The control flags relevant to flow tracking, with constants for the
/// common shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct TcpControl {
    pub syn: bool,
    pub ack: bool,
    pub fin: bool,
    pub rst: bool,
    pub psh: bool,
    pub urg: bool,
}

impl TcpControl {
    /// A bare SYN, as sent by a connecting client.
    pub const SYN: TcpControl = TcpControl {
        syn: true, ack: false, fin: false, rst: false, psh: false, urg: false,
    };
    /// SYN+ACK, as sent by an accepting server.
    pub const SYN_ACK: TcpControl = TcpControl {
        syn: true, ack: true, fin: false, rst: false, psh: false, urg: false,
    };
    /// A plain ACK.
    pub const ACK: TcpControl = TcpControl {
        syn: false, ack: true, fin: false, rst: false, psh: false, urg: false,
    };
    /// FIN+ACK closing a connection.
    pub const FIN_ACK: TcpControl = TcpControl {
        syn: false, ack: true, fin: true, rst: false, psh: false, urg: false,
    };
    /// A reset.
    pub const RST: TcpControl = TcpControl {
        syn: false, ack: false, fin: false, rst: true, psh: false, urg: false,
    };
}

/// A TCP header: the fields flow tracking reads, plus the options that
/// set its length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TcpRepr {
    pub src_port: u16,
    pub dst_port: u16,
    pub seq: u32,
    pub ack: u32,
    pub control: TcpControl,
    /// MSS option, only meaningful on SYN segments.
    pub mss: Option<u16>,
    /// Window-scale option, only meaningful on SYN segments.
    pub window_scale: Option<u8>,
}

impl TcpRepr {
    /// Header length including options, padded to a multiple of four.
    pub fn header_len(&self) -> usize {
        let mut opts = 0usize;
        if self.mss.is_some() {
            opts += 4;
        }
        if self.window_scale.is_some() {
            opts += 3;
        }
        TCP_HEADER_LEN + opts.div_ceil(4) * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_len_is_padded() {
        let syn = TcpRepr {
            src_port: 49152,
            dst_port: 443,
            seq: 0x1000_0000,
            ack: 0,
            control: TcpControl::SYN,
            mss: Some(1460),
            window_scale: Some(7),
        };
        // window_scale alone occupies 3 bytes, padded to 4.
        assert_eq!(TcpRepr { mss: None, ..syn }.header_len(), 24);
        // both options: 7 bytes, padded to 8.
        assert_eq!(syn.header_len(), 28);
        // no options.
        assert_eq!(TcpRepr { mss: None, window_scale: None, ..syn }.header_len(), 20);
    }
}
