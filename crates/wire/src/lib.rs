#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # scap-wire
//!
//! Typed, zero-copy wire-format views and packet builders for the Scap
//! reproduction.
//!
//! The design follows the smoltcp idiom: a *view* type (e.g. [`Ipv4Packet`])
//! wraps a byte slice and exposes checked, typed accessors for every header
//! field. Views never allocate; parsing is a bounds/shape check performed by
//! `new_checked`, after which field accessors are infallible. Builders
//! ([`builder`]) construct well-formed packets for the synthetic traffic
//! generator and the test suites.
//!
//! The crate also provides the TCP sequence-number arithmetic ([`seq`])
//! and the canonical bidirectional flow key ([`FlowKey`]) that the flow
//! table, NIC RSS/FDIR emulation and reassembly engine all share, and the
//! cheap hasher for the integer keys the capture assigns itself
//! ([`int_hash`]).

pub mod builder;
pub mod checksum;
pub mod ethernet;
pub mod flow_key;
pub mod icmp;
pub mod int_hash;
pub mod ipv4;
pub mod ipv6;
pub mod seq;
pub mod tcp;
pub mod udp;

pub use builder::PacketBuilder;
pub use ethernet::{EtherType, EthernetFrame, MacAddr};
pub use flow_key::{splitmix64, Direction, FlowKey, IpAddrBytes, Transport};
pub use icmp::IcmpPacket;
pub use int_hash::{IntHasher, IntMap, IntSet};
pub use ipv4::Ipv4Packet;
pub use ipv6::Ipv6Packet;
pub use seq::{seq_add, seq_diff, seq_ge, seq_gt, seq_le, seq_lt, SeqNum};
pub use tcp::{TcpFlags, TcpOption, TcpPacket};
pub use udp::UdpPacket;

/// Errors produced while parsing wire formats.
///
/// Parsing is deliberately strict: monitoring code must never panic on
/// malformed input, so every shape violation maps to a distinct variant
/// that callers can count and report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer is shorter than the fixed header of the protocol.
    Truncated,
    /// A length field points beyond the end of the buffer.
    BadLength,
    /// A version/field value is not the one expected by this parser.
    BadVersion,
    /// Header length field smaller than the minimum legal header.
    BadHeaderLen,
    /// Checksum verification failed (only reported by explicit verify calls).
    BadChecksum,
    /// The protocol is not one this crate understands.
    Unsupported,
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            WireError::Truncated => "buffer truncated",
            WireError::BadLength => "length field out of range",
            WireError::BadVersion => "unexpected protocol version",
            WireError::BadHeaderLen => "illegal header length",
            WireError::BadChecksum => "checksum mismatch",
            WireError::Unsupported => "unsupported protocol",
        };
        f.write_str(s)
    }
}

impl std::error::Error for WireError {}

/// Convenience result alias for wire parsing.
pub type Result<T> = core::result::Result<T, WireError>;

/// IP protocol numbers used throughout the workspace.
pub mod ip_proto {
    /// ICMP (1).
    pub const ICMP: u8 = 1;
    /// TCP (6).
    pub const TCP: u8 = 6;
    /// UDP (17).
    pub const UDP: u8 = 17;
    /// ICMPv6 (58).
    pub const ICMPV6: u8 = 58;
}

/// A fully parsed packet: the layered views decoded from one frame.
///
/// This is the "cooked" form the capture stacks consume. It borrows the
/// original frame, so decoding performs no copies; offsets locate the
/// transport payload inside the frame for later extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedPacket<'a> {
    /// The entire L2 frame.
    pub frame: &'a [u8],
    /// Ethernet type of the L3 payload.
    pub ethertype: EtherType,
    /// Directed flow key (source → destination as on the wire), if the
    /// packet has an L4 header we understand; [`FlowKey::canonical`]
    /// orients it.
    pub key: Option<FlowKey>,
    /// IP protocol number (6 = TCP, 17 = UDP, ...), if L3 parsed.
    pub ip_proto: Option<u8>,
    /// Offset of the transport payload within `frame`.
    pub payload_off: usize,
    /// Length of the transport payload in bytes.
    pub payload_len: usize,
    /// TCP-specific fields, when the packet is TCP.
    pub tcp: Option<TcpMeta>,
}

/// The TCP header fields the monitoring stacks need, copied out of the view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpMeta {
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number.
    pub ack: u32,
    /// Header flags.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
}

impl<'a> ParsedPacket<'a> {
    /// Transport payload bytes of the packet (empty for pure-ACK segments).
    pub fn payload(&self) -> &'a [u8] {
        &self.frame[self.payload_off..self.payload_off + self.payload_len]
    }

    /// True when the packet is a TCP segment.
    pub fn is_tcp(&self) -> bool {
        self.ip_proto == Some(ip_proto::TCP)
    }

    /// True when the packet is a UDP datagram.
    pub fn is_udp(&self) -> bool {
        self.ip_proto == Some(ip_proto::UDP)
    }

    /// Everything the parse found, without the borrow of the frame: what
    /// a queue stores beside the frame so that nobody parses it again.
    pub fn meta(&self) -> FrameMeta {
        FrameMeta {
            ethertype: self.ethertype,
            key: self.key,
            ip_proto: self.ip_proto,
            payload_off: self.payload_off,
            payload_len: self.payload_len,
            tcp: self.tcp,
        }
    }
}

/// A [`ParsedPacket`] without its `frame`: owned, `Copy`, and valid only
/// for the frame it was taken from ([`ParsedPacket::meta`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameMeta {
    ethertype: EtherType,
    key: Option<FlowKey>,
    ip_proto: Option<u8>,
    payload_off: usize,
    payload_len: usize,
    tcp: Option<TcpMeta>,
}

impl FrameMeta {
    /// The flow key the parse found.
    pub fn key(&self) -> Option<FlowKey> {
        self.key
    }

    /// The parsed packet again, over the frame the metadata came from
    /// (over any other, [`ParsedPacket::payload`] is the wrong bytes or a
    /// panic, as for a hand-built `ParsedPacket`).
    pub fn attach<'a>(&self, frame: &'a [u8]) -> ParsedPacket<'a> {
        ParsedPacket {
            frame,
            ethertype: self.ethertype,
            key: self.key,
            ip_proto: self.ip_proto,
            payload_off: self.payload_off,
            payload_len: self.payload_len,
            tcp: self.tcp,
        }
    }
}

/// Decode an Ethernet frame down to its transport payload.
///
/// Returns a [`ParsedPacket`] describing every layer that could be decoded.
/// Unknown upper layers are not an error: the result simply carries less
/// information (e.g. `key == None`), matching how a capture stack treats
/// non-IP traffic (counted, never reassembled).
pub fn parse_frame(frame: &[u8]) -> Result<ParsedPacket<'_>> {
    let eth = EthernetFrame::new_checked(frame)?;
    let ethertype = eth.ethertype();
    let l3_off = EthernetFrame::HEADER_LEN;

    match ethertype {
        EtherType::Ipv4 => {
            let ip = Ipv4Packet::new_checked(&frame[l3_off..])?;
            let proto = ip.protocol();
            let l4_off = l3_off + ip.header_len();
            // Honour the IP total-length field: the frame may carry padding.
            let l3_total = ip.total_len() as usize;
            if l3_total < ip.header_len() {
                return Err(WireError::BadLength);
            }
            let l4_len = l3_total - ip.header_len();
            if l3_off + l3_total > frame.len() {
                return Err(WireError::BadLength);
            }
            parse_transport(
                frame,
                ethertype,
                proto,
                l4_off,
                l4_len,
                IpPair::V4(ip.src_addr(), ip.dst_addr()),
            )
        }
        EtherType::Ipv6 => {
            let ip = Ipv6Packet::new_checked(&frame[l3_off..])?;
            let proto = ip.next_header();
            let l4_off = l3_off + Ipv6Packet::HEADER_LEN;
            let l4_len = ip.payload_len() as usize;
            if l4_off + l4_len > frame.len() {
                return Err(WireError::BadLength);
            }
            parse_transport(
                frame,
                ethertype,
                proto,
                l4_off,
                l4_len,
                IpPair::V6(ip.src_addr(), ip.dst_addr()),
            )
        }
        _ => Ok(ParsedPacket {
            frame,
            ethertype,
            key: None,
            ip_proto: None,
            payload_off: l3_off,
            payload_len: frame.len().saturating_sub(l3_off),
            tcp: None,
        }),
    }
}

enum IpPair {
    V4([u8; 4], [u8; 4]),
    V6([u8; 16], [u8; 16]),
}

fn parse_transport(
    frame: &[u8],
    ethertype: EtherType,
    proto: u8,
    l4_off: usize,
    l4_len: usize,
    ips: IpPair,
) -> Result<ParsedPacket<'_>> {
    let l4 = &frame[l4_off..l4_off + l4_len];
    let (key, payload_off, payload_len, tcp) = match proto {
        ip_proto::TCP => {
            let t = TcpPacket::new_checked(l4)?;
            let meta = TcpMeta {
                seq: t.seq_number(),
                ack: t.ack_number(),
                flags: t.flags(),
                window: t.window(),
            };
            let key = make_key(&ips, Transport::Tcp, t.src_port(), t.dst_port());
            (
                Some(key),
                l4_off + t.header_len(),
                l4_len - t.header_len(),
                Some(meta),
            )
        }
        ip_proto::UDP => {
            let u = UdpPacket::new_checked(l4)?;
            let key = make_key(&ips, Transport::Udp, u.src_port(), u.dst_port());
            let plen = (u.length() as usize)
                .checked_sub(UdpPacket::HEADER_LEN)
                .ok_or(WireError::BadLength)?;
            if UdpPacket::HEADER_LEN + plen > l4_len {
                return Err(WireError::BadLength);
            }
            (Some(key), l4_off + UdpPacket::HEADER_LEN, plen, None)
        }
        _ => (None, l4_off, l4_len, None),
    };
    Ok(ParsedPacket {
        frame,
        ethertype,
        key,
        ip_proto: Some(proto),
        payload_off,
        payload_len,
        tcp,
    })
}

fn make_key(ips: &IpPair, transport: Transport, sport: u16, dport: u16) -> FlowKey {
    match ips {
        IpPair::V4(s, d) => FlowKey::new_v4(*s, *d, sport, dport, transport),
        IpPair::V6(s, d) => FlowKey::new_v6(*s, *d, sport, dport, transport),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_frame_rejects_short_buffers() {
        assert_eq!(parse_frame(&[0u8; 4]), Err(WireError::Truncated));
    }

    #[test]
    fn parse_tcp_frame_roundtrip() {
        let payload = b"GET / HTTP/1.1\r\n";
        let frame = PacketBuilder::tcp_v4(
            [10, 0, 0, 1],
            [10, 0, 0, 2],
            1234,
            80,
            1000,
            2000,
            TcpFlags::ACK | TcpFlags::PSH,
            payload,
        );
        let p = parse_frame(&frame).unwrap();
        assert!(p.is_tcp());
        assert_eq!(p.payload(), payload);
        let meta = p.tcp.unwrap();
        assert_eq!(meta.seq, 1000);
        assert_eq!(meta.ack, 2000);
        assert!(meta.flags.contains(TcpFlags::PSH));
        let key = p.key.unwrap();
        assert_eq!(key.src_port(), 1234);
        assert_eq!(key.dst_port(), 80);
    }

    #[test]
    fn meta_reattached_to_its_frame_is_the_parse() {
        let tcp = PacketBuilder::tcp_v4(
            [10, 0, 0, 1],
            [10, 0, 0, 2],
            1234,
            80,
            7,
            9,
            TcpFlags::ACK,
            b"payload",
        );
        let udp = PacketBuilder::udp_v4([1, 1, 1, 1], [2, 2, 2, 2], 10, 20, b"x");
        let mut arp = vec![0u8; 60];
        arp[12..14].copy_from_slice(&[0x08, 0x06]);
        for frame in [tcp, udp, arp] {
            let parsed = parse_frame(&frame).unwrap();
            let meta = parsed.meta();
            assert_eq!(meta.key(), parsed.key);
            assert_eq!(meta.attach(&frame), parsed);
        }
        assert!(std::mem::size_of::<FrameMeta>() <= 80);
    }

    #[test]
    fn parse_udp_frame_roundtrip() {
        let frame = PacketBuilder::udp_v4([192, 168, 1, 1], [8, 8, 8, 8], 5353, 53, b"dns-query");
        let p = parse_frame(&frame).unwrap();
        assert!(p.is_udp());
        assert_eq!(p.payload(), b"dns-query");
    }

    #[test]
    fn parse_frame_honours_ip_total_len_padding() {
        // Ethernet frames are padded to 60 bytes; payload extraction must
        // follow the IP total-length field, not the frame length.
        let mut frame = PacketBuilder::udp_v4([1, 1, 1, 1], [2, 2, 2, 2], 10, 20, b"x");
        while frame.len() < 60 {
            frame.push(0xAA);
        }
        let p = parse_frame(&frame).unwrap();
        assert_eq!(p.payload(), b"x");
    }

    #[test]
    fn non_ip_frames_have_no_key() {
        let mut frame = vec![0u8; 60];
        frame[12] = 0x08;
        frame[13] = 0x06; // ARP
        let p = parse_frame(&frame).unwrap();
        assert_eq!(p.ethertype, EtherType::Arp);
        assert!(p.key.is_none());
    }
}
