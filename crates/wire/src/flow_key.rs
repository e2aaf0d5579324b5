//! Canonical flow identification.
//!
//! Scap tracks *bidirectional* streams: both directions of a TCP connection
//! must resolve to the same flow record (and, in the NIC emulation with the
//! symmetric RSS seed, the same RX queue). [`FlowKey`] stores the 5-tuple
//! as observed on the wire; [`FlowKey::canonical`] maps both directions to
//! one representative key and remembers which direction the original was.

/// Transport protocol of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Transport {
    /// TCP (IP protocol 6).
    Tcp,
    /// UDP (IP protocol 17).
    Udp,
    /// Any other protocol, identified by its IP protocol number.
    Other(u8),
}

impl Transport {
    /// The IP protocol number.
    pub fn proto_number(self) -> u8 {
        match self {
            Transport::Tcp => crate::ip_proto::TCP,
            Transport::Udp => crate::ip_proto::UDP,
            Transport::Other(p) => p,
        }
    }
}

impl From<u8> for Transport {
    fn from(p: u8) -> Self {
        match p {
            crate::ip_proto::TCP => Transport::Tcp,
            crate::ip_proto::UDP => Transport::Udp,
            other => Transport::Other(other),
        }
    }
}

/// Direction of a packet relative to the canonical orientation of its flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Same orientation as the canonical key (client → server for TCP
    /// connections whose SYN was observed).
    Forward,
    /// Opposite orientation.
    Reverse,
}

impl Direction {
    /// The opposite direction.
    pub fn flip(self) -> Direction {
        match self {
            Direction::Forward => Direction::Reverse,
            Direction::Reverse => Direction::Forward,
        }
    }

    /// Index (0/1) for direction-indexed arrays.
    pub fn index(self) -> usize {
        match self {
            Direction::Forward => 0,
            Direction::Reverse => 1,
        }
    }
}

/// An IP address of either family, stored uniformly.
///
/// IPv4 addresses are kept in their 4-byte form (not mapped), so the two
/// families never alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IpAddrBytes {
    /// IPv4 address.
    V4([u8; 4]),
    /// IPv6 address.
    V6([u8; 16]),
}

impl core::fmt::Display for IpAddrBytes {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            IpAddrBytes::V4(a) => write!(f, "{}.{}.{}.{}", a[0], a[1], a[2], a[3]),
            IpAddrBytes::V6(a) => {
                for (i, pair) in a.chunks(2).enumerate() {
                    if i > 0 {
                        f.write_str(":")?;
                    }
                    write!(f, "{:x}", u16::from_be_bytes([pair[0], pair[1]]))?;
                }
                Ok(())
            }
        }
    }
}

/// A directed 5-tuple identifying one direction of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    src: IpAddrBytes,
    dst: IpAddrBytes,
    src_port: u16,
    dst_port: u16,
    transport: Transport,
}

impl FlowKey {
    /// Build a key from IPv4 endpoints.
    pub fn new_v4(
        src: [u8; 4],
        dst: [u8; 4],
        src_port: u16,
        dst_port: u16,
        transport: Transport,
    ) -> Self {
        FlowKey {
            src: IpAddrBytes::V4(src),
            dst: IpAddrBytes::V4(dst),
            src_port,
            dst_port,
            transport,
        }
    }

    /// Build a key from IPv6 endpoints.
    pub fn new_v6(
        src: [u8; 16],
        dst: [u8; 16],
        src_port: u16,
        dst_port: u16,
        transport: Transport,
    ) -> Self {
        FlowKey {
            src: IpAddrBytes::V6(src),
            dst: IpAddrBytes::V6(dst),
            src_port,
            dst_port,
            transport,
        }
    }

    /// Source address.
    pub fn src(&self) -> IpAddrBytes {
        self.src
    }

    /// Destination address.
    pub fn dst(&self) -> IpAddrBytes {
        self.dst
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        self.src_port
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        self.dst_port
    }

    /// Transport protocol.
    pub fn transport(&self) -> Transport {
        self.transport
    }

    /// The same 5-tuple viewed from the opposite direction.
    pub fn reversed(&self) -> FlowKey {
        FlowKey {
            src: self.dst,
            dst: self.src,
            src_port: self.dst_port,
            dst_port: self.src_port,
            transport: self.transport,
        }
    }

    /// Canonicalize: both directions of a connection map to the same key.
    ///
    /// The canonical orientation is the lexicographically smaller
    /// `(addr, port)` endpoint first. Returns the canonical key and the
    /// direction of `self` relative to it.
    ///
    /// The order is the derived one of `(IpAddrBytes, u16)` — family,
    /// then address bytes, then port — compared as integers: an address
    /// read big-endian orders like its bytes.
    #[inline]
    pub fn canonical(&self) -> (FlowKey, Direction) {
        let forward = match (self.src, self.dst) {
            (IpAddrBytes::V4(s), IpAddrBytes::V4(d)) => {
                let ep = |a: [u8; 4], port: u16| {
                    (u64::from(u32::from_be_bytes(a)) << 16) | u64::from(port)
                };
                ep(s, self.src_port) <= ep(d, self.dst_port)
            }
            (IpAddrBytes::V6(s), IpAddrBytes::V6(d)) => {
                (u128::from_be_bytes(s), self.src_port) <= (u128::from_be_bytes(d), self.dst_port)
            }
            // Mixed families (no constructor builds one): V4 sorts first.
            (s, _) => matches!(s, IpAddrBytes::V4(_)),
        };
        if forward {
            (*self, Direction::Forward)
        } else {
            (self.reversed(), Direction::Reverse)
        }
    }

    /// A well-distributed 64-bit direction-independent hash of the 5-tuple,
    /// salted with `seed`.
    ///
    /// The flow table salts with a random per-run seed (the paper picks a
    /// random hash function at initialization to resist algorithmic-
    /// complexity attacks on the table).
    pub fn sym_hash(&self, seed: u64) -> u64 {
        // Combine the two endpoints order-independently so both directions
        // collide (desired), then finalize with splitmix64.
        let ep = |addr: IpAddrBytes, port: u16| -> u64 {
            let mut h: u64 = match addr {
                IpAddrBytes::V4(a) => u64::from(u32::from_be_bytes(a)),
                IpAddrBytes::V6(a) => {
                    let hi = u64::from_be_bytes(a[0..8].try_into().unwrap());
                    let lo = u64::from_be_bytes(a[8..16].try_into().unwrap());
                    hi ^ lo.rotate_left(32)
                }
            };
            h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(port);
            splitmix64(h)
        };
        let ha = ep(self.src, self.src_port);
        let hb = ep(self.dst, self.dst_port);
        // xor+add of the two endpoint hashes is symmetric under swap.
        let combined = (ha ^ hb).wrapping_add(ha.wrapping_mul(hb) | 1);
        splitmix64(combined ^ seed ^ u64::from(self.transport.proto_number()))
    }
}

impl core::fmt::Display for FlowKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let proto = match self.transport {
            Transport::Tcp => "tcp",
            Transport::Udp => "udp",
            Transport::Other(_) => "ip",
        };
        write!(
            f,
            "{} {}:{} -> {}:{}",
            proto, self.src, self.src_port, self.dst, self.dst_port
        )
    }
}

/// splitmix64 finalizer: cheap, well-distributed 64-bit mixing.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn key() -> FlowKey {
        FlowKey::new_v4([10, 0, 0, 1], [10, 0, 0, 2], 40000, 80, Transport::Tcp)
    }

    /// A second address for `s`: `d` as drawn (`how` 0), `s` itself (1),
    /// `s` but for its last bit (2), or `s` but for its top bit (3).
    fn near<const N: usize>(s: [u8; N], d: [u8; N], how: u8) -> [u8; N] {
        let mut n = s;
        match how {
            0 => return d,
            1 => {}
            2 => n[N - 1] ^= 1,
            _ => n[0] ^= 0x80,
        }
        n
    }

    #[test]
    fn reversed_swaps_endpoints() {
        let k = key();
        let r = k.reversed();
        assert_eq!(r.src_port(), 80);
        assert_eq!(r.dst_port(), 40000);
        assert_eq!(r.reversed(), k);
    }

    #[test]
    fn both_directions_share_canonical_key() {
        let k = key();
        let (c1, d1) = k.canonical();
        let (c2, d2) = k.reversed().canonical();
        assert_eq!(c1, c2);
        assert_ne!(d1, d2);
    }

    #[test]
    fn sym_hash_is_direction_independent() {
        let k = key();
        assert_eq!(k.sym_hash(123), k.reversed().sym_hash(123));
        assert_ne!(k.sym_hash(123), k.sym_hash(456));
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(key().to_string(), "tcp 10.0.0.1:40000 -> 10.0.0.2:80");
    }

    #[test]
    fn v4_and_v6_do_not_alias() {
        let v4 = FlowKey::new_v4([1, 2, 3, 4], [5, 6, 7, 8], 1, 2, Transport::Udp);
        let mut a = [0u8; 16];
        a[..4].copy_from_slice(&[1, 2, 3, 4]);
        let mut b = [0u8; 16];
        b[..4].copy_from_slice(&[5, 6, 7, 8]);
        let v6 = FlowKey::new_v6(a, b, 1, 2, Transport::Udp);
        assert_ne!(v4, v6);
    }

    proptest! {
        /// Canonicalization is a projection: canonical(canonical(k)) == canonical(k).
        #[test]
        fn canonical_is_idempotent(
            s: [u8; 4], d: [u8; 4], sp: u16, dp: u16
        ) {
            let k = FlowKey::new_v4(s, d, sp, dp, Transport::Tcp);
            let (c, _) = k.canonical();
            let (cc, dir) = c.canonical();
            prop_assert_eq!(c, cc);
            prop_assert_eq!(dir, Direction::Forward);
        }

        /// The integer comparison orients a key exactly as the derived
        /// `(IpAddrBytes, u16)` order does, for both families, with
        /// addresses and ports drawn from tiny domains so that equal
        /// addresses, equal ports and equal endpoints all occur.
        #[test]
        fn canonical_matches_the_derived_order(
            s4: [u8; 4],
            d4: [u8; 4],
            s6: [u8; 16],
            d6: [u8; 16],
            p: u16,
            picks in (0u8..4, 0usize..3, 0usize..3),
        ) {
            let (how, sp, dp) = picks;
            let ports = [0, p, u16::MAX];
            let (sp, dp) = (ports[sp], ports[dp]);
            for k in [
                FlowKey::new_v4(s4, near(s4, d4, how), sp, dp, Transport::Udp),
                FlowKey::new_v6(s6, near(s6, d6, how), sp, dp, Transport::Tcp),
            ] {
                let derived = if (k.src(), k.src_port()) <= (k.dst(), k.dst_port()) {
                    (k, Direction::Forward)
                } else {
                    (k.reversed(), Direction::Reverse)
                };
                prop_assert_eq!(k.canonical(), derived);
            }
        }

        /// Hash symmetry holds for arbitrary keys and seeds.
        #[test]
        fn hash_symmetry(s: [u8;4], d: [u8;4], sp: u16, dp: u16, seed: u64) {
            let k = FlowKey::new_v4(s, d, sp, dp, Transport::Udp);
            prop_assert_eq!(k.sym_hash(seed), k.reversed().sym_hash(seed));
        }
    }
}
