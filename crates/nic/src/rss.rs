//! Receive Side Scaling: the Toeplitz hash and indirection table.
//!
//! The hash is the Microsoft RSS Toeplitz construction: for every set bit
//! of the input (concatenated source address, destination address, source
//! port, destination port, in network order), XOR in the 32-bit window of
//! the secret key starting at that bit position.
//!
//! Plain RSS keys hash the two directions of a connection to different
//! queues. Woo & Park observed that a key built from a repeating 16-bit
//! block makes the hash *symmetric* under (src,dst) swap — the paper uses
//! this so each bidirectional TCP connection is handled by one core. The
//! [`SYMMETRIC_RSS_KEY`] here is the `0x6D5A` repetition from their
//! report.
//!
//! The hash is linear over XOR, so the hash of an input is the XOR of the
//! hashes of its bytes taken alone, each at its position. [`RssHasher`]
//! builds one 256-entry table per byte position from the bit-serial
//! definition ([`toeplitz_bitwise`]) when it is created and hashes with
//! one load per input byte. A key that repeats every 16 bits shows byte
//! positions *i* and *i*+2 the same key windows, so two tables (2 KB)
//! serve every position of IPv4 and IPv6 inputs alike.

use scap_wire::{FlowKey, IpAddrBytes};

/// Longest hash input: an IPv6 address pair plus the two ports.
const MAX_INPUT: usize = 36;

/// Most RX queues RSS can spread over: one per indirection-table entry.
pub const MAX_QUEUES: usize = 128;

/// The symmetric RSS key (repeating 0x6D5A), 40 bytes — enough windows for
/// IPv6 inputs (36 input bytes need 36+4 key bytes; we keep 52 for slack).
pub const SYMMETRIC_RSS_KEY: [u8; 52] = {
    let mut k = [0u8; 52];
    let mut i = 0;
    while i < 52 {
        k[i] = if i % 2 == 0 { 0x6D } else { 0x5A };
        i += 1;
    }
    k
};

/// The Toeplitz hash by its definition, one input bit at a time: the
/// reference the per-byte tables of [`RssHasher`] are built from and
/// tested against.
pub fn toeplitz_bitwise(key: &[u8; 52], input: &[u8]) -> u32 {
    debug_assert!(input.len() + 4 <= key.len());
    let mut result: u32 = 0;
    // The running 32-bit key window, advanced one bit per input bit.
    let mut window: u32 = u32::from_be_bytes([key[0], key[1], key[2], key[3]]);
    for (i, &byte) in input.iter().enumerate() {
        let next_key_byte = 4 + i;
        for bit in (0..8).rev() {
            if byte >> bit & 1 == 1 {
                result ^= window;
            }
            // Shift the window left one bit, pulling in the next key bit.
            let next_bit = if next_key_byte < key.len() {
                (key[next_key_byte] >> bit) & 1
            } else {
                0
            };
            window = (window << 1) | u32::from(next_bit);
        }
    }
    result
}

/// Toeplitz hasher with an indirection table, as on the 82599.
#[derive(Debug, Clone)]
pub struct RssHasher {
    /// `tables[i & pos_mask][b]` is the hash of byte `b` alone at input
    /// position `i`.
    tables: Box<[[u32; 256]]>,
    pos_mask: usize,
    /// 128-entry indirection table mapping hash LSBs to queues.
    indirection: [u8; 128],
}

impl RssHasher {
    /// Symmetric-key hasher dispatching over `nqueues` queues with the
    /// default round-robin indirection table.
    pub fn symmetric(nqueues: usize) -> Self {
        assert!(nqueues > 0 && nqueues <= MAX_QUEUES);
        let mut indirection = [0u8; 128];
        for (i, e) in indirection.iter_mut().enumerate() {
            *e = (i % nqueues) as u8;
        }
        Self::with_key(&SYMMETRIC_RSS_KEY, indirection)
    }

    fn with_key(key: &[u8; 52], indirection: [u8; 128]) -> Self {
        // With a 16-bit period, positions of equal parity see the same
        // key windows and share a table.
        let (positions, pos_mask) = if key.windows(3).all(|w| w[0] == w[2]) {
            (2, 1)
        } else {
            (MAX_INPUT, MAX_INPUT.next_power_of_two() - 1)
        };
        let tables = (0..positions)
            .map(|pos| {
                let mut input = [0u8; MAX_INPUT];
                std::array::from_fn(|b| {
                    input[pos] = b as u8;
                    toeplitz_bitwise(key, &input[..=pos])
                })
            })
            .collect();
        RssHasher {
            tables,
            pos_mask,
            indirection,
        }
    }

    /// Replace the indirection table (dynamic rebalancing).
    pub fn set_indirection(&mut self, table: [u8; 128]) {
        self.indirection = table;
    }

    /// Toeplitz hash of an input of at most 36 bytes against the key.
    pub fn toeplitz(&self, input: &[u8]) -> u32 {
        assert!(input.len() <= MAX_INPUT);
        input.iter().enumerate().fold(0, |h, (i, &b)| {
            h ^ self.tables[i & self.pos_mask][usize::from(b)]
        })
    }

    /// RSS hash of a flow key (5-tuple input in the standard field order).
    pub fn hash_key(&self, key: &FlowKey) -> u32 {
        let mut input = [0u8; MAX_INPUT];
        let len = match (key.src(), key.dst()) {
            (IpAddrBytes::V4(s), IpAddrBytes::V4(d)) => {
                input[0..4].copy_from_slice(&s);
                input[4..8].copy_from_slice(&d);
                input[8..10].copy_from_slice(&key.src_port().to_be_bytes());
                input[10..12].copy_from_slice(&key.dst_port().to_be_bytes());
                12
            }
            (IpAddrBytes::V6(s), IpAddrBytes::V6(d)) => {
                input[0..16].copy_from_slice(&s);
                input[16..32].copy_from_slice(&d);
                input[32..34].copy_from_slice(&key.src_port().to_be_bytes());
                input[34..36].copy_from_slice(&key.dst_port().to_be_bytes());
                36
            }
            // Mixed families never occur in one key.
            _ => unreachable!("flow keys are family-homogeneous"),
        };
        self.toeplitz(&input[..len])
    }

    /// The RX queue for a flow, via the indirection table.
    pub fn queue_for(&self, key: &FlowKey) -> usize {
        let h = self.hash_key(key);
        usize::from(self.indirection[(h & 0x7F) as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use scap_wire::Transport;

    /// Microsoft's RSS verification suite key.
    const MS_KEY: [u8; 40] = [
        0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f,
        0xb0, 0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30,
        0xf2, 0x0c, 0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
    ];

    fn ms_key() -> [u8; 52] {
        let mut key = [0u8; 52];
        key[..40].copy_from_slice(&MS_KEY);
        key
    }

    fn ms_hasher() -> RssHasher {
        RssHasher::with_key(&ms_key(), [0u8; 128])
    }

    #[test]
    fn symmetric_key_shares_two_tables_and_a_plain_key_does_not() {
        assert_eq!(RssHasher::symmetric(8).tables.len(), 2);
        assert_eq!(ms_hasher().tables.len(), MAX_INPUT);
    }

    /// Known-answer tests from the Microsoft RSS verification suite
    /// (IPv4 with TCP ports).
    #[test]
    fn toeplitz_known_answers() {
        let h = ms_hasher();
        // 66.9.149.187:2794 -> 161.142.100.80:1766  => 0x51ccc178
        let mut input = Vec::new();
        input.extend_from_slice(&[66, 9, 149, 187]);
        input.extend_from_slice(&[161, 142, 100, 80]);
        input.extend_from_slice(&2794u16.to_be_bytes());
        input.extend_from_slice(&1766u16.to_be_bytes());
        assert_eq!(h.toeplitz(&input), 0x51cc_c178);

        // 199.92.111.2:14230 -> 65.69.140.83:4739 => 0xc626b0ea
        let mut input = Vec::new();
        input.extend_from_slice(&[199, 92, 111, 2]);
        input.extend_from_slice(&[65, 69, 140, 83]);
        input.extend_from_slice(&14230u16.to_be_bytes());
        input.extend_from_slice(&4739u16.to_be_bytes());
        assert_eq!(h.toeplitz(&input), 0xc626_b0ea);
    }

    /// IP-only known answers (no ports).
    #[test]
    fn toeplitz_known_answers_ip_only() {
        let h = ms_hasher();
        let input = [66, 9, 149, 187, 161, 142, 100, 80];
        assert_eq!(h.toeplitz(&input), 0x323e_8fc2);
        let input = [199, 92, 111, 2, 65, 69, 140, 83];
        assert_eq!(h.toeplitz(&input), 0xd718_262a);
    }

    #[test]
    fn symmetric_key_makes_directions_collide() {
        let h = RssHasher::symmetric(8);
        let k = FlowKey::new_v4(
            [10, 1, 2, 3],
            [93, 184, 216, 34],
            43210,
            443,
            Transport::Tcp,
        );
        assert_eq!(h.hash_key(&k), h.hash_key(&k.reversed()));
        assert_eq!(h.queue_for(&k), h.queue_for(&k.reversed()));
    }

    #[test]
    fn queues_are_reasonably_balanced() {
        let h = RssHasher::symmetric(8);
        let mut counts = [0usize; 8];
        for i in 0..4000u32 {
            let k = FlowKey::new_v4(
                [10, (i >> 8) as u8, i as u8, 7],
                [93, 184, (i % 13) as u8, 34],
                1024 + (i % 50000) as u16,
                443,
                Transport::Tcp,
            );
            counts[h.queue_for(&k)] += 1;
        }
        // No queue wildly over- or under-loaded (within 3x of fair share).
        for (q, &c) in counts.iter().enumerate() {
            assert!(c > 500 / 3 && c < 1500, "queue {q} got {c}");
        }
    }

    #[test]
    fn indirection_table_override() {
        let mut h = RssHasher::symmetric(4);
        h.set_indirection([2u8; 128]);
        let k = FlowKey::new_v4([1, 2, 3, 4], [5, 6, 7, 8], 1, 2, Transport::Udp);
        assert_eq!(h.queue_for(&k), 2);
    }

    proptest! {
        /// The table path equals the bit-serial definition for arbitrary
        /// bytes at every input length, for a plain key (one table per
        /// position) and for the symmetric key (two shared tables).
        #[test]
        fn tables_match_the_bitwise_reference(bytes: [u8; 36]) {
            let ms = ms_hasher();
            let sym = RssHasher::symmetric(8);
            for len in 0..=MAX_INPUT {
                let input = &bytes[..len];
                prop_assert_eq!(ms.toeplitz(input), toeplitz_bitwise(&ms_key(), input));
                prop_assert_eq!(
                    sym.toeplitz(input),
                    toeplitz_bitwise(&SYMMETRIC_RSS_KEY, input)
                );
            }
        }

        /// Symmetry holds for arbitrary v4 flow keys.
        #[test]
        fn symmetric_for_all_keys(s: [u8;4], d: [u8;4], sp: u16, dp: u16) {
            let h = RssHasher::symmetric(16);
            let k = FlowKey::new_v4(s, d, sp, dp, Transport::Tcp);
            prop_assert_eq!(h.hash_key(&k), h.hash_key(&k.reversed()));
        }

        /// Symmetry holds for v6 keys too.
        #[test]
        fn symmetric_for_v6_keys(s: [u8;16], d: [u8;16], sp: u16, dp: u16) {
            let h = RssHasher::symmetric(16);
            let k = FlowKey::new_v6(s, d, sp, dp, Transport::Udp);
            prop_assert_eq!(h.hash_key(&k), h.hash_key(&k.reversed()));
        }
    }
}
