//! An order-independent digest of what a capture delivered.
//!
//! Every data chunk contributes `(5-tuple, direction, offset, bytes)`
//! through sums that do not depend on the order chunks arrive in *or*
//! on where a stream was cut into chunks: two drivers that deliver the
//! same bytes of the same streams at the same offsets agree, whatever
//! their flush cadence. Per chunk the cost is one hash of the flow key
//! and one pass summing the payload bytes — the "sum every delivered
//! byte" application of the paper's stream-delivery example, so it is
//! deliberately the only application work inside a timed region.

use scap::{Direction, Event, EventKind, FlowKey};
use scap_wire::splitmix64;

/// Seed of the per-stream weight; any constant works, it only has to be
/// the same in every run being compared.
const KEY_SEED: u64 = 0x5ca9_d19e_57ed_0001;

/// The digest and the event counts that go with it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    /// Σ weight(stream, dir) · Σ payload bytes — which bytes.
    pub bytes_sum: u64,
    /// Σ weight(stream, dir) · ((offset+len)² − offset²), which
    /// telescopes over adjacent chunks — at which offsets.
    pub span_sum: u64,
    /// Payload bytes delivered.
    pub delivered_bytes: u64,
    /// Data chunks delivered (depends on chunk boundaries).
    pub chunks: u64,
    /// Stream-created events seen.
    pub created: u64,
    /// Stream-terminated events seen.
    pub terminated: u64,
}

impl Digest {
    /// Fold in one delivered chunk.
    #[inline]
    pub fn add_chunk(&mut self, key: &FlowKey, dir: Direction, offset: u64, data: &[u8]) {
        let weight = splitmix64(key.sym_hash(KEY_SEED) ^ dir.index() as u64) | 1;
        let byte_sum: u64 = data.iter().map(|b| u64::from(*b)).sum();
        let end = offset.wrapping_add(data.len() as u64);
        let span = end
            .wrapping_mul(end)
            .wrapping_sub(offset.wrapping_mul(offset));
        self.bytes_sum = self.bytes_sum.wrapping_add(weight.wrapping_mul(byte_sum));
        self.span_sum = self.span_sum.wrapping_add(weight.wrapping_mul(span));
        self.delivered_bytes += data.len() as u64;
        self.chunks += 1;
    }

    /// Fold in one kernel event.
    #[inline]
    pub fn add_event(&mut self, ev: &Event) {
        match &ev.kind {
            EventKind::Created => self.created += 1,
            EventKind::Terminated => self.terminated += 1,
            EventKind::Data { dir, chunk, .. } => {
                self.add_chunk(&ev.stream.key, *dir, chunk.start_offset, chunk.bytes());
            }
        }
    }

    /// The part two drivers with different flush cadence and different
    /// callbacks must agree on: which bytes of which streams at which
    /// offsets, not how many chunks or lifecycle events carried them.
    pub fn content(&self) -> (u64, u64, u64) {
        (self.bytes_sum, self.span_sum, self.delivered_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scap::Transport;

    fn key(port: u16) -> FlowKey {
        FlowKey::new_v4([10, 0, 0, 1], [10, 0, 0, 2], 40_000, port, Transport::Tcp)
    }

    #[test]
    fn independent_of_order_and_of_chunk_boundaries() {
        let data: Vec<u8> = (0..=255).collect();
        let mut whole = Digest::default();
        whole.add_chunk(&key(80), Direction::Forward, 100, &data);
        whole.add_chunk(&key(443), Direction::Reverse, 0, &data[..50]);

        let mut pieces = Digest::default();
        pieces.add_chunk(&key(443), Direction::Reverse, 0, &data[..50]);
        pieces.add_chunk(&key(80), Direction::Forward, 300, &data[200..]);
        pieces.add_chunk(&key(80), Direction::Forward, 100, &data[..200]);

        assert_eq!(whole.content(), pieces.content());
        assert_ne!(whole.chunks, pieces.chunks);
    }

    #[test]
    fn sensitive_to_stream_direction_offset_and_bytes() {
        let base = |k: &FlowKey, d, off, bytes: &[u8]| {
            let mut g = Digest::default();
            g.add_chunk(k, d, off, bytes);
            g.content()
        };
        let reference = base(&key(80), Direction::Forward, 0, b"abcd");
        assert_ne!(reference, base(&key(81), Direction::Forward, 0, b"abcd"));
        assert_ne!(reference, base(&key(80), Direction::Reverse, 0, b"abcd"));
        assert_ne!(reference, base(&key(80), Direction::Forward, 1, b"abcd"));
        assert_ne!(reference, base(&key(80), Direction::Forward, 0, b"abce"));
    }
}
