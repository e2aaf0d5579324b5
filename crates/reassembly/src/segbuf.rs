//! The out-of-order segment buffer.
//!
//! Holds undelivered segments keyed by their (relative) stream offset,
//! maintaining the invariant that stored segments never overlap. Insertion
//! resolves overlaps against existing segments with the target-based
//! policy, reporting whether any conflicting bytes disagreed (the
//! evasion-detection signal).

use crate::OverlapPolicy;
use std::collections::BTreeMap;

/// Result of inserting a segment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InsertOutcome {
    /// Bytes of the new segment actually stored.
    pub stored: u64,
    /// Bytes of the new segment discarded as duplicates/losers.
    pub duplicate: u64,
    /// Overlapping bytes disagreed with what was already buffered.
    pub inconsistent: bool,
}

/// Non-overlapping segment store.
#[derive(Debug, Default)]
pub struct SegmentBuffer {
    /// offset → payload; invariant: entries never overlap.
    segs: BTreeMap<u64, Vec<u8>>,
    bytes: usize,
}

impl SegmentBuffer {
    /// Empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buffered segments.
    pub fn len(&self) -> usize {
        self.segs.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    /// Total buffered payload bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Lowest buffered offset.
    pub fn first_offset(&self) -> Option<u64> {
        self.segs.keys().next().copied()
    }

    /// Iterate buffered extents in ascending offset order (deterministic;
    /// used by the checkpoint serializer).
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (u64, &[u8])> {
        self.segs.iter().map(|(off, data)| (*off, data.as_slice()))
    }

    /// Insert `data` at `offset`, resolving overlaps with `policy`.
    pub fn insert(&mut self, offset: u64, data: &[u8], policy: OverlapPolicy) -> InsertOutcome {
        let mut out = InsertOutcome::default();
        if data.is_empty() {
            return out;
        }
        let end = offset + data.len() as u64;

        // Collect existing segments overlapping [offset, end).
        let overlapping: Vec<(u64, Vec<u8>)> = {
            // A predecessor may extend into our range.
            let start_key = self
                .segs
                .range(..offset)
                .next_back()
                .filter(|(k, v)| *k + v.len() as u64 > offset)
                .map(|(k, _)| *k);
            let mut keys: Vec<u64> = self.segs.range(offset..end).map(|(k, _)| *k).collect();
            if let Some(k) = start_key {
                keys.insert(0, k);
            }
            keys.into_iter()
                .map(|k| {
                    let v = self.segs.remove(&k).expect("key just listed");
                    self.bytes -= v.len();
                    (k, v)
                })
                .collect()
        };

        // Build the winning coverage over [offset, end) plus preserved
        // old fragments outside the range.
        // Start with the new segment as a candidate everywhere, then for
        // each old segment decide who wins in the pairwise overlap.
        let mut new_keep = vec![true; data.len()]; // new byte i kept?
        for (old_off, old_data) in &overlapping {
            let old_end = old_off + old_data.len() as u64;
            let ov_start = offset.max(*old_off);
            let ov_end = end.min(old_end);
            let new_wins = policy.new_wins(offset, *old_off);
            for o in ov_start..ov_end {
                let ni = (o - offset) as usize;
                let oi = (o - old_off) as usize;
                if data[ni] != old_data[oi] {
                    out.inconsistent = true;
                }
                if !new_wins {
                    new_keep[ni] = false;
                }
            }
            // Reinsert the old fragments that the new segment does not
            // replace: the parts outside [offset,end) always survive; the
            // overlapped part survives iff old wins.
            let mut piece_start = *old_off;
            let mut piece: Vec<u8> = Vec::new();
            let flush_piece = |segs: &mut BTreeMap<u64, Vec<u8>>,
                               bytes: &mut usize,
                               start: u64,
                               p: &mut Vec<u8>| {
                if !p.is_empty() {
                    *bytes += p.len();
                    segs.insert(start, std::mem::take(p));
                }
            };
            for o in *old_off..old_end {
                let keep_old = if o < offset || o >= end {
                    true
                } else {
                    !new_wins
                };
                if keep_old {
                    if piece.is_empty() {
                        piece_start = o;
                    }
                    piece.push(old_data[(o - old_off) as usize]);
                } else {
                    flush_piece(&mut self.segs, &mut self.bytes, piece_start, &mut piece);
                }
            }
            flush_piece(&mut self.segs, &mut self.bytes, piece_start, &mut piece);
        }

        // Insert the surviving new-segment runs.
        let mut i = 0usize;
        while i < data.len() {
            if new_keep[i] {
                let run_start = i;
                while i < data.len() && new_keep[i] {
                    i += 1;
                }
                let payload = data[run_start..i].to_vec();
                out.stored += payload.len() as u64;
                self.bytes += payload.len();
                self.segs.insert(offset + run_start as u64, payload);
            } else {
                out.duplicate += 1;
                i += 1;
            }
        }
        out
    }

    /// Pop contiguous data starting exactly at `from`, advancing through
    /// any adjacent buffered segments. Each popped segment is passed to
    /// `sink(offset, bytes)`. Returns the new frontier offset.
    pub fn drain_from(&mut self, mut from: u64, mut sink: impl FnMut(u64, &[u8])) -> u64 {
        loop {
            // The last segment starting at or before `from`, if it still
            // covers `from` (segments never overlap, so it is unique).
            let key = self
                .segs
                .range(..=from)
                .next_back()
                .filter(|(k, v)| *k + v.len() as u64 > from)
                .map(|(k, _)| *k);
            let Some(k) = key else { return from };
            let v = self.segs.remove(&k).expect("key just found");
            self.bytes -= v.len();
            let skip = (from - k) as usize;
            sink(from, &v[skip..]);
            from += (v.len() - skip) as u64;
        }
    }

    /// Drop every buffered byte below `offset` (already delivered or
    /// abandoned). Returns bytes discarded.
    pub fn discard_below(&mut self, offset: u64) -> u64 {
        let mut removed = 0u64;
        let keys: Vec<u64> = self.segs.range(..offset).map(|(k, _)| *k).collect();
        for k in keys {
            let v = self.segs.remove(&k).expect("listed");
            self.bytes -= v.len();
            let end = k + v.len() as u64;
            if end > offset {
                // Tail extends past the cut: keep the tail.
                let tail = v[(offset - k) as usize..].to_vec();
                removed += (offset - k).min(v.len() as u64);
                self.bytes += tail.len();
                self.segs.insert(offset, tail);
            } else {
                removed += v.len() as u64;
            }
        }
        removed
    }

    /// Remove everything.
    pub fn clear(&mut self) {
        self.segs.clear();
        self.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn collect(buf: &mut SegmentBuffer, from: u64) -> (u64, Vec<u8>) {
        let mut got = Vec::new();
        let new_from = buf.drain_from(from, |_, d| got.extend_from_slice(d));
        (new_from, got)
    }

    #[test]
    fn disjoint_segments_stored_and_drained_in_order() {
        let mut b = SegmentBuffer::new();
        b.insert(10, b"cd", OverlapPolicy::First);
        b.insert(0, b"ab", OverlapPolicy::First);
        assert_eq!(b.len(), 2);
        assert_eq!(b.bytes(), 4);
        let (f, got) = collect(&mut b, 0);
        assert_eq!(f, 2);
        assert_eq!(got, b"ab");
        // Hole at 2..10 blocks the rest.
        assert_eq!(b.first_offset(), Some(10));
        let (f2, got2) = collect(&mut b, 10);
        assert_eq!(f2, 12);
        assert_eq!(got2, b"cd");
    }

    #[test]
    fn adjacent_segments_drain_through() {
        let mut b = SegmentBuffer::new();
        b.insert(0, b"ab", OverlapPolicy::First);
        b.insert(2, b"cd", OverlapPolicy::First);
        b.insert(4, b"ef", OverlapPolicy::First);
        let (f, got) = collect(&mut b, 0);
        assert_eq!(f, 6);
        assert_eq!(got, b"abcdef");
        assert!(b.is_empty());
    }

    #[test]
    fn exact_duplicate_is_discarded() {
        let mut b = SegmentBuffer::new();
        b.insert(0, b"abcd", OverlapPolicy::First);
        let out = b.insert(0, b"abcd", OverlapPolicy::First);
        assert_eq!(out.stored, 0);
        assert_eq!(out.duplicate, 4);
        assert!(!out.inconsistent);
        assert_eq!(b.bytes(), 4);
    }

    #[test]
    fn first_policy_keeps_old_bytes() {
        let mut b = SegmentBuffer::new();
        b.insert(0, b"AAAA", OverlapPolicy::First);
        let out = b.insert(2, b"BBBB", OverlapPolicy::First);
        assert!(out.inconsistent);
        assert_eq!(out.stored, 2); // only bytes 4..6
        let (_, got) = collect(&mut b, 0);
        assert_eq!(got, b"AAAABB");
    }

    #[test]
    fn last_policy_takes_new_bytes() {
        let mut b = SegmentBuffer::new();
        b.insert(0, b"AAAA", OverlapPolicy::Last);
        b.insert(2, b"BBBB", OverlapPolicy::Last);
        let (_, got) = collect(&mut b, 0);
        assert_eq!(got, b"AABBBB");
    }

    #[test]
    fn bsd_policy_depends_on_start() {
        // New starts before old: new wins the overlap.
        let mut b = SegmentBuffer::new();
        b.insert(2, b"OOOO", OverlapPolicy::Bsd); // covers 2..6
        b.insert(0, b"NNNNN", OverlapPolicy::Bsd); // covers 0..5, starts earlier
        let (_, got) = collect(&mut b, 0);
        assert_eq!(got, b"NNNNNO");

        // New starts at/after old start: old wins.
        let mut b = SegmentBuffer::new();
        b.insert(0, b"OOOO", OverlapPolicy::Bsd);
        b.insert(2, b"NNNN", OverlapPolicy::Bsd); // 2..6, old wins 2..4
        let (_, got) = collect(&mut b, 0);
        assert_eq!(got, b"OOOONN");
    }

    #[test]
    fn new_segment_inside_old_fragment_splits_correctly() {
        let mut b = SegmentBuffer::new();
        b.insert(0, b"XXXXXXXXXX", OverlapPolicy::Last); // 0..10
        b.insert(3, b"yyy", OverlapPolicy::Last); // replaces 3..6
        let (_, got) = collect(&mut b, 0);
        assert_eq!(got, b"XXXyyyXXXX");
        let mut b = SegmentBuffer::new();
        b.insert(0, b"XXXXXXXXXX", OverlapPolicy::First);
        let out = b.insert(3, b"yyy", OverlapPolicy::First);
        assert_eq!(out.stored, 0);
        let (_, got) = collect(&mut b, 0);
        assert_eq!(got, b"XXXXXXXXXX");
    }

    #[test]
    fn discard_below_trims_and_splits() {
        let mut b = SegmentBuffer::new();
        b.insert(0, b"abcdef", OverlapPolicy::First);
        b.insert(10, b"gh", OverlapPolicy::First);
        let removed = b.discard_below(3);
        assert_eq!(removed, 3);
        let (_, got) = collect(&mut b, 3);
        assert_eq!(got, b"def");
        assert_eq!(b.first_offset(), Some(10));
    }

    #[test]
    fn drain_from_mid_segment() {
        let mut b = SegmentBuffer::new();
        b.insert(0, b"abcdef", OverlapPolicy::First);
        // Frontier advanced past the segment start (e.g. after a skip).
        let (f, got) = collect(&mut b, 2);
        assert_eq!(f, 6);
        assert_eq!(got, b"cdef");
    }

    proptest! {
        /// Whatever the insertion order, overlap pattern, and policy,
        /// when all segments carry bytes from one consistent source
        /// stream, draining yields exactly that stream.
        #[test]
        fn consistent_source_reassembles_exactly(
            source in proptest::collection::vec(any::<u8>(), 30..200),
            cuts in proptest::collection::vec((0usize..200, 1usize..40), 1..30),
            policy_idx in 0usize..6,
            shuffle_seed: u64,
        ) {
            let policy = [
                OverlapPolicy::First, OverlapPolicy::Last, OverlapPolicy::Bsd,
                OverlapPolicy::Windows, OverlapPolicy::Solaris, OverlapPolicy::Linux,
            ][policy_idx];
            // Build segments covering the whole source plus random extras.
            let mut segments: Vec<(u64, Vec<u8>)> = Vec::new();
            let mut off = 0usize;
            while off < source.len() {
                let len = (7 + off % 13).min(source.len() - off);
                segments.push((off as u64, source[off..off+len].to_vec()));
                off += len;
            }
            for (start, len) in cuts {
                let s = start.min(source.len().saturating_sub(1));
                let e = (s + len).min(source.len());
                if e > s {
                    segments.push((s as u64, source[s..e].to_vec()));
                }
            }
            // Deterministic shuffle.
            let mut order: Vec<usize> = (0..segments.len()).collect();
            let mut st = shuffle_seed;
            for i in (1..order.len()).rev() {
                st = st.wrapping_mul(6364136223846793005).wrapping_add(1);
                order.swap(i, (st as usize) % (i + 1));
            }
            let mut b = SegmentBuffer::new();
            let mut inconsistent = false;
            for &i in &order {
                let (o, d) = &segments[i];
                let out = b.insert(*o, d, policy);
                inconsistent |= out.inconsistent;
            }
            prop_assert!(!inconsistent, "consistent source flagged inconsistent");
            let mut got = Vec::new();
            let end = b.drain_from(0, |_, d| got.extend_from_slice(d));
            prop_assert_eq!(end as usize, source.len());
            prop_assert_eq!(got, source);
        }
    }
}
