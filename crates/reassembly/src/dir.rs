//! Per-direction reassembly: sequence tracking, in-order delivery,
//! duplicate suppression, and the strict/fast hole-handling split.

use crate::segbuf::SegmentBuffer;
use crate::{OverlapPolicy, ReasmFlags, ReassemblyMode};

/// Tuning limits for the out-of-order buffer.
#[derive(Debug, Clone, Copy)]
pub struct ReasmConfig {
    /// Reassembly mode.
    pub mode: ReassemblyMode,
    /// Overlap policy (target-based).
    pub policy: OverlapPolicy,
    /// Max buffered out-of-order bytes before the mode's overflow action.
    pub max_ooo_bytes: usize,
    /// Max buffered out-of-order segments.
    pub max_ooo_segments: usize,
}

impl ReasmConfig {
    /// Defaults for a mode: fast keeps a small tolerance so plain
    /// reordering reassembles exactly but loss never stalls processing;
    /// strict buffers generously and only errors at attack-scale gaps.
    pub fn for_mode(mode: ReassemblyMode) -> Self {
        match mode {
            ReassemblyMode::Fast => ReasmConfig {
                mode,
                policy: OverlapPolicy::default(),
                max_ooo_bytes: 64 << 10,
                max_ooo_segments: 64,
            },
            ReassemblyMode::Strict => ReasmConfig {
                mode,
                policy: OverlapPolicy::default(),
                max_ooo_bytes: 4 << 20,
                max_ooo_segments: 4096,
            },
        }
    }

    /// Same config with a different overlap policy.
    pub fn with_policy(mut self, policy: OverlapPolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// Per-direction outcome counters for one segment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DataOutcome {
    /// Bytes delivered in-order to the sink by this call.
    pub delivered: u64,
    /// Bytes recognized as duplicate/overlap losers and discarded.
    pub duplicate: u64,
    /// Bytes parked in the out-of-order buffer.
    pub buffered: u64,
    /// A hole was skipped (fast mode) during this call.
    pub gap_skipped: bool,
    /// Bytes the frontier jumped over in this call (0 when no skip).
    pub gap: u64,
    /// Of `gap`, the bytes attributed to a warm-restart blackout (the
    /// one-shot resume skip armed by [`DirReassembler::arm_resume_skip`]).
    pub resume_gap: u64,
}

/// A serializable snapshot of one direction's reassembly state, for the
/// checkpoint subsystem: everything needed to re-anchor the direction at
/// its committed offset after a warm restart.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirState {
    /// Sequence number of stream byte 0, if the direction is anchored.
    pub base_seq: Option<u32>,
    /// Relative offset of the next in-order byte (the committed offset).
    pub expected: u64,
    /// Accumulated error flags (raw bits).
    pub flags: u8,
    /// Total delivered payload bytes.
    pub delivered_bytes: u64,
    /// Total duplicate bytes discarded.
    pub duplicate_bytes: u64,
    /// Total bytes skipped over as unfilled holes.
    pub gap_bytes: u64,
    /// Buffered out-of-order extents as `(relative offset, bytes)`,
    /// ascending and non-overlapping.
    pub segments: Vec<(u64, Vec<u8>)>,
}

/// One direction of a TCP stream.
#[derive(Debug)]
pub struct DirReassembler {
    cfg: ReasmConfig,
    /// Sequence number of stream byte 0 (ISN + 1). `None` until known.
    base_seq: Option<u32>,
    /// Relative offset of the next in-order byte.
    expected: u64,
    buffer: SegmentBuffer,
    /// Accumulated error flags.
    pub flags: ReasmFlags,
    /// Total delivered payload bytes.
    pub delivered_bytes: u64,
    /// Total duplicate bytes discarded.
    pub duplicate_bytes: u64,
    /// Total bytes skipped over as unfilled holes.
    pub gap_bytes: u64,
    /// Armed after a warm restart: the first segment past the frontier
    /// marks the blackout gap and is skipped over instead of stalling.
    resume_skip: bool,
}

impl DirReassembler {
    /// New direction with the given config.
    pub fn new(cfg: ReasmConfig) -> Self {
        DirReassembler {
            cfg,
            base_seq: None,
            expected: 0,
            buffer: SegmentBuffer::new(),
            flags: ReasmFlags::default(),
            delivered_bytes: 0,
            duplicate_bytes: 0,
            gap_bytes: 0,
            resume_skip: false,
        }
    }

    /// Sequence number of stream byte 0, if the direction is anchored.
    pub fn base_seq(&self) -> Option<u32> {
        self.base_seq
    }

    /// Buffered out-of-order extents as `(relative offset, bytes)`, in
    /// ascending offset order — borrowed, so a checkpoint writes them
    /// without copying them first.
    pub fn segments(&self) -> impl ExactSizeIterator<Item = (u64, &[u8])> {
        self.buffer.iter()
    }

    /// Rebuild a direction from a checkpointed [`DirState`], re-anchored
    /// at its committed offset with buffered extents reinstated.
    pub fn restore(cfg: ReasmConfig, st: &DirState) -> Self {
        let mut buffer = SegmentBuffer::new();
        for (off, data) in &st.segments {
            let _ = buffer.insert(*off, data, cfg.policy);
        }
        DirReassembler {
            cfg,
            base_seq: st.base_seq,
            expected: st.expected,
            buffer,
            flags: ReasmFlags(st.flags),
            delivered_bytes: st.delivered_bytes,
            duplicate_bytes: st.duplicate_bytes,
            gap_bytes: st.gap_bytes,
            resume_skip: false,
        }
    }

    /// Arm the resume-gap skip: the next segment landing beyond the
    /// frontier jumps over the blackout hole immediately (flagged as a
    /// SEQUENCE_GAP and counted in `gap_bytes`) instead of waiting for
    /// bytes that were lost while the capture process was down.
    pub fn arm_resume_skip(&mut self) {
        self.resume_skip = true;
    }

    /// Anchor the stream: `seq_of_first_byte` is ISN+1 after a SYN.
    pub fn set_base(&mut self, seq_of_first_byte: u32) {
        if self.base_seq.is_none() {
            self.base_seq = Some(seq_of_first_byte);
        }
    }

    /// True once the direction is anchored (SYN seen or midstream pickup).
    pub fn anchored(&self) -> bool {
        self.base_seq.is_some()
    }

    /// Next expected relative offset (== total in-order bytes delivered).
    pub fn expected(&self) -> u64 {
        self.expected
    }

    /// Bytes waiting in the out-of-order buffer.
    pub fn buffered_bytes(&self) -> usize {
        self.buffer.bytes()
    }

    /// Map a wire sequence number to a relative offset, choosing the
    /// unwrapping closest to the current frontier (exact for streams
    /// shorter than 2 GiB between wraps).
    fn rel_of(&self, seq: u32) -> u64 {
        let base = self.base_seq.expect("anchored before data");
        let low = u64::from(seq.wrapping_sub(base));
        // Candidates differing by 2^32; pick the one nearest `expected`.
        let anchor = self.expected;
        let k = anchor >> 32;
        let mut best = low.wrapping_add(k << 32);
        let mut best_d = best.abs_diff(anchor);
        for cand in [
            low.wrapping_add(k.saturating_sub(1) << 32),
            low.wrapping_add((k + 1) << 32),
        ] {
            let d = cand.abs_diff(anchor);
            if d < best_d {
                best = cand;
                best_d = d;
            }
        }
        best
    }

    /// Relative stream offset a wire sequence number corresponds to, if
    /// the direction is anchored. Used by the kernel to estimate the size
    /// of flows whose data packets were dropped at the NIC from the
    /// sequence numbers of their FIN/RST packets (§5.5).
    pub fn rel_offset_of(&self, seq: u32) -> Option<u64> {
        self.base_seq?;
        Some(self.rel_of(seq))
    }

    /// Process a data segment. In-order bytes (from this segment and any
    /// unblocked buffered ones) are passed to `sink(stream_offset, bytes)`
    /// in order.
    pub fn on_data(
        &mut self,
        seq: u32,
        payload: &[u8],
        sink: &mut impl FnMut(u64, &[u8]),
    ) -> DataOutcome {
        let mut out = DataOutcome::default();
        if payload.is_empty() {
            return out;
        }
        if self.base_seq.is_none() {
            // Midstream pickup: anchor at this segment.
            self.base_seq = Some(seq);
            self.flags.set(ReasmFlags::INCOMPLETE_HANDSHAKE);
        }
        let rel = self.rel_of(seq);
        let end = rel + payload.len() as u64;

        // Entirely in the past: retransmission of delivered data.
        if end <= self.expected {
            out.duplicate = payload.len() as u64;
            self.duplicate_bytes += out.duplicate;
            return out;
        }

        // Sanity window: a segment absurdly far ahead is treated as
        // invalid rather than buffered (anti-evasion, §2.3 normalization).
        const MAX_AHEAD: u64 = 1 << 30;
        if rel > self.expected + MAX_AHEAD {
            self.flags.set(ReasmFlags::INVALID_SEQUENCE);
            out.duplicate = payload.len() as u64;
            return out;
        }

        // Trim any prefix that was already delivered (old data wins for
        // delivered bytes in every policy: they are already in chunks).
        let (rel, payload) = if rel < self.expected {
            let skip = (self.expected - rel) as usize;
            out.duplicate += skip as u64;
            self.duplicate_bytes += skip as u64;
            (self.expected, &payload[skip..])
        } else {
            (rel, payload)
        };

        if self.resume_skip {
            // First segment after a warm restart. If it lands beyond the
            // committed frontier, the hole is the restart blackout: skip
            // it now rather than stalling on bytes the previous instance
            // took to its grave.
            self.resume_skip = false;
            if rel > self.expected {
                let gap = rel - self.expected;
                self.gap_bytes += gap;
                out.gap += gap;
                out.resume_gap += gap;
                out.gap_skipped = true;
                self.flags.set(ReasmFlags::SEQUENCE_GAP);
                self.expected = rel;
            }
        }

        if rel == self.expected {
            // In-order: deliver directly, then drain whatever unblocked.
            sink(rel, payload);
            out.delivered += payload.len() as u64;
            self.expected = rel + payload.len() as u64;
            if !self.buffer.is_empty() {
                // The segment may span buffered ones (a coalesced
                // retransmission): what the frontier passes loses to
                // the bytes just delivered, so nothing buffered is ever
                // at or below `expected`.
                let end = self.expected;
                let passed = self.buffer.discard_below(end);
                out.duplicate += passed;
                self.duplicate_bytes += passed;
                self.expected = self.buffer.drain_from(end, |o, d| sink(o, d));
                out.delivered += self.expected - end;
            }
            self.delivered_bytes += out.delivered;
            return out;
        }

        // Out of order: park it.
        let ins = self.buffer.insert(rel, payload, self.cfg.policy);
        if ins.inconsistent {
            self.flags.set(ReasmFlags::INCONSISTENT_OVERLAP);
        }
        out.buffered = ins.stored;
        out.duplicate += ins.duplicate;
        self.duplicate_bytes += ins.duplicate;

        // Buffer pressure: fast mode skips the hole; strict mode flags
        // overflow and sheds the buffer head to bound memory.
        while self.buffer.bytes() > self.cfg.max_ooo_bytes
            || self.buffer.len() > self.cfg.max_ooo_segments
        {
            match self.cfg.mode {
                ReassemblyMode::Fast => {
                    out.gap_skipped = true;
                    self.skip_gap(sink, &mut out);
                }
                ReassemblyMode::Strict => {
                    self.flags.set(ReasmFlags::BUFFER_OVERFLOW);
                    // Shed by skipping, like fast mode, but flag loudly:
                    // a strict-mode monitor must know coverage was lost.
                    out.gap_skipped = true;
                    self.skip_gap(sink, &mut out);
                }
            }
        }
        out
    }

    /// Jump the frontier to the first buffered byte, delivering what is
    /// buffered beyond the hole.
    fn skip_gap(&mut self, sink: &mut impl FnMut(u64, &[u8]), out: &mut DataOutcome) {
        let Some(first) = self.buffer.first_offset() else {
            return;
        };
        debug_assert!(first > self.expected);
        self.gap_bytes += first - self.expected;
        out.gap += first - self.expected;
        self.flags.set(ReasmFlags::SEQUENCE_GAP);
        let before = first;
        self.expected = self.buffer.drain_from(first, |o, d| sink(o, d));
        out.delivered += self.expected - before;
        self.delivered_bytes += self.expected - before;
    }

    /// Force out any buffered data (stream terminating): holes are
    /// skipped and flagged, buffered bytes delivered in order.
    pub fn flush(&mut self, sink: &mut impl FnMut(u64, &[u8])) -> u64 {
        let mut total = 0u64;
        while let Some(first) = self.buffer.first_offset() {
            if first > self.expected {
                self.gap_bytes += first - self.expected;
                self.flags.set(ReasmFlags::SEQUENCE_GAP);
            }
            let before = self.expected.max(first);
            self.expected = self.buffer.drain_from(first, |o, d| sink(o, d));
            total += self.expected - before;
        }
        self.delivered_bytes += total;
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fast() -> DirReassembler {
        DirReassembler::new(ReasmConfig::for_mode(ReassemblyMode::Fast))
    }

    fn strict() -> DirReassembler {
        DirReassembler::new(ReasmConfig::for_mode(ReassemblyMode::Strict))
    }

    fn run(r: &mut DirReassembler, segs: &[(u32, &[u8])]) -> Vec<u8> {
        let mut got = Vec::new();
        for (seq, data) in segs {
            r.on_data(*seq, data, &mut |_, d| got.extend_from_slice(d));
        }
        got
    }

    #[test]
    fn in_order_delivery() {
        let mut r = fast();
        r.set_base(1000);
        let got = run(&mut r, &[(1000, b"hello "), (1006, b"world")]);
        assert_eq!(got, b"hello world");
        assert_eq!(r.expected(), 11);
        assert!(r.flags.is_clean());
    }

    #[test]
    fn reordering_is_fixed_by_buffering() {
        let mut r = fast();
        r.set_base(0);
        let got = run(&mut r, &[(0, b"AA"), (4, b"CC"), (2, b"BB"), (6, b"DD")]);
        assert_eq!(got, b"AABBCCDD");
        assert!(r.flags.is_clean());
        assert_eq!(r.buffered_bytes(), 0);
    }

    #[test]
    fn retransmission_discarded() {
        let mut r = fast();
        r.set_base(0);
        let mut got = Vec::new();
        r.on_data(0, b"abcd", &mut |_, d| got.extend_from_slice(d));
        let out = r.on_data(0, b"abcd", &mut |_, d| got.extend_from_slice(d));
        assert_eq!(out.duplicate, 4);
        assert_eq!(out.delivered, 0);
        assert_eq!(got, b"abcd");
        assert_eq!(r.duplicate_bytes, 4);
    }

    #[test]
    fn partial_retransmission_delivers_only_new_suffix() {
        let mut r = fast();
        r.set_base(0);
        let mut got = Vec::new();
        r.on_data(0, b"abcd", &mut |_, d| got.extend_from_slice(d));
        // Segment re-covers 2..4 and extends to 6.
        let out = r.on_data(2, b"cdEF", &mut |_, d| got.extend_from_slice(d));
        assert_eq!(out.delivered, 2);
        assert_eq!(out.duplicate, 2);
        assert_eq!(got, b"abcdEF");
    }

    #[test]
    fn fast_mode_skips_unfilled_holes_under_pressure() {
        let mut r = DirReassembler::new(ReasmConfig {
            mode: ReassemblyMode::Fast,
            policy: OverlapPolicy::First,
            max_ooo_bytes: 8,
            max_ooo_segments: 64,
        });
        r.set_base(0);
        let mut got = Vec::new();
        // Byte 0..2 never arrives; buffered data exceeds the 8-byte cap.
        r.on_data(2, b"BBBB", &mut |_, d| got.extend_from_slice(d));
        assert!(got.is_empty());
        let out = r.on_data(6, b"CCCCCC", &mut |_, d| got.extend_from_slice(d));
        assert!(out.gap_skipped);
        assert_eq!(got, b"BBBBCCCCCC");
        assert!(r.flags.contains(ReasmFlags::SEQUENCE_GAP));
        assert_eq!(r.gap_bytes, 2);
        assert_eq!(r.expected(), 12);
    }

    #[test]
    fn strict_mode_waits_for_holes() {
        let mut r = strict();
        r.set_base(0);
        let mut got = Vec::new();
        r.on_data(2, b"BBBB", &mut |_, d| got.extend_from_slice(d));
        r.on_data(6, b"CCCC", &mut |_, d| got.extend_from_slice(d));
        assert!(got.is_empty());
        assert_eq!(r.buffered_bytes(), 8);
        // The hole fills: everything drains.
        r.on_data(0, b"AA", &mut |_, d| got.extend_from_slice(d));
        assert_eq!(got, b"AABBBBCCCC");
        assert!(r.flags.is_clean());
    }

    #[test]
    fn strict_mode_overflow_flags_and_sheds() {
        let mut r = DirReassembler::new(ReasmConfig {
            mode: ReassemblyMode::Strict,
            policy: OverlapPolicy::First,
            max_ooo_bytes: 4,
            max_ooo_segments: 64,
        });
        r.set_base(0);
        let mut got = Vec::new();
        r.on_data(10, b"XXXXXXXX", &mut |_, d| got.extend_from_slice(d));
        assert!(r.flags.contains(ReasmFlags::BUFFER_OVERFLOW));
        assert!(r.flags.contains(ReasmFlags::SEQUENCE_GAP));
        assert_eq!(got, b"XXXXXXXX");
    }

    #[test]
    fn flush_delivers_buffered_tail() {
        let mut r = strict();
        r.set_base(0);
        let mut got = Vec::new();
        r.on_data(0, b"AA", &mut |_, d| got.extend_from_slice(d));
        r.on_data(4, b"CC", &mut |_, d| got.extend_from_slice(d));
        assert_eq!(got, b"AA");
        let n = r.flush(&mut |_, d| got.extend_from_slice(d));
        assert_eq!(n, 2);
        assert_eq!(got, b"AACC");
        assert!(r.flags.contains(ReasmFlags::SEQUENCE_GAP));
    }

    #[test]
    fn sequence_wraparound_handled() {
        let base = u32::MAX - 3;
        let mut r = fast();
        r.set_base(base);
        let mut got = Vec::new();
        r.on_data(base, b"abcd", &mut |_, d| got.extend_from_slice(d)); // crosses wrap
        r.on_data(0, b"efgh", &mut |_, d| got.extend_from_slice(d)); // post-wrap seq 0
        assert_eq!(got, b"abcdefgh");
        assert_eq!(r.expected(), 8);
    }

    #[test]
    fn absurd_sequence_flagged_invalid() {
        let mut r = fast();
        r.set_base(0);
        let mut got = Vec::new();
        let out = r.on_data(0x7000_0000, b"evil", &mut |_, d| got.extend_from_slice(d));
        assert_eq!(out.delivered, 0);
        assert!(r.flags.contains(ReasmFlags::INVALID_SEQUENCE));
        assert!(got.is_empty());
    }

    #[test]
    fn midstream_pickup_flags_handshake() {
        let mut r = fast();
        let mut got = Vec::new();
        r.on_data(5555, b"data", &mut |_, d| got.extend_from_slice(d));
        assert_eq!(got, b"data");
        assert!(r.flags.contains(ReasmFlags::INCOMPLETE_HANDSHAKE));
    }

    #[test]
    fn offsets_reported_to_sink_are_stream_offsets() {
        let mut r = fast();
        r.set_base(100);
        let mut offs = Vec::new();
        r.on_data(100, b"ab", &mut |o, _| offs.push(o));
        r.on_data(104, b"ef", &mut |o, _| offs.push(o));
        r.on_data(102, b"cd", &mut |o, _| offs.push(o));
        assert_eq!(offs, vec![0, 2, 4]);
    }

    proptest! {
        /// Random segmentations with duplicates and reordering of a
        /// consistent source always reassemble exactly in strict mode,
        /// and in fast mode when within the buffering tolerance.
        #[test]
        fn reassembles_consistent_source(
            source in proptest::collection::vec(any::<u8>(), 1..600),
            seed: u64,
            strict_mode: bool,
        ) {
            let mut segs: Vec<(u32, Vec<u8>)> = Vec::new();
            let mut off = 0usize;
            let mut st = seed;
            let mut next = |m: usize| {
                st = st.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (st >> 33) as usize % m
            };
            while off < source.len() {
                let len = 1 + next(40).min(source.len() - off - 1);
                let len = len.min(source.len() - off);
                segs.push((off as u32, source[off..off+len].to_vec()));
                // Occasional duplicate.
                if next(5) == 0 {
                    segs.push((off as u32, source[off..off+len].to_vec()));
                }
                off += len;
            }
            // Local shuffle: swap adjacent pairs (bounded reordering that
            // stays within fast mode's tolerance).
            for i in 1..segs.len() {
                if next(3) == 0 {
                    segs.swap(i - 1, i);
                }
            }
            let mode = if strict_mode { ReassemblyMode::Strict } else { ReassemblyMode::Fast };
            let mut r = DirReassembler::new(ReasmConfig::for_mode(mode));
            r.set_base(0);
            let mut got = Vec::new();
            for (seq, d) in &segs {
                r.on_data(*seq, d, &mut |_, b| got.extend_from_slice(b));
            }
            r.flush(&mut |_, b| got.extend_from_slice(b));
            prop_assert_eq!(got, source);
            prop_assert!(!r.flags.contains(ReasmFlags::INCONSISTENT_OVERLAP));
        }
    }
}
