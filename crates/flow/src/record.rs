//! Stream records: the `stream_t` of the paper.

use scap_wire::{Direction, FlowKey};

/// Opaque stream handle: index into the record pool plus a generation
/// counter so stale handles never alias a recycled slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId {
    pub(crate) slot: u32,
    pub(crate) generation: u32,
}

impl StreamId {
    /// The pool slot: a dense index, for arrays kept per stream (valid
    /// while the stream lives).
    pub fn slot(&self) -> usize {
        self.slot as usize
    }
}

/// Stream lifecycle status (`sd->status`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StreamStatus {
    /// Packets are still expected.
    #[default]
    Active,
    /// Closed by FIN handshake.
    ClosedFin,
    /// Closed by RST.
    ClosedRst,
    /// Expired by inactivity timeout.
    ClosedTimeout,
}

impl StreamStatus {
    /// True when the stream is finished.
    pub fn is_closed(&self) -> bool {
        !matches!(self, StreamStatus::Active)
    }
}

/// Reassembly/protocol error flags (`sd->error`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamErrors(pub u8);

impl StreamErrors {
    /// No three-way handshake was observed before data.
    pub const INCOMPLETE_HANDSHAKE: StreamErrors = StreamErrors(0x01);
    /// A sequence-number hole was skipped (fast mode under loss).
    pub const SEQUENCE_GAP: StreamErrors = StreamErrors(0x02);
    /// Overlapping segments disagreed about payload bytes.
    pub const INCONSISTENT_OVERLAP: StreamErrors = StreamErrors(0x04);
    /// A segment had an out-of-window / invalid sequence number.
    pub const INVALID_SEQUENCE: StreamErrors = StreamErrors(0x08);
    /// A worker thread processing this stream died or stalled; events may
    /// have been lost while the watchdog recovered.
    pub const WORKER_FAILURE: StreamErrors = StreamErrors(0x10);
    /// The stream survived a warm restart: it was restored from a
    /// checkpoint, and packets arriving during the restart blackout were
    /// lost (see `resume_gap_bytes` on the record).
    pub const RESUMED: StreamErrors = StreamErrors(0x20);

    /// Set the given flag(s).
    pub fn set(&mut self, e: StreamErrors) {
        self.0 |= e.0;
    }

    /// True when the given flag(s) are all set.
    pub fn contains(&self, e: StreamErrors) -> bool {
        self.0 & e.0 == e.0
    }

    /// True when no error has been recorded.
    pub fn is_clean(&self) -> bool {
        self.0 == 0
    }
}

/// Per-direction byte/packet counters (the paper's "all, dropped,
/// discarded, and captured" accounting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirStats {
    /// Everything observed on the wire for this direction.
    pub total_pkts: u64,
    /// Total wire bytes (frame lengths).
    pub total_bytes: u64,
    /// Payload bytes accepted into the stream buffer.
    pub captured_bytes: u64,
    /// Packets whose payload was accepted.
    pub captured_pkts: u64,
    /// Packets deliberately not kept (cutoff, duplicates, filters).
    pub discarded_pkts: u64,
    /// Bytes deliberately not kept.
    pub discarded_bytes: u64,
    /// Packets lost to overload (memory/queue pressure).
    pub dropped_pkts: u64,
    /// Bytes lost to overload.
    pub dropped_bytes: u64,
}

/// A tracked stream: one bidirectional transport flow.
///
/// The paper materializes one `stream_t` per direction with a pointer to
/// its opposite; here the two directions live in one record (`dirs[0]` is
/// the canonical [`Direction::Forward`]), which makes the opposite-
/// direction link free and keeps both halves on one cache line group.
#[derive(Debug, Clone)]
pub struct StreamRecord {
    /// Handle of this record.
    pub id: StreamId,
    /// Canonical (direction-independent) flow key.
    pub key: FlowKey,
    /// Direction of the first observed packet relative to `key`; the API
    /// layer uses it to present client/server orientation.
    pub first_dir: Direction,
    /// Timestamp of the first packet (ns).
    pub first_ts_ns: u64,
    /// Timestamp of the most recent packet (ns).
    pub last_ts_ns: u64,
    /// Lifecycle status.
    pub status: StreamStatus,
    /// Error flags accumulated by reassembly.
    pub errors: StreamErrors,
    /// Application-assigned priority (0 = lowest). Used by PPL.
    pub priority: u8,
    /// Per-direction stream cutoff in payload bytes (`None` = unlimited).
    pub cutoff: [Option<u64>; 2],
    /// True once a cutoff was exceeded (stream stays tracked for stats).
    pub cutoff_exceeded: bool,
    /// The application asked to discard the rest of this stream.
    pub discarded: bool,
    /// Per-direction counters.
    pub dirs: [DirStats; 2],
    /// Chunk size override (0 = socket default).
    pub chunk_size: u32,
    /// Chunk overlap override.
    pub overlap: u32,
    /// Per-stream reassembly-policy override (target-based reassembly);
    /// `None` follows the socket default.
    pub reassembly_policy: Option<u8>,
    /// Cumulative user-level processing time charged to this stream (ns);
    /// lets applications spot algorithmic-complexity attacks (§3.2).
    pub processing_time_ns: u64,
    /// Number of chunks delivered so far.
    pub chunks: u64,
    /// Payload bytes skipped over the warm-restart blackout window
    /// (0 for streams that never crossed a restart). Bounded by the
    /// checkpoint interval worth of traffic.
    pub resume_gap_bytes: u64,
    // Intrusive access-list links (most-recently-used list).
    pub(crate) lru_prev: Option<u32>,
    pub(crate) lru_next: Option<u32>,
}

impl StreamRecord {
    pub(crate) fn new(id: StreamId, key: FlowKey, first_dir: Direction, now: u64) -> Self {
        StreamRecord {
            id,
            key,
            first_dir,
            first_ts_ns: now,
            last_ts_ns: now,
            status: StreamStatus::Active,
            errors: StreamErrors::default(),
            priority: 0,
            cutoff: [None, None],
            cutoff_exceeded: false,
            discarded: false,
            dirs: [DirStats::default(), DirStats::default()],
            chunk_size: 0,
            overlap: 0,
            reassembly_policy: None,
            processing_time_ns: 0,
            chunks: 0,
            resume_gap_bytes: 0,
            lru_prev: None,
            lru_next: None,
        }
    }

    /// Total wire bytes over both directions.
    pub fn total_bytes(&self) -> u64 {
        self.dirs[0].total_bytes + self.dirs[1].total_bytes
    }

    /// Total packets over both directions.
    pub fn total_pkts(&self) -> u64 {
        self.dirs[0].total_pkts + self.dirs[1].total_pkts
    }

    /// Captured payload bytes over both directions.
    pub fn captured_bytes(&self) -> u64 {
        self.dirs[0].captured_bytes + self.dirs[1].captured_bytes
    }

    /// The effective cutoff for a direction.
    pub fn cutoff_for(&self, dir: Direction) -> Option<u64> {
        self.cutoff[dir.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scap_wire::Transport;

    fn rec() -> StreamRecord {
        let key = FlowKey::new_v4([1, 2, 3, 4], [5, 6, 7, 8], 10, 20, Transport::Tcp);
        StreamRecord::new(
            StreamId {
                slot: 0,
                generation: 1,
            },
            key,
            Direction::Forward,
            42,
        )
    }

    #[test]
    fn new_record_is_active_and_clean() {
        let r = rec();
        assert_eq!(r.status, StreamStatus::Active);
        assert!(!r.status.is_closed());
        assert!(r.errors.is_clean());
        assert_eq!(r.first_ts_ns, 42);
        assert_eq!(r.total_bytes(), 0);
    }

    #[test]
    fn error_flags_accumulate() {
        let mut r = rec();
        r.errors.set(StreamErrors::SEQUENCE_GAP);
        r.errors.set(StreamErrors::INCOMPLETE_HANDSHAKE);
        assert!(r.errors.contains(StreamErrors::SEQUENCE_GAP));
        assert!(r.errors.contains(StreamErrors::INCOMPLETE_HANDSHAKE));
        assert!(!r.errors.contains(StreamErrors::INVALID_SEQUENCE));
        assert!(!r.errors.is_clean());
    }

    #[test]
    fn per_direction_cutoffs() {
        let mut r = rec();
        r.cutoff[Direction::Forward.index()] = Some(100);
        assert_eq!(r.cutoff_for(Direction::Forward), Some(100));
        assert_eq!(r.cutoff_for(Direction::Reverse), None);
    }

    #[test]
    fn aggregates_sum_both_directions() {
        let mut r = rec();
        r.dirs[0].total_bytes = 10;
        r.dirs[1].total_bytes = 5;
        r.dirs[0].total_pkts = 2;
        r.dirs[1].total_pkts = 1;
        r.dirs[0].captured_bytes = 7;
        assert_eq!(r.total_bytes(), 15);
        assert_eq!(r.total_pkts(), 3);
        assert_eq!(r.captured_bytes(), 7);
    }

    #[test]
    fn closed_statuses() {
        for s in [
            StreamStatus::ClosedFin,
            StreamStatus::ClosedRst,
            StreamStatus::ClosedTimeout,
        ] {
            assert!(s.is_closed());
        }
        assert!(!StreamStatus::Active.is_closed());
    }
}
