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
    /// lost (see the stream's `resume_gap_bytes`).
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
/// discarded, and captured" accounting), as events and images show them.
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

/// The counters of one direction that every flow's packets move:
/// [`DirStats`] without `captured_*`, which only a stream that carries
/// segments moves and keeps with its segments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirCounters {
    /// Everything observed on the wire for this direction.
    pub total_pkts: u64,
    /// Total wire bytes (frame lengths).
    pub total_bytes: u64,
    /// Packets deliberately not kept (cutoff, duplicates, filters).
    pub discarded_pkts: u64,
    /// Bytes deliberately not kept.
    pub discarded_bytes: u64,
    /// Packets lost to overload (memory/queue pressure); a PPL drop
    /// happens before any segment is kept, so these stay here.
    pub dropped_pkts: u64,
    /// Bytes lost to overload.
    pub dropped_bytes: u64,
}

impl DirCounters {
    /// The full [`DirStats`], given the direction's captured packets
    /// and bytes.
    pub fn with_captured(&self, captured_pkts: u64, captured_bytes: u64) -> DirStats {
        DirStats {
            total_pkts: self.total_pkts,
            total_bytes: self.total_bytes,
            captured_bytes,
            captured_pkts,
            discarded_pkts: self.discarded_pkts,
            discarded_bytes: self.discarded_bytes,
            dropped_pkts: self.dropped_pkts,
            dropped_bytes: self.dropped_bytes,
        }
    }
}

impl From<&DirStats> for DirCounters {
    /// The counters of `d` the record keeps (its `captured_*` aside).
    fn from(d: &DirStats) -> Self {
        DirCounters {
            total_pkts: d.total_pkts,
            total_bytes: d.total_bytes,
            discarded_pkts: d.discarded_pkts,
            discarded_bytes: d.discarded_bytes,
            dropped_pkts: d.dropped_pkts,
            dropped_bytes: d.dropped_bytes,
        }
    }
}

/// A tracked stream: one bidirectional transport flow.
///
/// The paper materializes one `stream_t` per direction with a pointer to
/// its opposite; here the two directions live in one record (`dirs[0]` is
/// the canonical [`Direction::Forward`]), which makes the opposite-
/// direction link free and keeps both halves on one cache line group.
///
/// The record holds only what every flow's packets move. Its handle is
/// the slot's position and generation ([`StreamId`]), its access-list
/// links are the table's, and what a stream moves only once it carries
/// segments (captured counts, chunks), or only once an application
/// overrides it (cutoff, chunk geometry), is kept by the table's owner
/// with the stream's segments. A header-only flow costs this much.
#[derive(Debug, Clone)]
pub struct StreamRecord {
    /// Canonical (direction-independent) flow key.
    pub key: FlowKey,
    /// Timestamp of the first packet (ns).
    pub first_ts_ns: u64,
    /// Timestamp of the most recent packet (ns).
    pub last_ts_ns: u64,
    /// Per-direction counters.
    pub dirs: [DirCounters; 2],
    /// Direction of the first observed packet relative to `key`; the API
    /// layer uses it to present client/server orientation.
    pub first_dir: Direction,
    /// Lifecycle status.
    pub status: StreamStatus,
    /// Error flags accumulated by reassembly.
    pub errors: StreamErrors,
    /// Application-assigned priority (0 = lowest). Used by PPL.
    pub priority: u8,
    /// True once a cutoff was exceeded (stream stays tracked for stats).
    pub cutoff_exceeded: bool,
    /// The application asked to discard the rest of this stream.
    pub discarded: bool,
    /// Which cutoff class of its owner's policy the stream's key matched
    /// ([`StreamRecord::NO_CLASS`]: none); the policy gives it a cutoff.
    pub cutoff_class: u16,
}

// One record per tracked flow, inline in the table's slot: growing it is
// a deliberate decision, not a side effect.
const _: () = assert!(std::mem::size_of::<StreamRecord>() <= 160);

impl StreamRecord {
    /// [`StreamRecord::cutoff_class`] of a stream no class matched.
    pub const NO_CLASS: u16 = u16::MAX;

    pub(crate) fn new(key: FlowKey, first_dir: Direction, now: u64) -> Self {
        StreamRecord {
            key,
            first_ts_ns: now,
            last_ts_ns: now,
            dirs: [DirCounters::default(); 2],
            first_dir,
            status: StreamStatus::Active,
            errors: StreamErrors::default(),
            priority: 0,
            cutoff_exceeded: false,
            discarded: false,
            cutoff_class: Self::NO_CLASS,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use scap_wire::Transport;

    fn rec() -> StreamRecord {
        let key = FlowKey::new_v4([1, 2, 3, 4], [5, 6, 7, 8], 10, 20, Transport::Tcp);
        StreamRecord::new(key, Direction::Forward, 42)
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
    fn aggregates_sum_both_directions() {
        let mut r = rec();
        r.dirs[0].total_bytes = 10;
        r.dirs[1].total_bytes = 5;
        r.dirs[0].total_pkts = 2;
        r.dirs[1].total_pkts = 1;
        assert_eq!(r.total_bytes(), 15);
        assert_eq!(r.total_pkts(), 3);
        let full = r.dirs[0].with_captured(1, 7);
        assert_eq!((full.total_bytes, full.captured_bytes), (10, 7));
        assert_eq!(DirCounters::from(&full), r.dirs[0]);
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
