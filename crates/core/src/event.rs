//! Events delivered from the kernel module to user level.
//!
//! The paper avoids races between the kernel module and the application
//! by keeping a second `stream_t` instance that the kernel updates just
//! before enqueueing an event (§5.4). [`StreamSnapshot`] is that second
//! instance: an owned copy of the descriptor fields, consistent at event
//! time, handed to the callback.

use scap_flow::{DirStats, StreamErrors, StreamStatus};
use scap_memory::ChunkBuf;
use scap_wire::{Direction, FlowKey};

/// A stable identifier for a stream across the whole capture (unique over
/// all cores, never recycled).
pub type StreamUid = u64;

/// A stream as a control operation names it: its uid and its canonical
/// flow key, which every snapshot of it carries. The kernel finds the
/// stream by the key, in the flow table it lives in, and acts only where
/// that slot holds the uid, so an operation on a stream that ended — its
/// 5-tuple perhaps reused since — reaches nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamRef {
    /// Capture-wide stream id.
    pub uid: StreamUid,
    /// Canonical flow key.
    pub key: FlowKey,
}

impl From<&StreamSnapshot> for StreamRef {
    fn from(s: &StreamSnapshot) -> Self {
        StreamRef {
            uid: s.uid,
            key: s.key,
        }
    }
}

/// Per-packet record for packet delivery (§5.7): metadata plus the
/// location of the packet's payload inside the delivered chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketRecord {
    /// Capture timestamp.
    pub ts_ns: u64,
    /// Wire length of the packet.
    pub wire_len: u32,
    /// Payload length stored in the chunk.
    pub payload_len: u32,
    /// Offset of this packet's payload within the chunk data
    /// (`u32::MAX` when the payload did not land in this chunk, e.g.
    /// duplicates that were discarded).
    pub chunk_off: u32,
}

/// The consistent descriptor copy delivered with every event.
#[derive(Debug, Clone)]
pub struct StreamSnapshot {
    /// Capture-wide stream id.
    pub uid: StreamUid,
    /// Canonical flow key.
    pub key: FlowKey,
    /// Direction of the stream's first packet relative to `key` (the
    /// client→server orientation for connections whose SYN was seen).
    pub first_dir: Direction,
    /// Lifecycle status at event time.
    pub status: StreamStatus,
    /// Reassembly error flags (`sd->error`).
    pub errors: StreamErrors,
    /// Stream priority.
    pub priority: u8,
    /// Whether the cutoff has been exceeded.
    pub cutoff_exceeded: bool,
    /// Per-direction counters (all/captured/discarded/dropped).
    pub dirs: [DirStats; 2],
    /// First-packet timestamp.
    pub first_ts_ns: u64,
    /// Last-packet timestamp at event time.
    pub last_ts_ns: u64,
    /// Chunks delivered so far (`sd->chunks`).
    pub chunks: u64,
    /// Cumulative processing time previously charged
    /// (`sd->processing_time`). An image field carried through: nothing
    /// here charges the §3.2 processing time, so it is 0 unless a
    /// restored checkpoint image carried a value.
    pub processing_time_ns: u64,
    /// Bytes skipped in the warm-restart blackout window (non-zero only
    /// on streams carrying [`StreamErrors::RESUMED`]).
    pub resume_gap_bytes: u64,
}

impl StreamSnapshot {
    /// Human-readable status (for log lines in examples).
    pub fn status_str(&self) -> &'static str {
        match self.status {
            StreamStatus::Active => "active",
            StreamStatus::ClosedFin => "closed(fin)",
            StreamStatus::ClosedRst => "closed(rst)",
            StreamStatus::ClosedTimeout => "closed(timeout)",
        }
    }

    /// Total wire bytes both directions.
    pub fn total_bytes(&self) -> u64 {
        self.dirs[0].total_bytes + self.dirs[1].total_bytes
    }

    /// Total packets both directions.
    pub fn total_pkts(&self) -> u64 {
        self.dirs[0].total_pkts + self.dirs[1].total_pkts
    }
}

/// Event payloads.
#[derive(Debug)]
pub enum EventKind {
    /// A new stream was created.
    Created,
    /// Stream data is available: a chunk of reassembled payload.
    Data {
        /// Which direction the data belongs to.
        dir: Direction,
        /// The chunk (owned block from the arena; return it via
        /// `release_chunk` after processing).
        chunk: ChunkBuf,
        /// Per-packet records when `need_pkts` was set.
        packets: Vec<PacketRecord>,
    },
    /// The stream terminated (FIN, RST, or inactivity timeout).
    Terminated,
}

/// One event from kernel to user.
#[derive(Debug)]
pub struct Event {
    /// Descriptor snapshot, consistent at enqueue time.
    pub stream: StreamSnapshot,
    /// The payload.
    pub kind: EventKind,
    /// Core (event queue) this event was produced on.
    pub core: usize,
    /// NIC-ingress timestamp (trace clock) of the packet that produced
    /// this event; timer-generated events carry the timer tick. The
    /// pulse plane measures kernel-dispatch and delivery latency
    /// against this.
    pub ingress_ns: u64,
    /// Trace-clock time this event was enqueued on its per-core queue.
    pub enqueued_ns: u64,
}

impl Event {
    /// Bytes of chunk data carried (0 for non-data events).
    pub fn data_len(&self) -> usize {
        match &self.kind {
            EventKind::Data { chunk, .. } => chunk.len(),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scap_wire::Transport;

    #[test]
    fn snapshot_aggregates() {
        let mut dirs = [DirStats::default(), DirStats::default()];
        dirs[0].total_bytes = 10;
        dirs[1].total_bytes = 32;
        dirs[0].total_pkts = 1;
        dirs[1].total_pkts = 2;
        let s = StreamSnapshot {
            uid: 1,
            key: FlowKey::new_v4([1, 1, 1, 1], [2, 2, 2, 2], 1, 2, Transport::Tcp),
            first_dir: Direction::Forward,
            status: StreamStatus::Active,
            errors: StreamErrors::default(),
            priority: 0,
            cutoff_exceeded: false,
            dirs,
            first_ts_ns: 0,
            last_ts_ns: 9,
            chunks: 0,
            processing_time_ns: 0,
            resume_gap_bytes: 0,
        };
        assert_eq!(s.total_bytes(), 42);
        assert_eq!(s.total_pkts(), 3);
    }
}
