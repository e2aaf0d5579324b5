#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # scap-store
//!
//! A persistent, cutoff- and priority-aware **stream archive** for the
//! Scap reproduction: the subsystem that turns "observe streams in
//! flight" into "capture once, analyze many times".
//!
//! * [`StoreWriter`] plugs into the core dispatch path (stream creation,
//!   data delivery, termination — via [`scap::EventSink`] on the live
//!   driver through [`SharedStoreWriter`], or [`StoreWriter::observe`]
//!   on a synchronous kernel drive) and persists each stream's
//!   reassembled bytes into append-only, CRC-checksummed segment files,
//!   with a per-stream [`IndexRecord`] (canonical 5-tuple, timestamps,
//!   byte/packet counters, status + error flags, priority, segment
//!   extents) in a sidecar index.
//! * Durability is by write ordering: payload frames are flushed before
//!   their index record, so a crash loses at most an uncommitted tail.
//!   Reopening with [`StoreWriter::open`] scans back to the last valid
//!   frame/record and truncates the torn tail (counted in
//!   [`StoreStats::torn_tail_bytes_recovered`]).
//! * Retention mirrors the paper's Prioritized Packet Loss on disk: when
//!   a disk budget is exceeded, the lowest-priority / most-truncated /
//!   oldest streams are tombstoned first, and [`StoreWriter::compact`]
//!   rewrites segments to reclaim their bytes.
//! * [`StoreReader`] answers queries from the index alone — iteration,
//!   5-tuple point lookup, time-range scans, and `scap-filter` BPF
//!   expressions — and only touches payload segments for
//!   [`StoreReader::read_stream`], [`StoreReader::verify`], and pcap
//!   export via `scap-trace`.
//!
//! Fault injection (torn appends, mid-write kills) comes from
//! `scap-faults`; writer counters and seal spans land in
//! `scap-telemetry`. The `scapstore` CLI in `scap-bench` fronts all of
//! it.

pub mod federated;
mod format;
mod reader;
#[cfg(test)]
mod tests;
mod writer;

pub use federated::{FederatedReader, FederatedResult, ShardOutcome, ShardQueryStatus};
pub use format::{
    crc32, decode_body, encode_stream_body, encode_tombstone_body, parse_segment_file_name,
    scan_index, scan_segment, segment_file_name, segment_path, Extent, FrameInfo, IndexEntry,
    IndexRecord, IndexScan, SegmentScan, FORMAT_VERSION, INDEX_FILE,
};
pub use reader::{StoreReader, VerifyReport};
pub use writer::{PriorityStats, SharedStoreWriter, StoreConfig, StoreStats, StoreWriter};

/// Errors from archive I/O.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// On-disk structure is invalid beyond a recoverable torn tail.
    Corrupt(String),
    /// An injected fault (torn append or kill) stopped the writer; the
    /// archive is still readable up to the last committed record.
    Injected(scap_faults::StoreFault),
    /// The writer already died to an injected fault; no further writes
    /// are accepted.
    Dead,
}

impl core::fmt::Display for StoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "archive i/o error: {e}"),
            StoreError::Corrupt(s) => write!(f, "archive corrupt: {s}"),
            StoreError::Injected(k) => write!(f, "injected store fault: {k:?}"),
            StoreError::Dead => write!(f, "store writer is dead (injected fault)"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<scap::CheckpointError> for StoreError {
    fn from(e: scap::CheckpointError) -> Self {
        match e {
            scap::CheckpointError::Io(io) => StoreError::Io(io),
            other => StoreError::Corrupt(other.to_string()),
        }
    }
}

impl From<scap_trace::TraceError> for StoreError {
    fn from(e: scap_trace::TraceError) -> Self {
        match e {
            scap_trace::TraceError::Io(io) => StoreError::Io(io),
            other => StoreError::Corrupt(other.to_string()),
        }
    }
}
