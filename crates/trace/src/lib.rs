#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # scap-trace
//!
//! Traffic for the monitoring stacks: trace representation, libpcap-format
//! file I/O, a seeded synthetic *campus-mix* generator standing in for the
//! paper's 46 GB university trace, the adversarial *concurrent-streams*
//! workload of Fig. 5, and rate-controlled replay.
//!
//! The paper replays a one-hour trace (58,714,906 packets, 1,493,032
//! flows, > 46 GB, 95.4 % TCP) at 0.25–6 Gbit/s. The generator in
//! [`gen`] reproduces the aggregate properties every experiment actually
//! depends on — heavy-tailed flow sizes, high TCP byte share, ~840-byte
//! mean packet size, a configurable port-80 packet share — at any target
//! trace size, and [`replay`] rescales timestamps to any target bit rate.

pub mod amplify;
pub mod concurrent;
pub mod gen;
pub mod pcap;
pub mod replay;
pub mod stats;

pub use amplify::{Amplifier, AmplifyConfig};
pub use gen::{CampusMix, CampusMixConfig};
pub use replay::RateReplay;
pub use stats::TraceStats;

use std::sync::Arc;

/// A cheaply-clonable, immutable byte buffer (reference-counted).
///
/// Stands in for `bytes::Bytes` with the subset of behaviour the
/// workspace relies on: shared ownership, `Deref` to `[u8]`, and
/// equality by contents. Frames are immutable once captured, so the
/// slicing machinery of the real crate is unnecessary.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Bytes(Arc<[u8]>);

impl Bytes {
    /// Length in bytes.
    #[allow(clippy::len_without_is_empty)] // is_empty comes via Deref.
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes(v.into())
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes(v.into())
    }
}

impl core::ops::Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// One captured packet: a timestamp and an owned frame.
///
/// Frames are reference-counted ([`Bytes`]), so fanning a packet out to
/// several capture stacks (every comparison experiment does this) never
/// copies frame data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Capture timestamp in nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// The full L2 frame.
    pub frame: Bytes,
}

impl Packet {
    /// Construct from an owned frame buffer.
    pub fn new(ts_ns: u64, frame: Vec<u8>) -> Self {
        Packet {
            ts_ns,
            frame: Bytes::from(frame),
        }
    }

    /// Frame length in bytes (the wire length; nothing is truncated).
    pub fn len(&self) -> usize {
        self.frame.len()
    }

    /// True when the frame is empty (never produced by the generator).
    pub fn is_empty(&self) -> bool {
        self.frame.is_empty()
    }
}

/// Errors from trace I/O.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with a pcap magic number.
    BadMagic(u32),
    /// A record header is inconsistent (e.g. larger than the snap length).
    BadRecord(String),
}

impl core::fmt::Display for TraceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "i/o error: {e}"),
            TraceError::BadMagic(m) => write!(f, "not a pcap file (magic {m:#010x})"),
            TraceError::BadRecord(s) => write!(f, "bad pcap record: {s}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_clone_shares_frame_storage() {
        let p = Packet::new(1, vec![1, 2, 3]);
        let q = p.clone();
        // Bytes clones share the same backing allocation.
        assert_eq!(p.frame.as_ptr(), q.frame.as_ptr());
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
    }
}
