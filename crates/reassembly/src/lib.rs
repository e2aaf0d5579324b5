#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # scap-reassembly
//!
//! TCP stream reassembly (§2.3 and §5.2 of the paper): the engine that
//! turns raw segments into in-order byte streams, in two modes:
//!
//! * **Strict** (`SCAP_TCP_STRICT`) — segments are reassembled according
//!   to the robust-reassembly guidelines: out-of-order data is buffered
//!   until the hole fills, protecting against TCP-segmentation evasion.
//! * **Fast** (`SCAP_TCP_FAST`) — best-effort: retransmissions,
//!   reordering and overlaps are handled like strict mode, but a hole
//!   that does not fill within a small buffering tolerance is *skipped*
//!   so processing never stalls behind lost packets; the affected range
//!   is flagged so applications know the chunk had errors.
//!
//! Overlapping segments are resolved by a **target-based policy**
//! ([`OverlapPolicy`]) in the spirit of Shankar & Paxson's active mapping
//! and Snort's Stream5: different host stacks keep different bytes when
//! segments overlap, and a monitor must mimic the stack of the traffic's
//! real destination to avoid evasion. Policies are applied per
//! overlapping pair at byte granularity; `First`-family and
//! `Last`-family behaviour plus the BSD start-offset rule cover the
//! published policy matrix (see DESIGN.md for the mapping).
//!
//! The crate is pure: no I/O, no allocation beyond the out-of-order
//! buffer, and every delivery happens through a caller-supplied sink —
//! the Scap kernel module copies delivered bytes straight into
//! stream-specific chunks, which is the paper's single-copy claim.

pub mod conn;
pub mod dir;
pub mod segbuf;

pub use conn::{CloseKind, ConnCheckpoint, ConnPhase, SegOutcome, TcpConn};
pub use dir::{DirReassembler, DirState, ReasmConfig};
pub use segbuf::SegmentBuffer;

/// Reassembly mode (the `reassembly_mode` of `scap_create`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReassemblyMode {
    /// Buffer out-of-order data until holes fill (evasion-resistant).
    Strict,
    /// Best-effort: bounded buffering, holes are skipped and flagged.
    #[default]
    Fast,
}

/// Target-based overlap policy: which bytes win when segments overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverlapPolicy {
    /// Original data wins every overlap (Snort "first").
    #[default]
    First,
    /// New data wins every overlap (Snort "last").
    Last,
    /// New data wins only when the new segment begins before the
    /// existing one (the BSD trimming rule).
    Bsd,
    /// Windows targets keep original data.
    Windows,
    /// Solaris targets favour new data.
    Solaris,
    /// Linux targets follow the BSD-style rule.
    Linux,
}

impl OverlapPolicy {
    /// Resolve a pairwise overlap: does the *new* segment's data win
    /// against an existing segment starting at `old_start`, given the new
    /// segment starts at `new_start`?
    pub fn new_wins(&self, new_start: u64, old_start: u64) -> bool {
        match self {
            OverlapPolicy::First | OverlapPolicy::Windows => false,
            OverlapPolicy::Last | OverlapPolicy::Solaris => true,
            OverlapPolicy::Bsd | OverlapPolicy::Linux => new_start < old_start,
        }
    }
}

/// Error conditions surfaced to the stream record (`sd->error`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReasmFlags(pub u8);

impl ReasmFlags {
    /// Data seen without a complete three-way handshake.
    pub const INCOMPLETE_HANDSHAKE: ReasmFlags = ReasmFlags(0x01);
    /// A sequence hole was skipped (fast mode).
    pub const SEQUENCE_GAP: ReasmFlags = ReasmFlags(0x02);
    /// Overlapping segments carried different bytes.
    pub const INCONSISTENT_OVERLAP: ReasmFlags = ReasmFlags(0x04);
    /// A segment was outside any plausible window and was dropped.
    pub const INVALID_SEQUENCE: ReasmFlags = ReasmFlags(0x08);
    /// Payload carried on a SYN was ignored.
    pub const DATA_ON_SYN: ReasmFlags = ReasmFlags(0x10);
    /// The out-of-order buffer overflowed (strict mode under attack).
    pub const BUFFER_OVERFLOW: ReasmFlags = ReasmFlags(0x20);

    /// Merge in other flags.
    pub fn set(&mut self, f: ReasmFlags) {
        self.0 |= f.0;
    }

    /// Test for all given flags.
    pub fn contains(&self, f: ReasmFlags) -> bool {
        self.0 & f.0 == f.0
    }

    /// True when nothing has been flagged.
    pub fn is_clean(&self) -> bool {
        self.0 == 0
    }
}

impl core::ops::BitOr for ReasmFlags {
    type Output = ReasmFlags;
    fn bitor(self, rhs: ReasmFlags) -> ReasmFlags {
        ReasmFlags(self.0 | rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_families() {
        assert!(!OverlapPolicy::First.new_wins(10, 5));
        assert!(!OverlapPolicy::Windows.new_wins(0, 5));
        assert!(OverlapPolicy::Last.new_wins(10, 5));
        assert!(OverlapPolicy::Solaris.new_wins(10, 5));
        assert!(OverlapPolicy::Bsd.new_wins(3, 5));
        assert!(!OverlapPolicy::Bsd.new_wins(5, 5));
        assert!(!OverlapPolicy::Linux.new_wins(7, 5));
    }

    #[test]
    fn flags_compose() {
        let mut f = ReasmFlags::default();
        assert!(f.is_clean());
        f.set(ReasmFlags::SEQUENCE_GAP | ReasmFlags::DATA_ON_SYN);
        assert!(f.contains(ReasmFlags::SEQUENCE_GAP));
        assert!(f.contains(ReasmFlags::DATA_ON_SYN));
        assert!(!f.contains(ReasmFlags::BUFFER_OVERFLOW));
    }
}
