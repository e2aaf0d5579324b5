#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # scap-offload
//!
//! A programmable per-flow offload engine: the modern generalization of
//! the 82599's fixed 8 K-entry Flow Director table into a million-entry
//! flow table with per-flow *actions*, following "Advancements in
//! Traffic Processing Using Programmable Hardware Flow Offload" (Deri
//! et al.).
//!
//! Where an FDIR drop filter needs four perfect-match entries per stream
//! (two flag patterns × two directions) and can only drop or steer, one
//! offload rule matches the *bidirectional* flow (canonical key, the
//! same symmetric hash RSS uses) and carries one of four actions:
//!
//! * [`OffloadAction::Drop`] — subzero-copy cutoff: matching data
//!   packets never cost a softirq (today's FDIR behaviour, 4× denser).
//! * [`OffloadAction::Bypass`] — shunt past the kernel straight to
//!   delivery accounting (flows the application wants counted, not
//!   reassembled).
//! * [`OffloadAction::Mark`] — tag the flow with a priority/class the
//!   kernel's PPL consumes at stream creation.
//! * [`OffloadAction::Sample`] — deterministic 1-in-N per-flow
//!   sampling: every N-th packet reaches the host, the rest are
//!   dropped in hardware.
//!
//! Like the real hardware, drop-class actions **punt TCP control
//! packets** (SYN/FIN/RST) to the host so the kernel still observes
//! connection setup and teardown — the property Scap's FIN/RST-based
//! flow-size estimation depends on (§5.5 of the paper).
//!
//! The table is built on the kernel flow table's open-addressed index
//! (`scap_flow::GroupIndex`: ctrl-tag groups, parallel hash array), but
//! **fixed-capacity**: hardware tables do not rehash. Pressure is
//! handled by tiered, priority-aware clock eviction
//! ([`OffloadTable::evict_tiered`]), and evicted rules fold their
//! per-rule hit/byte counters into table-wide aggregates so offload
//! accounting never loses a frame.

mod table;

pub use table::{OffloadStats, OffloadTable};

use scap_wire::FlowKey;

/// Default rule capacity: a million flows, the scale modern smart-NIC
/// flow tables actually offer (vs. FDIR's 8 K).
pub const DEFAULT_OFFLOAD_CAPACITY: usize = 1 << 20;

/// Per-flow action a rule programs into the NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffloadAction {
    /// Deliver nothing to the kernel; account matching frames as
    /// *delivered* (the flow is complete from the application's point
    /// of view — e.g. it only wants volume counters).
    Bypass,
    /// Drop matching data packets in hardware (subzero-copy cutoff).
    Drop,
    /// Let packets through but tag the flow with a priority/class the
    /// PPL consumes when the stream is created.
    Mark(u8),
    /// Deterministic per-flow sampling: keep every N-th matching
    /// packet, drop the rest in hardware. `Sample(1)` keeps everything.
    Sample(u32),
}

impl OffloadAction {
    /// True for actions that can drop frames at the NIC (and therefore
    /// punt TCP control packets to the host).
    pub fn can_drop(&self) -> bool {
        !matches!(self, OffloadAction::Mark(_))
    }

    /// Stable wire encoding of the action discriminant (checkpoints).
    pub fn discriminant(&self) -> u8 {
        match self {
            OffloadAction::Bypass => 0,
            OffloadAction::Drop => 1,
            OffloadAction::Mark(_) => 2,
            OffloadAction::Sample(_) => 3,
        }
    }
}

/// One installed offload rule: a bidirectional flow plus its action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OffloadRule {
    /// The flow the rule matches; stored canonicalized, so it matches
    /// both directions of the connection.
    pub key: FlowKey,
    /// What the NIC does with matching frames.
    pub action: OffloadAction,
    /// Eviction tier: under table pressure, low-priority rules go
    /// first ([`OffloadTable::evict_tiered`]).
    pub priority: u8,
}

impl OffloadRule {
    /// A rule with the key canonicalized (both directions match).
    pub fn new(key: FlowKey, action: OffloadAction, priority: u8) -> Self {
        OffloadRule {
            key: key.canonical().0,
            action,
            priority,
        }
    }
}

/// What the offload stage decided for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffloadVerdict {
    /// Account as delivered at the NIC; the kernel never sees it.
    Bypass,
    /// Drop in hardware (subzero copy).
    Drop,
    /// Deliver normally, tagged with this priority/class.
    Mark(u8),
    /// Sampled flow, and this packet is one of the kept 1-in-N.
    SampleKeep,
    /// Sampled flow, and this packet is dropped in hardware.
    SampleDrop,
}

/// Errors from rule-table operations (mirrors `FdirError`, so the
/// kernel's install/retry path composes over both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffloadError {
    /// The table is at rule capacity; the caller must evict first.
    TableFull,
    /// A rule for this flow already exists.
    Duplicate,
    /// No rule installed for this flow.
    NotFound,
    /// The programming interface transiently failed; retry later.
    Busy,
}

impl core::fmt::Display for OffloadError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            OffloadError::TableFull => write!(f, "offload table full"),
            OffloadError::Duplicate => write!(f, "offload rule already installed"),
            OffloadError::NotFound => write!(f, "offload rule not installed"),
            OffloadError::Busy => write!(f, "offload programming transiently failed"),
        }
    }
}

impl std::error::Error for OffloadError {}
