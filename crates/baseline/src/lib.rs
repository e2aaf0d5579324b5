#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # scap-baseline
//!
//! The comparison stacks of the paper's evaluation, faithfully
//! structured:
//!
//! * [`ring`] — a PF_PACKET-style shared ring: the kernel copies every
//!   captured frame (up to the snap length) into one big memory-mapped
//!   buffer; the user application consumes from it. This is the capture
//!   substrate under Libpcap on the paper's Linux 2.6.32 sensor.
//! * [`stack`] — a user-level monitoring stack on top of the ring,
//!   configurable into the three baselines:
//!   [`stack::UserStackConfig::libnids`] (user-level TCP reassembly that
//!   requires an observed handshake, Linux-stack policy, static flow
//!   limit), [`stack::UserStackConfig::stream5`] (Snort's target-based
//!   reassembler, midstream pickup allowed, optional §6.6 cutoff patch),
//!   and [`stack::UserStackConfig::yaf`] (flow export from a 96-byte
//!   snap length, no reassembly).
//! * [`apps`] — the same applications the Scap stack runs (flow export,
//!   stream touch, pattern matching) so every comparison holds the
//!   application constant and varies only the capture architecture.
//!
//! The structural difference the paper measures is visible right in the
//! types: the baselines copy each packet into the shared ring (kernel),
//! then copy payload *again* into per-stream buffers (user), interleaved
//! across all concurrent flows; Scap copies payload once, in the kernel,
//! into stream-local chunks.

pub mod apps;
pub mod ring;
pub mod stack;

pub use apps::{BaselineApp, FlowExportApp, PatternScanApp, TouchApp};
pub use ring::PacketRing;
pub use stack::{UserStack, UserStackConfig};
