#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # scap — stream-oriented network traffic capture and analysis
//!
//! A from-scratch Rust reproduction of **Scap** (Papadogiannakis,
//! Polychronakis, Markatos — *Scap: Stream-Oriented Network Traffic
//! Capture and Analysis for High-Speed Networks*, IMC 2013).
//!
//! Scap elevates the transport-layer **stream** to the first-class object
//! of a capture framework: flow tracking and TCP reassembly run inside
//! the (emulated) kernel module, applications receive reassembled chunks
//! in stream-specific memory, uninteresting traffic is discarded as early
//! as possible — in the kernel or on the (emulated) NIC via flow-director
//! filters ("subzero copy") — and overload is absorbed by Prioritized
//! Packet Loss instead of random drops.
//!
//! ## Quickstart (§3.3.1 — flow statistics export)
//!
//! ```
//! use scap::{Scap, StreamCtx};
//!
//! // scap_create + scap_set_cutoff(0) + scap_dispatch_termination
//! let mut scap = Scap::builder()
//!     .cutoff(0)                      // headers only: all data discarded
//!     .try_build()
//!     .expect("valid configuration");
//! scap.dispatch_termination(|ctx: &StreamCtx<'_>| {
//!     println!(
//!         "{} -> {} bytes={} pkts={}",
//!         ctx.stream.key,
//!         ctx.stream.status_str(),
//!         ctx.stream.total_bytes(),
//!         ctx.stream.total_pkts()
//!     );
//! });
//!
//! // Capture from a (synthetic) trace instead of a live interface.
//! let trace = scap_trace::gen::CampusMix::new(
//!     scap_trace::gen::CampusMixConfig::sized(42, 1 << 20),
//! );
//! let stats = scap.start_capture(trace);
//! assert!(stats.stack.streams_created > 0);
//! ```
//!
//! ## Crate map
//!
//! * [`config`] — every knob of the paper's Table 1.
//! * [`kernel`] — the emulated kernel module (flow tracking, in-kernel
//!   reassembly, chunk memory, events, FDIR management, PPL).
//! * [`stack`] — the simulation driver ([`stack::ScapSimStack`]) that
//!   runs the same kernel under the discrete-time performance engine,
//!   plus the built-in application models used by the experiments.
//! * [`driver`] — the per-burst service step (poll dry, timers, drain
//!   events) shared by the live driver, the shard fleet, `scapd` and the
//!   experiments, and [`ScapKernel::poll`], the one dispatch switch.
//! * [`live`] — the threaded driver: per-core worker threads consuming
//!   event queues, as `scap_start_capture` does.
//! * [`tenant`] — multiple applications on one capture (§5.6): the
//!   kernel reassembles once under a generalized configuration and each
//!   tenant sees its own filtered, cutoff-limited view, with quotas.
//! * [`sharing`] — that generalized configuration: the union of the
//!   subscribers' filters, cutoffs and priorities.
//! * [`event`] — events and the consistent per-event stream snapshot.

pub mod checkpoint;
pub mod config;
pub mod driver;
pub mod event;
pub mod governor;
pub mod kernel;
pub mod live;
pub mod shard;
pub mod sharing;
pub mod stack;
pub mod tenant;

pub use checkpoint::{CheckpointError, CheckpointImage, TenantImage};
pub use config::{
    ConfigDelta, ConfigError, CutoffPolicy, DispatchMode, PriorityPolicy, ScapConfig,
};
pub use driver::StageClock;
pub use event::{Event, EventKind, PacketRecord, StreamRef, StreamSnapshot, StreamUid};
pub use governor::{GovernorConfig, GovernorStats, OverloadGovernor};
pub use kernel::{ControlOp, ResilienceStats, ScapKernel, ScapStats};
pub use live::{
    mangle_packets, BuildError, CaptureError, EventSink, Scap, ScapBuilder, StatsHandler,
    StreamCtx, WorkerStatus,
};
pub use shard::{FleetConfig, FleetStats, ShardFleet, ShardStatus};
pub use sharing::{union_priorities, union_requirements, Requirement};
pub use stack::{apps, ScapSimStack, SimApp};
pub use tenant::{
    AdmissionError, Delivery, Tenant, TenantEngine, TenantSpec, TenantState, TenantStats,
};

// Re-export the vocabulary types applications see.
pub use scap_faults::{FaultPlan, ShardFault, ShardFaultKind};
/// The always-on flight recorder (per-core ring journals of typed
/// events with drop provenance), re-exported for applications and
/// tools.
pub use scap_flight as flight;
pub use scap_flight::{DropReason, FlightEvent, FlightKind, FlightLayer, FlightRecorder};
pub use scap_flow::{DirStats, StreamErrors, StreamStatus};
/// The programmable per-flow offload stage (rule types, action table,
/// stats), re-exported for applications installing `Mark`/`Sample`/
/// `Bypass`/`Drop` rules and tools reading the counters.
pub use scap_offload::{
    OffloadAction, OffloadError, OffloadRule, OffloadStats, OffloadTable, OffloadVerdict,
    DEFAULT_OFFLOAD_CAPACITY,
};
pub use scap_reassembly::{OverlapPolicy, ReassemblyMode};
/// The scale-out sharding primitives (symmetric partitioning, leases,
/// backoff, circuit breakers), re-exported for supervisors and tools.
pub use scap_shard::{Backoff, CircuitBreaker, Lease, ShardMap, ShardState};
/// The observability subsystem (metric registries, stage spans, gauge
/// time-series, exporters), re-exported for applications and tools.
pub use scap_telemetry as telemetry;
pub use scap_wire::{Direction, FlowKey, Transport};
