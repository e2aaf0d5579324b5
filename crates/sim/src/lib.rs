#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # scap-sim
//!
//! The performance-simulation substrate that stands in for the paper's
//! 10GbE testbed (two Xeon machines, a hardware traffic generator, and
//! CPU performance counters).
//!
//! The capture stacks in this workspace are *real* implementations — real
//! flow tables, real TCP reassembly, real pattern matching. What cannot
//! be real on one developer machine is the load: 6 Gbit/s of replayed
//! traffic against fixed CPU capacity. This crate supplies that as a
//! **discrete-time fluid simulation**:
//!
//! * time advances in fixed ticks (default 1 ms of simulated time);
//! * each simulated core has a cycle budget per tick ([`CoreBudgets`]);
//!   software-interrupt (kernel) work has priority — it preempts user
//!   work on the same core, exactly as softirqs do;
//! * every operation the real code performs is reported as a
//!   [`Work`] receipt (bytes copied at each boundary, hash probes,
//!   events, filter updates, pattern-matched bytes) and converted to
//!   cycles by a single calibrated [`CostModel`] shared by *all* stacks —
//!   Scap gains nothing the baselines are not also granted;
//! * queues between the stages are finite, so when a stage falls behind,
//!   packets drop — the paper's overload mechanism — and because the
//!   real stack code never sees dropped packets, stream-level damage
//!   (lost streams, broken reassembly, missed matches) emerges naturally
//!   rather than being modelled.
//!
//! [`cache`] adds a set-associative LRU cache model used to reproduce the
//! locality experiment (Fig. 7): stacks trace their memory touches
//! (shared ring vs. per-stream buffers) and the model counts misses.

pub mod budgets;
pub mod cache;
pub mod cost;
pub mod engine;

pub use budgets::CoreBudgets;
pub use cache::CacheSim;
pub use cost::{CostModel, Work};
pub use engine::{CaptureStack, Engine, EngineConfig, EngineReport, StackStats};
