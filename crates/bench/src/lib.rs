#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # scap-bench
//!
//! The experiment harness: one function per table/figure of the paper's
//! evaluation (§6 and §7), each regenerating the corresponding rows from
//! the reproduction's own stacks, workloads, and performance model.
//!
//! Run everything with the `experiments` binary:
//!
//! ```text
//! cargo run --release -p scap-bench --bin experiments -- --exp all
//! cargo run --release -p scap-bench --bin experiments -- --exp fig6 --scale smoke
//! ```
//!
//! Outputs go to `results/` as aligned text tables and CSV files;
//! EXPERIMENTS.md in the repository root records a full run against the
//! paper's reported numbers.

pub mod cli;
pub mod common;
pub mod figures;
pub mod render;
pub mod summary;

pub use common::{ExpConfig, FigureResult, Scale};
pub use summary::write_bench_summary;
