//! Federated queries across a fleet of per-shard archives.
//!
//! A sharded capture (`scap::shard::ShardFleet`) writes one archive per
//! shard under a common root (`<root>/shard-0`, `<root>/shard-1`, …).
//! [`FederatedReader`] opens every shard archive it can find and fans a
//! query out across them, enforcing a per-shard time budget: a shard
//! that fails to open, fails the query, or blows its budget contributes
//! no records, is reported in its [`ShardQueryStatus`], and marks the
//! result **partial** — callers always learn whether they saw the whole
//! fleet or a subset, never silently the latter.

use crate::reader::StoreReader;
use crate::{IndexRecord, StoreError};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Outcome of one shard's part of a federated query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardOutcome {
    /// The shard answered in budget with this many records.
    Ok(usize),
    /// The shard's archive could not be opened or queried.
    Error(String),
    /// The shard answered, but past its time budget; its records are
    /// excluded so the result stays budget-honest.
    TimedOut,
}

/// Per-shard status row of a federated query.
#[derive(Debug, Clone)]
pub struct ShardQueryStatus {
    /// Shard index (parsed from the `shard-N` directory name).
    pub shard: usize,
    /// Archive directory of the shard.
    pub dir: PathBuf,
    /// What happened.
    pub outcome: ShardOutcome,
    /// Wall time spent on this shard.
    pub elapsed: Duration,
}

/// The result of a federated query: the merged records plus per-shard
/// provenance and an explicit partial flag.
#[derive(Debug, Clone)]
pub struct FederatedResult {
    /// Matching records, tagged with their shard index, in shard order.
    pub records: Vec<(usize, IndexRecord)>,
    /// One status row per shard archive found under the root.
    pub statuses: Vec<ShardQueryStatus>,
    /// True when any shard errored or timed out: `records` covers only
    /// part of the fleet.
    pub partial: bool,
}

impl FederatedResult {
    /// Shards that answered in budget.
    pub fn ok_shards(&self) -> usize {
        self.statuses
            .iter()
            .filter(|s| matches!(s.outcome, ShardOutcome::Ok(_)))
            .count()
    }
}

/// A reader federating every `shard-N` archive under one root.
pub struct FederatedReader {
    shards: Vec<(usize, PathBuf)>,
}

impl FederatedReader {
    /// Discover shard archives under `root`: every subdirectory named
    /// `shard-<N>`, sorted by shard index. Directories that are missing
    /// or unreadable at *query* time are reported per query, but a root
    /// with no shard directories at all is an error.
    pub fn open(root: impl AsRef<Path>) -> Result<FederatedReader, StoreError> {
        let root = root.as_ref();
        let mut shards = Vec::new();
        for entry in std::fs::read_dir(root).map_err(StoreError::Io)? {
            let entry = entry.map_err(StoreError::Io)?;
            let name = entry.file_name();
            let Some(idx) = name
                .to_str()
                .and_then(|n| n.strip_prefix("shard-"))
                .and_then(|n| n.parse::<usize>().ok())
            else {
                continue;
            };
            if entry.path().is_dir() {
                shards.push((idx, entry.path()));
            }
        }
        if shards.is_empty() {
            return Err(StoreError::Corrupt(format!(
                "no shard-N archives under {}",
                root.display()
            )));
        }
        shards.sort_by_key(|(idx, _)| *idx);
        Ok(FederatedReader { shards })
    }

    /// Number of shard archives discovered.
    pub fn nshards(&self) -> usize {
        self.shards.len()
    }

    /// Run one filter-expression query against every shard archive with
    /// a per-shard time budget. See [`FederatedResult`] for the
    /// partial-result contract.
    pub fn query(&self, expr: &str, per_shard_timeout: Duration) -> FederatedResult {
        self.run(per_shard_timeout, |reader| {
            reader
                .query(expr)
                .map(|rs| rs.into_iter().cloned().collect())
                .map_err(|e| format!("bad filter: {e}"))
        })
    }

    /// Federated time-range scan (same budget/partial contract as
    /// [`FederatedReader::query`]).
    pub fn time_range(
        &self,
        since_ns: u64,
        until_ns: u64,
        per_shard_timeout: Duration,
    ) -> FederatedResult {
        self.run(per_shard_timeout, |reader| {
            Ok(reader
                .time_range(since_ns, until_ns)
                .into_iter()
                .cloned()
                .collect())
        })
    }

    fn run(
        &self,
        per_shard_timeout: Duration,
        f: impl Fn(&StoreReader) -> Result<Vec<IndexRecord>, String>,
    ) -> FederatedResult {
        let mut records = Vec::new();
        let mut statuses = Vec::new();
        let mut partial = false;
        for (shard, dir) in &self.shards {
            let started = Instant::now();
            // `StoreReader::open` treats a missing index as an empty
            // archive; for federation that silence would be a lie — a
            // shard whose archive vanished since discovery is an error.
            if !dir.join(crate::INDEX_FILE).exists() {
                partial = true;
                statuses.push(ShardQueryStatus {
                    shard: *shard,
                    dir: dir.clone(),
                    outcome: ShardOutcome::Error("archive missing".into()),
                    elapsed: started.elapsed(),
                });
                continue;
            }
            let outcome = match StoreReader::open(dir) {
                Err(e) => {
                    partial = true;
                    ShardOutcome::Error(format!("open failed: {e}"))
                }
                Ok(reader) => match f(&reader) {
                    Err(e) => {
                        partial = true;
                        ShardOutcome::Error(e)
                    }
                    Ok(rs) => {
                        if started.elapsed() > per_shard_timeout {
                            // Budget blown: the records are discarded so
                            // the caller's latency contract holds, and
                            // the miss is explicit.
                            partial = true;
                            ShardOutcome::TimedOut
                        } else {
                            let n = rs.len();
                            records.extend(rs.into_iter().map(|r| (*shard, r)));
                            ShardOutcome::Ok(n)
                        }
                    }
                },
            };
            statuses.push(ShardQueryStatus {
                shard: *shard,
                dir: dir.clone(),
                outcome,
                elapsed: started.elapsed(),
            });
        }
        FederatedResult {
            records,
            statuses,
            partial,
        }
    }
}
