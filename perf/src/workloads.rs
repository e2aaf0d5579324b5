//! The five replay workloads. Each is closed-loop batch replay by one
//! client (the replay thread) of a trace built in memory from the seed;
//! each round reports its timed wall and CPU time, the packets it
//! replayed, and the outcome of its output checks.

use crate::digest::Digest;
use crate::drive;
use crate::gen;
use crate::procfs::Stopwatch;
use crate::span::Tracer;
use scap::{DispatchMode, Event, FleetConfig, Scap, ScapConfig, ScapKernel, ScapStats, ShardFleet};
use scap_store::{StoreConfig, StoreReader, StoreWriter};
use scap_trace::{Amplifier, AmplifyConfig, CampusMix, CampusMixConfig, Packet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Name and reason of every workload, in the order they are run.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "campus_stream",
        "heavy-tailed TCP mix through one kernel: bytes dominate, so reassembly and chunk memory do the work",
    ),
    (
        "flows_256k_hit",
        "2^18 concurrent 64-byte UDP flows, cutoff 0, fast path: per-packet cost and the flow-table working set dominate",
    ),
    (
        "flow_churn",
        "short TCP sessions and lone SYNs: the flow layer used for inserts, expiry sweeps and create/terminate events",
    ),
    (
        "fleet_archive",
        "amplified mix through a 2-shard fleet with per-shard archives: steering, checkpoint encode and store seal",
    ),
    (
        "live_deliver",
        "the threaded live driver with one worker summing delivered bytes: the kernel-to-worker hand-off does the work",
    ),
];

/// Span names recorded by the fleet and live workloads.
pub mod names {
    /// `ShardFleet::offer_with` over one 256-packet batch.
    pub const FLEET_OFFER: &str = "core.fleet.offer";
    /// `ShardFleet::tick`.
    pub const FLEET_TICK: &str = "core.fleet.tick";
    /// `ShardFleet::finish_with`.
    pub const FLEET_FINISH: &str = "core.fleet.finish";
    /// `StoreWriter::observe`, one event.
    pub const STORE_OBSERVE: &str = "store.observe";
    /// `StoreWriter::finish`, one writer.
    pub const STORE_FINISH: &str = "store.finish";
    /// `Scap::start_capture`, one pass.
    pub const LIVE_CAPTURE: &str = "core.live.start_capture";
}

/// What one round measured and checked.
#[derive(Debug, Default)]
pub struct RoundOut {
    /// Wall and CPU time inside the timed regions.
    pub clock: Stopwatch,
    /// Wire packets replayed inside the timed regions.
    pub pkts: u64,
    /// Wire bytes replayed inside the timed regions.
    pub wire_bytes: u64,
    /// Packets lost to overload (`dropped_packets`): failed operations.
    pub dropped: u64,
    /// Kernel events handed to the application.
    pub events: u64,
    /// Digest of everything delivered (of one pass; passes must agree).
    pub digest: Digest,
    /// Output checks that failed; empty when the round is correct.
    pub errors: Vec<String>,
    /// Things worth telling the reader that are not failures.
    pub notes: Vec<String>,
    /// Counts read from the program's statistics at the round boundary,
    /// by per-layer metric name.
    pub counts: Vec<(&'static str, f64)>,
}

impl RoundOut {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// The kernel's own identity, on the counters of one pass (or the
    /// difference of two readings): every wire packet was delivered,
    /// dropped or discarded, and the kernel saw exactly the packets and
    /// wire bytes this round replayed (`pkts`, `wire_bytes`).
    fn check_conservation(&mut self, s: &ScapStats, before: &ScapStats) {
        let d = |f: fn(&ScapStats) -> u64| f(s) - f(before);
        let wire = d(|s| s.stack.wire_packets);
        let delivered = d(|s| s.stack.delivered_packets);
        let dropped = d(|s| s.stack.dropped_packets);
        let discarded = d(|s| s.stack.discarded_packets);
        self.check(wire == delivered + dropped + discarded, || {
            format!("packets not conserved: wire {wire} != delivered {delivered} + dropped {dropped} + discarded {discarded}")
        });
        let (replayed, replayed_bytes) = (self.pkts, self.wire_bytes);
        self.check(wire == replayed, || {
            format!("kernel saw {wire} wire packets, {replayed} were replayed")
        });
        let wire_bytes = d(|s| s.stack.wire_bytes);
        self.check(wire_bytes == replayed_bytes, || {
            format!("kernel saw {wire_bytes} wire bytes, {replayed_bytes} were replayed")
        });
        self.dropped += dropped;
    }

    fn check_delivered_bytes(&mut self, stats_delivered: u64, digest: &Digest) {
        self.check(stats_delivered == digest.delivered_bytes, || {
            format!(
                "statistics say {stats_delivered} payload bytes delivered, the application was handed {}",
                digest.delivered_bytes
            )
        });
    }
}

/// A workload, set up and ready to run rounds.
pub trait Workload {
    /// One timed round. `alt` runs it in the other dispatch mode (only
    /// asked of workloads that [`Workload::has_alt_dispatch`]).
    fn round(&mut self, tr: &mut Tracer, alt: bool) -> RoundOut;
    /// Whether the traced run should also drive this workload in the
    /// other dispatch mode and demand an identical digest.
    fn has_alt_dispatch(&self) -> bool {
        false
    }
    /// Whether the native dispatch mode is the fast path.
    fn native_fastpath(&self) -> bool {
        false
    }
    /// Packets of the workload's own trace, for the isolated layer runs.
    fn trace(&self) -> &[Packet];
    /// The kernel configuration the workload runs under.
    fn kernel_config(&self) -> ScapConfig;
    /// Checks made once per run, outside every round.
    fn final_checks(&mut self) -> Vec<String> {
        Vec::new()
    }
}

/// Set up the workload called `name` from `seed`. `out_dir` is where a
/// workload that writes files may put them.
pub fn build(name: &str, seed: u64, out_dir: &Path) -> Option<Box<dyn Workload>> {
    Some(match name {
        "campus_stream" => Box::new(CampusStream::setup(seed)),
        "flows_256k_hit" => Box::new(FlowsHit::setup(seed)),
        "flow_churn" => Box::new(FlowChurn::setup(seed)),
        "fleet_archive" => Box::new(FleetArchive::setup(seed, out_dir)),
        "live_deliver" => Box::new(LiveDeliver::setup(seed)),
        _ => return None,
    })
}

/// The campus mix of `seed`, cut off at exactly the first `bytes` wire
/// bytes. The generator only stops admitting sessions at its budget and
/// then plays the admitted ones out, so the overshoot depends on which
/// elephant flows the seed happened to draw last; cutting it off keeps
/// trace size — and with it memory and round length — the same for
/// every seed.
fn campus(seed: u64, bytes: u64) -> Vec<Packet> {
    let mut budget = bytes;
    CampusMix::new(CampusMixConfig::sized(seed, bytes))
        .take_while(|p| {
            let fits = p.len() as u64 <= budget;
            budget = budget.saturating_sub(p.len() as u64);
            fits
        })
        .collect()
}

fn wire_bytes(pkts: &[Packet]) -> u64 {
    pkts.iter().map(|p| p.len() as u64).sum()
}

fn with_dispatch(cfg: &ScapConfig, fastpath: bool) -> ScapConfig {
    ScapConfig {
        dispatch: if fastpath {
            DispatchMode::Fastpath
        } else {
            DispatchMode::Classic
        },
        ..cfg.clone()
    }
}

fn kernel_counts(out: &mut RoundOut, kernel: &ScapKernel) {
    out.counts.extend([
        (
            "nic.ring_drops",
            kernel.nic_stats().ring_dropped_frames as f64,
        ),
        ("memory.arena_failures", kernel.arena_failures() as f64),
    ]);
    if kernel.config().dispatch == DispatchMode::Fastpath {
        out.counts.push((
            "fastpath.burst_fill_permille",
            kernel.fastpath_stats().fill_permille() as f64,
        ));
    }
}

/// A round that is one whole-trace pass through a fresh kernel: the
/// drive loop, then `finish`, both on the clock; construction and
/// teardown off it. Also returns the kernel's final statistics.
fn kernel_pass(cfg: &ScapConfig, pkts: &[Packet], tr: &mut Tracer) -> (RoundOut, ScapStats) {
    let mut out = RoundOut {
        pkts: pkts.len() as u64,
        wire_bytes: wire_bytes(pkts),
        ..RoundOut::default()
    };
    let mut kernel = ScapKernel::new(cfg.clone());
    let mut digest = Digest::default();
    let last_ts = pkts.last().map_or(0, |p| p.ts_ns);
    out.events = out.clock.time(|| {
        let mut sink = |ev: &Event| digest.add_event(ev);
        drive::drive(&mut kernel, pkts, &mut sink, tr)
            + drive::finish(&mut kernel, last_ts + 1, &mut sink, tr)
    });
    out.digest = digest;
    let stats = kernel.stats();
    out.check_conservation(&stats, &ScapStats::default());
    out.check_delivered_bytes(stats.stack.delivered_bytes, &digest);
    kernel_counts(&mut out, &kernel);
    (out, stats)
}

// ---------------------------------------------------------------------
// campus_stream
// ---------------------------------------------------------------------

/// Trace size of `campus_stream`.
const CAMPUS_STREAM_BYTES: u64 = 256 << 20;
/// Packets of the common prefix both drivers must deliver identically.
const CROSS_DRIVER_PREFIX: usize = 40_000;

struct CampusStream {
    trace: Vec<Packet>,
    cfg: ScapConfig,
}

impl CampusStream {
    fn setup(seed: u64) -> Self {
        CampusStream {
            trace: campus(seed, CAMPUS_STREAM_BYTES),
            cfg: ScapConfig::default(),
        }
    }
}

impl Workload for CampusStream {
    fn round(&mut self, tr: &mut Tracer, alt: bool) -> RoundOut {
        kernel_pass(&with_dispatch(&self.cfg, alt), &self.trace, tr).0
    }

    fn has_alt_dispatch(&self) -> bool {
        true
    }

    fn trace(&self) -> &[Packet] {
        &self.trace
    }

    fn kernel_config(&self) -> ScapConfig {
        self.cfg.clone()
    }

    fn final_checks(&mut self) -> Vec<String> {
        cross_driver_check(&self.trace)
    }
}

/// `campus_stream` and `live_deliver` replay the same kind of traffic
/// through different drivers; on a common prefix of this trace the
/// drive loop and the live driver must hand the application the same
/// bytes of the same streams at the same offsets.
fn cross_driver_check(trace: &[Packet]) -> Vec<String> {
    let prefix = &trace[..trace.len().min(CROSS_DRIVER_PREFIX)];
    let (looped, _) = kernel_pass(&ScapConfig::default(), prefix, &mut Tracer::new(false));
    let (live_digest, _, _) = live_pass(prefix, None);
    let mut errors = looped.errors;
    if looped.digest.content() != live_digest.content() {
        errors.push(format!(
            "drive loop and live driver deliver different streams on a common prefix: {:?} vs {live_digest:?}",
            looped.digest
        ));
    }
    errors
}

// ---------------------------------------------------------------------
// flows_256k_hit
// ---------------------------------------------------------------------

/// Concurrent flows of `flows_256k_hit`.
pub const FLOWS: u32 = 1 << 18;
/// Hits per round of `flows_256k_hit`.
const HITS_PER_ROUND: usize = 1 << 19;

struct FlowsHit {
    /// One packet per flow, in flow order: the preload pass, and the
    /// frames every hit shares.
    preload: Vec<Packet>,
    order: Vec<u32>,
    cfg: ScapConfig,
    /// The preloaded kernel of each dispatch mode (`[classic, fastpath]`);
    /// the classic one is only built when a traced run asks for it.
    kernels: [Option<ScapKernel>; 2],
    next_ts: u64,
}

/// The flow-export application of §3.3.1: cutoff 0, nothing expires.
fn flows_config() -> ScapConfig {
    let mut cfg = ScapConfig {
        dispatch: DispatchMode::Fastpath,
        fastpath_burst: 64,
        inactivity_timeout_ns: u64::MAX / 2,
        ..ScapConfig::default()
    };
    cfg.cutoff.default = Some(0);
    cfg
}

/// A kernel tracking every flow of `preload`.
fn preloaded(cfg: &ScapConfig, preload: &[Packet]) -> ScapKernel {
    let mut kernel = ScapKernel::new(cfg.clone());
    drive::drive(&mut kernel, preload, &mut |_| {}, &mut Tracer::new(false));
    kernel
}

impl FlowsHit {
    fn setup(seed: u64) -> Self {
        let preload = gen::udp_flows(seed, FLOWS);
        let cfg = flows_config();
        let kernel = preloaded(&cfg, &preload);
        let next_ts = preload.last().map_or(0, |p| p.ts_ns) + gen::PKT_GAP_NS;
        FlowsHit {
            order: gen::hit_order(seed, FLOWS, HITS_PER_ROUND),
            preload,
            cfg,
            kernels: [None, Some(kernel)],
            next_ts,
        }
    }
}

fn tracked_streams(kernel: &ScapKernel) -> u64 {
    (0..kernel.ncores())
        .map(|c| kernel.tracked_streams(c) as u64)
        .sum()
}

impl Workload for FlowsHit {
    fn round(&mut self, tr: &mut Tracer, alt: bool) -> RoundOut {
        let mut out = RoundOut::default();
        let fastpath = !alt;
        if self.kernels[usize::from(fastpath)].is_none() {
            let cfg = with_dispatch(&self.cfg, fastpath);
            self.kernels[usize::from(fastpath)] = Some(preloaded(&cfg, &self.preload));
        }
        let kernel = self.kernels[usize::from(fastpath)]
            .as_mut()
            .expect("just built");
        let pkts = gen::replay_of(&self.preload, self.order.iter().copied(), self.next_ts);
        self.next_ts += pkts.len() as u64 * gen::PKT_GAP_NS;

        let before = kernel.stats();
        let mut digest = Digest::default();
        out.events = out
            .clock
            .time(|| drive::drive(kernel, &pkts, &mut |ev| digest.add_event(ev), tr));
        out.pkts = pkts.len() as u64;
        out.wire_bytes = wire_bytes(&pkts);
        out.digest = digest;

        let after = kernel.stats();
        out.check_conservation(&after, &before);
        let created = after.stack.streams_created - before.stack.streams_created;
        out.check(created == 0, || {
            format!("{created} streams created during hits")
        });
        let tracked = tracked_streams(kernel);
        out.check(tracked == u64::from(FLOWS), || {
            format!("{tracked} streams tracked, expected {FLOWS}")
        });
        kernel_counts(&mut out, kernel);
        out
    }

    fn has_alt_dispatch(&self) -> bool {
        true
    }

    fn native_fastpath(&self) -> bool {
        true
    }

    fn trace(&self) -> &[Packet] {
        &self.preload
    }

    fn kernel_config(&self) -> ScapConfig {
        self.cfg.clone()
    }
}

// ---------------------------------------------------------------------
// flow_churn
// ---------------------------------------------------------------------

/// Sessions per pass of `flow_churn`.
const CHURN_SESSIONS: u32 = 64_000;

struct FlowChurn {
    trace: Vec<Packet>,
    cfg: ScapConfig,
}

impl FlowChurn {
    fn setup(seed: u64) -> Self {
        FlowChurn {
            trace: gen::churn(seed, CHURN_SESSIONS),
            cfg: ScapConfig {
                inactivity_timeout_ns: 50_000_000,
                ..ScapConfig::default()
            },
        }
    }
}

impl Workload for FlowChurn {
    fn round(&mut self, tr: &mut Tracer, _alt: bool) -> RoundOut {
        let (mut out, stats) = kernel_pass(&self.cfg, &self.trace, tr);
        let digest = out.digest;
        let created = stats.stack.streams_created;
        out.check(created == u64::from(CHURN_SESSIONS), || {
            format!("{created} streams created from {CHURN_SESSIONS} sessions")
        });
        out.check(
            stats.stack.streams_reported == created
                && digest.created == created
                && digest.terminated == created,
            || {
                format!(
                    "{created} streams created, {} reported; the application saw {} created and {} terminated",
                    stats.stack.streams_reported, digest.created, digest.terminated
                )
            },
        );
        out
    }

    fn trace(&self) -> &[Packet] {
        &self.trace
    }

    fn kernel_config(&self) -> ScapConfig {
        self.cfg.clone()
    }
}

// ---------------------------------------------------------------------
// fleet_archive
// ---------------------------------------------------------------------

/// Base trace size of `fleet_archive`, before amplification.
const FLEET_BASE_BYTES: u64 = 16 << 20;
/// Flow amplification factor of `fleet_archive`.
const FLEET_AMPLIFY: usize = 4;
/// Shards (and archives) of `fleet_archive`.
pub const FLEET_SHARDS: usize = 2;

struct FleetArchive {
    trace: Vec<Packet>,
    dir: PathBuf,
    round_no: u32,
}

impl FleetArchive {
    fn setup(seed: u64, out_dir: &Path) -> Self {
        let base = campus(seed, FLEET_BASE_BYTES);
        FleetArchive {
            trace: Amplifier::new(base.into_iter(), AmplifyConfig::by(FLEET_AMPLIFY)).collect(),
            dir: out_dir.join(format!("fleet-{}", std::process::id())),
            round_no: 0,
        }
    }
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        nshards: FLEET_SHARDS,
        ..FleetConfig::default()
    }
}

fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

impl Workload for FleetArchive {
    fn round(&mut self, tr: &mut Tracer, _alt: bool) -> RoundOut {
        let mut out = RoundOut::default();
        self.round_no += 1;
        let root = self.dir.join(format!("round-{}", self.round_no));
        let _ = std::fs::remove_dir_all(&root);
        let cfg = fleet_config();
        let settle_ns = cfg.backoff_cap_ns;
        let mut fleet = ShardFleet::new(cfg);
        let mut writers: Vec<StoreWriter> = (0..FLEET_SHARDS)
            .map(|s| {
                StoreWriter::open(StoreConfig::new(root.join(format!("shard-{s}"))))
                    .expect("open shard archive under the output directory")
            })
            .collect();
        let last_ts = self.trace.last().map_or(0, |p| p.ts_ns);
        let mut digest = Digest::default();
        let mut events = 0u64;
        let mut archived = 0u64;
        let mut archived_bytes = 0u64;

        out.clock.time(|| {
            let mut sink = |tr: &mut Tracer, shard: usize, ev: &Event| {
                let s = tr.open(names::STORE_OBSERVE);
                writers[shard].observe(ev).expect("shard archive write");
                tr.close(s);
                digest.add_event(ev);
                events += 1;
            };
            for batch in self.trace.chunks(drive::BATCH) {
                let s = tr.open(names::FLEET_OFFER);
                for p in batch {
                    fleet.offer_with(p, &mut |shard, ev| sink(tr, shard, ev));
                }
                tr.close(s);
            }
            let s = tr.open(names::FLEET_TICK);
            fleet.tick(last_ts + settle_ns + 1);
            tr.close(s);
            let s = tr.open(names::FLEET_FINISH);
            fleet.finish_with(last_ts + settle_ns + 2, &mut |shard, ev| {
                sink(tr, shard, ev)
            });
            tr.close(s);
            for w in &mut writers {
                let s = tr.open(names::STORE_FINISH);
                let stats = w.finish().expect("shard archive finish");
                tr.close(s);
                archived += stats.streams_archived;
                archived_bytes += stats.bytes_archived;
            }
        });
        drop(writers);
        out.pkts = self.trace.len() as u64;
        out.wire_bytes = wire_bytes(&self.trace);
        out.events = events;
        out.digest = digest;

        let fs = fleet.fleet_stats();
        out.dropped = fs.dropped_packets + fs.shard_down_packets;
        out.check(fs.packets_conserved() && fs.bytes_conserved(), || {
            format!("fleet conservation violated: {fs:?}")
        });
        let (pkts, bytes) = (out.pkts, out.wire_bytes);
        out.check(fs.wire_packets == pkts && fs.wire_bytes == bytes, || {
            format!(
                "fleet saw {} packets / {} bytes, {pkts} / {bytes} were replayed",
                fs.wire_packets, fs.wire_bytes
            )
        });
        out.check_delivered_bytes(fs.delivered_bytes, &digest);
        out.check(archived == fs.streams_created, || {
            format!(
                "{} streams created, {archived} archived",
                fs.streams_created
            )
        });
        let mut records = 0;
        for s in 0..FLEET_SHARDS {
            match StoreReader::open(root.join(format!("shard-{s}"))).and_then(|r| r.verify()) {
                Ok(report) => {
                    records += report.records;
                    out.check(report.is_clean(), || {
                        format!("archive of shard {s} fails verification: {report}")
                    });
                }
                Err(e) => out.errors.push(format!("archive of shard {s}: {e}")),
            }
        }
        out.check(records == archived, || {
            format!("{archived} streams archived, {records} index records read back")
        });
        let on_disk = dir_bytes(&root).unwrap_or(0);
        out.counts.extend([
            (
                "core.fleet.checkpoints_written",
                fs.checkpoints_written as f64,
            ),
            ("store.archived_bytes", archived_bytes as f64),
            ("store.disk_bytes", on_disk as f64),
        ]);
        let _ = std::fs::remove_dir_all(&root);
        out
    }

    fn trace(&self) -> &[Packet] {
        &self.trace
    }

    fn kernel_config(&self) -> ScapConfig {
        fleet_config().shard
    }
}

impl Drop for FleetArchive {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

// ---------------------------------------------------------------------
// live_deliver
// ---------------------------------------------------------------------

/// Trace size of `live_deliver`.
const LIVE_BYTES: u64 = 128 << 20;

struct LiveDeliver {
    trace: Vec<Packet>,
}

impl LiveDeliver {
    fn setup(seed: u64) -> Self {
        LiveDeliver {
            trace: campus(seed, LIVE_BYTES),
        }
    }
}

fn live_builder() -> scap::ScapBuilder {
    Scap::builder().worker_threads(1)
}

/// One capture of `pkts` by the live driver with one worker whose data
/// callback digests every chunk. With `busy`, time spent inside the
/// callback is added to it (two clock reads per event — traced runs
/// only). Returns the digest, the final statistics and the worker
/// `(panics, stalls)` the capture survived.
fn live_pass(pkts: &[Packet], busy: Option<Arc<AtomicU64>>) -> (Digest, ScapStats, (u64, u64)) {
    let digest = Arc::new(Mutex::new(Digest::default()));
    let mut scap = live_builder()
        .try_build()
        .expect("the default configuration is valid");
    let sink = digest.clone();
    scap.dispatch_data(move |ctx| {
        let t0 = busy.as_ref().map(|_| Instant::now());
        if let (Some(dir), Some(data)) = (ctx.dir, ctx.data) {
            sink.lock()
                .expect("the callback never panics while holding the digest")
                .add_chunk(&ctx.stream.key, dir, ctx.data_offset, data);
        }
        if let (Some(busy), Some(t0)) = (busy.as_ref(), t0) {
            busy.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    });
    let stats = scap.start_capture(pkts.iter().cloned());
    let incidents = scap
        .last_capture_error()
        .map_or((0, 0), |e| (e.panics(), e.stalls()));
    let digest = *digest.lock().expect("workers have exited");
    (digest, stats, incidents)
}

impl Workload for LiveDeliver {
    fn round(&mut self, tr: &mut Tracer, _alt: bool) -> RoundOut {
        let mut out = RoundOut::default();
        let busy = tr.enabled().then(|| Arc::new(AtomicU64::new(0)));
        let (digest, stats, (panics, stalls)) = out.clock.time(|| {
            let s = tr.open(names::LIVE_CAPTURE);
            let r = live_pass(&self.trace, busy.clone());
            tr.close(s);
            r
        });
        out.pkts = self.trace.len() as u64;
        out.wire_bytes = wire_bytes(&self.trace);
        // One callback per data chunk: the only events this application
        // registered for.
        out.events = digest.chunks;
        out.digest = digest;
        out.check_conservation(&stats, &ScapStats::default());
        out.check_delivered_bytes(stats.stack.delivered_bytes, &digest);
        out.check(panics == 0, || format!("{panics} worker panics"));
        if stalls > 0 {
            // The watchdog works on the wall clock: a worker descheduled
            // for 30 ms on a busy machine is declared wedged and given a
            // sibling. Nothing is lost (the checks above hold), but the
            // round ran with an extra thread.
            out.notes
                .push(format!("watchdog saw {stalls} worker stall(s)"));
        }
        out.counts
            .push(("core.live.events_delivered", digest.chunks as f64));
        if let Some(busy) = busy {
            out.counts.push((
                "core.live.callback_busy_ns",
                busy.load(Ordering::Relaxed) as f64,
            ));
        }
        out
    }

    fn trace(&self) -> &[Packet] {
        &self.trace
    }

    fn kernel_config(&self) -> ScapConfig {
        ScapConfig::default()
    }

    fn final_checks(&mut self) -> Vec<String> {
        cross_driver_check(&self.trace)
    }
}
