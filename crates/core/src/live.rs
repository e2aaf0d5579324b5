//! The live threaded driver and the user-facing API of Table 1.
//!
//! [`Scap`] mirrors the paper's C API in builder form:
//!
//! | paper                         | here                                   |
//! |-------------------------------|----------------------------------------|
//! | `scap_create`                 | [`Scap::builder`] → [`ScapBuilder::try_build`] |
//! | `scap_set_filter`             | [`ScapBuilder::filter`]                |
//! | `scap_set_cutoff`             | [`ScapBuilder::cutoff`]                |
//! | `scap_add_cutoff_direction`   | [`ScapBuilder::cutoff_direction`]      |
//! | `scap_add_cutoff_class`       | [`ScapBuilder::cutoff_class`]          |
//! | `scap_set_worker_threads`     | [`ScapBuilder::worker_threads`]        |
//! | `scap_set_parameter`          | dedicated builder methods              |
//! | `scap_dispatch_creation`      | [`Scap::dispatch_creation`]            |
//! | `scap_dispatch_data`          | [`Scap::dispatch_data`]                |
//! | `scap_dispatch_termination`   | [`Scap::dispatch_termination`]         |
//! | `scap_start_capture`          | [`Scap::start_capture`]                |
//! | `scap_discard_stream`         | [`StreamCtx::discard_stream`]          |
//! | `scap_set_stream_cutoff`      | [`StreamCtx::set_stream_cutoff`]       |
//! | `scap_set_stream_priority`    | [`StreamCtx::set_stream_priority`]     |
//! | `scap_set_stream_parameter`   | [`StreamCtx::set_stream_cutoff`] et al.|
//! | `scap_keep_stream_chunk`      | [`StreamCtx::keep_chunk`]              |
//! | `scap_next_stream_packet`     | [`StreamCtx::packets`]                 |
//! | `scap_get_stats`              | returned by [`Scap::start_capture`], [`Scap::stats`] |
//! | `scap_close`                  | `drop`                                 |
//!
//! The driver spawns one worker thread per configured worker (pinned
//! one-to-one to the kernel event queues they cover), runs the kernel
//! data path on the calling thread in bursts, and routes control
//! operations and chunk returns back to the kernel — the PF_SCAP socket
//! and shared memory of §5, as channels. The worker side (threads,
//! queues, watchdog) is the `crew` submodule.
//!
//! ## Fault tolerance
//!
//! A capture must outlive its workers. Each worker thread publishes a
//! heartbeat (events completed) and the uid of the stream it is currently
//! dispatching; a watchdog on the kernel thread notices dead workers
//! (their thread finished while the event queue was still open) and
//! wedged workers (one event held past a grace), judges each fault once,
//! puts one fresh thread on the same shared event queue for it, and flags
//! the affected stream with
//! [`crate::StreamErrors::WORKER_FAILURE`]. [`Scap::start_capture`] therefore
//! never panics because a callback did; the damage report is available
//! from [`Scap::last_capture_error`].

use crate::checkpoint::{self, CheckpointError};
use crate::config::{ConfigDelta, ConfigError, ScapConfig};
use crate::driver::StageClock;
use crate::event::{PacketRecord, StreamRef, StreamSnapshot};
use crate::kernel::{ControlOp, ScapKernel, ScapStats};
use crew::{Crew, WorkerHandlers};
use scap_faults::{FaultPlan, FrameFaultStats, WorkerFault};
use scap_filter::{Filter, FilterError};
use scap_reassembly::{OverlapPolicy, ReassemblyMode};
use scap_telemetry::{PulseSnapshot, Sampler, Snapshot, SpanTimer, Stage};
use scap_trace::Packet;
use scap_wire::Direction;
use std::path::{Path, PathBuf};
use std::sync::mpsc::Sender;
use std::sync::Arc;

/// Callback type: runs on worker threads.
pub type Handler = Arc<dyn Fn(&StreamCtx<'_>) + Send + Sync>;

/// A passive observer attached to the dispatch path with
/// [`Scap::attach_sink`]: it sees every stream creation, data delivery,
/// and termination *before* the application's own handlers run, on the
/// worker thread that dispatches the event. Sinks are infrastructure —
/// archives (`scap-store`), mirrors, probes — so they get the raw
/// snapshot + bytes rather than the interactive [`StreamCtx`] control
/// surface, and all methods default to no-ops.
pub trait EventSink: Send + Sync {
    /// A new stream was admitted (`scap_dispatch_creation`).
    fn on_created(&self, _stream: &StreamSnapshot) {}
    /// A reassembled chunk was delivered: `data` starts at stream
    /// `offset` within direction `dir`.
    fn on_data(&self, _stream: &StreamSnapshot, _dir: Direction, _data: &[u8], _offset: u64) {}
    /// The stream terminated; the snapshot carries the final counters.
    fn on_terminated(&self, _stream: &StreamSnapshot) {}
}

/// How many trailing flight-recorder events the crash black box keeps.
const BLACK_BOX_TAIL: usize = 256;

/// The view handed to callbacks: a consistent stream snapshot, the
/// delivered data (for data events), and the control surface.
pub struct StreamCtx<'a> {
    /// Consistent descriptor snapshot (`sd`).
    pub stream: &'a StreamSnapshot,
    /// Data direction, for data events.
    pub dir: Option<Direction>,
    /// Reassembled chunk bytes (`sd->data`), for data events.
    pub data: Option<&'a [u8]>,
    /// Stream offset of `data[0]` within its direction.
    pub data_offset: u64,
    /// Per-packet records (when `need_packets` was configured).
    pub packet_records: &'a [PacketRecord],
    ctl: &'a Sender<ControlOp>,
}

impl StreamCtx<'_> {
    /// This stream, as a control operation names it.
    fn named(&self) -> StreamRef {
        self.stream.into()
    }

    /// `scap_discard_stream`: stop collecting data for this stream.
    pub fn discard_stream(&self) {
        let _ = self.ctl.send(ControlOp::Discard(self.named()));
    }

    /// `scap_set_stream_cutoff`.
    pub fn set_stream_cutoff(&self, cutoff: u64) {
        let _ = self
            .ctl
            .send(ControlOp::SetCutoff(self.named(), None, Some(cutoff)));
    }

    /// Per-direction stream cutoff.
    pub fn set_stream_cutoff_direction(&self, dir: Direction, cutoff: u64) {
        let _ = self
            .ctl
            .send(ControlOp::SetCutoff(self.named(), Some(dir), Some(cutoff)));
    }

    /// `scap_set_stream_priority`.
    pub fn set_stream_priority(&self, priority: u8) {
        let _ = self
            .ctl
            .send(ControlOp::SetPriority(self.named(), priority));
    }

    /// `scap_set_stream_parameter` for chunk geometry: change this
    /// stream's chunk size and overlap from the next chunk on.
    pub fn set_chunk_geometry(&self, chunk_size: u32, overlap: u32) {
        let _ = self.ctl.send(ControlOp::SetChunkGeometry(
            self.named(),
            chunk_size,
            overlap,
        ));
    }

    /// `scap_keep_stream_chunk`: merge this chunk into the next one.
    ///
    /// Best-effort in the threaded driver: the request races the kernel's
    /// own chunk production, so a chunk that completes before the request
    /// arrives is delivered unmerged (the same asynchrony the real
    /// socket-based call has).
    pub fn keep_chunk(&self) {
        if let Some(d) = self.dir {
            let _ = self.ctl.send(ControlOp::KeepChunk(self.named(), d));
        }
    }

    /// `scap_next_stream_packet`: iterate the chunk's packets in capture
    /// order, yielding each record and its payload slice within the chunk.
    pub fn packets(&self) -> impl Iterator<Item = (PacketRecord, Option<&[u8]>)> {
        let data = self.data;
        let base = self.data_offset;
        self.packet_records.iter().map(move |pr| {
            let slice = match (data, pr.chunk_off) {
                (Some(d), off) if off != u32::MAX => {
                    let start = (off as u64).saturating_sub(base) as usize;
                    let end = (start + pr.payload_len as usize).min(d.len());
                    (start < end).then(|| &d[start..end])
                }
                _ => None,
            };
            (*pr, slice)
        })
    }
}

/// Builder for a capture socket (`scap_create` + configuration calls).
pub struct ScapBuilder {
    cfg: ScapConfig,
    filter_err: Option<FilterError>,
    stats_interval: Option<u64>,
    resume_path: Option<PathBuf>,
    ckpt_every: Option<(u64, PathBuf)>,
}

impl ScapBuilder {
    /// Stream-memory budget (`memory_size`).
    pub fn memory(mut self, bytes: usize) -> Self {
        self.cfg.memory_bytes = bytes;
        self
    }

    /// TCP reassembly mode.
    pub fn reassembly_mode(mut self, mode: ReassemblyMode) -> Self {
        self.cfg.reassembly_mode = mode;
        self
    }

    /// Target-based overlap policy.
    pub fn overlap_policy(mut self, policy: OverlapPolicy) -> Self {
        self.cfg.overlap_policy = policy;
        self
    }

    /// Deliver per-packet records with each chunk (`need_pkts`).
    pub fn need_packets(mut self, yes: bool) -> Self {
        self.cfg.need_pkts = yes;
        self
    }

    /// `scap_set_filter`: BPF filter expression.
    pub fn filter(mut self, expr: &str) -> Self {
        match Filter::new(expr) {
            Ok(f) => self.cfg.filter = Some(f),
            Err(e) => self.filter_err = Some(e),
        }
        self
    }

    /// `scap_set_cutoff`: default per-stream cutoff in bytes.
    pub fn cutoff(mut self, bytes: u64) -> Self {
        self.cfg.cutoff.default = Some(bytes);
        self
    }

    /// `scap_add_cutoff_direction`.
    pub fn cutoff_direction(mut self, dir: Direction, bytes: u64) -> Self {
        self.cfg.cutoff.per_direction[dir.index()] = Some(bytes);
        self
    }

    /// `scap_add_cutoff_class`: cutoff for streams matching a filter.
    pub fn cutoff_class(mut self, expr: &str, bytes: u64) -> Self {
        match Filter::new(expr) {
            Ok(f) => self.cfg.cutoff.classes.push((f, bytes)),
            Err(e) => self.filter_err = Some(e),
        }
        self
    }

    /// Assign a PPL priority to streams matching a filter.
    pub fn priority_class(mut self, expr: &str, priority: u8) -> Self {
        match Filter::new(expr) {
            Ok(f) => {
                self.cfg.priorities.classes.push((f, priority));
                self.cfg.ppl.num_priorities = self.cfg.ppl.num_priorities.max(priority + 1);
            }
            Err(e) => self.filter_err = Some(e),
        }
        self
    }

    /// `scap_set_worker_threads`.
    pub fn worker_threads(mut self, n: usize) -> Self {
        self.cfg.worker_threads = n.max(1);
        self
    }

    /// Kernel cores / NIC queues.
    pub fn cores(mut self, n: usize) -> Self {
        self.cfg.cores = n.max(1);
        self
    }

    /// Chunk size parameter.
    pub fn chunk_size(mut self, bytes: usize) -> Self {
        self.cfg.chunk_size = bytes.max(1);
        self
    }

    /// Inter-chunk overlap parameter.
    pub fn overlap(mut self, bytes: usize) -> Self {
        self.cfg.overlap = bytes;
        self
    }

    /// Flush timeout parameter.
    pub fn flush_timeout_ns(mut self, ns: u64) -> Self {
        self.cfg.flush_timeout_ns = ns;
        self
    }

    /// Inactivity timeout parameter.
    pub fn inactivity_timeout_ns(mut self, ns: u64) -> Self {
        self.cfg.inactivity_timeout_ns = ns;
        self
    }

    /// PPL base threshold (fraction of memory in use).
    pub fn base_threshold(mut self, frac: f64) -> Self {
        self.cfg.ppl.base_threshold = frac.clamp(0.0, 1.0);
        self
    }

    /// PPL overload cutoff (stream offset beyond which bytes are shed
    /// under pressure).
    pub fn overload_cutoff(mut self, bytes: u64) -> Self {
        self.cfg.ppl.overload_cutoff = Some(bytes);
        self
    }

    /// Enable NIC flow-director filters (subzero copy).
    pub fn use_fdir(mut self, yes: bool) -> Self {
        self.cfg.use_fdir = yes;
        self
    }

    /// Enable the programmable per-flow offload stage: cutoff drop rules
    /// move from FDIR's four-filters-per-stream table into a
    /// million-entry action table evaluated before the memory budget,
    /// and applications can install `Mark`/`Sample`/`Bypass` rules.
    pub fn offload(mut self, yes: bool) -> Self {
        self.cfg.use_offload = yes;
        self
    }

    /// Rule capacity of the offload table (clamped to ≥ 1; only
    /// meaningful with [`ScapBuilder::offload`] enabled).
    pub fn offload_capacity(mut self, rules: usize) -> Self {
        self.cfg.offload_capacity = rules.max(1);
        self
    }

    /// Select the dispatch path: the emulated per-packet classic path
    /// or the poll-mode kernel-bypass fast path (`--fastpath`). The
    /// delivered streams are byte-identical either way; only the cost
    /// structure differs.
    pub fn dispatch(mut self, mode: crate::DispatchMode) -> Self {
        self.cfg.dispatch = mode;
        self
    }

    /// Frames per burst on the fast path (clamped to ≥ 1).
    pub fn fastpath_burst(mut self, frames: usize) -> Self {
        self.cfg.fastpath_burst = frames.max(1);
        self
    }

    /// Attach a deterministic fault-injection plan (tests, chaos
    /// experiments).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.cfg.faults = Some(plan);
        self
    }

    /// Watchdog circuit-breaker policy: `threshold` worker failures
    /// (panics + stalls) inside `window_ns` of trace time park the slot
    /// instead of respawning it forever.
    pub fn watchdog_breaker(mut self, threshold: u32, window_ns: u64) -> Self {
        self.cfg.watchdog_breaker_threshold = threshold.max(1);
        self.cfg.watchdog_breaker_window_ns = window_ns.max(1);
        self
    }

    /// Invoke the stats hook (see [`Scap::dispatch_stats`]) with a merged
    /// telemetry snapshot every `packets` packets during capture. Zero
    /// disables periodic emission (the default).
    pub fn stats_interval(mut self, packets: u64) -> Self {
        self.stats_interval = (packets > 0).then_some(packets);
        self
    }

    /// Gauge-sampling interval for the telemetry time-series, in
    /// nanoseconds of trace time between rows.
    pub fn telemetry_sample_interval_ns(mut self, ns: u64) -> Self {
        self.cfg.telemetry_sample_interval_ns = ns.max(1);
        self
    }

    /// Warm restart: restore the capture from a checkpoint file written
    /// by [`Scap::checkpoint`] or a `checkpoint_every` interval. The
    /// checkpointed configuration replaces every builder knob except the
    /// fault plan and stats interval; stream uids, committed offsets and
    /// installed FDIR filters carry over, and resumed streams are marked
    /// with [`crate::StreamErrors::RESUMED`].
    pub fn resume_from(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume_path = Some(path.into());
        self
    }

    /// Write a crash-consistent checkpoint to `path` every `packets`
    /// packets during capture (atomically: tmp file + rename, so a crash
    /// mid-write never corrupts the previous checkpoint). Zero disables.
    pub fn checkpoint_every(mut self, packets: u64, path: impl Into<PathBuf>) -> Self {
        self.ckpt_every = (packets > 0).then(|| (packets, path.into()));
        self
    }

    /// Finalize, surfacing filter-compilation and checkpoint-restore
    /// errors. (The panicking `build()` of 0.1 is gone; this is the only
    /// way to construct a [`Scap`].)
    pub fn try_build(mut self) -> Result<Scap, BuildError> {
        if let Some(e) = self.filter_err.take() {
            return Err(BuildError::Filter(e));
        }
        self.cfg.ppl.num_priorities = self
            .cfg
            .ppl
            .num_priorities
            .max(self.cfg.priorities.levels());
        let (cfg, kernel) = match self.resume_path.take() {
            Some(path) => {
                let img = checkpoint::read_image(&path)?;
                let k = ScapKernel::from_image(img, self.cfg.faults.clone())?;
                (k.config().clone(), Some(k))
            }
            None => (self.cfg, None),
        };
        Ok(Scap {
            cfg: Some(cfg),
            kernel,
            ckpt_every: self.ckpt_every,
            ckpt_seq: 0,
            max_burst: MAX_BURST,
            died_at: None,
            last_ts_ns: 0,
            on_create: None,
            on_data: None,
            on_termination: None,
            on_stats: None,
            sinks: Vec::new(),
            stats_interval: self.stats_interval,
            last_stats: None,
            last_error: None,
            last_telemetry: None,
            last_series: None,
        })
    }
}

/// Why a capture socket could not be constructed.
#[derive(Debug)]
pub enum BuildError {
    /// The BPF-subset filter expression failed to compile.
    Filter(FilterError),
    /// A `resume_from` checkpoint could not be read or restored.
    Checkpoint(CheckpointError),
}

impl core::fmt::Display for BuildError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BuildError::Filter(e) => write!(f, "invalid filter expression: {e}"),
            BuildError::Checkpoint(e) => write!(f, "checkpoint restore failed: {e}"),
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::Filter(e) => Some(e),
            BuildError::Checkpoint(e) => Some(e),
        }
    }
}

impl From<FilterError> for BuildError {
    fn from(e: FilterError) -> Self {
        BuildError::Filter(e)
    }
}

impl From<CheckpointError> for BuildError {
    fn from(e: CheckpointError) -> Self {
        BuildError::Checkpoint(e)
    }
}

/// Per-worker outcome of a capture, reported in [`CaptureError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStatus {
    /// Worker index (event queues are sharded `core % workers`).
    pub worker: usize,
    /// Times this worker's thread died (panicked) mid-capture.
    pub panics: u64,
    /// Times the watchdog declared this worker wedged.
    pub stalls: u64,
    /// Replacement/sibling threads the watchdog spawned for it.
    pub restarts: u64,
    /// Events the kernel thread handed this slot.
    pub events_sent: u64,
    /// Events its threads dispatched to completion.
    pub events_handled: u64,
    /// Events written off: held by a thread that died mid-dispatch, or
    /// queued on the slot once the breaker parked it.
    pub events_lost: u64,
}

impl WorkerStatus {
    /// True when the worker ran to completion without incident.
    pub fn is_clean(&self) -> bool {
        self.panics == 0 && self.stalls == 0
    }
}

/// Worker failures survived during a capture. The capture itself
/// completed and its statistics are valid; this reports the damage
/// (panicked/stalled workers, each recovered by the watchdog).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaptureError {
    /// Status of every worker slot, clean ones included.
    pub workers: Vec<WorkerStatus>,
}

impl CaptureError {
    /// Total worker panics across the capture.
    pub fn panics(&self) -> u64 {
        self.workers.iter().map(|w| w.panics).sum()
    }

    /// Total stalls detected across the capture.
    pub fn stalls(&self) -> u64 {
        self.workers.iter().map(|w| w.stalls).sum()
    }
}

impl core::fmt::Display for CaptureError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "capture survived {} worker panic(s) and {} stall(s) across {} worker(s)",
            self.panics(),
            self.stalls(),
            self.workers.len()
        )
    }
}

impl std::error::Error for CaptureError {}

/// Materialize a packet stream with a fault plan's wire-level mangling
/// applied — corruption, truncation, duplication, adjacent-swap
/// reordering and timestamp anomalies — returning the mangled packets
/// and the injector's counters. The live driver and the chaos experiment
/// share this boundary.
pub fn mangle_packets(
    plan: &FaultPlan,
    packets: impl IntoIterator<Item = Packet>,
) -> (Vec<Packet>, FrameFaultStats) {
    let mut inj = plan.frame_injector();
    let mut out: Vec<Packet> = Vec::new();
    let mut pending_swap: Option<usize> = None;
    for pkt in packets {
        let mut ts = pkt.ts_ns;
        let mut frame = pkt.frame.to_vec();
        let d = inj.apply(&mut ts, &mut frame);
        let mangled = Packet::new(ts, frame);
        let idx = out.len();
        out.push(mangled.clone());
        if let Some(prev) = pending_swap.take() {
            out.swap(prev, idx);
        } else if d.swap_with_next {
            pending_swap = Some(idx);
        }
        if d.duplicate {
            out.push(mangled);
        }
    }
    (out, inj.stats())
}

/// Crash black box: the flight journal's tail, written next to the
/// periodic checkpoint (when one is configured).
fn write_black_box(ckpt: Option<&(u64, PathBuf)>, kernel: &ScapKernel) {
    if let Some((_, path)) = ckpt {
        let mut bb = path.clone().into_os_string();
        bb.push(".flight");
        let _ = std::fs::write(bb, kernel.flight().encode_tail(BLACK_BOX_TAIL));
    }
}

/// A capture socket.
pub struct Scap {
    cfg: Option<ScapConfig>,
    /// Kernel state: pre-built when resuming from a checkpoint, and
    /// retained after a capture so it can be checkpointed or inspected.
    kernel: Option<ScapKernel>,
    ckpt_every: Option<(u64, PathBuf)>,
    ckpt_seq: u64,
    /// Burst cap: [`MAX_BURST`], except in tests that force per-packet
    /// service to compare against.
    max_burst: u64,
    died_at: Option<u64>,
    last_ts_ns: u64,
    on_create: Option<Handler>,
    on_data: Option<Handler>,
    on_termination: Option<Handler>,
    on_stats: Option<StatsHandler>,
    sinks: Vec<Arc<dyn EventSink>>,
    stats_interval: Option<u64>,
    last_stats: Option<ScapStats>,
    last_error: Option<CaptureError>,
    last_telemetry: Option<Snapshot>,
    last_series: Option<Sampler>,
}

/// Periodic-stats callback type: runs on the kernel thread with the
/// merged telemetry snapshot and the kernel's pulse plane.
pub type StatsHandler = Arc<dyn Fn(&Snapshot, &PulseSnapshot) + Send + Sync>;

/// Most packets fed to the NIC between two service passes. Also the
/// watchdog cadence, so a burst never spans a watchdog pass.
const MAX_BURST: u64 = 256;

impl Scap {
    /// Start configuring a capture (`scap_create`).
    pub fn builder() -> ScapBuilder {
        ScapBuilder {
            cfg: ScapConfig::default(),
            filter_err: None,
            stats_interval: None,
            resume_path: None,
            ckpt_every: None,
        }
    }

    /// `scap_dispatch_creation`.
    pub fn dispatch_creation<F: Fn(&StreamCtx<'_>) + Send + Sync + 'static>(&mut self, f: F) {
        self.on_create = Some(Arc::new(f));
    }

    /// `scap_dispatch_data`.
    pub fn dispatch_data<F: Fn(&StreamCtx<'_>) + Send + Sync + 'static>(&mut self, f: F) {
        self.on_data = Some(Arc::new(f));
    }

    /// `scap_dispatch_termination`.
    pub fn dispatch_termination<F: Fn(&StreamCtx<'_>) + Send + Sync + 'static>(&mut self, f: F) {
        self.on_termination = Some(Arc::new(f));
    }

    /// Attach a passive [`EventSink`] observing the full dispatch path
    /// (creation, data, termination) alongside the application handlers.
    /// Multiple sinks run in attachment order, before the handlers.
    pub fn attach_sink(&mut self, sink: Arc<dyn EventSink>) {
        self.sinks.push(sink);
    }

    /// Install the periodic-stats hook: called on the kernel thread with
    /// a merged telemetry snapshot and the kernel's pulse plane every
    /// [`ScapBuilder::stats_interval`] packets during capture.
    pub fn dispatch_stats<F: Fn(&Snapshot, &PulseSnapshot) + Send + Sync + 'static>(
        &mut self,
        f: F,
    ) {
        self.on_stats = Some(Arc::new(f));
    }

    /// Merged telemetry snapshot (kernel + NIC + arena + workers) from
    /// the most recent capture; counters use wall-clock-nanosecond stage
    /// histograms under this driver.
    pub fn telemetry_snapshot(&self) -> Option<&Snapshot> {
        self.last_telemetry.as_ref()
    }

    /// The kernel's pulse plane (per-stage latency histograms and tail
    /// exemplars) as the most recent capture left it.
    pub fn pulse_snapshot(&self) -> Option<PulseSnapshot> {
        self.kernel.as_ref().map(ScapKernel::pulse_snapshot)
    }

    /// Gauge time-series sampled during the most recent capture, keyed
    /// on trace timestamps.
    pub fn telemetry_series(&self) -> Option<&Sampler> {
        self.last_series.as_ref()
    }

    /// `scap_get_stats` for the most recent capture.
    pub fn stats(&self) -> Option<ScapStats> {
        self.last_stats
    }

    /// Worker failures survived during the most recent capture (`None`
    /// when every worker ran clean).
    pub fn last_capture_error(&self) -> Option<&CaptureError> {
        self.last_error.as_ref()
    }

    /// `scap_start_capture`: run the capture over a packet source with
    /// the configured worker threads; returns the final statistics.
    ///
    /// The packet source stands in for the monitored interface: a pcap
    /// file reader, a synthetic generator, or any packet iterator; it is
    /// pulled one burst at a time, never materialized (except under a
    /// fault plan, whose frame mangling reorders). A second call on the
    /// same socket returns the previous statistics (the capture is
    /// already consumed).
    ///
    /// The kernel thread works in bursts (DESIGN.md §4.1): up to 256
    /// packets into the NIC, then one
    /// [`ScapKernel::service_core`] pass per core, one batch of events to
    /// each worker slot, one sweep of the channels back. A burst ends
    /// early at any packet ordinal where a checkpoint, the injected
    /// kill, the stats hook or the watchdog is due, after one governor
    /// tick of trace time, and after a single packet under overload.
    pub fn start_capture(&mut self, packets: impl IntoIterator<Item = Packet>) -> ScapStats {
        let Some(cfg) = self.cfg.take() else {
            return self.last_stats.unwrap_or_default();
        };
        let nworkers = cfg.worker_threads.max(1);
        let worker_faults: Vec<WorkerFault> = cfg
            .faults
            .as_ref()
            .map(|p| p.workers.clone())
            .unwrap_or_default();

        // Wire-level fault mangling happens at the trace boundary, before
        // the NIC ever sees a frame.
        let mut frame_stats = None;
        let source: Box<dyn Iterator<Item = Packet> + '_> = match cfg.faults.as_ref() {
            Some(plan) => {
                let (v, s) = mangle_packets(plan, packets);
                frame_stats = Some(s);
                Box::new(v.into_iter())
            }
            None => Box::new(packets.into_iter()),
        };
        let mut source = source.peekable();

        // Warm restart: reuse the kernel restored by `resume_from` (stream
        // uids, committed offsets and FDIR filters carry over) instead of
        // building a cold one.
        let mut kernel = match self.kernel.take() {
            Some(k) => k,
            None => ScapKernel::new(cfg),
        };
        if let Some(s) = frame_stats {
            kernel.note_frame_faults(s);
        }
        let kcfg = kernel.config();
        let ncores = kcfg.cores.max(1);
        let kill_at = kcfg.faults.as_ref().and_then(|p| p.kill_at_packet);
        let tick_ns = kcfg.governor.tick_ns;
        // A burst the ring cannot hold would drop what per-packet
        // service never did.
        let max_burst = self.max_burst.min(kcfg.rx_ring_slots as u64).max(1);
        let breaker = scap_shard::CircuitBreaker::new(
            kcfg.watchdog_breaker_threshold,
            kcfg.watchdog_breaker_window_ns,
        );
        let handlers = WorkerHandlers {
            on_create: self.on_create.clone(),
            on_data: self.on_data.clone(),
            on_termination: self.on_termination.clone(),
            sinks: self.sinks.clone(),
        };
        let ckpt = self.ckpt_every.clone();
        let mut ckpt_seq = self.ckpt_seq;
        // One buffer for every periodic checkpoint of this capture.
        let mut ckpt_image = Vec::new();
        let on_stats = self.on_stats.clone();
        let stats_every = self.stats_interval;

        let scope_out = std::thread::scope(|s| {
            let mut crew = Crew::start(s, handlers, nworkers, breaker, &worker_faults);
            let mut now = 0u64;
            let mut npkts = 0u64;
            let mut killed: Option<u64> = None;
            let mut burst: Vec<Packet> = Vec::with_capacity(max_burst as usize);
            loop {
                // Room until the next ordinal where something is due.
                let mut room = max_burst.min(MAX_BURST - npkts % MAX_BURST);
                for every in [ckpt.as_ref().map(|c| c.0), stats_every]
                    .into_iter()
                    .flatten()
                {
                    room = room.min(every - npkts % every);
                }
                if let Some(k) = kill_at.filter(|&k| k > npkts) {
                    room = room.min(k - npkts);
                }
                if kernel.governor_level() > 0 {
                    // Overload: chunks must come back as fast as they go
                    // out, and replaying on past a worker that has
                    // fallen a whole burst behind only fills the arena
                    // with what it has not looked at yet.
                    room = 1;
                    crew.catch_up(&mut kernel, now, MAX_BURST);
                }
                burst.clear();
                while (burst.len() as u64) < room {
                    let first_ts = burst.first().map(|p| p.ts_ns);
                    let in_tick =
                        |p: &Packet| first_ts.is_none_or(|t| p.ts_ns.saturating_sub(t) < tick_ns);
                    match source.next_if(in_tick) {
                        Some(pkt) => burst.push(pkt),
                        None => break,
                    }
                }
                let Some(last) = burst.last() else {
                    break; // source exhausted
                };
                now = last.ts_ns;
                let span = SpanTimer::start();
                for pkt in &burst {
                    kernel.nic_receive(pkt);
                }
                span.finish(kernel.telemetry(), 0, Stage::Nic);
                for core in 0..ncores {
                    kernel.service_core(core, now, StageClock::Wall, &mut |_, ev| crew.fan_out(ev));
                    // Between cores, not once per burst: a small arena
                    // needs its chunks back before the next core's
                    // packets ask for them.
                    crew.drain_released(&mut kernel);
                }
                crew.hand_off();
                crew.drain_control(&mut kernel);
                npkts += burst.len() as u64;
                // Crash-consistent periodic checkpoints (§4 two-instance
                // trick): snapshot between packets, atomically, without
                // stopping dispatch.
                if let Some((every, path)) = ckpt.as_ref() {
                    if npkts.is_multiple_of(*every) {
                        ckpt_seq += 1;
                        kernel.checkpoint_into(now, ckpt_seq, &mut ckpt_image);
                        let _ = checkpoint::write_atomic(path, &ckpt_image);
                    }
                }
                // Injected crash: abandon the capture mid-flight without
                // flushing or terminating anything, as a real process
                // death would. Recovery goes through `resume_from`.
                if kill_at == Some(npkts) {
                    killed = Some(npkts);
                    // Persist the flight journal's tail before "dying",
                    // so the post-mortem (`scapstore verify`) can explain
                    // what the capture was doing when it was killed.
                    write_black_box(ckpt.as_ref(), &kernel);
                    break;
                }
                if let (Some(every), Some(hook)) = (stats_every, on_stats.as_ref()) {
                    if npkts.is_multiple_of(every) {
                        let mut snap = kernel.telemetry_snapshot();
                        snap.merge(&crew.telemetry());
                        hook(&snap, &kernel.pulse_snapshot());
                    }
                }
                if npkts.is_multiple_of(MAX_BURST) {
                    crew.watchdog(&mut kernel, now);
                }
            }

            if killed.is_none() {
                // Wait for the workers to drain their queues, twice. A
                // killed capture skips this: the process is "dead", we
                // only join threads. The first wait comes before `finish`
                // ends every stream, so the watchdog judges a fault found
                // there while the stream the worker held is still live.
                crew.catch_up(&mut kernel, now, 0);
                let end = now.saturating_add(1);
                kernel.finish(end);
                kernel.drain_events(end, |_, ev| crew.fan_out(ev));
                crew.hand_off();
                crew.catch_up(&mut kernel, now, 0);
            }
            let (statuses, worker_tele) = crew.finish(&mut kernel, now);
            // The kernel itself survives the capture so it can be
            // checkpointed or hot-reconfigured afterwards.
            let mut telemetry = kernel.telemetry_snapshot();
            telemetry.merge(&worker_tele);
            (kernel, statuses, telemetry, now, killed)
        });
        let (kernel, statuses, telemetry, end_ts, killed) = scope_out;

        let stats = kernel.stats();
        self.died_at = killed;
        self.last_ts_ns = end_ts;
        self.ckpt_seq = ckpt_seq;
        self.last_error = if statuses.iter().all(WorkerStatus::is_clean) {
            None
        } else {
            // Worker failures also leave a black box next to the
            // checkpoint: the capture survived, but the journal tail
            // records each panic and stall with the stream it was holding.
            write_black_box(self.ckpt_every.as_ref(), &kernel);
            Some(CaptureError { workers: statuses })
        };
        self.last_series = Some(kernel.telemetry_series().clone());
        self.kernel = Some(kernel);
        self.last_stats = Some(stats);
        self.last_telemetry = Some(telemetry);
        stats
    }

    /// Write a crash-consistent checkpoint of the capture state to
    /// `path` (atomically: tmp file + rename). Works on a socket that
    /// has finished (or been killed mid-) capture, and on a freshly
    /// resumed socket before its next capture.
    pub fn checkpoint(&mut self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let ts = self.last_ts_ns;
        let Some(kernel) = self.kernel.as_mut() else {
            return Err(CheckpointError::Corrupt(
                "no capture state to checkpoint (run or resume a capture first)".into(),
            ));
        };
        self.ckpt_seq += 1;
        let bytes = kernel.checkpoint_bytes(ts, self.ckpt_seq);
        checkpoint::write_atomic(path.as_ref(), &bytes)
    }

    /// Hot-reconfiguration: validate and apply a configuration delta to
    /// the capture.
    ///
    /// Validation ([`ConfigDelta::validate`]) rejects a delta that
    /// narrows the default cutoff while wider per-direction or
    /// per-class overrides stay installed — applying it would silently
    /// leave the overridden streams delivering beyond the new default.
    /// On `Err` the configuration is untouched.
    ///
    /// Before the first capture an accepted delta rewrites the pending
    /// configuration; on a socket with live kernel state (resumed, or
    /// between captures) it routes through the kernel's control path,
    /// so widened cutoffs re-open streams exactly like per-stream
    /// `ControlOp::SetCutoff` does — clearing `cutoff_exceeded` and
    /// uninstalling stale NIC drop filters.
    pub fn try_apply_config(&mut self, delta: ConfigDelta) -> Result<(), ConfigError> {
        let installed = self
            .kernel
            .as_ref()
            .map(|k| k.config())
            .or(self.cfg.as_ref());
        if let Some(cfg) = installed {
            delta.validate(cfg)?;
        }
        self.apply_unchecked(delta);
        Ok(())
    }

    fn apply_unchecked(&mut self, delta: ConfigDelta) {
        if let Some(kernel) = self.kernel.as_mut() {
            kernel.apply_config(delta);
            if let Some(cfg) = self.cfg.as_mut() {
                *cfg = kernel.config().clone();
            }
        } else if let Some(cfg) = self.cfg.as_mut() {
            let _ = delta.apply_to(cfg);
        }
    }

    /// The packet index at which an injected crash (`kill_at_packet`)
    /// abandoned the most recent capture, if it did.
    pub fn died_at(&self) -> Option<u64> {
        self.died_at
    }

    /// The encoded flight journal of the most recent capture (`None`
    /// before any capture has run). Decode with
    /// [`scap_flight::decode_journal`].
    pub fn flight_journal(&self) -> Option<Vec<u8>> {
        self.kernel.as_ref().map(|k| k.flight().encode())
    }
}

#[cfg(test)]
impl Scap {
    /// Cap bursts at `n` packets (1 = per-packet service, the reference
    /// the burst driver is compared against).
    fn with_max_burst(mut self, n: u64) -> Self {
        self.max_burst = n;
        self
    }
}

#[cfg(test)]
mod burst_tests;
mod crew;

#[cfg(test)]
mod tests {
    use super::*;
    use scap_flight::{FlightKind, FlightLayer};
    use scap_telemetry::Metric;
    use scap_trace::gen::{CampusMix, CampusMixConfig};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn trace() -> Vec<Packet> {
        CampusMix::new(CampusMixConfig::sized(21, 2 << 20)).collect_all()
    }

    #[test]
    fn live_capture_delivers_all_event_kinds() {
        let created = Arc::new(AtomicU64::new(0));
        let data_bytes = Arc::new(AtomicU64::new(0));
        let terminated = Arc::new(AtomicU64::new(0));

        let mut scap = Scap::builder().worker_threads(2).try_build().unwrap();
        {
            let c = created.clone();
            scap.dispatch_creation(move |_| {
                c.fetch_add(1, Ordering::Relaxed);
            });
            let d = data_bytes.clone();
            scap.dispatch_data(move |ctx| {
                d.fetch_add(ctx.data.map_or(0, |b| b.len() as u64), Ordering::Relaxed);
            });
            let t = terminated.clone();
            scap.dispatch_termination(move |_| {
                t.fetch_add(1, Ordering::Relaxed);
            });
        }
        let stats = scap.start_capture(trace());
        assert_eq!(created.load(Ordering::Relaxed), stats.stack.streams_created);
        assert_eq!(
            terminated.load(Ordering::Relaxed),
            stats.stack.streams_reported
        );
        assert!(data_bytes.load(Ordering::Relaxed) > 0);
        assert_eq!(stats.stack.dropped_packets, 0);
        assert!(scap.stats().is_some());
        assert!(scap.last_capture_error().is_none());
    }

    #[test]
    fn zero_cutoff_suppresses_data_events() {
        let data_events = Arc::new(AtomicU64::new(0));
        let mut scap = Scap::builder().cutoff(0).try_build().unwrap();
        let d = data_events.clone();
        scap.dispatch_data(move |_| {
            d.fetch_add(1, Ordering::Relaxed);
        });
        let stats = scap.start_capture(trace());
        assert_eq!(data_events.load(Ordering::Relaxed), 0);
        assert!(stats.stack.streams_reported > 0);
    }

    #[test]
    fn discard_stream_from_callback_stops_data() {
        let seen = Arc::new(AtomicU64::new(0));
        let mut scap = Scap::builder().chunk_size(1024).try_build().unwrap();
        let s = seen.clone();
        scap.dispatch_data(move |ctx| {
            s.fetch_add(ctx.data.map_or(0, |b| b.len() as u64), Ordering::Relaxed);
            ctx.discard_stream();
        });
        let stats = scap.start_capture(trace());
        // Discards must have kicked in: far less data delivered than
        // exists on the wire.
        let delivered = seen.load(Ordering::Relaxed);
        assert!(delivered > 0);
        assert!(stats.stack.discarded_packets > 0);
    }

    #[test]
    fn try_apply_config_rejects_conflicting_narrowing() {
        let mut scap = Scap::builder()
            .cutoff(1_000)
            .cutoff_class("port 80", 50_000)
            .try_build()
            .unwrap();
        // Narrowing the default below the installed class override is
        // rejected and leaves the configuration untouched.
        let err = scap
            .try_apply_config(ConfigDelta {
                cutoff_default: Some(Some(10)),
                ..Default::default()
            })
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::CutoffConflict {
                new_default: Some(10),
                widest_override: Some(50_000),
            }
        );
        // Widening generalizes the policy — the class override is
        // cleared — after which the same narrowing is accepted.
        scap.try_apply_config(ConfigDelta {
            cutoff_default: Some(Some(100_000)),
            ..Default::default()
        })
        .unwrap();
        scap.try_apply_config(ConfigDelta {
            cutoff_default: Some(Some(10)),
            ..Default::default()
        })
        .unwrap();
        let stats = scap.start_capture(trace());
        assert!(stats.stack.streams_reported > 0);
    }

    #[test]
    fn filter_restricts_capture() {
        let mut scap = Scap::builder()
            .filter("udp and port 53")
            .try_build()
            .unwrap();
        let stats = scap.start_capture(trace());
        assert!(stats.stack.streams_created > 0);
        assert!(stats.stack.discarded_packets > stats.stack.streams_created);
    }

    #[test]
    fn invalid_filter_is_an_error() {
        assert!(Scap::builder().filter("tcp and and").try_build().is_err());
    }

    #[test]
    fn packet_records_iterate_with_payloads() {
        let pkt_count = Arc::new(AtomicU64::new(0));
        let payload_bytes = Arc::new(AtomicU64::new(0));
        let mut scap = Scap::builder().need_packets(true).try_build().unwrap();
        let pc = pkt_count.clone();
        let pb = payload_bytes.clone();
        scap.dispatch_data(move |ctx| {
            for (rec, slice) in ctx.packets() {
                pc.fetch_add(1, Ordering::Relaxed);
                if let Some(s) = slice {
                    pb.fetch_add(s.len() as u64, Ordering::Relaxed);
                }
                assert!(rec.wire_len > 0);
            }
        });
        scap.start_capture(trace());
        assert!(pkt_count.load(Ordering::Relaxed) > 0);
        assert!(payload_bytes.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn second_capture_on_consumed_socket_returns_previous_stats() {
        let mut scap = Scap::builder().try_build().unwrap();
        let first = scap.start_capture(trace());
        let second = scap.start_capture(trace());
        assert_eq!(first.stack.wire_packets, second.stack.wire_packets);
    }

    #[test]
    fn telemetry_snapshot_conserves_packets_and_times_workers() {
        let mut scap = Scap::builder().worker_threads(2).try_build().unwrap();
        scap.dispatch_data(|_| {});
        let stats = scap.start_capture(trace());
        let snap = scap.telemetry_snapshot().expect("telemetry captured");
        // One value compared with itself by construction: `stats()` reads
        // the wire count from the registry cell the snapshot copies.
        assert_eq!(snap.total(Metric::WirePackets), stats.stack.wire_packets);
        assert_eq!(
            snap.total(Metric::WirePackets),
            snap.total(Metric::DeliveredPackets)
                + snap.total(Metric::DroppedPackets)
                + snap.total(Metric::DiscardedPackets)
        );
        // Worker spans are wall-clock and must cover every handled event.
        assert_eq!(
            snap.stage(Stage::Worker).count(),
            snap.total(Metric::WorkerEventsHandled)
        );
        assert!(snap.total(Metric::WorkerEventsHandled) > 0);
        // Kernel-side spans are per burst: one NIC span each, one kernel
        // span per core each. Nothing cuts a burst here but the 256-packet
        // cadence and one governor tick of trace time.
        let (pkts, tick_ns) = (trace(), ScapConfig::default().governor.tick_ns);
        let (mut bursts, mut first_ts) = (0u64, 0u64);
        for (i, p) in pkts.iter().enumerate() {
            if (i as u64).is_multiple_of(MAX_BURST) || p.ts_ns.saturating_sub(first_ts) >= tick_ns {
                (bursts, first_ts) = (bursts + 1, p.ts_ns);
            }
        }
        assert!(bursts < stats.stack.wire_packets / 8, "{bursts} bursts");
        assert_eq!(snap.stage(Stage::Nic).count(), bursts);
        assert_eq!(
            snap.stage(Stage::Kernel).count(),
            bursts * ScapConfig::default().cores as u64
        );
        assert!(scap.telemetry_series().is_some());
    }

    #[test]
    fn stats_interval_fires_the_stats_hook() {
        let calls = Arc::new(AtomicU64::new(0));
        let mut scap = Scap::builder().stats_interval(500).try_build().unwrap();
        let c = calls.clone();
        scap.dispatch_stats(move |snap, pulse| {
            assert!(snap.total(Metric::WirePackets) > 0);
            assert!(!pulse.is_empty());
            c.fetch_add(1, Ordering::Relaxed);
        });
        scap.start_capture(trace());
        assert!(calls.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn attached_sink_observes_every_event_kind() {
        #[derive(Default)]
        struct Counting {
            created: AtomicU64,
            data_bytes: AtomicU64,
            terminated: AtomicU64,
        }
        impl EventSink for Counting {
            fn on_created(&self, _s: &StreamSnapshot) {
                self.created.fetch_add(1, Ordering::Relaxed);
            }
            fn on_data(&self, _s: &StreamSnapshot, _dir: Direction, data: &[u8], _off: u64) {
                self.data_bytes
                    .fetch_add(data.len() as u64, Ordering::Relaxed);
            }
            fn on_terminated(&self, _s: &StreamSnapshot) {
                self.terminated.fetch_add(1, Ordering::Relaxed);
            }
        }

        let sink = Arc::new(Counting::default());
        let mut scap = Scap::builder().worker_threads(2).try_build().unwrap();
        scap.attach_sink(sink.clone());
        let stats = scap.start_capture(trace());
        assert_eq!(
            sink.created.load(Ordering::Relaxed),
            stats.stack.streams_created
        );
        assert_eq!(
            sink.terminated.load(Ordering::Relaxed),
            stats.stack.streams_reported
        );
        assert!(sink.data_bytes.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn panicking_callback_does_not_kill_the_capture() {
        let mut scap = Scap::builder().worker_threads(2).try_build().unwrap();
        let fired = Arc::new(AtomicU64::new(0));
        let f = fired.clone();
        scap.dispatch_data(move |_| {
            if f.fetch_add(1, Ordering::Relaxed) == 3 {
                panic!("application bug");
            }
        });
        let stats = scap.start_capture(trace());
        assert!(stats.stack.streams_created > 0);
        let err = scap.last_capture_error().expect("panic must be reported");
        assert!(err.panics() >= 1, "{err}");
        assert!(stats.resilience.worker_panics >= 1);
        assert!(stats.resilience.worker_restarts >= 1);
        assert_eq!(
            stats.resilience.watchdog_breaker_trips, 0,
            "a single panic must stay far below the default breaker threshold"
        );
    }

    /// One TCP session of `segments` 1000-byte client segments, closed
    /// by both FINs at the end when `close`, else left open for the
    /// capture's `finish` to end.
    fn long_session(segments: u32, close: bool) -> Vec<Packet> {
        use scap_wire::{PacketBuilder, TcpFlags};
        let (c, s, cp, sp) = ([10, 0, 0, 1], [10, 0, 0, 2], 40000, 80);
        let ack = TcpFlags::ACK;
        let mut frames = vec![
            PacketBuilder::tcp_v4(c, s, cp, sp, 0, 0, TcpFlags::SYN, b""),
            PacketBuilder::tcp_v4(s, c, sp, cp, 0, 1, TcpFlags::SYN | ack, b""),
        ];
        for i in 0..segments {
            frames.push(PacketBuilder::tcp_v4(
                c,
                s,
                cp,
                sp,
                1 + i * 1000,
                1,
                ack,
                &[7; 1000],
            ));
        }
        let (end, fin) = (1 + segments * 1000, TcpFlags::FIN | ack);
        if close {
            frames.push(PacketBuilder::tcp_v4(c, s, cp, sp, end, 1, fin, b""));
            frames.push(PacketBuilder::tcp_v4(s, c, sp, cp, 1, end + 1, fin, b""));
        }
        let ts = |i: usize| i as u64 * 10_000;
        frames
            .into_iter()
            .enumerate()
            .map(|(i, f)| Packet::new(ts(i), f))
            .collect()
    }

    /// A worker that dies or wedges holding an event marks that event's
    /// stream: its termination snapshot carries `WORKER_FAILURE`, whether
    /// the FINs end the stream before the fault is judged or `finish`
    /// ends it after. The fault gets exactly one verdict, of its own kind,
    /// and one replacement — however many watchdog passes see it.
    #[test]
    fn a_worker_fault_flags_the_stream_it_held() {
        use scap_faults::WorkerFaultKind;
        use scap_flow::StreamErrors;
        let kinds = [WorkerFaultKind::Panic, WorkerFaultKind::Stall(250_000_000)];
        let cases = [false, true].map(|c| kinds.map(|k| (c, k))).concat();
        for (close, kind) in cases {
            let plan = FaultPlan {
                workers: vec![WorkerFault {
                    worker: 0,
                    after_events: 5,
                    kind,
                }],
                ..FaultPlan::new(1)
            };
            let mut scap = Scap::builder()
                .cores(1)
                .worker_threads(1)
                .chunk_size(1024)
                .fault_plan(plan)
                .try_build()
                .unwrap();
            let ended = Arc::new(std::sync::Mutex::new(Vec::new()));
            let e = ended.clone();
            scap.dispatch_termination(move |ctx| {
                e.lock().unwrap().push((ctx.stream.uid, ctx.stream.errors));
            });
            let stats = scap.start_capture(long_session(3000, close));
            let case = format!("{kind:?}, closed by FINs: {close}");
            assert_eq!(stats.stack.streams_created, 1, "{case}");
            let journal = scap.flight_journal().expect("journal after capture");
            let journal = scap_flight::decode_journal(&journal).expect("journal decodes");
            let (fault, other) = match kind {
                WorkerFaultKind::Panic => (FlightKind::WorkerPanic, FlightKind::WorkerStall),
                WorkerFaultKind::Stall(_) => (FlightKind::WorkerStall, FlightKind::WorkerPanic),
            };
            let verdicts = |k: FlightKind| -> Vec<u64> {
                (journal.events.iter())
                    .filter(|e| e.kind == k)
                    .map(|e| e.uid)
                    .collect()
            };
            let ended = ended.lock().unwrap();
            assert_eq!(ended.len(), 1, "{case}: {ended:?}");
            let (uid, errors) = ended[0];
            assert_eq!(verdicts(fault), [uid], "{case}");
            assert_eq!(verdicts(other), [], "{case}");
            let r = &stats.resilience;
            let one = u64::from(fault == FlightKind::WorkerPanic);
            assert_eq!(
                (r.worker_panics, r.worker_stalls_detected, r.worker_restarts),
                (one, 1 - one, 1),
                "{case}"
            );
            assert_eq!(errors, StreamErrors::WORKER_FAILURE, "{case}");
        }
    }

    #[test]
    fn watchdog_breaker_parks_a_flapping_worker_slot() {
        // Threshold 1: the very first failure trips the breaker, so the
        // watchdog must park the slot instead of respawning — and the
        // capture must still drain and complete.
        let mut scap = Scap::builder()
            .worker_threads(2)
            .watchdog_breaker(1, 10_000_000_000)
            .try_build()
            .unwrap();
        let fired = Arc::new(AtomicU64::new(0));
        let f = fired.clone();
        scap.dispatch_data(move |_| {
            if f.fetch_add(1, Ordering::Relaxed) == 3 {
                panic!("application bug");
            }
        });
        let stats = scap.start_capture(trace());
        assert!(stats.stack.streams_created > 0);
        assert!(stats.resilience.worker_panics >= 1);
        assert!(
            stats.resilience.watchdog_breaker_trips >= 1,
            "threshold-1 breaker must trip on the first failure: {:?}",
            stats.resilience
        );
        // The trip is journaled with the slot index and failure count.
        let journal = scap.flight_journal().expect("journal after capture");
        let journal = scap_flight::decode_journal(&journal).expect("journal decodes");
        let trips: Vec<_> = journal
            .events
            .iter()
            .filter(|e| e.kind == FlightKind::BreakerTripped)
            .collect();
        assert!(!trips.is_empty(), "breaker trip must reach the journal");
        assert_eq!(trips[0].layer, FlightLayer::Worker);
    }
}
