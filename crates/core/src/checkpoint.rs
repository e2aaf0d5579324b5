//! Crash-consistent checkpoint/restore for the live capture pipeline.
//!
//! A checkpoint file captures everything a warm restart cannot rebuild
//! from the wire: per-core stream records and their kernel-side
//! reassembly state, the global uid counter, the overload-governor
//! escalation level, the installed FDIR filter set, and the active
//! [`ScapConfig`]. The on-disk format is the checksummed record framing
//! of [`scap_flight::framing`] — one CRC-32 kernel, one file header and
//! one record frame for checkpoints, the `scap-store` archive and flight
//! journals — re-exported here (which is where `scap-store` imports it
//! from) next to the torn-tail scanner.
//!
//! An image is written in one pass by [`ImageWriter`]: every record is
//! framed in place in the caller's buffer (header reserved, body
//! appended, length and CRC patched), and the kernel lends its live
//! stream state through [`KStateView`] so pending chunk bytes and
//! buffered out-of-order segments go from stream memory straight into
//! the image. The owned [`StreamImage`] is the decode product; it
//! re-encodes through the same writer by lending itself the same way.
//!
//! The fields the archive index shares with a stream record — the flow
//! key, the direction and [`StreamStatus`] bytes and the eight-`u64`
//! [`DirStats`] block — have one codec, [`put_key`] / [`decode_key`],
//! [`status_to_u8`] / [`decode_status`], [`put_dir_stats`] /
//! [`decode_dir_stats`] and [`decode_direction`], read through the
//! bounded [`Cursor`]; `scap-store` encodes its index records with them.
//!
//! # File layout
//!
//! ```text
//! [16-byte file header: CKPT_MAGIC, FORMAT_VERSION, sequence number]
//! [record]*            each: REC_MAGIC, body len, CRC-32, body
//! ```
//!
//! Record bodies start with a kind byte: config (`0x10`), globals
//! (`0x11`), one per stream (`0x12`), the FDIR filter set (`0x13`), the
//! tenant table (`0x15`), the offload rule set (`0x16`), and
//! a mandatory trailing end marker (`0x14`). A file whose last valid
//! record is not the end marker was torn mid-write and is rejected by
//! [`CheckpointImage::decode`]; [`repair_file`] truncates such a tail
//! (idempotently — repairing an already-repaired file is a no-op).
//! Checkpoints are written via [`write_atomic`] (temp file + rename), so
//! a crash during checkpointing leaves the previous checkpoint intact.
//!
//! # Restore invariants
//!
//! * Stream UIDs are stable across the restart: the uid counter resumes
//!   where it left off and restored streams keep their checkpointed
//!   uids, so pre- and post-restart archive records join on uid.
//! * Every direction re-anchors at its *committed* offset (delivered
//!   in-order bytes plus the buffered partial chunk, which travels in
//!   the checkpoint). No committed byte is ever re-delivered.
//! * Restored live streams carry [`StreamErrors::RESUMED`]; bytes lost
//!   in the restart blackout are skipped on the first post-resume
//!   segment and accounted in `resume_gap_bytes` — bounded by the
//!   traffic that arrived between the checkpoint and the crash.
//!
//! [`StreamErrors::RESUMED`]: scap_flow::StreamErrors::RESUMED

use std::path::Path;

use crate::config::{ConfigDelta, CutoffPolicy, PriorityPolicy, ScapConfig};
use crate::event::StreamUid;
use crate::governor::GovernorConfig;
use scap_filter::Filter;
use scap_flow::{DirStats, StreamStatus};
use scap_memory::PplConfig;
use scap_nic::{FdirAction, FdirFilter, FlexMatch, OffloadAction, OffloadRule};
use scap_reassembly::{
    ConnCheckpoint, ConnPhase, DirState, OverlapPolicy, ReassemblyMode, TcpConn,
};
use scap_wire::{Direction, FlowKey, IpAddrBytes, Transport};

// ---------------------------------------------------------------------------
// Shared record codec (also used by scap-store via re-export)
// ---------------------------------------------------------------------------

use scap_flight::framing::scan_records;
pub use scap_flight::framing::{
    crc32, file_header, frame_record, frame_record_into, FILE_HEADER_LEN, FORMAT_VERSION,
    REC_HEADER_LEN, REC_MAGIC,
};

/// Checkpoint-file magic ("SCKP").
pub const CKPT_MAGIC: u32 = 0x504B_4353;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Checkpoint read/write failures.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem error reading or writing the checkpoint.
    Io(std::io::Error),
    /// The checkpoint bytes are structurally or semantically invalid.
    Corrupt(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Corrupt(_) => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

fn corrupt(msg: impl Into<String>) -> CheckpointError {
    CheckpointError::Corrupt(msg.into())
}

// ---------------------------------------------------------------------------
// Image types
// ---------------------------------------------------------------------------

/// Record kind bytes (first body byte of every checkpoint record).
const REC_CONFIG: u8 = 0x10;
const REC_GLOBALS: u8 = 0x11;
const REC_STREAM: u8 = 0x12;
const REC_FDIR: u8 = 0x13;
const REC_END: u8 = 0x14;
const REC_TENANTS: u8 = 0x15;
const REC_OFFLOAD: u8 = 0x16;

/// Kernel-global state that is not per-stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointGlobals {
    /// Trace timestamp the checkpoint was taken at (ns).
    pub ts_ns: u64,
    /// Last assigned stream uid (uids stay stable across restarts).
    pub uid_counter: u64,
    /// Overload-governor escalation level at checkpoint time.
    pub governor_level: u8,
    /// Warm restarts this lineage has been through so far.
    pub restarts: u64,
}

/// One direction's chunk-assembler state: the committed offset and the
/// buffered partial-chunk bytes (which the committed offset includes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AsmImage<B = Vec<u8>> {
    /// Next byte offset the assembler will write (committed frontier).
    pub committed: u64,
    /// Partial-chunk bytes buffered at checkpoint time (`&[u8]` when
    /// lent by a live assembler, see [`KStateView`]).
    pub pending: B,
}

/// Kernel-side per-stream state (absent for TIME_WAIT tombstones).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KStateImage {
    /// NIC drop filters were installed for this stream.
    pub fdir_installed: bool,
    /// Current adaptive FDIR expiry timeout (ns).
    pub fdir_timeout_ns: u64,
    /// The stream fell back to software discard after FDIR failures.
    pub fdir_software_fallback: bool,
    /// TCP connection state (both directions' reassembly), if tracked.
    pub conn: Option<ConnCheckpoint>,
    /// Per-direction chunk-assembler state, indexed by `Direction`.
    pub asm: [Option<AsmImage>; 2],
}

/// A connection's reassembly state as the encoder reads it.
#[derive(Debug, Clone, Copy)]
pub enum ConnView<'a> {
    /// Still inside the kernel: buffered out-of-order segments are
    /// written from the reassembler's own memory.
    Live(&'a TcpConn),
    /// Decoded from an earlier image.
    Image(&'a ConnCheckpoint),
}

/// Borrowed form of [`KStateImage`], the only shape the stream-record
/// encoder reads: the kernel fills it from a live stream's state, a
/// decoded [`KStateImage`] lends itself as one. No payload byte is
/// copied to build it.
#[derive(Debug, Clone, Copy)]
pub struct KStateView<'a> {
    /// See [`KStateImage::fdir_installed`].
    pub fdir_installed: bool,
    /// See [`KStateImage::fdir_timeout_ns`].
    pub fdir_timeout_ns: u64,
    /// See [`KStateImage::fdir_software_fallback`].
    pub fdir_software_fallback: bool,
    /// TCP connection state, if tracked.
    pub conn: Option<ConnView<'a>>,
    /// Per-direction chunk-assembler state, indexed by `Direction`.
    pub asm: [Option<AsmImage<&'a [u8]>>; 2],
}

/// Kernel-side stream state the encoder can borrow as a [`KStateView`].
pub trait KStateSource {
    /// Lend this state to the encoder.
    fn view(&self) -> KStateView<'_>;
}

impl KStateSource for KStateView<'_> {
    fn view(&self) -> KStateView<'_> {
        *self
    }
}

impl KStateSource for KStateImage {
    fn view(&self) -> KStateView<'_> {
        KStateView {
            fdir_installed: self.fdir_installed,
            fdir_timeout_ns: self.fdir_timeout_ns,
            fdir_software_fallback: self.fdir_software_fallback,
            conn: self.conn.as_ref().map(ConnView::Image),
            asm: self.asm.each_ref().map(|a| {
                a.as_ref().map(|a| AsmImage {
                    committed: a.committed,
                    pending: a.pending.as_slice(),
                })
            }),
        }
    }
}

/// One checkpointed stream: the flow-table record plus (for live
/// streams) the kernel state needed to resume reassembly exactly at the
/// committed offset. `K` is the owned [`KStateImage`] in a decoded
/// image and a [`KStateView`] while the kernel is writing one.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamImage<K = KStateImage> {
    /// Core (flow table) the stream lives on.
    pub core: u32,
    /// Stable stream uid.
    pub uid: StreamUid,
    /// Canonical flow key.
    pub key: FlowKey,
    /// Direction of the first observed packet.
    pub first_dir: Direction,
    /// First-packet timestamp (ns).
    pub first_ts_ns: u64,
    /// Most recent packet timestamp (ns).
    pub last_ts_ns: u64,
    /// Lifecycle status.
    pub status: StreamStatus,
    /// Raw error-flag bits.
    pub errors: u8,
    /// PPL priority.
    pub priority: u8,
    /// Per-direction cutoffs in force: the stream's class's under the
    /// image's configuration, or an application's (`[None, None]` on a
    /// TIME_WAIT tombstone).
    pub cutoff: [Option<u64>; 2],
    /// A cutoff already tripped.
    pub cutoff_exceeded: bool,
    /// The application asked to discard the rest of the stream.
    pub discarded: bool,
    /// Per-direction byte/packet counters.
    pub dirs: [DirStats; 2],
    /// Per-stream chunk size: the socket's unless an application set
    /// its own (0 on a TIME_WAIT tombstone, and read as the socket's).
    pub chunk_size: u32,
    /// Per-stream chunk overlap, likewise.
    pub overlap: u32,
    /// Per-stream reassembly-policy override. An image field carried
    /// through: only a restore writes it, and reassembly follows the
    /// socket's `overlap_policy` whatever it says.
    pub reassembly_policy: Option<u8>,
    /// Cumulative user processing time charged to the stream (ns). An
    /// image field carried through: only a restore writes it, nothing
    /// charges the §3.2 processing time.
    pub processing_time_ns: u64,
    /// Chunks delivered so far.
    pub chunks: u64,
    /// Bytes already skipped over earlier restart blackouts.
    pub resume_gap_bytes: u64,
    /// Kernel state; `None` marks a TIME_WAIT tombstone (record only).
    pub kstate: Option<K>,
}

/// A decoded checkpoint: everything [`crate::ScapKernel`] needs to
/// rebuild itself mid-capture.
#[derive(Debug)]
pub struct CheckpointImage {
    /// Checkpoint sequence number (file header id).
    pub seq: u64,
    /// The capture configuration in force (fault plan excluded).
    pub config: ScapConfig,
    /// Kernel-global state.
    pub globals: CheckpointGlobals,
    /// All tracked streams, in ascending uid order.
    pub streams: Vec<StreamImage>,
    /// Installed FDIR filters, in deterministic (encoded-bytes) order.
    pub fdir: Vec<FdirFilter>,
    /// Installed offload rules, in deterministic (encoded-bytes) order.
    /// The record is only written when non-empty, so captures without
    /// the offload stage produce byte-identical checkpoints.
    pub offload: Vec<OffloadRule>,
    /// The multi-tenant attachment table (`scapd`), in ascending
    /// tenant-id order. Empty for single-tenant captures; the record is
    /// only written when tenants are attached, so single-tenant
    /// checkpoints stay byte-identical to pre-tenant ones.
    pub tenants: Vec<TenantImage>,
}

/// One tenant's row in the checkpointed tenant table: the attachment
/// spec plus the delivery accounting needed to resume the per-tenant
/// conservation identity across a warm restart.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantImage {
    /// Stable tenant id (attach order, never reused within a lineage).
    pub id: u64,
    /// Tenant name (unique among live tenants).
    pub name: String,
    /// BPF filter source (`None` = all streams).
    pub filter_src: Option<String>,
    /// Requested per-stream cutoff (`None` = unlimited).
    pub cutoff: Option<u64>,
    /// PPL priority requested for this tenant's streams.
    pub priority: u8,
    /// Memory share in permille of the delivery budget.
    pub mem_share: u32,
    /// Disk share in permille of the archive budget.
    pub disk_share: u32,
    /// Slow-consumer ladder state (encodes `TenantState`).
    pub state: u8,
    /// Bytes delivered to this tenant so far.
    pub delivered_bytes: u64,
    /// Bytes dropped on this tenant's full queue so far.
    pub dropped_bytes: u64,
    /// Bytes withheld from this tenant by quota policy so far.
    pub discarded_bytes: u64,
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_u32(b: &mut Vec<u8>, v: u32) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(b: &mut Vec<u8>, v: u64) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(b: &mut Vec<u8>, v: f64) {
    b.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_opt_u64(b: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(x) => {
            b.push(1);
            put_u64(b, x);
        }
        None => b.push(0),
    }
}

fn put_bytes(b: &mut Vec<u8>, v: &[u8]) {
    put_u32(b, v.len() as u32);
    b.extend_from_slice(v);
}

fn put_str(b: &mut Vec<u8>, s: &str) {
    put_bytes(b, s.as_bytes());
}

fn put_addr(b: &mut Vec<u8>, a: IpAddrBytes) {
    match a {
        IpAddrBytes::V4(x) => {
            b.extend_from_slice(&x);
            b.extend_from_slice(&[0u8; 12]);
        }
        IpAddrBytes::V6(x) => b.extend_from_slice(&x),
    }
}

/// Append a flow key: family byte (4/6), both addresses as 16 bytes
/// (IPv4 zero-padded), both ports, transport protocol number.
pub fn put_key(b: &mut Vec<u8>, key: &FlowKey) {
    b.push(match key.src() {
        IpAddrBytes::V4(_) => 4,
        IpAddrBytes::V6(_) => 6,
    });
    put_addr(b, key.src());
    put_addr(b, key.dst());
    b.extend_from_slice(&key.src_port().to_le_bytes());
    b.extend_from_slice(&key.dst_port().to_le_bytes());
    b.push(key.transport().proto_number());
}

fn overlap_policy_to_u8(p: OverlapPolicy) -> u8 {
    match p {
        OverlapPolicy::First => 0,
        OverlapPolicy::Last => 1,
        OverlapPolicy::Bsd => 2,
        OverlapPolicy::Windows => 3,
        OverlapPolicy::Solaris => 4,
        OverlapPolicy::Linux => 5,
    }
}

/// The one-byte code of a [`StreamStatus`] (read by [`decode_status`]).
pub fn status_to_u8(s: StreamStatus) -> u8 {
    match s {
        StreamStatus::Active => 0,
        StreamStatus::ClosedFin => 1,
        StreamStatus::ClosedRst => 2,
        StreamStatus::ClosedTimeout => 3,
    }
}

/// Append one direction's counters as eight little-endian `u64`s.
pub fn put_dir_stats(b: &mut Vec<u8>, d: &DirStats) {
    for v in [
        d.total_pkts,
        d.total_bytes,
        d.captured_bytes,
        d.captured_pkts,
        d.discarded_pkts,
        d.discarded_bytes,
        d.dropped_pkts,
        d.dropped_bytes,
    ] {
        put_u64(b, v);
    }
}

fn put_config(b: &mut Vec<u8>, cfg: &ScapConfig) {
    b.push(REC_CONFIG);
    put_u64(b, cfg.memory_bytes as u64);
    b.push(match cfg.reassembly_mode {
        ReassemblyMode::Strict => 0,
        ReassemblyMode::Fast => 1,
    });
    b.push(overlap_policy_to_u8(cfg.overlap_policy));
    b.push(u8::from(cfg.need_pkts));
    match &cfg.filter {
        Some(f) => {
            b.push(1);
            put_str(b, f.source());
        }
        None => b.push(0),
    }
    put_opt_u64(b, cfg.cutoff.default);
    put_opt_u64(b, cfg.cutoff.per_direction[0]);
    put_opt_u64(b, cfg.cutoff.per_direction[1]);
    put_u32(b, cfg.cutoff.classes.len() as u32);
    for (f, v) in &cfg.cutoff.classes {
        put_str(b, f.source());
        put_u64(b, *v);
    }
    put_u32(b, cfg.priorities.classes.len() as u32);
    for (f, p) in &cfg.priorities.classes {
        put_str(b, f.source());
        b.push(*p);
    }
    put_u64(b, cfg.worker_threads as u64);
    put_u64(b, cfg.cores as u64);
    put_u64(b, cfg.chunk_size as u64);
    put_u64(b, cfg.overlap as u64);
    put_u64(b, cfg.flush_timeout_ns);
    put_u64(b, cfg.inactivity_timeout_ns);
    put_f64(b, cfg.ppl.base_threshold);
    b.push(cfg.ppl.num_priorities);
    put_opt_u64(b, cfg.ppl.overload_cutoff);
    b.push(u8::from(cfg.use_fdir));
    b.push(u8::from(cfg.use_fdir_balancing));
    put_f64(b, cfg.balance_threshold);
    put_u64(b, cfg.rx_ring_slots as u64);
    put_u64(b, cfg.event_queue_cap as u64);
    for e in cfg.governor.enter {
        put_f64(b, e);
    }
    put_f64(b, cfg.governor.exit);
    put_u32(b, cfg.governor.calm_ticks);
    put_u64(b, cfg.governor.tick_ns);
    put_u64(b, cfg.governor.cutoff_caps[0]);
    put_u64(b, cfg.governor.cutoff_caps[1]);
    put_f64(b, cfg.governor.ppl_boost);
    put_u64(b, cfg.governor.evict_batch as u64);
    put_u64(b, cfg.telemetry_sample_interval_ns);
    put_u64(b, cfg.telemetry_series_cap as u64);
    put_u64(b, cfg.flight_ring_cap as u64);
    b.push(match cfg.dispatch {
        crate::config::DispatchMode::Classic => 0,
        crate::config::DispatchMode::Fastpath => 1,
    });
    put_u64(b, cfg.fastpath_burst as u64);
    b.push(u8::from(cfg.use_offload));
    put_u64(b, cfg.offload_capacity as u64);
    put_u32(b, cfg.watchdog_breaker_threshold);
    put_u64(b, cfg.watchdog_breaker_window_ns);
    put_u32(b, cfg.pulse_exemplar_permille);
    put_u64(b, cfg.pulse_exemplar_cap as u64);
}

fn put_globals(b: &mut Vec<u8>, g: &CheckpointGlobals) {
    b.push(REC_GLOBALS);
    put_u64(b, g.ts_ns);
    put_u64(b, g.uid_counter);
    b.push(g.governor_level);
    put_u64(b, g.restarts);
}

/// One direction's reassembly state: `counters` are the delivered,
/// duplicate and gap byte totals, `segments` the buffered out-of-order
/// extents in ascending offset order.
fn put_dir_state<'a>(
    b: &mut Vec<u8>,
    base_seq: Option<u32>,
    expected: u64,
    flags: u8,
    counters: [u64; 3],
    segments: impl ExactSizeIterator<Item = (u64, &'a [u8])>,
) {
    match base_seq {
        Some(s) => {
            b.push(1);
            put_u32(b, s);
        }
        None => b.push(0),
    }
    put_u64(b, expected);
    b.push(flags);
    for v in counters {
        put_u64(b, v);
    }
    put_u32(b, segments.len() as u32);
    for (off, data) in segments {
        put_u64(b, off);
        put_bytes(b, data);
    }
}

fn put_conn(b: &mut Vec<u8>, conn: ConnView<'_>) {
    let (phase, client_dir, fin_seen) = match conn {
        ConnView::Live(c) => (c.phase(), c.client_dir(), c.fin_seen()),
        ConnView::Image(c) => (c.phase, c.client_dir, c.fin_seen),
    };
    b.push(match phase {
        ConnPhase::Opening => 0,
        ConnPhase::Established => 1,
        ConnPhase::ClosedFin => 2,
        ConnPhase::ClosedRst => 3,
    });
    match client_dir {
        Some(d) => {
            b.push(1);
            b.push(d.index() as u8);
        }
        None => b.push(0),
    }
    b.push(u8::from(fin_seen[0]));
    b.push(u8::from(fin_seen[1]));
    match conn {
        ConnView::Live(c) => {
            for d in [Direction::Forward, Direction::Reverse].map(|d| c.dir(d)) {
                let counters = [d.delivered_bytes, d.duplicate_bytes, d.gap_bytes];
                put_dir_state(
                    b,
                    d.base_seq(),
                    d.expected(),
                    d.flags.0,
                    counters,
                    d.segments(),
                );
            }
        }
        ConnView::Image(c) => {
            for d in &c.dirs {
                let counters = [d.delivered_bytes, d.duplicate_bytes, d.gap_bytes];
                let segments = d.segments.iter().map(|(off, data)| (*off, data.as_slice()));
                put_dir_state(b, d.base_seq, d.expected, d.flags, counters, segments);
            }
        }
    }
}

/// The one stream-record encoder: owned images and the kernel's live
/// views both come through here.
fn put_stream<K: KStateSource>(b: &mut Vec<u8>, s: &StreamImage<K>) {
    b.push(REC_STREAM);
    put_u32(b, s.core);
    put_u64(b, s.uid);
    put_key(b, &s.key);
    b.push(s.first_dir.index() as u8);
    put_u64(b, s.first_ts_ns);
    put_u64(b, s.last_ts_ns);
    b.push(status_to_u8(s.status));
    b.push(s.errors);
    b.push(s.priority);
    put_opt_u64(b, s.cutoff[0]);
    put_opt_u64(b, s.cutoff[1]);
    b.push(u8::from(s.cutoff_exceeded));
    b.push(u8::from(s.discarded));
    for d in &s.dirs {
        put_dir_stats(b, d);
    }
    put_u32(b, s.chunk_size);
    put_u32(b, s.overlap);
    match s.reassembly_policy {
        Some(p) => {
            b.push(1);
            b.push(p);
        }
        None => b.push(0),
    }
    put_u64(b, s.processing_time_ns);
    put_u64(b, s.chunks);
    put_u64(b, s.resume_gap_bytes);
    let Some(ks) = s.kstate.as_ref().map(KStateSource::view) else {
        b.push(0);
        return;
    };
    b.push(1);
    b.push(u8::from(ks.fdir_installed));
    put_u64(b, ks.fdir_timeout_ns);
    b.push(u8::from(ks.fdir_software_fallback));
    match ks.conn {
        None => b.push(0),
        Some(conn) => {
            b.push(1);
            put_conn(b, conn);
        }
    }
    for a in ks.asm {
        match a {
            None => b.push(0),
            Some(a) => {
                b.push(1);
                put_u64(b, a.committed);
                put_bytes(b, a.pending);
            }
        }
    }
}

fn encode_filter(f: &FdirFilter) -> Vec<u8> {
    let mut b = Vec::with_capacity(48);
    put_key(&mut b, &f.key);
    match f.flex {
        Some(fx) => {
            b.push(1);
            b.extend_from_slice(&fx.offset.to_le_bytes());
            b.extend_from_slice(&fx.value.to_le_bytes());
        }
        None => b.push(0),
    }
    match f.action {
        FdirAction::Drop => b.push(0),
        FdirAction::ToQueue(q) => {
            b.push(1);
            put_u64(&mut b, q as u64);
        }
    }
    b
}

/// Body of the FDIR and offload records: `kind`, a count, then the
/// per-entry encodings sorted by their bytes. Both tables hash by key,
/// so the caller's iteration order is not deterministic; sorting makes
/// identical sets always produce identical checkpoints.
fn put_sorted(b: &mut Vec<u8>, kind: u8, mut enc: Vec<Vec<u8>>) {
    enc.sort_unstable();
    b.push(kind);
    put_u32(b, enc.len() as u32);
    for e in enc {
        b.extend_from_slice(&e);
    }
}

fn encode_offload_rule(r: &OffloadRule) -> Vec<u8> {
    let mut b = Vec::with_capacity(48);
    put_key(&mut b, &r.key);
    b.push(r.action.discriminant());
    match r.action {
        OffloadAction::Bypass | OffloadAction::Drop => {}
        OffloadAction::Mark(tag) => b.push(tag),
        OffloadAction::Sample(n) => put_u32(&mut b, n),
    }
    b.push(r.priority);
    b
}

fn decode_offload_body(c: &mut Cursor<'_>) -> Result<Vec<OffloadRule>, CheckpointError> {
    let n = c.u32()?;
    let mut out = Vec::new();
    for _ in 0..n {
        let key = decode_key(c)?;
        let action = match c.u8()? {
            0 => OffloadAction::Bypass,
            1 => OffloadAction::Drop,
            2 => OffloadAction::Mark(c.u8()?),
            3 => {
                let every = c.u32()?;
                if every == 0 {
                    return Err(corrupt("offload sample rate of zero"));
                }
                OffloadAction::Sample(every)
            }
            other => return Err(corrupt(format!("bad offload action {other}"))),
        };
        let priority = c.u8()?;
        out.push(OffloadRule::new(key, action, priority));
    }
    Ok(out)
}

fn put_tenants(b: &mut Vec<u8>, tenants: &[TenantImage]) {
    // Ascending-id order regardless of input order: the byte output is
    // a pure function of the tenant table.
    let mut order: Vec<&TenantImage> = tenants.iter().collect();
    order.sort_by_key(|t| t.id);
    b.push(REC_TENANTS);
    put_u32(b, tenants.len() as u32);
    for t in order {
        put_u64(b, t.id);
        put_str(b, &t.name);
        match &t.filter_src {
            Some(src) => {
                b.push(1);
                put_str(b, src);
            }
            None => b.push(0),
        }
        put_opt_u64(b, t.cutoff);
        b.push(t.priority);
        put_u32(b, t.mem_share);
        put_u32(b, t.disk_share);
        b.push(t.state);
        put_u64(b, t.delivered_bytes);
        put_u64(b, t.dropped_bytes);
        put_u64(b, t.discarded_bytes);
    }
}

fn decode_tenants_body(c: &mut Cursor<'_>) -> Result<Vec<TenantImage>, CheckpointError> {
    let n = c.u32()? as usize;
    let mut tenants = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let id = c.u64()?;
        let name = c.str()?;
        let filter_src = if c.bool()? {
            let src = c.str()?;
            // Validate at decode time: a tenant filter that no longer
            // compiles must fail the restore, not the next attach.
            Filter::new(&src).map_err(|e| corrupt(format!("bad tenant filter {src:?}: {e}")))?;
            Some(src)
        } else {
            None
        };
        let t = TenantImage {
            id,
            name,
            filter_src,
            cutoff: c.opt_u64()?,
            priority: c.u8()?,
            mem_share: c.u32()?,
            disk_share: c.u32()?,
            state: c.u8()?,
            delivered_bytes: c.u64()?,
            dropped_bytes: c.u64()?,
            discarded_bytes: c.u64()?,
        };
        if tenants.iter().any(|p: &TenantImage| p.id >= t.id) {
            return Err(corrupt("tenant table not in ascending-id order"));
        }
        tenants.push(t);
    }
    Ok(tenants)
}

/// One-pass checkpoint encoder over a caller-owned buffer: every record
/// is framed in place, so an image costs one write per byte and, when
/// the buffer held an earlier image, no allocation.
#[derive(Debug)]
pub struct ImageWriter<'a> {
    out: &'a mut Vec<u8>,
}

impl<'a> ImageWriter<'a> {
    /// Start an image in `out`, replacing whatever it held (only the
    /// allocation is kept): file header, config and globals records.
    pub fn begin(
        out: &'a mut Vec<u8>,
        seq: u64,
        cfg: &ScapConfig,
        globals: &CheckpointGlobals,
    ) -> Self {
        out.clear();
        out.extend_from_slice(&file_header(CKPT_MAGIC, seq));
        frame_record_into(out, |b| put_config(b, cfg));
        frame_record_into(out, |b| put_globals(b, globals));
        ImageWriter { out }
    }

    /// Append one stream record. The image's bytes are a pure function
    /// of the captured state only if streams arrive in ascending-uid
    /// order, equal uids in a stable order: the caller sorts.
    pub fn stream<K: KStateSource>(&mut self, s: &StreamImage<K>) {
        frame_record_into(self.out, |b| put_stream(b, s));
    }

    /// Append a stream record that is already framed: one whole
    /// `(magic, len, CRC, body)` frame cut from an earlier image. A frame
    /// is a pure function of its stream's state, so for a stream that
    /// has not changed since it is what [`ImageWriter::stream`] would
    /// write again.
    pub fn stream_frame(&mut self, frame: &[u8]) {
        self.out.extend_from_slice(frame);
    }

    /// Bytes written so far: where the next record's frame will start.
    pub fn position(&self) -> usize {
        self.out.len()
    }

    /// Close the image: the FDIR filter set, the offload rules and the
    /// tenant table (the last two only when non-empty), the end marker.
    pub fn finish(self, fdir: &[FdirFilter], offload: &[OffloadRule], tenants: &[TenantImage]) {
        let out = self.out;
        frame_record_into(out, |b| {
            put_sorted(b, REC_FDIR, fdir.iter().map(encode_filter).collect());
        });
        if !offload.is_empty() {
            frame_record_into(out, |b| {
                put_sorted(
                    b,
                    REC_OFFLOAD,
                    offload.iter().map(encode_offload_rule).collect(),
                );
            });
        }
        if !tenants.is_empty() {
            frame_record_into(out, |b| put_tenants(b, tenants));
        }
        frame_record_into(out, |b| b.push(REC_END));
    }
}

/// Encode a full checkpoint file from its parts. `streams` are written
/// in ascending-uid order regardless of input order, so the byte output
/// is a pure function of the captured state.
pub fn encode_image(
    seq: u64,
    cfg: &ScapConfig,
    globals: &CheckpointGlobals,
    streams: &[StreamImage],
    fdir: &[FdirFilter],
    offload: &[OffloadRule],
    tenants: &[TenantImage],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(4096);
    let mut order: Vec<&StreamImage> = streams.iter().collect();
    order.sort_by_key(|s| s.uid);
    let mut w = ImageWriter::begin(&mut out, seq, cfg, globals);
    for s in order {
        w.stream(s);
    }
    w.finish(fdir, offload, tenants);
    out
}

impl CheckpointImage {
    /// Re-encode this image to checkpoint-file bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        encode_image(
            self.seq,
            &self.config,
            &self.globals,
            &self.streams,
            &self.fdir,
            &self.offload,
            &self.tenants,
        )
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Bounded byte cursor: every read is length-checked, so decoding
/// arbitrary or truncated input can fail but never panic.
pub struct Cursor<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `b`.
    pub fn new(b: &'a [u8]) -> Self {
        Cursor { b, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.pos + n > self.b.len() {
            return Err(corrupt("record body too short"));
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, CheckpointError> {
        Ok(self.u8()? != 0)
    }

    fn u16(&mut self) -> Result<u16, CheckpointError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, CheckpointError> {
        Ok(if self.bool()? {
            Some(self.u64()?)
        } else {
            None
        })
    }

    fn bytes(&mut self) -> Result<&'a [u8], CheckpointError> {
        let n = self.u32()? as usize;
        // An implausible length is corruption, not an allocation request.
        if n > self.b.len() {
            return Err(corrupt("length field exceeds record size"));
        }
        self.take(n)
    }

    fn str(&mut self) -> Result<String, CheckpointError> {
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec()).map_err(|_| corrupt("invalid UTF-8 in string field"))
    }

    fn done(&self) -> Result<(), CheckpointError> {
        if self.pos != self.b.len() {
            return Err(corrupt("trailing bytes in record body"));
        }
        Ok(())
    }
}

fn decode_filter_src(c: &mut Cursor<'_>) -> Result<Filter, CheckpointError> {
    let src = c.str()?;
    Filter::new(&src).map_err(|e| corrupt(format!("bad filter {src:?}: {e}")))
}

/// Read a flow key written by [`put_key`].
pub fn decode_key(c: &mut Cursor<'_>) -> Result<FlowKey, CheckpointError> {
    let family = c.u8()?;
    let src_raw = c.take(16)?;
    let dst_raw = c.take(16)?;
    let src_port = c.u16()?;
    let dst_port = c.u16()?;
    let transport = Transport::from(c.u8()?);
    match family {
        4 => Ok(FlowKey::new_v4(
            src_raw[..4].try_into().unwrap(),
            dst_raw[..4].try_into().unwrap(),
            src_port,
            dst_port,
            transport,
        )),
        6 => Ok(FlowKey::new_v6(
            src_raw.try_into().unwrap(),
            dst_raw.try_into().unwrap(),
            src_port,
            dst_port,
            transport,
        )),
        other => Err(corrupt(format!("bad address family {other}"))),
    }
}

/// Read a direction byte (`Direction::index`); anything above 1 is corrupt.
pub fn decode_direction(v: u8) -> Result<Direction, CheckpointError> {
    match v {
        0 => Ok(Direction::Forward),
        1 => Ok(Direction::Reverse),
        other => Err(corrupt(format!("bad direction {other}"))),
    }
}

/// Read a [`StreamStatus`] byte written by [`status_to_u8`].
pub fn decode_status(v: u8) -> Result<StreamStatus, CheckpointError> {
    match v {
        0 => Ok(StreamStatus::Active),
        1 => Ok(StreamStatus::ClosedFin),
        2 => Ok(StreamStatus::ClosedRst),
        3 => Ok(StreamStatus::ClosedTimeout),
        other => Err(corrupt(format!("bad stream status {other}"))),
    }
}

/// Read a [`DirStats`] block written by [`put_dir_stats`].
pub fn decode_dir_stats(c: &mut Cursor<'_>) -> Result<DirStats, CheckpointError> {
    Ok(DirStats {
        total_pkts: c.u64()?,
        total_bytes: c.u64()?,
        captured_bytes: c.u64()?,
        captured_pkts: c.u64()?,
        discarded_pkts: c.u64()?,
        discarded_bytes: c.u64()?,
        dropped_pkts: c.u64()?,
        dropped_bytes: c.u64()?,
    })
}

fn decode_config_body(c: &mut Cursor<'_>) -> Result<ScapConfig, CheckpointError> {
    let memory_bytes = c.u64()? as usize;
    let reassembly_mode = match c.u8()? {
        0 => ReassemblyMode::Strict,
        1 => ReassemblyMode::Fast,
        other => return Err(corrupt(format!("bad reassembly mode {other}"))),
    };
    let overlap_policy = match c.u8()? {
        0 => OverlapPolicy::First,
        1 => OverlapPolicy::Last,
        2 => OverlapPolicy::Bsd,
        3 => OverlapPolicy::Windows,
        4 => OverlapPolicy::Solaris,
        5 => OverlapPolicy::Linux,
        other => return Err(corrupt(format!("bad overlap policy {other}"))),
    };
    let need_pkts = c.bool()?;
    let filter = if c.bool()? {
        Some(decode_filter_src(c)?)
    } else {
        None
    };
    let default = c.opt_u64()?;
    let per_direction = [c.opt_u64()?, c.opt_u64()?];
    let nclasses = c.u32()?;
    let mut classes = Vec::new();
    for _ in 0..nclasses {
        let f = decode_filter_src(c)?;
        let v = c.u64()?;
        classes.push((f, v));
    }
    let nprio = c.u32()?;
    let mut prio_classes = Vec::new();
    for _ in 0..nprio {
        let f = decode_filter_src(c)?;
        let p = c.u8()?;
        prio_classes.push((f, p));
    }
    let worker_threads = c.u64()? as usize;
    let cores = c.u64()? as usize;
    let chunk_size = c.u64()? as usize;
    let overlap = c.u64()? as usize;
    let flush_timeout_ns = c.u64()?;
    let inactivity_timeout_ns = c.u64()?;
    let ppl = PplConfig {
        base_threshold: c.f64()?,
        num_priorities: c.u8()?,
        overload_cutoff: c.opt_u64()?,
    };
    let use_fdir = c.bool()?;
    let use_fdir_balancing = c.bool()?;
    let balance_threshold = c.f64()?;
    let rx_ring_slots = c.u64()? as usize;
    let event_queue_cap = c.u64()? as usize;
    let governor = GovernorConfig {
        enter: [c.f64()?, c.f64()?, c.f64()?],
        exit: c.f64()?,
        calm_ticks: c.u32()?,
        tick_ns: c.u64()?,
        cutoff_caps: [c.u64()?, c.u64()?],
        ppl_boost: c.f64()?,
        evict_batch: c.u64()? as usize,
    };
    let telemetry_sample_interval_ns = c.u64()?;
    let telemetry_series_cap = c.u64()? as usize;
    let flight_ring_cap = c.u64()? as usize;
    let dispatch = match c.u8()? {
        0 => crate::config::DispatchMode::Classic,
        1 => crate::config::DispatchMode::Fastpath,
        other => return Err(corrupt(format!("unknown dispatch mode {other}"))),
    };
    let fastpath_burst = c.u64()? as usize;
    let use_offload = c.bool()?;
    let offload_capacity = c.u64()? as usize;
    let watchdog_breaker_threshold = c.u32()?;
    let watchdog_breaker_window_ns = c.u64()?;
    let pulse_exemplar_permille = c.u32()?;
    let pulse_exemplar_cap = c.u64()? as usize;
    if cores == 0 || chunk_size == 0 || overlap >= chunk_size {
        return Err(corrupt("invalid capture geometry in config record"));
    }
    if use_offload && offload_capacity == 0 {
        return Err(corrupt("offload enabled with zero rule capacity"));
    }
    Ok(ScapConfig {
        memory_bytes,
        reassembly_mode,
        overlap_policy,
        need_pkts,
        filter,
        cutoff: CutoffPolicy {
            default,
            per_direction,
            classes,
        },
        priorities: PriorityPolicy {
            classes: prio_classes,
        },
        worker_threads,
        cores,
        chunk_size,
        overlap,
        flush_timeout_ns,
        inactivity_timeout_ns,
        ppl,
        use_fdir,
        use_fdir_balancing,
        balance_threshold,
        rx_ring_slots,
        event_queue_cap,
        governor,
        faults: None,
        telemetry_sample_interval_ns,
        telemetry_series_cap,
        flight_ring_cap,
        dispatch,
        fastpath_burst,
        use_offload,
        offload_capacity,
        watchdog_breaker_threshold,
        watchdog_breaker_window_ns,
        pulse_exemplar_permille,
        pulse_exemplar_cap,
    })
}

fn decode_globals_body(c: &mut Cursor<'_>) -> Result<CheckpointGlobals, CheckpointError> {
    Ok(CheckpointGlobals {
        ts_ns: c.u64()?,
        uid_counter: c.u64()?,
        governor_level: c.u8()?,
        restarts: c.u64()?,
    })
}

fn decode_dir_state(c: &mut Cursor<'_>) -> Result<DirState, CheckpointError> {
    let base_seq = if c.bool()? { Some(c.u32()?) } else { None };
    let expected = c.u64()?;
    let flags = c.u8()?;
    let delivered_bytes = c.u64()?;
    let duplicate_bytes = c.u64()?;
    let gap_bytes = c.u64()?;
    let nsegs = c.u32()?;
    let mut segments = Vec::new();
    for _ in 0..nsegs {
        let off = c.u64()?;
        let data = c.bytes()?.to_vec();
        segments.push((off, data));
    }
    Ok(DirState {
        base_seq,
        expected,
        flags,
        delivered_bytes,
        duplicate_bytes,
        gap_bytes,
        segments,
    })
}

fn decode_stream_body(c: &mut Cursor<'_>) -> Result<StreamImage, CheckpointError> {
    let core = c.u32()?;
    let uid = c.u64()?;
    let key = decode_key(c)?;
    let first_dir = decode_direction(c.u8()?)?;
    let first_ts_ns = c.u64()?;
    let last_ts_ns = c.u64()?;
    let status = decode_status(c.u8()?)?;
    let errors = c.u8()?;
    let priority = c.u8()?;
    let cutoff = [c.opt_u64()?, c.opt_u64()?];
    let cutoff_exceeded = c.bool()?;
    let discarded = c.bool()?;
    let dirs = [decode_dir_stats(c)?, decode_dir_stats(c)?];
    let chunk_size = c.u32()?;
    let overlap = c.u32()?;
    let reassembly_policy = if c.bool()? { Some(c.u8()?) } else { None };
    let processing_time_ns = c.u64()?;
    let chunks = c.u64()?;
    let resume_gap_bytes = c.u64()?;
    let kstate = if c.bool()? {
        let fdir_installed = c.bool()?;
        let fdir_timeout_ns = c.u64()?;
        let fdir_software_fallback = c.bool()?;
        let conn = if c.bool()? {
            let phase = match c.u8()? {
                0 => ConnPhase::Opening,
                1 => ConnPhase::Established,
                2 => ConnPhase::ClosedFin,
                3 => ConnPhase::ClosedRst,
                other => return Err(corrupt(format!("bad connection phase {other}"))),
            };
            let client_dir = if c.bool()? {
                Some(decode_direction(c.u8()?)?)
            } else {
                None
            };
            let fin_seen = [c.bool()?, c.bool()?];
            let dirs = [decode_dir_state(c)?, decode_dir_state(c)?];
            Some(ConnCheckpoint {
                phase,
                client_dir,
                fin_seen,
                dirs,
            })
        } else {
            None
        };
        let mut asm: [Option<AsmImage>; 2] = [None, None];
        for a in &mut asm {
            if c.bool()? {
                let committed = c.u64()?;
                let pending = c.bytes()?.to_vec();
                if (pending.len() as u64) > committed {
                    return Err(corrupt("pending bytes exceed committed offset"));
                }
                *a = Some(AsmImage { committed, pending });
            }
        }
        Some(KStateImage {
            fdir_installed,
            fdir_timeout_ns,
            fdir_software_fallback,
            conn,
            asm,
        })
    } else {
        None
    };
    Ok(StreamImage {
        core,
        uid,
        key,
        first_dir,
        first_ts_ns,
        last_ts_ns,
        status,
        errors,
        priority,
        cutoff,
        cutoff_exceeded,
        discarded,
        dirs,
        chunk_size,
        overlap,
        reassembly_policy,
        processing_time_ns,
        chunks,
        resume_gap_bytes,
        kstate,
    })
}

fn decode_fdir_body(c: &mut Cursor<'_>) -> Result<Vec<FdirFilter>, CheckpointError> {
    let n = c.u32()?;
    let mut out = Vec::new();
    for _ in 0..n {
        let key = decode_key(c)?;
        let flex = if c.bool()? {
            Some(FlexMatch {
                offset: c.u16()?,
                value: c.u16()?,
            })
        } else {
            None
        };
        let action = match c.u8()? {
            0 => FdirAction::Drop,
            1 => FdirAction::ToQueue(c.u64()? as usize),
            other => return Err(corrupt(format!("bad FDIR action {other}"))),
        };
        out.push(FdirFilter { key, flex, action });
    }
    Ok(out)
}

impl CheckpointImage {
    /// Decode a checkpoint file. Requires the trailing end marker: a
    /// file with a torn tail (crash mid-write) is rejected rather than
    /// silently resumed from partial state — run [`repair_file`] first
    /// if the valid prefix is wanted anyway.
    pub fn decode(data: &[u8]) -> Result<Self, CheckpointError> {
        let scan = scan_records(data, CKPT_MAGIC).map_err(CheckpointError::Corrupt)?;
        let mut config = None;
        let mut globals = None;
        let mut streams = Vec::new();
        let mut fdir = Vec::new();
        let mut offload = Vec::new();
        let mut tenants = Vec::new();
        let mut ended = false;
        for rec in &scan.records {
            if ended {
                return Err(corrupt("record after end marker"));
            }
            let body = &data[rec.body.clone()];
            let mut c = Cursor::new(body);
            match c.u8()? {
                REC_CONFIG => {
                    if config.is_some() {
                        return Err(corrupt("duplicate config record"));
                    }
                    config = Some(decode_config_body(&mut c)?);
                }
                REC_GLOBALS => {
                    if globals.is_some() {
                        return Err(corrupt("duplicate globals record"));
                    }
                    globals = Some(decode_globals_body(&mut c)?);
                }
                REC_STREAM => streams.push(decode_stream_body(&mut c)?),
                REC_FDIR => fdir.extend(decode_fdir_body(&mut c)?),
                REC_OFFLOAD => offload.extend(decode_offload_body(&mut c)?),
                REC_TENANTS => tenants = decode_tenants_body(&mut c)?,
                REC_END => ended = true,
                other => return Err(corrupt(format!("unknown record kind {other:#04x}"))),
            }
            c.done()?;
        }
        if !ended {
            return Err(corrupt("truncated checkpoint: no end marker"));
        }
        if scan.torn_bytes > 0 {
            return Err(corrupt(format!(
                "{} torn bytes after end marker",
                scan.torn_bytes
            )));
        }
        let config = config.ok_or_else(|| corrupt("missing config record"))?;
        let globals = globals.ok_or_else(|| corrupt("missing globals record"))?;
        let ncores = config.cores as u32;
        for s in &streams {
            if s.core >= ncores {
                return Err(corrupt(format!(
                    "stream {} on core {} but config has {} cores",
                    s.uid, s.core, ncores
                )));
            }
            if s.uid > globals.uid_counter {
                return Err(corrupt(format!(
                    "stream uid {} beyond uid counter {}",
                    s.uid, globals.uid_counter
                )));
            }
        }
        Ok(CheckpointImage {
            seq: scan.file_id,
            config,
            globals,
            streams,
            fdir,
            offload,
            tenants,
        })
    }
}

// ---------------------------------------------------------------------------
// File operations
// ---------------------------------------------------------------------------

/// Write checkpoint bytes crash-consistently: the bytes land in a
/// sibling temp file first and are renamed over `path`, so a crash
/// mid-checkpoint leaves the previous checkpoint untouched.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Read and decode a checkpoint file.
pub fn read_image(path: &Path) -> Result<CheckpointImage, CheckpointError> {
    let data = std::fs::read(path)?;
    CheckpointImage::decode(&data)
}

/// The result of [`repair_file`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointRepair {
    /// Length of the valid prefix the file was truncated to.
    pub valid_len: usize,
    /// Torn-tail bytes removed (0 when the file was already clean).
    pub torn_bytes_removed: usize,
}

/// Truncate a checkpoint file's torn tail, keeping the longest valid
/// record prefix. Idempotent: repairing a repaired file removes nothing.
pub fn repair_file(path: &Path) -> Result<CheckpointRepair, CheckpointError> {
    let data = std::fs::read(path)?;
    let scan = scan_records(&data, CKPT_MAGIC).map_err(CheckpointError::Corrupt)?;
    if scan.torn_bytes > 0 {
        let keep = data[..scan.valid_len].to_vec();
        write_atomic(path, &keep)?;
    }
    Ok(CheckpointRepair {
        valid_len: scan.valid_len,
        torn_bytes_removed: scan.torn_bytes,
    })
}

// ---------------------------------------------------------------------------
// Recovery cost model
// ---------------------------------------------------------------------------

/// Deterministic recovery-latency estimate, in virtual cycles, for
/// restoring from `img`: a fixed base plus per-stream, per-buffered-byte
/// and per-filter costs. A cost model (rather than wall time) keeps
/// restart statistics identical across same-seed runs.
pub fn recovery_cycles(img: &CheckpointImage) -> u64 {
    const BASE: u64 = 10_000;
    const PER_STREAM: u64 = 500;
    const PER_LIVE_STREAM: u64 = 1_500;
    const PER_FDIR_FILTER: u64 = 250;
    // One offload rule re-programs one table entry; cheaper than an
    // FDIR filter quadruple but not free at million-rule scale.
    const PER_OFFLOAD_RULE: u64 = 60;
    let mut cycles = BASE + img.streams.len() as u64 * PER_STREAM;
    cycles += img.fdir.len() as u64 * PER_FDIR_FILTER;
    cycles += img.offload.len() as u64 * PER_OFFLOAD_RULE;
    for s in &img.streams {
        let Some(ks) = &s.kstate else { continue };
        cycles += PER_LIVE_STREAM;
        let mut bytes = 0u64;
        if let Some(conn) = &ks.conn {
            for d in &conn.dirs {
                bytes += d.segments.iter().map(|(_, b)| b.len() as u64).sum::<u64>();
            }
        }
        for a in ks.asm.iter().flatten() {
            bytes += a.pending.len() as u64;
        }
        // Copying restored bytes back into place: 4 bytes per cycle.
        cycles += bytes / 4;
    }
    cycles
}

// ---------------------------------------------------------------------------
// Hot-reconfiguration helpers
// ---------------------------------------------------------------------------

impl ConfigDelta {
    /// Apply this delta to a configuration (shared by the kernel's
    /// hot-reload path and the builder's pre-start path). Returns true
    /// when the default cutoff was *widened*, which obliges the caller
    /// to re-open live streams whose old narrower cutoff had tripped.
    pub fn apply_to(self, cfg: &mut ScapConfig) -> bool {
        let mut widened = false;
        if let Some(new_default) = self.cutoff_default {
            // `None` means unlimited, so it widens any finite cutoff.
            widened = match (cfg.cutoff.default, new_default) {
                (Some(old), Some(new)) => new > old,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if widened {
                cfg.cutoff.generalize_to(new_default);
            } else {
                cfg.cutoff.default = new_default;
            }
        }
        if let Some(classes) = self.cutoff_classes {
            cfg.cutoff.classes = classes;
        }
        if let Some(p) = self.priorities {
            cfg.priorities = p;
        }
        if let Some(f) = self.filter {
            cfg.filter = f;
        }
        widened
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scap_flow::StreamErrors;

    fn key(port: u16) -> FlowKey {
        FlowKey::new_v4([10, 0, 0, 1], [10, 0, 0, 2], 40_000, port, Transport::Tcp)
    }

    fn sample_stream(uid: u64) -> StreamImage {
        let mut dirs = [DirStats::default(); 2];
        dirs[0].total_pkts = 9;
        dirs[0].captured_bytes = 4_000;
        dirs[1].dropped_bytes = 12;
        StreamImage {
            core: 1,
            uid,
            key: key(80),
            first_dir: Direction::Reverse,
            first_ts_ns: 5,
            last_ts_ns: 99,
            status: StreamStatus::Active,
            errors: StreamErrors::SEQUENCE_GAP.0,
            priority: 2,
            cutoff: [Some(1_000_000), None],
            cutoff_exceeded: false,
            discarded: false,
            dirs,
            chunk_size: 0,
            overlap: 0,
            reassembly_policy: Some(2),
            processing_time_ns: 77,
            chunks: 3,
            resume_gap_bytes: 0,
            kstate: Some(KStateImage {
                fdir_installed: true,
                fdir_timeout_ns: 2_000_000_000,
                fdir_software_fallback: false,
                conn: Some(ConnCheckpoint {
                    phase: ConnPhase::Established,
                    client_dir: Some(Direction::Forward),
                    fin_seen: [true, false],
                    dirs: [
                        DirState {
                            base_seq: Some(1_000),
                            expected: 4_000,
                            flags: 0x02,
                            delivered_bytes: 4_000,
                            duplicate_bytes: 3,
                            gap_bytes: 7,
                            segments: vec![(4_100, vec![0xAA; 32])],
                        },
                        DirState::default(),
                    ],
                }),
                asm: [
                    Some(AsmImage {
                        committed: 4_000,
                        pending: vec![0x55; 100],
                    }),
                    None,
                ],
            }),
        }
    }

    fn sample_image_bytes() -> Vec<u8> {
        let mut cfg = ScapConfig {
            filter: Some(Filter::new("tcp").unwrap()),
            ..ScapConfig::default()
        };
        cfg.cutoff.default = Some(1 << 20);
        cfg.cutoff.classes = vec![(Filter::new("port 80").unwrap(), 4096)];
        cfg.priorities.classes = vec![(Filter::new("port 443").unwrap(), 1)];
        let globals = CheckpointGlobals {
            ts_ns: 1_234_567,
            uid_counter: 3,
            governor_level: 2,
            restarts: 1,
        };
        let streams = vec![sample_stream(2), {
            // A TIME_WAIT tombstone: record only, no kernel state.
            let mut t = sample_stream(1);
            t.status = StreamStatus::ClosedFin;
            t.kstate = None;
            t
        }];
        let fdir = vec![
            FdirFilter::drop_tcp_flags(key(80), scap_wire::TcpFlags::ACK),
            FdirFilter::steer(key(443), 3),
        ];
        encode_image(7, &cfg, &globals, &streams, &fdir, &[], &[])
    }

    #[test]
    fn image_round_trips() {
        let bytes = sample_image_bytes();
        let img = CheckpointImage::decode(&bytes).unwrap();
        assert_eq!(img.seq, 7);
        assert_eq!(img.globals.uid_counter, 3);
        assert_eq!(img.globals.governor_level, 2);
        assert_eq!(img.streams.len(), 2);
        // Streams come back in ascending uid order.
        assert_eq!(img.streams[0].uid, 1);
        assert!(img.streams[0].kstate.is_none());
        assert_eq!(img.streams[1].uid, 2);
        let ks = img.streams[1].kstate.as_ref().unwrap();
        assert!(ks.fdir_installed);
        let conn = ks.conn.as_ref().unwrap();
        assert_eq!(conn.phase, ConnPhase::Established);
        assert_eq!(conn.dirs[0].expected, 4_000);
        assert_eq!(conn.dirs[0].segments.len(), 1);
        assert_eq!(ks.asm[0].as_ref().unwrap().pending.len(), 100);
        assert_eq!(img.fdir.len(), 2);
        assert_eq!(img.config.cutoff.default, Some(1 << 20));
        assert_eq!(img.config.cutoff.classes.len(), 1);
        assert_eq!(img.config.filter.as_ref().unwrap().source(), "tcp");
        // Re-encoding the decoded image is byte-identical.
        assert_eq!(img.to_bytes(), bytes);
    }

    #[test]
    fn truncated_checkpoint_is_rejected_not_panicked() {
        let bytes = sample_image_bytes();
        for cut in 0..bytes.len() {
            assert!(
                CheckpointImage::decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn bit_flips_never_decode_silently() {
        let bytes = sample_image_bytes();
        // Flip one byte in each record body region; the CRC must catch
        // it (header flips fail on magic/version instead).
        let mut step = 37;
        let mut i = FILE_HEADER_LEN + REC_HEADER_LEN;
        while i < bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xFF;
            assert!(CheckpointImage::decode(&bad).is_err(), "flip at {i}");
            i += step;
            step = step * 2 % 101 + 1;
        }
    }

    #[test]
    fn repair_truncates_torn_tail_idempotently() {
        let dir = std::env::temp_dir().join(format!("scap-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.scapckpt");
        let mut bytes = sample_image_bytes();
        let clean_len = bytes.len();
        bytes.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF]);
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_image(&path).is_err());

        let r1 = repair_file(&path).unwrap();
        assert_eq!(r1.torn_bytes_removed, 4);
        assert_eq!(r1.valid_len, clean_len);
        let r2 = repair_file(&path).unwrap();
        assert_eq!(r2.torn_bytes_removed, 0, "second repair must be a no-op");
        assert!(read_image(&path).is_ok());
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn fdir_order_is_canonicalized() {
        let cfg = ScapConfig::default();
        let globals = CheckpointGlobals::default();
        let a = FdirFilter::drop_tcp_flags(key(80), scap_wire::TcpFlags::ACK);
        let b = FdirFilter::steer(key(443), 1);
        let x = encode_image(0, &cfg, &globals, &[], &[a, b], &[], &[]);
        let y = encode_image(0, &cfg, &globals, &[], &[b, a], &[], &[]);
        assert_eq!(x, y);
    }

    #[test]
    fn offload_rules_round_trip_in_canonical_order() {
        use scap_nic::OffloadAction;
        let cfg = ScapConfig::default();
        let globals = CheckpointGlobals::default();
        let rules = vec![
            OffloadRule::new(key(443), OffloadAction::Sample(128), 1),
            OffloadRule::new(key(80), OffloadAction::Drop, 0),
            OffloadRule::new(key(53), OffloadAction::Mark(3), 2),
            OffloadRule::new(key(22), OffloadAction::Bypass, 3),
        ];
        let mut rev = rules.clone();
        rev.reverse();
        let x = encode_image(0, &cfg, &globals, &[], &[], &rules, &[]);
        let y = encode_image(0, &cfg, &globals, &[], &[], &rev, &[]);
        assert_eq!(x, y, "rule order must not change the bytes");
        let img = CheckpointImage::decode(&x).unwrap();
        assert_eq!(img.offload.len(), 4);
        for r in &rules {
            assert!(img.offload.contains(r), "{r:?} must survive the trip");
        }
        assert_eq!(img.to_bytes(), x);

        // An offload-free image writes no offload record at all, so
        // captures without the stage stay byte-identical.
        let plain = encode_image(0, &cfg, &globals, &[], &[], &[], &[]);
        let img = CheckpointImage::decode(&plain).unwrap();
        assert!(img.offload.is_empty());

        // A zero sample rate is corruption, not a divide-by-zero later:
        // frame a hand-built offload record with rate 0 and a valid CRC.
        let mut body = vec![REC_OFFLOAD];
        put_u32(&mut body, 1);
        put_key(&mut body, &key(80));
        body.push(3); // Sample
        put_u32(&mut body, 0); // rate 0: invalid
        body.push(0); // priority
        let mut bad = Vec::new();
        ImageWriter::begin(&mut bad, 0, &cfg, &globals);
        frame_record_into(&mut bad, |b| put_sorted(b, REC_FDIR, Vec::new()));
        bad.extend_from_slice(&frame_record(&body));
        bad.extend_from_slice(&frame_record(&[REC_END]));
        let err = CheckpointImage::decode(&bad).unwrap_err();
        assert!(
            err.to_string().contains("sample rate"),
            "wrong error: {err}"
        );
    }

    #[test]
    fn recovery_cycles_scale_with_state() {
        let empty = CheckpointImage::decode(&encode_image(
            0,
            &ScapConfig::default(),
            &CheckpointGlobals::default(),
            &[],
            &[],
            &[],
            &[],
        ))
        .unwrap();
        let full = CheckpointImage::decode(&sample_image_bytes()).unwrap();
        assert!(recovery_cycles(&full) > recovery_cycles(&empty));
    }

    #[test]
    fn tenant_table_round_trips_in_canonical_order() {
        let tenants = vec![
            TenantImage {
                id: 2,
                name: "ids".into(),
                filter_src: Some("tcp".into()),
                cutoff: Some(4096),
                priority: 2,
                mem_share: 600,
                disk_share: 500,
                state: 1,
                delivered_bytes: 10,
                dropped_bytes: 2,
                discarded_bytes: 1,
            },
            TenantImage {
                id: 1,
                name: "dns".into(),
                ..Default::default()
            },
        ];
        let bytes = encode_image(
            3,
            &ScapConfig::default(),
            &CheckpointGlobals::default(),
            &[],
            &[],
            &[],
            &tenants,
        );
        let img = CheckpointImage::decode(&bytes).unwrap();
        // Ascending-id canonical order regardless of input order.
        assert_eq!(img.tenants.len(), 2);
        assert_eq!(img.tenants[0].id, 1);
        assert_eq!(img.tenants[0].name, "dns");
        assert_eq!(img.tenants[1].name, "ids");
        assert_eq!(img.tenants[1].filter_src.as_deref(), Some("tcp"));
        assert_eq!(img.tenants[1].cutoff, Some(4096));
        assert_eq!(img.tenants[1].delivered_bytes, 10);
        assert_eq!(img.to_bytes(), bytes);

        // A pre-tenant image decodes with an empty table (the record is
        // only written when non-empty, so old checkpoints are unchanged).
        let old = CheckpointImage::decode(&sample_image_bytes()).unwrap();
        assert!(old.tenants.is_empty());

        // A tenant whose stored filter no longer compiles is corruption,
        // not a silent pass-through.
        let bad = vec![TenantImage {
            id: 1,
            filter_src: Some("((".into()),
            ..Default::default()
        }];
        let bytes = encode_image(
            0,
            &ScapConfig::default(),
            &CheckpointGlobals::default(),
            &[],
            &[],
            &[],
            &bad,
        );
        assert!(CheckpointImage::decode(&bytes).is_err());
    }

    #[test]
    fn config_delta_widening_detection() {
        let mut cfg = ScapConfig::default();
        cfg.cutoff.default = Some(1_000);
        cfg.cutoff.classes = vec![(Filter::new("port 80").unwrap(), 10)];
        let widened = ConfigDelta {
            cutoff_default: Some(Some(2_000)),
            ..Default::default()
        }
        .apply_to(&mut cfg);
        assert!(widened);
        assert_eq!(cfg.cutoff.default, Some(2_000));
        assert!(cfg.cutoff.classes.is_empty(), "stale classes cleared");

        // Narrowing keeps overrides and reports false.
        let mut cfg = ScapConfig::default();
        cfg.cutoff.default = Some(1_000);
        let widened = ConfigDelta {
            cutoff_default: Some(Some(10)),
            ..Default::default()
        }
        .apply_to(&mut cfg);
        assert!(!widened);
        assert_eq!(cfg.cutoff.default, Some(10));
    }
}
