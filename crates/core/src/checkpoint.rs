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
//! Record bodies have one codec: [`Put`] writes a value, [`Field`] reads
//! it back through the bounded [`Cursor`], and a record is declared once
//! as its ordered field list ([`record_fields!`]) — enums as a table of
//! byte codes — so the field order of each record is written down in one
//! place. `scap-store` declares its index records with the same macro.
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
//! * A CRC-clean record is still not trusted: a byte code outside its
//!   table, a length longer than the bytes left, or a configuration the
//!   kernel cannot be rebuilt from fails the decode instead of the
//!   restore.
//!
//! [`StreamErrors::RESUMED`]: scap_flow::StreamErrors::RESUMED

use std::path::Path;

use crate::config::{ConfigDelta, CutoffPolicy, DispatchMode, PriorityPolicy, ScapConfig};
use crate::event::StreamUid;
use crate::governor::GovernorConfig;
use crate::tenant::TenantState;
use scap_filter::Filter;
use scap_flow::{DirStats, StreamErrors, StreamStatus};
use scap_memory::PplConfig;
use scap_nic::{FdirAction, FdirFilter, FlexMatch, OffloadAction, OffloadRule};
use scap_reassembly::{
    ConnCheckpoint, ConnPhase, DirState, OverlapPolicy, ReassemblyMode, TcpConn,
};
use scap_wire::{Direction, FlowKey, IpAddrBytes, Transport};

// ---------------------------------------------------------------------------
// Shared record framing (also used by scap-store via re-export)
// ---------------------------------------------------------------------------

use scap_flight::framing::scan_records;
pub use scap_flight::framing::{
    crc32, file_header, frame_record, frame_record_into, FILE_HEADER_LEN, FORMAT_VERSION,
    REC_HEADER_LEN, REC_MAGIC,
};

/// Checkpoint-file magic ("SCKP").
pub const CKPT_MAGIC: u32 = 0x504B_4353;

/// Largest flight-journal ring a restore builds. The ring is allocated
/// up front; the largest any capture configures is `1 << 17`.
const MAX_FLIGHT_RING_CAP: usize = 1 << 20;

/// Largest offload rule table a restore builds. The table is allocated
/// up front; the default capacity is `1 << 20`.
const MAX_OFFLOAD_CAPACITY: usize = 1 << 22;

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

/// Borrowed form of [`KStateImage`], the shape the stream-record encoder
/// writes: the kernel fills it from a live stream's state, a decoded
/// [`KStateImage`] lends itself as one. No payload byte is copied to
/// build it.
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

impl KStateImage {
    /// Lend this state to the encoder.
    pub fn view(&self) -> KStateView<'_> {
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
    /// Slow-consumer ladder state.
    pub state: TenantState,
    /// Bytes delivered to this tenant so far.
    pub delivered_bytes: u64,
    /// Bytes dropped on this tenant's full queue so far.
    pub dropped_bytes: u64,
    /// Bytes withheld from this tenant by quota policy so far.
    pub discarded_bytes: u64,
}

// ---------------------------------------------------------------------------
// The field codec
// ---------------------------------------------------------------------------

/// A value a record body can carry: [`Put::put`] appends its encoding.
/// Borrowed views (a live stream's [`KStateView`]) are only written;
/// everything that is also read back is a [`Field`].
pub trait Put {
    /// Append this value's encoding to `b`.
    fn put(&self, b: &mut Vec<u8>);

    /// Append the elements of a slice, without a length (`u8` copies
    /// them in one go).
    fn put_all(v: &[Self], b: &mut Vec<u8>)
    where
        Self: Sized,
    {
        for x in v {
            x.put(b);
        }
    }
}

/// A value read back by [`Field::get`], exactly as [`Put::put`] wrote
/// it. Reading fails — never panics, never allocates more than the
/// bytes left call for — on anything else.
pub trait Field: Put + Sized {
    /// Read one value.
    fn get(c: &mut Cursor<'_>) -> Result<Self, CheckpointError>;

    /// Read `n` elements of a slice written by [`Put::put_all`] (`u8`
    /// copies them in one go).
    fn get_all(c: &mut Cursor<'_>, n: usize) -> Result<Vec<Self>, CheckpointError> {
        (0..n).map(|_| Self::get(c)).collect()
    }
}

/// Declare a record's codec as its ordered field list: [`Put`] writes
/// the fields in this order and [`Field`] reads them back in the same
/// order. `impl[generics] View => Owned { .. }` writes a borrowed view
/// and reads the owned type that lends it; `; field: expr` fills fields
/// the record does not carry; `then |v| expr` checks (or rebuilds) what
/// was read and returns the `Result`.
#[macro_export]
macro_rules! record_fields {
    ($ty:ident { $($body:tt)* } $($then:tt)*) => {
        $crate::record_fields!(impl[] $ty => $ty { $($body)* } $($then)*);
    };
    (impl[$($g:tt)*] $put:ty => $get:ident {
        $($f:ident),+ $(,)? $(; $($x:ident: $e:expr),+ $(,)?)?
    } $(then |$v:ident| $then:expr)?) => {
        impl<$($g)*> $crate::checkpoint::Put for $put {
            fn put(&self, b: &mut Vec<u8>) {
                $($crate::checkpoint::Put::put(&self.$f, b);)+
            }
        }
        impl $crate::checkpoint::Field for $get {
            fn get(
                c: &mut $crate::checkpoint::Cursor<'_>,
            ) -> Result<Self, $crate::checkpoint::CheckpointError> {
                let read: Self = $get {
                    $($f: $crate::checkpoint::Field::get(c)?,)+
                    $($($x: $e,)+)?
                };
                $crate::record_fields!(@then read $(|$v| $then)?)
            }
        }
    };
    (@then $read:ident) => { Ok($read) };
    (@then $read:ident |$v:ident| $then:expr) => {{ let $v = $read; $then }};
}

/// Declare an enum's one-byte codes, and for a variant that carries
/// values the fields that follow its byte. A byte not in the table is
/// corrupt.
macro_rules! byte_codes {
    ($ty:ident, $what:literal { $($v:ident $(($($p:ident),+))? = $n:literal),+ $(,)? }) => {
        impl Put for $ty {
            fn put(&self, b: &mut Vec<u8>) {
                match self {
                    $($ty::$v $(($($p),+))? => {
                        b.push($n);
                        $($($p.put(b);)+)?
                    })+
                }
            }
        }
        impl Field for $ty {
            fn get(c: &mut Cursor<'_>) -> Result<Self, CheckpointError> {
                Ok(match u8::get(c)? {
                    $($n => $ty::$v $(($({ let $p = Field::get(c)?; $p }),+))?,)+
                    other => return Err(corrupt(format!(concat!("bad ", $what, " {}"), other))),
                })
            }
        }
    };
}

impl Put for u8 {
    fn put(&self, b: &mut Vec<u8>) {
        b.push(*self);
    }

    fn put_all(v: &[u8], b: &mut Vec<u8>) {
        b.extend_from_slice(v);
    }
}

impl Field for u8 {
    fn get(c: &mut Cursor<'_>) -> Result<Self, CheckpointError> {
        Ok(c.take(1)?[0])
    }

    fn get_all(c: &mut Cursor<'_>, n: usize) -> Result<Vec<u8>, CheckpointError> {
        Ok(c.take(n)?.to_vec())
    }
}

macro_rules! le_fields {
    ($($t:ty),+) => {$(
        impl Put for $t {
            fn put(&self, b: &mut Vec<u8>) {
                b.extend_from_slice(&self.to_le_bytes());
            }
        }
        impl Field for $t {
            fn get(c: &mut Cursor<'_>) -> Result<Self, CheckpointError> {
                Ok(<$t>::from_le_bytes(c.array()?))
            }
        }
    )+};
}

le_fields!(u16, u32, u64);

/// Declare types written as another field type: `put` maps a value to
/// its representation, `get` reads the representation back and checks it.
macro_rules! via_fields {
    ($($t:ty => $repr:ty { put |$x:ident| $to:expr, get |$r:ident| $from:expr })+) => {$(
        impl Put for $t {
            fn put(&self, b: &mut Vec<u8>) {
                let $x = self;
                Put::put(&$to, b);
            }
        }
        impl Field for $t {
            fn get(c: &mut Cursor<'_>) -> Result<Self, CheckpointError> {
                let $r = <$repr>::get(c)?;
                $from
            }
        }
    )+};
}

via_fields! {
    usize => u64 {
        put |x| *x as u64,
        get |r| usize::try_from(r).map_err(|_| corrupt("size field out of range"))
    }
    f64 => u64 { put |x| x.to_bits(), get |r| Ok(f64::from_bits(r)) }
    bool => u8 {
        put |x| u8::from(*x),
        get |r| match r {
            0 | 1 => Ok(r == 1),
            other => Err(corrupt(format!("bad flag byte {other}"))),
        }
    }
    StreamErrors => u8 { put |x| x.0, get |r| Ok(StreamErrors(r)) }
    String => Vec<u8> {
        put |x| x.as_bytes(),
        get |r| String::from_utf8(r).map_err(|_| corrupt("invalid UTF-8 in string field"))
    }
    // A filter travels as its source and is compiled when read: one
    // that no longer compiles fails the restore, not the first packet.
    Filter => String {
        put |x| x.source().as_bytes(),
        get |r| Filter::new(&r).map_err(|e| corrupt(format!("bad filter {r:?}: {e}")))
    }
}

impl<T: Put> Put for Option<T> {
    fn put(&self, b: &mut Vec<u8>) {
        self.is_some().put(b);
        if let Some(v) = self {
            v.put(b);
        }
    }
}

impl<T: Field> Field for Option<T> {
    fn get(c: &mut Cursor<'_>) -> Result<Self, CheckpointError> {
        Ok(if bool::get(c)? {
            Some(T::get(c)?)
        } else {
            None
        })
    }
}

impl<T: Put, const N: usize> Put for [T; N] {
    fn put(&self, b: &mut Vec<u8>) {
        T::put_all(self, b);
    }
}

impl<T: Field + Default, const N: usize> Field for [T; N] {
    fn get(c: &mut Cursor<'_>) -> Result<Self, CheckpointError> {
        let mut a: [T; N] = std::array::from_fn(|_| T::default());
        for x in &mut a {
            *x = T::get(c)?;
        }
        Ok(a)
    }
}

impl<A: Put, B: Put> Put for (A, B) {
    fn put(&self, b: &mut Vec<u8>) {
        self.0.put(b);
        self.1.put(b);
    }
}

impl<A: Field, B: Field> Field for (A, B) {
    fn get(c: &mut Cursor<'_>) -> Result<Self, CheckpointError> {
        Ok((A::get(c)?, B::get(c)?))
    }
}

/// A slice is its `u32` length, then its elements.
impl<T: Put> Put for [T] {
    fn put(&self, b: &mut Vec<u8>) {
        (self.len() as u32).put(b);
        T::put_all(self, b);
    }
}

impl<T: Put + ?Sized> Put for &T {
    fn put(&self, b: &mut Vec<u8>) {
        (**self).put(b);
    }
}

impl<T: Put> Put for Vec<T> {
    fn put(&self, b: &mut Vec<u8>) {
        self.as_slice().put(b);
    }
}

impl<T: Field> Field for Vec<T> {
    fn get(c: &mut Cursor<'_>) -> Result<Self, CheckpointError> {
        let n = u32::get(c)? as usize;
        // Every element takes at least one byte: a longer count is
        // corruption, not an allocation request.
        if n > c.left() {
            return Err(corrupt("length field exceeds record size"));
        }
        T::get_all(c, n)
    }
}

/// A flow key: family byte (4/6), both addresses as 16 bytes (IPv4
/// zero-padded), both ports, transport protocol number.
impl Put for FlowKey {
    fn put(&self, b: &mut Vec<u8>) {
        let wide = |addr| match addr {
            IpAddrBytes::V4([w, x, y, z]) => {
                (4u8, [w, x, y, z, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0])
            }
            IpAddrBytes::V6(x) => (6, x),
        };
        let ((family, src), (_, dst)) = (wide(self.src()), wide(self.dst()));
        family.put(b);
        [src, dst].put(b);
        [self.src_port(), self.dst_port()].put(b);
        self.transport().proto_number().put(b);
    }
}

impl Field for FlowKey {
    fn get(c: &mut Cursor<'_>) -> Result<Self, CheckpointError> {
        let family = u8::get(c)?;
        let (src, dst) = (c.array::<16>()?, c.array::<16>()?);
        let [sp, dp] = <[u16; 2]>::get(c)?;
        let transport = Transport::from(u8::get(c)?);
        let v4 = |a: [u8; 16]| [a[0], a[1], a[2], a[3]];
        match family {
            4 => Ok(FlowKey::new_v4(v4(src), v4(dst), sp, dp, transport)),
            6 => Ok(FlowKey::new_v6(src, dst, sp, dp, transport)),
            other => Err(corrupt(format!("bad address family {other}"))),
        }
    }
}

byte_codes!(ReassemblyMode, "reassembly mode" { Strict = 0, Fast = 1 });
byte_codes!(OverlapPolicy, "overlap policy" {
    First = 0, Last = 1, Bsd = 2, Windows = 3, Solaris = 4, Linux = 5,
});
byte_codes!(DispatchMode, "dispatch mode" { Classic = 0, Fastpath = 1 });
byte_codes!(StreamStatus, "stream status" {
    Active = 0, ClosedFin = 1, ClosedRst = 2, ClosedTimeout = 3,
});
byte_codes!(Direction, "direction" { Forward = 0, Reverse = 1 });
byte_codes!(ConnPhase, "connection phase" {
    Opening = 0, Established = 1, ClosedFin = 2, ClosedRst = 3,
});
byte_codes!(TenantState, "tenant state" { Active = 0, Degraded = 1, Disconnected = 2 });
byte_codes!(FdirAction, "FDIR action" { Drop = 0, ToQueue(queue) = 1 });
byte_codes!(OffloadAction, "offload action" {
    Bypass = 0, Drop = 1, Mark(tag) = 2, Sample(every) = 3,
});

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

record_fields! { CutoffPolicy { default, per_direction, classes } }
record_fields! { PriorityPolicy { classes } }
record_fields! { PplConfig { base_threshold, num_priorities, overload_cutoff } }
record_fields! {
    GovernorConfig { enter, exit, calm_ticks, tick_ns, cutoff_caps, ppl_boost, evict_batch }
}

record_fields! {
    ScapConfig {
        memory_bytes, reassembly_mode, overlap_policy, need_pkts, filter, cutoff, priorities,
        worker_threads, cores, chunk_size, overlap, flush_timeout_ns, inactivity_timeout_ns,
        ppl, use_fdir, use_fdir_balancing, balance_threshold, rx_ring_slots, event_queue_cap,
        governor, telemetry_sample_interval_ns, telemetry_series_cap, flight_ring_cap,
        dispatch, fastpath_burst, use_offload, offload_capacity, watchdog_breaker_threshold,
        watchdog_breaker_window_ns, pulse_exemplar_permille, pulse_exemplar_cap;
        faults: None,
    } then |cfg| restorable(cfg)
}

/// A configuration the kernel can be rebuilt from: a CRC-clean config
/// record that would make the restore panic, or allocate more than any
/// capture asks for, is refused here.
fn restorable(cfg: ScapConfig) -> Result<ScapConfig, CheckpointError> {
    let (cores, ring, rules) = (cfg.cores, cfg.flight_ring_cap, cfg.offload_capacity);
    if cores == 0 || cfg.chunk_size == 0 || cfg.overlap >= cfg.chunk_size {
        return Err(corrupt("invalid capture geometry in config record"));
    }
    if cores > scap_nic::rss::MAX_QUEUES {
        return Err(corrupt(format!("{cores} cores, more than RSS has queues")));
    }
    // A capture spawns one thread per worker slot, and events reach slot
    // `core % workers`: a slot past the core count would sit idle.
    let workers = cfg.worker_threads;
    if workers > scap_nic::rss::MAX_QUEUES {
        return Err(corrupt(format!(
            "{workers} worker threads, more than RSS has queues"
        )));
    }
    if ring > MAX_FLIGHT_RING_CAP {
        return Err(corrupt(format!("flight ring of {ring} entries")));
    }
    if rules > MAX_OFFLOAD_CAPACITY || (cfg.use_offload && rules == 0) {
        return Err(corrupt(format!("offload table of {rules} rules")));
    }
    Ok(cfg)
}

record_fields! { CheckpointGlobals { ts_ns, uid_counter, governor_level, restarts } }
record_fields! {
    DirStats {
        total_pkts, total_bytes, captured_bytes, captured_pkts,
        discarded_pkts, discarded_bytes, dropped_pkts, dropped_bytes,
    }
}
record_fields! {
    DirState { base_seq, expected, flags, delivered_bytes, duplicate_bytes, gap_bytes, segments }
}
record_fields! { ConnCheckpoint { phase, client_dir, fin_seen, dirs } }

/// The view side of [`ConnCheckpoint`]'s field list: a connection still
/// inside the kernel writes its buffered segments from the reassembler's
/// own memory, through accessors rather than fields.
impl Put for ConnView<'_> {
    fn put(&self, b: &mut Vec<u8>) {
        let c = match self {
            ConnView::Image(c) => return c.put(b),
            ConnView::Live(c) => c,
        };
        c.phase().put(b);
        c.client_dir().put(b);
        c.fin_seen().put(b);
        for d in [Direction::Forward, Direction::Reverse].map(|d| c.dir(d)) {
            d.base_seq().put(b);
            d.expected().put(b);
            d.flags.0.put(b);
            [d.delivered_bytes, d.duplicate_bytes, d.gap_bytes].put(b);
            let segments = d.segments();
            (segments.len() as u32).put(b);
            segments.for_each(|segment| segment.put(b));
        }
    }
}

record_fields! {
    impl[B: Put] AsmImage<B> => AsmImage { committed, pending } then |a| {
        if (a.pending.len() as u64) > a.committed {
            return Err(corrupt("pending bytes exceed committed offset"));
        }
        Ok(a)
    }
}

record_fields! {
    impl['a] KStateView<'a> => KStateImage {
        fdir_installed, fdir_timeout_ns, fdir_software_fallback, conn, asm,
    }
}

impl Put for KStateImage {
    fn put(&self, b: &mut Vec<u8>) {
        self.view().put(b);
    }
}

record_fields! {
    impl[K: Put] StreamImage<K> => StreamImage {
        core, uid, key, first_dir, first_ts_ns, last_ts_ns, status, errors, priority, cutoff,
        cutoff_exceeded, discarded, dirs, chunk_size, overlap, reassembly_policy,
        processing_time_ns, chunks, resume_gap_bytes, kstate,
    }
}

record_fields! { FlexMatch { offset, value } }
record_fields! { FdirFilter { key, flex, action } }
record_fields! {
    OffloadRule { key, action, priority } then |r| match r.action {
        OffloadAction::Sample(0) => Err(corrupt("offload sample rate of zero")),
        _ => Ok(OffloadRule::new(r.key, r.action, r.priority)),
    }
}

record_fields! {
    TenantImage {
        id, name, filter_src, cutoff, priority, mem_share, disk_share, state,
        delivered_bytes, dropped_bytes, discarded_bytes,
    } then |t| match t.filter_src.as_deref().map(Filter::new) {
        // A tenant filter that no longer compiles must fail the
        // restore, not the next attach.
        Some(Err(e)) => Err(corrupt(format!("bad tenant filter: {e}"))),
        _ => Ok(t),
    }
}

/// The FDIR and offload record bodies: a count, then the entries sorted
/// by their bytes. Both tables hash by key, so the order they hand their
/// entries out in is not deterministic; sorting makes identical sets
/// always produce identical checkpoints.
struct SortedSet<'a, T>(&'a [T]);

impl<T: Put> Put for SortedSet<'_, T> {
    fn put(&self, b: &mut Vec<u8>) {
        let mut enc: Vec<Vec<u8>> = self
            .0
            .iter()
            .map(|x| {
                let mut e = Vec::with_capacity(48);
                x.put(&mut e);
                e
            })
            .collect();
        enc.sort_unstable();
        (enc.len() as u32).put(b);
        for e in enc {
            b.extend_from_slice(&e);
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

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
        let mut w = ImageWriter { out };
        w.record(REC_CONFIG, cfg);
        w.record(REC_GLOBALS, globals);
        w
    }

    /// Frame one record: its kind byte, then its body.
    fn record(&mut self, kind: u8, body: &impl Put) {
        frame_record_into(self.out, |b| {
            b.push(kind);
            body.put(b);
        });
    }

    /// Append one stream record. The image's bytes are a pure function
    /// of the captured state only if streams arrive in ascending-uid
    /// order, equal uids in a stable order: the caller sorts.
    pub fn stream<K: Put>(&mut self, s: &StreamImage<K>) {
        self.record(REC_STREAM, s);
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
    /// tenant table (the last two only when non-empty, the tenants in
    /// ascending-id order), the end marker.
    pub fn finish(mut self, fdir: &[FdirFilter], offload: &[OffloadRule], tenants: &[TenantImage]) {
        self.record(REC_FDIR, &SortedSet(fdir));
        if !offload.is_empty() {
            self.record(REC_OFFLOAD, &SortedSet(offload));
        }
        if !tenants.is_empty() {
            let mut order: Vec<&TenantImage> = tenants.iter().collect();
            order.sort_by_key(|t| t.id);
            self.record(REC_TENANTS, &order);
        }
        frame_record_into(self.out, |b| b.push(REC_END));
    }
}

impl CheckpointImage {
    /// Encode this image to checkpoint-file bytes. Streams are written
    /// in ascending-uid order regardless of their order here, so the
    /// bytes are a pure function of the captured state.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4096);
        let mut order: Vec<&StreamImage> = self.streams.iter().collect();
        order.sort_by_key(|s| s.uid);
        let mut w = ImageWriter::begin(&mut out, self.seq, &self.config, &self.globals);
        for s in order {
            w.stream(s);
        }
        w.finish(&self.fdir, &self.offload, &self.tenants);
        out
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
        if n > self.left() {
            return Err(corrupt("record body too short"));
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next `N` bytes.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CheckpointError> {
        let mut a = [0; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    /// Bytes not read yet.
    fn left(&self) -> usize {
        self.b.len() - self.pos
    }

    /// Fail unless every byte was read.
    pub fn done(&self) -> Result<(), CheckpointError> {
        if self.left() != 0 {
            return Err(corrupt("trailing bytes in record body"));
        }
        Ok(())
    }
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
        let mut tenants: Vec<TenantImage> = Vec::new();
        let mut ended = false;
        for rec in &scan.records {
            if ended {
                return Err(corrupt("record after end marker"));
            }
            let mut c = Cursor::new(&data[rec.body.clone()]);
            match u8::get(&mut c)? {
                REC_CONFIG if config.is_some() => return Err(corrupt("duplicate config record")),
                REC_CONFIG => config = Some(ScapConfig::get(&mut c)?),
                REC_GLOBALS if globals.is_some() => {
                    return Err(corrupt("duplicate globals record"))
                }
                REC_GLOBALS => globals = Some(CheckpointGlobals::get(&mut c)?),
                REC_STREAM => streams.push(StreamImage::get(&mut c)?),
                REC_FDIR => fdir.extend(Vec::<FdirFilter>::get(&mut c)?),
                REC_OFFLOAD => offload.extend(Vec::<OffloadRule>::get(&mut c)?),
                REC_TENANTS => {
                    tenants = Vec::get(&mut c)?;
                    if tenants.windows(2).any(|w| w[0].id >= w[1].id) {
                        return Err(corrupt("tenant table not in ascending-id order"));
                    }
                }
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
    use proptest::prelude::*;
    use scap_wire::splitmix64;

    fn key(port: u16) -> FlowKey {
        FlowKey::new_v4([10, 0, 0, 1], [10, 0, 0, 2], 40_000, port, Transport::Tcp)
    }

    /// An image holding nothing but the default configuration.
    fn bare() -> CheckpointImage {
        CheckpointImage {
            seq: 0,
            config: ScapConfig::default(),
            globals: CheckpointGlobals::default(),
            streams: Vec::new(),
            fdir: Vec::new(),
            offload: Vec::new(),
            tenants: Vec::new(),
        }
    }

    /// `image` with one more record, framed with a valid CRC, in front
    /// of its end marker.
    fn with_record_before_end(mut image: Vec<u8>, body: &[u8]) -> Vec<u8> {
        let end = image.len() - (REC_HEADER_LEN + 1);
        image.splice(end..end, frame_record(body));
        image
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
        CheckpointImage {
            seq: 7,
            config: cfg,
            globals,
            streams,
            fdir,
            ..bare()
        }
        .to_bytes()
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
        let a = FdirFilter::drop_tcp_flags(key(80), scap_wire::TcpFlags::ACK);
        let b = FdirFilter::steer(key(443), 1);
        let x = CheckpointImage {
            fdir: vec![a, b],
            ..bare()
        };
        let y = CheckpointImage {
            fdir: vec![b, a],
            ..bare()
        };
        assert_eq!(x.to_bytes(), y.to_bytes());
    }

    #[test]
    fn offload_rules_round_trip_in_canonical_order() {
        let rules = vec![
            OffloadRule::new(key(443), OffloadAction::Sample(128), 1),
            OffloadRule::new(key(80), OffloadAction::Drop, 0),
            OffloadRule::new(key(53), OffloadAction::Mark(3), 2),
            OffloadRule::new(key(22), OffloadAction::Bypass, 3),
        ];
        let mut rev = rules.clone();
        rev.reverse();
        let x = CheckpointImage {
            offload: rules.clone(),
            ..bare()
        }
        .to_bytes();
        let y = CheckpointImage {
            offload: rev,
            ..bare()
        }
        .to_bytes();
        assert_eq!(x, y, "rule order must not change the bytes");
        let img = CheckpointImage::decode(&x).unwrap();
        assert_eq!(img.offload.len(), 4);
        for r in &rules {
            assert!(img.offload.contains(r), "{r:?} must survive the trip");
        }
        assert_eq!(img.to_bytes(), x);

        // An offload-free image writes no offload record at all, so
        // captures without the stage stay byte-identical.
        let img = CheckpointImage::decode(&bare().to_bytes()).unwrap();
        assert!(img.offload.is_empty());

        // A zero sample rate is corruption, not a divide-by-zero later:
        // a hand-built offload record with rate 0 and a valid CRC.
        let mut body = vec![REC_OFFLOAD];
        (1u32, key(80)).put(&mut body);
        body.extend_from_slice(&[3, 0, 0, 0, 0, 0]); // Sample, rate 0, priority 0
        let bad = with_record_before_end(bare().to_bytes(), &body);
        let err = CheckpointImage::decode(&bad).unwrap_err();
        assert!(
            err.to_string().contains("sample rate"),
            "wrong error: {err}"
        );
    }

    #[test]
    fn recovery_cycles_scale_with_state() {
        let full = CheckpointImage::decode(&sample_image_bytes()).unwrap();
        assert!(recovery_cycles(&full) > recovery_cycles(&bare()));
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
                state: TenantState::Degraded,
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
        let bytes = CheckpointImage {
            seq: 3,
            tenants,
            ..bare()
        }
        .to_bytes();
        let img = CheckpointImage::decode(&bytes).unwrap();
        // Ascending-id canonical order regardless of input order.
        assert_eq!(img.tenants.len(), 2);
        assert_eq!(img.tenants[0].id, 1);
        assert_eq!(img.tenants[0].name, "dns");
        assert_eq!(img.tenants[1].name, "ids");
        assert_eq!(img.tenants[1].filter_src.as_deref(), Some("tcp"));
        assert_eq!(img.tenants[1].cutoff, Some(4096));
        assert_eq!(img.tenants[1].state, TenantState::Degraded);
        assert_eq!(img.tenants[1].delivered_bytes, 10);
        assert_eq!(img.to_bytes(), bytes);

        // A pre-tenant image decodes with an empty table (the record is
        // only written when non-empty, so old checkpoints are unchanged).
        let old = CheckpointImage::decode(&sample_image_bytes()).unwrap();
        assert!(old.tenants.is_empty());

        // A tenant whose stored filter no longer compiles is corruption,
        // not a silent pass-through.
        let bad = CheckpointImage {
            tenants: vec![TenantImage {
                id: 1,
                filter_src: Some("((".into()),
                ..Default::default()
            }],
            ..bare()
        };
        assert!(CheckpointImage::decode(&bad.to_bytes()).is_err());
    }

    /// A tenants record, byte by byte, whose one row has ladder state
    /// byte `state`.
    fn tenants_record(state: u8) -> Vec<u8> {
        let mut body = vec![REC_TENANTS];
        body.extend_from_slice(&1u32.to_le_bytes()); // one tenant
        body.extend_from_slice(&4u64.to_le_bytes()); // id
        body.extend_from_slice(&3u32.to_le_bytes());
        body.extend_from_slice(b"ids"); // name
        body.extend_from_slice(&[0, 0, 0]); // no filter, no cutoff, priority 0
        body.extend_from_slice(&500u32.to_le_bytes()); // memory share
        body.extend_from_slice(&500u32.to_le_bytes()); // disk share
        body.push(state);
        body.extend_from_slice(&[0; 24]); // delivered, dropped, discarded
        body
    }

    /// A ladder state byte outside the table is corrupt, not a tenant
    /// restored as `Active`.
    #[test]
    fn a_tenant_state_byte_that_is_not_a_state_is_refused() {
        let good = with_record_before_end(bare().to_bytes(), &tenants_record(2));
        let img = CheckpointImage::decode(&good).unwrap();
        assert_eq!(img.tenants[0].state, TenantState::Disconnected);
        let bad = with_record_before_end(bare().to_bytes(), &tenants_record(9));
        let err = CheckpointImage::decode(&bad).unwrap_err();
        assert!(
            err.to_string().contains("tenant state"),
            "wrong error: {err}"
        );
    }

    /// The bytes of a bare image whose configuration `edit` changed.
    fn image_with(edit: impl FnOnce(&mut ScapConfig)) -> Vec<u8> {
        let mut img = bare();
        edit(&mut img.config);
        img.to_bytes()
    }

    /// More cores than RSS has queues are refused at decode: the
    /// restore's RSS setup would panic on them.
    #[test]
    fn a_config_with_more_cores_than_rss_queues_is_refused() {
        let at_limit = image_with(|c| c.cores = scap_nic::rss::MAX_QUEUES);
        assert!(CheckpointImage::decode(&at_limit).is_ok());
        let bad = image_with(|c| c.cores = 1 << 40);
        let err = CheckpointImage::decode(&bad).unwrap_err();
        assert!(err.to_string().contains("cores"), "wrong error: {err}");
    }

    /// More worker threads than RSS has queues are refused at decode: a
    /// resumed capture would spawn every one of them. Decode only — no
    /// capture starts, so no thread is spawned here.
    #[test]
    fn a_config_with_more_worker_threads_than_rss_queues_is_refused() {
        let at_limit = image_with(|c| c.worker_threads = scap_nic::rss::MAX_QUEUES);
        assert!(CheckpointImage::decode(&at_limit).is_ok());
        let bad = image_with(|c| c.worker_threads = 1 << 40);
        let err = CheckpointImage::decode(&bad).unwrap_err();
        assert!(
            err.to_string().contains("worker threads"),
            "wrong error: {err}"
        );
    }

    /// A flight ring of `usize::MAX / 4` entries is refused at decode:
    /// the restore would panic allocating it (`capacity overflow`).
    #[test]
    fn a_config_with_an_oversized_flight_ring_is_refused() {
        let at_limit = image_with(|c| c.flight_ring_cap = MAX_FLIGHT_RING_CAP);
        assert!(CheckpointImage::decode(&at_limit).is_ok());
        let bad = image_with(|c| c.flight_ring_cap = usize::MAX / 4);
        let err = CheckpointImage::decode(&bad).unwrap_err();
        assert!(
            err.to_string().contains("flight ring"),
            "wrong error: {err}"
        );
    }

    /// An offload table of `usize::MAX / 4` rules is refused at decode:
    /// allocating it would abort the process, past the reach of
    /// `catch_unwind`.
    #[test]
    fn a_config_with_an_oversized_offload_table_is_refused() {
        let at_limit = image_with(|c| {
            c.use_offload = true;
            c.offload_capacity = MAX_OFFLOAD_CAPACITY;
        });
        assert!(CheckpointImage::decode(&at_limit).is_ok());
        let bad = image_with(|c| {
            c.use_offload = true;
            c.offload_capacity = usize::MAX / 4;
        });
        let err = CheckpointImage::decode(&bad).unwrap_err();
        assert!(
            err.to_string().contains("offload table"),
            "wrong error: {err}"
        );
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

    /// Random records for the round-trip properties, from one seed.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = splitmix64(self.0);
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn flag(&mut self) -> bool {
            self.below(2) == 1
        }

        fn pick<T: Copy>(&mut self, from: &[T]) -> T {
            from[self.below(from.len() as u64) as usize]
        }

        fn opt<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> Option<T> {
            self.flag().then(|| f(self))
        }

        fn f64(&mut self) -> f64 {
            f64::from_bits(self.next())
        }

        fn bytes(&mut self, max: u64) -> Vec<u8> {
            (0..self.below(max + 1))
                .map(|_| self.next() as u8)
                .collect()
        }

        fn key(&mut self) -> FlowKey {
            let [a, b] = [self.next(), self.next()].map(u64::to_le_bytes);
            let (ports, proto) = (self.next(), Transport::from(self.next() as u8));
            let (sp, dp) = (ports as u16, (ports >> 16) as u16);
            if self.flag() {
                let v4 = |x: [u8; 8]| [x[0], x[1], x[2], x[3]];
                FlowKey::new_v4(v4(a), v4(b), sp, dp, proto)
            } else {
                let v6 = |x: [u8; 8]| [x, x].concat().try_into().unwrap();
                FlowKey::new_v6(v6(a), v6(b), sp, dp, proto)
            }
        }

        fn filter(&mut self) -> Filter {
            let src = self.pick(&["tcp", "udp", "port 80", "host 10.0.0.1", "not icmp"]);
            Filter::new(src).unwrap()
        }

        fn config(&mut self) -> ScapConfig {
            let chunk_size = 1 + self.below(1 << 20);
            ScapConfig {
                memory_bytes: self.next() as usize,
                reassembly_mode: self.pick(&[ReassemblyMode::Strict, ReassemblyMode::Fast]),
                overlap_policy: self.pick(&[
                    OverlapPolicy::First,
                    OverlapPolicy::Last,
                    OverlapPolicy::Bsd,
                    OverlapPolicy::Windows,
                    OverlapPolicy::Solaris,
                    OverlapPolicy::Linux,
                ]),
                need_pkts: self.flag(),
                filter: self.opt(Gen::filter),
                cutoff: CutoffPolicy {
                    default: self.opt(Gen::next),
                    per_direction: [self.opt(Gen::next), self.opt(Gen::next)],
                    classes: (0..self.below(3))
                        .map(|_| (self.filter(), self.next()))
                        .collect(),
                },
                priorities: PriorityPolicy {
                    classes: (0..self.below(3))
                        .map(|_| (self.filter(), self.next() as u8))
                        .collect(),
                },
                worker_threads: self.below(64) as usize,
                cores: 1 + self.below(scap_nic::rss::MAX_QUEUES as u64) as usize,
                chunk_size: chunk_size as usize,
                overlap: self.below(chunk_size) as usize,
                flush_timeout_ns: self.next(),
                inactivity_timeout_ns: self.next(),
                ppl: PplConfig {
                    base_threshold: self.f64(),
                    num_priorities: self.next() as u8,
                    overload_cutoff: self.opt(Gen::next),
                },
                use_fdir: self.flag(),
                use_fdir_balancing: self.flag(),
                balance_threshold: self.f64(),
                rx_ring_slots: self.next() as usize,
                event_queue_cap: self.next() as usize,
                governor: GovernorConfig {
                    enter: [self.f64(), self.f64(), self.f64()],
                    exit: self.f64(),
                    calm_ticks: self.next() as u32,
                    tick_ns: self.next(),
                    cutoff_caps: [self.next(), self.next()],
                    ppl_boost: self.f64(),
                    evict_batch: self.next() as usize,
                },
                faults: None,
                telemetry_sample_interval_ns: self.next(),
                telemetry_series_cap: self.next() as usize,
                flight_ring_cap: self.below(MAX_FLIGHT_RING_CAP as u64 + 1) as usize,
                dispatch: self.pick(&[DispatchMode::Classic, DispatchMode::Fastpath]),
                fastpath_burst: self.next() as usize,
                use_offload: self.flag(),
                offload_capacity: 1 + self.below(MAX_OFFLOAD_CAPACITY as u64) as usize,
                watchdog_breaker_threshold: self.next() as u32,
                watchdog_breaker_window_ns: self.next(),
                pulse_exemplar_permille: self.next() as u32,
                pulse_exemplar_cap: self.next() as usize,
            }
        }

        fn dir_stats(&mut self) -> DirStats {
            DirStats {
                total_pkts: self.next(),
                total_bytes: self.next(),
                captured_bytes: self.next(),
                captured_pkts: self.next(),
                discarded_pkts: self.next(),
                discarded_bytes: self.next(),
                dropped_pkts: self.next(),
                dropped_bytes: self.next(),
            }
        }

        fn dir_state(&mut self) -> DirState {
            DirState {
                base_seq: self.opt(|g| g.next() as u32),
                expected: self.next(),
                flags: self.next() as u8,
                delivered_bytes: self.next(),
                duplicate_bytes: self.next(),
                gap_bytes: self.next(),
                segments: (0..self.below(3))
                    .map(|_| (self.next(), self.bytes(64)))
                    .collect(),
            }
        }

        fn asm(&mut self) -> AsmImage {
            let pending = self.bytes(64);
            AsmImage {
                committed: pending.len() as u64 + self.below(1 << 40),
                pending,
            }
        }

        fn direction(&mut self) -> Direction {
            self.pick(&[Direction::Forward, Direction::Reverse])
        }

        /// A stream with or without kernel state, connection and
        /// buffered segments.
        fn stream(&mut self) -> StreamImage {
            StreamImage {
                core: self.below(4) as u32,
                uid: self.next(),
                key: self.key(),
                first_dir: self.direction(),
                first_ts_ns: self.next(),
                last_ts_ns: self.next(),
                status: self.pick(&[
                    StreamStatus::Active,
                    StreamStatus::ClosedFin,
                    StreamStatus::ClosedRst,
                    StreamStatus::ClosedTimeout,
                ]),
                errors: self.next() as u8,
                priority: self.next() as u8,
                cutoff: [self.opt(Gen::next), self.opt(Gen::next)],
                cutoff_exceeded: self.flag(),
                discarded: self.flag(),
                dirs: [self.dir_stats(), self.dir_stats()],
                chunk_size: self.next() as u32,
                overlap: self.next() as u32,
                reassembly_policy: self.opt(|g| g.next() as u8),
                processing_time_ns: self.next(),
                chunks: self.next(),
                resume_gap_bytes: self.next(),
                kstate: self.opt(|g| KStateImage {
                    fdir_installed: g.flag(),
                    fdir_timeout_ns: g.next(),
                    fdir_software_fallback: g.flag(),
                    conn: g.opt(|g| ConnCheckpoint {
                        phase: g.pick(&[
                            ConnPhase::Opening,
                            ConnPhase::Established,
                            ConnPhase::ClosedFin,
                            ConnPhase::ClosedRst,
                        ]),
                        client_dir: g.opt(Gen::direction),
                        fin_seen: [g.flag(), g.flag()],
                        dirs: [g.dir_state(), g.dir_state()],
                    }),
                    asm: [g.opt(Gen::asm), g.opt(Gen::asm)],
                }),
            }
        }

        fn fdir(&mut self) -> FdirFilter {
            FdirFilter {
                key: self.key(),
                flex: self.opt(|g| FlexMatch {
                    offset: g.next() as u16,
                    value: g.next() as u16,
                }),
                action: match self.flag() {
                    true => FdirAction::ToQueue(self.next() as usize),
                    false => FdirAction::Drop,
                },
            }
        }

        fn offload(&mut self) -> OffloadRule {
            let action = match self.below(4) {
                0 => OffloadAction::Bypass,
                1 => OffloadAction::Drop,
                2 => OffloadAction::Mark(self.next() as u8),
                _ => OffloadAction::Sample(1 + self.below(u64::from(u32::MAX)) as u32),
            };
            OffloadRule::new(self.key(), action, self.next() as u8)
        }

        fn tenant(&mut self, id: u64) -> TenantImage {
            TenantImage {
                id,
                name: (0..1 + self.below(8))
                    .map(|_| char::from(b'a' + self.below(26) as u8))
                    .collect(),
                filter_src: self.opt(|g| g.filter().source().to_string()),
                cutoff: self.opt(Gen::next),
                priority: self.next() as u8,
                mem_share: self.next() as u32,
                disk_share: self.next() as u32,
                state: self.pick(&[
                    TenantState::Active,
                    TenantState::Degraded,
                    TenantState::Disconnected,
                ]),
                delivered_bytes: self.next(),
                dropped_bytes: self.next(),
                discarded_bytes: self.next(),
            }
        }
    }

    fn encoded(v: &impl Put) -> Vec<u8> {
        let mut b = Vec::new();
        v.put(&mut b);
        b
    }

    /// Read one `T` that must take up all of `b`.
    fn decoded<T: Field>(b: &[u8]) -> T {
        let mut c = Cursor::new(b);
        let v = T::get(&mut c).unwrap();
        c.done().unwrap();
        v
    }

    proptest! {
        /// A configuration, cutoff and priority classes included, reads
        /// back as itself (compared by its `Debug` form: a compiled
        /// filter has no `==`, a NaN threshold is not equal to itself).
        #[test]
        fn config_records_round_trip(seed: u64) {
            let cfg = Gen(seed).config();
            let bytes = encoded(&cfg);
            let back: ScapConfig = decoded(&bytes);
            prop_assert_eq!(format!("{back:?}"), format!("{cfg:?}"));
            prop_assert_eq!(encoded(&back), bytes);
        }

        #[test]
        fn globals_records_round_trip(ts_ns: u64, uid_counter: u64, governor_level: u8, restarts: u64) {
            let g = CheckpointGlobals { ts_ns, uid_counter, governor_level, restarts };
            prop_assert_eq!(decoded::<CheckpointGlobals>(&encoded(&g)), g);
        }

        /// Streams with and without kernel state, a connection and
        /// buffered segments, alone and inside a whole image.
        #[test]
        fn stream_records_round_trip(seed: u64) {
            let s = Gen(seed).stream();
            prop_assert_eq!(&decoded::<StreamImage>(&encoded(&s)), &s);
            let img = CheckpointImage {
                config: ScapConfig { cores: 4, ..ScapConfig::default() },
                globals: CheckpointGlobals { uid_counter: s.uid, ..Default::default() },
                streams: vec![s.clone()],
                ..bare()
            };
            let back = CheckpointImage::decode(&img.to_bytes()).unwrap();
            prop_assert_eq!(&back.streams, &img.streams);
        }

        #[test]
        fn fdir_records_round_trip(seed: u64, n in 0usize..6) {
            let mut g = Gen(seed);
            let fdir: Vec<FdirFilter> = (0..n).map(|_| g.fdir()).collect();
            for f in &fdir {
                prop_assert_eq!(&decoded::<FdirFilter>(&encoded(f)), f);
            }
            let bytes = CheckpointImage { fdir: fdir.clone(), ..bare() }.to_bytes();
            let back = CheckpointImage::decode(&bytes).unwrap();
            prop_assert!(back.fdir.len() == n && fdir.iter().all(|f| back.fdir.contains(f)));
            prop_assert_eq!(back.to_bytes(), bytes);
        }

        #[test]
        fn offload_records_round_trip(seed: u64, n in 1usize..6) {
            let mut g = Gen(seed);
            let offload: Vec<OffloadRule> = (0..n).map(|_| g.offload()).collect();
            for r in &offload {
                prop_assert_eq!(&decoded::<OffloadRule>(&encoded(r)), r);
            }
            let bytes = CheckpointImage { offload: offload.clone(), ..bare() }.to_bytes();
            let back = CheckpointImage::decode(&bytes).unwrap();
            prop_assert!(back.offload.len() == n && offload.iter().all(|r| back.offload.contains(r)));
            prop_assert_eq!(back.to_bytes(), bytes);
        }

        #[test]
        fn tenant_records_round_trip(seed: u64, n in 1usize..5) {
            let mut g = Gen(seed);
            let tenants: Vec<TenantImage> =
                (0..n as u64).map(|i| { let id = i * 8 + g.below(8); g.tenant(id) }).collect();
            for t in &tenants {
                prop_assert_eq!(&decoded::<TenantImage>(&encoded(t)), t);
            }
            let mut shuffled = tenants.clone();
            shuffled.rotate_left(g.below(n as u64) as usize);
            let bytes = CheckpointImage { tenants: shuffled, ..bare() }.to_bytes();
            prop_assert_eq!(CheckpointImage::decode(&bytes).unwrap().tenants, tenants);
        }
    }
}
