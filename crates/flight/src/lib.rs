#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # scap-flight
//!
//! An always-on, zero-dependency flight recorder for the Scap pipeline:
//! per-core ring-buffered journals of typed, timestamped events with
//! *drop provenance* — every packet or byte the capture loses or refuses
//! carries `{layer, reason, stream_uid}`, so overload episodes are
//! attributable after the fact, not just countable.
//!
//! Where [`scap-telemetry`] answers *how many*, the flight recorder
//! answers *why this stream* and *why at that moment*:
//!
//! * [`FlightRecorder`] — one preallocated ring per core. A hot-path
//!   record is a handful of stores into the next slot (no allocation, no
//!   locks; the single-writer-per-core discipline the kernel already
//!   enforces makes the relaxed cursor race-free). When a ring wraps,
//!   the overwritten events are **counted** — tracing never silently
//!   loses its own loss (see [`FlightRecorder::dropped`]). A loss that
//!   repeats the newest entry (same stream, reason and timestamp) is
//!   folded into it, so a burst of cutoff discards costs one entry, not
//!   one per packet.
//! * [`FlightEvent`] — a fixed-size record with static-enum identities
//!   ([`FlightKind`], [`FlightLayer`], [`DropReason`]), a capture-wide
//!   sequence number, a virtual/trace timestamp, and two payload words
//!   whose meaning depends on the kind (packet/byte counts for drops,
//!   from/to levels for governor changes, …).
//! * A CRC-framed journal codec ([`FlightRecorder::encode`] /
//!   [`decode_journal`]) sharing the checkpoint file discipline: 16-byte
//!   file header, per-record magic + length + CRC-32, torn-tail-tolerant
//!   scanning. [`FlightRecorder::encode_tail`] produces the last-N-events
//!   *black box* the live driver dumps next to the checkpoint file when
//!   the process dies.
//!
//! Determinism contract (same as `scap-telemetry`): timestamps are the
//! caller's clock — virtual/trace time under simulation — and sequence
//! numbers are assigned in record order, so a seeded run produces a
//! byte-identical journal.

use std::collections::BTreeMap;

pub mod framing;
pub use framing::{
    crc32, file_header, frame_record, frame_record_into, FILE_HEADER_LEN, FORMAT_VERSION,
    REC_HEADER_LEN, REC_MAGIC,
};

// ---------------------------------------------------------------------------
// Static event identities
// ---------------------------------------------------------------------------

macro_rules! flight_ids {
    ($(#[$meta:meta])* $name:ident {
        $($(#[$vmeta:meta])* $var:ident => $s:literal,)+
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(u8)]
        pub enum $name {
            $($(#[$vmeta])* $var,)+
        }

        impl $name {
            /// Number of variants.
            pub const COUNT: usize = [$($name::$var),+].len();
            /// All variants in declaration (and export) order.
            pub const ALL: [$name; Self::COUNT] = [$($name::$var),+];

            /// Stable wire name used by every exporter.
            pub const fn name(self) -> &'static str {
                match self { $($name::$var => $s,)+ }
            }

            /// Reverse lookup by wire name.
            pub fn from_name(s: &str) -> Option<Self> {
                match s { $($s => Some($name::$var),)+ _ => None }
            }

            /// Index into per-identity arrays / the wire byte.
            #[inline]
            pub const fn idx(self) -> u8 {
                self as u8
            }

            /// Decode the wire byte; `None` rejects corrupt identities.
            pub fn from_idx(i: u8) -> Option<Self> {
                Self::ALL.get(i as usize).copied()
            }
        }
    };
}

flight_ids! {
    /// What happened. Declaration order is the stable wire encoding, so
    /// only append.
    FlightKind {
        /// Packets/bytes lost to overload (`a` = packets, `b` = bytes).
        Drop => "drop",
        /// Packets/bytes deliberately not captured (`a` = packets,
        /// `b` = bytes).
        Discard => "discard",
        /// A new stream entered the flow table.
        StreamCreated => "stream_created",
        /// The stream's cutoff tripped for the first time.
        CutoffHit => "cutoff_hit",
        /// The governor evicted a low-priority stream's pending memory.
        StreamEvicted => "stream_evicted",
        /// The stream expired by inactivity.
        StreamExpired => "stream_expired",
        /// The stream terminated and was reported (`a` = total bytes,
        /// `b` = total packets).
        StreamTerminated => "stream_terminated",
        /// The stream was restored from a checkpoint (RESUMED).
        StreamResumed => "stream_resumed",
        /// The overload governor changed level (`a` = from, `b` = to).
        GovernorChange => "governor_change",
        /// NIC drop filters were installed for a stream.
        FdirInstalled => "fdir_installed",
        /// A stream's filters were evicted to make room (nearest
        /// deadline first).
        FdirEvicted => "fdir_evicted",
        /// A transiently failed install was parked for retry
        /// (`a` = attempts so far).
        FdirRetryQueued => "fdir_retry_queued",
        /// A parked install retry finally succeeded.
        FdirRetryOk => "fdir_retry_ok",
        /// Retries exhausted: cutoff enforced in software from now on.
        FdirFallback => "fdir_fallback",
        /// A filter's timeout elapsed and it was removed.
        FdirExpired => "fdir_expired",
        /// A checkpoint was written (`a` = sequence, `b` = bytes).
        CheckpointWritten => "checkpoint_written",
        /// The kernel was rebuilt from a checkpoint (`a` = lineage
        /// restart count, `b` = streams resumed).
        Restarted => "restarted",
        /// A live worker thread panicked (`a` = worker index).
        WorkerPanic => "worker_panic",
        /// The heartbeat watchdog detected a wedged worker
        /// (`a` = worker index).
        WorkerStall => "worker_stall",
        /// The watchdog spawned a replacement worker (`a` = worker
        /// index).
        WorkerRestart => "worker_restart",
        /// The archive opened a new segment file (`a` = segment index).
        StoreSegmentCreated => "store_segment_created",
        /// A terminated stream was sealed into the archive
        /// (`a` = payload bytes archived).
        StoreStreamArchived => "store_stream_archived",
        /// A tenant attached to a shared capture (`uid` = tenant id,
        /// `a` = memory share in permille, `b` = disk share in permille).
        TenantAttached => "tenant_attached",
        /// A tenant detached cleanly (`uid` = tenant id, `a` = delivered
        /// bytes at detach).
        TenantDetached => "tenant_detached",
        /// A slow tenant was degraded — its delivery cutoff tightened
        /// (`uid` = tenant id, `a` = the degraded cutoff).
        TenantDegraded => "tenant_degraded",
        /// A persistently slow tenant was forcibly disconnected
        /// (`uid` = tenant id, `a` = bytes dropped on its queue).
        TenantDisconnected => "tenant_disconnected",
        /// An offload rule was programmed for a stream (`uid` = stream,
        /// `a` = action discriminant, `b` = rules installed).
        OffloadInstalled => "offload_installed",
        /// An offload rule was evicted under table pressure (`uid` =
        /// the displacing stream, `a` = evicted rule's priority).
        OffloadEvicted => "offload_evicted",
        /// A shard engine came up (`a` = shard index, `b` = 1 when the
        /// spawn was a cold start with no checkpoint).
        ShardSpawned => "shard_spawned",
        /// A shard's heartbeat lease passed its deadline with work
        /// pending (`a` = shard index, `b` = lease age in ns).
        ShardLeaseExpired => "shard_lease_expired",
        /// The supervisor killed a shard — crash or stall takedown
        /// (`a` = shard index, `b` = scheduled respawn backoff in ns).
        ShardKilled => "shard_killed",
        /// A killed shard was respawned from its checkpoint
        /// (`a` = shard index, `b` = blackout length in ns).
        ShardRespawned => "shard_respawned",
        /// The circuit breaker parked a shard for good
        /// (`a` = shard index, `b` = failures inside the window).
        ShardParked => "shard_parked",
        /// A respawn/restart circuit breaker tripped (`a` = slot or
        /// shard index, `b` = failures inside the window).
        BreakerTripped => "breaker_tripped",
        /// A shard's checkpoint failed CRC validation at respawn
        /// (`a` = shard index, `b` = 1 when an older checkpoint was
        /// used, 0 when the shard cold-started).
        ShardCheckpointCorrupt => "shard_checkpoint_corrupt",
        /// A stage latency cleared the pulse tail-sampling threshold and
        /// entered the exemplar ring (`uid` = stream, `a` = pulse stage
        /// index, `b` = observed delay in ns). Guarantees every exported
        /// exemplar's uid resolves in the journal it points into.
        PulseExemplar => "pulse_exemplar",
    }
}

flight_ids! {
    /// Where in the pipeline the event originated.
    FlightLayer {
        /// NIC admission: FDIR filters, RSS, RX descriptor rings.
        Nic => "nic",
        /// Kernel path: parsing, flow lookup, reassembly, timers.
        Kernel => "kernel",
        /// Stream memory: PPL admission, arena allocation, eviction.
        Memory => "memory",
        /// Kernel→user event queues.
        EventQueue => "event_queue",
        /// The overload governor.
        Governor => "governor",
        /// Flow-director filter management.
        Fdir => "fdir",
        /// Live-driver worker threads and their watchdog.
        Worker => "worker",
        /// Checkpoint / warm-restart machinery.
        Checkpoint => "checkpoint",
        /// The persistent stream archive (`scap-store`).
        Store => "store",
        /// Per-tenant demux and delivery queues (`scapd`).
        Tenant => "tenant",
        /// The programmable flow-offload stage (`scap-offload`).
        Offload => "offload",
        /// The scale-out shard supervisor (`scap-shard` + `scap::shard`).
        Shard => "shard",
    }
}

flight_ids! {
    /// Why packets/bytes were dropped or discarded. `None` for events
    /// that are not losses.
    DropReason {
        /// Not a loss event.
        None => "none",
        /// The frame would not parse.
        ParseError => "parse_error",
        /// A hardware FDIR drop filter matched (subzero copy).
        FdirFilter => "fdir_filter",
        /// The target RX descriptor ring was full.
        RingFull => "ring_full",
        /// The socket-wide BPF filter rejected the packet.
        BpfFilter => "bpf_filter",
        /// No flow key (non-IP, fragments, …).
        NoFlowKey => "no_flow_key",
        /// The flow table was at its configured cap.
        FlowTableFull => "flow_table_full",
        /// A TIME_WAIT tombstone absorbed a late packet.
        TimeWait => "time_wait",
        /// The stream's configured cutoff had been reached.
        Cutoff => "cutoff",
        /// The governor's tightened cutoff (below the configured one).
        GovernorClamp => "governor_clamp",
        /// The application called `scap_discard_stream`.
        AppDiscard => "app_discard",
        /// Transport said TCP but the header would not parse.
        NoTcpHeader => "no_tcp_header",
        /// Prioritized Packet Loss refused the packet under pressure.
        Ppl => "ppl",
        /// The stream arena was exhausted.
        ArenaOom => "arena_oom",
        /// The payload was a pure duplicate of captured data.
        Duplicate => "duplicate",
        /// The per-core event queue was at capacity.
        EventQueueFull => "event_queue_full",
        /// The governor evicted the stream's pending chunks.
        PriorityEvict => "priority_evict",
        /// Defensive internal path (state vanished mid-flight).
        Internal => "internal",
        /// A tenant's bounded delivery queue was full (slow consumer).
        SlowConsumer => "slow_consumer",
        /// Delivery trimmed/suppressed by a tenant quota (degraded
        /// cutoff or disconnected tenant).
        TenantQuota => "tenant_quota",
        /// An offload `Drop` rule matched (subzero copy at the NIC).
        OffloadDrop => "offload_drop",
        /// An offload `Sample(1-in-N)` rule dropped a non-kept packet.
        OffloadSample => "offload_sample",
        /// The owning shard was down (killed, stalled, respawning, or
        /// parked); its partition's frames had nowhere to go.
        ShardDown => "shard_down",
    }
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// One fixed-size flight-recorder event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Capture-wide sequence number (assigned by the recorder; total
    /// order over all cores).
    pub seq: u64,
    /// Caller's clock: virtual/trace nanoseconds under simulation.
    pub ts_ns: u64,
    /// Stream uid the event concerns (0 = not stream-scoped).
    pub uid: u64,
    /// First payload word (kind-dependent; packets for losses).
    pub a: u64,
    /// Second payload word (kind-dependent; bytes for losses).
    pub b: u64,
    /// What happened.
    pub kind: FlightKind,
    /// Where it happened.
    pub layer: FlightLayer,
    /// Why (losses only; `DropReason::None` otherwise).
    pub reason: DropReason,
    /// Core / ring the event was recorded on.
    pub core: u8,
}

/// Encoded size of one event body (excluding the record frame).
pub const EVENT_LEN: usize = 44;

impl FlightEvent {
    /// A new event; `seq` and `core` are filled in by the recorder.
    pub fn new(kind: FlightKind, layer: FlightLayer, ts_ns: u64) -> Self {
        FlightEvent {
            seq: 0,
            ts_ns,
            uid: 0,
            a: 0,
            b: 0,
            kind,
            layer,
            reason: DropReason::None,
            core: 0,
        }
    }

    /// Attach a drop/discard reason.
    pub fn with_reason(mut self, reason: DropReason) -> Self {
        self.reason = reason;
        self
    }

    /// Attach the stream uid the event concerns.
    pub fn with_uid(mut self, uid: u64) -> Self {
        self.uid = uid;
        self
    }

    /// Attach the two kind-dependent payload words (packets/bytes for
    /// losses, from/to for governor changes, …).
    pub fn with_vals(mut self, a: u64, b: u64) -> Self {
        self.a = a;
        self.b = b;
        self
    }

    /// Encode into the fixed [`EVENT_LEN`]-byte wire form.
    pub fn encode(&self) -> [u8; EVENT_LEN] {
        let mut out = [0u8; EVENT_LEN];
        out[0..8].copy_from_slice(&self.seq.to_le_bytes());
        out[8..16].copy_from_slice(&self.ts_ns.to_le_bytes());
        out[16..24].copy_from_slice(&self.uid.to_le_bytes());
        out[24..32].copy_from_slice(&self.a.to_le_bytes());
        out[32..40].copy_from_slice(&self.b.to_le_bytes());
        out[40] = self.kind.idx();
        out[41] = self.layer.idx();
        out[42] = self.reason.idx();
        out[43] = self.core;
        out
    }

    /// Decode the fixed wire form, rejecting unknown identities.
    pub fn decode(body: &[u8]) -> Result<Self, FlightError> {
        if body.len() != EVENT_LEN {
            return Err(FlightError::Corrupt(format!(
                "event body is {} bytes, expected {EVENT_LEN}",
                body.len()
            )));
        }
        let u64_at = |o: usize| u64::from_le_bytes(body[o..o + 8].try_into().unwrap());
        let kind = FlightKind::from_idx(body[40])
            .ok_or_else(|| FlightError::Corrupt(format!("unknown event kind {}", body[40])))?;
        let layer = FlightLayer::from_idx(body[41])
            .ok_or_else(|| FlightError::Corrupt(format!("unknown layer {}", body[41])))?;
        let reason = DropReason::from_idx(body[42])
            .ok_or_else(|| FlightError::Corrupt(format!("unknown reason {}", body[42])))?;
        Ok(FlightEvent {
            seq: u64_at(0),
            ts_ns: u64_at(8),
            uid: u64_at(16),
            a: u64_at(24),
            b: u64_at(32),
            kind,
            layer,
            reason,
            core: body[43],
        })
    }

    /// One-line human rendering (used by `scapcat --trace` and the
    /// `scapstore` black-box decoder).
    pub fn format(&self) -> String {
        let mut s = format!(
            "#{:<6} {:>12} ns  core {}  [{}] {}",
            self.seq,
            self.ts_ns,
            self.core,
            self.layer.name(),
            self.kind.name(),
        );
        if self.reason != DropReason::None {
            s.push_str(&format!(" reason={}", self.reason.name()));
        }
        if self.uid != 0 {
            s.push_str(&format!(" uid={}", self.uid));
        }
        match self.kind {
            FlightKind::Drop | FlightKind::Discard => {
                s.push_str(&format!(" pkts={} bytes={}", self.a, self.b));
            }
            FlightKind::GovernorChange => {
                s.push_str(&format!(" level {} -> {}", self.a, self.b));
            }
            FlightKind::CheckpointWritten => {
                s.push_str(&format!(" seq={} bytes={}", self.a, self.b));
            }
            FlightKind::Restarted => {
                s.push_str(&format!(" restarts={} resumed={}", self.a, self.b));
            }
            FlightKind::StreamTerminated => {
                s.push_str(&format!(" total_bytes={} total_pkts={}", self.a, self.b));
            }
            FlightKind::PulseExemplar => {
                s.push_str(&format!(" stage={} delay_ns={}", self.a, self.b));
            }
            _ if self.a != 0 || self.b != 0 => {
                s.push_str(&format!(" a={} b={}", self.a, self.b));
            }
            _ => {}
        }
        s
    }
}

// ---------------------------------------------------------------------------
// Per-core rings and the recorder
// ---------------------------------------------------------------------------

/// Default per-core ring capacity (events) when none is configured.
pub const DEFAULT_RING_CAP: usize = 8192;

struct Ring {
    slots: Vec<FlightEvent>,
    cap: usize,
    /// The slot the next entry goes into (`recorded % cap`).
    head: usize,
    recorded: u64,
    dropped: u64,
}

impl Ring {
    fn new(cap: usize) -> Self {
        Ring {
            slots: Vec::with_capacity(cap),
            cap,
            head: 0,
            recorded: 0,
            dropped: 0,
        }
    }

    #[inline]
    fn push(&mut self, ev: FlightEvent) {
        if self.slots.len() < self.cap {
            self.slots.push(ev);
        } else {
            // Wrap-around: the oldest event is overwritten, and counted.
            self.slots[self.head] = ev;
            self.dropped += 1;
        }
        self.head = if self.head + 1 == self.cap {
            0
        } else {
            self.head + 1
        };
        self.recorded += 1;
    }

    /// The entry pushed last, if any.
    #[inline]
    fn newest_mut(&mut self) -> Option<&mut FlightEvent> {
        let i = match self.head {
            0 => self.slots.len().checked_sub(1)?,
            h => h - 1,
        };
        self.slots.get_mut(i)
    }

    /// Surviving events, oldest first.
    fn events(&self) -> Vec<FlightEvent> {
        if self.slots.len() < self.cap {
            return self.slots.clone();
        }
        let mut out = Vec::with_capacity(self.cap);
        out.extend_from_slice(&self.slots[self.head..]);
        out.extend_from_slice(&self.slots[..self.head]);
        out
    }
}

/// The per-core ring-buffered event journal.
///
/// Single writer per core (the thread driving that core's kernel state),
/// which is what makes the unsynchronized cursor safe; readers take the
/// whole recorder (`&self`) between packets, exactly like telemetry
/// snapshots.
pub struct FlightRecorder {
    rings: Vec<Ring>,
    seq: u64,
    cap: usize,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("cores", &self.rings.len())
            .field("cap", &self.cap)
            .field("recorded", &self.total_recorded())
            .field("dropped", &self.total_dropped())
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder with `ncores` rings of `cap` preallocated slots each.
    pub fn new(ncores: usize, cap: usize) -> Self {
        let cap = cap.max(1);
        FlightRecorder {
            rings: (0..ncores.max(1)).map(|_| Ring::new(cap)).collect(),
            seq: 0,
            cap,
        }
    }

    /// Ring capacity per core.
    pub fn ring_cap(&self) -> usize {
        self.cap
    }

    /// Number of per-core rings.
    pub fn ncores(&self) -> usize {
        self.rings.len()
    }

    /// Record one event on `core`'s ring. Assigns the capture-wide
    /// sequence number and stamps the core; cores beyond the ring count
    /// collapse into the last ring.
    ///
    /// A loss ([`FlightKind::Drop`] / [`FlightKind::Discard`]) that
    /// repeats the newest entry of the whole journal — same core, kind,
    /// layer, reason, uid and timestamp — is folded into it: its packets
    /// and bytes are added to that entry's `a`/`b`, and no entry, sequence
    /// number or overwrite is spent on it. An entry is therefore a run of
    /// identical losses, and the journal's loss sums stay exact.
    #[inline]
    pub fn emit(&mut self, core: usize, mut ev: FlightEvent) {
        let c = core.min(self.rings.len() - 1);
        ev.core = c as u8;
        if matches!(ev.kind, FlightKind::Drop | FlightKind::Discard) {
            if let Some(last) = self.rings[c].newest_mut() {
                let (seq, a, b) = (last.seq, last.a, last.b);
                if seq + 1 == self.seq && *last == (FlightEvent { seq, a, b, ..ev }) {
                    last.a += ev.a;
                    last.b += ev.b;
                    return;
                }
            }
        }
        ev.seq = self.seq;
        self.seq += 1;
        self.rings[c].push(ev);
    }

    /// Journal entries ever recorded on one core (survivors +
    /// overwritten; a folded run of losses is one entry).
    pub fn recorded(&self, core: usize) -> u64 {
        self.rings.get(core).map_or(0, |r| r.recorded)
    }

    /// Events overwritten by wrap-around on one core — the
    /// `FlightDropped` meta-counter. Tracing never silently loses its
    /// own loss: what the ring forgot is still counted here.
    pub fn dropped(&self, core: usize) -> u64 {
        self.rings.get(core).map_or(0, |r| r.dropped)
    }

    /// Total journal entries ever recorded across all cores.
    pub fn total_recorded(&self) -> u64 {
        self.rings.iter().map(|r| r.recorded).sum()
    }

    /// Total events overwritten across all cores.
    pub fn total_dropped(&self) -> u64 {
        self.rings.iter().map(|r| r.dropped).sum()
    }

    /// All surviving events merged across cores, in capture order
    /// (ascending sequence number).
    pub fn events(&self) -> Vec<FlightEvent> {
        let mut all: Vec<FlightEvent> = self.rings.iter().flat_map(|r| r.events()).collect();
        all.sort_unstable_by_key(|e| e.seq);
        all
    }

    /// Encode the full journal (header, meta record, one record per
    /// surviving event in capture order).
    pub fn encode(&self) -> Vec<u8> {
        self.encode_events(&self.events())
    }

    /// Encode a *black box*: the last `n` surviving events in capture
    /// order. This is what the live driver dumps next to the checkpoint
    /// file when the process dies.
    pub fn encode_tail(&self, n: usize) -> Vec<u8> {
        let all = self.events();
        let start = all.len().saturating_sub(n);
        self.encode_events(&all[start..])
    }

    fn encode_events(&self, events: &[FlightEvent]) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            FILE_HEADER_LEN + 64 + events.len() * (REC_HEADER_LEN + 1 + EVENT_LEN),
        );
        out.extend_from_slice(&file_header(FLIGHT_MAGIC, self.rings.len() as u64));
        frame_record_into(&mut out, |meta| {
            meta.push(TAG_META);
            meta.extend_from_slice(&(self.cap as u64).to_le_bytes());
            for r in &self.rings {
                meta.extend_from_slice(&r.recorded.to_le_bytes());
                meta.extend_from_slice(&r.dropped.to_le_bytes());
            }
        });
        for ev in events {
            frame_record_into(&mut out, |body| {
                body.push(TAG_EVENT);
                body.extend_from_slice(&ev.encode());
            });
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Journal file format (shares the checkpoint framing discipline)
// ---------------------------------------------------------------------------

/// Journal file magic: `SFLT` little-endian (the header's file id is
/// the ring count).
pub const FLIGHT_MAGIC: u32 = 0x544C_4653;

const TAG_META: u8 = 0;
const TAG_EVENT: u8 = 1;

/// Errors from the journal codec.
#[derive(Debug)]
pub enum FlightError {
    /// Structural or identity corruption.
    Corrupt(String),
    /// File I/O failed.
    Io(std::io::Error),
}

impl std::fmt::Display for FlightError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlightError::Corrupt(m) => write!(f, "corrupt flight journal: {m}"),
            FlightError::Io(e) => write!(f, "flight journal i/o: {e}"),
        }
    }
}

impl std::error::Error for FlightError {}

impl From<std::io::Error> for FlightError {
    fn from(e: std::io::Error) -> Self {
        FlightError::Io(e)
    }
}

/// A decoded flight journal (full journal or black-box dump).
#[derive(Debug, Clone)]
pub struct Journal {
    /// Number of per-core rings in the recorder that wrote the file.
    pub ncores: usize,
    /// Ring capacity per core.
    pub ring_cap: u64,
    /// Entries ever recorded, per core (survivors + overwritten; a
    /// folded run of losses is one entry).
    pub recorded: Vec<u64>,
    /// Events overwritten by wrap-around, per core.
    pub dropped: Vec<u64>,
    /// The events the file carries, in capture order.
    pub events: Vec<FlightEvent>,
    /// Bytes past the last valid record (a torn tail from a crash).
    pub torn_bytes: usize,
}

impl Journal {
    /// Total events overwritten across cores.
    pub fn total_dropped(&self) -> u64 {
        self.dropped.iter().sum()
    }

    /// Total events ever recorded across cores.
    pub fn total_recorded(&self) -> u64 {
        self.recorded.iter().sum()
    }

    /// Events scoped to one stream uid, in capture order.
    pub fn for_uid(&self, uid: u64) -> Vec<FlightEvent> {
        self.events
            .iter()
            .filter(|e| e.uid == uid)
            .copied()
            .collect()
    }
}

/// Decode a journal or black-box file. Torn tails (a crash mid-append)
/// are tolerated and reported via [`Journal::torn_bytes`]; corruption
/// *inside* the valid prefix (bad magic/version, bad identity bytes in a
/// CRC-clean record) is an error.
pub fn decode_journal(data: &[u8]) -> Result<Journal, FlightError> {
    let scan = framing::scan_records(data, FLIGHT_MAGIC).map_err(FlightError::Corrupt)?;
    let ncores = scan.file_id as usize;
    let torn_bytes = scan.torn_bytes;
    let bodies: Vec<&[u8]> = scan.records.iter().map(|r| &data[r.body.clone()]).collect();

    let Some((meta, event_bodies)) = bodies.split_first() else {
        return Err(FlightError::Corrupt("journal has no meta record".into()));
    };
    if meta.first() != Some(&TAG_META) {
        return Err(FlightError::Corrupt(
            "first record is not the meta record".into(),
        ));
    }
    let want = ncores
        .checked_mul(16)
        .and_then(|v| v.checked_add(1 + 8))
        .ok_or_else(|| FlightError::Corrupt(format!("implausible ring count {ncores}")))?;
    if meta.len() != want {
        return Err(FlightError::Corrupt(format!(
            "meta record is {} bytes, expected {want}",
            meta.len()
        )));
    }
    let ring_cap = u64::from_le_bytes(meta[1..9].try_into().unwrap());
    let mut recorded = Vec::with_capacity(ncores);
    let mut dropped = Vec::with_capacity(ncores);
    for c in 0..ncores {
        let o = 9 + c * 16;
        recorded.push(u64::from_le_bytes(meta[o..o + 8].try_into().unwrap()));
        dropped.push(u64::from_le_bytes(meta[o + 8..o + 16].try_into().unwrap()));
    }
    let mut events = Vec::with_capacity(event_bodies.len());
    for body in event_bodies {
        if body.first() != Some(&TAG_EVENT) {
            return Err(FlightError::Corrupt(format!(
                "unknown record tag {:?}",
                body.first()
            )));
        }
        events.push(FlightEvent::decode(&body[1..])?);
    }
    Ok(Journal {
        ncores,
        ring_cap,
        recorded,
        dropped,
        events,
        torn_bytes,
    })
}

/// Read and decode a journal file from disk.
pub fn read_journal(path: &std::path::Path) -> Result<Journal, FlightError> {
    decode_journal(&std::fs::read(path)?)
}

// ---------------------------------------------------------------------------
// Drop attribution
// ---------------------------------------------------------------------------

/// One row of the drop-attribution report: losses aggregated by
/// (kind, layer, reason).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttributionRow {
    /// [`FlightKind::Drop`] or [`FlightKind::Discard`].
    pub kind: FlightKind,
    /// Pipeline layer the loss happened in.
    pub layer: FlightLayer,
    /// Why.
    pub reason: DropReason,
    /// Number of journal entries aggregated into this row (a folded run
    /// of identical losses is one entry).
    pub events: u64,
    /// Packets lost (sum of `a`).
    pub pkts: u64,
    /// Bytes lost (sum of `b`).
    pub bytes: u64,
}

/// Aggregate loss events by (kind, layer, reason), in stable identity
/// order. Non-loss events are ignored.
pub fn attribution(events: &[FlightEvent]) -> Vec<AttributionRow> {
    let mut agg: BTreeMap<(u8, u8, u8), (u64, u64, u64)> = BTreeMap::new();
    for e in events {
        if !matches!(e.kind, FlightKind::Drop | FlightKind::Discard) {
            continue;
        }
        let slot = agg
            .entry((e.kind.idx(), e.layer.idx(), e.reason.idx()))
            .or_insert((0, 0, 0));
        slot.0 += 1;
        slot.1 += e.a;
        slot.2 += e.b;
    }
    agg.into_iter()
        .map(|((k, l, r), (events, pkts, bytes))| AttributionRow {
            kind: FlightKind::from_idx(k).unwrap(),
            layer: FlightLayer::from_idx(l).unwrap(),
            reason: DropReason::from_idx(r).unwrap(),
            events,
            pkts,
            bytes,
        })
        .collect()
}

/// The top `n` loss reasons by packets, rendered as a one-line summary,
/// from rows aggregated by [`attribution`] (or read back from an
/// exposition's `scap_loss_*` families).
pub fn top_reasons_line(mut rows: Vec<AttributionRow>, n: usize) -> String {
    rows.sort_by_key(|r| std::cmp::Reverse((r.pkts, r.bytes)));
    if rows.is_empty() {
        return "drops: none".to_string();
    }
    let parts: Vec<String> = rows
        .iter()
        .take(n)
        .map(|r| {
            format!(
                "{}/{} {} pkts ({} B)",
                r.layer.name(),
                r.reason.name(),
                r.pkts,
                r.bytes
            )
        })
        .collect();
    format!("top drop reasons: {}", parts.join(" | "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ev(kind: FlightKind, ts: u64) -> FlightEvent {
        FlightEvent::new(kind, FlightLayer::Kernel, ts)
    }

    #[test]
    fn identity_names_round_trip() {
        for k in FlightKind::ALL {
            assert_eq!(FlightKind::from_name(k.name()), Some(k));
            assert_eq!(FlightKind::from_idx(k.idx()), Some(k));
        }
        for l in FlightLayer::ALL {
            assert_eq!(FlightLayer::from_name(l.name()), Some(l));
        }
        for r in DropReason::ALL {
            assert_eq!(DropReason::from_name(r.name()), Some(r));
        }
        assert_eq!(FlightKind::from_idx(FlightKind::COUNT as u8), None);
    }

    #[test]
    fn ring_wraps_and_counts_overwrites() {
        let mut rec = FlightRecorder::new(1, 4);
        for i in 0..10 {
            rec.emit(0, ev(FlightKind::Drop, i));
        }
        assert_eq!(rec.recorded(0), 10);
        assert_eq!(rec.dropped(0), 6);
        let events = rec.events();
        assert_eq!(events.len(), 4);
        // Oldest survivor first, newest last.
        assert_eq!(events[0].seq, 6);
        assert_eq!(events[3].seq, 9);
    }

    #[test]
    fn journal_round_trips() {
        let mut rec = FlightRecorder::new(2, 16);
        rec.emit(0, ev(FlightKind::StreamCreated, 1).with_uid(7));
        rec.emit(
            1,
            ev(FlightKind::Drop, 2)
                .with_reason(DropReason::ArenaOom)
                .with_uid(7)
                .with_vals(1, 1500),
        );
        rec.emit(0, ev(FlightKind::GovernorChange, 3).with_vals(0, 2));
        let bytes = rec.encode();
        let j = decode_journal(&bytes).unwrap();
        assert_eq!(j.ncores, 2);
        assert_eq!(j.ring_cap, 16);
        assert_eq!(j.torn_bytes, 0);
        assert_eq!(j.events.len(), 3);
        assert_eq!(j.events[1].reason, DropReason::ArenaOom);
        assert_eq!(j.for_uid(7).len(), 2);
        assert_eq!(j.total_recorded(), 3);
        assert_eq!(j.total_dropped(), 0);
    }

    #[test]
    fn tail_dump_keeps_only_the_newest_events() {
        let mut rec = FlightRecorder::new(1, 64);
        for i in 0..20 {
            rec.emit(0, ev(FlightKind::Discard, i));
        }
        let j = decode_journal(&rec.encode_tail(5)).unwrap();
        assert_eq!(j.events.len(), 5);
        assert_eq!(j.events[0].seq, 15);
        assert_eq!(j.events[4].seq, 19);
        // The meta counters still describe the whole run.
        assert_eq!(j.total_recorded(), 20);
    }

    #[test]
    fn torn_tail_is_tolerated_and_reported() {
        let mut rec = FlightRecorder::new(1, 8);
        rec.emit(0, ev(FlightKind::Drop, 1));
        rec.emit(0, ev(FlightKind::Drop, 2));
        let mut bytes = rec.encode();
        let j0 = decode_journal(&bytes).unwrap();
        bytes.truncate(bytes.len() - 7); // crash mid-append
        let j = decode_journal(&bytes).unwrap();
        assert_eq!(j.events.len(), j0.events.len() - 1);
        assert!(j.torn_bytes > 0);
    }

    #[test]
    fn bit_flips_are_rejected_or_truncate() {
        let mut rec = FlightRecorder::new(1, 8);
        rec.emit(
            0,
            ev(FlightKind::Drop, 9)
                .with_reason(DropReason::Ppl)
                .with_vals(1, 64),
        );
        let clean = rec.encode();
        let j0 = decode_journal(&clean).unwrap();
        for pos in 0..clean.len() {
            for bit in [0x01u8, 0x80] {
                let mut bad = clean.clone();
                bad[pos] ^= bit;
                match decode_journal(&bad) {
                    // Header/meta corruption must fail loudly.
                    Err(_) => {}
                    // Frame corruption truncates to the valid prefix…
                    Ok(j) => {
                        assert!(
                            j.events.len() < j0.events.len() || j.torn_bytes > 0,
                            "flip at {pos} bit {bit:#x} went unnoticed"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn attribution_aggregates_losses() {
        let mut rec = FlightRecorder::new(2, 64);
        let ppl = || {
            ev(FlightKind::Drop, 0)
                .with_reason(DropReason::Ppl)
                .with_vals(1, 100)
        };
        // Three identical losses in a row are one entry…
        for _ in 0..3 {
            rec.emit(0, ppl());
        }
        // … a non-loss event ends a run, and so does another core's loss.
        rec.emit(0, ev(FlightKind::StreamCreated, 0)); // ignored
        rec.emit(0, ppl());
        rec.emit(1, ppl());
        rec.emit(0, ppl());
        rec.emit(
            0,
            ev(FlightKind::Discard, 0)
                .with_reason(DropReason::Cutoff)
                .with_vals(2, 50),
        );
        assert_eq!(rec.total_recorded(), 6);
        let rows = attribution(&rec.events());
        assert_eq!(rows.len(), 2);
        // A row counts journal entries; packets and bytes are exact.
        let ppl = rows.iter().find(|r| r.reason == DropReason::Ppl).unwrap();
        assert_eq!((ppl.events, ppl.pkts, ppl.bytes), (4, 6, 600));
        let line = top_reasons_line(attribution(&rec.events()), 3);
        assert!(line.contains("ppl"), "{line}");
    }

    /// One generated event: `(kind, layer)` selectors, `(core, uid,
    /// ts_ns, reason)` from tiny domains so that runs happen, and the
    /// payload words.
    type Op = ((u8, u8), (usize, u64, u64, u8), (u64, u64));

    fn op_event(((kind, layer), (_, uid, ts, reason), (a, b)): Op) -> FlightEvent {
        let kind = [
            FlightKind::Drop,
            FlightKind::Discard,
            FlightKind::StreamCreated,
            FlightKind::CutoffHit,
        ][kind as usize];
        let layer = [FlightLayer::Kernel, FlightLayer::Nic][layer as usize];
        let reason = [DropReason::Cutoff, DropReason::Ppl][reason as usize];
        FlightEvent::new(kind, layer, ts)
            .with_uid(uid)
            .with_reason(reason)
            .with_vals(a, b)
    }

    /// What the entries of one run have in common.
    fn run_id(e: &FlightEvent) -> (u8, FlightKind, FlightLayer, DropReason, u64, u64) {
        (e.core, e.kind, e.layer, e.reason, e.uid, e.ts_ns)
    }

    proptest! {
        /// Folding is run-length merging: against a plain model that
        /// merges each run of identical losses of the unfolded sequence
        /// into one entry and then keeps each core's newest `cap`
        /// entries, the recorder keeps the same entries field by field
        /// (sequence numbers included), counts the same recorded and
        /// overwritten entries per core, and its attribution sums equal
        /// the unfolded sums.
        #[test]
        fn folding_is_run_length_merging(
            ncores in 1usize..4,
            cap in 1usize..9,
            ops in proptest::collection::vec(
                (
                    (0u8..4, 0u8..2),
                    (0usize..3, 0u64..2, 0u64..2, 0u8..2),
                    (0u64..3, 0u64..1500),
                ),
                0..80,
            ),
        ) {
            let mut rec = FlightRecorder::new(ncores, cap);
            let mut roomy = FlightRecorder::new(ncores, ops.len().max(1));
            let mut runs: Vec<FlightEvent> = Vec::new();
            for &op in &ops {
                let core = (op.1).0;
                rec.emit(core, op_event(op));
                roomy.emit(core, op_event(op));
                let mut ev = op_event(op);
                ev.core = core.min(ncores - 1) as u8;
                let loss = matches!(ev.kind, FlightKind::Drop | FlightKind::Discard);
                match runs.last_mut() {
                    Some(last) if loss && run_id(last) == run_id(&ev) => {
                        last.a += ev.a;
                        last.b += ev.b;
                    }
                    _ => {
                        ev.seq = runs.len() as u64;
                        runs.push(ev);
                    }
                }
            }
            let mut survivors = Vec::new();
            for c in 0..ncores {
                let entries: Vec<FlightEvent> =
                    runs.iter().filter(|e| e.core as usize == c).copied().collect();
                let lost = entries.len().saturating_sub(cap);
                prop_assert_eq!(rec.recorded(c), entries.len() as u64);
                prop_assert_eq!(rec.dropped(c), lost as u64);
                survivors.extend_from_slice(&entries[lost..]);
            }
            survivors.sort_by_key(|e| e.seq);
            prop_assert_eq!(rec.events(), survivors);

            // Nothing overwritten: the journal's losses are the unfolded
            // losses, and a row counts the runs.
            prop_assert_eq!(roomy.events(), runs.clone());
            let unfolded: Vec<FlightEvent> = ops.iter().map(|&op| op_event(op)).collect();
            let rows = attribution(&roomy.events());
            let lost = |e: &&FlightEvent| matches!(e.kind, FlightKind::Drop | FlightKind::Discard);
            prop_assert_eq!(
                rows.iter().map(|r| r.pkts).sum::<u64>(),
                unfolded.iter().filter(lost).map(|e| e.a).sum::<u64>()
            );
            for row in rows {
                let key = |e: &FlightEvent| {
                    (e.kind, e.layer, e.reason) == (row.kind, row.layer, row.reason)
                };
                let (pkts, bytes) = unfolded
                    .iter()
                    .filter(|e| key(e))
                    .fold((0, 0), |(p, b), e| (p + e.a, b + e.b));
                prop_assert_eq!((row.pkts, row.bytes), (pkts, bytes));
                prop_assert_eq!(row.events, runs.iter().filter(|e| key(e)).count() as u64);
            }
        }
    }
}
