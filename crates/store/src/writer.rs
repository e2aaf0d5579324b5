//! The archive writer: buffers each stream's reassembled bytes as the
//! dispatch path delivers them, seals the stream into checksummed
//! segment frames + an index record at termination, rotates segments at
//! a size threshold, and enforces a disk budget with priority-aware
//! retention (PPL on disk).
//!
//! It is a pipeline of two threads. The caller's thread makes every
//! decision and keeps every answer — buffered lengths, segment rotation
//! and extents, index records, retention tombstones, fault verdicts,
//! stats, telemetry, flight events and the pulse model — so each call
//! returns what it would if the bytes were written inline. The bytes go
//! to a writer thread of the writer's own, spawned by
//! [`StoreWriter::open`]: the caller copies each chunk once into a
//! `Batch`, and the thread places it in the stream's buffer, then per
//! seal computes the frame CRCs and writes the frames, flushed, before
//! the index record. Batches queue by the byte (`MAX_IN_FLIGHT_BYTES`)
//! and come back empty for reuse.

use crate::format::{
    encode_stream_body, encode_tombstone_body, file_header, frame_header, frame_record,
    parse_segment_file_name, read_extent, scan_index, scan_segment, segment_path, Extent,
    IndexEntry, IndexRecord, FILE_HEADER_LEN, FRAME_HEADER_LEN, IDX_MAGIC, INDEX_FILE, SEG_MAGIC,
};
use crate::StoreError;
use scap::{Event, EventKind, EventSink, StreamSnapshot, StreamUid};
use scap_faults::{FaultPlan, StoreFault, StoreInjector};
use scap_flight::{FlightEvent, FlightKind, FlightLayer, FlightRecorder};
use scap_telemetry::pulse::cost;
use scap_telemetry::{
    cycles_to_ns, Metric, PlainRegistry, Pulse, PulseSnapshot, PulseStage, Snapshot, SpanTimer,
    Stage,
};
use scap_wire::Direction;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Bytes a batch holds — chunk and index bytes plus its ops — before it
/// is queued for the writer thread.
const BATCH_BYTES: usize = 64 << 10;
/// The most batch bytes between the caller and the files: the batch
/// being filled, the queued ones and the one being written. A full
/// queue blocks the caller.
const MAX_IN_FLIGHT_BYTES: usize = 640 << 10;
/// Batches the queue holds.
const QUEUE_DEPTH: usize = MAX_IN_FLIGHT_BYTES / BATCH_BYTES - 2;
/// What an op costs a batch.
const OP_BYTES: usize = std::mem::size_of::<Op>();
/// Compaction writes the replacement index here, then renames it.
const INDEX_TMP: &str = "index.scapidx.tmp";

/// Archive configuration.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Archive directory (created if missing).
    pub dir: PathBuf,
    /// Segment rotation threshold in file bytes.
    pub segment_bytes: u64,
    /// Disk budget over archived payload bytes; `None` = unlimited.
    /// When exceeded, retention tombstones the lowest-priority /
    /// most-truncated / oldest streams first.
    pub disk_budget: Option<u64>,
}

impl StoreConfig {
    /// Defaults: 64 MiB segments, no budget.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StoreConfig {
            dir: dir.into(),
            segment_bytes: 64 << 20,
            disk_budget: None,
        }
    }

    /// Set the segment rotation threshold.
    pub fn segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes.max((FILE_HEADER_LEN + FRAME_HEADER_LEN) as u64);
        self
    }

    /// Set the payload-byte disk budget.
    pub fn disk_budget(mut self, bytes: u64) -> Self {
        self.disk_budget = Some(bytes);
        self
    }

    /// Derive a tenant-scoped config: archive under `<dir>/<tenant>`
    /// with `share` permille of this config's disk budget (an unlimited
    /// budget stays unlimited — shares only divide a finite pool). This
    /// is how a multi-tenant daemon turns one archive budget into
    /// isolated per-tenant retention: each tenant's writer prunes only
    /// its own streams, so one tenant filling its share never evicts
    /// another tenant's data.
    pub fn tenant_share(&self, tenant: &str, share: u32) -> Self {
        StoreConfig {
            dir: self.dir.join(tenant),
            segment_bytes: self.segment_bytes,
            disk_budget: self
                .disk_budget
                .map(|b| b * u64::from(share.min(1000)) / 1000),
        }
    }
}

/// Per-priority retention accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PriorityStats {
    /// Streams sealed at this priority.
    pub archived: u64,
    /// Streams pruned from this priority by retention.
    pub pruned: u64,
    /// Payload bytes currently live at this priority.
    pub live_bytes: u64,
}

/// Writer-side archive statistics (all monotonic except `live` fields).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Streams sealed into the archive.
    pub streams_archived: u64,
    /// Payload bytes appended to segments.
    pub bytes_archived: u64,
    /// Segment files created (initial + rotations + compaction).
    pub segments_created: u64,
    /// Streams tombstoned by the disk-budget retention policy.
    pub streams_pruned: u64,
    /// Payload bytes those tombstoned streams held.
    pub bytes_pruned: u64,
    /// Segment-file bytes reclaimed by compaction.
    pub bytes_reclaimed: u64,
    /// Torn-tail bytes truncated during open-time recovery.
    pub torn_tail_bytes_recovered: u64,
    /// Seal attempts that failed (injected faults, writes after the
    /// writer died) plus the writer thread's I/O error, once.
    pub write_errors: u64,
    /// Breakdown by stream priority.
    pub by_priority: BTreeMap<u8, PriorityStats>,
}

impl StoreStats {
    /// Fraction of archived streams at `priority` that retention later
    /// discarded (0.0 when nothing was archived there).
    pub fn discard_ratio(&self, priority: u8) -> f64 {
        match self.by_priority.get(&priority) {
            Some(p) if p.archived > 0 => p.pruned as f64 / p.archived as f64,
            _ => 0.0,
        }
    }
}

/// The archive writer. Single-owner; its bytes reach disk on a thread
/// of its own (module docs), and [`StoreWriter::finish`], `compact` and
/// drop wait for them. Wrap it in [`SharedStoreWriter`] to attach it to
/// the threaded live driver.
pub struct StoreWriter {
    cfg: StoreConfig,
    /// The open segment's id; `None` until the next frame opens one.
    seg: Option<u64>,
    seg_len: u64,
    next_seg_id: u64,
    /// Bytes buffered so far per in-flight stream and direction (the
    /// bytes themselves wait on the writer thread).
    pending: HashMap<StreamUid, [u64; 2]>,
    records: BTreeMap<StreamUid, IndexRecord>,
    live_bytes: u64,
    tombstones: u64,
    injector: Option<StoreInjector>,
    dead: bool,
    stats: StoreStats,
    tele: PlainRegistry,
    /// Last stream timestamp seen at seal time; stamps segment-rotation
    /// flight events, which have no snapshot of their own.
    last_ts_ns: u64,
    flight: FlightRecorder,
    /// Store-seal latency recorder (the `StoreSeal` pulse stage): the
    /// deterministic append+commit cost model over sealed bytes.
    pulse: Pulse,
    pipe: Pipe,
}

impl StoreWriter {
    /// Open (or create) the archive at `cfg.dir`, running torn-tail
    /// recovery: both the sidecar index and every segment file are
    /// scanned back to their last valid entry and truncated there, so a
    /// crashed predecessor costs at most its uncommitted tail. Then
    /// start the writer thread.
    pub fn open(cfg: StoreConfig) -> Result<StoreWriter, StoreError> {
        Self::open_paced(cfg, None)
    }

    /// [`StoreWriter::open`], with a rendezvous the writer thread makes
    /// on `pace` before each batch (tests hold it at a batch boundary).
    pub(crate) fn open_paced(
        cfg: StoreConfig,
        pace: Option<SyncSender<()>>,
    ) -> Result<StoreWriter, StoreError> {
        std::fs::create_dir_all(&cfg.dir)?;
        let tele = PlainRegistry::new(1);
        let mut stats = StoreStats::default();

        // Recover the index: truncate a torn tail, then replay entries
        // (tombstones remove their stream) into the in-memory map.
        let idx_path = cfg.dir.join(INDEX_FILE);
        let mut records: BTreeMap<StreamUid, IndexRecord> = BTreeMap::new();
        let mut tombstones = 0u64;
        if idx_path.exists() {
            let scan = scan_index(&idx_path)?;
            if scan.torn_bytes > 0 {
                let f = OpenOptions::new().write(true).open(&idx_path)?;
                f.set_len(scan.valid_len.max(FILE_HEADER_LEN as u64))?;
                stats.torn_tail_bytes_recovered += scan.torn_bytes;
            }
            for e in scan.entries {
                match e {
                    IndexEntry::Stream(r) => {
                        records.insert(r.uid, *r);
                    }
                    IndexEntry::Tombstone(uid) => {
                        records.remove(&uid);
                        tombstones += 1;
                    }
                }
            }
        }

        // Recover the segments: truncate each torn tail and remember
        // every valid frame so committed records can be cross-checked.
        let mut next_seg_id = 0u64;
        let mut frames: HashMap<(u64, u64), (StreamUid, u8, u64)> = HashMap::new();
        let mut names: Vec<(u64, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(&cfg.dir)? {
            let entry = entry?;
            if let Some(id) = entry.file_name().to_str().and_then(parse_segment_file_name) {
                names.push((id, entry.path()));
            }
        }
        names.sort();
        for (id, path) in names {
            let scan = scan_segment(&path)?;
            if scan.torn_bytes > 0 {
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(scan.valid_len)?;
                stats.torn_tail_bytes_recovered += scan.torn_bytes;
            }
            for fr in scan.frames {
                frames.insert((id, fr.offset), (fr.uid, fr.dir, fr.len));
            }
            next_seg_id = next_seg_id.max(id + 1);
        }
        // Belt and braces: the flush ordering means a committed record's
        // frames are always on disk, but drop any record whose extents
        // no longer resolve rather than serve corrupt data.
        records.retain(|uid, r| {
            r.extents.iter().enumerate().all(|(di, e)| {
                e.len == 0 || frames.get(&(e.segment, e.offset)) == Some(&(*uid, di as u8, e.len))
            })
        });

        tele.add(
            0,
            Metric::StoreTornBytesRecovered,
            stats.torn_tail_bytes_recovered,
        );

        // Open the index for appending (writing the header if new).
        let fresh = !idx_path.exists();
        let mut idx = BufWriter::new(
            OpenOptions::new()
                .create(true)
                .append(true)
                .open(&idx_path)?,
        );
        if fresh {
            idx.write_all(&file_header(IDX_MAGIC, 0))?;
            idx.flush()?;
        }

        let live_bytes = records.values().map(IndexRecord::stored_bytes).sum();
        for r in records.values() {
            let p = stats.by_priority.entry(r.priority).or_default();
            p.live_bytes += r.stored_bytes();
        }
        let disk = Disk {
            dir: cfg.dir.clone(),
            seg: None,
            idx,
            pending: HashMap::new(),
            pace,
        };
        Ok(StoreWriter {
            cfg,
            seg: None,
            seg_len: 0,
            next_seg_id,
            pending: HashMap::new(),
            records,
            live_bytes,
            tombstones,
            injector: None,
            dead: false,
            stats,
            tele,
            last_ts_ns: 0,
            flight: FlightRecorder::new(1, scap_flight::DEFAULT_RING_CAP),
            pulse: Pulse::default(),
            pipe: Pipe::start(disk)?,
        })
    }

    /// Arm the writer with a fault plan's archive injector (torn appends
    /// and mid-write kills).
    pub fn attach_faults(&mut self, plan: &FaultPlan) {
        self.injector = Some(plan.store_injector());
    }

    /// Archive statistics so far.
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// Payload bytes currently live (committed minus pruned).
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Streams currently committed and live in the index.
    pub fn live_streams(&self) -> usize {
        self.records.len()
    }

    /// Snapshot of the writer's telemetry registry (store counters plus
    /// the `store` seal-span histogram).
    pub fn telemetry_snapshot(&self) -> Snapshot {
        self.tele.snapshot()
    }

    /// The writer's flight recorder: archive-layer events (segments
    /// created, streams sealed) with stream provenance.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Observe a stream creation: nothing to do until its bytes arrive.
    pub fn stream_created(&mut self, _s: &StreamSnapshot) {}

    /// Observe a data delivery: `data` starts at stream `offset` in
    /// direction `dir`. Chunks arrive in order, so the common case is a
    /// plain append; an offset below the buffered length (chunk overlap)
    /// overwrites, a gap (sequence holes skipped in fast mode) is
    /// zero-filled. Here the chunk is only copied into the batch and its
    /// end noted; the writer thread places it.
    pub fn stream_data(&mut self, s: &StreamSnapshot, dir: Direction, data: &[u8], offset: u64) {
        if self.dead {
            return;
        }
        let len = &mut self.pending.entry(s.uid).or_default()[dir.index()];
        let end = offset + data.len() as u64;
        if data.is_empty() && end <= *len {
            return; // places nothing
        }
        *len = (*len).max(end);
        self.pipe.data(s.uid, dir.index() as u8, offset, data);
    }

    /// Observe a stream termination: seal its buffered bytes into
    /// segment frames and commit the index record. Payload frames are
    /// flushed *before* the record, so a crash in between leaves only
    /// orphan frames, never a record pointing at missing data. The
    /// verdict is the caller's, so an injected fault returns here; an
    /// I/O error the writer thread hit returns from the next call that
    /// returns a `Result`.
    pub fn stream_terminated(&mut self, s: &StreamSnapshot) -> Result<(), StoreError> {
        let r = self.seal(s);
        if r.is_err() {
            self.stats.write_errors += 1;
        }
        r
    }

    /// Feed one dispatch-path event (synchronous kernel drives).
    pub fn observe(&mut self, ev: &Event) -> Result<(), StoreError> {
        match &ev.kind {
            EventKind::Created => {
                self.stream_created(&ev.stream);
                Ok(())
            }
            EventKind::Data { dir, chunk, .. } => {
                self.stream_data(&ev.stream, *dir, chunk.bytes(), chunk.start_offset);
                Ok(())
            }
            EventKind::Terminated => self.stream_terminated(&ev.stream),
        }
    }

    fn seal(&mut self, s: &StreamSnapshot) -> Result<(), StoreError> {
        self.live()?;
        self.last_ts_ns = s.last_ts_ns;
        let span = SpanTimer::start();
        let lens = self.pending.remove(&s.uid).unwrap_or_default();
        let mut extents = [Extent::default(); 2];
        for (di, &len) in lens.iter().enumerate() {
            if len > 0 {
                extents[di] = self.append_frame(s.uid, di as u8, len, None)?;
            }
        }
        let rec = IndexRecord::from_snapshot(s, extents);
        self.pipe
            .index(&frame_record(&encode_stream_body(&rec)), true);

        let stored = rec.stored_bytes();
        self.live_bytes += stored;
        self.stats.streams_archived += 1;
        self.stats.bytes_archived += stored;
        let p = self.stats.by_priority.entry(rec.priority).or_default();
        p.archived += 1;
        p.live_bytes += stored;
        self.tele.inc(0, Metric::StoreStreamsArchived);
        self.flight.emit(
            0,
            FlightEvent::new(
                FlightKind::StoreStreamArchived,
                FlightLayer::Store,
                s.last_ts_ns,
            )
            .with_uid(s.uid)
            .with_vals(stored, 0),
        );
        self.records.insert(rec.uid, rec);
        self.enforce_budget();
        span.finish(&self.tele, 0, Stage::Store);
        // Pulse: seal span from the deterministic cost model (the wall
        // span above is not seed-stable; this one is).
        let seal_ns = cycles_to_ns(cost::store_seal_cycles(stored));
        if self.pulse.record_uid(
            PulseStage::StoreSeal,
            seal_ns,
            s.uid,
            self.flight.total_recorded(),
        ) {
            self.flight.emit(
                0,
                FlightEvent::new(FlightKind::PulseExemplar, FlightLayer::Store, s.last_ts_ns)
                    .with_uid(s.uid)
                    .with_vals(PulseStage::StoreSeal.idx() as u64, seal_ns),
            );
        }
        Ok(())
    }

    /// Export the writer's pulse plane (store-seal spans).
    pub fn pulse_snapshot(&self) -> PulseSnapshot {
        self.pulse.snapshot()
    }

    /// Fail when the writer is dead or its thread hit an error.
    fn live(&mut self) -> Result<(), StoreError> {
        if self.dead {
            return Err(StoreError::Dead);
        }
        self.surface()
    }

    /// Wait until everything sent so far is written and flushed, and
    /// return (and count) the writer thread's error if it hit one.
    fn barrier(&mut self) -> Result<(), StoreError> {
        self.pipe.barrier();
        self.surface().inspect_err(|_| self.stats.write_errors += 1)
    }

    /// Return the writer thread's error, if it hit one: it writes
    /// nothing after that, so the writer is dead too.
    fn surface(&mut self) -> Result<(), StoreError> {
        match self.pipe.take_error() {
            Some(e) => {
                self.dead = true;
                Err(e)
            }
            None => Ok(()),
        }
    }

    fn open_segment(&mut self) -> u64 {
        let id = self.next_seg_id;
        self.next_seg_id += 1;
        self.pipe.push(Op::Segment(id));
        self.seg = Some(id);
        self.seg_len = FILE_HEADER_LEN as u64;
        self.stats.segments_created += 1;
        self.tele.inc(0, Metric::StoreSegmentsCreated);
        self.flight.emit(
            0,
            FlightEvent::new(
                FlightKind::StoreSegmentCreated,
                FlightLayer::Store,
                self.last_ts_ns,
            )
            .with_vals(id, 0),
        );
        id
    }

    /// Place the next frame — `len` payload bytes of `uid`'s direction
    /// `dir`, buffered or (compaction) copied from the frame at `from` —
    /// rotating the segment first if it is full, and ask the injector
    /// for its fate.
    fn append_frame(
        &mut self,
        uid: StreamUid,
        dir: u8,
        len: u64,
        from: Option<Extent>,
    ) -> Result<Extent, StoreError> {
        if self.seg_len >= self.cfg.segment_bytes {
            self.seg = None;
        }
        let segment = match self.seg {
            Some(id) => id,
            None => self.open_segment(),
        };
        let fault = self
            .injector
            .as_mut()
            .map_or(StoreFault::None, StoreInjector::on_append);
        self.pipe.push(Op::Frame {
            uid,
            dir,
            from,
            fault,
        });
        if fault != StoreFault::None {
            self.dead = true;
            return Err(StoreError::Injected(fault));
        }
        let offset = self.seg_len;
        self.seg_len += FRAME_HEADER_LEN as u64 + len;
        self.tele.add(0, Metric::StoreBytesWritten, len);
        Ok(Extent {
            segment,
            offset,
            len,
        })
    }

    /// Tombstone lowest-priority / most-truncated / oldest streams until
    /// the live payload fits the budget — the PPL ordering on disk.
    fn enforce_budget(&mut self) {
        let Some(budget) = self.cfg.disk_budget else {
            return;
        };
        while self.live_bytes > budget {
            let victim = self
                .records
                .values()
                .min_by_key(|r| {
                    (
                        r.priority,
                        u8::from(!r.cutoff_exceeded),
                        r.first_ts_ns,
                        r.uid,
                    )
                })
                .map(|r| r.uid);
            let Some(uid) = victim else { break };
            let rec = self.records.remove(&uid).expect("victim exists");
            self.pipe
                .index(&frame_record(&encode_tombstone_body(uid)), true);
            self.tombstones += 1;
            let bytes = rec.stored_bytes();
            self.live_bytes -= bytes;
            self.stats.streams_pruned += 1;
            self.stats.bytes_pruned += bytes;
            let p = self.stats.by_priority.entry(rec.priority).or_default();
            p.pruned += 1;
            p.live_bytes -= bytes;
            self.tele.inc(0, Metric::StoreStreamsPruned);
        }
    }

    /// Rewrite the archive without its dead weight: live payloads move
    /// into fresh segments (ids stay monotonic), a new tombstone-free
    /// index replaces the old one atomically (write-to-temp + rename),
    /// and the old segment files are deleted. No-op on a writer killed
    /// by an injected fault. A barrier: returns once it is all on disk.
    pub fn compact(&mut self) -> Result<(), StoreError> {
        if self.dead {
            return Err(StoreError::Dead);
        }
        // Every queued seal lands before the old segments are listed.
        self.barrier()?;
        let old_segments: Vec<PathBuf> = {
            let mut v = Vec::new();
            for entry in std::fs::read_dir(&self.cfg.dir)? {
                let entry = entry?;
                if entry
                    .file_name()
                    .to_str()
                    .and_then(parse_segment_file_name)
                    .is_some()
                {
                    v.push(entry.path());
                }
            }
            v.sort();
            v
        };
        let old_bytes: u64 = old_segments
            .iter()
            .map(|p| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
            .sum();

        // Rewrite payloads into fresh segments: the writer thread reads
        // each live frame back and appends it.
        self.seg = None;
        let mut new_bytes = 0u64;
        let live: Vec<(StreamUid, [Extent; 2])> =
            self.records.values().map(|r| (r.uid, r.extents)).collect();
        for (uid, old) in live {
            let mut extents = [Extent::default(); 2];
            for (di, e) in old.iter().enumerate() {
                if e.len == 0 {
                    continue;
                }
                extents[di] = self.append_frame(uid, di as u8, e.len, Some(*e))?;
                new_bytes += FRAME_HEADER_LEN as u64 + e.len;
            }
            if let Some(r) = self.records.get_mut(&uid) {
                r.extents = extents;
            }
        }
        self.seg = None;

        // Atomically swap in a tombstone-free index.
        self.pipe.push(Op::RewriteIndex);
        for r in self.records.values() {
            self.pipe
                .index(&frame_record(&encode_stream_body(r)), false);
        }
        self.pipe.push(Op::SwapIndex);
        self.barrier()?;
        self.tombstones = 0;

        for p in old_segments {
            std::fs::remove_file(p)?;
        }
        let reclaimed = old_bytes.saturating_sub(new_bytes);
        self.stats.bytes_reclaimed += reclaimed;
        self.tele.add(0, Metric::StoreBytesReclaimed, reclaimed);
        Ok(())
    }

    /// Compact away any retention tombstones and flush both files.
    /// Returns the final statistics. Streams that never saw a
    /// termination event stay unsealed — the kernel's own `finish()`
    /// terminates every stream at capture end, so pending entries here
    /// mean an abnormal shutdown and there is no final snapshot to
    /// commit for them. A barrier, like `compact`; dropping the writer
    /// writes what is queued too, without the error.
    pub fn finish(&mut self) -> Result<StoreStats, StoreError> {
        if self.tombstones > 0 {
            self.compact()?;
        }
        self.barrier()?;
        Ok(self.stats.clone())
    }
}

/// One step of the writer thread. `Data` and `Index` take their bytes
/// from the front of the batch's byte buffer, in op order.
enum Op {
    /// Place the next `len` bytes at `offset` of `uid`'s buffer for
    /// direction `dir` (the placement rule of
    /// [`StoreWriter::stream_data`]).
    Data {
        uid: StreamUid,
        dir: u8,
        offset: u64,
        len: usize,
    },
    /// Close the open segment and create segment `id`.
    Segment(u64),
    /// Write one frame: `uid`'s buffered bytes for `dir` or, compacting,
    /// the payload of the frame at `from`. A torn or killed append
    /// writes what the fault leaves and flushes it.
    Frame {
        uid: StreamUid,
        dir: u8,
        from: Option<Extent>,
        fault: StoreFault,
    },
    /// Append the next `len` bytes to the index. A commit (a seal or a
    /// tombstone) flushes the segment first and the index after.
    Index { len: usize, commit: bool },
    /// Compaction: flush the segment, start a replacement index at the
    /// temp path; the next `Index` ops append to it.
    RewriteIndex,
    /// Compaction: rename the replacement over the index.
    SwapIndex,
    /// Flush both files (a barrier's last op).
    Flush,
}

/// Ops and the bytes they carry: filled by the caller, drained by the
/// writer thread, sent back empty for reuse.
struct Batch {
    ops: Vec<Op>,
    bytes: Vec<u8>,
}

impl Batch {
    fn new() -> Self {
        Batch {
            ops: Vec::new(),
            bytes: Vec::with_capacity(BATCH_BYTES),
        }
    }

    /// Bytes left before the batch is full.
    fn room(&self) -> usize {
        BATCH_BYTES.saturating_sub(self.bytes.len() + self.ops.len() * OP_BYTES)
    }
}

/// What the caller and the writer thread share: one lock over the
/// queue and what comes back, one condvar per side.
#[derive(Default)]
struct Shared {
    state: Mutex<State>,
    /// The writer thread waits here for a batch.
    work: Condvar,
    /// The caller waits here for queue room or a barrier.
    done: Condvar,
}

#[derive(Default)]
struct State {
    queue: VecDeque<Batch>,
    /// Finished batches, emptied, for the caller to refill.
    spare: Vec<Batch>,
    /// Batches the writer thread has finished.
    finished: u64,
    /// The first error the writer thread hit, until the caller takes it.
    error: Option<StoreError>,
    /// The caller hung up: drain the queue and exit.
    closed: bool,
    /// The writer thread is gone (exited, or panicked).
    gone: bool,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Sleep on the caller's side until `ready` holds or the thread is
    /// gone (its error, then, says so).
    fn caller_wait<'a>(
        &self,
        mut s: MutexGuard<'a, State>,
        ready: impl Fn(&State) -> bool,
    ) -> MutexGuard<'a, State> {
        while !ready(&s) && !s.gone {
            s = self.done.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        if s.gone && !ready(&s) && s.error.is_none() {
            s.error = Some(StoreError::Io(std::io::Error::other(
                "archive writer exited",
            )));
        }
        s
    }
}

/// The caller's end of the writer thread.
struct Pipe {
    batch: Batch,
    /// Batches queued so far.
    shipped: u64,
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl Pipe {
    fn start(disk: Disk) -> Result<Pipe, StoreError> {
        let shared = Arc::new(Shared::default());
        let thread = std::thread::Builder::new()
            .name("scap-store".into())
            .spawn({
                let shared = Arc::clone(&shared);
                move || disk.run(&shared)
            })?;
        Ok(Pipe {
            batch: Batch::new(),
            shipped: 0,
            shared,
            thread: Some(thread),
        })
    }

    fn push(&mut self, op: Op) {
        self.batch.ops.push(op);
        self.ship_if_full();
    }

    /// Queue a chunk, split across batches if it does not fit.
    fn data(&mut self, uid: StreamUid, dir: u8, mut offset: u64, mut data: &[u8]) {
        loop {
            let (now, rest) = data.split_at(data.len().min(self.batch.room()));
            self.batch.ops.push(Op::Data {
                uid,
                dir,
                offset,
                len: now.len(),
            });
            self.batch.bytes.extend_from_slice(now);
            self.ship_if_full();
            if rest.is_empty() {
                return;
            }
            offset += now.len() as u64;
            data = rest;
        }
    }

    /// Queue index bytes (one record: far below a batch).
    fn index(&mut self, rec: &[u8], commit: bool) {
        if self.batch.room() < rec.len() {
            self.ship();
        }
        self.batch.bytes.extend_from_slice(rec);
        self.push(Op::Index {
            len: rec.len(),
            commit,
        });
    }

    fn ship_if_full(&mut self) {
        if self.batch.room() == 0 {
            self.ship();
        }
    }

    /// Queue the batch (waiting for room) and start a spare one.
    fn ship(&mut self) {
        let mut s = self
            .shared
            .caller_wait(self.shared.lock(), |s| s.queue.len() < QUEUE_DEPTH);
        let next = s.spare.pop().unwrap_or_else(Batch::new);
        s.queue.push_back(std::mem::replace(&mut self.batch, next));
        drop(s);
        self.shipped += 1;
        self.shared.work.notify_one();
    }

    /// Block until the thread has written and flushed every op so far.
    fn barrier(&mut self) {
        self.push(Op::Flush);
        if !self.batch.ops.is_empty() {
            self.ship();
        }
        let shipped = self.shipped;
        drop(
            self.shared
                .caller_wait(self.shared.lock(), |s| s.finished == shipped),
        );
    }

    fn take_error(&self) -> Option<StoreError> {
        self.shared.lock().error.take()
    }
}

impl Drop for Pipe {
    /// Write what is queued: the thread drains the queue, flushes and
    /// exits.
    fn drop(&mut self) {
        if !self.batch.ops.is_empty() {
            self.ship();
        }
        self.shared.lock().closed = true;
        self.shared.work.notify_one();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The writer thread's state: both files and every in-flight stream's
/// bytes.
struct Disk {
    dir: PathBuf,
    seg: Option<BufWriter<File>>,
    idx: BufWriter<File>,
    pending: HashMap<StreamUid, [Vec<u8>; 2]>,
    pace: Option<SyncSender<()>>,
}

/// Marks the writer thread gone however it exits, so a caller never
/// waits on a thread that is not there.
struct Gone<'a>(&'a Shared);

impl Drop for Gone<'_> {
    fn drop(&mut self) {
        self.0.lock().gone = true;
        self.0.done.notify_one();
    }
}

impl Disk {
    /// Apply batches until the caller hangs up. The first error stops
    /// all writing and waits in `State::error` for the caller.
    fn run(mut self, shared: &Shared) {
        let _gone = Gone(shared);
        let mut ok = true;
        loop {
            let mut s = shared.lock();
            let mut batch = loop {
                if let Some(b) = s.queue.pop_front() {
                    break b;
                }
                if s.closed {
                    drop(s);
                    if ok {
                        let _ = self.flush();
                    }
                    return;
                }
                s = shared.work.wait(s).unwrap_or_else(PoisonError::into_inner);
            };
            drop(s);
            if let Some(pace) = &self.pace {
                let _ = pace.send(());
            }
            let mut failed = None;
            if ok {
                let mut bytes = &batch.bytes[..];
                for op in batch.ops.drain(..) {
                    if let Err(e) = self.apply(op, &mut bytes) {
                        failed = Some(e);
                        break;
                    }
                }
            }
            batch.ops.clear();
            batch.bytes.clear();
            let mut s = shared.lock();
            if let Some(e) = failed {
                ok = false;
                s.error = Some(e);
            }
            s.finished += 1;
            s.spare.push(batch);
            drop(s);
            shared.done.notify_one();
        }
    }

    fn apply(&mut self, op: Op, bytes: &mut &[u8]) -> Result<(), StoreError> {
        match op {
            Op::Data {
                uid,
                dir,
                offset,
                len,
            } => {
                let (data, rest) = bytes.split_at(len);
                *bytes = rest;
                let buf = &mut self.pending.entry(uid).or_default()[usize::from(dir)];
                let off = offset as usize;
                if off < buf.len() {
                    let overlap = data.len().min(buf.len() - off);
                    buf[off..off + overlap].copy_from_slice(&data[..overlap]);
                    buf.extend_from_slice(&data[overlap..]);
                } else {
                    buf.resize(off, 0);
                    buf.extend_from_slice(data);
                }
            }
            Op::Segment(id) => {
                if let Some(mut f) = self.seg.take() {
                    f.flush()?;
                }
                let mut f = BufWriter::new(
                    OpenOptions::new()
                        .create_new(true)
                        .write(true)
                        .open(segment_path(&self.dir, id))?,
                );
                f.write_all(&file_header(SEG_MAGIC, id))?;
                self.seg = Some(f);
            }
            Op::Frame {
                uid,
                dir,
                from,
                fault,
            } => {
                let payload = match from {
                    Some(e) => read_extent(&self.dir, uid, dir, &e)?,
                    None => self.take_pending(uid, dir),
                };
                let direction = if dir == 0 {
                    Direction::Forward
                } else {
                    Direction::Reverse
                };
                let f = self.seg.as_mut().expect("a segment is open");
                f.write_all(&frame_header(uid, direction, &payload))?;
                match fault {
                    StoreFault::None => f.write_all(&payload)?,
                    StoreFault::TornAppend => {
                        // The writer dies mid-append: only a prefix of the
                        // frame reaches disk. Recovery must cut exactly
                        // this tail.
                        f.write_all(&payload[..payload.len() / 2])?;
                        f.flush()?;
                    }
                    StoreFault::Kill => {
                        // The frame lands intact but the writer dies
                        // before the index record: recovery sees a valid
                        // orphan frame.
                        f.write_all(&payload)?;
                        f.flush()?;
                    }
                }
            }
            Op::Index { len, commit } => {
                let (rec, rest) = bytes.split_at(len);
                *bytes = rest;
                if commit {
                    if let Some(f) = self.seg.as_mut() {
                        f.flush()?;
                    }
                }
                self.idx.write_all(rec)?;
                if commit {
                    self.idx.flush()?;
                }
            }
            Op::RewriteIndex => {
                self.flush()?;
                let mut w = BufWriter::new(File::create(self.dir.join(INDEX_TMP))?);
                w.write_all(&file_header(IDX_MAGIC, 0))?;
                self.idx = w;
            }
            Op::SwapIndex => {
                self.idx.flush()?;
                let idx_path = self.dir.join(INDEX_FILE);
                std::fs::rename(self.dir.join(INDEX_TMP), &idx_path)?;
                self.idx = BufWriter::new(OpenOptions::new().append(true).open(&idx_path)?);
            }
            Op::Flush => self.flush()?,
        }
        Ok(())
    }

    /// Hand over `uid`'s bytes for `dir`, forgetting the stream once
    /// both directions are gone.
    fn take_pending(&mut self, uid: StreamUid, dir: u8) -> Vec<u8> {
        let Some(bufs) = self.pending.get_mut(&uid) else {
            return Vec::new();
        };
        let payload = std::mem::take(&mut bufs[usize::from(dir)]);
        if bufs.iter().all(Vec::is_empty) {
            self.pending.remove(&uid);
        }
        payload
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if let Some(f) = self.seg.as_mut() {
            f.flush()?;
        }
        self.idx.flush()
    }
}

/// A cloneable, thread-safe handle to a [`StoreWriter`], implementing
/// [`EventSink`] so it can ride the live driver's dispatch path
/// (`Scap::attach_sink`). Sink callbacks swallow errors — an injected
/// fault or I/O failure kills the archive, not the capture — and count
/// them in [`StoreStats::write_errors`].
#[derive(Clone)]
pub struct SharedStoreWriter(Arc<Mutex<StoreWriter>>);

impl SharedStoreWriter {
    /// Wrap a writer for sharing with capture worker threads.
    pub fn new(w: StoreWriter) -> Self {
        SharedStoreWriter(Arc::new(Mutex::new(w)))
    }

    /// Run `f` against the underlying writer.
    pub fn with<R>(&self, f: impl FnOnce(&mut StoreWriter) -> R) -> R {
        let mut g = self.0.lock().unwrap_or_else(|p| p.into_inner());
        f(&mut g)
    }

    /// Seal, compact, flush; returns the final statistics.
    pub fn finish(&self) -> Result<StoreStats, StoreError> {
        self.with(StoreWriter::finish)
    }

    /// Current archive statistics.
    pub fn stats(&self) -> StoreStats {
        self.with(|w| w.stats().clone())
    }
}

impl EventSink for SharedStoreWriter {
    fn on_created(&self, s: &StreamSnapshot) {
        self.with(|w| w.stream_created(s));
    }
    fn on_data(&self, s: &StreamSnapshot, dir: Direction, data: &[u8], offset: u64) {
        self.with(|w| w.stream_data(s, dir, data, offset));
    }
    fn on_terminated(&self, s: &StreamSnapshot) {
        self.with(|w| {
            let _ = w.stream_terminated(s);
        });
    }
}
