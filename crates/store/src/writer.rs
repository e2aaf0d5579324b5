//! The archive writer: buffers each stream's reassembled bytes as the
//! dispatch path delivers them, seals the stream into checksummed
//! segment frames + an index record at termination, rotates segments at
//! a size threshold, and enforces a disk budget with priority-aware
//! retention (PPL on disk).

use crate::format::{
    encode_stream_body, encode_tombstone_body, file_header, frame_header, frame_record,
    parse_segment_file_name, scan_index, scan_segment, segment_path, Extent, IndexEntry,
    IndexRecord, FILE_HEADER_LEN, FRAME_HEADER_LEN, IDX_MAGIC, INDEX_FILE, SEG_MAGIC,
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
use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

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
    /// Seal attempts that failed (injected faults, I/O errors, writes
    /// after an injected death).
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

/// A stream still in flight: the reassembled bytes delivered so far,
/// per direction. (The final snapshot arrives with the termination.)
struct Pending {
    data: [Vec<u8>; 2],
}

/// The archive writer. Single-owner and synchronous; wrap it in
/// [`SharedStoreWriter`] to attach it to the threaded live driver.
pub struct StoreWriter {
    cfg: StoreConfig,
    seg: Option<BufWriter<File>>,
    seg_id: u64,
    seg_len: u64,
    next_seg_id: u64,
    idx: BufWriter<File>,
    pending: HashMap<StreamUid, Pending>,
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
}

impl StoreWriter {
    /// Open (or create) the archive at `cfg.dir`, running torn-tail
    /// recovery: both the sidecar index and every segment file are
    /// scanned back to their last valid entry and truncated there, so a
    /// crashed predecessor costs at most its uncommitted tail.
    pub fn open(cfg: StoreConfig) -> Result<StoreWriter, StoreError> {
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
        Ok(StoreWriter {
            cfg,
            seg: None,
            seg_id: 0,
            seg_len: 0,
            next_seg_id,
            idx,
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

    /// Observe a stream creation.
    pub fn stream_created(&mut self, s: &StreamSnapshot) {
        self.pending.entry(s.uid).or_insert_with(|| Pending {
            data: [Vec::new(), Vec::new()],
        });
    }

    /// Observe a data delivery: `data` starts at stream `offset` in
    /// direction `dir`. Chunks arrive in order, so the common case is a
    /// plain append; an offset below the buffered length (chunk overlap)
    /// overwrites, a gap (sequence holes skipped in fast mode) is
    /// zero-filled.
    pub fn stream_data(&mut self, s: &StreamSnapshot, dir: Direction, data: &[u8], offset: u64) {
        let p = self.pending.entry(s.uid).or_insert_with(|| Pending {
            data: [Vec::new(), Vec::new()],
        });
        let buf = &mut p.data[dir.index()];
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

    /// Observe a stream termination: seal its buffered bytes into
    /// segment frames and commit the index record. Payload frames are
    /// flushed *before* the record, so a crash in between leaves only
    /// orphan frames, never a record pointing at missing data.
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
        if self.dead {
            return Err(StoreError::Dead);
        }
        self.last_ts_ns = s.last_ts_ns;
        let span = SpanTimer::start();
        let data = self
            .pending
            .remove(&s.uid)
            .map(|p| p.data)
            .unwrap_or_default();
        let mut extents = [Extent::default(); 2];
        for (di, payload) in data.iter().enumerate() {
            if payload.is_empty() {
                continue;
            }
            extents[di] = self.append_frame(s.uid, di, payload)?;
        }
        if let Some(f) = self.seg.as_mut() {
            f.flush()?;
        }
        let rec = IndexRecord::from_snapshot(s, extents);
        self.idx
            .write_all(&frame_record(&encode_stream_body(&rec)))?;
        self.idx.flush()?;

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
        self.enforce_budget()?;
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

    fn open_segment(&mut self) -> Result<(), StoreError> {
        let id = self.next_seg_id;
        self.next_seg_id += 1;
        let mut f = BufWriter::new(
            OpenOptions::new()
                .create_new(true)
                .write(true)
                .open(segment_path(&self.cfg.dir, id))?,
        );
        f.write_all(&file_header(SEG_MAGIC, id))?;
        self.seg = Some(f);
        self.seg_id = id;
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
        Ok(())
    }

    fn append_frame(
        &mut self,
        uid: StreamUid,
        dir_idx: usize,
        payload: &[u8],
    ) -> Result<Extent, StoreError> {
        if self.seg.is_some() && self.seg_len >= self.cfg.segment_bytes {
            let mut f = self.seg.take().unwrap();
            f.flush()?;
        }
        if self.seg.is_none() {
            self.open_segment()?;
        }
        let dir = if dir_idx == 0 {
            Direction::Forward
        } else {
            Direction::Reverse
        };
        let header = frame_header(uid, dir, payload);
        let fault = self
            .injector
            .as_mut()
            .map_or(StoreFault::None, StoreInjector::on_append);
        let offset = self.seg_len;
        let f = self.seg.as_mut().expect("segment open");
        match fault {
            StoreFault::TornAppend => {
                // The writer dies mid-append: only a prefix of the frame
                // reaches disk. Recovery must cut exactly this tail.
                f.write_all(&header)?;
                f.write_all(&payload[..payload.len() / 2])?;
                f.flush()?;
                self.dead = true;
                Err(StoreError::Injected(StoreFault::TornAppend))
            }
            StoreFault::Kill => {
                // The frame lands intact but the writer dies before the
                // index record: recovery sees a valid orphan frame.
                f.write_all(&header)?;
                f.write_all(payload)?;
                f.flush()?;
                self.dead = true;
                Err(StoreError::Injected(StoreFault::Kill))
            }
            StoreFault::None => {
                f.write_all(&header)?;
                f.write_all(payload)?;
                self.seg_len += (FRAME_HEADER_LEN + payload.len()) as u64;
                self.tele
                    .add(0, Metric::StoreBytesWritten, payload.len() as u64);
                Ok(Extent {
                    segment: self.seg_id,
                    offset,
                    len: payload.len() as u64,
                })
            }
        }
    }

    /// Tombstone lowest-priority / most-truncated / oldest streams until
    /// the live payload fits the budget — the PPL ordering on disk.
    fn enforce_budget(&mut self) -> Result<(), StoreError> {
        let Some(budget) = self.cfg.disk_budget else {
            return Ok(());
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
            self.idx
                .write_all(&frame_record(&encode_tombstone_body(uid)))?;
            self.idx.flush()?;
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
        Ok(())
    }

    /// Rewrite the archive without its dead weight: live payloads move
    /// into fresh segments (ids stay monotonic), a new tombstone-free
    /// index replaces the old one atomically (write-to-temp + rename),
    /// and the old segment files are deleted. No-op on a writer killed
    /// by an injected fault.
    pub fn compact(&mut self) -> Result<(), StoreError> {
        if self.dead {
            return Err(StoreError::Dead);
        }
        // Read every live payload back before touching anything.
        let mut payloads: Vec<(StreamUid, [Vec<u8>; 2])> = Vec::with_capacity(self.records.len());
        for r in self.records.values() {
            let mut both = [Vec::new(), Vec::new()];
            for (di, e) in r.extents.iter().enumerate() {
                if e.len > 0 {
                    both[di] = crate::format::read_extent(&self.cfg.dir, r.uid, di as u8, e)?;
                }
            }
            payloads.push((r.uid, both));
        }
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

        // Rewrite payloads into fresh segments.
        if let Some(mut f) = self.seg.take() {
            f.flush()?;
        }
        let mut new_bytes = 0u64;
        for (uid, both) in payloads {
            let mut extents = [Extent::default(); 2];
            for (di, payload) in both.iter().enumerate() {
                if payload.is_empty() {
                    continue;
                }
                extents[di] = self.append_frame(uid, di, payload)?;
                new_bytes += (FRAME_HEADER_LEN + payload.len()) as u64;
            }
            if let Some(r) = self.records.get_mut(&uid) {
                r.extents = extents;
            }
        }
        if let Some(mut f) = self.seg.take() {
            f.flush()?;
        }

        // Atomically swap in a tombstone-free index.
        let tmp = self.cfg.dir.join("index.scapidx.tmp");
        {
            let mut w = BufWriter::new(File::create(&tmp)?);
            w.write_all(&file_header(IDX_MAGIC, 0))?;
            for r in self.records.values() {
                w.write_all(&frame_record(&encode_stream_body(r)))?;
            }
            w.flush()?;
        }
        let idx_path = self.cfg.dir.join(INDEX_FILE);
        self.idx.flush()?;
        std::fs::rename(&tmp, &idx_path)?;
        self.idx = BufWriter::new(OpenOptions::new().append(true).open(&idx_path)?);
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
    /// commit for them.
    pub fn finish(&mut self) -> Result<StoreStats, StoreError> {
        if self.tombstones > 0 {
            self.compact()?;
        }
        if let Some(f) = self.seg.as_mut() {
            f.flush()?;
        }
        self.idx.flush()?;
        Ok(self.stats.clone())
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
