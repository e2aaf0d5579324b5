//! End-to-end writer/reader tests over real temp directories.

use crate::format::{
    file_header, frame_header, frame_record, segment_path, FILE_HEADER_LEN, FRAME_HEADER_LEN,
    FRAME_MAGIC, IDX_MAGIC, SCAN_PIECE, SEG_MAGIC,
};
use crate::{
    crc32, decode_body, encode_stream_body, encode_tombstone_body, scan_index, scan_segment,
    Extent, FrameInfo, IndexEntry, IndexRecord, SegmentScan, StoreConfig, StoreError, StoreReader,
    StoreWriter, INDEX_FILE,
};
use proptest::prelude::*;
use scap::{StreamSnapshot, StreamUid};
use scap_faults::{FaultPlan, StoreFault, StoreFaultConfig, StoreInjector};
use scap_flight::framing::crc32_update;
use scap_flow::{DirStats, StreamErrors, StreamStatus};
use scap_telemetry::Metric;
use scap_wire::{Direction, FlowKey, Transport};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};

/// A fresh per-test temp directory (no wall clock: keyed on pid + name).
fn tmp_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("scap-store-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn snap(uid: StreamUid, port: u16, priority: u8, first_ts: u64, bytes: u64) -> StreamSnapshot {
    let mut dirs = [DirStats::default(), DirStats::default()];
    dirs[0].total_bytes = bytes;
    dirs[0].total_pkts = 1 + bytes / 1000;
    dirs[0].captured_bytes = bytes;
    StreamSnapshot {
        uid,
        key: FlowKey::new_v4(
            [10, 0, 0, 1],
            [10, 0, 0, 2],
            40000 + uid as u16,
            port,
            Transport::Tcp,
        ),
        first_dir: Direction::Forward,
        status: StreamStatus::ClosedFin,
        errors: StreamErrors::default(),
        priority,
        cutoff_exceeded: false,
        dirs,
        first_ts_ns: first_ts,
        last_ts_ns: first_ts + 1_000_000,
        chunks: 1,
        processing_time_ns: 0,
        resume_gap_bytes: 0,
    }
}

fn payload(uid: StreamUid, len: usize) -> Vec<u8> {
    (0..len).map(|i| (uid as usize * 31 + i) as u8).collect()
}

fn archive_one(w: &mut StoreWriter, s: &StreamSnapshot, fwd: &[u8], rev: &[u8]) {
    w.stream_created(s);
    if !fwd.is_empty() {
        w.stream_data(s, Direction::Forward, fwd, 0);
    }
    if !rev.is_empty() {
        w.stream_data(s, Direction::Reverse, rev, 0);
    }
    w.stream_terminated(s).unwrap();
}

#[test]
fn round_trip_bytes_and_metadata() {
    let dir = tmp_dir("roundtrip");
    let mut w = StoreWriter::open(StoreConfig::new(&dir)).unwrap();
    let s1 = snap(1, 80, 2, 1_000, 500);
    let s2 = snap(2, 53, 0, 2_000, 100);
    archive_one(&mut w, &s1, &payload(1, 500), &payload(101, 200));
    archive_one(&mut w, &s2, &payload(2, 100), &[]);
    let stats = w.finish().unwrap();
    assert_eq!(stats.streams_archived, 2);
    assert_eq!(stats.bytes_archived, 800);
    assert_eq!(stats.write_errors, 0);
    let tele = w.telemetry_snapshot();
    assert_eq!(tele.total(Metric::StoreStreamsArchived), 2);
    assert_eq!(tele.total(Metric::StoreBytesWritten), 800);
    drop(w);

    let r = StoreReader::open(&dir).unwrap();
    assert_eq!(r.len(), 2);
    let rec = r.get(1).unwrap();
    assert_eq!(rec.key, s1.key);
    assert_eq!(rec.priority, 2);
    assert_eq!(rec.status, StreamStatus::ClosedFin);
    assert_eq!(rec.dirs[0].captured_bytes, 500);
    let data = r.read_stream(1).unwrap();
    assert_eq!(data[0], payload(1, 500));
    assert_eq!(data[1], payload(101, 200));
    assert_eq!(r.read_stream(2).unwrap()[1], Vec::<u8>::new());

    // Point lookup works from either orientation.
    assert_eq!(r.lookup(&s1.key).len(), 1);
    assert_eq!(r.lookup(&s1.key.reversed()).len(), 1);
    // Index-only queries.
    let hits = r.query("port 80").unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].uid, 1);
    assert!(r.query("port 9999").unwrap().is_empty());
    assert!(r.query("port &&").is_err());
    // Time-range scans.
    assert_eq!(r.time_range(0, 1_500).len(), 1);
    assert_eq!(r.time_range(0, u64::MAX).len(), 2);
    assert!(r.time_range(3_100_000, u64::MAX).is_empty());

    let report = r.verify().unwrap();
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.frames_valid, 3);
    assert_eq!(report.orphan_frames, 0);
}

/// The placement rule `stream_data` implements, spelled naively: grow
/// with zeroes to the chunk's end, then overwrite.
fn place(model: &mut Vec<u8>, data: &[u8], offset: usize) {
    let end = offset + data.len();
    if model.len() < end {
        model.resize(end, 0);
    }
    model[offset..end].copy_from_slice(data);
}

#[test]
fn chunk_placement_matches_the_naive_model() {
    let dir = tmp_dir("placement");
    let mut w = StoreWriter::open(StoreConfig::new(&dir)).unwrap();
    let s = snap(7, 80, 0, 0, 30);
    let (fwd, rev) = (Direction::Forward, Direction::Reverse);
    let big = payload(9, 5000);
    // Both directions of one stream, interleaved and sealed in one call.
    let ops: &[(Direction, usize, &[u8])] = &[
        (fwd, 0, b"hello "),
        (fwd, 6, b"world"), // in order: a plain append
        (fwd, 6, b"W"),     // overlap: a rewrite of delivered bytes wins
        (rev, 0, &big[..4096]),
        (fwd, 13, b"!"),   // gap: the skipped hole is zero-filled
        (fwd, 12, b"d!?"), // overlap running past the end
        (rev, 4096, &big[4096..]),
        (rev, 4000, &big[..200]), // overlap inside a long buffer
        (fwd, 20, b""),           // an empty chunk past the end still fills the hole
        (rev, 6000, b"tail"),     // gap after a long buffer
        (fwd, 20, b"end"),
    ];
    let mut model = [Vec::new(), Vec::new()];
    w.stream_created(&s);
    for &(dir, offset, data) in ops {
        w.stream_data(&s, dir, data, offset as u64);
        place(&mut model[dir.index()], data, offset);
    }
    w.stream_terminated(&s).unwrap();
    drop(w);
    assert_eq!(model[0], b"hello World\0d!?\0\0\0\0\0end");
    assert_eq!(model[1].len(), 6004);
    let r = StoreReader::open(&dir).unwrap();
    assert_eq!(r.read_stream(7).unwrap(), model);
    assert!(r.verify().unwrap().is_clean());
}

#[test]
fn segment_rotation_spreads_streams_across_files() {
    let dir = tmp_dir("rotation");
    let mut w = StoreWriter::open(StoreConfig::new(&dir).segment_bytes(1_000)).unwrap();
    for uid in 1..=6u64 {
        let s = snap(uid, 80, 0, uid * 1_000, 900);
        archive_one(&mut w, &s, &payload(uid, 900), &[]);
    }
    let stats = w.finish().unwrap();
    assert!(stats.segments_created >= 3, "{stats:?}");
    drop(w);
    let r = StoreReader::open(&dir).unwrap();
    assert_eq!(r.len(), 6);
    for uid in 1..=6u64 {
        assert_eq!(r.read_stream(uid).unwrap()[0], payload(uid, 900));
    }
    assert!(r.verify().unwrap().is_clean());
}

#[test]
fn retention_prunes_lowest_priority_first_and_compaction_reclaims() {
    let dir = tmp_dir("retention");
    // Budget fits two 600-byte streams, not three.
    let mut w = StoreWriter::open(StoreConfig::new(&dir).disk_budget(1_400)).unwrap();
    archive_one(&mut w, &snap(1, 80, 2, 1_000, 600), &payload(1, 600), &[]);
    archive_one(&mut w, &snap(2, 53, 0, 2_000, 600), &payload(2, 600), &[]);
    // Third stream exceeds the budget: the priority-0 stream (uid 2)
    // must be the victim, not the older high-priority one.
    archive_one(&mut w, &snap(3, 443, 1, 3_000, 600), &payload(3, 600), &[]);
    let stats = w.finish().unwrap();
    assert_eq!(stats.streams_pruned, 1);
    assert_eq!(stats.bytes_pruned, 600);
    assert_eq!(stats.by_priority.get(&0).unwrap().pruned, 1);
    assert_eq!(stats.by_priority.get(&2).unwrap().pruned, 0);
    assert!((stats.discard_ratio(0) - 1.0).abs() < f64::EPSILON);
    // finish() compacted the tombstone away and reclaimed segment bytes.
    assert!(stats.bytes_reclaimed > 0, "{stats:?}");
    drop(w);

    let r = StoreReader::open(&dir).unwrap();
    assert_eq!(r.len(), 2);
    assert!(r.get(2).is_none());
    assert_eq!(r.read_stream(1).unwrap()[0], payload(1, 600));
    assert_eq!(r.read_stream(3).unwrap()[0], payload(3, 600));
    let report = r.verify().unwrap();
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.orphan_frames, 0); // compaction left no dead frames
}

#[test]
fn tenant_shares_split_the_budget_and_isolate_retention() {
    let dir = tmp_dir("tenant-share");
    let base = StoreConfig::new(&dir)
        .segment_bytes(4096)
        .disk_budget(2_000);

    // Share math: permille of the pool, directory per tenant, clamp at
    // 1000‰; an unlimited pool stays unlimited.
    let a_cfg = base.tenant_share("alpha", 700);
    let b_cfg = base.tenant_share("beta", 300);
    assert_eq!(a_cfg.disk_budget, Some(1_400));
    assert_eq!(b_cfg.disk_budget, Some(600));
    assert_eq!(a_cfg.dir, dir.join("alpha"));
    assert_eq!(a_cfg.segment_bytes, 4096);
    assert_eq!(base.tenant_share("all", 2000).disk_budget, Some(2_000));
    assert_eq!(
        StoreConfig::new(&dir).tenant_share("x", 10).disk_budget,
        None
    );

    // Isolation: beta overruns its 600-byte share and prunes its own
    // oldest stream; alpha's archive is untouched.
    let mut a = StoreWriter::open(a_cfg).unwrap();
    let mut b = StoreWriter::open(b_cfg).unwrap();
    archive_one(&mut a, &snap(1, 80, 0, 1_000, 600), &payload(1, 600), &[]);
    archive_one(&mut b, &snap(2, 53, 0, 2_000, 400), &payload(2, 400), &[]);
    archive_one(&mut b, &snap(3, 53, 0, 3_000, 400), &payload(3, 400), &[]);
    let a_stats = a.finish().unwrap();
    let b_stats = b.finish().unwrap();
    assert_eq!(a_stats.streams_pruned, 0);
    assert_eq!(b_stats.streams_pruned, 1);
    drop((a, b));

    let ra = StoreReader::open(dir.join("alpha")).unwrap();
    let rb = StoreReader::open(dir.join("beta")).unwrap();
    assert_eq!(ra.len(), 1);
    assert_eq!(ra.read_stream(1).unwrap()[0], payload(1, 600));
    assert_eq!(rb.len(), 1);
    assert!(rb.get(2).is_none(), "beta's oldest stream was its victim");
}

#[test]
fn torn_append_is_recovered_and_committed_streams_survive() {
    let dir = tmp_dir("torn");
    let mut w = StoreWriter::open(StoreConfig::new(&dir)).unwrap();
    archive_one(&mut w, &snap(1, 80, 0, 1_000, 400), &payload(1, 400), &[]);
    // Arm a plan that tears the very next append.
    let mut plan = FaultPlan::new(99);
    plan.store = StoreFaultConfig {
        torn_append_prob: 1.0,
        kill_after_appends: 0,
    };
    w.attach_faults(&plan);
    let s2 = snap(2, 80, 0, 2_000, 400);
    w.stream_created(&s2);
    w.stream_data(&s2, Direction::Forward, &payload(2, 400), 0);
    match w.stream_terminated(&s2) {
        Err(StoreError::Injected(StoreFault::TornAppend)) => {}
        other => panic!("expected torn append, got {other:?}"),
    }
    assert_eq!(w.stats().write_errors, 1);
    // The writer is dead now.
    assert!(matches!(
        w.stream_terminated(&snap(3, 80, 0, 3_000, 1)),
        Err(StoreError::Dead)
    ));
    drop(w);

    // Before recovery the reader sees the torn tail.
    let r = StoreReader::open(&dir).unwrap();
    let report = r.verify().unwrap();
    assert!(!report.is_clean());
    assert!(report.segment_torn_bytes > 0);
    assert_eq!(r.len(), 1); // the committed stream is still indexed
    drop(r);

    // Writer reopen truncates exactly the torn tail.
    let w2 = StoreWriter::open(StoreConfig::new(&dir)).unwrap();
    assert!(w2.stats().torn_tail_bytes_recovered > 0);
    assert_eq!(w2.live_streams(), 1);
    drop(w2);
    let r2 = StoreReader::open(&dir).unwrap();
    let report2 = r2.verify().unwrap();
    assert!(report2.is_clean(), "{report2}");
    assert_eq!(r2.read_stream(1).unwrap()[0], payload(1, 400));
}

#[test]
fn kill_leaves_orphan_frame_but_no_record() {
    let dir = tmp_dir("kill");
    let mut w = StoreWriter::open(StoreConfig::new(&dir)).unwrap();
    let mut plan = FaultPlan::new(7);
    plan.store = StoreFaultConfig {
        torn_append_prob: 0.0,
        kill_after_appends: 1,
    };
    w.attach_faults(&plan);
    archive_one(&mut w, &snap(1, 80, 0, 1_000, 300), &payload(1, 300), &[]);
    let s2 = snap(2, 80, 0, 2_000, 300);
    w.stream_created(&s2);
    w.stream_data(&s2, Direction::Forward, &payload(2, 300), 0);
    assert!(matches!(
        w.stream_terminated(&s2),
        Err(StoreError::Injected(StoreFault::Kill))
    ));
    drop(w);

    // The killed frame is intact on disk but unreferenced: an orphan,
    // not corruption — and uid 2 is nowhere in the index.
    let w2 = StoreWriter::open(StoreConfig::new(&dir)).unwrap();
    assert_eq!(w2.stats().torn_tail_bytes_recovered, 0);
    drop(w2);
    let r = StoreReader::open(&dir).unwrap();
    assert_eq!(r.len(), 1);
    assert!(r.get(2).is_none());
    let report = r.verify().unwrap();
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.orphan_frames, 1);
    assert_eq!(r.read_stream(1).unwrap()[0], payload(1, 300));
}

#[test]
fn export_pcap_round_trips_payload() {
    let dir = tmp_dir("export");
    let mut w = StoreWriter::open(StoreConfig::new(&dir)).unwrap();
    let s = snap(1, 80, 0, 1_000_000, 3_000);
    archive_one(&mut w, &s, &payload(1, 3_000), &payload(9, 100));
    w.finish().unwrap();
    drop(w);
    let r = StoreReader::open(&dir).unwrap();
    let mut buf = Vec::new();
    let n = r.export_pcap(&[1], &mut buf, 65535).unwrap();
    assert_eq!(n, 4); // 3000/1400 -> 3 forward chunks + 1 reverse
    let pkts = scap_trace::pcap::PcapReader::new(&buf[..])
        .unwrap()
        .read_all()
        .unwrap();
    assert_eq!(pkts.len(), 4);
    // Reparse the synthesized frames and reassemble the forward payload.
    let mut fwd = Vec::new();
    for p in &pkts {
        let parsed = scap_wire::parse_frame(&p.frame).unwrap();
        let key = parsed.key.unwrap();
        if key == s.key {
            fwd.extend_from_slice(&p.frame[parsed.payload_off..][..parsed.payload_len]);
        }
    }
    assert_eq!(fwd, payload(1, 3_000));
}

#[test]
fn federated_query_merges_shards_and_reports_partial() {
    use crate::federated::{FederatedReader, ShardOutcome};
    use std::time::Duration;

    let root = tmp_dir("federated");
    // Three shard archives, one stream each, ports 80 / 443 / 80.
    for (shard, port) in [(0u64, 80u16), (1, 443), (2, 80)] {
        let dir = root.join(format!("shard-{shard}"));
        let mut w = StoreWriter::open(StoreConfig::new(&dir)).unwrap();
        let s = snap(shard + 1, port, 0, 1_000_000 * (shard + 1), 2_000);
        archive_one(&mut w, &s, &payload(shard + 1, 2_000), &[]);
        w.finish().unwrap();
    }

    let fed = FederatedReader::open(&root).unwrap();
    assert_eq!(fed.nshards(), 3);
    let res = fed.query("port 80", Duration::from_secs(30));
    assert!(!res.partial, "healthy shards must give a complete result");
    assert_eq!(res.records.len(), 2);
    assert_eq!(res.ok_shards(), 3);
    let shards: Vec<usize> = res.records.iter().map(|(s, _)| *s).collect();
    assert_eq!(shards, vec![0, 2]);

    // Lose one shard's archive entirely (a garbage index would merely
    // be truncated by torn-tail recovery): the query must go partial,
    // name the broken shard, and still return the healthy records.
    std::fs::remove_dir_all(root.join("shard-1")).unwrap();
    let res = fed.query("port 80", Duration::from_secs(30));
    assert!(res.partial, "a broken shard must mark the result partial");
    assert_eq!(res.records.len(), 2, "healthy shards still answer");
    assert!(matches!(res.statuses[1].outcome, ShardOutcome::Error(_)));

    // A zero budget times every surviving shard out: explicit, not
    // silent (the lost shard still reports its error).
    let res = fed.query("port 80", Duration::ZERO);
    assert!(res.partial);
    assert_eq!(res.records.len(), 0);
    assert!(!res
        .statuses
        .iter()
        .any(|s| matches!(s.outcome, ShardOutcome::Ok(_))));
    assert_eq!(res.statuses[0].outcome, ShardOutcome::TimedOut);
    assert_eq!(res.statuses[2].outcome, ShardOutcome::TimedOut);
}

/// The writer thread holds the queue at a batch boundary (the pace
/// channel) while the caller seals, leaves a half-full batch and drops
/// the writer from another thread: the drop must queue that batch and
/// wait for all of it.
#[test]
fn drop_mid_pipeline_keeps_every_sealed_stream() {
    let dir = tmp_dir("drop-mid-pipeline");
    let (pace, paced) = std::sync::mpsc::sync_channel(0);
    let cfg = StoreConfig::new(&dir).segment_bytes(50_000);
    let mut w = StoreWriter::open_paced(cfg, Some(pace)).unwrap();
    for uid in 1..=12u64 {
        let s = snap(uid, 80, 0, uid * 1_000, 20_000);
        archive_one(&mut w, &s, &payload(uid, 20_000), &payload(uid + 50, 99));
    }
    paced.recv().unwrap(); // the thread takes its first batch, no more
    let dropper = std::thread::spawn(move || drop(w));
    // One rendezvous per batch left; the iterator ends when the thread
    // exits and drops its end.
    assert!(paced.iter().count() >= 2, "sealed bytes fit one batch");
    dropper.join().unwrap();

    let r = StoreReader::open(&dir).unwrap();
    assert_eq!(r.len(), 12);
    for uid in 1..=12u64 {
        let want = [payload(uid, 20_000), payload(uid + 50, 99)];
        assert_eq!(r.read_stream(uid).unwrap(), want);
    }
    let report = r.verify().unwrap();
    assert!(report.is_clean() && report.orphan_frames == 0, "{report}");
}

/// What the format says a writer leaves behind, spelled plainly: naive
/// chunk placement, frames back to back from offset 16 with a fresh
/// segment once one reaches its threshold, one injector verdict per
/// frame, budget victims by (priority, age, uid), compaction in uid
/// order. `Err(None)` stands for `StoreError::Dead`.
struct Model {
    cfg: StoreConfig,
    inj: StoreInjector,
    bufs: HashMap<StreamUid, [Vec<u8>; 2]>,
    live: BTreeMap<StreamUid, ([Vec<u8>; 2], [Extent; 2])>,
    seg: Option<u64>,
    seg_len: u64,
    segments: u64,
    dead: bool,
    torn: bool,
    tombstones: u64,
    /// Streams archived, bytes archived, streams pruned, write errors.
    counts: [u64; 4],
}

impl Model {
    fn frame(&mut self, len: u64) -> Result<Extent, Option<StoreFault>> {
        if self.seg.is_none() || self.seg_len >= self.cfg.segment_bytes {
            (self.seg, self.segments, self.seg_len) = (Some(self.segments), self.segments + 1, 16);
        }
        let fault = self.inj.on_append();
        if fault != StoreFault::None {
            (self.dead, self.torn) = (true, fault == StoreFault::TornAppend);
            return Err(Some(fault));
        }
        let (segment, offset) = (self.seg.unwrap(), self.seg_len);
        self.seg_len += 24 + len;
        Ok(Extent {
            segment,
            offset,
            len,
        })
    }

    fn frames(&mut self, lens: [usize; 2]) -> Result<[Extent; 2], Option<StoreFault>> {
        let mut extents = [Extent::default(); 2];
        for (e, len) in extents.iter_mut().zip(lens).filter(|(_, len)| *len > 0) {
            *e = self.frame(len as u64)?;
        }
        Ok(extents)
    }

    fn seal(&mut self, uid: StreamUid) -> Result<(), Option<StoreFault>> {
        if self.dead {
            return Err(None);
        }
        let bufs = self.bufs.remove(&uid).unwrap_or_default();
        let extents = self.frames([bufs[0].len(), bufs[1].len()])?;
        self.counts[0] += 1;
        self.counts[1] += extents[0].len + extents[1].len;
        self.live.insert(uid, (bufs, extents));
        let stored = |m: &Self| {
            m.live
                .values()
                .map(|(b, _)| b[0].len() + b[1].len())
                .sum::<usize>()
        };
        while self
            .cfg
            .disk_budget
            .is_some_and(|b| stored(self) as u64 > b)
        {
            let victim = *self.live.keys().min_by_key(|&&u| (u % 3, u)).unwrap();
            self.live.remove(&victim);
            (self.counts[2], self.tombstones) = (self.counts[2] + 1, self.tombstones + 1);
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<(), Option<StoreFault>> {
        match (self.tombstones, self.dead) {
            (0, _) => return Ok(()),
            (_, true) => return Err(None),
            _ => self.seg = None,
        }
        let lens: Vec<_> = self
            .live
            .iter()
            .map(|(&u, (b, _))| (u, [b[0].len(), b[1].len()]))
            .collect();
        let mut moved = Vec::new();
        for (uid, lens) in lens {
            moved.push((uid, self.frames(lens)?));
        }
        for (uid, extents) in moved {
            self.live.get_mut(&uid).unwrap().1 = extents;
        }
        (self.seg, self.tombstones) = (None, 0);
        Ok(())
    }
}

fn outcome<T>(r: Result<T, StoreError>) -> Result<(), Option<StoreFault>> {
    match r {
        Ok(_) => Ok(()),
        Err(StoreError::Injected(f)) => Err(Some(f)),
        Err(StoreError::Dead) => Err(None),
        Err(e) => panic!("unexpected archive error: {e}"),
    }
}

proptest! {
    /// Random creates, in-order / overlapping / gapped chunks and
    /// terminations over small segments, a budget and a fault at a
    /// random append, through the pipeline and through the model: every
    /// call's result and the stats agree, and after `finish()` or a bare
    /// drop the archive holds exactly the model's streams, bytes and
    /// extents — and again after writer-side recovery.
    #[test]
    fn pipeline_matches_a_plain_model_of_the_format(
        ops in proptest::collection::vec((0u8..7, 1u64..6, 0usize..2, 1usize..600), 1..80),
        segment_bytes in 40u64..3000,
        budget in 0u64..5000,
        fault in (0u8..3, 1u64..30),
        finish: bool,
    ) {
        let dir = tmp_dir("pipeline-model");
        let mut cfg = StoreConfig::new(&dir).segment_bytes(segment_bytes);
        if budget > 0 {
            cfg = cfg.disk_budget(budget);
        }
        let mut plan = FaultPlan::new(fault.1);
        plan.store = StoreFaultConfig {
            torn_append_prob: if fault.0 == 2 { 0.05 } else { 0.0 },
            kill_after_appends: if fault.0 == 1 { fault.1 } else { 0 },
        };
        let mut w = StoreWriter::open(cfg.clone()).unwrap();
        w.attach_faults(&plan);
        let mut m = Model {
            cfg,
            inj: plan.store_injector(),
            bufs: HashMap::new(),
            live: BTreeMap::new(),
            seg: None,
            seg_len: 0,
            segments: 0,
            dead: false,
            torn: false,
            tombstones: 0,
            counts: [0; 4],
        };
        let mut generation = [1u64; 6];
        for (kind, slot, dir, len) in ops {
            let uid = generation[slot as usize] * 10 + slot;
            let s = snap(uid, 80, (uid % 3) as u8, uid * 1_000, 0);
            match kind {
                0 => w.stream_created(&s),
                1..=4 => {
                    let buf = &mut m.bufs.entry(uid).or_default()[dir];
                    let offset = match kind {
                        1 => buf.len(),                      // in order
                        2 => buf.len().saturating_sub(2 * len), // a rewrite
                        3 => buf.len().saturating_sub(len / 2), // overlap past the end
                        _ => buf.len() + len / 3,            // a gap
                    };
                    let data = payload(uid + offset as u64, len);
                    place(buf, &data, offset);
                    let d = [Direction::Forward, Direction::Reverse][dir];
                    w.stream_data(&s, d, &data, offset as u64);
                }
                _ => {
                    let want = m.seal(uid);
                    m.counts[3] += u64::from(want.is_err());
                    prop_assert_eq!(outcome(w.stream_terminated(&s)), want);
                    generation[slot as usize] += 1;
                }
            }
        }
        let st = w.stats();
        let counts = [st.streams_archived, st.bytes_archived, st.streams_pruned, st.write_errors];
        prop_assert_eq!(counts, m.counts);
        if finish {
            prop_assert_eq!(outcome(w.finish()), m.finish());
        }
        prop_assert_eq!(w.stats().segments_created, m.segments);
        drop(w);

        let check = |clean: bool| {
            let r = StoreReader::open(&dir).unwrap();
            let uids: Vec<StreamUid> = r.iter().map(|rec| rec.uid).collect();
            assert_eq!(uids, m.live.keys().copied().collect::<Vec<_>>());
            for (&uid, (bufs, extents)) in &m.live {
                assert_eq!(&r.get(uid).unwrap().extents, extents, "stream {uid}");
                assert_eq!(&r.read_stream(uid).unwrap(), bufs, "stream {uid}");
            }
            let report = r.verify().unwrap();
            assert_eq!(report.is_clean(), clean, "{report}");
        };
        check(!m.torn);
        drop(StoreWriter::open(StoreConfig::new(&dir)).unwrap());
        check(true);
    }
}

/// The whole-file segment scan that `scan_segment` replaced: it reads
/// the segment into memory and walks it there. The streaming scan must
/// give the same result on every file.
fn scan_segment_whole(path: &Path) -> Result<SegmentScan, StoreError> {
    let data = std::fs::read(path)?;
    if data.len() < FILE_HEADER_LEN {
        return Ok(SegmentScan {
            id: 0,
            frames: Vec::new(),
            valid_len: 0,
            torn_bytes: data.len() as u64,
        });
    }
    let id = scap_flight::framing::read_file_header(&data, SEG_MAGIC)
        .map_err(|_| StoreError::Corrupt(format!("{}: bad segment header", path.display())))?;
    let word = |at: usize| u32::from_le_bytes(data[at..at + 4].try_into().unwrap());
    let mut frames = Vec::new();
    let mut pos = FILE_HEADER_LEN;
    while pos + FRAME_HEADER_LEN <= data.len() && word(pos) == FRAME_MAGIC {
        let uid = u64::from_le_bytes(data[pos + 4..pos + 12].try_into().unwrap());
        let (dir, len, crc) = (data[pos + 12], word(pos + 16) as usize, word(pos + 20));
        let start = pos + FRAME_HEADER_LEN;
        if dir > 1 || start + len > data.len() || crc32(&data[start..start + len]) != crc {
            break;
        }
        frames.push(FrameInfo {
            uid,
            dir,
            offset: pos as u64,
            len: len as u64,
        });
        pos = start + len;
    }
    Ok(SegmentScan {
        id,
        frames,
        valid_len: pos as u64,
        torn_bytes: (data.len() - pos) as u64,
    })
}

/// A payload length for a frame whose payload starts at file offset
/// `at`: empty, small, ending within two bytes either side of a
/// read-piece boundary, or up to a few pieces long.
fn frame_len(kind: u8, raw: u32, at: usize) -> usize {
    let raw = raw as usize;
    match kind % 4 {
        0 => 0,
        1 => raw % 300,
        2 => {
            let boundary = (at / SCAN_PIECE + 1 + raw % 2) * SCAN_PIECE;
            (boundary + raw % 5).saturating_sub(at + 2)
        }
        _ => raw % (3 * SCAN_PIECE + 1000),
    }
}

/// A segment of `frames` (length kind, direction, seed) and the offset
/// of each frame header in it.
fn build_segment(frames: &[(u8, u8, u32)]) -> (Vec<u8>, Vec<usize>) {
    let mut seg = file_header(SEG_MAGIC, 7).to_vec();
    let mut starts = Vec::new();
    for (i, &(kind, dir, raw)) in frames.iter().enumerate() {
        let uid = u64::from(raw) * 8 + i as u64;
        let body = payload(uid, frame_len(kind, raw, seg.len() + FRAME_HEADER_LEN));
        let d = [Direction::Forward, Direction::Reverse][usize::from(dir % 2)];
        starts.push(seg.len());
        seg.extend_from_slice(&frame_header(uid, d, &body));
        seg.extend_from_slice(&body);
    }
    (seg, starts)
}

/// Damage a segment the ways a crash, a bad disk or a bad copy does.
fn mutate(seg: &mut Vec<u8>, starts: &[usize], kind: u8, at: u32, sub: u8) {
    let (at, aimed) = (at as usize, sub.is_multiple_of(2));
    // A frame header to aim at (none in a segment without frames).
    let frame = starts.get(at % starts.len().max(1)).copied();
    match (kind % 7, frame) {
        // Truncation anywhere, or just around a frame boundary (inside
        // the previous payload, at the boundary, inside the header,
        // right after it).
        (1, Some(f)) if aimed => {
            let cut = (f + [0, 1, 23, 24, 25][usize::from(sub / 2) % 5]).saturating_sub(1);
            seg.truncate(cut.min(seg.len()));
        }
        (1, _) => seg.truncate(at % (seg.len() + 1)),
        // One bit flipped: in a frame header, or anywhere.
        (2, Some(f)) if aimed => {
            seg[f + at % FRAME_HEADER_LEN] ^= 1 << (sub % 8);
        }
        (2, _) => {
            let pos = at % seg.len();
            seg[pos] ^= 1 << (sub % 8);
        }
        (3, Some(f)) => seg[f] ^= 0xFF,
        (4, Some(f)) => seg[f + 12] = 2,
        // A length that runs past the end of the file.
        (5, Some(f)) => {
            let past = (seg.len() - f - FRAME_HEADER_LEN) as u32 + 1 + at as u32 % 1000;
            let len = if aimed { past } else { u32::MAX };
            seg[f + 16..f + 20].copy_from_slice(&len.to_le_bytes());
        }
        // A copy of one frame spliced in at a frame boundary, or anywhere.
        (6, Some(f)) => {
            let end = starts
                .iter()
                .find(|&&s| s > f)
                .copied()
                .unwrap_or(seg.len());
            let copy = seg[f..end].to_vec();
            let to = if aimed {
                starts[usize::from(sub) % starts.len()]
            } else {
                at % (seg.len() + 1)
            };
            seg.splice(to..to, copy);
        }
        _ => {}
    }
}

proptest! {
    /// The streaming scan and the whole-file scan it replaced agree on
    /// every segment: clean ones of 0–6 frames whose payloads straddle
    /// the read buffer, and ones truncated, bit-flipped, with a bad
    /// magic, a direction of 2, a length past the end or a frame
    /// spliced in.
    #[test]
    fn streaming_scan_matches_the_whole_file_scan(
        frames in proptest::collection::vec((0u8..4, 0u8..2, any::<u32>()), 0..7),
        damage in (0u8..7, any::<u32>(), any::<u8>()),
    ) {
        let dir = tmp_dir("scan-differential");
        std::fs::create_dir_all(&dir).unwrap();
        let (mut seg, starts) = build_segment(&frames);
        let (kind, at, sub) = damage;
        mutate(&mut seg, &starts, kind, at, sub);
        let path = dir.join("seg-000007.scapseg");
        std::fs::write(&path, &seg).unwrap();
        let text = |r: Result<SegmentScan, StoreError>| r.map_err(|e| e.to_string());
        let streamed = text(scan_segment(&path));
        prop_assert_eq!(&streamed, &text(scan_segment_whole(&path)));
        if kind == 0 {
            let scan = streamed.unwrap();
            prop_assert_eq!(scan.frames.len(), frames.len());
            prop_assert_eq!((scan.valid_len, scan.torn_bytes), (seg.len() as u64, 0));
        }
    }

    /// `crc32_update` continues a CRC across any split of its input.
    #[test]
    fn crc32_update_continues_across_a_split(
        bytes in proptest::collection::vec(any::<u8>(), 0..600),
        at in 0usize..601,
    ) {
        let (a, b) = bytes.split_at(at.min(bytes.len()));
        prop_assert_eq!(crc32_update(crc32(a), b), crc32(&bytes));
    }
}

/// A frame header and an index record that agree on a 4 GiB length get
/// `Corrupt` from the reader before it allocates a byte for them.
#[test]
fn an_extent_longer_than_its_segment_is_corrupt() {
    let dir = tmp_dir("huge-extent");
    std::fs::create_dir_all(&dir).unwrap();
    let (uid, len) = (5, 0xFFFF_FF00u32);
    let mut seg = file_header(SEG_MAGIC, 1).to_vec();
    let mut h = frame_header(uid, Direction::Forward, &[]);
    h[16..20].copy_from_slice(&len.to_le_bytes());
    seg.extend_from_slice(&h);
    seg.extend_from_slice(&payload(uid, 100));
    std::fs::write(segment_path(&dir, 1), &seg).unwrap();
    let extent = Extent {
        segment: 1,
        offset: FILE_HEADER_LEN as u64,
        len: u64::from(len),
    };
    let rec =
        IndexRecord::from_snapshot(&snap(uid, 80, 0, 1_000, 100), [extent, Extent::default()]);
    let mut idx = file_header(IDX_MAGIC, 0).to_vec();
    idx.extend_from_slice(&frame_record(&encode_stream_body(&rec)));
    std::fs::write(dir.join(INDEX_FILE), &idx).unwrap();

    let r = StoreReader::open(&dir).unwrap();
    assert_eq!(
        r.get(uid).map(|rec| rec.extents[0].len),
        Some(u64::from(len))
    );
    match r.read_stream(uid) {
        Err(StoreError::Corrupt(why)) => assert!(why.contains("past the segment's end"), "{why}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

/// An index record with every field drawn from `seed`.
fn arb_index_record(seed: u64) -> IndexRecord {
    let mut state = seed;
    let mut next = || {
        state = scap_wire::splitmix64(state);
        state
    };
    let mut dirs = [DirStats::default(); 2];
    for d in &mut dirs {
        *d = DirStats {
            total_pkts: next(),
            total_bytes: next(),
            captured_bytes: next(),
            captured_pkts: next(),
            discarded_pkts: next(),
            discarded_bytes: next(),
            dropped_pkts: next(),
            dropped_bytes: next(),
        };
    }
    let [a, b, ports, proto] = [next(), next(), next(), next()];
    let key = if a & 1 == 0 {
        FlowKey::new_v4(
            (a as u32).to_le_bytes(),
            (b as u32).to_le_bytes(),
            ports as u16,
            (ports >> 16) as u16,
            Transport::from(proto as u8),
        )
    } else {
        let wide = |x: u64| {
            [x.to_le_bytes(), x.to_be_bytes()]
                .concat()
                .try_into()
                .unwrap()
        };
        let (sp, dp) = (ports as u16, (ports >> 16) as u16);
        FlowKey::new_v6(wide(a), wide(b), sp, dp, Transport::from(proto as u8))
    };
    let extent = |s: u64, o: u64, l: u64| Extent {
        segment: s,
        offset: o,
        len: l,
    };
    let statuses = [
        StreamStatus::Active,
        StreamStatus::ClosedFin,
        StreamStatus::ClosedRst,
        StreamStatus::ClosedTimeout,
    ];
    IndexRecord {
        uid: next(),
        key,
        first_dir: [Direction::Forward, Direction::Reverse][(next() % 2) as usize],
        status: statuses[(next() % 4) as usize],
        errors: StreamErrors(next() as u8),
        priority: next() as u8,
        cutoff_exceeded: next() % 2 == 1,
        first_ts_ns: next(),
        last_ts_ns: next(),
        chunks: next(),
        dirs,
        extents: [
            extent(next(), next(), next()),
            extent(next(), next(), next()),
        ],
    }
}

/// An index record must end where its fields do: a CRC-clean record with
/// one byte appended is torn, like everything after it.
#[test]
fn an_index_record_with_trailing_bytes_is_torn() {
    let dir = tmp_dir("idx-trailing");
    std::fs::create_dir_all(&dir).unwrap();
    let good = frame_record(&encode_tombstone_body(7));
    let mut long = encode_stream_body(&arb_index_record(3));
    long.push(0);
    assert!(decode_body(&long).is_err());
    let mut data = file_header(IDX_MAGIC, 0).to_vec();
    data.extend_from_slice(&good);
    data.extend_from_slice(&frame_record(&long));
    data.extend_from_slice(&good);
    let path = dir.join(INDEX_FILE);
    std::fs::write(&path, &data).unwrap();
    let scan = scan_index(&path).unwrap();
    assert_eq!(scan.entries, vec![IndexEntry::Tombstone(7)]);
    assert_eq!(scan.valid_len, (FILE_HEADER_LEN + good.len()) as u64);
    assert_eq!(scan.torn_bytes, data.len() as u64 - scan.valid_len);
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    /// An index stream record reads back as itself.
    #[test]
    fn index_stream_records_round_trip(seed: u64) {
        let rec = arb_index_record(seed);
        let back = decode_body(&encode_stream_body(&rec)).unwrap();
        prop_assert_eq!(back, IndexEntry::Stream(Box::new(rec)));
    }

    /// An index tombstone reads back as itself.
    #[test]
    fn index_tombstones_round_trip(uid: u64) {
        let back = decode_body(&encode_tombstone_body(uid)).unwrap();
        prop_assert_eq!(back, IndexEntry::Tombstone(uid));
    }
}
