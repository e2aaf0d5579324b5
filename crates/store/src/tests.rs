//! End-to-end writer/reader tests over real temp directories.

use crate::{StoreConfig, StoreError, StoreReader, StoreWriter};
use scap::{StreamSnapshot, StreamUid};
use scap_faults::{FaultPlan, StoreFault, StoreFaultConfig};
use scap_flow::{DirStats, StreamErrors, StreamStatus};
use scap_telemetry::Metric;
use scap_wire::{Direction, FlowKey, Transport};
use std::path::PathBuf;

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
    let before = std::fs::metadata(crate::segment_path(&dir, 0))
        .unwrap()
        .len();
    let stats = w.finish().unwrap();
    assert_eq!(stats.streams_pruned, 1);
    assert_eq!(stats.bytes_pruned, 600);
    assert_eq!(stats.by_priority.get(&0).unwrap().pruned, 1);
    assert_eq!(stats.by_priority.get(&2).unwrap().pruned, 0);
    assert!((stats.discard_ratio(0) - 1.0).abs() < f64::EPSILON);
    // finish() compacted the tombstone away and reclaimed segment bytes.
    assert!(stats.bytes_reclaimed > 0, "{stats:?} (seg was {before}B)");
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
