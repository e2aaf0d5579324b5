//! Round-trip properties of the persistent stream archive (`scap-store`).
//!
//! A synchronous kernel drive over a seeded campus mix feeds a
//! [`StoreWriter`] the exact dispatch-path events, while the test keeps
//! its own copy of every delivered byte. Three properties are checked:
//!
//! 1. **Byte fidelity** — every stream read back from the archive is
//!    byte-identical to what the capture delivered (post-cutoff).
//! 2. **Query equivalence** — an index-only BPF query returns exactly the
//!    streams a live `scap-filter` match over the snapshots would.
//! 3. **Determinism** — the same seed produces a byte-identical archive
//!    (index file and all segment files).

use scap::{EventKind, ScapConfig, ScapKernel, StreamSnapshot};
use scap_filter::Filter;
use scap_store::{StoreConfig, StoreReader, StoreWriter};
use scap_trace::gen::{CampusMix, CampusMixConfig};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

fn tmp_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "scap-store-roundtrip-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// What the capture actually delivered, per stream.
struct Truth {
    /// Reassembled payload per (uid, direction), placed at chunk offsets
    /// exactly as the writer places it.
    data: HashMap<(u64, usize), Vec<u8>>,
    /// Final snapshot per terminated stream.
    snaps: HashMap<u64, StreamSnapshot>,
}

/// Drive the kernel synchronously over a seeded campus mix, feeding the
/// archive writer and recording ground truth from the same events.
fn drive(seed: u64, dir: &Path) -> (Truth, scap_store::StoreStats) {
    let trace = CampusMix::new(CampusMixConfig::sized(seed, 512 << 10)).collect_all();
    let mut cfg = ScapConfig {
        inactivity_timeout_ns: 500_000_000,
        ..ScapConfig::default()
    };
    cfg.cutoff.default = Some(8 << 10);
    cfg.priorities
        .classes
        .push((Filter::new("port 80").unwrap(), 1));
    cfg.ppl.num_priorities = 2;
    let mut kernel = ScapKernel::new(cfg);
    let mut writer = StoreWriter::open(StoreConfig::new(dir)).unwrap();

    let mut truth = Truth {
        data: HashMap::new(),
        snaps: HashMap::new(),
    };
    let mut sink = |kernel: &mut ScapKernel, ev: scap::Event| {
        writer.observe(&ev).unwrap();
        match &ev.kind {
            EventKind::Created => {}
            EventKind::Terminated => {
                truth.snaps.insert(ev.stream.uid, ev.stream.clone());
            }
            EventKind::Data { dir, chunk, .. } => {
                let buf = truth.data.entry((ev.stream.uid, dir.index())).or_default();
                let off = chunk.start_offset as usize;
                let end = off + chunk.bytes().len();
                if buf.len() < end {
                    buf.resize(end, 0);
                }
                buf[off..end].copy_from_slice(chunk.bytes());
            }
        }
        kernel.release_event(ev);
    };

    let mut now = 0;
    for pkt in &trace {
        now = pkt.ts_ns;
        kernel.nic_receive(pkt);
        kernel.service(now, &mut sink);
    }
    let end = now.saturating_add(1);
    kernel.finish(end);
    kernel.drain_events(end, &mut sink);
    let stats = writer.finish().unwrap();
    (truth, stats)
}

#[test]
fn archived_streams_are_byte_identical_to_delivery() {
    let dir = tmp_dir("fidelity");
    let (truth, stats) = drive(11, &dir);
    assert!(
        !truth.snaps.is_empty(),
        "workload produced no terminated streams"
    );
    assert_eq!(stats.streams_archived as usize, truth.snaps.len());
    assert_eq!(stats.write_errors, 0);

    let reader = StoreReader::open(&dir).unwrap();
    assert_eq!(reader.len(), truth.snaps.len());
    assert!(reader.verify().unwrap().is_clean());

    let mut delivered_bytes = 0u64;
    for (uid, snap) in &truth.snaps {
        let rec = reader.get(*uid).expect("terminated stream must be indexed");
        assert_eq!(rec.key, snap.key.canonical().0);
        assert_eq!(rec.priority, snap.priority);
        assert_eq!(rec.first_ts_ns, snap.first_ts_ns);
        assert_eq!(rec.last_ts_ns, snap.last_ts_ns);
        let back = reader.read_stream(*uid).unwrap();
        for (di, got) in back.iter().enumerate() {
            let want = truth
                .data
                .get(&(*uid, di))
                .map(Vec::as_slice)
                .unwrap_or(&[]);
            assert_eq!(
                got, &want,
                "uid {uid} dir {di}: archive bytes differ from delivery"
            );
            delivered_bytes += want.len() as u64;
        }
    }
    assert_eq!(stats.bytes_archived, delivered_bytes);
    assert!(delivered_bytes > 0, "cutoff capture delivered no payload");
}

#[test]
fn index_query_matches_live_filter_over_snapshots() {
    let dir = tmp_dir("query");
    let (truth, _stats) = drive(12, &dir);
    let reader = StoreReader::open(&dir).unwrap();

    for expr in [
        "tcp and port 80",
        "udp",
        "port 53",
        "tcp and portrange 1000-9999",
    ] {
        let f = Filter::new(expr).unwrap();
        let mut want: Vec<u64> = truth
            .snaps
            .values()
            .filter(|s| f.matches_key(&s.key) || f.matches_key(&s.key.reversed()))
            .map(|s| s.uid)
            .collect();
        want.sort_unstable();
        let mut got: Vec<u64> = reader.query(expr).unwrap().iter().map(|r| r.uid).collect();
        got.sort_unstable();
        assert_eq!(got, want, "query {expr:?} diverges from live filter");
    }
}

fn append_garbage(path: &Path, n: usize) {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new().append(true).open(path).unwrap();
    f.write_all(&vec![0xA5u8; n]).unwrap();
}

/// Open-time recovery removes exactly the torn tail, once: a second
/// repair pass over the repaired archive is a no-op.
#[test]
fn archive_torn_tail_repair_is_idempotent() {
    let dir = tmp_dir("repair-idem");
    drive(14, &dir);

    // Tear both file families with garbage appended past the last valid
    // record/frame (a crash mid-append).
    const TORN: usize = 137;
    append_garbage(&dir.join(scap_store::INDEX_FILE), TORN);
    let seg = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.file_name().unwrap() != scap_store::INDEX_FILE)
        .expect("archive has at least one segment file");
    append_garbage(&seg, TORN);

    // First reopen repairs exactly the torn bytes…
    let w = StoreWriter::open(StoreConfig::new(&dir)).unwrap();
    assert_eq!(w.stats().torn_tail_bytes_recovered, 2 * TORN as u64);
    drop(w);
    // …and a second repair pass finds nothing left to remove.
    let w = StoreWriter::open(StoreConfig::new(&dir)).unwrap();
    assert_eq!(w.stats().torn_tail_bytes_recovered, 0);
    drop(w);
    assert!(StoreReader::open(&dir)
        .unwrap()
        .verify()
        .unwrap()
        .is_clean());
}

/// Checkpoint files share the archive's frame format and its repair
/// contract: truncating the torn tail is exact and idempotent.
#[test]
fn checkpoint_repair_is_idempotent() {
    use scap::checkpoint;
    let dir = tmp_dir("ckpt-repair");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("scap.ckpt");

    // A checkpoint taken mid-capture over a seeded campus mix.
    let trace =
        scap_trace::gen::CampusMix::new(scap_trace::gen::CampusMixConfig::sized(15, 128 << 10))
            .collect_all();
    let mut kernel = ScapKernel::new(ScapConfig::default());
    let mut now = 0;
    for pkt in &trace[..trace.len() / 2] {
        now = pkt.ts_ns;
        kernel.nic_receive(pkt);
        kernel.service(now, |k, ev| k.release_event(ev));
    }
    let bytes = kernel.checkpoint_bytes(now, 7);
    checkpoint::write_atomic(&path, &bytes).unwrap();
    append_garbage(&path, 91);

    let r1 = checkpoint::repair_file(&path).unwrap();
    assert_eq!(r1.torn_bytes_removed, 91);
    assert_eq!(checkpoint::read_image(&path).unwrap().seq, 7);
    let r2 = checkpoint::repair_file(&path).unwrap();
    assert_eq!(r2.torn_bytes_removed, 0, "second repair must be a no-op");
    assert_eq!(
        std::fs::read(&path).unwrap(),
        bytes,
        "repair must restore the exact pre-crash bytes"
    );
}

#[test]
fn same_seed_produces_byte_identical_archive() {
    let da = tmp_dir("det-a");
    let db = tmp_dir("det-b");
    drive(13, &da);
    drive(13, &db);

    let mut names: Vec<String> = std::fs::read_dir(&da)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    let mut names_b: Vec<String> = std::fs::read_dir(&db)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names_b.sort();
    assert_eq!(names, names_b, "archive file sets differ");
    assert!(names.contains(&scap_store::INDEX_FILE.to_string()));
    for n in &names {
        let a = std::fs::read(da.join(n)).unwrap();
        let b = std::fs::read(db.join(n)).unwrap();
        assert_eq!(a, b, "file {n} differs between same-seed runs");
    }
}
