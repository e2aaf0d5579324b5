//! On-disk compatibility: the files under `tests/fixtures/` were written
//! by the code at commit 46c75b1 — before the CRC kernel was sliced and
//! the checkpoint encoder rewritten to frame records in place — from the
//! hand-built trace below (see `tests/fixtures/README.md`). Today's code
//! must decode each of them, re-encode the checkpoint byte for byte, and
//! produce the same files from the same trace, so a format drift in the
//! framing, the CRC or an encoder fails here rather than at a later
//! restart.

use scap::checkpoint::CheckpointImage;
use scap::{ReassemblyMode, ScapConfig, ScapKernel};
use scap_store::{StoreConfig, StoreReader, StoreWriter};
use scap_trace::Packet;
use scap_wire::{PacketBuilder, TcpFlags};
use std::path::{Path, PathBuf};

const CLIENT: [u8; 4] = [10, 0, 0, 1];
const SERVER: [u8; 4] = [93, 184, 216, 34];

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name)
}

/// Deterministic payload bytes for (`tag`, stream offset).
fn payload(tag: u8, off: u32, len: usize) -> Vec<u8> {
    (0..len as u32)
        .map(|i| tag ^ ((off + i).wrapping_mul(31) >> 3) as u8)
        .collect()
}

/// One TCP segment; `up` is client → server. Sequence numbers are
/// stream-relative (ISN 1000 client, 5000 server).
fn seg(
    ts: u64,
    cport: u16,
    sport: u16,
    up: bool,
    rel: u32,
    flags: TcpFlags,
    data: &[u8],
) -> Packet {
    let (seq, ack) = if up {
        (1000 + rel, 5001)
    } else {
        (5000 + rel, 1001)
    };
    let frame = if up {
        PacketBuilder::tcp_v4(CLIENT, SERVER, cport, sport, seq, ack, flags, data)
    } else {
        PacketBuilder::tcp_v4(SERVER, CLIENT, sport, cport, seq, ack, flags, data)
    };
    Packet::new(ts, frame)
}

fn handshake(ts: u64, cport: u16, sport: u16) -> Vec<Packet> {
    vec![
        seg(ts, cport, sport, true, 0, TcpFlags::SYN, &[]),
        seg(
            ts + 1_000,
            cport,
            sport,
            false,
            0,
            TcpFlags::SYN | TcpFlags::ACK,
            &[],
        ),
        seg(ts + 2_000, cport, sport, true, 1, TcpFlags::ACK, &[]),
    ]
}

/// Stream A (port 80): a request, then a response whose fourth segment
/// never arrives — two 2 KiB chunks delivered, a partial chunk pending
/// and one out-of-order segment buffered when the capture stops.
fn stream_a() -> Vec<Packet> {
    let mut p = handshake(1_000_000, 40_001, 80);
    p.push(seg(
        1_010_000,
        40_001,
        80,
        true,
        1,
        TcpFlags::ACK | TcpFlags::PSH,
        &payload(0xA1, 0, 300),
    ));
    for i in 0..3u32 {
        let off = i * 1400;
        p.push(seg(
            1_020_000 + u64::from(i) * 1_000,
            40_001,
            80,
            false,
            1 + off,
            TcpFlags::ACK,
            &payload(0xA2, off, 1400),
        ));
    }
    // Skips [4200, 5600): buffered out of order.
    p.push(seg(
        1_030_000,
        40_001,
        80,
        false,
        1 + 5600,
        TcpFlags::ACK,
        &payload(0xA2, 5600, 700),
    ));
    p
}

/// Stream B (port 443): 5,000 client bytes and 900 server bytes, closed
/// by a FIN exchange.
fn stream_b() -> Vec<Packet> {
    let mut p = handshake(2_000_000, 40_002, 443);
    for i in 0..5u32 {
        let off = i * 1000;
        p.push(seg(
            2_010_000 + u64::from(i) * 1_000,
            40_002,
            443,
            true,
            1 + off,
            TcpFlags::ACK,
            &payload(0xB1, off, 1000),
        ));
    }
    p.push(seg(
        2_020_000,
        40_002,
        443,
        false,
        1,
        TcpFlags::ACK | TcpFlags::PSH,
        &payload(0xB2, 0, 900),
    ));
    p.push(seg(
        2_030_000,
        40_002,
        443,
        true,
        5001,
        TcpFlags::FIN | TcpFlags::ACK,
        &[],
    ));
    p.push(seg(
        2_031_000,
        40_002,
        443,
        false,
        901,
        TcpFlags::FIN | TcpFlags::ACK,
        &[],
    ));
    p.push(seg(2_032_000, 40_002, 443, true, 5002, TcpFlags::ACK, &[]));
    p
}

fn config() -> ScapConfig {
    let mut cfg = ScapConfig {
        chunk_size: 2048,
        cores: 2,
        reassembly_mode: ReassemblyMode::Strict,
        ..ScapConfig::default()
    };
    cfg.cutoff.default = Some(1 << 20);
    cfg
}

/// Run `trace` through a kernel, handing every event to `on_event` and
/// taking a checkpoint once each of `ckpt_after` packets are in.
fn drive(
    trace: &[Packet],
    finish: bool,
    ckpt_after: &[usize],
    mut on_event: impl FnMut(&scap::Event),
) -> (ScapKernel, u64) {
    let mut kernel = ScapKernel::new(config());
    let mut now = 0;
    for (i, pkt) in trace.iter().enumerate() {
        now = pkt.ts_ns;
        kernel.nic_receive(pkt);
        kernel.service(now, |k, ev| {
            on_event(&ev);
            k.release_event(ev);
        });
        if let Some(n) = ckpt_after.iter().position(|&after| after == i + 1) {
            kernel.checkpoint_bytes(now, n as u64 + 1);
        }
    }
    if finish {
        now += 1_000_000;
        kernel.finish(now);
        for core in 0..kernel.ncores() {
            while let Some(ev) = kernel.next_event(core) {
                on_event(&ev);
                kernel.release_event(ev);
            }
        }
    }
    (kernel, now)
}

/// The checkpoint and the flight journal of a capture stopped with
/// stream A half-delivered, stream B closed and a lone UDP datagram.
/// Checkpoints taken on the way (`earlier`, in packets fed) must not
/// show in the image; the journal records every one.
fn build_checkpoint_and_journal(earlier: &[usize]) -> (Vec<u8>, Vec<u8>) {
    let mut trace = stream_b();
    trace.push(Packet::new(
        2_500_000,
        PacketBuilder::udp_v4(CLIENT, [8, 8, 8, 8], 5353, 53, &payload(0xC1, 0, 48)),
    ));
    trace.extend(stream_a());
    trace.sort_by_key(|p| p.ts_ns);
    let (mut kernel, now) = drive(&trace, false, earlier, |_| {});
    let ckpt = kernel.checkpoint_bytes(now, 3);
    (ckpt, kernel.flight().encode())
}

/// A two-stream archive: streams A and B captured to the end.
fn build_archive(dir: &Path) {
    let mut trace = stream_a();
    trace.extend(stream_b());
    let mut writer = StoreWriter::open(StoreConfig::new(dir)).unwrap();
    drive(&trace, true, &[], |ev| writer.observe(ev).unwrap());
    writer.finish().unwrap();
}

fn tmp_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("scap-fixtures-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn checkpoint_fixture_decodes_and_re_encodes_byte_identically() {
    let old = std::fs::read(fixture("ckpt_v1.bin")).unwrap();
    let img = CheckpointImage::decode(&old).expect("parent-written checkpoint decodes");
    assert_eq!(img.seq, 3);
    // The image holds what the trace left behind: a pending partial
    // chunk and a buffered out-of-order segment on stream A.
    let live: Vec<_> = img
        .streams
        .iter()
        .filter_map(|s| s.kstate.as_ref())
        .collect();
    assert!(live
        .iter()
        .any(|ks| ks.asm.iter().flatten().any(|a| !a.pending.is_empty())));
    assert!(live.iter().any(|ks| ks
        .conn
        .as_ref()
        .is_some_and(|c| c.dirs.iter().any(|d| !d.segments.is_empty()))));
    assert_eq!(
        img.to_bytes(),
        old,
        "re-encode drifted from the parent's bytes"
    );

    let (fresh, _) = build_checkpoint_and_journal(&[]);
    assert_eq!(fresh, old, "same trace no longer yields the parent's image");
    // … nor does it from a kernel that has taken two checkpoints on the
    // way: one with stream A's response under way, one with A stopped
    // and B's close under way. The last image then copies A's frame —
    // pending chunk, buffered segment and all — and encodes the rest.
    let (third, _) = build_checkpoint_and_journal(&[6, 19]);
    assert_eq!(third, old, "earlier checkpoints changed the image");
    ScapKernel::from_image(img, None).expect("fixture image restores");
}

#[test]
fn archive_fixture_verifies_clean_and_reads_back() {
    let dir = fixture("archive_v1");
    let reader = StoreReader::open(&dir).unwrap();
    let report = reader.verify().unwrap();
    assert!(report.is_clean(), "{report}");
    assert_eq!(reader.len(), 2);
    let a = reader.query("port 80").unwrap()[0].uid;
    let [up, down] = reader.read_stream(a).unwrap();
    assert_eq!(up, payload(0xA1, 0, 300));
    // The capture ended with the hole open: the final flush delivers
    // the buffered segment right behind the in-order bytes.
    assert_eq!(down[..4200], payload(0xA2, 0, 4200)[..]);
    assert_eq!(down[4200..], payload(0xA2, 5600, 700)[..]);
    let b = reader.query("port 443").unwrap()[0].uid;
    let [up, down] = reader.read_stream(b).unwrap();
    assert_eq!(up, payload(0xB1, 0, 5000));
    assert_eq!(down, payload(0xB2, 0, 900));

    let fresh = tmp_dir("archive");
    build_archive(&fresh);
    let mut names: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    names.sort();
    let mut fresh_names: Vec<_> = std::fs::read_dir(&fresh)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    fresh_names.sort();
    assert_eq!(names, fresh_names);
    assert_eq!(names.len(), 2, "one segment and the index");
    for n in &names {
        assert_eq!(
            std::fs::read(fresh.join(n)).unwrap(),
            std::fs::read(dir.join(n)).unwrap(),
            "{n:?} drifted from the parent's bytes"
        );
    }
    std::fs::remove_dir_all(&fresh).ok();
}

#[test]
fn flight_journal_fixture_decodes_and_is_reproduced() {
    let old = std::fs::read(fixture("journal_v1.flight")).unwrap();
    let j = scap::flight::decode_journal(&old).expect("parent-written journal decodes");
    assert_eq!(j.torn_bytes, 0);
    assert_eq!(j.ncores, 2);
    assert!(j
        .events
        .iter()
        .any(|e| e.kind == scap::flight::FlightKind::CheckpointWritten));
    let (_, fresh) = build_checkpoint_and_journal(&[]);
    assert_eq!(
        fresh, old,
        "same trace no longer yields the parent's journal"
    );
}
