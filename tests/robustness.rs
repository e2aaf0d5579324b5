//! Robustness: the capture pipeline must never panic, whatever arrives
//! from the wire — garbage frames, truncated headers, malformed options,
//! adversarial sequence numbers — and IPv6 traffic must flow through the
//! same paths as IPv4.

use proptest::prelude::*;
use scap::apps::StreamTouchApp;
use scap::checkpoint::{frame_record, FILE_HEADER_LEN, REC_HEADER_LEN};
use scap::{Scap, ScapConfig, ScapKernel, ScapSimStack, StreamCtx};
use scap_bench::common::oracle_engine;
use scap_trace::Packet;
use scap_wire::{parse_frame, PacketBuilder, TcpFlags};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

proptest! {
    /// Wire parsing never panics on arbitrary bytes.
    #[test]
    fn parse_frame_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = parse_frame(&bytes);
    }

    /// Compiled filters never panic on arbitrary frames, and agree with
    /// the AST evaluator when the frame parses.
    #[test]
    fn filters_never_panic_on_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..128),
        which in 0usize..6,
    ) {
        let exprs = ["tcp", "port 80", "host 10.0.0.1", "net 192.168.0.0/16",
                     "udp and dst port 53", "not (tcp or udp)"];
        let f = scap_filter::Filter::new(exprs[which]).unwrap();
        let _ = f.matches_frame(&bytes);
    }

    /// The full kernel survives arbitrary frame bytes: nothing panics,
    /// and every frame is accounted for.
    #[test]
    fn kernel_survives_garbage_frames(
        frames in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200), 1..60),
    ) {
        let mut kernel = ScapKernel::new(ScapConfig::default());
        let n = frames.len() as u64;
        for (i, f) in frames.into_iter().enumerate() {
            kernel.nic_receive(&Packet::new(i as u64 * 1000, f));
            kernel.service(i as u64 * 1000, |k, ev| k.release_event(ev));
        }
        kernel.finish(u64::MAX / 2);
        let st = kernel.stats();
        prop_assert_eq!(st.stack.wire_packets, n);
    }

    /// Truncating a valid TCP frame at any byte never panics anywhere in
    /// the pipeline.
    #[test]
    fn truncated_frames_never_panic(cut in 0usize..100) {
        let frame = PacketBuilder::tcp_v4(
            [10, 0, 0, 1], [10, 0, 0, 2], 1000, 80, 1, 1,
            TcpFlags::ACK | TcpFlags::PSH, &[0x41; 64],
        );
        let cut = cut.min(frame.len());
        let mut kernel = ScapKernel::new(ScapConfig::default());
        kernel.nic_receive(&Packet::new(0, frame[..cut].to_vec()));
        kernel.service(0, |k, ev| k.release_event(ev));
        kernel.finish(1);
    }

    /// IPv6 frames with a mangled next-header byte and arbitrary bytes
    /// where extension headers / payload would sit: parsed or rejected,
    /// never a panic, and every frame accounted for.
    #[test]
    fn ipv6_extension_header_garbage_never_panics(
        next_header in any::<u8>(),
        garbage in proptest::collection::vec(any::<u8>(), 0..120),
    ) {
        let mut frame = PacketBuilder::tcp_v6(
            [0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
            [0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2],
            4000, 443, 1, 1, TcpFlags::ACK, &[0x42; 32],
        );
        // Byte 6 of the IPv6 header (after the 14-byte Ethernet header)
        // is Next Header; arbitrary values turn the TCP header into a
        // bogus extension-header chain.
        frame[14 + 6] = next_header;
        frame.truncate(14 + 40);
        frame.extend_from_slice(&garbage);
        let mut kernel = ScapKernel::new(ScapConfig::default());
        kernel.nic_receive(&Packet::new(0, frame));
        kernel.service(0, |k, ev| k.release_event(ev));
        kernel.finish(1);
        let st = kernel.stats().stack;
        prop_assert_eq!(st.wire_packets, 1);
        prop_assert_eq!(
            st.delivered_packets + st.dropped_packets + st.discarded_packets, 1
        );
    }

    /// Mid-stream timestamp regressions (a clock stepping backwards, a
    /// capture card reordering batches) never panic the timer machinery,
    /// and conservation still holds.
    #[test]
    fn midstream_timestamp_regressions_never_panic(
        jumps in proptest::collection::vec((0u64..2_000_000_000, any::<bool>()), 1..20),
    ) {
        let c = [10, 0, 0, 1];
        let s = [10, 0, 0, 2];
        let mut kernel = ScapKernel::new(ScapConfig::default());
        let feed = |kernel: &mut ScapKernel, now: u64, frame: Vec<u8>| {
            kernel.nic_receive(&Packet::new(now, frame));
            kernel.service(now, |k, ev| k.release_event(ev));
        };
        feed(&mut kernel, 1_000_000_000,
             PacketBuilder::tcp_v4(c, s, 5, 80, 100, 0, TcpFlags::SYN, b""));
        feed(&mut kernel, 1_001_000_000,
             PacketBuilder::tcp_v4(s, c, 80, 5, 900, 101, TcpFlags::SYN | TcpFlags::ACK, b""));
        let mut now = 1_002_000_000u64;
        let mut seq = 101u32;
        let mut n = 0u64;
        for (delta, back) in jumps {
            now = if back { now.saturating_sub(delta) } else { now.saturating_add(delta) };
            feed(&mut kernel, now,
                 PacketBuilder::tcp_v4(c, s, 5, 80, seq, 901, TcpFlags::ACK | TcpFlags::PSH, &[0x43; 100]));
            seq = seq.wrapping_add(100);
            n += 1;
        }
        kernel.finish(now.saturating_add(1));
        let st = kernel.stats().stack;
        prop_assert_eq!(st.wire_packets, n + 2);
        prop_assert_eq!(
            st.delivered_packets + st.dropped_packets + st.discarded_packets,
            n + 2
        );
    }
}

/// One real checkpoint from a seeded partial capture (memoized — the
/// proptest properties below re-use the same handful of seeds).
fn sample_checkpoint(seed: u64) -> Vec<u8> {
    use scap_trace::gen::{CampusMix, CampusMixConfig};
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    static CACHE: OnceLock<Mutex<HashMap<u64, Vec<u8>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(b) = cache.lock().unwrap().get(&seed) {
        return b.clone();
    }
    let trace = CampusMix::new(CampusMixConfig::sized(seed, 256 << 10)).collect_all();
    let mut kernel = ScapKernel::new(ScapConfig::default());
    let mut now = 0;
    for pkt in &trace[..trace.len() / 2] {
        now = pkt.ts_ns;
        kernel.nic_receive(pkt);
        kernel.service(now, |k, ev| k.release_event(ev));
    }
    let bytes = kernel.checkpoint_bytes(now, 1);
    cache.lock().unwrap().insert(seed, bytes.clone());
    bytes
}

/// The record bodies of a checkpoint, in file order.
fn record_bodies(bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut bodies = Vec::new();
    let mut at = FILE_HEADER_LEN;
    while at < bytes.len() {
        let len = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap()) as usize;
        let body = at + REC_HEADER_LEN;
        bodies.push(bytes[body..body + len].to_vec());
        at = body + len;
    }
    bodies
}

/// A checkpoint with `bytes`' file header and `bodies` as its records,
/// every one framed with a valid CRC.
fn reframed(bytes: &[u8], bodies: &[Vec<u8>]) -> Vec<u8> {
    let mut out = bytes[..FILE_HEADER_LEN].to_vec();
    for body in bodies {
        out.extend_from_slice(&frame_record(body));
    }
    out
}

/// Decode `bytes` and, when that succeeds, rebuild a kernel from the
/// image: either may refuse, neither may panic.
fn restore(bytes: &[u8]) {
    if let Ok(img) = scap::CheckpointImage::decode(bytes) {
        let _ = ScapKernel::from_image(img, None);
    }
}

proptest! {
    /// Checkpoint decode never panics on arbitrary bytes.
    #[test]
    fn checkpoint_decode_never_panics_on_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..4096),
    ) {
        let _ = scap::CheckpointImage::decode(&bytes);
    }

    /// Real checkpoints round-trip byte-identically (encode → decode →
    /// encode), and truncating one at any byte never panics: decode
    /// either rejects the torn file or yields an image that itself
    /// re-encodes canonically.
    #[test]
    fn checkpoint_roundtrip_and_truncation(seed in 0u64..6, cut in 0usize..1 << 17) {
        let bytes = sample_checkpoint(seed);
        let img = scap::CheckpointImage::decode(&bytes).unwrap();
        prop_assert_eq!(img.to_bytes(), bytes.clone());
        let cut = cut.min(bytes.len());
        if let Ok(t) = scap::CheckpointImage::decode(&bytes[..cut]) {
            let re = t.to_bytes();
            let again = scap::CheckpointImage::decode(&re).unwrap();
            prop_assert_eq!(again.to_bytes(), re);
        }
    }

    /// Flipping any single byte of a checkpoint never panics decode —
    /// the CRC either rejects the record or the damage is semantically
    /// absorbed; it must never crash a restarting supervisor.
    #[test]
    fn checkpoint_bitflip_never_panics(
        seed in 0u64..3,
        pos in 0usize..1 << 17,
        flip in 1u8..=255,
    ) {
        let mut bytes = sample_checkpoint(seed);
        let len = bytes.len();
        bytes[pos % len] ^= flip;
        let _ = scap::CheckpointImage::decode(&bytes);
    }

    /// A random body under a valid CRC, under each record kind byte (in
    /// place of the record of that kind, or in front of the end marker
    /// when the checkpoint has none), is refused or restored: never a
    /// panic, never an abort.
    #[test]
    fn crc_clean_random_records_never_panic(
        seed in 0u64..3,
        kind in 0x10u8..0x17,
        body in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let bytes = sample_checkpoint(seed);
        let mut bodies = record_bodies(&bytes);
        let record = [&[kind][..], &body].concat();
        match bodies.iter().position(|b| b[0] == kind) {
            Some(i) => bodies[i] = record,
            None => bodies.insert(bodies.len() - 1, record),
        }
        restore(&reframed(&bytes, &bodies));
    }

    /// A real record with one byte changed and its CRC made valid again
    /// is refused or restored: never a panic, never an abort.
    #[test]
    fn crc_clean_edited_records_never_panic(
        seed in 0u64..3,
        which: usize,
        at: usize,
        value: u8,
    ) {
        let bytes = sample_checkpoint(seed);
        let mut bodies = record_bodies(&bytes);
        let n = bodies.len();
        let body = &mut bodies[which % n];
        let len = body.len();
        body[at % len] = value;
        restore(&reframed(&bytes, &bodies));
    }
}

/// Build an IPv6 TCP session (handshake, data both ways, FIN).
fn v6_session(req: &[u8], resp: &[u8]) -> Vec<Packet> {
    let c: [u8; 16] = [0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1];
    let s: [u8; 16] = [0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2];
    let (cp, sp) = (50000u16, 443u16);
    let (ic, is) = (7_000u32, 9_000u32);
    let mut t = 0u64;
    let mut nt = || {
        t += 1_000_000;
        t
    };
    let mut pkts = vec![
        Packet::new(
            nt(),
            PacketBuilder::tcp_v6(c, s, cp, sp, ic, 0, TcpFlags::SYN, b""),
        ),
        Packet::new(
            nt(),
            PacketBuilder::tcp_v6(s, c, sp, cp, is, ic + 1, TcpFlags::SYN | TcpFlags::ACK, b""),
        ),
        Packet::new(
            nt(),
            PacketBuilder::tcp_v6(c, s, cp, sp, ic + 1, is + 1, TcpFlags::ACK, b""),
        ),
    ];
    let mut seq = ic + 1;
    for chunk in req.chunks(1000) {
        pkts.push(Packet::new(
            nt(),
            PacketBuilder::tcp_v6(
                c,
                s,
                cp,
                sp,
                seq,
                is + 1,
                TcpFlags::ACK | TcpFlags::PSH,
                chunk,
            ),
        ));
        seq += chunk.len() as u32;
    }
    let mut sseq = is + 1;
    for chunk in resp.chunks(1000) {
        pkts.push(Packet::new(
            nt(),
            PacketBuilder::tcp_v6(s, c, sp, cp, sseq, seq, TcpFlags::ACK, chunk),
        ));
        sseq += chunk.len() as u32;
    }
    pkts.push(Packet::new(
        nt(),
        PacketBuilder::tcp_v6(s, c, sp, cp, sseq, seq, TcpFlags::FIN | TcpFlags::ACK, b""),
    ));
    pkts.push(Packet::new(
        nt(),
        PacketBuilder::tcp_v6(
            c,
            s,
            cp,
            sp,
            seq,
            sseq + 1,
            TcpFlags::FIN | TcpFlags::ACK,
            b"",
        ),
    ));
    pkts
}

#[test]
fn ipv6_sessions_reassemble_end_to_end() {
    let req = vec![b'Q'; 2500];
    let resp = vec![b'R'; 7000];
    let delivered = Arc::new(AtomicU64::new(0));
    let closed = Arc::new(AtomicU64::new(0));

    let mut scap = Scap::builder()
        .inactivity_timeout_ns(500_000_000)
        .try_build()
        .unwrap();
    {
        let d = delivered.clone();
        scap.dispatch_data(move |ctx: &StreamCtx<'_>| {
            d.fetch_add(ctx.data.map_or(0, |b| b.len() as u64), Ordering::Relaxed);
        });
        let c = closed.clone();
        scap.dispatch_termination(move |ctx: &StreamCtx<'_>| {
            c.fetch_add(1, Ordering::Relaxed);
            // The key renders as an IPv6 flow.
            assert!(ctx.stream.key.to_string().contains("2001:db8"));
        });
    }
    let stats = scap.start_capture(v6_session(&req, &resp));
    assert_eq!(delivered.load(Ordering::Relaxed), 9500);
    assert_eq!(closed.load(Ordering::Relaxed), 1);
    assert_eq!(stats.stack.streams_created, 1);
    assert_eq!(stats.stack.dropped_packets, 0);
}

#[test]
fn ipv6_and_ipv4_coexist_in_one_capture() {
    // Interleave a v6 session with a v4 session; both reassemble.
    let mut pkts = v6_session(&[b'6'; 1500], &[b'6'; 1500]);
    let v4 = {
        let c = [10, 0, 0, 1];
        let s = [10, 0, 0, 2];
        let mut v = vec![
            PacketBuilder::tcp_v4(c, s, 1, 80, 100, 0, TcpFlags::SYN, b""),
            PacketBuilder::tcp_v4(s, c, 80, 1, 200, 101, TcpFlags::SYN | TcpFlags::ACK, b""),
            PacketBuilder::tcp_v4(c, s, 1, 80, 101, 201, TcpFlags::ACK, &[b'4'; 500]),
        ];
        v.push(PacketBuilder::tcp_v4(
            c,
            s,
            1,
            80,
            601,
            201,
            TcpFlags::FIN | TcpFlags::ACK,
            b"",
        ));
        v.push(PacketBuilder::tcp_v4(
            s,
            c,
            80,
            1,
            201,
            602,
            TcpFlags::FIN | TcpFlags::ACK,
            b"",
        ));
        v
    };
    for (i, f) in v4.into_iter().enumerate() {
        pkts.push(Packet::new(500_000 + i as u64 * 1_000_000, f));
    }
    pkts.sort_by_key(|p| p.ts_ns);

    let mut stack = ScapSimStack::new(
        ScapKernel::new(ScapConfig {
            inactivity_timeout_ns: 500_000_000,
            ..ScapConfig::default()
        }),
        StreamTouchApp::default(),
    );
    let report = oracle_engine().run(pkts, &mut stack);
    assert_eq!(report.stats.streams_created, 2);
    assert_eq!(report.stats.streams_reported, 2);
    assert_eq!(stack.app().bytes, 3000 + 500);
}

#[test]
fn adversarial_syn_flood_does_not_exhaust_tracking() {
    // A SYN flood: 50k half-open connections. Scap tracks them all (no
    // static limit) and expires them by inactivity without reporting
    // spurious data.
    let mut pkts = Vec::with_capacity(50_000);
    for i in 0..50_000u32 {
        let frame = PacketBuilder::tcp_v4(
            [10, (i >> 16) as u8, (i >> 8) as u8, i as u8],
            [192, 0, 2, 1],
            1024 + (i % 60000) as u16,
            80,
            i,
            0,
            TcpFlags::SYN,
            b"",
        );
        pkts.push(Packet::new(u64::from(i) * 10_000, frame));
    }
    let mut stack = ScapSimStack::new(
        ScapKernel::new(ScapConfig {
            inactivity_timeout_ns: 100_000_000,
            ..ScapConfig::default()
        }),
        StreamTouchApp::default(),
    );
    let report = oracle_engine().run(pkts, &mut stack);
    assert_eq!(report.stats.streams_created, 50_000);
    assert_eq!(report.stats.streams_reported, 50_000);
    assert_eq!(stack.app().bytes, 0);
    assert_eq!(report.stats.dropped_packets, 0);
}
