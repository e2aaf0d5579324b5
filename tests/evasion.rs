//! Evasion-resistance integration tests: TCP segmentation tricks against
//! the full Scap pipeline (NIC → kernel → reassembly → chunks).
//!
//! These exercise the attacks the reassembly literature catalogues —
//! overlapping segments with conflicting content, out-of-order floods,
//! data before the handshake — end-to-end rather than against the
//! reassembler in isolation.

use scap::{OverlapPolicy, Scap, StreamCtx, StreamErrors};
use scap_trace::Packet;
use scap_wire::{PacketBuilder, TcpFlags};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const C: [u8; 4] = [10, 0, 0, 1];
const S: [u8; 4] = [172, 16, 0, 1];
const CP: u16 = 40000;
const SP: u16 = 80;

/// A hand-built session: handshake, then the given client segments
/// (seq offset relative to ISN+1, payload), then FIN exchange.
fn session(segments: &[(u32, &[u8])]) -> Vec<Packet> {
    let isn_c = 1000u32;
    let isn_s = 2000u32;
    let mut t = 0u64;
    let mut nt = || {
        t += 1_000_000;
        t
    };
    let mut pkts = vec![
        Packet::new(
            nt(),
            PacketBuilder::tcp_v4(C, S, CP, SP, isn_c, 0, TcpFlags::SYN, b""),
        ),
        Packet::new(
            nt(),
            PacketBuilder::tcp_v4(
                S,
                C,
                SP,
                CP,
                isn_s,
                isn_c + 1,
                TcpFlags::SYN | TcpFlags::ACK,
                b"",
            ),
        ),
        Packet::new(
            nt(),
            PacketBuilder::tcp_v4(C, S, CP, SP, isn_c + 1, isn_s + 1, TcpFlags::ACK, b""),
        ),
    ];
    let mut max_end = 0u32;
    for (off, data) in segments {
        pkts.push(Packet::new(
            nt(),
            PacketBuilder::tcp_v4(
                C,
                S,
                CP,
                SP,
                isn_c + 1 + off,
                isn_s + 1,
                TcpFlags::ACK | TcpFlags::PSH,
                data,
            ),
        ));
        max_end = max_end.max(off + data.len() as u32);
    }
    let end_seq = isn_c + 1 + max_end;
    pkts.push(Packet::new(
        nt(),
        PacketBuilder::tcp_v4(
            C,
            S,
            CP,
            SP,
            end_seq,
            isn_s + 1,
            TcpFlags::FIN | TcpFlags::ACK,
            b"",
        ),
    ));
    pkts.push(Packet::new(
        nt(),
        PacketBuilder::tcp_v4(
            S,
            C,
            SP,
            CP,
            isn_s + 1,
            end_seq + 1,
            TcpFlags::FIN | TcpFlags::ACK,
            b"",
        ),
    ));
    pkts
}

/// Capture a session with a policy; return (reassembled bytes, errors).
fn capture(policy: OverlapPolicy, pkts: Vec<Packet>) -> (Vec<u8>, StreamErrors) {
    let data = Arc::new(std::sync::Mutex::new(Vec::new()));
    let errs = Arc::new(AtomicU64::new(0));
    let mut scap = Scap::builder()
        .overlap_policy(policy)
        .inactivity_timeout_ns(500_000_000)
        .try_build()
        .unwrap();
    {
        let data = data.clone();
        scap.dispatch_data(move |ctx: &StreamCtx<'_>| {
            if let Some(d) = ctx.data {
                data.lock().unwrap().extend_from_slice(d);
            }
        });
        let errs = errs.clone();
        scap.dispatch_termination(move |ctx: &StreamCtx<'_>| {
            errs.store(u64::from(ctx.stream.errors.0), Ordering::Relaxed);
        });
    }
    scap.start_capture(pkts);
    let bytes = data.lock().unwrap().clone();
    (bytes, StreamErrors(errs.load(Ordering::Relaxed) as u8))
}

/// The classic overlap attack: an "innocent" segment is later overlapped
/// by a "malicious" rewrite. Bytes that were already delivered in order
/// are committed — no policy rewrites history (the application may have
/// already acted on them), so the rewrite is absorbed as a
/// retransmission under every policy.
#[test]
fn committed_bytes_cannot_be_rewritten() {
    let make = || {
        session(&[
            (0, b"GET /index.html0"), // 16 bytes
            (16, b"benign-suffix-xx"),
            // Overlapping rewrite of bytes 16..32 arriving later:
            (16, b"EVIL-PAYLOAD-YYY"),
        ])
    };
    for policy in [
        OverlapPolicy::First,
        OverlapPolicy::Solaris,
        OverlapPolicy::Linux,
    ] {
        let (got, _errs) = capture(policy, make());
        assert_eq!(&got[16..32], b"benign-suffix-xx", "policy {policy:?}");
    }
}

/// When the conflicting segments are buffered (a hole keeps them out of
/// order), the policy decides which content survives.
#[test]
fn buffered_overlap_content_depends_on_policy() {
    let make = || {
        session(&[
            // Bytes 16.. arrive first (out of order: hole at 0..16).
            (16, b"ORIGINAL-CONTENT"),
            (16, b"REWRITTEN-BYTES!"),
            // The hole fills last; everything then drains in order.
            (0, b"0123456789abcdef"),
        ])
    };
    let (first, errs) = capture(OverlapPolicy::First, make());
    assert_eq!(&first[16..32], b"ORIGINAL-CONTENT");
    // Conflicting overlap content is flagged: the evasion signal.
    assert!(errs.contains(StreamErrors::INCONSISTENT_OVERLAP));
    let (last, _) = capture(OverlapPolicy::Last, make());
    assert_eq!(&last[16..32], b"REWRITTEN-BYTES!");
    // Windows behaves like First, Solaris like Last (policy matrix).
    let (win, _) = capture(OverlapPolicy::Windows, make());
    assert_eq!(&win[16..32], b"ORIGINAL-CONTENT");
}

/// Segments sprayed far out of order still reassemble exactly.
#[test]
fn heavy_reordering_reassembles_exactly() {
    let payload: Vec<u8> = (0..26u8).cycle().take(26 * 40).map(|c| b'a' + c).collect();
    let mut segs: Vec<(u32, &[u8])> = payload
        .chunks(40)
        .enumerate()
        .map(|(i, c)| ((i * 40) as u32, c))
        .collect();
    // Reverse order: worst-case buffering.
    segs.reverse();
    let (got, errs) = capture(OverlapPolicy::First, session(&segs));
    assert_eq!(got, payload);
    assert!(!errs.contains(StreamErrors::SEQUENCE_GAP));
}

/// Data without any handshake (midstream pickup) is still captured in
/// fast mode, flagged as an incomplete handshake.
#[test]
fn midstream_data_flagged_but_captured() {
    let mut pkts = Vec::new();
    let mut t = 0u64;
    for i in 0..5u32 {
        t += 1_000_000;
        pkts.push(Packet::new(
            t,
            PacketBuilder::tcp_v4(
                C,
                S,
                CP,
                SP,
                5_000 + i * 100,
                1,
                TcpFlags::ACK,
                &[b'm'; 100],
            ),
        ));
    }
    let data = Arc::new(AtomicU64::new(0));
    let flagged = Arc::new(AtomicU64::new(0));
    let mut scap = Scap::builder()
        .inactivity_timeout_ns(1_000_000)
        .try_build()
        .unwrap();
    {
        let data = data.clone();
        scap.dispatch_data(move |ctx: &StreamCtx<'_>| {
            data.fetch_add(ctx.data.map_or(0, |d| d.len() as u64), Ordering::Relaxed);
        });
        let flagged = flagged.clone();
        scap.dispatch_termination(move |ctx: &StreamCtx<'_>| {
            if ctx
                .stream
                .errors
                .contains(StreamErrors::INCOMPLETE_HANDSHAKE)
            {
                flagged.fetch_add(1, Ordering::Relaxed);
            }
        });
    }
    scap.start_capture(pkts);
    assert_eq!(data.load(Ordering::Relaxed), 500);
    assert_eq!(flagged.load(Ordering::Relaxed), 1);
}

/// A wildly out-of-window sequence number must not poison the stream.
#[test]
fn out_of_window_segment_rejected() {
    let (got, errs) = capture(
        OverlapPolicy::First,
        session(&[
            (0, b"legitimate data"),
            (0x5000_0000, b"far-future garbage"),
            (15, b" continues fine"),
        ]),
    );
    assert_eq!(got, b"legitimate data continues fine");
    assert!(errs.contains(StreamErrors::INVALID_SEQUENCE));
}

/// Duplicate (retransmitted) segments are delivered exactly once.
#[test]
fn retransmissions_do_not_duplicate_data() {
    let (got, _) = capture(
        OverlapPolicy::First,
        session(&[
            (0, b"0123456789"),
            (0, b"0123456789"),
            (10, b"abcdefghij"),
            (0, b"0123456789"),
        ]),
    );
    assert_eq!(got, b"0123456789abcdefghij");
}

/// A sampled TCP flow (`OffloadAction::Sample(2)`: the NIC keeps every
/// other frame) is all holes, and a coalesced retransmission that fills
/// one hole can span a segment buffered beyond it. The frontier then
/// passes that segment; the reassembler must drop it there, or a later
/// hole skip meets it at or below the frontier and delivers it a second
/// time, out of order.
#[test]
fn sampled_flow_never_delivers_a_passed_segment() {
    use scap::{EventKind, OffloadAction, OffloadRule, ScapConfig, ScapKernel};
    use scap_wire::parse_frame;

    let (isn_c, isn_s) = (1000u32, 2000u32);
    // 100-byte segments, each filled with its own index.
    let seg = |i: u32, n: u32| -> Vec<u8> { (i..i + n).flat_map(|j| [j as u8; 100]).collect() };
    let client = |off: u32, data: &[u8]| {
        PacketBuilder::tcp_v4(
            C,
            S,
            CP,
            SP,
            isn_c + 1 + off,
            isn_s + 1,
            TcpFlags::ACK | TcpFlags::PSH,
            data,
        )
    };
    let ack = || PacketBuilder::tcp_v4(S, C, SP, CP, isn_s + 1, isn_c + 1, TcpFlags::ACK, b"");
    let mut frames = vec![
        PacketBuilder::tcp_v4(C, S, CP, SP, isn_c, 0, TcpFlags::SYN, b""),
        PacketBuilder::tcp_v4(
            S,
            C,
            SP,
            CP,
            isn_s,
            isn_c + 1,
            TcpFlags::SYN | TcpFlags::ACK,
            b"",
        ),
    ];
    let handshake = frames.len();
    // From here the rule keeps the even frames: segment 0 arrives in
    // order, 1 and 3 are lost, 2 and 4 are buffered behind the holes.
    frames.extend((0..5).map(|i| client(i * 100, &seg(i, 1))));
    frames.push(ack());
    // Kept: segments 1–3 in one retransmission. It fills the hole at 1,
    // spans buffered segment 2, and segment 4 drains behind it.
    frames.push(client(100, &seg(1, 3)));
    // Every other one of these is kept, each behind a new hole, until
    // the out-of-order buffer overflows and skips holes.
    frames.extend((5..205).map(|i| client(i * 100, &seg(i, 1))));

    let mut k = ScapKernel::new(ScapConfig {
        use_offload: true,
        ..ScapConfig::default()
    });
    let mut delivered: Vec<u8> = Vec::new();
    let mut collect = |k: &mut ScapKernel, ev: scap::Event| {
        if let EventKind::Data { chunk, .. } = &ev.kind {
            delivered.extend_from_slice(chunk.bytes());
        }
        k.release_event(ev);
    };
    for (i, frame) in frames.into_iter().enumerate() {
        let pkt = Packet::new((i as u64 + 1) * 1_000_000, frame);
        if i == handshake {
            let key = parse_frame(&pkt.frame).unwrap().key.unwrap();
            k.offload_install(OffloadRule::new(key, OffloadAction::Sample(2), 1))
                .unwrap();
        }
        k.nic_receive(&pkt);
        k.service(pkt.ts_ns, &mut collect);
    }
    k.finish(1_000_000_000);
    k.drain_events(1_000_000_000, &mut collect);

    let segments: Vec<u8> = delivered.chunks(100).map(|s| s[0]).collect();
    assert!(delivered.chunks(100).all(|s| s.iter().all(|&b| b == s[0])));
    assert!(
        segments.windows(2).all(|w| w[0] < w[1]),
        "segments delivered twice or out of order: {segments:?}"
    );
    assert_eq!(&segments[..5], [0, 1, 2, 3, 4]);
    let s = k.stats().stack;
    assert_eq!(
        s.wire_packets,
        s.delivered_packets + s.dropped_packets + s.discarded_packets
    );
    assert_eq!(s.delivered_bytes, delivered.len() as u64);
}
