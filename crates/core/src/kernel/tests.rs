use super::probe::{Flags, StreamKState};
use super::*;
use crate::checkpoint::CheckpointImage;
use crate::event::{EventKind, StreamRef};
use scap_flight::{DropReason, FlightKind};
use scap_flow::StreamStatus;
use scap_nic::{NicVerdict, OffloadAction};
use scap_telemetry::Metric;
use scap_trace::gen::{CampusMix, CampusMixConfig};
use scap_trace::Packet;
use scap_wire::{PacketBuilder, TcpFlags, Transport};

fn kernel(cfg: ScapConfig) -> ScapKernel {
    ScapKernel::new(cfg)
}

/// Feed `pkts` one at a time, servicing every core after each; returns
/// the events, chunks and all, in delivery order.
fn drive(k: &mut ScapKernel, pkts: &[Packet]) -> Vec<Event> {
    let mut out = Vec::new();
    for p in pkts {
        k.nic_receive(p);
        k.service(p.ts_ns, |_, ev| out.push(ev));
    }
    out
}

/// Whatever is queued, without polling: the tail after `finish` or an
/// explicit timer pass.
fn collect_events(k: &mut ScapKernel) -> Vec<Event> {
    let mut out = Vec::new();
    k.drain_events(0, |_, ev| out.push(ev));
    out
}

/// A simple two-direction TCP session as raw packets.
fn http_session(payload_c: &[u8], payload_s: &[u8]) -> Vec<Packet> {
    let c = [10, 0, 0, 1];
    let s = [93, 184, 216, 34];
    let (cp, sp) = (43210, 80);
    let (ic, is) = (1000u32, 5000u32);
    let mut t = 0u64;
    let mut nt = || {
        t += 1_000_000;
        t
    };
    let mut pkts = vec![
        Packet::new(
            nt(),
            PacketBuilder::tcp_v4(c, s, cp, sp, ic, 0, TcpFlags::SYN, b""),
        ),
        Packet::new(
            nt(),
            PacketBuilder::tcp_v4(s, c, sp, cp, is, ic + 1, TcpFlags::SYN | TcpFlags::ACK, b""),
        ),
        Packet::new(
            nt(),
            PacketBuilder::tcp_v4(c, s, cp, sp, ic + 1, is + 1, TcpFlags::ACK, b""),
        ),
    ];
    let mut seq = ic + 1;
    for chunk in payload_c.chunks(1000) {
        pkts.push(Packet::new(
            nt(),
            PacketBuilder::tcp_v4(
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
    for chunk in payload_s.chunks(1000) {
        pkts.push(Packet::new(
            nt(),
            PacketBuilder::tcp_v4(s, c, sp, cp, sseq, seq, TcpFlags::ACK, chunk),
        ));
        sseq += chunk.len() as u32;
    }
    pkts.push(Packet::new(
        nt(),
        PacketBuilder::tcp_v4(s, c, sp, cp, sseq, seq, TcpFlags::FIN | TcpFlags::ACK, b""),
    ));
    pkts.push(Packet::new(
        nt(),
        PacketBuilder::tcp_v4(
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
fn session_produces_create_data_terminate() {
    let mut k = kernel(ScapConfig {
        chunk_size: 4096,
        ..Default::default()
    });
    let req = vec![b'Q'; 2000];
    let resp = vec![b'R'; 6000];
    let events = drive(&mut k, &http_session(&req, &resp));

    let created = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Created))
        .count();
    let terminated = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Terminated))
        .count();
    assert_eq!(created, 1);
    assert_eq!(terminated, 1);

    let mut fwd = Vec::new();
    let mut rev = Vec::new();
    for e in &events {
        if let EventKind::Data { dir, chunk, .. } = &e.kind {
            match dir {
                Direction::Forward => fwd.extend_from_slice(chunk.bytes()),
                Direction::Reverse => rev.extend_from_slice(chunk.bytes()),
            }
        }
    }
    let (a, b) = if fwd.len() == 2000 {
        (fwd, rev)
    } else {
        (rev, fwd)
    };
    assert_eq!(a, req);
    assert_eq!(b, resp);

    let st = k.stats();
    assert_eq!(st.stack.streams_created, 1);
    assert_eq!(st.stack.streams_reported, 1);
    assert_eq!(st.stack.dropped_packets, 0);
}

#[test]
fn cutoff_discards_tail_and_reports_flag() {
    let mut k = kernel(ScapConfig {
        cutoff: crate::config::CutoffPolicy {
            default: Some(1000),
            ..Default::default()
        },
        chunk_size: 4096,
        ..Default::default()
    });
    let resp = vec![b'R'; 20_000];
    let events = drive(&mut k, &http_session(b"Q", &resp));
    let mut data_bytes = 0usize;
    let mut cutoff_seen = false;
    for e in &events {
        if let EventKind::Data { chunk, .. } = &e.kind {
            data_bytes += chunk.len();
        }
        if e.stream.cutoff_exceeded {
            cutoff_seen = true;
        }
    }
    assert!(data_bytes <= 2100, "data {data_bytes}");
    assert!(cutoff_seen);
    let st = k.stats();
    assert!(st.stack.discarded_packets > 10);
    let term = events
        .iter()
        .find(|e| matches!(e.kind, EventKind::Terminated))
        .unwrap();
    assert!(term.stream.total_bytes() > 20_000);
}

#[test]
fn zero_cutoff_keeps_statistics_without_data() {
    let mut k = kernel(ScapConfig {
        cutoff: crate::config::CutoffPolicy {
            default: Some(0),
            ..Default::default()
        },
        ..Default::default()
    });
    let events = drive(&mut k, &http_session(&vec![b'Q'; 3000], &vec![b'R'; 9000]));
    let data: usize = events.iter().map(|e| e.data_len()).sum();
    assert_eq!(data, 0);
    let term = events
        .iter()
        .find(|e| matches!(e.kind, EventKind::Terminated))
        .unwrap();
    assert!(term.stream.total_bytes() > 12_000);
    assert!(term.stream.total_pkts() >= 15);
}

#[test]
fn fdir_cutoff_drops_at_nic_but_still_terminates() {
    let mut k = kernel(ScapConfig {
        cutoff: crate::config::CutoffPolicy {
            default: Some(1000),
            ..Default::default()
        },
        use_fdir: true,
        chunk_size: 4096,
        ..Default::default()
    });
    let resp = vec![b'R'; 40_000];
    let events = drive(&mut k, &http_session(b"Q", &resp));
    let st = k.stats();
    assert!(
        st.stack.nic_filtered_packets > 10,
        "nic filtered {}",
        st.stack.nic_filtered_packets
    );
    assert!(st.fdir_ops >= 4);
    let term = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Terminated))
        .count();
    assert_eq!(term, 1);
    assert_eq!(k.fdir_filters(), 0, "filters must be removed at close");
}

#[test]
fn fdir_termination_estimates_flow_size_from_fin() {
    let mut k = kernel(ScapConfig {
        cutoff: crate::config::CutoffPolicy {
            default: Some(1000),
            ..Default::default()
        },
        use_fdir: true,
        chunk_size: 4096,
        ..Default::default()
    });
    let resp = vec![b'R'; 40_000];
    let events = drive(&mut k, &http_session(b"Q", &resp));
    let term = events
        .iter()
        .find(|e| matches!(e.kind, EventKind::Terminated))
        .unwrap();
    // Even though most data packets were dropped at the NIC, the
    // FIN-sequence estimate recovers the true response size.
    assert!(
        term.stream.total_bytes() >= 40_000,
        "estimated bytes {} too small",
        term.stream.total_bytes()
    );
}

#[test]
fn offload_cutoff_drops_at_nic_and_reconciles_with_flight() {
    let mut k = kernel(ScapConfig {
        cutoff: crate::config::CutoffPolicy {
            default: Some(1000),
            ..Default::default()
        },
        use_offload: true,
        offload_capacity: 1024,
        chunk_size: 4096,
        ..Default::default()
    });
    let resp = vec![b'R'; 40_000];
    let events = drive(&mut k, &http_session(b"Q", &resp));
    let st = k.stats();
    let n = k.nic_stats();
    assert!(
        n.offload_dropped_frames > 10,
        "offload dropped {}",
        n.offload_dropped_frames
    );
    assert_eq!(st.stack.nic_filtered_packets, n.offload_dropped_frames);
    assert!(st.offload_ops >= 1);
    assert_eq!(st.fdir_ops, 0, "offload must not fall back to FDIR here");

    // Conservation: every wire packet is delivered, dropped, or
    // deliberately discarded — offload drops land in `discarded`.
    assert_eq!(
        st.stack.wire_packets,
        st.stack.delivered_packets + st.stack.dropped_packets + st.stack.discarded_packets
    );

    // Exact flight reconciliation: the journal's offload-drop events
    // sum to the NIC's counters, packets and bytes both.
    let (mut ev_pkts, mut ev_bytes) = (0u64, 0u64);
    for e in k.flight().events() {
        if e.kind == FlightKind::Discard && e.reason == DropReason::OffloadDrop {
            ev_pkts += e.a;
            ev_bytes += e.b;
        }
    }
    assert_eq!(ev_pkts, n.offload_dropped_frames);
    assert_eq!(ev_bytes, n.offload_dropped_bytes);

    // FIN punts through the drop rule, so the stream terminates and
    // its rule is uninstalled.
    let term = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Terminated))
        .count();
    assert_eq!(term, 1);
    assert_eq!(k.offload_rules(), 0, "rule must be removed at close");
}

#[test]
fn offload_preferred_over_fdir_when_both_enabled() {
    let mut k = kernel(ScapConfig {
        cutoff: crate::config::CutoffPolicy {
            default: Some(1000),
            ..Default::default()
        },
        use_fdir: true,
        use_offload: true,
        chunk_size: 4096,
        ..Default::default()
    });
    drive(&mut k, &http_session(b"Q", &vec![b'R'; 40_000]));
    let st = k.stats();
    assert!(st.offload_ops >= 1);
    assert_eq!(
        st.fdir_ops, 0,
        "a healthy offload table must absorb all cutoff rules"
    );
}

#[test]
fn offload_mark_rule_overrides_priority_policy() {
    let mut k = kernel(ScapConfig {
        use_offload: true,
        chunk_size: 4096,
        ..Default::default()
    });
    // The application marks the flow before its first packet; the
    // stream is created with the marked priority, not the policy's.
    let key = FlowKey::new_v4([10, 0, 0, 1], [93, 184, 216, 34], 43210, 80, Transport::Tcp);
    k.offload_install(OffloadRule::new(key, OffloadAction::Mark(3), 3))
        .unwrap();
    let events = drive(&mut k, &http_session(b"Q", b"R"));
    let created = events
        .iter()
        .find(|e| matches!(e.kind, EventKind::Created))
        .unwrap();
    assert_eq!(created.stream.priority, 3);
}

#[test]
fn offload_rules_survive_warm_restart() {
    let mut k = kernel(ScapConfig {
        cutoff: crate::config::CutoffPolicy {
            default: Some(1000),
            ..Default::default()
        },
        use_offload: true,
        chunk_size: 4096,
        ..Default::default()
    });
    // Drive data past the cutoff but stop before FIN, so the drop
    // rule is still installed at checkpoint time.
    let pkts = http_session(b"Q", &vec![b'R'; 40_000]);
    let data_only = &pkts[..pkts.len() - 2];
    drive(&mut k, data_only);
    assert_eq!(k.offload_rules(), 1);
    let last_ts = data_only.last().unwrap().ts_ns;

    let bytes = k.checkpoint_bytes(last_ts, 1);
    let img = CheckpointImage::decode(&bytes).expect("checkpoint decodes");
    assert_eq!(img.offload.len(), 1, "rule must travel in the image");
    let mut k2 = ScapKernel::from_image(img, None).expect("restore");
    assert_eq!(k2.offload_rules(), 1, "rule re-programmed on restore");

    // A post-restart data packet of the shunted flow still dies at
    // the NIC — the restored stream owns its rule again.
    let before = k2.nic_stats().offload_dropped_frames;
    let late = Packet::new(
        last_ts + 1_000_000,
        PacketBuilder::tcp_v4(
            [93, 184, 216, 34],
            [10, 0, 0, 1],
            80,
            43210,
            45_001,
            1002,
            TcpFlags::ACK,
            &[b'R'; 500],
        ),
    );
    let verdict = k2.nic_receive(&late);
    assert_eq!(verdict, NicVerdict::DroppedByOffload);
    assert_eq!(k2.nic_stats().offload_dropped_frames, before + 1);
}

#[test]
fn inactivity_timeout_expires_streams() {
    let mut k = kernel(ScapConfig {
        inactivity_timeout_ns: 1_000_000_000,
        ..Default::default()
    });
    let p1 = Packet::new(
        0,
        PacketBuilder::udp_v4([1, 1, 1, 1], [2, 2, 2, 2], 100, 53, b"q1"),
    );
    let p2 = Packet::new(
        1_000_000,
        PacketBuilder::udp_v4([2, 2, 2, 2], [1, 1, 1, 1], 53, 100, b"r1"),
    );
    let mut events = drive(&mut k, &[p1, p2]);
    k.service(5_000_000_000, |_, ev| events.push(ev));
    let term: Vec<&Event> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Terminated))
        .collect();
    assert_eq!(term.len(), 1);
    assert_eq!(term[0].stream.status, StreamStatus::ClosedTimeout);
    assert_eq!(k.stats().expired_streams, 1);
    let data: usize = events.iter().map(|e| e.data_len()).sum();
    assert_eq!(data, 4);
}

#[test]
fn flush_timeout_delivers_partial_chunks() {
    let mut k = kernel(ScapConfig {
        flush_timeout_ns: 50_000_000,
        chunk_size: 1 << 20, // chunk will never fill on its own
        ..Default::default()
    });
    // Handshake + one data packet, no close.
    let pkts = &http_session(&vec![b'Q'; 500], b"")[..5];
    // Before the flush timeout: no data event.
    let before: usize = drive(&mut k, pkts).iter().map(|e| e.data_len()).sum();
    assert_eq!(before, 0);
    // After the timeout fires the partial chunk is delivered.
    let mut after = 0;
    k.service(1_000_000_000, |_, ev| after += ev.data_len());
    assert_eq!(after, 500);
}

/// Flush timers are not scrubbed when a stream ends; the fire path
/// tells a dead stream's timer from its slot's next tenant by id.
#[test]
fn a_dead_streams_flush_timer_spares_the_successor_in_its_slot() {
    let mut k = kernel(ScapConfig {
        cores: 1,
        flush_timeout_ns: 50_000_000,
        chunk_size: 1 << 20,
        ..Default::default()
    });
    // This test counts the timer work of single `kernel_timers` passes,
    // so it calls them itself and collects what they queue.
    let data_len =
        |k: &mut ScapKernel| -> usize { collect_events(k).iter().map(|e| e.data_len()).sum() };
    // Stream A arms a timer (due at 54 ms) and ends before it fires.
    drive(&mut k, &http_session(&[b'A'; 500], b"")[..4]);
    let a = k.streams_on_core(0).next().unwrap().0;
    assert_eq!(k.place.armed_flush_timers(0), 1);
    k.terminate_stream(0, a, StreamStatus::ClosedTimeout, 5_000_000, false);
    assert_eq!(data_len(&mut k), 500);
    // Stream B moves into A's slot and arms its own (due at 80 ms).
    let b_frame = PacketBuilder::udp_v4([10, 0, 0, 2], [10, 0, 0, 3], 5000, 53, &[b'B'; 300]);
    drive(&mut k, &[Packet::new(30_000_000, b_frame)]);
    let b = k.streams_on_core(0).next().unwrap().0;
    assert_eq!(b.slot(), a.slot());
    assert_ne!(b, a);
    // A's timer comes due: no flush, no timer work, B stays armed.
    assert_eq!(k.kernel_timers(0, 60_000_000).k_timer_ops, 0);
    assert_eq!(data_len(&mut k), 0);
    let b_state = k.flows.cores[0].state(b).unwrap();
    assert!(b_state
        .flags
        .any(Flags::FLUSH_ARMED[0] | Flags::FLUSH_ARMED[1]));
    // B's own timer still delivers its partial chunk.
    assert_eq!(k.kernel_timers(0, 90_000_000).k_timer_ops, 1);
    assert_eq!(data_len(&mut k), 300);
}

#[test]
fn ppl_sheds_low_priority_first_under_memory_pressure() {
    use scap_filter::Filter;
    let mut cfg = ScapConfig {
        memory_bytes: 64 << 10,
        chunk_size: 4 << 10,
        ppl: scap_memory::PplConfig {
            base_threshold: 0.25,
            num_priorities: 2,
            overload_cutoff: None,
        },
        ..Default::default()
    };
    cfg.priorities
        .classes
        .push((Filter::new("port 80").unwrap(), 1));
    let mut k = kernel(cfg);

    let mut pkts = Vec::new();
    for f in 0..20u8 {
        let port = if f % 2 == 0 { 80 } else { 9000 + u16::from(f) };
        let c = [10, 0, 1, f];
        let s = [20, 0, 0, 1];
        let isn = 100u32;
        let mut v = Vec::new();
        v.push(PacketBuilder::tcp_v4(
            c,
            s,
            5000,
            port,
            isn,
            0,
            TcpFlags::SYN,
            b"",
        ));
        v.push(PacketBuilder::tcp_v4(
            s,
            c,
            port,
            5000,
            7,
            isn + 1,
            TcpFlags::SYN | TcpFlags::ACK,
            b"",
        ));
        let mut seq = isn + 1;
        for _ in 0..8 {
            let payload = vec![0x41u8; 1400];
            v.push(PacketBuilder::tcp_v4(
                c,
                s,
                5000,
                port,
                seq,
                8,
                TcpFlags::ACK,
                &payload,
            ));
            seq += 1400;
        }
        for (i, frame) in v.into_iter().enumerate() {
            pkts.push(Packet::new((i as u64) * 1000, frame));
        }
    }
    pkts.sort_by_key(|p| p.ts_ns);
    // Events are never consumed, so the arena fills and PPL must act.
    drive(&mut k, &pkts);

    let st = k.stats();
    assert!(st.stack.dropped_packets > 0, "no PPL drops under pressure");

    let mut hi_drops = 0u64;
    let mut lo_drops = 0u64;
    for c in 0..k.ncores() {
        for (_, rec) in k.streams_on_core(c) {
            let drops = rec.dirs[0].dropped_pkts + rec.dirs[1].dropped_pkts;
            if rec.priority == 1 {
                hi_drops += drops;
            } else {
                lo_drops += drops;
            }
        }
    }
    assert!(
        hi_drops <= lo_drops,
        "high-priority drops {hi_drops} exceed low-priority {lo_drops}"
    );
}

#[test]
fn campus_trace_roundtrip_accounting() {
    let mut k = kernel(ScapConfig {
        memory_bytes: 64 << 20,
        ..Default::default()
    });
    let pkts = CampusMix::new(CampusMixConfig::sized(11, 4 << 20)).collect_all();
    let mut events = drive(&mut k, &pkts);
    k.finish(u64::MAX / 2);
    events.extend(collect_events(&mut k));
    let st = k.stats();
    assert_eq!(st.stack.wire_packets, pkts.len() as u64);
    assert_eq!(st.stack.dropped_packets, 0, "no overload expected");
    assert!(st.stack.streams_created > 10);
    assert_eq!(st.stack.streams_created, st.stack.streams_reported);
    let created = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Created))
        .count();
    let terminated = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Terminated))
        .count();
    assert_eq!(created as u64, st.stack.streams_created);
    assert_eq!(terminated as u64, st.stack.streams_reported);
}

#[test]
fn need_pkts_produces_packet_records() {
    let mut k = kernel(ScapConfig {
        need_pkts: true,
        chunk_size: 2048,
        ..Default::default()
    });
    let events = drive(&mut k, &http_session(&vec![b'Q'; 3000], &vec![b'R'; 3000]));
    let mut recs = 0;
    for e in &events {
        if let EventKind::Data { packets, .. } = &e.kind {
            recs += packets.len();
        }
    }
    assert!(recs >= 6, "packet records missing: {recs}");
}

#[test]
fn fdir_load_balancing_spreads_a_skewed_workload() {
    use scap_nic::RssHasher;
    use scap_wire::{FlowKey, Transport};
    // Craft client ports so every flow RSS-hashes to queue 0: a
    // worst-case skew no static hash can fix.
    let rss = RssHasher::symmetric(4);
    let server = [192, 0, 2, 1];
    let client = [10, 0, 0, 1];
    let mut skewed_ports = Vec::new();
    let mut port = 1024u16;
    while skewed_ports.len() < 64 {
        let key = FlowKey::new_v4(client, server, port, 80, Transport::Tcp);
        if rss.queue_for(&key) == 0 {
            skewed_ports.push(port);
        }
        port += 1;
    }

    let run = |balance: bool| -> (Vec<usize>, u64) {
        let mut k = kernel(ScapConfig {
            cores: 4,
            use_fdir_balancing: balance,
            balance_threshold: 1.2,
            ..Default::default()
        });
        let mut pkts = Vec::new();
        for (i, &p) in skewed_ports.iter().enumerate() {
            let t0 = i as u64 * 1_000_000;
            pkts.push(Packet::new(
                t0,
                PacketBuilder::tcp_v4(client, server, p, 80, 1, 0, TcpFlags::SYN, b""),
            ));
            pkts.push(Packet::new(
                t0 + 1000,
                PacketBuilder::tcp_v4(
                    server,
                    client,
                    80,
                    p,
                    9,
                    2,
                    TcpFlags::SYN | TcpFlags::ACK,
                    b"",
                ),
            ));
            pkts.push(Packet::new(
                t0 + 2000,
                PacketBuilder::tcp_v4(client, server, p, 80, 2, 10, TcpFlags::ACK, &[0x41; 100]),
            ));
        }
        drive(&mut k, &pkts);
        let counts = (0..k.ncores()).map(|c| k.tracked_streams(c)).collect();
        (counts, k.stats().rebalanced_streams)
    };

    let (skew_counts, rebalanced_off) = run(false);
    assert_eq!(rebalanced_off, 0);
    assert_eq!(skew_counts[0], 64, "skew setup failed: {skew_counts:?}");

    let (bal_counts, rebalanced_on) = run(true);
    assert!(
        rebalanced_on > 10,
        "only {rebalanced_on} streams rebalanced"
    );
    let max = *bal_counts.iter().max().unwrap();
    assert!(max < 64, "balancing had no effect: {bal_counts:?}");
    // Streams ended up on more than one core.
    assert!(bal_counts.iter().filter(|&&c| c > 0).count() >= 2);
}

#[test]
fn bpf_filter_discards_early() {
    use scap_filter::Filter;
    let mut k = kernel(ScapConfig {
        filter: Some(Filter::new("port 9999").unwrap()),
        ..Default::default()
    });
    drive(&mut k, &http_session(&vec![b'Q'; 500], &vec![b'R'; 500]));
    let st = k.stats();
    assert_eq!(st.stack.streams_created, 0);
    assert!(st.stack.discarded_packets > 0);
}

/// Drive with the same group cadence through either dispatch path
/// and transcribe everything delivered: for each event, the stream
/// uid plus the exact chunk payload (or record kind). Byte-identical
/// transcripts mean byte-identical delivery.
fn delivery_transcript(fastpath: bool, pkts: &[Packet]) -> (Vec<u8>, ScapStats, Vec<u8>) {
    let mut k = kernel(ScapConfig {
        dispatch: if fastpath {
            crate::DispatchMode::Fastpath
        } else {
            crate::DispatchMode::Classic
        },
        fastpath_burst: 32,
        memory_bytes: 64 << 20,
        ..Default::default()
    });
    let mut transcript = Vec::new();
    let mut transcribe = |k: &mut ScapKernel, ev: Event| {
        transcript.extend_from_slice(&ev.stream.uid.to_le_bytes());
        match &ev.kind {
            EventKind::Data { dir, chunk, .. } => {
                transcript.push(0x10 | dir.index() as u8);
                transcript.extend_from_slice(&chunk.start_offset.to_le_bytes());
                transcript.extend_from_slice(chunk.bytes());
            }
            EventKind::Created => transcript.push(1),
            EventKind::Terminated => transcript.push(2),
        }
        k.release_event(ev);
    };
    for group in pkts.chunks(48) {
        for p in group {
            k.nic_receive(p);
        }
        k.service(group.last().unwrap().ts_ns, &mut transcribe);
    }
    let end = pkts.last().map_or(1, |p| p.ts_ns + 1);
    k.finish(end);
    k.drain_events(end, &mut transcribe);
    let flight = k.flight().encode();
    (transcript, k.stats(), flight)
}

#[test]
fn fastpath_delivers_byte_identical_streams() {
    let pkts = CampusMix::new(CampusMixConfig::sized(23, 2 << 20)).collect_all();
    let (classic, classic_stats, _) = delivery_transcript(false, &pkts);
    let (fast, fast_stats, fast_flight) = delivery_transcript(true, &pkts);
    assert!(!classic.is_empty());
    assert_eq!(classic, fast, "fast-path delivery diverged from classic");

    // Conservation identity holds exactly on the fast path.
    let s = fast_stats.stack;
    assert_eq!(
        s.wire_packets,
        s.delivered_packets + s.dropped_packets + s.discarded_packets,
        "fast-path conservation identity violated"
    );
    assert_eq!(s.wire_packets, classic_stats.stack.wire_packets);
    assert_eq!(s.delivered_packets, classic_stats.stack.delivered_packets);
    assert_eq!(s.streams_created, classic_stats.stack.streams_created);

    // Same seed, same path: the full flight journal is reproducible
    // byte for byte.
    let (_, _, fast_flight2) = delivery_transcript(true, &pkts);
    assert_eq!(fast_flight, fast_flight2);
}

#[test]
fn fastpath_counts_bursts_and_checkpoints_dispatch_mode() {
    let pkts = CampusMix::new(CampusMixConfig::sized(5, 256 << 10)).collect_all();
    let mut k = kernel(ScapConfig {
        dispatch: crate::DispatchMode::Fastpath,
        fastpath_burst: 16,
        ..Default::default()
    });
    for p in &pkts {
        k.nic_receive(p);
    }
    let now = pkts.last().unwrap().ts_ns;
    k.service(now, |k, ev| k.release_event(ev));
    let fp = k.fastpath_stats();
    assert!(fp.bursts > 0, "no bursts recorded");
    assert_eq!(fp.packets, pkts.len() as u64);
    assert!(fp.fill_permille() > 0);
    let snap = k.telemetry_snapshot();
    assert_eq!(snap.total(Metric::FastpathPackets), pkts.len() as u64);
    assert_eq!(snap.total(Metric::FastpathBursts), fp.bursts);

    // The dispatch mode and burst size survive checkpoint/restore,
    // so a warm-restarted capture resumes on the same path.
    let bytes = k.checkpoint_bytes(now, 1);
    let img = CheckpointImage::decode(&bytes).unwrap();
    let restored = ScapKernel::from_image(img, None).unwrap();
    assert_eq!(restored.config().dispatch, crate::DispatchMode::Fastpath);
    assert_eq!(restored.config().fastpath_burst, 16);
}

/// A fast-path burst works on frames where they sit in the RX ring. An
/// injected ring stall in the middle of a run must find the ring as it
/// was: the stalled poll takes nothing, loses nothing and drops nothing,
/// and once the window has passed the same frames go through, every one
/// accounted for.
#[test]
fn a_ring_stall_mid_run_leaves_the_lent_ring_intact() {
    use scap_faults::{FaultPlan, RingFaultConfig};
    let plan = FaultPlan {
        ring: RingFaultConfig {
            stall_count: 1,
            stall_ns: 1_000_000,
            period_ns: 1_000_000_000,
        },
        ..FaultPlan::new(7)
    };
    // Where the window falls on the kernel's clock, which the first poll
    // (at 0) anchors.
    let mut clock = plan.ring_injector();
    assert!(!clock.stalled(0));
    let stall = (0..1_000_000_000)
        .step_by(250_000)
        .find(|&t| clock.stalled(t))
        .expect("the plan has a window");
    let after = stall + 1_000_000;
    assert!(!clock.stalled(after));

    let mut k = kernel(ScapConfig {
        dispatch: crate::DispatchMode::Fastpath,
        fastpath_burst: 16,
        cores: 1,
        faults: Some(plan),
        ..Default::default()
    });
    let pkts = CampusMix::new(CampusMixConfig::sized(3, 256 << 10)).collect_all();
    let (first, rest) = pkts.split_at(pkts.len() / 2);
    for p in first {
        k.nic_receive(p);
    }
    let mut bursts = 0;
    while k.poll_burst(0, 0).is_some() {
        bursts += 1;
    }
    assert!(bursts > 1, "the run before the stall is several bursts");
    for p in rest {
        k.nic_receive(p);
    }
    let queued = k.nic.nic.queue(0).len();
    let ring_drops = k.nic_stats().ring_dropped_frames;
    assert!(queued > 16, "a stalled poll would have had a burst to take");

    assert!(k.poll_burst(0, stall).is_none());
    assert_eq!(k.nic.nic.queue(0).len(), queued);
    assert_eq!(k.nic_stats().ring_dropped_frames, ring_drops);

    while k.poll_burst(0, after).is_some() {}
    assert!(k.nic.nic.queue(0).is_empty());
    let end = pkts.last().unwrap().ts_ns + 1;
    k.finish(end);
    k.drain_events(end, |k, ev| k.release_event(ev));
    let s = k.stats();
    assert_eq!(s.resilience.ring_stall_windows, 1);
    assert_eq!(k.fastpath_stats().packets, pkts.len() as u64);
    assert_eq!(s.stack.wire_packets, pkts.len() as u64);
    assert_eq!(
        s.stack.wire_packets,
        s.stack.delivered_packets + s.stack.dropped_packets + s.stack.discarded_packets
    );
}

/// The flow-export application (cutoff 0) on the fast path: every
/// packet of an established stream is a cutoff discard, and the train of
/// one stream's packets a burst carries is one journal entry holding the
/// train's packets and bytes.
#[test]
fn a_cutoff_zero_train_in_a_burst_is_one_journal_entry() {
    let mut k = kernel(ScapConfig {
        dispatch: crate::DispatchMode::Fastpath,
        cores: 1,
        cutoff: crate::config::CutoffPolicy {
            default: Some(0),
            ..Default::default()
        },
        ..Default::default()
    });
    let udp = |i: u8| PacketBuilder::udp_v4([10, 0, 0, i], [172, 16, 0, 1], 1000, 53, &[i; 32]);
    // One packet per flow opens the streams, then each sends a train.
    for i in 0..8 {
        k.nic_receive(&Packet::new(1 + u64::from(i), udp(i)));
    }
    while k.poll_burst(0, 10).is_some() {}
    let opened = k.flight().total_recorded() as usize;
    let mut ts = 100;
    for i in 0..8 {
        for _ in 0..4 {
            ts += 1;
            k.nic_receive(&Packet::new(ts, udp(i)));
        }
    }
    assert!(k.poll_burst(0, 200).is_some());
    assert!(k.poll_burst(0, 200).is_none(), "one burst took every train");
    let entries = &k.flight().events()[opened..];
    assert_eq!(entries.len(), 8);
    let len = udp(0).len() as u64;
    for e in entries {
        assert_eq!(
            (e.kind, e.reason),
            (FlightKind::Discard, DropReason::Cutoff)
        );
        assert_eq!((e.a, e.b, e.ts_ns), (4, 4 * len, 200));
    }
    assert_eq!(k.stats().stack.discarded_packets, 8 + 32);
}

/// Feed `pkts` through whichever dispatch path the kernel is
/// configured for, handing every chunk straight back.
fn service_all(k: &mut ScapKernel, pkts: &[Packet]) {
    for p in pkts {
        k.nic_receive(p);
        k.service(p.ts_ns, |k, ev| k.release_event(ev));
    }
}

/// A kernel stopped mid-`CampusMix` with partial chunks pending and
/// out-of-order segments buffered, and the trace it was fed.
fn mid_capture(dispatch: crate::DispatchMode) -> (ScapKernel, Vec<Packet>, usize) {
    let pkts = CampusMix::new(CampusMixConfig::sized(9, 2 << 20)).collect_all();
    let mut k = kernel(ScapConfig {
        dispatch,
        chunk_size: 4096,
        inactivity_timeout_ns: 2_000_000_000,
        ..Default::default()
    });
    // Stop at the first packet (past the middle) that leaves both
    // kinds of borrowed payload in the kernel.
    let mut stop = pkts.len() / 2;
    service_all(&mut k, &pkts[..stop]);
    let both = |k: &ScapKernel| {
        let states = || {
            let cores = k.flows.cores.iter();
            cores.flat_map(|c| c.iter().filter_map(move |(id, _)| c.state(id)))
        };
        states()
            .any(|ks| (ks.seg.iter()).any(|s| s.asm.iter().any(|a| !a.pending_bytes().is_empty())))
            && states().any(|ks| {
                ks.conn().is_some_and(|c| {
                    c.dir(Direction::Forward).buffered_bytes()
                        + c.dir(Direction::Reverse).buffered_bytes()
                        > 0
                })
            })
    };
    while !both(&k) {
        service_all(&mut k, &pkts[stop..stop + 1]);
        stop += 1;
    }
    (k, pkts, stop)
}

#[test]
fn one_pass_image_equals_the_owned_re_encode_and_resumes() {
    for dispatch in [crate::DispatchMode::Classic, crate::DispatchMode::Fastpath] {
        let (mut k, pkts, stop) = mid_capture(dispatch);
        let now = pkts[stop - 1].ts_ns;
        let mut bytes = Vec::new();
        k.checkpoint_into(now, 4, &mut bytes);
        let img = CheckpointImage::decode(&bytes).expect("image decodes");
        assert!(img.streams.len() > 10, "{dispatch:?}: trivial image");
        assert_eq!(
            img.to_bytes(),
            bytes,
            "{dispatch:?}: borrowed and owned encodings differ"
        );

        // … and the capture resumes from it to the end of the trace.
        let live_streams = img.streams.iter().filter(|s| s.kstate.is_some()).count();
        let mut k2 = ScapKernel::from_image(img, None).expect("restore");
        service_all(&mut k2, &pkts[stop..]);
        let end = pkts.last().unwrap().ts_ns + 1;
        k2.finish(end);
        k2.drain_events(end, |k, ev| k.release_event(ev));
        let st = k2.stats();
        assert_eq!(st.resilience.restarts, 1);
        assert_eq!(st.resilience.resumed_streams, live_streams as u64);
        assert!(st.stack.streams_created > 0);
    }
}

#[test]
fn checkpoint_into_leaves_no_stale_tail_in_a_reused_buffer() {
    let (mut k, pkts, stop) = mid_capture(crate::DispatchMode::Classic);
    let now = pkts[stop - 1].ts_ns;
    let fresh = k.checkpoint_bytes(now, 1);
    // A buffer that held a larger image (and arbitrary bytes).
    let mut reused = vec![0xEE; fresh.len() * 2 + 13];
    k.checkpoint_into(now, 1, &mut reused);
    assert_eq!(reused, fresh);
    // … and one that held a smaller one.
    let mut small = fresh[..fresh.len() / 3].to_vec();
    k.checkpoint_into(now, 1, &mut small);
    assert_eq!(small, fresh);
    assert_eq!(k.stats().resilience.checkpoints_written, 3);
}

/// A timer can change a stream's kernel state with no packet of the
/// stream in sight (its NIC filters swallow them): the stamp of a
/// state borrow alone must get the stream re-encoded.
#[test]
fn a_filter_timeout_alone_reaches_the_next_image() {
    let mut k = kernel(ScapConfig {
        cutoff: crate::config::CutoffPolicy {
            default: Some(1000),
            ..Default::default()
        },
        use_fdir: true,
        chunk_size: 4096,
        ..Default::default()
    });
    let pkts = http_session(b"Q", &vec![b'R'; 40_000]);
    // Stop mid-response, past the cutoff: filters are installed.
    let stop = pkts.len() - 6;
    service_all(&mut k, &pkts[..stop]);
    let now = pkts[stop - 1].ts_ns;
    let fdir_installed = |bytes: &[u8]| {
        let img = CheckpointImage::decode(bytes).expect("image decodes");
        assert_eq!(img.streams.len(), 1);
        img.streams[0].kstate.as_ref().unwrap().fdir_installed
    };
    let mut image = Vec::new();
    k.checkpoint_into(now, 1, &mut image);
    assert!(fdir_installed(&image));
    // Nothing touched since: every frame is copied, same image.
    let first = image.clone();
    k.checkpoint_into(now, 1, &mut image);
    assert_eq!(image, first);
    // The filters time out on core 0's timer pass.
    let later = now + hw::FDIR_INITIAL_TIMEOUT_NS + 1;
    k.kernel_timers(0, later);
    assert_eq!(k.fdir_filters(), 0);
    k.checkpoint_into(later, 2, &mut image);
    assert!(!fdir_installed(&image));
    assert_eq!(CheckpointImage::decode(&image).unwrap().to_bytes(), image);
}

/// The kernel copies clean frames from its own copy of the last
/// image: what happens to the bytes it handed out (the fleet's fault
/// plan flips some in a stored image) never reaches the next one.
#[test]
fn a_corrupted_copy_of_the_last_image_does_not_propagate() {
    let (mut k, pkts, stop) = mid_capture(crate::DispatchMode::Classic);
    let now = pkts[stop - 1].ts_ns;
    let mut image = Vec::new();
    k.checkpoint_into(now, 1, &mut image);
    let clean = image.clone();
    for b in image.iter_mut().skip(clean.len() / 2).take(8) {
        *b ^= 0xFF;
    }
    assert!(CheckpointImage::decode(&image).is_err());
    // Into the corrupted buffer itself, as a rotation would.
    k.checkpoint_into(now, 1, &mut image);
    assert_eq!(image, clean);
    // … and the traffic that follows dirties only part of the image.
    service_all(&mut k, &pkts[stop..stop + 40]);
    k.checkpoint_into(pkts[stop + 39].ts_ns, 2, &mut image);
    let img = CheckpointImage::decode(&image).expect("next image decodes clean");
    assert_eq!(img.to_bytes(), image);
}

/// Header-only flows pay for no box: 1,200 cutoff-0 UDP flows (every
/// third answered) and 1,000 TCP flows that shake hands and send one
/// segment the cutoff turns away. No UDP flow holds a box; every TCP flow
/// holds one, its connection tracker. Each direction the gate turned
/// away, and each TCP direction that passed only headers, has an
/// assembler at offset 0 with nothing pending: a checkpoint shows it as
/// such, and a kernel restored from that image keeps it a bit, no box.
#[test]
fn header_only_flows_hold_no_box_and_image_their_empty_assemblers() {
    let mut k = kernel(ScapConfig {
        cores: 2,
        inactivity_timeout_ns: u64::MAX / 2,
        cutoff: crate::config::CutoffPolicy {
            default: Some(0),
            ..Default::default()
        },
        ..Default::default()
    });
    let (udp_flows, tcp_flows) = (1_200u32, 1_000u32);
    let host = |i: u32| [10, 9, (i >> 8) as u8, i as u8];
    let server = [172, 16, 0, 1];
    let mut pkts = Vec::new();
    let mut ts = 0;
    let mut at = |frame: Vec<u8>| {
        ts += 1_000;
        Packet::new(ts, frame)
    };
    for i in 0..udp_flows {
        pkts.push(at(PacketBuilder::udp_v4(
            host(i),
            server,
            4000,
            53,
            &[1; 40],
        )));
        if i % 3 == 0 {
            pkts.push(at(PacketBuilder::udp_v4(
                server,
                host(i),
                53,
                4000,
                &[2; 90],
            )));
        }
    }
    let ack = TcpFlags::ACK;
    for i in 0..tcp_flows {
        let c = host(i);
        for (from, to, sp, dp, seq, ackn, flags, payload) in [
            (c, server, 5000, 80, 1, 0, TcpFlags::SYN, &b""[..]),
            (server, c, 80, 5000, 9, 2, TcpFlags::SYN | ack, b""),
            (c, server, 5000, 80, 2, 10, ack, b""),
            (c, server, 5000, 80, 2, 10, ack, &[3; 300]),
        ] {
            let frame = PacketBuilder::tcp_v4(from, to, sp, dp, seq, ackn, flags, payload);
            pkts.push(at(frame));
        }
    }
    let now = pkts.last().unwrap().ts_ns;
    let events = drive(&mut k, &pkts);
    assert_eq!(events.iter().map(Event::data_len).sum::<usize>(), 0);

    // (is UDP, answered) per uid, and each stream's state.
    let check = |k: &ScapKernel| {
        let mut seen = (0, 0);
        for core in &k.flows.cores {
            for (id, rec) in core.iter() {
                let ks = core.state(id).expect("no tombstones here");
                let opened = [ks.opened(0), ks.opened(1)];
                if rec.key.transport() == Transport::Udp {
                    seen.0 += 1;
                    assert!(ks.seg.is_none(), "UDP uid {} holds a box", ks.uid());
                    let answered = rec.dirs[Direction::Reverse.index()].total_pkts > 0;
                    assert_eq!(opened, [true, answered], "uid {}", ks.uid());
                } else {
                    seen.1 += 1;
                    assert!(ks.conn().is_some(), "TCP uid {} has no tracker", ks.uid());
                    assert_eq!(opened, [true, true]);
                    assert_eq!((ks.offset(0), ks.offset(1)), (0, 0));
                }
            }
        }
        assert_eq!(seen, (udp_flows, tcp_flows));
    };
    check(&k);

    let bytes = k.checkpoint_bytes(now, 1);
    let img = CheckpointImage::decode(&bytes).expect("image decodes");
    let empty = Some(crate::checkpoint::AsmImage {
        committed: 0,
        pending: Vec::new(),
    });
    let mut gated = 0;
    for s in &img.streams {
        let ksi = s.kstate.as_ref().expect("a live stream");
        let udp = s.key.transport() == Transport::Udp;
        assert_eq!(ksi.conn.is_none(), udp, "uid {}", s.uid);
        for d in 0..2 {
            if udp && s.dirs[d].total_pkts == 0 {
                assert_eq!(ksi.asm[d], None, "uid {} dir {d}", s.uid);
            } else {
                assert_eq!(ksi.asm[d], empty, "uid {} dir {d}", s.uid);
                gated += 1;
            }
        }
    }
    assert_eq!(gated, udp_flows + udp_flows.div_ceil(3) + 2 * tcp_flows);

    // Restored, the flows are as small as before and image the same.
    let mut restored = ScapKernel::from_image(img, None).expect("restore");
    check(&restored);
    let again = CheckpointImage::decode(&restored.checkpoint_bytes(now, 2)).unwrap();
    let before = CheckpointImage::decode(&bytes).unwrap();
    let kstates = |img: &CheckpointImage| -> Vec<_> {
        img.streams
            .iter()
            .map(|s| (s.uid, s.kstate.clone()))
            .collect()
    };
    assert_eq!(kstates(&again), kstates(&before));
}

/// Per-stream overrides over 1,100 cutoff-0 flows (600 UDP, 500 TCP):
/// `SetCutoff` widening and narrowing per direction, `SetChunkGeometry`,
/// a configuration reload that replaces the default and the classes, and
/// `Discard`. The image shows each stream's effective cutoff and chunk
/// geometry; its captured bytes and `cutoff_exceeded` show what the gate
/// did with them, re-opening included. The reload resets every cutoff to
/// its class's, keeps the app's geometry, and gives no box to a stream
/// that had none.
#[test]
fn stream_overrides_widen_narrow_reload_and_discard() {
    use scap_filter::Filter;
    let mut k = kernel(ScapConfig {
        cores: 1,
        chunk_size: 4096,
        inactivity_timeout_ns: u64::MAX / 2,
        cutoff: crate::config::CutoffPolicy {
            default: Some(0),
            ..Default::default()
        },
        ..Default::default()
    });
    let (udp_flows, tcp_flows) = (600u32, 500u32);
    let server = [172, 16, 0, 1];
    let host = |i: u32| [10, 7, (i >> 8) as u8, i as u8];
    let is_udp = |i: u32| i < udp_flows;
    // Group of flow `i`: which override it is given.
    let group = |i: u32| i % 8;
    let ts = std::cell::Cell::new(0);
    let at = |frame: Vec<u8>| {
        ts.set(ts.get() + 1_000);
        Packet::new(ts.get(), frame)
    };
    let ack = TcpFlags::ACK;
    // Client → server payload of flow `i` at TCP sequence `seq`.
    let data = |i: u32, seq: u32, len: usize| {
        let c = host(i);
        if is_udp(i) {
            PacketBuilder::udp_v4(c, server, 4000, 53, &vec![1; len])
        } else {
            PacketBuilder::tcp_v4(c, server, 5000, 80, seq, 10, ack, &vec![2; len])
        }
    };
    let flows = 0..udp_flows + tcp_flows;
    // Phase 1: every UDP flow sends a datagram the cutoff turns away
    // (every other one is answered); every TCP flow shakes hands.
    let mut pkts = Vec::new();
    for i in flows.clone() {
        let c = host(i);
        if is_udp(i) {
            pkts.push(at(data(i, 0, 40)));
            if i % 2 == 0 {
                pkts.push(at(PacketBuilder::udp_v4(server, c, 53, 4000, &[3; 90])));
            }
        } else {
            for (from, to, sp, dp, seq, ackn, flags) in [
                (c, server, 5000, 80, 1, 0, TcpFlags::SYN),
                (server, c, 80, 5000, 9, 2, TcpFlags::SYN | ack),
                (c, server, 5000, 80, 2, 10, ack),
            ] {
                pkts.push(at(PacketBuilder::tcp_v4(
                    from, to, sp, dp, seq, ackn, flags, b"",
                )));
            }
        }
    }
    let events = drive(&mut k, &pkts);
    let named: std::collections::HashMap<FlowKey, StreamRef> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Created))
        .map(|e| (e.stream.key, StreamRef::from(&e.stream)))
        .collect();
    let key = |i: u32| {
        let t = if is_udp(i) {
            Transport::Udp
        } else {
            Transport::Tcp
        };
        let (sp, dp) = if is_udp(i) { (4000, 53) } else { (5000, 80) };
        FlowKey::new_v4(host(i), server, sp, dp, t).canonical().0
    };
    let streams: Vec<StreamRef> = flows.clone().map(|i| named[&key(i)]).collect();
    let uids: Vec<StreamUid> = streams.iter().map(|s| s.uid).collect();
    let boxed = |k: &ScapKernel, s: StreamRef| {
        let (core, id) = k.flows.find(0, &s).expect("a live stream");
        k.flows.cores[core]
            .state(id)
            .expect("kernel state")
            .seg
            .is_some()
    };
    let image = |k: &mut ScapKernel, seq: u64| {
        let img =
            CheckpointImage::decode(&k.checkpoint_bytes(ts.get(), seq)).expect("image decodes");
        let by_uid: std::collections::HashMap<StreamUid, crate::checkpoint::StreamImage> =
            img.streams.into_iter().map(|s| (s.uid, s)).collect();
        by_uid
    };
    let fwd = Direction::Forward.index();
    // The client sends first, so its direction is the one `key` names.
    for i in flows.clone() {
        assert_eq!(key(i).canonical().1, Direction::Forward);
    }

    // Phase 2: the overrides.
    let (f, r) = (Direction::Forward, Direction::Reverse);
    for i in flows.clone() {
        let uid = streams[i as usize];
        match group(i) {
            0 => k.control(ControlOp::SetCutoff(uid, Some(f), Some(1_000))),
            1 => k.control(ControlOp::SetCutoff(uid, None, Some(1_000))),
            2 => {
                k.control(ControlOp::SetCutoff(uid, Some(r), Some(500)));
                k.control(ControlOp::SetCutoff(uid, Some(r), Some(0)));
            }
            3 => {
                k.control(ControlOp::SetChunkGeometry(uid, 512, 64));
                k.control(ControlOp::SetCutoff(uid, None, None));
            }
            4 => k.control(ControlOp::Discard(uid)),
            5 => k.control(ControlOp::SetCutoff(uid, None, Some(0))),
            6 => k.control(ControlOp::SetChunkGeometry(uid, 4096, 0)),
            _ => {}
        }
    }
    let img = image(&mut k, 1);
    for i in flows.clone() {
        let s = &img[&uids[i as usize]];
        let want = match group(i) {
            0 => [Some(1_000), Some(0)],
            1 => [Some(1_000), Some(1_000)],
            3 => [None, None],
            _ => [Some(0), Some(0)],
        };
        assert_eq!(s.cutoff, want, "flow {i}");
        let geometry = if group(i) == 3 { (512, 64) } else { (4096, 0) };
        assert_eq!((s.chunk_size, s.overlap), geometry, "flow {i}");
        // A flow is cut off from its first packet (a TCP flow by its
        // SYN, at offset 0) until both directions are within a widened
        // cutoff.
        let exceeded = !matches!(group(i), 1 | 3);
        assert_eq!(s.cutoff_exceeded, exceeded, "flow {i}");
        assert_eq!(s.discarded, group(i) == 4, "flow {i}");
        // Equal to what the stream already has, an override changes
        // nothing, and a header-only UDP flow stays boxless.
        if is_udp(i) && matches!(group(i), 4..=7) {
            assert!(!boxed(&k, streams[i as usize]), "flow {i}");
        }
    }

    // Phase 3: 700 bytes from every client.
    let pkts: Vec<Packet> = flows.clone().map(|i| at(data(i, 2, 700))).collect();
    let events = drive(&mut k, &pkts);
    // Only group 3's 512-byte chunks fill before a flush.
    let chunked: Vec<StreamUid> = flows
        .clone()
        .filter(|&i| group(i) == 3)
        .map(|i| uids[i as usize])
        .collect();
    let mut filled = Vec::new();
    for e in &events {
        if let EventKind::Data { chunk, .. } = &e.kind {
            assert_eq!(chunk.len(), 512, "uid {}", e.stream.uid);
            filled.push(e.stream.uid);
        }
    }
    assert_eq!(filled, chunked);
    let img = image(&mut k, 2);
    for i in flows.clone() {
        let s = &img[&uids[i as usize]];
        let widened = matches!(group(i), 0 | 1 | 3);
        let captured = if widened { 700 } else { 0 };
        assert_eq!(s.dirs[fwd].captured_bytes, captured, "flow {i}");
        assert_eq!(s.cutoff_exceeded, !matches!(group(i), 1 | 3), "flow {i}");
        // Group 3's 512-byte chunks: one complete, the rest pending.
        let committed = s.kstate.as_ref().unwrap().asm[fwd]
            .as_ref()
            .map(|a| a.committed);
        assert_eq!(committed.unwrap_or(0), captured, "flow {i}");
        let pending = s.kstate.as_ref().unwrap().asm[fwd]
            .as_ref()
            .map_or(0, |a| a.pending.len());
        let want = match group(i) {
            3 => 700 - 512 + 64,
            0 | 1 => 700,
            _ => 0,
        };
        assert_eq!(pending, want, "flow {i}");
        assert_eq!(s.chunks, u64::from(group(i) == 3), "flow {i}");
    }

    // Phase 4: a reload widens the default to 300 and puts UDP in a
    // class of 50. Every stream's cutoff becomes its class's; the app's
    // chunk geometry stays.
    let had_box: Vec<bool> = streams.iter().map(|&s| boxed(&k, s)).collect();
    k.try_apply_config(crate::config::ConfigDelta {
        cutoff_default: Some(Some(300)),
        cutoff_classes: Some(vec![(Filter::new("udp").unwrap(), 50)]),
        ..Default::default()
    })
    .expect("a widening reload is valid");
    let img = image(&mut k, 3);
    for i in flows.clone() {
        let s = &img[&uids[i as usize]];
        let class = if is_udp(i) { 50 } else { 300 };
        assert_eq!(s.cutoff, [Some(class), Some(class)], "flow {i}");
        let geometry = if group(i) == 3 { (512, 64) } else { (4096, 0) };
        assert_eq!((s.chunk_size, s.overlap), geometry, "flow {i}");
        // Re-opened wherever both directions are within the new cutoff:
        // all but group 0, whose 700 bytes are past it. (Groups 1 and 3
        // are open and stay so until their next packet.)
        assert_eq!(s.cutoff_exceeded, group(i) == 0, "flow {i}");
        // The reload gave no stream a box it did not have.
        let overridden = matches!(group(i), 0..=3);
        if !overridden {
            assert_eq!(
                boxed(&k, streams[i as usize]),
                had_box[i as usize],
                "flow {i}"
            );
        }
        if is_udp(i) && !overridden {
            assert!(!boxed(&k, streams[i as usize]), "flow {i}");
        }
    }

    // Phase 5: 100 more bytes from every client meet the new cutoffs.
    let pkts: Vec<Packet> = flows.clone().map(|i| at(data(i, 702, 100))).collect();
    drive(&mut k, &pkts);
    let img = image(&mut k, 4);
    for i in flows.clone() {
        let s = &img[&uids[i as usize]];
        let cap = if is_udp(i) { 50 } else { 300 };
        let before = if matches!(group(i), 0 | 1 | 3) {
            700
        } else {
            0
        };
        let got = s.dirs[fwd].captured_bytes - before;
        let want = match group(i) {
            0 | 1 | 3 | 4 => 0,
            _ => 100.min(cap),
        };
        assert_eq!(got, want, "flow {i}");
        let exceeded = match group(i) {
            0 | 1 | 3 => true,
            4 => is_udp(i),
            _ => false,
        };
        assert_eq!(s.cutoff_exceeded, exceeded, "flow {i}");
        assert_eq!(s.discarded, group(i) == 4, "flow {i}");
    }
}

/// Image → restore → image is byte-identical (the restart counter
/// aside) for every kind of stream a kernel holds: header-only flows
/// without a box, streams with app overrides (a cutoff other than their
/// class's, a chunk geometry other than the socket's, with or without
/// bytes assembled), a stream resumed across an earlier restart with a
/// blackout gap, a stream whose NIC filters were reinstalled twice (its
/// FDIR timeout doubled twice), and the two fields only an image writes
/// (`reassembly_policy`, `processing_time_ns`).
#[test]
fn image_restore_image_is_byte_identical_for_every_kind_of_stream() {
    use scap_filter::Filter;
    let cfg = ScapConfig {
        cores: 1,
        use_fdir: true,
        chunk_size: 4096,
        inactivity_timeout_ns: u64::MAX / 2,
        cutoff: crate::config::CutoffPolicy {
            default: Some(1_000),
            classes: vec![(Filter::new("udp").unwrap(), 0)],
            ..Default::default()
        },
        ..Default::default()
    };
    let server = [172, 16, 0, 2];
    let ack = TcpFlags::ACK;
    let tcp = |c: [u8; 4], port: u16| {
        move |ts: u64, to_server: bool, seq: u32, flags: TcpFlags, payload: &[u8]| {
            let frame = if to_server {
                PacketBuilder::tcp_v4(c, server, port, 80, seq, 1, flags, payload)
            } else {
                PacketBuilder::tcp_v4(server, c, 80, port, seq, 1, flags, payload)
            };
            Packet::new(ts, frame)
        }
    };
    fn handshake(p: impl Fn(u64, bool, u32, TcpFlags, &[u8]) -> Packet, ts: u64) -> Vec<Packet> {
        let ack = TcpFlags::ACK;
        vec![
            p(ts, true, 0, TcpFlags::SYN, b""),
            p(ts + 1, false, 0, TcpFlags::SYN | ack, b""),
            p(ts + 2, true, 1, ack, b""),
        ]
    }
    let ms = 1_000_000u64;

    // A stream resumed across a restart: 300 bytes before the image, the
    // next 400 lost in the blackout, then 200 more.
    let r = tcp([10, 5, 0, 1], 6000);
    let mut before = handshake(r, ms);
    before.push(r(2 * ms, true, 1, ack, &[1; 300]));
    let mut k0 = kernel(cfg.clone());
    drive(&mut k0, &before);
    let i0 = CheckpointImage::decode(&k0.checkpoint_bytes(2 * ms, 1)).unwrap();
    let mut k = ScapKernel::from_image(i0, None).expect("restore");
    drive(&mut k, &[r(3 * ms, true, 1 + 300 + 400, ack, &[1; 200])]);

    // Header-only UDP flows, class cutoff 0, and two with overrides but
    // no bytes: a cutoff, a chunk geometry.
    let udp = |i: u8, ts: u64| {
        Packet::new(
            ts,
            PacketBuilder::udp_v4([10, 6, 0, i], server, 4000, 53, &[2; 40]),
        )
    };
    let udp_pkts: Vec<Packet> = (0..6).map(|i| udp(i, 4 * ms + u64::from(i))).collect();
    let events = drive(&mut k, &udp_pkts);
    let udp: Vec<StreamRef> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Created))
        .map(|e| StreamRef::from(&e.stream))
        .collect();
    let udp_uids: Vec<StreamUid> = udp.iter().map(|s| s.uid).collect();
    assert_eq!(udp_uids.len(), 6);
    k.control(ControlOp::SetCutoff(
        udp[0],
        Some(Direction::Reverse),
        Some(64),
    ));
    k.control(ControlOp::SetChunkGeometry(udp[1], 256, 16));

    // A TCP stream with both overrides and bytes pending.
    let o = tcp([10, 7, 0, 1], 7000);
    let mut pkts = handshake(o, 5 * ms);
    pkts.push(o(6 * ms, true, 1, ack, &[3; 700]));
    let events = drive(&mut k, &pkts);
    let o_stream = StreamRef::from(&events[0].stream);
    let o_uid = o_stream.uid;
    k.control(ControlOp::SetCutoff(
        o_stream,
        Some(Direction::Forward),
        Some(50_000),
    ));
    k.control(ControlOp::SetChunkGeometry(o_stream, 512, 32));
    drive(&mut k, &[o(7 * ms, true, 701, ack, &[3; 900])]);

    // A stream past its cutoff whose FDIR filters timed out and were
    // reinstalled twice: 2 s, then 4 s, then 8 s.
    let f = tcp([10, 8, 0, 1], 8000);
    let mut pkts = handshake(f, 8 * ms);
    let s = 1_000 * ms;
    let mut seq = 1;
    for ts in [9 * ms, 3 * s, 3 * s + ms, 8 * s, 8 * s + ms] {
        pkts.push(f(ts, false, seq, ack, &[4; 1_000]));
        seq += 1_000;
    }
    drive(&mut k, &pkts);
    let now = 8 * s + 2 * ms;

    // The fields only an image writes, on a boxless flow and a boxed one.
    let mut i1 = CheckpointImage::decode(&k.checkpoint_bytes(now, 1)).unwrap();
    for s in &mut i1.streams {
        if s.uid == udp_uids[2] {
            s.processing_time_ns = 77;
        }
        if s.uid == udp_uids[3] {
            s.reassembly_policy = Some(1);
        }
        if s.uid == o_uid {
            s.processing_time_ns = 5;
            s.reassembly_policy = Some(2);
        }
    }
    let b1 = i1.to_bytes();
    let i1 = CheckpointImage::decode(&b1).unwrap();

    // The image holds every kind.
    let find = |img: &CheckpointImage, uid: StreamUid| {
        img.streams.iter().find(|s| s.uid == uid).unwrap().clone()
    };
    let resumed = &i1.streams[0];
    assert!(StreamErrors(resumed.errors).contains(StreamErrors::RESUMED));
    assert_eq!(resumed.resume_gap_bytes, 400);
    let header_only = find(&i1, udp_uids[5]);
    assert_eq!(header_only.cutoff, [Some(0), Some(0)]);
    assert!(header_only.kstate.as_ref().unwrap().conn.is_none());
    assert_eq!(find(&i1, udp_uids[0]).cutoff, [Some(0), Some(64)]);
    assert_eq!(find(&i1, udp_uids[1]).chunk_size, 256);
    let overridden = find(&i1, o_uid);
    assert_eq!(overridden.cutoff, [Some(50_000), Some(1_000)]);
    assert_eq!((overridden.chunk_size, overridden.overlap), (512, 32));
    assert!(overridden.dirs[0].captured_bytes == 1_600 && overridden.chunks > 0);
    let backed_off = i1
        .streams
        .iter()
        .find(|s| s.key.src_port() == 8000 || s.key.dst_port() == 8000);
    let backed_off = backed_off.unwrap().kstate.as_ref().unwrap();
    assert!(backed_off.fdir_installed);
    assert_eq!(backed_off.fdir_timeout_ns, 4 * hw::FDIR_INITIAL_TIMEOUT_NS);

    // Restored, every stream images as it was (a first restore marks
    // each live stream resumed) …
    let mut k2 = ScapKernel::from_image(i1, None).expect("restore");
    let b2 = k2.checkpoint_bytes(now, 1);
    let i2 = CheckpointImage::decode(&b2).unwrap();
    let i1 = CheckpointImage::decode(&b1).unwrap();
    let unmarked = |img: &CheckpointImage| -> Vec<_> {
        let streams = img.streams.iter().cloned();
        streams
            .map(|mut s| {
                s.errors &= !StreamErrors::RESUMED.0;
                s
            })
            .collect()
    };
    assert_eq!(unmarked(&i2), unmarked(&i1));
    assert_eq!(i2.fdir, i1.fdir);
    // … and restored again, byte for byte.
    let mut k3 = ScapKernel::from_image(CheckpointImage::decode(&b2).unwrap(), None).unwrap();
    let mut i3 = CheckpointImage::decode(&k3.checkpoint_bytes(now, 1)).unwrap();
    assert_eq!(i3.globals.restarts, i2.globals.restarts + 1);
    i3.globals.restarts = i2.globals.restarts;
    assert_eq!(i3.to_bytes(), b2);
}

/// A restore refuses, as corrupt and without a panic, what this kernel
/// could not have written: an FDIR timeout that is no doubling of the
/// initial one, a live stream with uid 0, and a TIME_WAIT tombstone that
/// carries more than its record.
#[test]
fn a_restore_rejects_stream_state_this_kernel_cannot_have_written() {
    let mut k = kernel(ScapConfig {
        cutoff: crate::config::CutoffPolicy {
            default: Some(1000),
            ..Default::default()
        },
        use_fdir: true,
        chunk_size: 4096,
        ..Default::default()
    });
    let pkts = http_session(b"Q", &vec![b'R'; 40_000]);
    let stop = pkts.len() - 6;
    drive(&mut k, &pkts[..stop]);
    let now = pkts[stop - 1].ts_ns;
    let image = k.checkpoint_bytes(now, 1);
    let edited = |edit: &dyn Fn(&mut crate::checkpoint::StreamImage)| {
        let mut img = CheckpointImage::decode(&image).unwrap();
        assert_eq!(img.streams.len(), 1);
        edit(&mut img.streams[0]);
        let img = CheckpointImage::decode(&img.to_bytes()).expect("still decodes");
        ScapKernel::from_image(img, None)
    };
    let rejects = |edit: &dyn Fn(&mut crate::checkpoint::StreamImage)| match edited(edit) {
        Err(crate::checkpoint::CheckpointError::Corrupt(_)) => {}
        Err(e) => panic!("not corrupt: {e}"),
        Ok(_) => panic!("restored"),
    };
    for timeout in [0, 1, 3 * hw::FDIR_INITIAL_TIMEOUT_NS, u64::MAX - 1] {
        rejects(&|s| s.kstate.as_mut().unwrap().fdir_timeout_ns = timeout);
    }
    rejects(&|s| s.uid = 0);
    let tombstone = |s: &mut crate::checkpoint::StreamImage| {
        s.kstate = None;
        s.cutoff = [None, None];
        (s.chunk_size, s.overlap) = (0, 0);
        s.chunks = 0;
        for d in &mut s.dirs {
            (d.captured_pkts, d.captured_bytes) = (0, 0);
        }
    };
    rejects(&|s| {
        tombstone(s);
        s.chunks = 1;
    });
    rejects(&|s| {
        tombstone(s);
        s.cutoff[1] = Some(5);
    });
    // A tombstone with nothing but its record restores, and a doubled
    // timeout, saturated or not, is one this kernel writes back.
    assert!(edited(&tombstone).is_ok());
    for timeout in [4 * hw::FDIR_INITIAL_TIMEOUT_NS, u64::MAX] {
        let restored = edited(&|s| s.kstate.as_mut().unwrap().fdir_timeout_ns = timeout);
        let again = restored.unwrap().checkpoint_bytes(now, 1);
        let again = CheckpointImage::decode(&again).unwrap();
        assert_eq!(
            again.streams[0].kstate.as_ref().unwrap().fdir_timeout_ns,
            timeout
        );
    }
}

/// One TCP session's packets towards `server:80` from `client:port`,
/// handshake first: the client's payload as `client_segments`, then the
/// server's, each in frames of at most 1,000 bytes, `ts` nanoseconds
/// apart from `t0`.
fn tcp_session(
    (client, port): ([u8; 4], u16),
    t0: u64,
    client_segments: &[&[u8]],
    server_segments: &[&[u8]],
) -> Vec<Packet> {
    let server = [172, 16, 0, 9];
    let ack = TcpFlags::ACK;
    let mut ts = t0;
    let mut at = |frame: Vec<u8>| {
        ts += 1_000;
        Packet::new(ts, frame)
    };
    let mut pkts = vec![
        at(PacketBuilder::tcp_v4(
            client,
            server,
            port,
            80,
            1,
            0,
            TcpFlags::SYN,
            b"",
        )),
        at(PacketBuilder::tcp_v4(
            server,
            client,
            80,
            port,
            9,
            2,
            TcpFlags::SYN | ack,
            b"",
        )),
        at(PacketBuilder::tcp_v4(
            client, server, port, 80, 2, 10, ack, b"",
        )),
    ];
    let (mut cseq, mut sseq) = (2u32, 10u32);
    for (to_server, segments) in [(true, client_segments), (false, server_segments)] {
        for seg in segments.iter().flat_map(|s| s.chunks(1_000)) {
            let frame = if to_server {
                PacketBuilder::tcp_v4(client, server, port, 80, cseq, sseq, ack, seg)
            } else {
                PacketBuilder::tcp_v4(server, client, 80, port, sseq, cseq, ack, seg)
            };
            pkts.push(at(frame));
            *(if to_server { &mut cseq } else { &mut sseq }) += seg.len() as u32;
        }
    }
    pkts
}

/// The directions holding a partial chunk, over every core.
fn pending_directions(k: &ScapKernel) -> usize {
    let cores = k.flows.cores.iter();
    let states = cores.flat_map(|core| core.iter().filter_map(|(id, _)| core.state(id)));
    let boxes = states.filter_map(|ks| ks.seg.as_deref());
    boxes
        .flat_map(|seg| seg.asm.iter())
        .filter(|a| a.has_pending())
        .count()
}

/// A block fits its chunk: 3,000 concurrent short TCP sessions with
/// 200-byte segments (half the clients send two) keep every direction's
/// partial chunk open. The budget charges each the full 16 KiB chunk, as
/// it always has; the arena holds at most 512 bytes of block for each.
#[test]
fn short_sessions_hold_blocks_that_fit_their_chunks() {
    let mut k = kernel(ScapConfig {
        cores: 2,
        memory_bytes: 1 << 30,
        flush_timeout_ns: u64::MAX / 2,
        inactivity_timeout_ns: u64::MAX / 2,
        ..Default::default()
    });
    let sessions = 3_000u32;
    let seg = [7u8; 200];
    let pkts: Vec<Packet> = (0..sessions)
        .flat_map(|i| {
            let client = ([10, 20, (i >> 8) as u8, i as u8], 5_000);
            let ask: &[&[u8]] = if i % 2 == 0 { &[&seg, &seg] } else { &[&seg] };
            tcp_session(client, u64::from(i) * 10_000, ask, &[&seg])
        })
        .collect();
    let events = drive(&mut k, &pkts);
    assert_eq!(events.iter().map(Event::data_len).sum::<usize>(), 0);
    assert_eq!(k.stats().stack.dropped_packets, 0);
    let dirs = pending_directions(&k);
    assert_eq!(dirs, 2 * sessions as usize);
    let arena = &k.place.arena;
    assert_eq!(arena.used(), dirs * k.cfg.chunk_size);
    assert!(
        arena.block_bytes() <= dirs * 512,
        "{} B of blocks for {dirs} directions",
        arena.block_bytes()
    );
}

/// Data events as (direction, start offset, bytes).
fn chunks_of(events: &[Event]) -> Vec<(Direction, u64, Vec<u8>)> {
    let data = events.iter().filter_map(|e| match &e.kind {
        EventKind::Data { dir, chunk, .. } => {
            Some((*dir, chunk.start_offset, chunk.bytes().to_vec()))
        }
        _ => None,
    });
    data.collect()
}

/// Restore across block classes: partial chunks of 200 B, 4 KiB + 1 and
/// `chunk_size` − 1 come back in blocks of their own class (256, 8,192
/// and 16,384 bytes), charged the full chunk each; image → restore →
/// image is byte-identical; and the restored kernel completes the chunks
/// exactly as the kernel that wrote the image does.
#[test]
fn a_restore_puts_each_pending_chunk_in_a_block_of_its_class() {
    let cfg = ScapConfig {
        cores: 1,
        flush_timeout_ns: u64::MAX / 2,
        inactivity_timeout_ns: u64::MAX / 2,
        ..Default::default()
    };
    let chunk = cfg.chunk_size;
    let pending = [200, 4 << 10 | 1, chunk - 1];
    let bytes =
        |i: usize, n: usize| -> Vec<u8> { (0..n).map(|b| (b % 251) as u8 ^ i as u8).collect() };
    let client = |i: usize| ([10, 30, 0, i as u8], 6_000);
    let mut k = kernel(cfg);
    for (i, &n) in pending.iter().enumerate() {
        let pkts = tcp_session(client(i), i as u64 * 1_000_000, &[&bytes(i, n)], &[]);
        assert!(chunks_of(&drive(&mut k, &pkts)).is_empty());
    }
    let now = 10_000_000;
    let b1 = k.checkpoint_bytes(now, 1);

    let mut k2 = ScapKernel::from_image(CheckpointImage::decode(&b1).unwrap(), None).unwrap();
    let arena = &k2.place.arena;
    assert_eq!(arena.used(), 3 * chunk);
    assert_eq!(arena.block_bytes(), 256 + 8192 + 16384);
    let b2 = k2.checkpoint_bytes(now, 1);
    let mut k3 = ScapKernel::from_image(CheckpointImage::decode(&b2).unwrap(), None).unwrap();
    let mut i3 = CheckpointImage::decode(&k3.checkpoint_bytes(now, 1)).unwrap();
    let i2 = CheckpointImage::decode(&b2).unwrap();
    assert_eq!(i3.globals.restarts, i2.globals.restarts + 1);
    i3.globals.restarts = i2.globals.restarts;
    assert_eq!(i3.to_bytes(), b2);

    // Each stream sends a chunk and a half more.
    let more: Vec<Packet> = (pending.iter().enumerate())
        .flat_map(|(i, &n)| {
            let tail = bytes(i + 3, chunk + chunk / 2);
            let (c, port) = client(i);
            let pkts = tail.chunks(1_000).scan(2 + n as u32, |seq, seg| {
                let frame = PacketBuilder::tcp_v4(
                    c,
                    [172, 16, 0, 9],
                    port,
                    80,
                    *seq,
                    10,
                    TcpFlags::ACK,
                    seg,
                );
                *seq += seg.len() as u32;
                Some(frame)
            });
            pkts.collect::<Vec<_>>()
        })
        .enumerate()
        .map(|(j, frame)| Packet::new(now + j as u64 * 1_000, frame))
        .collect();
    let (wrote, restored) = (drive(&mut k, &more), drive(&mut k3, &more));
    assert_eq!(chunks_of(&restored), chunks_of(&wrote));
    assert_eq!(chunks_of(&wrote).len(), 3 + 1);
    assert_eq!(k3.place.arena.used(), k.place.arena.used());
}

/// A small kept chunk merges with a full one: a 200-byte chunk the flush
/// timer delivered is kept, and the next 16 KiB chunk comes out merged
/// behind it, in one block of the merged size; returned, it leaves the
/// budget as it found it.
#[test]
fn a_small_kept_chunk_merges_with_a_full_one() {
    let mut k = kernel(ScapConfig {
        cores: 1,
        flush_timeout_ns: 50_000_000,
        ..Default::default()
    });
    let chunk = k.cfg.chunk_size;
    let first = tcp_session(([10, 40, 0, 1], 7_000), 0, &[&[b'a'; 200]], &[]);
    drive(&mut k, &first);
    let mut flushed = Vec::new();
    k.service(1_000_000_000, |_, ev| flushed.push(ev));
    let ev = flushed.pop().expect("the flush timer delivered the chunk");
    let (
        stream,
        EventKind::Data {
            dir, chunk: small, ..
        },
    ) = (StreamRef::from(&ev.stream), ev.kind)
    else {
        panic!("not a data event")
    };
    let uid = stream.uid;
    assert_eq!(
        (small.len(), small.capacity(), small.size()),
        (200, 256, chunk)
    );
    k.control(ControlOp::KeepChunk(stream, dir));
    k.release_data(uid, dir, small);

    let full: Vec<Packet> = (0..chunk / 1_024)
        .map(|j| {
            let seq = 2 + 200 + (j * 1_024) as u32;
            let frame = PacketBuilder::tcp_v4(
                [10, 40, 0, 1],
                [172, 16, 0, 9],
                7_000,
                80,
                seq,
                10,
                TcpFlags::ACK,
                &[b'b'; 1_024],
            );
            Packet::new(2_000_000_000 + j as u64, frame)
        })
        .collect();
    let mut merged = drive(&mut k, &full);
    let ev = merged.pop().expect("the merged chunk");
    assert!(merged.iter().all(|e| e.data_len() == 0));
    let EventKind::Data { chunk: m, .. } = ev.kind else {
        panic!("not a data event")
    };
    assert_eq!((m.start_offset, m.len()), (0, 200 + chunk));
    // The budget charges the total; the block is the class that holds it.
    assert_eq!(
        (m.size(), m.capacity()),
        (200 + chunk, (200 + chunk).next_power_of_two())
    );
    assert!(m.bytes()[..200].iter().all(|&b| b == b'a'));
    assert!(m.bytes()[200..].iter().all(|&b| b == b'b'));
    k.release_data(uid, dir, m);
    assert_eq!(k.place.arena.used(), 0);
}

/// Merges of distinct totals share power-of-two blocks: a hundred
/// `KeepChunk` merges of 16,384–16,483 bytes leave a few blocks behind,
/// not one parked block per total.
#[test]
fn merges_of_distinct_totals_reuse_their_blocks() {
    let mut k = kernel(ScapConfig {
        cores: 1,
        ..Default::default()
    });
    let chunk = k.cfg.chunk_size;
    let copied = k.ledger.work.k_bytes_copied;
    let mut merged_bytes = 0;
    for i in 0..100 {
        let arena = &mut k.place.arena;
        let mut kept = arena.alloc(chunk, 1 + i, 0).unwrap();
        kept.extend_from_slice(&vec![b'k'; 1 + i]);
        let mut next = arena.alloc(chunk, chunk - 1, (1 + i) as u64).unwrap();
        next.extend_from_slice(&vec![b'n'; chunk - 1]);
        let m = k.place.merge(&mut k.ledger, 0, kept, next);
        assert_eq!((m.len(), m.start_offset), (chunk + i, 0));
        assert_eq!(k.place.arena.used(), chunk + i);
        merged_bytes += m.len() as u64;
        k.place.arena.release(m);
    }
    assert_eq!(k.ledger.work.k_bytes_copied - copied, merged_bytes);
    let arena = &k.place.arena;
    assert_eq!(arena.used(), 0);
    assert!(
        arena.block_bytes() <= 4 * 2 * chunk,
        "{} bytes of blocks after 100 merges",
        arena.block_bytes()
    );
}

/// The traffic of one differential case, burst by burst: a preload that
/// leaves the (single) core's index a few inserts short of growing, then
/// bursts of the given sizes (the first a full 128, so that the index
/// grows in the middle of it) drawn from: new UDP flows, hits on old ones
/// in either direction, whole TCP sessions back to back — opened, fed,
/// FIN-closed from both ends and opened again on the same 5-tuple — RSTs
/// and late data on sessions already closed, ICMP (IP without a flow
/// key), ARP (not IP) and frames too short to parse.
fn differential_trace(seed: u64, sizes: &[usize]) -> Vec<Vec<Packet>> {
    use scap_wire::splitmix64;
    use std::collections::VecDeque;

    let mut state = seed;
    let mut draw = move || {
        state = splitmix64(state);
        state
    };
    let udp = |i: u64, reply: bool, len: usize| {
        let client = [10, (i >> 16) as u8, (i >> 8) as u8, i as u8];
        let (server, cport) = ([172, 16, 0, 1], 1024 + (i % 60_000) as u16);
        let payload = vec![i as u8; len];
        if reply {
            PacketBuilder::udp_v4(server, client, 53, cport, &payload)
        } else {
            PacketBuilder::udp_v4(client, server, cport, 53, &payload)
        }
    };
    // Segment `step` of TCP session `i`, whose ISNs follow `life` (a
    // re-opened session is a new connection on the old 5-tuple).
    let tcp = |i: u64, life: u32, step: u8| {
        let c = [11, (i >> 16) as u8, (i >> 8) as u8, i as u8];
        let (s, cp, sp) = ([93, 184, 216, 34], 2000 + (i % 60_000) as u16, 80);
        let (ic, is) = (1_000 + life * 100_000, 5_000 + life * 100_000);
        let ack = TcpFlags::ACK;
        let data = [b'a' + step; 100];
        match step {
            0 => PacketBuilder::tcp_v4(c, s, cp, sp, ic, 0, TcpFlags::SYN, b""),
            1 => PacketBuilder::tcp_v4(s, c, sp, cp, is, ic + 1, TcpFlags::SYN | ack, b""),
            2 => PacketBuilder::tcp_v4(c, s, cp, sp, ic + 1, is + 1, ack, b""),
            3 => PacketBuilder::tcp_v4(c, s, cp, sp, ic + 1, is + 1, ack, &data),
            4 => PacketBuilder::tcp_v4(s, c, sp, cp, is + 1, ic + 101, ack, &data),
            5 => PacketBuilder::tcp_v4(c, s, cp, sp, ic + 101, is + 101, TcpFlags::FIN | ack, b""),
            6 => PacketBuilder::tcp_v4(s, c, sp, cp, is + 101, ic + 102, TcpFlags::FIN | ack, b""),
            7 => PacketBuilder::tcp_v4(c, s, cp, sp, ic + 102, is + 102, TcpFlags::RST, b""),
            _ => PacketBuilder::tcp_v4(c, s, cp, sp, ic + 102, is + 102, ack, &data),
        }
    };

    let preload = 7_168 - 4 - seed % 12;
    let (mut udp_flows, mut tcp_flows) = (preload, 0u64);
    // The preload fits inside one inactivity timeout (8 ms), so nothing
    // expires before the index has grown; the bursts then span several.
    let (mut ts, mut gap) = (0u64, 1_000);
    let mut stamp = |frame: Vec<u8>, gap: u64| {
        ts += gap;
        Packet::new(ts, frame)
    };
    let mut trace: Vec<Vec<Packet>> = (0..preload)
        .map(|i| stamp(udp(i, false, 20), gap))
        .collect::<Vec<_>>()
        .chunks(256)
        .map(<[Packet]>::to_vec)
        .collect();
    gap = 10_000;
    let mut session: VecDeque<Vec<u8>> = VecDeque::new();
    for &size in std::iter::once(&128).chain(sizes) {
        let mut burst = Vec::with_capacity(size);
        while burst.len() < size {
            if let Some(frame) = session.pop_front() {
                burst.push(stamp(frame, gap));
                continue;
            }
            let d = draw();
            let (kind, pick) = (d % 16, d >> 8);
            let frame = match kind {
                0..=4 => {
                    udp_flows += 1;
                    udp(udp_flows - 1, false, 20)
                }
                5..=8 | 10 => udp(
                    pick % udp_flows,
                    pick & 1 << 40 != 0,
                    (pick >> 41) as usize % 64,
                ),
                9 => {
                    tcp_flows += 1;
                    let i = tcp_flows - 1;
                    session.extend((1..=6).map(|step| tcp(i, 0, step)));
                    session.extend([0, 1, 2, 3].map(|step| tcp(i, 1, step)));
                    tcp(i, 0, 0)
                }
                11 => {
                    PacketBuilder::icmp_echo_v4([10, 0, 0, 1], [10, 0, 0, 2], 7, d as u16, b"ping")
                }
                12 => {
                    let mut arp = vec![0u8; 60];
                    arp[12..14].copy_from_slice(&[0x08, 0x06]);
                    arp
                }
                13 => vec![0xEE; 10],
                _ if tcp_flows == 0 => udp(pick % udp_flows, true, 0),
                14 => tcp(pick % tcp_flows, (pick >> 32) as u32 % 2, 7),
                _ => tcp(pick % tcp_flows, 0, 8),
            };
            burst.push(stamp(frame, gap));
        }
        trace.push(burst);
    }
    trace
}

/// Everything the three dispatch configurations must agree on.
#[derive(Debug, PartialEq)]
struct DifferentialOutcome {
    stats: String,
    delivered: std::collections::BTreeMap<(StreamUid, usize), Vec<u8>>,
    table_probes: Vec<u64>,
    hash_probes: u64,
    cache_misses: u64,
    index_capacity: usize,
    /// Create / terminate / drop / discard: kind, reason, uid, values.
    journal: Vec<(FlightKind, DropReason, u64, u64, u64)>,
}

fn differential_run(
    dispatch: crate::DispatchMode,
    burst: usize,
    trace: &[Vec<Packet>],
) -> DifferentialOutcome {
    let mut k = kernel(ScapConfig {
        dispatch,
        fastpath_burst: burst,
        cores: 1,
        chunk_size: 64,
        inactivity_timeout_ns: 8_000_000,
        flight_ring_cap: 1 << 17,
        ..Default::default()
    });
    k.set_cache(scap_sim::CacheSim::paper_l2());
    let mut delivered = std::collections::BTreeMap::<_, Vec<u8>>::new();
    let mut work = scap_sim::Work::default();
    for group in trace {
        for p in group {
            k.nic_receive(p);
        }
        let now = group.last().unwrap().ts_ns;
        while let Some(w) = k.poll(0, now) {
            work.add(&w);
        }
        k.kernel_timers(0, now);
        k.drain_events(now, |k, ev| {
            if let EventKind::Data { dir, chunk, .. } = &ev.kind {
                let stream = delivered.entry((ev.stream.uid, dir.index())).or_default();
                stream.extend_from_slice(chunk.bytes());
            }
            k.release_event(ev);
        });
    }
    let flows = &k.flows.cores[0];
    let journal = k.flight().events();
    assert_eq!(
        journal.len() as u64,
        k.flight().total_recorded(),
        "ring too small"
    );
    let lifecycle = |kind| {
        use FlightKind::{Discard, Drop, StreamCreated, StreamTerminated};
        matches!(kind, StreamCreated | StreamTerminated | Drop | Discard)
    };
    DifferentialOutcome {
        stats: format!("{:?}", k.stats()),
        delivered,
        table_probes: k.flows.cores.iter().map(|c| c.probes).collect(),
        hash_probes: work.k_hash_probes,
        cache_misses: work.k_cache_misses,
        index_capacity: flows.index_capacity(),
        journal: journal
            .iter()
            .filter(|e| lifecycle(e.kind))
            .map(|e| (e.kind, e.reason, e.uid, e.a, e.b))
            .collect(),
    }
}

proptest::proptest! {
    /// Classic dispatch, the fast path a frame at a time and the fast
    /// path in staged bursts of 64 are one machine: same statistics, same
    /// bytes per stream, same probe counts in the table, the receipts and
    /// the cache model, same journal — while streams are created, closed
    /// and re-opened inside a burst and the index grows under it.
    #[test]
    fn staged_bursts_change_nothing_but_the_clock(
        seed: u64,
        sizes in proptest::collection::vec(1usize..129, 3..9),
    ) {
        let trace = differential_trace(seed, &sizes);
        let classic = differential_run(crate::DispatchMode::Classic, 64, &trace);
        assert!(classic.index_capacity > 8192, "the index never grew");
        assert!(classic.delivered.len() > 1 && classic.cache_misses > 0);
        for burst in [1, 64] {
            let fast = differential_run(crate::DispatchMode::Fastpath, burst, &trace);
            assert_eq!(classic, fast, "fast path, burst {burst}");
        }
    }
}

/// Every stream's checkpoint frame: what a control operation could
/// change about a stream, tombstones included.
fn stream_images(k: &mut ScapKernel, now: u64) -> Vec<crate::checkpoint::StreamImage> {
    let image = k.checkpoint_bytes(now, 1);
    CheckpointImage::decode(&image)
        .expect("image decodes")
        .streams
}

/// One of every control operation on `s`, the `KeepChunk` on `dir`.
fn every_op(k: &mut ScapKernel, s: StreamRef, dir: Direction) {
    k.control(ControlOp::SetPriority(s, 7));
    k.control(ControlOp::SetCutoff(s, None, Some(0)));
    k.control(ControlOp::SetChunkGeometry(s, 256, 16));
    k.control(ControlOp::KeepChunk(s, dir));
    k.control(ControlOp::Discard(s));
}

/// The streams `events` report created, as their snapshots name them.
fn created(events: &[Event]) -> Vec<StreamRef> {
    let created = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Created));
    created.map(|e| StreamRef::from(&e.stream)).collect()
}

/// `tcp_session` closed by a FIN from each side after its client data.
fn closed_session(client: ([u8; 4], u16), t0: u64, data: &[u8]) -> Vec<Packet> {
    let mut pkts = tcp_session(client, t0, &[data], &[]);
    let (c, port, s) = (client.0, client.1, [172, 16, 0, 9]);
    let (cseq, fin) = (2 + data.len() as u32, TcpFlags::FIN | TcpFlags::ACK);
    let ts = pkts.last().map_or(t0, |p| p.ts_ns);
    pkts.push(Packet::new(
        ts + 1_000,
        PacketBuilder::tcp_v4(c, s, port, 80, cseq, 10, fin, b""),
    ));
    pkts.push(Packet::new(
        ts + 2_000,
        PacketBuilder::tcp_v4(s, c, 80, port, 10, cseq + 1, fin, b""),
    ));
    pkts
}

/// A two-core kernel that steers new connections off an overloaded RSS
/// core, and client ports of `[10, 60, 0, 1]` that RSS sends to core 0.
fn balancing_kernel() -> (ScapKernel, Vec<u16>) {
    let k = kernel(ScapConfig {
        cores: 2,
        use_fdir_balancing: true,
        balance_threshold: 1.2,
        ..Default::default()
    });
    let to_core0 = |&port: &u16| {
        let key = FlowKey::new_v4([10, 60, 0, 1], [172, 16, 0, 9], port, 80, Transport::Tcp);
        k.nic.nic.rss_queue(&key) == 0
    };
    let ports = (1024u16..).filter(to_core0).take(24).collect();
    (k, ports)
}

/// Open a connection from each of `ports` with a lone SYN, at `t0`
/// onwards: enough of them leave core 0 overloaded.
fn syn_flood(k: &mut ScapKernel, ports: &[u16], t0: u64) {
    let syns: Vec<Packet> = (ports.iter().enumerate())
        .map(|(i, &p)| {
            let syn = TcpFlags::SYN;
            let frame =
                PacketBuilder::tcp_v4([10, 60, 0, 1], [172, 16, 0, 9], p, 80, 1, 0, syn, b"");
            Packet::new(t0 + i as u64, frame)
        })
        .collect();
    drive(k, &syns);
}

/// The core stream `s` lives on, if it lives: a walk of the tables that
/// shares nothing with how the kernel looks it up.
fn core_of(k: &ScapKernel, s: &StreamRef) -> Option<usize> {
    k.flows.cores.iter().position(|flows| {
        let states = flows.iter().filter_map(|(id, _)| flows.state(id));
        states.map(StreamKState::uid).any(|uid| uid == s.uid)
    })
}

/// An operation naming a stream that ended reaches nothing, not even the
/// newer stream that has its 5-tuple now; the newer stream's own name
/// does reach it.
#[test]
fn an_op_on_an_ended_stream_leaves_the_newer_stream_of_its_tuple_alone() {
    let mut k = kernel(ScapConfig {
        cores: 1,
        inactivity_timeout_ns: 1_000_000_000,
        ..Default::default()
    });
    let client = ([10, 50, 0, 1], 6_000);
    let old = created(&drive(&mut k, &tcp_session(client, 0, &[&[1; 300]], &[])))[0];
    // The old stream times out (no tombstone), the tuple comes back.
    k.service(5_000_000_000, |k, ev| k.release_event(ev));
    let events = drive(
        &mut k,
        &tcp_session(client, 6_000_000_000, &[&[2; 300]], &[]),
    );
    let new = created(&events)[0];
    assert_eq!((new.key, core_of(&k, &old)), (old.key, None));
    assert_ne!(new.uid, old.uid);
    let now = 7_000_000_000;
    let before = stream_images(&mut k, now);
    every_op(&mut k, old, Direction::Forward);
    assert_eq!(stream_images(&mut k, now), before);
    every_op(&mut k, new, Direction::Forward);
    let after = stream_images(&mut k, now);
    assert_eq!((after[0].uid, after[0].priority), (new.uid, 7));
    assert!(after[0].discarded);
}

/// An operation naming a stream whose TIME_WAIT tombstone holds its
/// 5-tuple changes nothing: not the tombstone on the stream's RSS core,
/// not the newer connection of the 5-tuple that balancing put on the
/// other core — which its own name still reaches.
#[test]
fn an_op_on_a_time_wait_tombstone_is_ignored() {
    let (mut k, ports) = balancing_kernel();
    let session = closed_session(([10, 60, 0, 1], ports[0]), 0, &[3; 100]);
    let events = drive(&mut k, &session);
    let old = created(&events)[0];
    let ended = events
        .iter()
        .find(|e| matches!(e.kind, EventKind::Terminated));
    assert_eq!(
        ended.map(|e| e.stream.status),
        Some(StreamStatus::ClosedFin)
    );
    let tombstone = k.flows.cores[0].peek(&old.key).expect("a tombstone");
    assert!(k.flows.cores[0].state(tombstone).is_none());
    syn_flood(&mut k, &ports[1..], 1_000_000);
    // The 5-tuple again: a new connection, steered to core 1.
    let again = tcp_session(([10, 60, 0, 1], ports[0]), 2_000_000, &[&[4; 100]], &[]);
    let new = created(&drive(&mut k, &again))[0];
    assert_eq!((new.key, core_of(&k, &new)), (old.key, Some(1)));
    let now = 3_000_000;
    let before = stream_images(&mut k, now);
    let on_core0 = |s: &crate::checkpoint::StreamImage| s.core == 0 && s.key == old.key;
    assert!(before.iter().any(|s| on_core0(s) && s.kstate.is_none()));
    every_op(&mut k, old, Direction::Forward);
    assert_eq!(stream_images(&mut k, now), before);
    k.control(ControlOp::SetPriority(new, 7));
    let after = stream_images(&mut k, now);
    let newer = after.iter().find(|s| s.uid == new.uid).unwrap();
    assert_eq!((newer.core, newer.priority), (1, 7));
}

/// A stream FDIR balancing steered off its RSS core is found on the core
/// it lives on, by every operation.
#[test]
fn a_stream_steered_off_its_rss_core_still_takes_ops() {
    let (mut k, ports) = balancing_kernel();
    syn_flood(&mut k, &ports[1..], 0);
    let data = [5; 1_500];
    let session = tcp_session(([10, 60, 0, 1], ports[0]), 1_000_000, &[&data], &[]);
    let s = created(&drive(&mut k, &session))[0];
    assert_eq!(k.nic.nic.rss_queue(&s.key), 0);
    assert_eq!(core_of(&k, &s), Some(1));
    every_op(&mut k, s, Direction::Forward);
    let images = stream_images(&mut k, 2_000_000);
    let image = images.iter().find(|i| i.uid == s.uid).unwrap();
    assert_eq!((image.core, image.priority, image.discarded), (1, 7, true));
    assert_eq!(image.cutoff, [Some(0), Some(0)]);
    assert_eq!((image.chunk_size, image.overlap), (256, 16));
}

/// A `KeepChunk` whose stream ends before the chunk comes back — asked
/// while the stream lived, or after, when a newer stream has its 5-tuple
/// — gives a plain release: the chunk goes back to the arena, and no
/// stream holds it.
#[test]
fn a_kept_chunk_whose_stream_ended_is_released_plainly() {
    for asked_while_alive in [true, false] {
        let mut k = kernel(ScapConfig {
            cores: 1,
            flush_timeout_ns: 50_000_000,
            inactivity_timeout_ns: 1_000_000_000,
            ..Default::default()
        });
        let client = ([10, 70, 0, 1], 7_000);
        drive(&mut k, &tcp_session(client, 0, &[&[b'a'; 200]], &[]));
        let mut flushed = Vec::new();
        k.service(100_000_000, |_, ev| flushed.push(ev));
        let ev = flushed.pop().expect("the flush timer delivered the chunk");
        let old = StreamRef::from(&ev.stream);
        let EventKind::Data { dir, chunk, .. } = ev.kind else {
            panic!("not a data event")
        };
        if asked_while_alive {
            k.control(ControlOp::KeepChunk(old, dir));
        }
        // The stream times out; the 5-tuple comes back with a partial
        // chunk of its own, so the newer stream has a box.
        k.service(5_000_000_000, |k, ev| k.release_event(ev));
        drive(
            &mut k,
            &tcp_session(client, 6_000_000_000, &[&[b'b'; 300]], &[]),
        );
        let new = k.flows.cores[0].peek(&old.key).expect("the newer stream");
        if !asked_while_alive {
            k.control(ControlOp::KeepChunk(old, dir));
        }
        let used = k.place.arena.used();
        k.release_data(old.uid, dir, chunk);
        assert!(k.place.arena.used() < used, "kept: {asked_while_alive}");
        let seg = k.flows.cores[0].state(new).unwrap().seg.as_deref().unwrap();
        assert!(
            seg.kept.iter().all(Option::is_none),
            "kept: {asked_while_alive}"
        );
    }
}
