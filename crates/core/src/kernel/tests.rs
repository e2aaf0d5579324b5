use super::*;
use crate::checkpoint::CheckpointImage;
use crate::event::EventKind;
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
            data_bytes += chunk.len;
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
    let a = k.streams_on_core(0).next().unwrap().id;
    assert_eq!(k.place.armed_flush_timers(0), 1);
    k.terminate_stream(0, a, StreamStatus::ClosedTimeout, 5_000_000, false);
    assert_eq!(data_len(&mut k), 500);
    // Stream B moves into A's slot and arms its own (due at 80 ms).
    let b_frame = PacketBuilder::udp_v4([10, 0, 0, 2], [10, 0, 0, 3], 5000, 53, &[b'B'; 300]);
    drive(&mut k, &[Packet::new(30_000_000, b_frame)]);
    let b = k.streams_on_core(0).next().unwrap().id;
    assert_eq!(b.slot(), a.slot());
    assert_ne!(b, a);
    // A's timer comes due: no flush, no timer work, B stays armed.
    assert_eq!(k.kernel_timers(0, 60_000_000).k_timer_ops, 0);
    assert_eq!(data_len(&mut k), 0);
    let b_state = k.flows.cores[0].state(b).unwrap();
    assert!(b_state.flush_armed.contains(&true));
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
        for rec in k.streams_on_core(c) {
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
            cores.flat_map(|c| c.iter().filter_map(move |r| c.state(r.id)))
        };
        states().any(|ks| {
            ks.asm
                .iter()
                .flatten()
                .any(|a| !a.pending_bytes().is_empty())
        }) && states().any(|ks| {
            ks.conn.as_ref().is_some_and(|c| {
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
        let poll = match dispatch {
            crate::DispatchMode::Classic => ScapKernel::kernel_poll,
            crate::DispatchMode::Fastpath => ScapKernel::poll_burst,
        };
        while let Some(w) = poll(&mut k, 0, now) {
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
