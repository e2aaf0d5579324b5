//! Cross-crate integration: the full Scap pipeline — generator → NIC →
//! kernel module → reassembly → chunks → application — under both the
//! simulation driver and the live threaded driver, checked against
//! ground truth from the trace itself.

use scap::apps::{FlowStatsApp, PatternMatchApp};
use scap::{Scap, ScapConfig, ScapKernel, ScapSimStack, StreamCtx};
use scap_bench::common::{engine, oracle_engine};
use scap_patterns::{AhoCorasick, MatcherState};
use scap_trace::gen::{CampusMix, CampusMixConfig};
use scap_trace::stats::TraceStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn workload(seed: u64) -> (Vec<scap_trace::Packet>, TraceStats, Vec<Vec<u8>>, u64) {
    let pats = scap_patterns::generate_web_attack_patterns(400, seed ^ 0xF00D);
    let trace = CampusMix::new(CampusMixConfig {
        patterns: Some(Arc::new(pats.clone())),
        pattern_prob: 0.5,
        ..CampusMixConfig::sized(seed, 6 << 20)
    })
    .collect_all();
    let stats = TraceStats::from_packets(trace.iter());

    // Ground-truth matches: scan each flow's payload bytes directly via
    // an order-preserving per-flow reassembly using the generator's
    // deterministic payload (we reuse the oracle engine instead: a run
    // with unbounded CPU and no drops).
    let ac = AhoCorasick::new(&pats, false);
    let mut stack = ScapSimStack::new(
        ScapKernel::new(ScapConfig {
            inactivity_timeout_ns: 500_000_000,
            ..ScapConfig::default()
        }),
        PatternMatchApp::new(ac),
    );
    let truth = oracle_engine().run(trace.clone(), &mut stack).stats.matches;
    (trace, stats, pats, truth)
}

#[test]
fn sim_stack_accounts_for_every_packet_and_stream() {
    let (trace, stats, _pats, _truth) = workload(1);
    let mut stack = ScapSimStack::new(
        ScapKernel::new(ScapConfig {
            inactivity_timeout_ns: 500_000_000,
            ..ScapConfig::default()
        }),
        FlowStatsApp::default(),
    );
    let report = engine().run(trace, &mut stack);
    assert_eq!(report.stats.wire_packets, stats.packets);
    assert_eq!(report.stats.dropped_packets, 0);
    // Every keyed flow of the trace is created and reported exactly once.
    assert_eq!(report.stats.streams_created, stats.flows);
    assert_eq!(report.stats.streams_reported, stats.flows);
    assert_eq!(stack.app().exported, stats.flows);
}

#[test]
fn live_and_sim_drivers_agree_on_matches() {
    let (trace, _stats, pats, truth) = workload(2);
    assert!(truth > 0, "workload must contain matches");

    // Simulation driver with unlimited CPU found `truth` matches; the
    // live threaded driver must find exactly the same.
    let ac = Arc::new(AhoCorasick::new(&pats, false));
    let found = Arc::new(AtomicU64::new(0));
    let states: Arc<std::sync::Mutex<std::collections::HashMap<(u64, u8), MatcherState>>> =
        Arc::new(std::sync::Mutex::new(Default::default()));

    let mut scap = Scap::builder()
        .worker_threads(4)
        .inactivity_timeout_ns(500_000_000)
        .try_build()
        .unwrap();
    {
        let ac = ac.clone();
        let found = found.clone();
        let states = states.clone();
        scap.dispatch_data(move |ctx: &StreamCtx<'_>| {
            let (Some(data), Some(dir)) = (ctx.data, ctx.dir) else {
                return;
            };
            let key = (ctx.stream.uid, dir.index() as u8);
            let mut st = states.lock().unwrap().remove(&key).unwrap_or_default();
            found.fetch_add(ac.count(&mut st, data), Ordering::Relaxed);
            states.lock().unwrap().insert(key, st);
        });
    }
    scap.start_capture(trace);
    assert_eq!(found.load(Ordering::Relaxed), truth);
}

#[test]
fn live_driver_reassembles_exact_payload_bytes() {
    // A trace with retransmissions, reordering and overlaps: duplicates
    // must be suppressed, reorder fixed, and the live threaded driver
    // must deliver byte-for-byte what the budget-free simulation driver
    // delivers from the same packets.
    let trace = CampusMix::new(CampusMixConfig {
        retrans_prob: 0.05,
        reorder_prob: 0.05,
        overlap_prob: 0.02,
        ..CampusMixConfig::sized(3, 2 << 20)
    })
    .collect_all();

    // Reference: the oracle simulation run.
    use scap::apps::StreamTouchApp;
    let mut sim = ScapSimStack::new(
        ScapKernel::new(ScapConfig {
            inactivity_timeout_ns: 500_000_000,
            ..ScapConfig::default()
        }),
        StreamTouchApp::default(),
    );
    let sim_rep = oracle_engine().run(trace.clone(), &mut sim);
    assert_eq!(sim_rep.stats.dropped_packets, 0);
    let sim_bytes = sim.app().bytes;
    // Duplicates were suppressed: the wire carried more payload than the
    // streams contain (retransmissions and overlaps).
    assert!(sim_rep.stats.discarded_packets > 0);

    // Live threaded driver on the same packets.
    let delivered = Arc::new(AtomicU64::new(0));
    let mut scap = Scap::builder()
        .worker_threads(2)
        .inactivity_timeout_ns(500_000_000)
        .try_build()
        .unwrap();
    {
        let delivered = delivered.clone();
        scap.dispatch_data(move |ctx: &StreamCtx<'_>| {
            delivered.fetch_add(ctx.data.map_or(0, |d| d.len() as u64), Ordering::Relaxed);
        });
    }
    let stats = scap.start_capture(trace);
    assert_eq!(stats.stack.dropped_packets, 0);
    assert_eq!(delivered.load(Ordering::Relaxed), sim_bytes);
}

#[test]
fn strict_and_fast_modes_agree_without_loss() {
    use scap::ReassemblyMode;
    let (trace, _stats, pats, truth) = workload(4);
    let ac = AhoCorasick::new(&pats, false);
    for mode in [ReassemblyMode::Fast, ReassemblyMode::Strict] {
        let mut stack = ScapSimStack::new(
            ScapKernel::new(ScapConfig {
                reassembly_mode: mode,
                inactivity_timeout_ns: 500_000_000,
                ..ScapConfig::default()
            }),
            PatternMatchApp::new(ac.clone()),
        );
        let report = oracle_engine().run(trace.clone(), &mut stack);
        assert_eq!(
            report.stats.matches, truth,
            "mode {mode:?} diverged from ground truth"
        );
    }
}

#[test]
fn keep_chunk_merges_into_next_delivery() {
    use scap::{ControlOp, Direction, EventKind, StreamRef};
    use scap_wire::{PacketBuilder, TcpFlags};
    // Drive the kernel directly so the keep-chunk control round-trip is
    // deterministic (in the threaded driver it is asynchronous).
    let c = [10, 0, 0, 9];
    let s = [10, 0, 0, 10];
    let mut kernel = ScapKernel::new(ScapConfig {
        chunk_size: 1024,
        ..ScapConfig::default()
    });
    // Feed one frame and service the kernel; returns the data event it
    // produced, if any.
    let mut now = 0u64;
    let mut feed = |kernel: &mut ScapKernel, frame: Vec<u8>| -> Option<scap::Event> {
        now += 1_000_000;
        kernel.nic_receive(&scap_trace::Packet::new(now, frame));
        let mut data = None;
        kernel.service(now, |_, ev| {
            if matches!(ev.kind, EventKind::Data { .. }) {
                data = Some(ev);
            }
        });
        data
    };
    feed(
        &mut kernel,
        PacketBuilder::tcp_v4(c, s, 7, 80, 100, 0, TcpFlags::SYN, b""),
    );
    feed(
        &mut kernel,
        PacketBuilder::tcp_v4(s, c, 80, 7, 500, 101, TcpFlags::SYN | TcpFlags::ACK, b""),
    );
    // First 1 KB chunk completes.
    let ev1 = feed(
        &mut kernel,
        PacketBuilder::tcp_v4(c, s, 7, 80, 101, 501, TcpFlags::ACK, &[b'a'; 1024]),
    )
    .expect("first chunk");
    let stream = StreamRef::from(&ev1.stream);
    let EventKind::Data { chunk, dir, .. } = ev1.kind else {
        unreachable!()
    };
    assert_eq!(chunk.len(), 1024);
    assert_eq!(chunk.start_offset, 0);
    assert_eq!(dir, ev1.stream.first_dir);
    // scap_keep_stream_chunk + chunk return.
    kernel.control(ControlOp::KeepChunk(stream, dir));
    kernel.release_data(stream.uid, dir, chunk);

    // Second 1 KB of data: its completed chunk must come out merged.
    let ev2 = feed(
        &mut kernel,
        PacketBuilder::tcp_v4(c, s, 7, 80, 1125, 501, TcpFlags::ACK, &[b'b'; 1024]),
    )
    .expect("merged chunk");
    let EventKind::Data { chunk, .. } = ev2.kind else {
        unreachable!()
    };
    assert_eq!(
        chunk.start_offset, 0,
        "merged chunk restarts at the kept offset"
    );
    assert_eq!(chunk.len(), 2048, "kept + next chunk");
    assert_eq!(&chunk.bytes()[..1024], &[b'a'; 1024][..]);
    assert_eq!(&chunk.bytes()[1024..], &[b'b'; 1024][..]);
    let _ = Direction::Forward;
}
