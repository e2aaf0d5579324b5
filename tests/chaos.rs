//! Chaos: the full live capture pipeline under a seeded fault storm —
//! mangled frames, flow-director install failures, RX ring stalls, arena
//! squeezes, and worker threads that panic or wedge mid-dispatch.
//!
//! The invariants under test are the graceful-degradation claims: the
//! process never panics, every wire packet still takes exactly one exit
//! (delivered / dropped / discarded), hardware-offload failures degrade
//! to software enforcement, dead workers are replaced, and the overload
//! governor steps back down once the storm passes.

use scap::{FaultPlan, Scap, ScapConfig, ScapKernel, StreamCtx};
use scap_trace::gen::{CampusMix, CampusMixConfig};
use scap_trace::Packet;
use scap_wire::PacketBuilder;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const SEED: u64 = 11;

/// Campus traffic followed by a calm tail: two seconds of keepalive-grade
/// packets past the configured fault windows, so timers keep firing and
/// the governor has quiet time to de-escalate before the capture ends.
fn storm_trace() -> Vec<Packet> {
    let mut pkts = CampusMix::new(CampusMixConfig::sized(SEED, 4 << 20)).collect_all();
    let start = pkts.last().map_or(0, |p| p.ts_ns);
    for i in 0..220u64 {
        let ts = start + (i + 1) * 10_000_000;
        pkts.push(Packet::new(
            ts,
            PacketBuilder::udp_v4([10, 1, 1, 1], [10, 1, 1, 2], 9999, 53, b"ping"),
        ));
    }
    pkts
}

#[test]
fn fault_storm_degrades_gracefully_and_recovers() {
    let touched = Arc::new(AtomicU64::new(0));
    let mut scap = Scap::builder()
        .worker_threads(2)
        .use_fdir(true)
        .cutoff(8 << 10)
        .memory(8 << 20)
        .inactivity_timeout_ns(500_000_000)
        .fault_plan(FaultPlan::storm(SEED))
        .try_build()
        .unwrap();
    let t = touched.clone();
    scap.dispatch_data(move |ctx: &StreamCtx<'_>| {
        t.fetch_add(ctx.data.map_or(0, |d| d.len() as u64), Ordering::Relaxed);
    });
    let stats = scap.start_capture(storm_trace());

    // Packet conservation: every frame the NIC saw took exactly one exit.
    let st = &stats.stack;
    assert_eq!(
        st.wire_packets,
        st.delivered_packets + st.dropped_packets + st.discarded_packets,
        "conservation violated: wire={} delivered={} dropped={} discarded={}",
        st.wire_packets,
        st.delivered_packets,
        st.dropped_packets,
        st.discarded_packets,
    );
    assert!(
        touched.load(Ordering::Relaxed) > 0,
        "capture still delivers data"
    );

    // The telemetry subsystem must tell the same conservation story as
    // ScapStats, counter for counter, even under the storm.
    {
        use scap::telemetry::Metric;
        let snap = scap.telemetry_snapshot().expect("telemetry captured");
        assert_eq!(snap.total(Metric::WirePackets), st.wire_packets);
        assert_eq!(snap.total(Metric::DeliveredPackets), st.delivered_packets);
        assert_eq!(snap.total(Metric::DroppedPackets), st.dropped_packets);
        assert_eq!(snap.total(Metric::DiscardedPackets), st.discarded_packets);
        assert_eq!(
            snap.total(Metric::WirePackets),
            snap.total(Metric::DeliveredPackets)
                + snap.total(Metric::DroppedPackets)
                + snap.total(Metric::DiscardedPackets),
            "telemetry conservation violated"
        );
    }

    let r = &stats.resilience;
    // Frame-level mangling registered.
    assert!(r.frames_corrupted > 0, "{r:?}");
    assert!(r.frames_truncated > 0, "{r:?}");
    assert!(r.frames_duplicated > 0, "{r:?}");
    assert!(r.frames_reordered > 0, "{r:?}");
    // Hardware offload degraded but recovered: at least one retry
    // eventually installed, and at least one stream fell back to the
    // software cutoff after exhausting its retry budget.
    assert!(r.fdir_transient_failures > 0, "{r:?}");
    assert!(r.fdir_retries > 0, "{r:?}");
    assert!(r.fdir_retry_successes >= 1, "{r:?}");
    assert!(r.fdir_fallback_software >= 1, "{r:?}");
    // Worker faults: one injected panic, one injected 80 ms wedge; the
    // watchdog must have noticed each exactly once and spawned one
    // replacement for each.
    assert_eq!(r.worker_panics, 1, "{r:?}");
    assert_eq!(r.worker_stalls_detected, 1, "{r:?}");
    assert_eq!(r.worker_restarts, 2, "{r:?}");
    // The overload governor escalated under the arena squeeze and stepped
    // back down to normal during the calm tail.
    assert!(r.arena_spikes >= 1, "{r:?}");
    assert!(r.governor_max_level >= 1, "{r:?}");
    assert!(r.governor_transitions >= 2, "{r:?}");
    assert_eq!(
        r.governor_level, 0,
        "governor must return to level 0: {r:?}"
    );

    // The damage report mirrors the counters.
    let err = scap
        .last_capture_error()
        .expect("worker failures must be reported");
    assert_eq!(err.panics(), 1, "{err}");
    assert_eq!(err.stalls(), 1, "{err}");
}

#[test]
fn ring_stalls_register_without_losing_accounting() {
    // Synchronous kernel drive (no workers): ring stall windows and arena
    // spikes fire deterministically on the trace clock.
    let plan = FaultPlan::storm(SEED);
    let (packets, frame_stats) = scap::live::mangle_packets(&plan, storm_trace());
    let mut kernel = ScapKernel::new(ScapConfig {
        use_fdir: true,
        faults: Some(plan),
        ..ScapConfig::default()
    });
    kernel.note_frame_faults(frame_stats);
    let mut now = 0;
    for pkt in &packets {
        now = pkt.ts_ns;
        kernel.nic_receive(pkt);
        kernel.service(now, |k, ev| k.release_event(ev));
    }
    kernel.finish(now.saturating_add(1));
    kernel.drain_events(now, |k, ev| k.release_event(ev));
    let stats = kernel.stats();
    let st = &stats.stack;
    assert_eq!(
        st.wire_packets,
        st.delivered_packets + st.dropped_packets + st.discarded_packets,
    );
    assert!(
        stats.resilience.ring_stall_windows >= 1,
        "{:?}",
        stats.resilience
    );
    assert!(stats.resilience.arena_spikes >= 1, "{:?}", stats.resilience);

    // Telemetry sees the same exits — including the ring-overflow drops
    // that ScapStats folds in from the NIC at snapshot time.
    {
        use scap::telemetry::Metric;
        let snap = kernel.telemetry_snapshot();
        assert_eq!(snap.total(Metric::WirePackets), st.wire_packets);
        assert_eq!(snap.total(Metric::DeliveredPackets), st.delivered_packets);
        assert_eq!(snap.total(Metric::DroppedPackets), st.dropped_packets);
        assert_eq!(snap.total(Metric::DiscardedPackets), st.discarded_packets);
    }
}

/// Feed a synchronous capture of the campus mix into an archive writer,
/// swallowing injected-fault errors exactly like the live sink does.
fn drive_store(writer: &mut scap_store::StoreWriter) {
    let trace = CampusMix::new(CampusMixConfig::sized(SEED, 2 << 20)).collect_all();
    let mut kernel = ScapKernel::new(ScapConfig {
        inactivity_timeout_ns: 500_000_000,
        ..ScapConfig::default()
    });
    let mut now = 0;
    let mut archive = |k: &mut ScapKernel, ev: scap::Event| {
        let _ = writer.observe(&ev);
        k.release_event(ev);
    };
    for pkt in &trace {
        now = pkt.ts_ns;
        kernel.nic_receive(pkt);
        kernel.service(now, &mut archive);
    }
    kernel.finish(now.saturating_add(1));
    kernel.drain_events(now, archive);
}

/// Archive chaos: a seeded fault storm against the store writer. A torn
/// segment append kills the writer mid-frame; recovery on reopen must
/// drop *only* the torn tail — every committed stream survives
/// byte-identical — and `verify` must tell the truth before and after.
/// A second phase kills the writer after a fully-flushed frame but
/// before its index record: the frame becomes a benign orphan.
#[test]
fn store_fault_storm_loses_only_the_torn_tail() {
    use scap_store::{StoreConfig, StoreReader, StoreWriter};
    use std::collections::BTreeMap;

    let base = std::env::temp_dir().join(format!("scap-chaos-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    // Phase 1 — torn append mid-storm.
    let dir = base.join("torn");
    let mut plan = FaultPlan::new(SEED);
    plan.store.torn_append_prob = 0.05;
    let mut writer = StoreWriter::open(StoreConfig::new(&dir).segment_bytes(64 << 10)).unwrap();
    writer.attach_faults(&plan);
    drive_store(&mut writer);
    assert!(
        writer.stats().write_errors >= 1,
        "torn-append fault never fired: {:?}",
        writer.stats()
    );
    drop(writer);

    // Before recovery: the committed records are readable, and verify
    // reports the torn tail instead of hiding it.
    let reader = StoreReader::open(&dir).unwrap();
    let report = reader.verify().unwrap();
    assert!(report.segment_torn_bytes > 0, "{report}");
    assert!(!report.is_clean(), "{report}");
    assert!(!reader.is_empty(), "no stream committed before the fault");
    let committed: BTreeMap<u64, [Vec<u8>; 2]> = reader
        .iter()
        .map(|r| (r.uid, reader.read_stream(r.uid).unwrap()))
        .collect();
    drop(reader);

    // Writer-side reopen truncates the torn tail; nothing else.
    let recovered = StoreWriter::open(StoreConfig::new(&dir)).unwrap();
    assert!(
        recovered.stats().torn_tail_bytes_recovered > 0,
        "{:?}",
        recovered.stats()
    );
    assert_eq!(recovered.live_streams(), committed.len());
    drop(recovered);

    let reader = StoreReader::open(&dir).unwrap();
    let report = reader.verify().unwrap();
    assert!(report.is_clean(), "dirty after recovery: {report}");
    assert_eq!(
        reader.len(),
        committed.len(),
        "recovery lost a committed stream"
    );
    for (uid, data) in &committed {
        assert_eq!(
            &reader.read_stream(*uid).unwrap(),
            data,
            "committed stream {uid} changed across recovery"
        );
    }

    // Phase 2 — mid-write kill after a fully-flushed frame: the frame is
    // on disk but unindexed, so it must surface as a benign orphan.
    let dir = base.join("kill");
    let mut plan = FaultPlan::new(SEED ^ 1);
    plan.store.kill_after_appends = 5;
    let mut writer = StoreWriter::open(StoreConfig::new(&dir)).unwrap();
    writer.attach_faults(&plan);
    drive_store(&mut writer);
    assert!(writer.stats().write_errors >= 1);
    drop(writer);

    let reader = StoreReader::open(&dir).unwrap();
    let report = reader.verify().unwrap();
    assert!(report.orphan_frames >= 1, "{report}");
    assert_eq!(report.segment_torn_bytes, 0, "{report}");
    assert!(report.is_clean(), "orphans are benign: {report}");
    for r in reader.iter() {
        let data = reader.read_stream(r.uid).unwrap();
        assert_eq!(
            data[0].len() as u64 + data[1].len() as u64,
            r.stored_bytes(),
            "indexed stream {} unreadable after kill",
            r.uid
        );
    }
}

// ---------------------------------------------------------------------------
// Warm restart: kill/resume storm
// ---------------------------------------------------------------------------

/// Per-stream observations from one synchronous kernel drive.
#[derive(Default)]
struct RunObs {
    /// uid → final snapshot from its Terminated event.
    terminated: std::collections::HashMap<u64, scap::StreamSnapshot>,
    /// (uid, direction) → lowest chunk start offset delivered.
    first_chunk_offset: std::collections::HashMap<(u64, usize), u64>,
}

/// The event sink of a run: note what `obs` keeps, give the chunk back.
fn observe(obs: &mut RunObs) -> impl FnMut(&mut ScapKernel, scap::Event) + '_ {
    |kernel, ev| {
        if let scap::EventKind::Terminated = ev.kind {
            obs.terminated.insert(ev.stream.uid, ev.stream.clone());
        }
        if let scap::EventKind::Data { dir, chunk, .. } = &ev.kind {
            let e = obs
                .first_chunk_offset
                .entry((ev.stream.uid, dir.index()))
                .or_insert(u64::MAX);
            *e = (*e).min(chunk.start_offset);
        }
        kernel.release_event(ev);
    }
}

/// Feed `trace[from..to]` one packet at a time, draining every event and
/// (when `every` is set) snapshotting the kernel after each multiple of
/// `every` packets. Returns the latest checkpoint bytes with the index
/// of the first packet *after* it.
fn drive_range(
    kernel: &mut ScapKernel,
    trace: &[Packet],
    from: usize,
    to: usize,
    every: Option<u64>,
    obs: &mut RunObs,
) -> Option<(Vec<u8>, usize)> {
    let mut last_ckpt = None;
    let mut seq = 0u64;
    for (i, pkt) in trace[from..to].iter().enumerate() {
        let now = pkt.ts_ns;
        kernel.nic_receive(pkt);
        kernel.service(now, observe(obs));
        if let Some(every) = every {
            if (i as u64 + 1).is_multiple_of(every) {
                seq += 1;
                last_ckpt = Some((kernel.checkpoint_bytes(now, seq), from + i + 1));
            }
        }
    }
    last_ckpt
}

fn finish_run(kernel: &mut ScapKernel, now: u64, obs: &mut RunObs) {
    kernel.finish(now);
    kernel.drain_events(now, observe(obs));
}

/// The warm-restart acceptance storm: kill the capture at a seeded
/// packet index, resume from the latest periodic checkpoint, and check
/// the recovery invariants against an uninterrupted run of the same
/// trace — no stream vanishes, uids stay stable, resumed streams carry
/// the RESUMED flag with a blackout-bounded gap, and no byte below a
/// stream's committed offset is ever delivered again.
#[test]
fn kill_and_resume_storm_preserves_streams() {
    use scap::checkpoint::CheckpointImage;
    use scap_flow::StreamErrors;

    let seed: u64 = std::env::var("SCAP_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(23);
    let trace = CampusMix::new(CampusMixConfig::sized(seed, 2 << 20)).collect_all();
    let n = trace.len();
    // Kill somewhere in the middle of the trace, derived from the seed.
    let mix = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let kill_idx = n * 2 / 5 + ((mix >> 33) as usize) % (n / 4);
    const CKPT_EVERY: u64 = 200;
    let cfg = || ScapConfig {
        inactivity_timeout_ns: 2_000_000_000,
        ..ScapConfig::default()
    };

    // Uninterrupted baseline.
    let mut base = RunObs::default();
    let mut kb = ScapKernel::new(cfg());
    drive_range(&mut kb, &trace, 0, n, None, &mut base);
    finish_run(&mut kb, trace[n - 1].ts_ns + 1, &mut base);
    assert!(!base.terminated.is_empty());

    // Run 1: identical prefix with periodic checkpoints, killed at
    // `kill_idx` without `finish` — the crash model.
    let mut obs1 = RunObs::default();
    let mut k1 = ScapKernel::new(cfg());
    let (ckpt_bytes, ckpt_at) =
        drive_range(&mut k1, &trace, 0, kill_idx, Some(CKPT_EVERY), &mut obs1)
            .expect("kill index must leave at least one checkpoint behind");
    drop(k1);

    let img = CheckpointImage::decode(&ckpt_bytes).unwrap();
    assert_eq!(img.to_bytes(), ckpt_bytes, "encode→decode→encode differs");
    let uid_floor = img.globals.uid_counter;
    let blackout_wire: u64 = trace[ckpt_at..kill_idx]
        .iter()
        .map(|p| p.len() as u64)
        .sum();
    // Committed floor per resumed (uid, dir): the restored partial chunk
    // starts at committed − pending, and nothing below that may reappear.
    let mut committed = std::collections::HashMap::new();
    let mut live = std::collections::HashMap::new();
    for s in &img.streams {
        let Some(ks) = &s.kstate else { continue };
        live.insert(s.uid, s.key);
        for d in 0..2 {
            if let Some(a) = &ks.asm[d] {
                committed.insert((s.uid, d), a.committed - a.pending.len() as u64);
            }
        }
    }
    assert!(!live.is_empty(), "checkpoint captured no live stream");

    // Run 2: restore from the checkpoint and feed the post-crash suffix.
    let mut obs2 = RunObs::default();
    let mut k2 = ScapKernel::from_image(img, None).unwrap();
    drive_range(&mut k2, &trace, kill_idx, n, None, &mut obs2);
    finish_run(&mut k2, trace[n - 1].ts_ns + 1, &mut obs2);
    let stats2 = k2.stats();
    assert_eq!(stats2.resilience.restarts, 1);
    assert_eq!(stats2.resilience.resumed_streams, live.len() as u64);
    assert!(stats2.resilience.recovery_virtual_cycles > 0);
    assert!(stats2.resilience.resume_gap_bytes <= blackout_wire);

    // No stream vanishes and uids stay stable: every stream live at the
    // checkpoint terminates in the resumed run under its original uid
    // and key, flagged RESUMED with a blackout-bounded gap.
    for (uid, key) in &live {
        let snap = obs2
            .terminated
            .get(uid)
            .unwrap_or_else(|| panic!("stream uid {uid} vanished across the restart"));
        assert_eq!(
            snap.key.canonical().0,
            key.canonical().0,
            "uid {uid} re-bound to a different flow after restart"
        );
        assert!(
            snap.errors.contains(StreamErrors::RESUMED),
            "resumed stream uid {uid} not flagged RESUMED"
        );
        assert!(
            snap.resume_gap_bytes <= blackout_wire,
            "uid {uid}: resume gap {} exceeds blackout window {blackout_wire}",
            snap.resume_gap_bytes
        );
    }

    // The delivered stream set differs from the baseline only by the
    // RESUMED streams above and by genuinely new post-checkpoint streams.
    for (uid, snap) in &obs2.terminated {
        if live.contains_key(uid) {
            continue;
        }
        assert!(
            *uid >= uid_floor,
            "stream uid {uid} reappeared after the restart without RESUMED"
        );
        assert!(!snap.errors.contains(StreamErrors::RESUMED));
    }

    // Streams that completed before the crash match the baseline exactly
    // (run 1 is a deterministic prefix of the uninterrupted run).
    for (uid, snap) in &obs1.terminated {
        let b = base
            .terminated
            .get(uid)
            .unwrap_or_else(|| panic!("pre-crash stream uid {uid} missing from baseline"));
        assert_eq!(b.key.canonical().0, snap.key.canonical().0);
        assert_eq!(
            b.dirs, snap.dirs,
            "uid {uid} counters diverge from baseline"
        );
    }

    // No committed byte is ever re-delivered: every chunk the resumed
    // run emits for a restored stream starts at or above the committed
    // frontier recorded in the checkpoint.
    for ((uid, d), floor) in &committed {
        if let Some(min_off) = obs2.first_chunk_offset.get(&(*uid, *d)) {
            assert!(
                min_off >= floor,
                "uid {uid} dir {d}: chunk at offset {min_off} re-delivers bytes below committed offset {floor}"
            );
        }
    }
}

#[test]
fn storm_capture_is_deterministic_per_seed() {
    // Two synchronous runs with the same seed must agree exactly — the
    // property the `--exp faults` table relies on.
    let run = || {
        let plan = FaultPlan::storm(77);
        let (packets, frame_stats) = scap::live::mangle_packets(&plan, storm_trace());
        let mut kernel = ScapKernel::new(ScapConfig {
            use_fdir: true,
            faults: Some(plan),
            ..ScapConfig::default()
        });
        kernel.note_frame_faults(frame_stats);
        let mut now = 0;
        for pkt in &packets {
            now = pkt.ts_ns;
            kernel.nic_receive(pkt);
            kernel.service(now, |k, ev| k.release_event(ev));
        }
        kernel.finish(now.saturating_add(1));
        kernel.stats()
    };
    let a = run();
    let b = run();
    assert_eq!(a.stack, b.stack);
    assert_eq!(a.resilience, b.resilience);
}
