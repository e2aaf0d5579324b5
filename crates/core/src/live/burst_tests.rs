//! The burst driver against per-packet service (the same driver capped
//! at bursts of one), and the hand-off's failure accounting.

use super::*;
use crate::DispatchMode;
use scap_telemetry::Metric;
use scap_trace::gen::{CampusMix, CampusMixConfig};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

fn trace() -> Vec<Packet> {
    CampusMix::new(CampusMixConfig::sized(33, 2 << 20)).collect_all()
}

/// Delivered bytes per stream direction as maximal contiguous runs, so
/// two captures compare equal whatever the chunk boundaries were.
type Delivered = BTreeMap<(String, usize), Vec<(u64, Vec<u8>)>>;

fn capture(builder: ScapBuilder, max_burst: u64, pkts: &[Packet]) -> (ScapStats, Delivered) {
    let chunks = Arc::new(Mutex::new(Delivered::new()));
    let mut scap = builder.try_build().unwrap().with_max_burst(max_burst);
    let sink = chunks.clone();
    scap.dispatch_data(move |ctx| {
        if let (Some(dir), Some(data)) = (ctx.dir, ctx.data) {
            sink.lock()
                .unwrap()
                .entry((ctx.stream.key.to_string(), dir.index()))
                .or_default()
                .push((ctx.data_offset, data.to_vec()));
        }
    });
    let stats = scap.start_capture(pkts.iter().cloned());
    let mut delivered = std::mem::take(&mut *chunks.lock().unwrap());
    for parts in delivered.values_mut() {
        parts.sort();
        let mut runs: Vec<(u64, Vec<u8>)> = Vec::new();
        for (off, bytes) in parts.drain(..) {
            match runs.last_mut() {
                Some((start, run)) if *start + run.len() as u64 == off => run.extend(bytes),
                _ => runs.push((off, bytes)),
            }
        }
        *parts = runs;
    }
    (stats, delivered)
}

#[test]
fn burst_service_matches_per_packet_service() {
    let pkts = trace();
    for dispatch in [DispatchMode::Classic, DispatchMode::Fastpath] {
        for workers in [1, 2] {
            let builder = || Scap::builder().worker_threads(workers).dispatch(dispatch);
            let (burst, burst_bytes) = capture(builder(), MAX_BURST, &pkts);
            let (single, single_bytes) = capture(builder(), 1, &pkts);
            let case = format!("{dispatch:?}, {workers} worker(s)");
            assert!(burst.stack.delivered_bytes > 0, "{case}");
            assert_eq!(burst.stack, single.stack, "{case}");
            assert_eq!(burst_bytes.len(), single_bytes.len(), "{case}");
            assert!(
                burst_bytes == single_bytes,
                "{case}: delivered bytes differ"
            );
        }
    }
}

/// What `checkpoint_every(300)`, `stats_interval(300)` and a kill at
/// packet `kill_at` observably did.
#[derive(Debug, PartialEq)]
struct Ordinals {
    /// `WirePackets` as each stats-hook call saw it.
    stats_calls: Vec<u64>,
    died_at: Option<u64>,
    wire_packets: u64,
    /// Sequence number and timestamp of the checkpoint left on disk.
    last_ckpt: (u64, u64),
}

fn ordinals(max_burst: u64, pkts: &[Packet], kill_at: u64, tag: &str) -> Ordinals {
    let path = std::env::temp_dir().join(format!(
        "scap-burst-ordinals-{}-{tag}.ckpt",
        std::process::id()
    ));
    let plan = FaultPlan {
        kill_at_packet: Some(kill_at),
        ..FaultPlan::new(5)
    };
    let mut scap = Scap::builder()
        .fault_plan(plan)
        .checkpoint_every(300, &path)
        .stats_interval(300)
        .try_build()
        .unwrap()
        .with_max_burst(max_burst);
    let calls = Arc::new(Mutex::new(Vec::new()));
    let c = calls.clone();
    scap.dispatch_stats(move |snap, _| c.lock().unwrap().push(snap.total(Metric::WirePackets)));
    let stats = scap.start_capture(pkts.iter().cloned());
    let img = checkpoint::read_image(&path).expect("a checkpoint was written");
    let _ = std::fs::remove_file(&path);
    let mut bb = path.into_os_string();
    bb.push(".flight");
    let _ = std::fs::remove_file(bb);
    let stats_calls = calls.lock().unwrap().clone();
    Ordinals {
        stats_calls,
        died_at: scap.died_at(),
        wire_packets: stats.stack.wire_packets,
        last_ckpt: (img.seq, img.globals.ts_ns),
    }
}

#[test]
fn checkpoints_kill_and_stats_fire_at_exact_packet_ordinals() {
    let pkts = trace();
    // Neither 300 nor 1000 is a multiple of the 256-packet cadence, so
    // every one of these ordinals falls inside what would be a burst.
    let burst = ordinals(MAX_BURST, &pkts, 1000, "burst");
    assert_eq!(burst.stats_calls, [300, 600, 900]);
    assert_eq!(burst.died_at, Some(1000));
    assert_eq!(burst.wire_packets, 1000);
    // Third checkpoint, taken right after packet 900 was serviced.
    assert_eq!(burst.last_ckpt, (3, pkts[899].ts_ns));
    assert_eq!(burst, ordinals(1, &pkts, 1000, "single"));
}

#[test]
fn worker_panic_mid_batch_loses_only_the_event_it_held() {
    #[derive(Default)]
    struct CountAll(AtomicU64);
    impl EventSink for CountAll {
        fn on_created(&self, _: &StreamSnapshot) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
        fn on_data(&self, _: &StreamSnapshot, _: Direction, _: &[u8], _: u64) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
        fn on_terminated(&self, _: &StreamSnapshot) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
    // 200 packets with one timestamp are one burst, so the single
    // worker gets every event they produce as one batch.
    let pkts: Vec<Packet> = trace()
        .into_iter()
        .take(200)
        .map(|p| Packet { ts_ns: 7, ..p })
        .collect();
    let run = |panic_at: u64| {
        let seen = Arc::new(CountAll::default());
        let mut scap = Scap::builder().worker_threads(1).try_build().unwrap();
        scap.attach_sink(seen.clone());
        let created = AtomicU64::new(0);
        scap.dispatch_creation(move |_| {
            if created.fetch_add(1, Ordering::Relaxed) + 1 == panic_at {
                panic!("application bug");
            }
        });
        let stats = scap.start_capture(pkts.iter().cloned());
        assert!(stats.stack.streams_created > 10, "the batch is not trivial");
        let seen = seen.0.load(Ordering::Relaxed);
        (seen, scap.last_capture_error().cloned())
    };
    let (clean_seen, clean_err) = run(0);
    assert!(clean_err.is_none());
    // The second stream creation dies in its callback, batch barely begun.
    let (seen, err) = run(2);
    let w = err.expect("the panic is reported").workers[0];
    // One panic, one verdict, one replacement — also when the thread is
    // slow to print its backtrace.
    assert_eq!(
        (w.panics, w.stalls, w.restarts, w.events_lost),
        (1, 0, 1, 1)
    );
    assert_eq!(w.events_sent, clean_seen);
    assert_eq!(w.events_sent, w.events_handled + w.events_lost);
    // Sinks run before the handler, so the replacement having dispatched
    // the rest of the batch means every event reached the sink once.
    assert_eq!(seen, clean_seen);
}
