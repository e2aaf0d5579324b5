//! Integration tests for the telemetry subsystem: the simulated pipeline
//! must be deterministic per seed (byte-identical exports), the JSONL
//! exporter must round-trip a real run's snapshot, and the merged
//! counters must agree exactly with `ScapStats`.

use scap::telemetry::export;
use scap::telemetry::{Metric, Snapshot, Stage};
use scap::ScapStats;
use scap_bench::common::{campus_workload, engine, flow_stats_app, run_scap, scap_config};
use scap_bench::{ExpConfig, Scale};

/// One simulated run at 4 Gbit/s over a small campus trace; returns the
/// merged telemetry snapshot, the series CSV, and the kernel statistics.
fn run_sim(seed: u64) -> (Snapshot, String, ScapStats) {
    let mut scale = Scale::smoke();
    scale.trace_bytes = 3 << 20;
    let mut cfg = ExpConfig::new(scale);
    cfg.seed = seed;
    let wl = campus_workload(&cfg);
    let mut sc = scap_config(&cfg);
    sc.use_fdir = true;
    sc.cutoff.default = Some(64 << 10);
    let (_rep, stack) = run_scap(&engine(), sc, flow_stats_app(), wl.at_rate(4.0));
    let kernel = stack.kernel();
    (
        kernel.telemetry_snapshot(),
        export::series_to_csv(kernel.telemetry_series()),
        kernel.stats(),
    )
}

#[test]
fn same_seed_produces_byte_identical_exports() {
    let (a, series_a, _) = run_sim(33);
    let (b, series_b, _) = run_sim(33);
    assert_eq!(export::to_csv(&a), export::to_csv(&b));
    assert_eq!(series_a, series_b);

    let (c, _, _) = run_sim(34);
    assert_ne!(
        export::to_csv(&a),
        export::to_csv(&c),
        "different seeds should produce different telemetry"
    );
}

#[test]
fn jsonl_round_trips_a_real_snapshot() {
    let (snap, _, _) = run_sim(7);
    assert!(snap.total(Metric::WirePackets) > 0);
    let parsed = export::from_jsonl(&export::to_jsonl(&snap)).expect("reparse");
    assert_eq!(parsed, snap);
}

#[test]
fn merged_counters_agree_with_scap_stats() {
    let (snap, _, stats) = run_sim(11);
    // `ScapKernel::stats()` reads these facts from the registry cells the
    // snapshot copies (their only store), so each pair below is one value
    // compared with itself by construction; kept so that a second store
    // coming back cannot drift unnoticed.
    assert_eq!(snap.total(Metric::WirePackets), stats.stack.wire_packets);
    assert_eq!(snap.total(Metric::WireBytes), stats.stack.wire_bytes);
    assert_eq!(
        snap.total(Metric::DeliveredPackets),
        stats.stack.delivered_packets
    );
    assert_eq!(
        snap.total(Metric::DroppedPackets),
        stats.stack.dropped_packets
    );
    assert_eq!(
        snap.total(Metric::DiscardedPackets),
        stats.stack.discarded_packets
    );
    // The conservation identity, stated purely in telemetry terms.
    assert_eq!(
        snap.total(Metric::WirePackets),
        snap.total(Metric::DeliveredPackets)
            + snap.total(Metric::DroppedPackets)
            + snap.total(Metric::DiscardedPackets)
    );
}

#[test]
fn sim_driver_populates_stage_spans_and_series() {
    let (snap, series_csv, _) = run_sim(5);
    // Virtual-cycle spans from the work receipts: every stage that does
    // work in this configuration must have samples.
    for st in [Stage::Nic, Stage::Kernel, Stage::Memory, Stage::EventQueue] {
        assert!(
            snap.stage(st).count() > 0,
            "stage {} recorded no spans",
            st.name()
        );
    }
    assert!(snap.total(Metric::WorkerEventsHandled) > 0);
    // The gauge time-series has its header plus at least one sample row.
    assert!(series_csv.lines().count() > 1, "series: {series_csv}");
}
