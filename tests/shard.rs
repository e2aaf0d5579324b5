//! Shard-fleet properties: the RSS-consistent partition function is
//! direction-symmetric and stable for any shard count, and a supervised
//! fleet under a mid-storm shard kill neither loses nor double-counts a
//! single byte — the fleet conservation identity holds exactly and the
//! supervisor's flight journal reconciles against it.

use proptest::prelude::*;
use scap::flight::{decode_journal, DropReason, FlightKind, FlightLayer};
use scap::{FaultPlan, FleetConfig, ScapConfig, ShardFleet, ShardMap, ShardState};
use scap_trace::gen::{CampusMix, CampusMixConfig};
use scap_wire::{FlowKey, Transport};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// Partition properties
// ---------------------------------------------------------------------------

/// An arbitrary IPv4 flow key (the vendored proptest has no `prop_map`,
/// so this is a hand-rolled strategy).
struct ArbKey;

impl Strategy for ArbKey {
    type Value = FlowKey;
    fn generate(&self, rng: &mut proptest::TestRng) -> FlowKey {
        use rand::Rng;
        let transport = match rng.random_range(0..3u8) {
            0 => Transport::Tcp,
            1 => Transport::Udp,
            _ => Transport::Other(rng.random()),
        };
        let mut addr = || {
            let w: u32 = rng.random();
            w.to_le_bytes()
        };
        let (src, dst) = (addr(), addr());
        FlowKey::new_v4(src, dst, rng.random(), rng.random(), transport)
    }
}

fn arb_key() -> ArbKey {
    ArbKey
}

proptest! {
    /// Both directions of any flow land on the same shard, for any
    /// shard count >= 1 and any partition seed — the property that lets
    /// a fleet reassemble streams without cross-shard traffic.
    #[test]
    fn partition_is_direction_symmetric(
        key in arb_key(),
        nshards in 1usize..64,
        seed in any::<u64>(),
    ) {
        let map = ShardMap::new(nshards, seed);
        let fwd = map.shard_of(&key);
        prop_assert!(fwd < nshards);
        prop_assert_eq!(fwd, map.shard_of(&key.reversed()));
        // Canonicalization does not move the flow either.
        prop_assert_eq!(fwd, map.shard_of(&key.canonical().0));
    }

    /// The partition is a pure function: the same key maps to the same
    /// shard on every call, and a single-shard map sends everything to
    /// shard 0.
    #[test]
    fn partition_is_stable(key in arb_key(), nshards in 1usize..64, seed in any::<u64>()) {
        let map = ShardMap::new(nshards, seed);
        prop_assert_eq!(map.shard_of(&key), map.shard_of(&key));
        prop_assert_eq!(ShardMap::new(1, seed).shard_of(&key), 0);
    }
}

// ---------------------------------------------------------------------------
// Chaos: kills mid-storm never break the fleet ledger
// ---------------------------------------------------------------------------

fn storm_fleet(seed: u64, nshards: usize, trace_bytes: u64) -> ShardFleet {
    let cfg = FleetConfig {
        nshards,
        shard: ScapConfig {
            memory_bytes: 16 << 20,
            cores: 1,
            inactivity_timeout_ns: u64::MAX / 2,
            ..ScapConfig::default()
        },
        faults: Some(FaultPlan::shard_storm(seed, nshards)),
        ..FleetConfig::default()
    };
    let cap_ns = cfg.backoff_cap_ns;
    let mut fleet = ShardFleet::new(cfg);
    let mut last = 0u64;
    for p in CampusMix::new(CampusMixConfig::sized(seed, trace_bytes)) {
        last = p.ts_ns;
        fleet.offer(&p);
    }
    fleet.tick(last + cap_ns + 1);
    fleet.finish(last + cap_ns + 2);
    fleet
}

#[test]
fn mid_storm_kills_never_lose_or_double_count_bytes() {
    for seed in [3u64, 17, 91] {
        let fleet = storm_fleet(seed, 4, 4 << 20);
        let fs = fleet.fleet_stats();
        assert!(fs.kills > 0, "seed {seed}: the storm must kill shards");
        // What the storm's corrupt-then-kill pair comes to on these
        // traces, and the images written, as at commit 23d8856 (before
        // images were encoded incrementally).
        let images = [(3, 10), (17, 13), (91, 10)];
        let (_, written) = images.iter().find(|(s, _)| *s == seed).unwrap();
        assert_eq!(
            (fs.ckpt_fallbacks, fs.cold_starts, fs.checkpoints_written),
            (0, 0, *written),
            "seed {seed}"
        );

        // Conservation: every wire packet and byte took exactly one exit
        // in exactly one shard incarnation — or is attributed to a
        // blackout. No loss, no double count.
        assert!(
            fs.packets_conserved(),
            "seed {seed}: packet ledger broken: wire={} delivered={} dropped={} \
             discarded={} shard_down={}",
            fs.wire_packets,
            fs.delivered_packets,
            fs.dropped_packets,
            fs.discarded_packets,
            fs.shard_down_packets
        );
        assert!(
            fs.bytes_conserved(),
            "seed {seed}: byte ledger broken: wire={} shard_wire={} shard_down={}",
            fs.wire_bytes,
            fs.shard_wire_bytes,
            fs.shard_down_bytes
        );

        // The supervisor journal's aggregated blackout events reconcile
        // byte-exactly against the counters.
        let journal = decode_journal(&fleet.flight().encode()).expect("journal decodes");
        let (mut jp, mut jb) = (0u64, 0u64);
        for e in &journal.events {
            if e.kind == FlightKind::Drop
                && e.layer == FlightLayer::Shard
                && e.reason == DropReason::ShardDown
            {
                jp += e.a;
                jb += e.b;
            }
        }
        assert_eq!(
            (jp, jb),
            (fs.shard_down_packets, fs.shard_down_bytes),
            "seed {seed}: journal blackout events disagree with the fleet counters"
        );

        // Recovery: every kill ended in a respawn or an explicit park.
        for st in fleet.status() {
            assert!(
                st.state == ShardState::Parked || st.kills == st.respawns,
                "seed {seed} shard {}: {} kills, {} respawns, state {:?}",
                st.shard,
                st.kills,
                st.respawns,
                st.state
            );
        }
    }
}

/// A corrupted stored image costs at most the one respawn that finds it.
/// The shard kernel builds each image from its own copy of the last one,
/// not from the fleet's stored bytes, so the image after a corrupted one
/// is clean again: a kill behind it respawns from it (no fallback, no
/// cold start), a kill ahead of it falls back once to the previous one.
/// The counts are those of commit 23d8856, which encoded every image
/// from scratch.
#[test]
fn a_corrupted_image_does_not_outlive_the_next_periodic_one() {
    use scap::{ShardFault, ShardFaultKind};
    // Images land at 512, 1024, 1536, …; the one taken at 1024 is
    // corrupted.
    for (kill_at, fallbacks) in [(1_220, 1), (1_600, 0)] {
        let fault = |at_packet, kind| ShardFault {
            shard: 0,
            at_packet,
            kind,
        };
        let cfg = FleetConfig {
            nshards: 1,
            shard: ScapConfig {
                memory_bytes: 16 << 20,
                cores: 1,
                inactivity_timeout_ns: u64::MAX / 2,
                ..ScapConfig::default()
            },
            faults: Some(FaultPlan {
                seed: 3,
                shards: vec![
                    fault(1_200, ShardFaultKind::CorruptCheckpoint),
                    fault(kill_at, ShardFaultKind::Kill),
                    fault(kill_at + 2_000, ShardFaultKind::Kill),
                ],
                ..Default::default()
            }),
            ..FleetConfig::default()
        };
        let cap_ns = cfg.backoff_cap_ns;
        let mut fleet = ShardFleet::new(cfg);
        let mut last = 0u64;
        for p in CampusMix::new(CampusMixConfig::sized(7, 4 << 20)) {
            last = p.ts_ns;
            fleet.offer(&p);
        }
        fleet.tick(last + cap_ns + 1);
        fleet.finish(last + cap_ns + 2);
        let fs = fleet.fleet_stats();
        assert_eq!((fs.kills, fs.respawns), (2, 2), "kill at {kill_at}: {fs:?}");
        assert_eq!(
            (fs.ckpt_fallbacks, fs.cold_starts),
            (fallbacks, 0),
            "kill at {kill_at}: {fs:?}"
        );
        assert!(fs.resumed_streams > 0, "kill at {kill_at}: {fs:?}");
        assert!(fs.packets_conserved() && fs.bytes_conserved(), "{fs:?}");
    }
}

#[test]
fn quiet_fleet_attributes_nothing_to_blackouts() {
    let cfg = FleetConfig {
        nshards: 3,
        shard: ScapConfig {
            memory_bytes: 16 << 20,
            cores: 1,
            inactivity_timeout_ns: u64::MAX / 2,
            ..ScapConfig::default()
        },
        ..FleetConfig::default()
    };
    let mut fleet = ShardFleet::new(cfg);
    let mut last = 0u64;
    for p in CampusMix::new(CampusMixConfig::sized(5, 2 << 20)) {
        last = p.ts_ns;
        fleet.offer(&p);
    }
    fleet.finish(last + 1);
    let fs = fleet.fleet_stats();
    assert_eq!(fs.kills, 0);
    assert_eq!(fs.shard_down_packets, 0);
    assert_eq!(fs.shard_down_bytes, 0);
    assert!(fs.packets_conserved() && fs.bytes_conserved());
}

// ---------------------------------------------------------------------------
// Dispatch mode: a fast-path fleet really runs the fast path
// ---------------------------------------------------------------------------

/// Delivered bytes by stream and direction.
type Streams<T> = BTreeMap<(String, usize), T>;

/// Drive a quiet 2-shard fleet configured by `tweak`; returns the fleet
/// (finished) and every stream's delivered bytes (per direction, in
/// offset order).
fn quiet_fleet(tweak: impl FnOnce(&mut FleetConfig)) -> (ShardFleet, Streams<Vec<u8>>) {
    let mut cfg = FleetConfig {
        nshards: 2,
        ..FleetConfig::default()
    };
    tweak(&mut cfg);
    let mut fleet = ShardFleet::new(cfg);
    let mut chunks: Streams<Vec<(u64, Vec<u8>)>> = BTreeMap::new();
    let mut sink = |_shard: usize, ev: &scap::Event| {
        if let scap::EventKind::Data { dir, chunk, .. } = &ev.kind {
            chunks
                .entry((ev.stream.key.to_string(), dir.index()))
                .or_default()
                .push((chunk.start_offset, chunk.bytes().to_vec()));
        }
    };
    let mut last = 0u64;
    for p in CampusMix::new(CampusMixConfig::sized(9, 2 << 20)) {
        last = p.ts_ns;
        fleet.offer_with(&p, &mut sink);
    }
    fleet.finish_with(last + 1, &mut sink);
    let streams = chunks
        .into_iter()
        .map(|(k, mut parts)| {
            parts.sort();
            (k, parts.into_iter().flat_map(|(_, b)| b).collect())
        })
        .collect();
    (fleet, streams)
}

fn dispatch_fleet(dispatch: scap::DispatchMode) -> (scap::FleetStats, Streams<Vec<u8>>) {
    let (fleet, streams) = quiet_fleet(|cfg| cfg.shard.dispatch = dispatch);
    (fleet.fleet_stats(), streams)
}

/// With the defaults a burst boundary (256) and a checkpoint boundary
/// (512) meet on every 512th packet of a shard; the shard is serviced
/// once there, and nothing observable depends on whether the two
/// boundaries meet at all.
#[test]
fn coinciding_burst_and_checkpoint_boundaries_change_nothing() {
    let (meeting, meeting_streams) = quiet_fleet(|_| {});
    let (apart, apart_streams) = quiet_fleet(|cfg| cfg.drive_burst = 255);
    let interval = FleetConfig::default().checkpoint_interval_pkts;
    assert_eq!(interval, 512);
    for fleet in [&meeting, &apart] {
        let fs = fleet.fleet_stats();
        assert!(fs.packets_conserved() && fs.bytes_conserved(), "{fs:?}");
        assert_eq!(fs.shard_down_packets, 0);
        // One image per full interval of each shard, no more, no fewer.
        let due: u64 = fleet
            .status()
            .iter()
            .map(|s| s.offered_pkts / interval)
            .sum();
        assert!(due > 4);
        assert_eq!(fs.checkpoints_written, due);
    }
    let (a, b) = (meeting.fleet_stats(), apart.fleet_stats());
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "fleet ledgers differ");
    assert!(a.delivered_bytes > 0);
    assert!(meeting_streams == apart_streams, "per-stream bytes differ");
}

#[test]
fn fastpath_fleet_runs_the_fast_path_and_delivers_the_same_bytes() {
    let (classic, classic_streams) = dispatch_fleet(scap::DispatchMode::Classic);
    let (fast, fast_streams) = dispatch_fleet(scap::DispatchMode::Fastpath);
    assert_eq!(classic.fastpath_bursts, 0);
    assert!(fast.fastpath_bursts > 0, "{fast:?}");
    for fs in [&classic, &fast] {
        assert!(fs.packets_conserved() && fs.bytes_conserved(), "{fs:?}");
        assert_eq!(fs.shard_down_packets, 0);
    }
    assert!(fast.delivered_bytes > 0);
    assert_eq!(fast.delivered_bytes, classic.delivered_bytes);
    assert_eq!(fast_streams.len(), classic_streams.len());
    assert!(fast_streams == classic_streams, "per-stream bytes differ");
}
