//! Flight-recorder properties: event codec round-trips, corruption is
//! rejected (never mis-decoded), same-seed captures journal identically,
//! and a shrunken ring wraps without losing count of its own loss.
//!
//! The capture-driving tests use the same synchronous drive loop as
//! `tests/store_roundtrip.rs`: feed a seeded campus mix packet by
//! packet, poll every core, drain and release data events.

use proptest::prelude::*;
use scap::flight::{self, DropReason, FlightEvent, FlightKind, FlightLayer, FlightRecorder};
use scap::{ScapConfig, ScapKernel};
use scap_faults::{FaultPlan, FlightFaultConfig};
use scap_trace::gen::{CampusMix, CampusMixConfig};

// ---------------------------------------------------------------------------
// Codec round-trip and corruption rejection
// ---------------------------------------------------------------------------

/// Any event with valid identity bytes (the vendored proptest has no
/// `prop_map`, so this is a hand-rolled strategy).
struct ArbEvent;

impl Strategy for ArbEvent {
    type Value = FlightEvent;
    fn generate(&self, rng: &mut proptest::TestRng) -> FlightEvent {
        use rand::Rng;
        FlightEvent {
            seq: rng.random(),
            ts_ns: rng.random(),
            uid: rng.random(),
            a: rng.random(),
            b: rng.random(),
            kind: FlightKind::from_idx(rng.random_range(0..FlightKind::COUNT as u8)).unwrap(),
            layer: FlightLayer::from_idx(rng.random_range(0..FlightLayer::COUNT as u8)).unwrap(),
            reason: DropReason::from_idx(rng.random_range(0..DropReason::COUNT as u8)).unwrap(),
            core: rng.random(),
        }
    }
}

fn arb_event() -> ArbEvent {
    ArbEvent
}

proptest! {
    /// encode → decode is the identity for every representable event.
    #[test]
    fn event_codec_round_trips(ev in arb_event()) {
        let back = FlightEvent::decode(&ev.encode()).unwrap();
        prop_assert_eq!(back, ev);
    }

    /// Unknown identity bytes are rejected, not coerced to something valid.
    #[test]
    fn event_decode_rejects_unknown_identities(
        ev in arb_event(),
        field in 0usize..3,
        raw in any::<u8>(),
    ) {
        let mut body = ev.encode();
        let (off, limit) = match field {
            0 => (40, FlightKind::COUNT as u8),
            1 => (41, FlightLayer::COUNT as u8),
            _ => (42, DropReason::COUNT as u8),
        };
        let bad = raw.saturating_add(limit).max(limit); // always out of range
        body[off] = bad;
        prop_assert!(FlightEvent::decode(&body).is_err());
    }

    /// A full journal survives encode → decode with every event,
    /// sequence-ordered, and per-core accounting intact.
    #[test]
    fn journal_round_trips(events in proptest::collection::vec(arb_event(), 0..64)) {
        let mut rec = FlightRecorder::new(2, 256);
        for ev in &events {
            rec.emit(ev.core as usize, *ev);
        }
        let j = flight::decode_journal(&rec.encode()).unwrap();
        prop_assert_eq!(j.ncores, 2);
        prop_assert_eq!(j.ring_cap, 256);
        prop_assert_eq!(j.torn_bytes, 0);
        prop_assert_eq!(j.total_recorded(), events.len() as u64);
        prop_assert_eq!(j.total_dropped(), 0);
        prop_assert_eq!(j.events.len(), events.len());
        // The recorder re-stamps seq (capture order) and core (clamped),
        // but the payload must come back untouched.
        for (got, want) in j.events.iter().zip(events.iter()) {
            prop_assert_eq!(got.ts_ns, want.ts_ns);
            prop_assert_eq!(got.uid, want.uid);
            prop_assert_eq!(got.a, want.a);
            prop_assert_eq!(got.b, want.b);
            prop_assert_eq!(got.kind, want.kind);
            prop_assert_eq!(got.layer, want.layer);
            prop_assert_eq!(got.reason, want.reason);
        }
    }

    /// A single flipped bit anywhere in the file never mis-decodes: the
    /// journal either fails outright (header/meta damage) or comes back
    /// as a strict prefix of the original events plus a torn tail — the
    /// CRC on every record frame catches the rest.
    #[test]
    fn journal_bit_flip_never_misdecodes(
        events in proptest::collection::vec(arb_event(), 1..32),
        bit_seed in any::<u64>(),
    ) {
        let mut rec = FlightRecorder::new(1, 256);
        for ev in &events {
            rec.emit(0, *ev);
        }
        let clean = rec.encode();
        let want = flight::decode_journal(&clean).unwrap().events;

        let mut bytes = clean.clone();
        let bit = (bit_seed % (bytes.len() as u64 * 8)) as usize;
        bytes[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(bytes != clean, "flipping a bit must change the file");
        match flight::decode_journal(&bytes) {
            Err(_) => {}
            Ok(j) => {
                prop_assert!(j.events.len() <= want.len());
                prop_assert_eq!(&j.events[..], &want[..j.events.len()],
                    "decoded events must be a strict prefix of the originals");
                prop_assert!(
                    j.events.len() == want.len() || j.torn_bytes > 0,
                    "lost events must show up as a torn tail"
                );
            }
        }
    }
}

/// Truncation at any point mid-file behaves like a crash mid-append:
/// decodable prefix plus reported torn bytes, never a panic.
#[test]
fn journal_tolerates_truncation() {
    let mut rec = FlightRecorder::new(1, 64);
    for i in 0..10u64 {
        rec.emit(
            0,
            FlightEvent::new(FlightKind::Drop, FlightLayer::Kernel, i * 100)
                .with_reason(DropReason::RingFull)
                .with_vals(1, 64),
        );
    }
    let clean = rec.encode();
    let full = flight::decode_journal(&clean).unwrap();
    assert_eq!(full.events.len(), 10);
    for cut in 0..clean.len() {
        match flight::decode_journal(&clean[..cut]) {
            Err(_) => {} // header or meta gone — fine
            Ok(j) => {
                assert!(j.events.len() <= 10);
                assert_eq!(&j.events[..], &full.events[..j.events.len()]);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Capture-level properties (synchronous drive, seeded campus mix)
// ---------------------------------------------------------------------------

/// Drive a kernel synchronously over a seeded campus mix and return the
/// encoded flight journal.
fn drive(seed: u64, plan: Option<FaultPlan>) -> (ScapKernel, Vec<u8>) {
    let trace = CampusMix::new(CampusMixConfig::sized(seed, 512 << 10)).collect_all();
    let mut cfg = ScapConfig {
        inactivity_timeout_ns: 500_000_000,
        use_fdir: true,
        ..ScapConfig::default()
    };
    cfg.cutoff.default = Some(8 << 10);
    cfg.faults = plan;
    let mut kernel = ScapKernel::new(cfg);

    let mut now = 0;
    for pkt in &trace {
        now = pkt.ts_ns;
        kernel.nic_receive(pkt);
        kernel.service(now, |k, ev| k.release_event(ev));
    }
    let end = now.saturating_add(1);
    kernel.finish(end);
    kernel.drain_events(end, |k, ev| k.release_event(ev));
    let journal = kernel.flight().encode();
    (kernel, journal)
}

/// Two same-seed sim runs produce byte-identical journals — the flight
/// recorder is keyed entirely on the trace's virtual clock.
#[test]
fn same_seed_journals_are_byte_identical() {
    let (_, a) = drive(21, None);
    let (_, b) = drive(21, None);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same-seed flight journals differ");
    let j = flight::decode_journal(&a).unwrap();
    assert!(
        j.events.iter().any(|e| e.kind == FlightKind::Discard),
        "an fdir capture over a campus mix must discard something"
    );
    // Capture order is the decode order.
    assert!(j.events.windows(2).all(|w| w[0].seq < w[1].seq));
}

/// The `flight_overflow` injector shrinks every per-core ring so the
/// capture wraps; overwritten events must be *counted*, and the journal
/// meta must carry the loss.
#[test]
fn shrunken_ring_counts_overwritten_events() {
    const SMALL: usize = 16;
    let plan = FaultPlan {
        flight: FlightFaultConfig {
            shrink_ring_to: SMALL,
        },
        ..FaultPlan::new(22)
    };
    let (kernel, bytes) = drive(22, Some(plan));

    // The injector really did shrink the rings.
    assert_eq!(kernel.flight().ring_cap(), SMALL);

    // Baseline run without the fault: how many events this seed emits.
    let (baseline, baseline_bytes) = drive(22, None);
    let total = baseline.flight().total_recorded();
    assert!(
        total > SMALL as u64,
        "workload too small to wrap a {SMALL}-slot ring ({total} events)"
    );

    // Survivors + overwritten == everything ever emitted, per core and
    // in total; the shrunken run loses events but never the count.
    let j = flight::decode_journal(&bytes).unwrap();
    assert_eq!(kernel.flight().total_recorded(), total);
    assert!(j.total_dropped() > 0, "ring never wrapped");
    assert_eq!(
        j.events.len() as u64 + j.total_dropped(),
        j.total_recorded(),
        "overwritten events must be counted, not silently lost"
    );
    for core in 0..j.ncores {
        assert_eq!(
            kernel.flight().recorded(core),
            j.recorded[core],
            "per-core recorded count must survive the journal codec"
        );
        assert_eq!(kernel.flight().dropped(core), j.dropped[core]);
        assert!(kernel.flight().recorded(core) >= kernel.flight().dropped(core));
    }
    // Each surviving ring holds its newest `cap` events: the journal's
    // survivors are exactly the tail of the baseline's event stream,
    // per core.
    let base = flight::decode_journal(&baseline_bytes).unwrap();
    for core in 0..j.ncores {
        let all: Vec<_> = base
            .events
            .iter()
            .filter(|e| e.core == core as u8)
            .collect();
        let kept: Vec<_> = j.events.iter().filter(|e| e.core == core as u8).collect();
        let tail = &all[all.len() - kept.len()..];
        for (k, t) in kept.iter().zip(tail.iter()) {
            assert_eq!(k.ts_ns, t.ts_ns);
            assert_eq!(k.kind, t.kind);
            assert_eq!(k.uid, t.uid);
        }
    }
}
