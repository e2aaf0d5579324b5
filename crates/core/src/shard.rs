//! Fault-tolerant scale-out sharding: the `ShardFleet` supervisor.
//!
//! A fleet partitions one capture across N independent shard engines
//! (each a full [`ScapKernel`] with its own flow table, arena, NIC
//! emulation, and flight recorder) using RSS-consistent symmetric
//! partitioning ([`scap_shard::ShardMap`]): both directions of a flow
//! land on the same shard for any shard count ≥ 1, so per-shard stream
//! reassembly never sees half a connection.
//!
//! The supervisor holds one heartbeat [`Lease`] per shard. A healthy
//! shard beats its lease on every packet it accepts; a wedged shard
//! (injected via [`ShardFaultKind::StallHeartbeat`]) stops beating
//! while offers keep arriving, and the lease deadline takes it down.
//! Dead or taken-down shards are respawned from their latest
//! checkpoint after an exponential backoff with deterministic jitter
//! ([`Backoff`]); a [`CircuitBreaker`] parks a shard that fails M
//! times inside a window, and the parked partition's loss is accounted
//! until the capture ends.
//!
//! **Fleet conservation.** Every packet offered to the fleet takes
//! exactly one exit: it is either fed to exactly one shard-kernel
//! incarnation (where the kernel's own identity
//! `wire == delivered + dropped + discarded` holds), or it is dropped
//! while the owning shard is down and counted — and journaled as one
//! aggregated `drop/shard/shard_down` flight event per blackout — so
//! the fleet-wide identity
//! `wire == Σ(delivered + dropped + discarded) + shard_down` holds
//! exactly, in packets and in wire bytes, and reconciles byte-exactly
//! against the union of per-incarnation flight journals plus the
//! supervisor's own journal.

use crate::checkpoint::CheckpointImage;
use crate::config::ScapConfig;
use crate::event::Event;
use crate::kernel::ScapKernel;
use scap_faults::{FaultPlan, ShardFault, ShardFaultKind};
use scap_flight::{FlightEvent, FlightKind, FlightLayer, FlightRecorder};
use scap_shard::{Backoff, CircuitBreaker, Lease, ShardMap, ShardState};
use scap_telemetry::PulseSnapshot;
use scap_trace::Packet;
use scap_wire::parse_frame;

pub use scap_flight::DropReason;

/// Configuration of a supervised shard fleet.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of shard engines (clamped to ≥ 1).
    pub nshards: usize,
    /// Partition hash seed (must stay stable across restarts for the
    /// partition to remain stable).
    pub partition_seed: u64,
    /// Per-shard kernel configuration (cloned into every shard).
    pub shard: ScapConfig,
    /// Heartbeat lease deadline: a shard with pending offers that has
    /// not made progress for this long is taken down.
    pub lease_timeout_ns: u64,
    /// First respawn backoff delay.
    pub backoff_base_ns: u64,
    /// Hard cap on any respawn delay (jitter included).
    pub backoff_cap_ns: u64,
    /// Failures inside [`FleetConfig::breaker_window_ns`] that park a
    /// shard for good.
    pub breaker_threshold: u32,
    /// Sliding failure window of the circuit breaker.
    pub breaker_window_ns: u64,
    /// Checkpoint cadence, in packets offered per shard.
    pub checkpoint_interval_pkts: u64,
    /// Packets a shard processes between poll/drain bursts.
    pub drive_burst: usize,
    /// Scheduled shard faults (and the seed deriving their jitter);
    /// `None` = quiet fleet.
    pub faults: Option<FaultPlan>,
    /// Supervisor flight-journal ring capacity (events per core; the
    /// supervisor journal is O(respawns) and must not wrap for exact
    /// reconciliation).
    pub flight_ring_cap: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            nshards: 4,
            partition_seed: 0x5ca9_5eed,
            shard: ScapConfig::default(),
            lease_timeout_ns: 2_000_000,
            backoff_base_ns: 500_000,
            backoff_cap_ns: 8_000_000,
            breaker_threshold: 4,
            breaker_window_ns: 200_000_000,
            checkpoint_interval_pkts: 512,
            drive_burst: 256,
            faults: None,
            flight_ring_cap: 1 << 12,
        }
    }
}

/// Retired-incarnation accumulator: the end-of-life statistics of every
/// kernel incarnation a shard has been through, summed.
#[derive(Debug, Clone, Copy, Default)]
pub struct IncarnationTotals {
    /// Wire packets accepted by retired incarnations.
    pub wire_packets: u64,
    /// Wire bytes accepted by retired incarnations.
    pub wire_bytes: u64,
    /// Delivered packets across retired incarnations.
    pub delivered_packets: u64,
    /// Overload-dropped packets across retired incarnations.
    pub dropped_packets: u64,
    /// Deliberately discarded packets across retired incarnations.
    pub discarded_packets: u64,
    /// Payload bytes delivered across retired incarnations.
    pub delivered_bytes: u64,
    /// Overload-dropped bytes across retired incarnations.
    pub dropped_bytes: u64,
    /// Deliberately discarded bytes across retired incarnations.
    pub discarded_bytes: u64,
    /// Streams created across retired incarnations.
    pub streams_created: u64,
    /// Blackout resume-gap bytes accumulated across restores.
    pub resume_gap_bytes: u64,
    /// Streams restored from checkpoints across restores.
    pub resumed_streams: u64,
    /// Checkpoints written across incarnations.
    pub checkpoints_written: u64,
    /// Non-empty fast-path burst pulls across incarnations (0 under
    /// classic dispatch).
    pub fastpath_bursts: u64,
}

impl IncarnationTotals {
    fn absorb(&mut self, kernel: &ScapKernel) {
        let s = kernel.stats();
        self.fastpath_bursts += kernel.fastpath_stats().bursts;
        self.wire_packets += s.stack.wire_packets;
        self.wire_bytes += s.stack.wire_bytes;
        self.delivered_packets += s.stack.delivered_packets;
        self.dropped_packets += s.stack.dropped_packets;
        self.discarded_packets += s.stack.discarded_packets;
        self.delivered_bytes += s.stack.delivered_bytes;
        self.dropped_bytes += s.stack.dropped_bytes;
        self.discarded_bytes += s.stack.discarded_bytes;
        self.streams_created += s.stack.streams_created;
        self.resume_gap_bytes += s.resilience.resume_gap_bytes;
        self.resumed_streams += s.resilience.resumed_streams;
        self.checkpoints_written += s.resilience.checkpoints_written;
    }
}

/// One supervised shard: the live kernel (when up), its lease, its
/// fault schedule, its checkpoints, and its lifetime accounting.
struct ShardSlot {
    kernel: Option<ScapKernel>,
    state: ShardState,
    lease: Lease,
    breaker: CircuitBreaker,
    /// Scheduled faults, sorted by firing ordinal; `next_fault` indexes
    /// the first not-yet-fired entry.
    faults: Vec<ShardFault>,
    next_fault: usize,
    /// Packets offered to this shard's partition (counted across
    /// incarnations and blackouts — the fault-schedule ordinal).
    offered_pkts: u64,
    offered_bytes: u64,
    /// Packets fed to the live kernel since the last poll burst.
    pending_burst: usize,
    /// Virtual time the current heartbeat stall ends (0 = not stalled).
    stall_until_ns: u64,
    /// Rotated checkpoint images: `[latest, previous]`.
    ckpt_latest: Option<Vec<u8>>,
    ckpt_previous: Option<Vec<u8>>,
    ckpt_seq: u64,
    last_ckpt_at_pkts: u64,
    /// When the shard may be respawned (Respawning state only).
    respawn_at_ns: u64,
    /// When the current blackout began (stall begin or kill time).
    blackout_started_ns: u64,
    /// Down-drops inside the current blackout (flushed into one
    /// aggregated flight event when the blackout closes).
    cur_down_pkts: u64,
    cur_down_bytes: u64,
    /// Lifetime down-drop attribution for this partition.
    down_pkts: u64,
    down_bytes: u64,
    /// Lifetime counters surfaced in [`ShardStatus`].
    kills: u64,
    lease_expiries: u64,
    respawns: u64,
    ckpt_fallbacks: u64,
    cold_starts: u64,
    max_blackout_ns: u64,
    retired: IncarnationTotals,
    /// Encoded flight journals of retired incarnations.
    journals: Vec<Vec<u8>>,
    /// Merged pulse plane of retired incarnations (latency histograms
    /// and surviving exemplars ride across respawns like the counters).
    retired_pulse: PulseSnapshot,
}

/// A point-in-time status row for one shard (`scapcat --shards`'s
/// `scap_shard_*` gauges and the soak experiment's per-shard figure).
#[derive(Debug, Clone)]
pub struct ShardStatus {
    /// Shard index.
    pub shard: usize,
    /// Lifecycle state.
    pub state: ShardState,
    /// Lease age at the time of the snapshot.
    pub lease_age_ns: u64,
    /// Packets offered to this partition so far.
    pub offered_pkts: u64,
    /// Wire bytes offered to this partition so far.
    pub offered_bytes: u64,
    /// Streams currently tracked by the live kernel (0 while down).
    pub tracked_streams: u64,
    /// Times this shard was killed (crash or lease takedown).
    pub kills: u64,
    /// Lease-deadline takedowns among those kills.
    pub lease_expiries: u64,
    /// Successful respawns.
    pub respawns: u64,
    /// Respawns that fell back to the previous checkpoint image.
    pub ckpt_fallbacks: u64,
    /// Respawns that cold-started (no usable checkpoint).
    pub cold_starts: u64,
    /// Packets dropped while this partition was down.
    pub down_pkts: u64,
    /// Wire bytes dropped while this partition was down.
    pub down_bytes: u64,
    /// Longest blackout endured so far.
    pub max_blackout_ns: u64,
    /// Failures currently inside the breaker window.
    pub breaker_failures: u32,
}

/// Fleet-wide aggregated statistics (conservation inputs included).
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetStats {
    /// Packets offered to the fleet.
    pub wire_packets: u64,
    /// Wire bytes offered to the fleet.
    pub wire_bytes: u64,
    /// Σ delivered packets over every incarnation of every shard.
    pub delivered_packets: u64,
    /// Σ overload-dropped packets over every incarnation.
    pub dropped_packets: u64,
    /// Σ deliberately discarded packets over every incarnation.
    pub discarded_packets: u64,
    /// Σ payload bytes delivered.
    pub delivered_bytes: u64,
    /// Σ wire bytes accepted by shard kernels.
    pub shard_wire_bytes: u64,
    /// Σ overload-dropped bytes.
    pub dropped_bytes: u64,
    /// Σ deliberately discarded bytes.
    pub discarded_bytes: u64,
    /// Packets dropped while their partition was down.
    pub shard_down_packets: u64,
    /// Wire bytes dropped while their partition was down.
    pub shard_down_bytes: u64,
    /// Σ streams created.
    pub streams_created: u64,
    /// Σ blackout resume-gap bytes across all restores.
    pub resume_gap_bytes: u64,
    /// Σ streams restored from checkpoints.
    pub resumed_streams: u64,
    /// Σ checkpoints written.
    pub checkpoints_written: u64,
    /// Σ non-empty fast-path burst pulls (0 under classic dispatch).
    pub fastpath_bursts: u64,
    /// Total shard kills (crashes + lease takedowns).
    pub kills: u64,
    /// Lease-deadline takedowns among those.
    pub lease_expiries: u64,
    /// Successful respawns.
    pub respawns: u64,
    /// Respawns served from the previous image after corruption.
    pub ckpt_fallbacks: u64,
    /// Respawns with no usable checkpoint at all.
    pub cold_starts: u64,
    /// Shards parked by their circuit breaker.
    pub parked: u64,
    /// Longest blackout endured by any shard.
    pub max_blackout_ns: u64,
}

impl FleetStats {
    /// The fleet-wide packet conservation identity:
    /// `wire == Σ(delivered + dropped + discarded) + shard_down`.
    pub fn packets_conserved(&self) -> bool {
        self.wire_packets
            == self.delivered_packets
                + self.dropped_packets
                + self.discarded_packets
                + self.shard_down_packets
    }

    /// The fleet-wide wire-byte conservation identity: every offered
    /// byte was either accepted by some shard incarnation or dropped
    /// while its partition was down.
    pub fn bytes_conserved(&self) -> bool {
        self.wire_bytes == self.shard_wire_bytes + self.shard_down_bytes
    }
}

/// A supervised multi-shard capture fleet. See the module docs for the
/// model; see [`ShardFleet::offer`] for the per-packet contract.
pub struct ShardFleet {
    cfg: FleetConfig,
    map: ShardMap,
    backoff: Backoff,
    slots: Vec<ShardSlot>,
    /// The supervisor's own flight journal: spawn/kill/respawn/park
    /// lifecycle plus one aggregated `drop/shard/shard_down` event per
    /// blackout.
    flight: FlightRecorder,
    wire_packets: u64,
    wire_bytes: u64,
    now_ns: u64,
    finished: bool,
}

impl ShardFleet {
    /// Spawn a fleet: N cold shard kernels, leases anchored at t=0.
    pub fn new(cfg: FleetConfig) -> Self {
        let nshards = cfg.nshards.max(1);
        let seed = cfg.faults.as_ref().map_or(cfg.partition_seed, |f| f.seed);
        let map = ShardMap::new(nshards, cfg.partition_seed);
        let backoff = Backoff::new(cfg.backoff_base_ns, cfg.backoff_cap_ns, seed);
        let mut flight = FlightRecorder::new(1, cfg.flight_ring_cap);
        let mut slots = Vec::with_capacity(nshards);
        for shard in 0..nshards {
            let faults = cfg
                .faults
                .as_ref()
                .map_or_else(Vec::new, |f| f.shard_faults(shard));
            // Shard kernels keep their own fault layers quiet: the fleet
            // schedule drives failure, and per-kernel layers would make
            // incarnation journals depend on respawn timing.
            let kernel = ScapKernel::new(cfg.shard.clone());
            flight.emit(
                0,
                FlightEvent::new(FlightKind::ShardSpawned, FlightLayer::Shard, 0)
                    .with_vals(shard as u64, 1),
            );
            slots.push(ShardSlot {
                kernel: Some(kernel),
                state: ShardState::Up,
                lease: Lease::new(cfg.lease_timeout_ns, 0),
                breaker: CircuitBreaker::new(cfg.breaker_threshold, cfg.breaker_window_ns),
                faults,
                next_fault: 0,
                offered_pkts: 0,
                offered_bytes: 0,
                pending_burst: 0,
                stall_until_ns: 0,
                ckpt_latest: None,
                ckpt_previous: None,
                ckpt_seq: 0,
                last_ckpt_at_pkts: 0,
                respawn_at_ns: 0,
                blackout_started_ns: 0,
                cur_down_pkts: 0,
                cur_down_bytes: 0,
                down_pkts: 0,
                down_bytes: 0,
                kills: 0,
                lease_expiries: 0,
                respawns: 0,
                ckpt_fallbacks: 0,
                cold_starts: 0,
                max_blackout_ns: 0,
                retired: IncarnationTotals::default(),
                journals: Vec::new(),
                retired_pulse: PulseSnapshot::default(),
            });
        }
        ShardFleet {
            cfg,
            map,
            backoff,
            slots,
            flight,
            wire_packets: 0,
            wire_bytes: 0,
            now_ns: 0,
            finished: false,
        }
    }

    /// Number of shards.
    pub fn nshards(&self) -> usize {
        self.slots.len()
    }

    /// The shard owning a flow key (both directions map identically).
    pub fn shard_of(&self, key: &scap_wire::FlowKey) -> usize {
        self.map.shard_of(key)
    }

    /// Offer one packet to the fleet, dropping completed-stream events
    /// on the floor. See [`ShardFleet::offer_with`].
    pub fn offer(&mut self, pkt: &Packet) {
        self.offer_with(pkt, &mut |_, _| {});
    }

    /// Offer one packet to the fleet. The packet is routed to its
    /// partition's shard; a live shard accepts it (beating its lease),
    /// a down or wedged shard's packet is dropped and attributed to
    /// `drop/shard/shard_down`. Kernel events produced while driving
    /// the shard are handed to `sink(shard, &event)` before their data
    /// chunks are recycled.
    pub fn offer_with(&mut self, pkt: &Packet, sink: &mut dyn FnMut(usize, &Event)) {
        let now = pkt.ts_ns.max(self.now_ns);
        self.tick(now);
        // Parsed once, here: the key picks the shard and the shard's NIC
        // stage takes the parsed view. Non-IP / unparseable frames have
        // no flow key; they ride on shard 0 so every frame has exactly
        // one deterministic owner.
        let parsed = parse_frame(&pkt.frame).ok();
        let shard = parsed
            .as_ref()
            .and_then(|p| p.key)
            .map_or(0, |k| self.map.shard_of(&k));
        let bytes = pkt.frame.len() as u64;
        self.wire_packets += 1;
        self.wire_bytes += bytes;
        {
            let slot = &mut self.slots[shard];
            slot.offered_pkts += 1;
            slot.offered_bytes += bytes;
        }

        // Fire scheduled faults at their shard-local ordinal; the
        // triggering packet sees the post-fault shard.
        loop {
            let slot = &self.slots[shard];
            let due = slot
                .faults
                .get(slot.next_fault)
                .filter(|f| f.at_packet <= slot.offered_pkts)
                .copied();
            let Some(f) = due else { break };
            self.slots[shard].next_fault += 1;
            self.apply_fault(shard, f.kind, now);
        }

        let slot = &mut self.slots[shard];
        let stalled = slot.stall_until_ns > now;
        if slot.state != ShardState::Up || stalled {
            // Partition down (or wedged): account the loss now, journal
            // it in aggregate when the blackout closes.
            slot.lease.offered();
            slot.cur_down_pkts += 1;
            slot.cur_down_bytes += bytes;
            slot.down_pkts += 1;
            slot.down_bytes += bytes;
            return;
        }
        let kernel = slot.kernel.as_mut().expect("up shard has a kernel");
        kernel.nic_receive_parsed(pkt, parsed.as_ref());
        slot.lease.beat(now);
        slot.pending_burst += 1;
        // A checkpoint is taken of a drained kernel, so its boundary
        // closes the burst too — once, also when both boundaries fall
        // on this packet.
        let ckpt_due =
            slot.offered_pkts - slot.last_ckpt_at_pkts >= self.cfg.checkpoint_interval_pkts;
        if ckpt_due || slot.pending_burst >= self.cfg.drive_burst {
            self.drive(shard, now, sink);
        }
        if ckpt_due {
            self.checkpoint(shard, now);
        }
    }

    /// Advance supervisor time: expire leases (taking wedged shards
    /// down) and respawn shards whose backoff has elapsed.
    pub fn tick(&mut self, now_ns: u64) {
        self.now_ns = self.now_ns.max(now_ns);
        let now = self.now_ns;
        for shard in 0..self.slots.len() {
            let slot = &mut self.slots[shard];
            match slot.state {
                ShardState::Up => {
                    if slot.stall_until_ns > 0 && slot.lease.expired(now) {
                        // Deadline detection: the wedged shard stopped
                        // beating while offers piled up.
                        slot.lease_expiries += 1;
                        let age = slot.lease.age(now);
                        self.flight.emit(
                            0,
                            FlightEvent::new(
                                FlightKind::ShardLeaseExpired,
                                FlightLayer::Shard,
                                now,
                            )
                            .with_vals(shard as u64, age),
                        );
                        self.kill(shard, now);
                    }
                }
                ShardState::Respawning => {
                    if now >= self.slots[shard].respawn_at_ns {
                        self.respawn(shard, now);
                    }
                }
                ShardState::Parked => {}
            }
        }
    }

    /// Drain one shard's poll/timer/event backlog into `sink`.
    fn drive(&mut self, shard: usize, now: u64, sink: &mut dyn FnMut(usize, &Event)) {
        let slot = &mut self.slots[shard];
        let Some(kernel) = slot.kernel.as_mut() else {
            return;
        };
        kernel.service(now, |k, ev| {
            sink(shard, &ev);
            k.release_event(ev);
        });
        slot.pending_burst = 0;
        slot.lease.beat(now);
    }

    /// Write (and rotate) one periodic checkpoint for a live shard.
    fn checkpoint(&mut self, shard: usize, now: u64) {
        let slot = &mut self.slots[shard];
        let Some(kernel) = slot.kernel.as_mut() else {
            return;
        };
        slot.ckpt_seq += 1;
        // The new image is written into the allocation of the one being
        // retired; `latest` moves down to `previous` untouched.
        let mut image = slot.ckpt_previous.take().unwrap_or_default();
        kernel.checkpoint_into(now, slot.ckpt_seq, &mut image);
        slot.ckpt_previous = slot.ckpt_latest.replace(image);
        slot.last_ckpt_at_pkts = slot.offered_pkts;
    }

    fn apply_fault(&mut self, shard: usize, kind: ShardFaultKind, now: u64) {
        match kind {
            ShardFaultKind::Kill => {
                if self.slots[shard].state == ShardState::Up {
                    self.kill(shard, now);
                }
            }
            ShardFaultKind::StallHeartbeat(ns) => {
                let slot = &mut self.slots[shard];
                if slot.state == ShardState::Up && slot.stall_until_ns <= now {
                    slot.stall_until_ns = now.saturating_add(ns);
                    // The stall opens a blackout window even though the
                    // kernel object survives: its partition stops making
                    // progress right now.
                    slot.blackout_started_ns = now;
                }
            }
            ShardFaultKind::CorruptCheckpoint => {
                let slot = &mut self.slots[shard];
                if let Some(img) = slot.ckpt_latest.as_mut() {
                    // Flip bytes mid-image: the framing survives, the
                    // CRC check on decode does not.
                    let mid = img.len() / 2;
                    for b in img.iter_mut().skip(mid).take(8) {
                        *b ^= 0xFF;
                    }
                }
            }
        }
    }

    /// Take a shard down: post-mortem the kernel (so every accepted
    /// packet is classified and the incarnation's own conservation
    /// identity holds), harvest its statistics and journal, and either
    /// schedule a respawn or park the shard if the breaker trips.
    /// Post-mortem events are *not* delivered to any sink — a crashed
    /// shard's unflushed events are lost, exactly as in a real crash —
    /// but they stay classified in the incarnation's counters.
    fn kill(&mut self, shard: usize, now: u64) {
        let slot = &mut self.slots[shard];
        let Some(mut kernel) = slot.kernel.take() else {
            return;
        };
        kernel.finish(now);
        for core in 0..kernel.ncores() {
            while let Some(ev) = kernel.next_event(core) {
                kernel.release_event(ev);
            }
        }
        slot.retired.absorb(&kernel);
        slot.journals.push(kernel.flight().encode());
        slot.retired_pulse.merge(&kernel.pulse_snapshot());
        slot.kills += 1;
        if slot.stall_until_ns <= now {
            // Clean crash: the blackout starts now. (A stall-induced
            // takedown keeps its earlier stall-begin anchor.)
            slot.blackout_started_ns = now;
        }
        slot.stall_until_ns = 0;
        let tripped = slot.breaker.record_failure(now);
        if tripped {
            slot.state = ShardState::Parked;
            let fails = u64::from(slot.breaker.failures_in_window());
            self.flight.emit(
                0,
                FlightEvent::new(FlightKind::BreakerTripped, FlightLayer::Shard, now)
                    .with_vals(shard as u64, fails),
            );
            self.flight.emit(
                0,
                FlightEvent::new(FlightKind::ShardParked, FlightLayer::Shard, now)
                    .with_vals(shard as u64, fails),
            );
        } else {
            slot.state = ShardState::Respawning;
            let attempt = slot.breaker.failures_in_window().saturating_sub(1);
            let delay = self.backoff.delay_ns(attempt, shard as u64);
            slot.respawn_at_ns = now.saturating_add(delay);
            self.flight.emit(
                0,
                FlightEvent::new(FlightKind::ShardKilled, FlightLayer::Shard, now)
                    .with_vals(shard as u64, delay),
            );
        }
    }

    /// Close the current blackout window: journal its down-drops as one
    /// aggregated `drop/shard/shard_down` event (packet and byte exact).
    fn close_blackout(&mut self, shard: usize, now: u64) -> u64 {
        let slot = &mut self.slots[shard];
        let blackout = now.saturating_sub(slot.blackout_started_ns);
        slot.max_blackout_ns = slot.max_blackout_ns.max(blackout);
        if slot.cur_down_pkts > 0 {
            let (p, b) = (slot.cur_down_pkts, slot.cur_down_bytes);
            slot.cur_down_pkts = 0;
            slot.cur_down_bytes = 0;
            self.flight.emit(
                0,
                FlightEvent::new(FlightKind::Drop, FlightLayer::Shard, now)
                    .with_reason(DropReason::ShardDown)
                    .with_uid(shard as u64)
                    .with_vals(p, b),
            );
        }
        blackout
    }

    /// Respawn a shard from its newest decodable checkpoint, falling
    /// back to the previous image on corruption and cold-starting when
    /// no image survives.
    fn respawn(&mut self, shard: usize, now: u64) {
        let mut fallback = false;
        let mut cold = false;
        let had_latest = self.slots[shard].ckpt_latest.is_some();
        let mut kernel = match self.slots[shard]
            .ckpt_latest
            .as_deref()
            .map(CheckpointImage::decode)
        {
            Some(Ok(img)) => ScapKernel::from_image(img, None).ok(),
            _ => None,
        };
        if kernel.is_none() {
            if had_latest {
                let has_prev = self.slots[shard].ckpt_previous.is_some();
                self.flight.emit(
                    0,
                    FlightEvent::new(FlightKind::ShardCheckpointCorrupt, FlightLayer::Shard, now)
                        .with_vals(shard as u64, u64::from(has_prev)),
                );
            }
            kernel = match self.slots[shard]
                .ckpt_previous
                .as_deref()
                .map(CheckpointImage::decode)
            {
                Some(Ok(img)) => {
                    fallback = true;
                    ScapKernel::from_image(img, None).ok()
                }
                _ => None,
            };
        }
        let kernel = kernel.unwrap_or_else(|| {
            cold = true;
            ScapKernel::new(self.cfg.shard.clone())
        });
        let blackout = self.close_blackout(shard, now);
        let slot = &mut self.slots[shard];
        slot.kernel = Some(kernel);
        slot.state = ShardState::Up;
        slot.lease = Lease::new(self.cfg.lease_timeout_ns, now);
        slot.pending_burst = 0;
        slot.respawns += 1;
        slot.ckpt_fallbacks += u64::from(fallback);
        slot.cold_starts += u64::from(cold);
        if fallback {
            // The corrupt image is useless for any later respawn: drop
            // it so the next incident restarts from the good lineage.
            slot.ckpt_latest = slot.ckpt_previous.take();
        }
        self.flight.emit(
            0,
            FlightEvent::new(FlightKind::ShardRespawned, FlightLayer::Shard, now)
                .with_vals(shard as u64, blackout),
        );
    }

    /// End of capture: respawn-or-park pending shards' accounting, then
    /// finish every live kernel and harvest its final statistics.
    /// Idempotent; call before reading [`ShardFleet::fleet_stats`].
    pub fn finish_with(&mut self, now_ns: u64, sink: &mut dyn FnMut(usize, &Event)) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.now_ns = self.now_ns.max(now_ns);
        let now = self.now_ns;
        for shard in 0..self.slots.len() {
            let slot = &mut self.slots[shard];
            match slot.state {
                ShardState::Up => {
                    if slot.stall_until_ns > now {
                        // The capture ends while the shard is wedged:
                        // close its stall blackout first, then let the
                        // surviving kernel account its backlog.
                        slot.stall_until_ns = 0;
                        self.close_blackout(shard, now);
                    }
                    self.drive(shard, now, sink);
                    let slot = &mut self.slots[shard];
                    if let Some(kernel) = slot.kernel.as_mut() {
                        kernel.finish(now);
                    }
                    self.drive(shard, now, sink);
                    let slot = &mut self.slots[shard];
                    if let Some(kernel) = slot.kernel.take() {
                        slot.retired.absorb(&kernel);
                        slot.journals.push(kernel.flight().encode());
                        slot.retired_pulse.merge(&kernel.pulse_snapshot());
                    }
                }
                ShardState::Respawning | ShardState::Parked => {
                    // The partition stayed dark to the end; its loss is
                    // already counted, journal the tail window.
                    self.close_blackout(shard, now);
                }
            }
        }
    }

    /// [`ShardFleet::finish_with`] without an event sink.
    pub fn finish(&mut self, now_ns: u64) {
        self.finish_with(now_ns, &mut |_, _| {});
    }

    /// Aggregated fleet statistics. Exact only after
    /// [`ShardFleet::finish`] (live kernels are snapshotted mid-run).
    pub fn fleet_stats(&self) -> FleetStats {
        let mut f = FleetStats {
            wire_packets: self.wire_packets,
            wire_bytes: self.wire_bytes,
            ..FleetStats::default()
        };
        for slot in &self.slots {
            let mut t = slot.retired;
            if let Some(kernel) = slot.kernel.as_ref() {
                t.absorb(kernel);
            }
            f.delivered_packets += t.delivered_packets;
            f.dropped_packets += t.dropped_packets;
            f.discarded_packets += t.discarded_packets;
            f.delivered_bytes += t.delivered_bytes;
            f.shard_wire_bytes += t.wire_bytes;
            f.dropped_bytes += t.dropped_bytes;
            f.discarded_bytes += t.discarded_bytes;
            f.streams_created += t.streams_created;
            f.resume_gap_bytes += t.resume_gap_bytes;
            f.resumed_streams += t.resumed_streams;
            f.checkpoints_written += t.checkpoints_written;
            f.fastpath_bursts += t.fastpath_bursts;
            f.shard_down_packets += slot.down_pkts;
            f.shard_down_bytes += slot.down_bytes;
            f.kills += slot.kills;
            f.lease_expiries += slot.lease_expiries;
            f.respawns += slot.respawns;
            f.ckpt_fallbacks += slot.ckpt_fallbacks;
            f.cold_starts += slot.cold_starts;
            f.parked += u64::from(slot.state == ShardState::Parked);
            f.max_blackout_ns = f.max_blackout_ns.max(slot.max_blackout_ns);
        }
        f
    }

    /// One shard's merged pulse plane: retired incarnations plus the
    /// live kernel (when up). Exemplars are re-filtered against the
    /// merged tail, so the invariant `delay ≥ threshold` survives the
    /// respawn history.
    pub fn shard_pulse(&self, shard: usize) -> PulseSnapshot {
        let slot = &self.slots[shard];
        let mut p = slot.retired_pulse.clone();
        if let Some(kernel) = slot.kernel.as_ref() {
            p.merge(&kernel.pulse_snapshot());
        }
        p
    }

    /// The fleet-wide pulse plane: every shard's histograms merged in
    /// shard order (merge is commutative and associative, so the order
    /// is presentational only).
    pub fn fleet_pulse(&self) -> PulseSnapshot {
        let mut p = PulseSnapshot::default();
        for shard in 0..self.slots.len() {
            p.merge(&self.shard_pulse(shard));
        }
        p
    }

    /// Per-shard status rows.
    pub fn status(&self) -> Vec<ShardStatus> {
        self.slots
            .iter()
            .enumerate()
            .map(|(shard, slot)| ShardStatus {
                shard,
                state: slot.state,
                lease_age_ns: slot.lease.age(self.now_ns),
                offered_pkts: slot.offered_pkts,
                offered_bytes: slot.offered_bytes,
                tracked_streams: slot.kernel.as_ref().map_or(0, |k| {
                    (0..k.ncores()).map(|c| k.tracked_streams(c) as u64).sum()
                }),
                kills: slot.kills,
                lease_expiries: slot.lease_expiries,
                respawns: slot.respawns,
                ckpt_fallbacks: slot.ckpt_fallbacks,
                cold_starts: slot.cold_starts,
                down_pkts: slot.down_pkts,
                down_bytes: slot.down_bytes,
                max_blackout_ns: slot.max_blackout_ns,
                breaker_failures: slot.breaker.failures_in_window(),
            })
            .collect()
    }

    /// Every flight journal of the fleet: one encoded journal per
    /// retired kernel incarnation (in shard order, then age order),
    /// plus the supervisor's own journal last. After
    /// [`ShardFleet::finish`] this is the complete loss record: decoded
    /// and aggregated, the `drop/shard/shard_down` bytes equal
    /// [`FleetStats::shard_down_bytes`] exactly.
    pub fn journals(&self) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for slot in &self.slots {
            out.extend(slot.journals.iter().cloned());
            if let Some(kernel) = slot.kernel.as_ref() {
                out.push(kernel.flight().encode());
            }
        }
        out.push(self.flight.encode());
        out
    }

    /// The supervisor's own flight recorder (lifecycle + blackout
    /// drops).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Current virtual time of the supervisor.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scap_trace::{CampusMix, CampusMixConfig};

    fn small_cfg(nshards: usize, faults: Option<FaultPlan>) -> FleetConfig {
        let shard = ScapConfig {
            memory_bytes: 32 << 20,
            cores: 2,
            inactivity_timeout_ns: u64::MAX / 2,
            ..ScapConfig::default()
        };
        FleetConfig {
            nshards,
            shard,
            checkpoint_interval_pkts: 256,
            faults,
            ..FleetConfig::default()
        }
    }

    fn run_fleet(cfg: FleetConfig, trace_bytes: u64) -> ShardFleet {
        let mut fleet = ShardFleet::new(cfg);
        let mut last = 0;
        for p in CampusMix::new(CampusMixConfig::sized(7, trace_bytes)) {
            last = p.ts_ns;
            fleet.offer(&p);
        }
        fleet.finish(last + 1);
        fleet
    }

    #[test]
    fn quiet_fleet_conserves_exactly() {
        let fleet = run_fleet(small_cfg(4, None), 2 << 20);
        let f = fleet.fleet_stats();
        assert!(f.wire_packets > 0);
        assert_eq!(f.kills, 0);
        assert_eq!(f.shard_down_packets, 0);
        assert!(f.packets_conserved(), "{f:?}");
        assert!(f.bytes_conserved(), "{f:?}");
    }

    #[test]
    fn storm_fleet_respawns_and_conserves() {
        let fleet = run_fleet(small_cfg(4, Some(FaultPlan::shard_storm(11, 4))), 4 << 20);
        let f = fleet.fleet_stats();
        assert!(f.kills > 0, "the storm must kill at least one shard");
        assert!(
            f.respawns + f.parked > 0,
            "every kill must resolve to a respawn or a park"
        );
        assert!(f.packets_conserved(), "{f:?}");
        assert!(f.bytes_conserved(), "{f:?}");
        // Journal reconciliation: ShardDown drops in the supervisor
        // journal must equal the counters byte-exactly.
        let mut jp = 0u64;
        let mut jb = 0u64;
        for j in fleet.journals() {
            let journal = scap_flight::decode_journal(&j).expect("journal decodes");
            for ev in &journal.events {
                if ev.kind == FlightKind::Drop && ev.reason == DropReason::ShardDown {
                    jp += ev.a;
                    jb += ev.b;
                }
            }
        }
        assert_eq!(jp, f.shard_down_packets, "journal packet attribution");
        assert_eq!(jb, f.shard_down_bytes, "journal byte attribution");
    }

    #[test]
    fn checkpoint_corruption_falls_back_to_previous_image() {
        // Images land every 256 packets. At 700 the pair is the first
        // two allocations; at 1300 the buffers have rotated three times,
        // so the image corrupted and the one fallen back to both sit in
        // recycled allocations. A kill 20 packets behind the corruption
        // finds the corrupted image and falls back; a kill 300 packets
        // behind it finds the next periodic image, which the surviving
        // kernel built from its own copy of the last one and not from
        // the stored bytes the fault flipped.
        for (corrupt_at, kill_after, fallbacks) in
            [(700, 20, 1), (1300, 20, 1), (700, 300, 0), (1300, 300, 0)]
        {
            let faults = FaultPlan {
                seed: 3,
                shards: vec![
                    ShardFault {
                        shard: 0,
                        at_packet: corrupt_at,
                        kind: ShardFaultKind::CorruptCheckpoint,
                    },
                    ShardFault {
                        shard: 0,
                        at_packet: corrupt_at + kill_after,
                        kind: ShardFaultKind::Kill,
                    },
                    // A later kill finds a clean lineage again.
                    ShardFault {
                        shard: 0,
                        at_packet: corrupt_at + 2_000,
                        kind: ShardFaultKind::Kill,
                    },
                ],
                ..Default::default()
            };
            let mut fleet = ShardFleet::new(small_cfg(1, Some(faults)));
            let mut last = 0;
            let mut healed = false;
            for p in CampusMix::new(CampusMixConfig::sized(7, 2 << 20)) {
                last = p.ts_ns;
                fleet.offer(&p);
                // The first image written behind the corruption, by the
                // surviving kernel or by the one respawned from the
                // previous image.
                let slot = &fleet.slots[0];
                if !healed && slot.last_ckpt_at_pkts > corrupt_at {
                    let latest = slot.ckpt_latest.as_deref().expect("an image was written");
                    let img = CheckpointImage::decode(latest)
                        .expect("the image after a corrupted one decodes clean");
                    assert!(img.to_bytes() == latest);
                    healed = true;
                }
            }
            fleet.finish(last + 1);
            assert!(healed, "no image behind the corruption at {corrupt_at}");
            let f = fleet.fleet_stats();
            assert_eq!(f.kills, 2, "{f:?}");
            assert_eq!(f.respawns, 2, "{f:?}");
            assert_eq!(
                (f.ckpt_fallbacks, f.cold_starts),
                (fallbacks, 0),
                "latest image corrupted at {corrupt_at}, kill {kill_after} packets on: \
                 a fallback to the previous image only if the kill finds the \
                 corrupted one, never a cold start: {f:?}"
            );
            assert!(f.resumed_streams > 0, "{f:?}");
            assert!(f.packets_conserved(), "{f:?}");
            assert!(f.bytes_conserved(), "{f:?}");
        }
    }

    #[test]
    fn breaker_parks_a_flapping_shard() {
        let faults = FaultPlan {
            seed: 5,
            shards: (0..6)
                .map(|i| ShardFault {
                    shard: 0,
                    at_packet: 200 + i * 10,
                    kind: ShardFaultKind::Kill,
                })
                .collect(),
            ..Default::default()
        };
        let mut cfg = small_cfg(2, Some(faults));
        cfg.breaker_threshold = 3;
        // Instant respawns so kills can cluster inside the window.
        cfg.backoff_base_ns = 1;
        cfg.backoff_cap_ns = 2;
        let fleet = run_fleet(cfg, 2 << 20);
        let f = fleet.fleet_stats();
        assert_eq!(f.parked, 1, "{f:?}");
        assert!(f.shard_down_packets > 0);
        assert!(f.packets_conserved(), "{f:?}");
        assert!(f.bytes_conserved(), "{f:?}");
        let status = fleet.status();
        assert_eq!(status[0].state, ShardState::Parked);
        assert_eq!(status[1].state, ShardState::Up);
    }
}
