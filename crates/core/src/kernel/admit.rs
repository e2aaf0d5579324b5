//! The admission stage: the emulated NIC with its RX rings, and the two
//! ends of a ring — frames going in (`receive`: RSS, FDIR and the
//! offload table decide fate and queue, before any CPU is spent) and
//! coming out (`pop` one, or `lend` the ring for a burst, behind the
//! injected ring stalls). A frame is parsed once, on the way in; the ring
//! carries what the parse found.

use super::ledger::{At, Ledger};
use super::probe::FlowProbe;
use crate::config::ScapConfig;
use scap_fastpath::{BurstStats, HashedKey};
use scap_faults::RingInjector;
use scap_flight::{DropReason, FlightEvent, FlightKind, FlightLayer};
use scap_nic::{FdirFilter, Nic, NicVerdict};
use scap_telemetry::pulse::cost;
use scap_telemetry::{cycles_to_ns, Metric, PulseStage};
use scap_trace::Packet;
use scap_wire::{FlowKey, FrameMeta, ParsedPacket};
use std::collections::VecDeque;

/// What an RX ring holds: a frame and what admission parsed out of it.
pub(super) struct Admitted {
    pub pkt: Packet,
    pub meta: FrameMeta,
}

impl Admitted {
    /// The parse, over the frame it was made from.
    #[inline]
    pub(super) fn parsed(&self) -> ParsedPacket<'_> {
        self.meta.attach(&self.pkt.frame)
    }
}

pub(crate) struct NicStage {
    /// Lent to the hardware-cutoff stage for filter management.
    pub(super) nic: Nic<Admitted>,
    /// RX ring stall injection (None without a fault plan).
    pub(super) ring_faults: Option<RingInjector>,
    /// `finish()` drains rings unconditionally, stall windows included.
    pub(super) drain_mode: bool,
    /// Poll-mode burst-fill statistics (fast path only).
    pub(super) fp_stats: BurstStats,
    /// The fast path's hashed-key buffer, taken for the length of a
    /// burst.
    pub(super) hashed: Vec<Option<HashedKey>>,
}

impl NicStage {
    pub(super) fn new(cfg: &ScapConfig, ncores: usize) -> Self {
        let mut nic = Nic::new(ncores, cfg.rx_ring_slots);
        if cfg.use_offload {
            // The million-entry table is only allocated when the offload
            // stage is on; disabled captures keep the power-on stub.
            nic.set_offload_capacity(cfg.offload_capacity);
        }
        if let Some(plan) = &cfg.faults {
            nic.fdir_mut().set_fault_injector(plan.fdir_injector());
            nic.offload_mut().set_fault_injector(plan.fdir_injector());
        }
        NicStage {
            nic,
            ring_faults: cfg.faults.as_ref().map(|plan| plan.ring_injector()),
            drain_mode: false,
            fp_stats: BurstStats::default(),
            hashed: Vec::new(),
        }
    }

    /// NIC admission of one frame (`parsed`: `None` where it would not
    /// parse). Books the wire counters, the verdict's span and — for a
    /// frame the hardware resolved — its conservation exit.
    #[inline]
    pub(super) fn receive(
        &mut self,
        cfg: &ScapConfig,
        flows: &FlowProbe,
        ledger: &mut Ledger,
        pkt: &Packet,
        parsed: Option<&ParsedPacket<'_>>,
    ) -> NicVerdict {
        let len = pkt.len() as u64;
        ledger.tele.inc(0, Metric::WirePackets);
        ledger.tele.add(0, Metric::WireBytes, len);
        let at = At::new(0, pkt.ts_ns, 0);
        let Some(parsed) = parsed else {
            ledger.discarded(at, FlightLayer::Nic, DropReason::ParseError, 1, 0);
            return NicVerdict::DroppedByFilter;
        };
        // Dynamic load balancing (§2.4): a brand-new stream whose RSS
        // target core is overloaded gets steered — both directions — to
        // the least-loaded core before it is ever tracked.
        if cfg.use_fdir_balancing {
            if let (Some(key), Some(meta)) = (parsed.key, parsed.tcp) {
                if meta.flags.is_syn_only() {
                    self.maybe_rebalance(cfg, flows, ledger, &key);
                }
            }
        }
        let admitted = Admitted {
            pkt: pkt.clone(),
            meta: parsed.meta(),
        };
        let verdict = self.nic.receive(parsed, admitted);
        // Pulse: deterministic admission cost, plus the offload-stage
        // consult when that stage is enabled.
        ledger.pulse.record(
            PulseStage::NicVerdict,
            cycles_to_ns(cost::nic_verdict_cycles(len)),
        );
        if cfg.use_offload {
            let hit = matches!(
                verdict,
                NicVerdict::DroppedByOffload
                    | NicVerdict::SampledByOffload
                    | NicVerdict::BypassedByOffload
            );
            ledger
                .pulse
                .record(PulseStage::Offload, cycles_to_ns(cost::offload_cycles(hit)));
        }
        match verdict {
            // Subzero copy: never reaches main memory.
            NicVerdict::DroppedByFilter => {
                ledger.discarded(at, FlightLayer::Nic, DropReason::FdirFilter, 1, len)
            }
            // Programmable offload stage: a per-flow `Drop` rule cut
            // the frame off before the memory budget (subzero copy).
            NicVerdict::DroppedByOffload => {
                ledger.discarded(at, FlightLayer::Offload, DropReason::OffloadDrop, 1, len)
            }
            // Deterministic 1-in-N sampling: the non-kept frames are
            // deliberate discards, same funnel as cutoff losses.
            NicVerdict::SampledByOffload => {
                ledger.discarded(at, FlightLayer::Offload, DropReason::OffloadSample, 1, len)
            }
            // Shunted past the kernel straight to delivery accounting:
            // the stack never touches the frame but conservation still
            // must balance, so it counts as delivered here.
            NicVerdict::BypassedByOffload => ledger.delivered(0, 1, len),
            // The NIC layer mirrors this loss into its own registry
            // (merged in `telemetry_snapshot`), so only the flight
            // event is recorded here — no kernel-side counter bump.
            NicVerdict::DroppedRingFull(_) => {
                let full = FlightEvent::new(FlightKind::Drop, FlightLayer::Nic, at.now);
                ledger.journal(at, full.with_reason(DropReason::RingFull).with_vals(1, len))
            }
            _ => {}
        }
        verdict
    }

    /// Steer a new stream away from an overloaded core (§2.4).
    fn maybe_rebalance(
        &mut self,
        cfg: &ScapConfig,
        flows: &FlowProbe,
        ledger: &mut Ledger,
        key: &FlowKey,
    ) {
        let target = self.nic.rss_queue(key);
        let tracked = |c: usize| flows.cores[c].len();
        // One pass: total, the target's count, and the first coldest core.
        let ncores = flows.cores.len();
        let (mut total, mut coldest) = (0usize, 0usize);
        for c in 0..ncores {
            total += tracked(c);
            if tracked(c) < tracked(coldest) {
                coldest = c;
            }
        }
        if total < ncores * 8 {
            return; // too few streams for imbalance to mean anything
        }
        let avg = total as f64 / ncores as f64;
        if (tracked(target) as f64) <= avg * cfg.balance_threshold {
            return;
        }
        if coldest == target || self.nic.fdir().free() < 2 {
            return;
        }
        // Steer both directions so the whole connection lands on one
        // core (the same property the symmetric RSS seed provides).
        let _ = self.nic.fdir_install(FdirFilter::steer(*key, coldest));
        let _ = self
            .nic
            .fdir_install(FdirFilter::steer(key.reversed(), coldest));
        ledger.stats.fdir_ops += 2;
        ledger.stats.rebalanced_streams += 1;
    }

    /// An injected descriptor-ring stall: the DMA engine is wedged, so
    /// polls see an empty ring. Frames keep arriving and overflow the
    /// ring at the NIC; `finish()` drains regardless.
    #[inline]
    fn stalled(&mut self, now: u64) -> bool {
        !self.drain_mode
            && self
                .ring_faults
                .as_mut()
                .is_some_and(|inj| inj.stalled(now))
    }

    /// The next frame of a core's RX ring.
    #[inline]
    pub(super) fn pop(&mut self, core: usize, now: u64) -> Option<Admitted> {
        if self.stalled(now) {
            return None;
        }
        self.nic.queue_mut(core).pop()
    }

    /// A core's RX ring, lent out for one burst, and the number of frames
    /// at its front the burst takes (at most `burst`); `None` when the
    /// ring is stalled or empty. The caller drains those frames and hands
    /// the ring back through [`scap_nic::RxQueue::put_back`].
    pub(super) fn lend(
        &mut self,
        core: usize,
        now: u64,
        burst: usize,
    ) -> Option<(VecDeque<Admitted>, usize)> {
        if self.stalled(now) {
            return None;
        }
        let queue = self.nic.queue_mut(core);
        let n = queue.len().min(burst);
        self.fp_stats.record(n, burst);
        (n > 0).then(|| (queue.take(), n))
    }
}
