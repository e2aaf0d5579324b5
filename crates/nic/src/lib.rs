#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # scap-nic
//!
//! A simulated Intel-82599-class 10GbE NIC: the hardware features Scap
//! depends on, emulated faithfully enough that the kernel-side logic is
//! identical to what would drive the real card.
//!
//! * [`rss`] — Receive Side Scaling: the real Toeplitz hash over the
//!   packet 5-tuple, a 128-entry indirection table, and the symmetric-seed
//!   variant of Woo & Park so both directions of a TCP connection land on
//!   the same RX queue (§4.2 of the paper).
//! * [`fdir`] — Flow Director: up to 8 K perfect-match filters over the
//!   5-tuple plus the *flexible 2-byte tuple* (the paper matches the TCP
//!   data-offset/flags bytes so pure data/ACK packets are dropped in
//!   hardware while RST/FIN still reach the host, §5.5). Only aggregate
//!   match statistics are exposed — per-filter counters do not exist on
//!   the real card, which is why Scap estimates flow sizes from FIN/RST
//!   sequence numbers.
//! * [`queue`] — RX descriptor rings with finite capacity; a full ring
//!   drops packets exactly like exhausted descriptors on hardware.
//!
//! The [`Nic`] type composes the three: every incoming frame is checked
//! against FDIR first (hardware precedence), then RSS-dispatched.

pub mod fdir;
pub mod queue;
pub mod rss;

pub use fdir::{FdirAction, FdirError, FdirFilter, FdirTable, FlexMatch};
pub use queue::RxQueue;
pub use rss::{RssHasher, SYMMETRIC_RSS_KEY};
pub use scap_offload::{
    OffloadAction, OffloadError, OffloadRule, OffloadStats, OffloadTable, OffloadVerdict,
    DEFAULT_OFFLOAD_CAPACITY,
};

use scap_telemetry::{Metric, PlainRegistry};
use scap_wire::ParsedPacket;

/// What the NIC did with a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NicVerdict {
    /// An FDIR filter dropped the frame; it never touches host memory.
    DroppedByFilter,
    /// An FDIR filter steered the frame to this queue.
    SteeredToQueue(usize),
    /// RSS dispatched the frame to this queue.
    HashedToQueue(usize),
    /// The target ring was full; the frame was dropped at the NIC.
    DroppedRingFull(usize),
    /// An offload `Drop` rule dropped the frame (subzero copy).
    DroppedByOffload,
    /// An offload `Sample` rule dropped this non-kept 1-in-N frame.
    SampledByOffload,
    /// An offload `Bypass` rule shunted the frame: counted delivered at
    /// the NIC, never enqueued to a ring.
    BypassedByOffload,
}

impl NicVerdict {
    /// The queue the frame landed in, if it survived.
    pub fn queue(&self) -> Option<usize> {
        match self {
            NicVerdict::SteeredToQueue(q) | NicVerdict::HashedToQueue(q) => Some(*q),
            _ => None,
        }
    }
}

/// Aggregate NIC counters (mirrors what the real card exposes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NicStats {
    /// Frames received from the wire.
    pub rx_frames: u64,
    /// Bytes received from the wire.
    pub rx_bytes: u64,
    /// Frames dropped by FDIR filters (aggregate across all filters).
    pub fdir_dropped_frames: u64,
    /// Bytes dropped by FDIR filters.
    pub fdir_dropped_bytes: u64,
    /// Frames steered by FDIR to an explicit queue.
    pub fdir_steered_frames: u64,
    /// Frames dropped because a descriptor ring was full.
    pub ring_dropped_frames: u64,
    /// Bytes dropped because a descriptor ring was full.
    pub ring_dropped_bytes: u64,
    /// Frames delivered into descriptor rings.
    pub delivered_frames: u64,
    /// Bytes delivered into descriptor rings.
    pub delivered_bytes: u64,
    /// Frames dropped by offload `Drop` rules.
    pub offload_dropped_frames: u64,
    /// Bytes dropped by offload `Drop` rules.
    pub offload_dropped_bytes: u64,
    /// Frames dropped by offload `Sample` rules.
    pub offload_sampled_frames: u64,
    /// Bytes dropped by offload `Sample` rules.
    pub offload_sampled_bytes: u64,
    /// Frames shunted by offload `Bypass` rules (delivered at the NIC).
    pub offload_bypass_frames: u64,
    /// Bytes shunted by offload `Bypass` rules.
    pub offload_bypass_bytes: u64,
}

/// The simulated NIC.
///
/// `T` is the host-side handle stored in the descriptor rings: the
/// discrete-time simulation stores packet indices, the live driver stores
/// the packets themselves.
#[derive(Debug)]
pub struct Nic<T> {
    rss: RssHasher,
    fdir: FdirTable,
    offload: OffloadTable,
    queues: Vec<RxQueue<T>>,
    /// Telemetry: per-queue shards; table-wide FDIR ops land in shard 0.
    /// The only store of every frame count [`Nic::stats`] reports.
    tele: PlainRegistry,
    /// Bytes of the frames that left through a hardware exit, which have
    /// no registry cell (the frames themselves do).
    fdir_dropped_bytes: u64,
    offload_dropped_bytes: u64,
    offload_sampled_bytes: u64,
    offload_bypass_bytes: u64,
}

/// Seed for the offload table's symmetric flow hash (deterministic, like
/// the RSS key: the simulated hardware has no entropy source).
const OFFLOAD_HASH_SEED: u64 = 0x0FF1_0AD5_CA90_FF1C;

/// Rule capacity of the offload table a NIC powers on with. Deliberately
/// modest: the host sizes the table up (to [`DEFAULT_OFFLOAD_CAPACITY`]
/// or beyond) via [`Nic::set_offload_capacity`] only when the offload
/// stage is actually enabled, so captures that never use it don't pay
/// the million-entry allocation.
pub const BASELINE_OFFLOAD_RULES: usize = 4096;

impl<T> Nic<T> {
    /// Build a NIC with `nqueues` RX rings of `ring_capacity` descriptors,
    /// using the symmetric RSS key.
    pub fn new(nqueues: usize, ring_capacity: usize) -> Self {
        assert!(nqueues > 0, "a NIC needs at least one RX queue");
        Nic {
            rss: RssHasher::symmetric(nqueues),
            fdir: FdirTable::new(fdir::PERFECT_FILTER_CAPACITY),
            offload: OffloadTable::new(BASELINE_OFFLOAD_RULES, OFFLOAD_HASH_SEED),
            queues: (0..nqueues).map(|_| RxQueue::new(ring_capacity)).collect(),
            tele: PlainRegistry::new(nqueues),
            fdir_dropped_bytes: 0,
            offload_dropped_bytes: 0,
            offload_sampled_bytes: 0,
            offload_bypass_bytes: 0,
        }
    }

    /// Replace the offload table with one of a different rule capacity.
    /// Intended at bring-up, before any rules are installed (a capacity
    /// change re-programs the hardware table, discarding its contents).
    pub fn set_offload_capacity(&mut self, capacity: usize) {
        self.offload = OffloadTable::new(capacity, OFFLOAD_HASH_SEED);
    }

    /// The NIC's telemetry registry (one shard per RX queue). The kernel
    /// merges this into the capture-wide snapshot.
    pub fn telemetry(&self) -> &PlainRegistry {
        &self.tele
    }

    /// Number of RX queues.
    pub fn queue_count(&self) -> usize {
        self.queues.len()
    }

    /// Access a queue (the per-core driver side).
    pub fn queue_mut(&mut self, q: usize) -> &mut RxQueue<T> {
        &mut self.queues[q]
    }

    /// Access a queue read-only (fill-level monitoring).
    pub fn queue(&self, q: usize) -> &RxQueue<T> {
        &self.queues[q]
    }

    /// Access the FDIR table (the kernel module installs filters here).
    pub fn fdir_mut(&mut self) -> &mut FdirTable {
        &mut self.fdir
    }

    /// Access the FDIR table read-only.
    pub fn fdir(&self) -> &FdirTable {
        &self.fdir
    }

    /// Access the flow-offload table (rule install/evict).
    pub fn offload_mut(&mut self) -> &mut OffloadTable {
        &mut self.offload
    }

    /// Access the flow-offload table read-only (mark lookups, stats).
    pub fn offload(&self) -> &OffloadTable {
        &self.offload
    }

    /// Aggregate counters: a view over the NIC's registry. A frame leaves
    /// exactly one way — a ring, a bypass rule, an FDIR or offload drop, a
    /// full ring — so the common exit (delivered) is derived from the
    /// arrivals and the rare exits instead of being counted per frame.
    pub fn stats(&self) -> NicStats {
        let t = |m: Metric| self.tele.total(m);
        let rx_bytes = t(Metric::NicRxBytes);
        // The NIC books `DroppedBytes` for ring overflows only.
        let ring_dropped_bytes = t(Metric::DroppedBytes);
        let offload_bypass_frames = t(Metric::NicOffloadBypassFrames);
        NicStats {
            rx_frames: t(Metric::NicRxFrames),
            rx_bytes,
            fdir_dropped_frames: t(Metric::NicFdirDropFrames),
            fdir_dropped_bytes: self.fdir_dropped_bytes,
            fdir_steered_frames: t(Metric::NicFdirSteeredFrames),
            ring_dropped_frames: t(Metric::NicRingFullDrops),
            ring_dropped_bytes,
            delivered_frames: t(Metric::NicRingPushes) + offload_bypass_frames,
            delivered_bytes: rx_bytes
                - self.fdir_dropped_bytes
                - self.offload_dropped_bytes
                - self.offload_sampled_bytes
                - ring_dropped_bytes,
            offload_dropped_frames: t(Metric::NicOffloadDropFrames),
            offload_dropped_bytes: self.offload_dropped_bytes,
            offload_sampled_frames: t(Metric::NicOffloadSampleDrops),
            offload_sampled_bytes: self.offload_sampled_bytes,
            offload_bypass_frames,
            offload_bypass_bytes: self.offload_bypass_bytes,
        }
    }

    /// The RSS queue a flow key maps to (used by the load balancer to know
    /// where RSS would send a stream before overriding it with FDIR).
    pub fn rss_queue(&self, key: &scap_wire::FlowKey) -> usize {
        self.rss.queue_for(key)
    }

    /// Receive one frame: the offload flow table first (the programmable
    /// stage subsumes FDIR on modern hardware), then FDIR, then RSS.
    /// `item` is the host-side handle; it is only stored if the frame
    /// survives to a ring.
    pub fn receive(&mut self, parsed: &ParsedPacket<'_>, item: T) -> NicVerdict {
        let len = parsed.frame.len() as u64;
        self.tele.inc(0, Metric::NicRxFrames);
        self.tele.add(0, Metric::NicRxBytes, len);

        if let Some(verdict) = self.offload.lookup(parsed) {
            self.tele.inc(0, Metric::NicOffloadHits);
            match verdict {
                OffloadVerdict::Drop => {
                    self.offload_dropped_bytes += len;
                    self.tele.inc(0, Metric::NicOffloadDropFrames);
                    return NicVerdict::DroppedByOffload;
                }
                OffloadVerdict::SampleDrop => {
                    self.offload_sampled_bytes += len;
                    self.tele.inc(0, Metric::NicOffloadSampleDrops);
                    return NicVerdict::SampledByOffload;
                }
                OffloadVerdict::Bypass => {
                    // Shunted: complete at the NIC, counted delivered so
                    // the conservation identity holds without a softirq.
                    self.offload_bypass_bytes += len;
                    self.tele.inc(0, Metric::NicOffloadBypassFrames);
                    return NicVerdict::BypassedByOffload;
                }
                OffloadVerdict::Mark(_) => {
                    // Tagged flows continue down the normal path; the
                    // kernel reads the mark at stream creation.
                    self.tele.inc(0, Metric::NicOffloadMarkFrames);
                }
                OffloadVerdict::SampleKeep => {}
            }
        }

        if let Some(action) = self.fdir.lookup(parsed) {
            match action {
                FdirAction::Drop => {
                    self.fdir_dropped_bytes += len;
                    self.tele.inc(0, Metric::NicFdirDropFrames);
                    return NicVerdict::DroppedByFilter;
                }
                FdirAction::ToQueue(q) => {
                    let q = q.min(self.queues.len() - 1);
                    self.tele.inc(q, Metric::NicFdirSteeredFrames);
                    return if self.queues[q].push(item) {
                        self.tele.inc(q, Metric::NicRingPushes);
                        NicVerdict::SteeredToQueue(q)
                    } else {
                        self.tele.inc(q, Metric::NicRingFullDrops);
                        // Ring overflows count as stack-level drops when
                        // ScapStats are snapshotted; mirror that here so
                        // the merged telemetry conserves packets too.
                        self.tele.inc(q, Metric::DroppedPackets);
                        self.tele.add(q, Metric::DroppedBytes, len);
                        NicVerdict::DroppedRingFull(q)
                    };
                }
            }
        }

        let q = match &parsed.key {
            Some(key) => self.rss.queue_for(key),
            // Non-IP traffic goes to queue 0, like the default queue on
            // the real card.
            None => 0,
        };
        if self.queues[q].push(item) {
            self.tele.inc(q, Metric::NicRingPushes);
            NicVerdict::HashedToQueue(q)
        } else {
            self.tele.inc(q, Metric::NicRingFullDrops);
            self.tele.inc(q, Metric::DroppedPackets);
            self.tele.add(q, Metric::DroppedBytes, len);
            NicVerdict::DroppedRingFull(q)
        }
    }

    /// Program one FDIR filter, recording the operation (and any
    /// failure) in telemetry. Prefer this over `fdir_mut().add` so the
    /// op counters stay complete.
    pub fn fdir_install(&mut self, filter: FdirFilter) -> Result<(), FdirError> {
        self.tele.inc(0, Metric::NicFdirOps);
        let r = self.fdir.add(filter);
        if r.is_err() {
            self.tele.inc(0, Metric::NicFdirOpFailures);
        }
        r
    }

    /// Remove one FDIR filter, recording the operation.
    pub fn fdir_uninstall(
        &mut self,
        key: &scap_wire::FlowKey,
        flex: Option<FlexMatch>,
    ) -> Result<(), FdirError> {
        self.tele.inc(0, Metric::NicFdirOps);
        let r = self.fdir.remove(key, flex);
        if r.is_err() {
            self.tele.inc(0, Metric::NicFdirOpFailures);
        }
        r
    }

    /// Remove every filter on a directed key, recording the operation.
    pub fn fdir_uninstall_all_for(&mut self, key: &scap_wire::FlowKey) -> usize {
        self.tele.inc(0, Metric::NicFdirOps);
        self.fdir.remove_all_for(key)
    }

    /// Program one offload rule, recording the operation (and any
    /// failure) in telemetry. Prefer this over `offload_mut().add` so
    /// the op counters stay complete.
    pub fn offload_install(&mut self, rule: OffloadRule) -> Result<(), OffloadError> {
        self.tele.inc(0, Metric::NicOffloadOps);
        let r = self.offload.add(rule);
        if r.is_err() {
            self.tele.inc(0, Metric::NicOffloadOpFailures);
        }
        r
    }

    /// Remove the offload rule for a flow, recording the operation.
    pub fn offload_uninstall(
        &mut self,
        key: &scap_wire::FlowKey,
    ) -> Result<OffloadRule, OffloadError> {
        self.tele.inc(0, Metric::NicOffloadOps);
        let r = self.offload.remove(key);
        if r.is_err() {
            self.tele.inc(0, Metric::NicOffloadOpFailures);
        }
        r
    }

    /// Evict one rule under table pressure, recording the eviction.
    pub fn offload_evict(&mut self, max_scan: usize) -> Option<OffloadRule> {
        let r = self.offload.evict_tiered(max_scan);
        if r.is_some() {
            self.tele.inc(0, Metric::NicOffloadEvictions);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prop_assert_eq;
    use scap_wire::{parse_frame, PacketBuilder, TcpFlags};

    fn frame(sp: u16, dp: u16, flags: TcpFlags) -> Vec<u8> {
        PacketBuilder::tcp_v4(
            [10, 0, 0, 1],
            [10, 0, 0, 2],
            sp,
            dp,
            100,
            200,
            flags,
            b"data",
        )
    }

    #[test]
    fn both_directions_hash_to_same_queue() {
        let mut nic: Nic<u32> = Nic::new(8, 64);
        let f1 = frame(1234, 80, TcpFlags::ACK);
        let f2 = PacketBuilder::tcp_v4(
            [10, 0, 0, 2],
            [10, 0, 0, 1],
            80,
            1234,
            1,
            1,
            TcpFlags::ACK,
            b"resp",
        );
        let p1 = parse_frame(&f1).unwrap();
        let p2 = parse_frame(&f2).unwrap();
        let v1 = nic.receive(&p1, 0);
        let v2 = nic.receive(&p2, 1);
        match (v1, v2) {
            (NicVerdict::HashedToQueue(a), NicVerdict::HashedToQueue(b)) => assert_eq!(a, b),
            other => panic!("unexpected verdicts {other:?}"),
        }
    }

    #[test]
    fn fdir_drop_filter_blocks_data_but_not_fin() {
        let mut nic: Nic<u32> = Nic::new(4, 64);
        let data = frame(1234, 80, TcpFlags::ACK);
        let parsed = parse_frame(&data).unwrap();
        let key = parsed.key.unwrap();
        // Install the paper's two filters: ACK-only and ACK|PSH drop.
        nic.fdir_mut()
            .add(FdirFilter::drop_tcp_flags(key, TcpFlags::ACK))
            .unwrap();
        nic.fdir_mut()
            .add(FdirFilter::drop_tcp_flags(
                key,
                TcpFlags::ACK | TcpFlags::PSH,
            ))
            .unwrap();

        assert_eq!(nic.receive(&parsed, 0), NicVerdict::DroppedByFilter);
        let push = frame(1234, 80, TcpFlags::ACK | TcpFlags::PSH);
        let parsed_push = parse_frame(&push).unwrap();
        assert_eq!(nic.receive(&parsed_push, 1), NicVerdict::DroppedByFilter);

        // FIN/ACK does not match either filter: it reaches a ring.
        let fin = frame(1234, 80, TcpFlags::FIN | TcpFlags::ACK);
        let parsed_fin = parse_frame(&fin).unwrap();
        assert!(matches!(
            nic.receive(&parsed_fin, 2),
            NicVerdict::HashedToQueue(_)
        ));
        // And the reverse direction is unaffected (filters are directed).
        let rev = PacketBuilder::tcp_v4(
            [10, 0, 0, 2],
            [10, 0, 0, 1],
            80,
            1234,
            1,
            1,
            TcpFlags::ACK,
            b"resp",
        );
        let parsed_rev = parse_frame(&rev).unwrap();
        assert!(matches!(
            nic.receive(&parsed_rev, 3),
            NicVerdict::HashedToQueue(_)
        ));

        let s = nic.stats();
        assert_eq!(s.fdir_dropped_frames, 2);
        assert_eq!(s.rx_frames, 4);
        assert_eq!(s.delivered_frames, 2);
    }

    #[test]
    fn ring_overflow_drops() {
        let mut nic: Nic<u32> = Nic::new(1, 2);
        let f = frame(1, 2, TcpFlags::ACK);
        let p = parse_frame(&f).unwrap();
        assert!(matches!(nic.receive(&p, 0), NicVerdict::HashedToQueue(0)));
        assert!(matches!(nic.receive(&p, 1), NicVerdict::HashedToQueue(0)));
        assert_eq!(nic.receive(&p, 2), NicVerdict::DroppedRingFull(0));
        assert_eq!(nic.stats().ring_dropped_frames, 1);
        // Draining the ring makes room again.
        assert_eq!(nic.queue_mut(0).pop(), Some(0));
        assert!(matches!(nic.receive(&p, 3), NicVerdict::HashedToQueue(0)));
    }

    #[test]
    fn telemetry_mirrors_nic_stats() {
        use scap_telemetry::Metric;
        let mut nic: Nic<u32> = Nic::new(2, 1);
        let f = frame(1, 2, TcpFlags::ACK);
        let p = parse_frame(&f).unwrap();
        let key = p.key.unwrap();
        for i in 0..3 {
            nic.receive(&p, i); // same queue: 1 push, 2 ring-full drops
        }
        nic.fdir_install(FdirFilter::drop_tcp_flags(key, TcpFlags::ACK))
            .unwrap();
        nic.receive(&p, 9); // hardware drop
        assert_eq!(nic.fdir_uninstall_all_for(&key), 1);

        let s = nic.stats();
        let t = nic.telemetry().snapshot();
        assert_eq!(t.total(Metric::NicRxFrames), s.rx_frames);
        assert_eq!(t.total(Metric::NicRxBytes), s.rx_bytes);
        assert_eq!(t.total(Metric::NicRingPushes), s.delivered_frames);
        assert_eq!(t.total(Metric::NicRingFullDrops), s.ring_dropped_frames);
        assert_eq!(t.total(Metric::NicFdirDropFrames), s.fdir_dropped_frames);
        assert_eq!(t.total(Metric::NicFdirOps), 2);
        assert_eq!(t.total(Metric::NicFdirOpFailures), 0);
    }

    #[test]
    fn steering_filter_redirects() {
        let mut nic: Nic<u32> = Nic::new(4, 16);
        let f = frame(5555, 443, TcpFlags::ACK);
        let p = parse_frame(&f).unwrap();
        let key = p.key.unwrap();
        nic.fdir_mut().add(FdirFilter::steer(key, 3)).unwrap();
        assert_eq!(nic.receive(&p, 9), NicVerdict::SteeredToQueue(3));
        assert_eq!(nic.queue_mut(3).pop(), Some(9));
    }

    #[test]
    fn offload_rule_takes_precedence_over_fdir() {
        let mut nic: Nic<u32> = Nic::new(4, 16);
        let f = frame(7777, 80, TcpFlags::ACK);
        let p = parse_frame(&f).unwrap();
        let key = p.key.unwrap();
        // FDIR would steer the flow; the offload drop rule wins.
        nic.fdir_mut().add(FdirFilter::steer(key, 2)).unwrap();
        nic.offload_install(OffloadRule::new(key, OffloadAction::Drop, 1))
            .unwrap();
        assert_eq!(nic.receive(&p, 0), NicVerdict::DroppedByOffload);
        assert_eq!(nic.stats().offload_dropped_frames, 1);
        assert_eq!(nic.stats().fdir_steered_frames, 0);
        // Removing the rule restores the FDIR behaviour.
        nic.offload_uninstall(&key).unwrap();
        assert_eq!(nic.receive(&p, 1), NicVerdict::SteeredToQueue(2));
    }

    #[test]
    fn offload_bypass_counts_delivered_without_ring() {
        let mut nic: Nic<u32> = Nic::new(2, 16);
        let f = frame(1234, 80, TcpFlags::ACK);
        let p = parse_frame(&f).unwrap();
        let key = p.key.unwrap();
        nic.offload_install(OffloadRule::new(key, OffloadAction::Bypass, 0))
            .unwrap();
        assert_eq!(nic.receive(&p, 0), NicVerdict::BypassedByOffload);
        let s = nic.stats();
        assert_eq!(s.delivered_frames, 1);
        assert_eq!(s.offload_bypass_frames, 1);
        // Nothing landed in a ring.
        assert_eq!(nic.queue_mut(0).pop(), None);
        assert_eq!(nic.queue_mut(1).pop(), None);
        // Conservation at the NIC: rx == delivered (+ no drops).
        assert_eq!(s.rx_frames, s.delivered_frames);
    }

    #[test]
    fn offload_telemetry_mirrors_stats() {
        use scap_telemetry::Metric;
        let mut nic: Nic<u32> = Nic::new(2, 16);
        let f = frame(4321, 80, TcpFlags::ACK);
        let p = parse_frame(&f).unwrap();
        let key = p.key.unwrap();
        nic.offload_install(OffloadRule::new(key, OffloadAction::Sample(2), 0))
            .unwrap();
        for i in 0..4 {
            nic.receive(&p, i); // keep, drop, keep, drop
        }
        let s = nic.stats();
        assert_eq!(s.offload_sampled_frames, 2);
        assert_eq!(s.delivered_frames, 2);
        let t = nic.telemetry().snapshot();
        assert_eq!(t.total(Metric::NicOffloadHits), 4);
        assert_eq!(t.total(Metric::NicOffloadSampleDrops), 2);
        assert_eq!(t.total(Metric::NicOffloadOps), 1);
        assert_eq!(nic.offload().stats().sample_kept_frames, 2);
    }

    /// Frame `i` of the property test: one flow per `i`, each a different
    /// length so byte counts cannot agree by accident.
    fn flow_frame(i: u16, fin: bool) -> Vec<u8> {
        let flags = if fin {
            TcpFlags::FIN | TcpFlags::ACK
        } else {
            TcpFlags::ACK
        };
        let payload = vec![0x5a; 4 + 7 * i as usize];
        PacketBuilder::tcp_v4(
            [10, 0, 0, 1],
            [10, 0, 0, 2],
            1000 + i,
            80,
            1,
            1,
            flags,
            &payload,
        )
    }

    proptest::proptest! {
        /// `stats()` is a view: frame counts read back from the registry,
        /// the delivered exit derived from the others. Check every field
        /// against counts kept by hand from the rules in force and the
        /// ring occupancy, and the one-way-out identity, after each frame.
        #[test]
        fn stats_view_matches_hand_counts(
            // Per flow: offload rule kind, FDIR filter kind.
            setup in proptest::collection::vec((0u8..5, 0u8..4), 6..7),
            ring in 1usize..4,
            // (flow | pop a ring, FIN instead of a data segment)
            ops in proptest::collection::vec((0u16..8, 0u8..4), 1..120),
        ) {
            const QUEUES: usize = 2;
            let mut nic: Nic<usize> = Nic::new(QUEUES, ring);
            for (i, &(rule, filter)) in setup.iter().enumerate() {
                let frame = flow_frame(i as u16, false);
                let key = parse_frame(&frame).unwrap().key.unwrap();
                let action = match rule {
                    1 => Some(OffloadAction::Drop),
                    2 => Some(OffloadAction::Sample(3)),
                    3 => Some(OffloadAction::Bypass),
                    4 => Some(OffloadAction::Mark(2)),
                    _ => None,
                };
                if let Some(action) = action {
                    nic.offload_install(OffloadRule::new(key, action, 0)).unwrap();
                }
                let filter = match filter {
                    1 => Some(FdirFilter::drop_tcp_flags(key, TcpFlags::ACK)),
                    2 => Some(FdirFilter::steer(key, 0)),
                    // Queue 5 does not exist: the NIC clamps to the last.
                    3 => Some(FdirFilter::steer(key, 5)),
                    _ => None,
                };
                if let Some(filter) = filter {
                    nic.fdir_install(filter).unwrap();
                }
            }

            let mut want = NicStats::default();
            let mut occupancy = [0usize; QUEUES];
            let mut sample_seq = [0u32; 6];
            for (n, &(i, fin)) in ops.iter().enumerate() {
                if i as usize >= setup.len() {
                    let q = i as usize % QUEUES;
                    let popped = nic.queue_mut(q).pop().is_some();
                    prop_assert_eq!(popped, occupancy[q] > 0);
                    occupancy[q] -= popped as usize;
                    continue;
                }
                let fin = fin == 0;
                let frame = flow_frame(i, fin);
                let parsed = parse_frame(&frame).unwrap();
                let len = frame.len() as u64;
                let (rule, filter) = setup[i as usize];
                want.rx_frames += 1;
                want.rx_bytes += len;

                // Drop-class rules punt a FIN past the offload stage and
                // the ACK-flags FDIR filter does not match it.
                let offload_exit = match rule {
                    1 if !fin => {
                        want.offload_dropped_frames += 1;
                        want.offload_dropped_bytes += len;
                        Some(NicVerdict::DroppedByOffload)
                    }
                    2 if !fin => {
                        let keep = sample_seq[i as usize] % 3 == 0;
                        sample_seq[i as usize] += 1;
                        if keep {
                            None
                        } else {
                            want.offload_sampled_frames += 1;
                            want.offload_sampled_bytes += len;
                            Some(NicVerdict::SampledByOffload)
                        }
                    }
                    3 if !fin => {
                        want.offload_bypass_frames += 1;
                        want.offload_bypass_bytes += len;
                        want.delivered_frames += 1;
                        want.delivered_bytes += len;
                        Some(NicVerdict::BypassedByOffload)
                    }
                    _ => None,
                };
                let expect = offload_exit.unwrap_or_else(|| {
                    let steered = match filter {
                        1 if !fin => {
                            want.fdir_dropped_frames += 1;
                            want.fdir_dropped_bytes += len;
                            return NicVerdict::DroppedByFilter;
                        }
                        2 => Some(0),
                        3 => Some(QUEUES - 1),
                        _ => None,
                    };
                    want.fdir_steered_frames += steered.is_some() as u64;
                    let rss = nic.rss_queue(parsed.key.as_ref().unwrap());
                    let q = steered.unwrap_or(rss);
                    if occupancy[q] == ring {
                        want.ring_dropped_frames += 1;
                        want.ring_dropped_bytes += len;
                        return NicVerdict::DroppedRingFull(q);
                    }
                    occupancy[q] += 1;
                    want.delivered_frames += 1;
                    want.delivered_bytes += len;
                    match steered {
                        Some(q) => NicVerdict::SteeredToQueue(q),
                        None => NicVerdict::HashedToQueue(q),
                    }
                });
                prop_assert_eq!(nic.receive(&parsed, n), expect);

                let got = nic.stats();
                prop_assert_eq!(got, want);
                prop_assert_eq!(
                    got.rx_frames,
                    got.delivered_frames
                        + got.fdir_dropped_frames
                        + got.offload_dropped_frames
                        + got.offload_sampled_frames
                        + got.ring_dropped_frames
                );
                prop_assert_eq!(
                    got.rx_bytes,
                    got.delivered_bytes
                        + got.fdir_dropped_bytes
                        + got.offload_dropped_bytes
                        + got.offload_sampled_bytes
                        + got.ring_dropped_bytes
                );
            }
        }
    }
}
