//! The burst loop. NIC admission parses a frame and feeds the rings; a
//! poll takes one frame off a ring, or works on a burst where it sits at
//! the ring's front, each frame with its parse, and walks it through the
//! stages — flow probe, then the stream's [`Lane`] (gate → reassemble →
//! place → emit), then whatever the stream is still owed from the
//! hardware-cutoff stage — handing each stage the disjoint borrows it
//! works on. Both dispatch paths run this one path; a burst first hashes
//! its keys and stages its table walk (loads only), so that the
//! per-packet pass meets the flow table in cache.

use super::hw::estimate_filtered_sizes;
use super::lane::Lane;
use super::ledger::At;
use super::probe::classify;
use super::ScapKernel;
use crate::event::EventKind;
use scap_fastpath::{hash_key, HashedKey};
use scap_flight::{DropReason, FlightEvent, FlightKind, FlightLayer};
use scap_flow::{StreamId, StreamStatus};
use scap_nic::NicVerdict;
use scap_reassembly::CloseKind;
use scap_sim::Work;
use scap_telemetry::Metric;
use scap_trace::Packet;
use scap_wire::{parse_frame, FlowKey, ParsedPacket, Transport};

/// Approximate header bytes the kernel touches per packet.
const HDR_TOUCH_BYTES: u64 = 64;

impl ScapKernel {
    /// NIC admission (hardware path, not CPU-budgeted): RSS/FDIR decide
    /// the fate and queue. Returns the verdict for telemetry.
    pub fn nic_receive(&mut self, pkt: &Packet) -> NicVerdict {
        self.nic_receive_parsed(pkt, parse_frame(&pkt.frame).as_ref().ok())
    }

    /// [`ScapKernel::nic_receive`] for a caller that has already parsed
    /// the frame (a fleet parses it to pick the shard): `parsed` is
    /// `parse_frame(&pkt.frame)`, `None` where that failed.
    pub fn nic_receive_parsed(
        &mut self,
        pkt: &Packet,
        parsed: Option<&ParsedPacket<'_>>,
    ) -> NicVerdict {
        self.imager.excuse_blackout(&mut self.flows, pkt.ts_ns);
        self.nic
            .receive(&self.cfg, &self.flows, &mut self.ledger, pkt, parsed)
    }

    /// Process one packet from a core's RX ring. Returns the work done,
    /// or `None` when the ring was empty.
    pub fn kernel_poll(&mut self, core: usize, now: u64) -> Option<Work> {
        let frame = self.nic.pop(core, now)?;
        self.ledger.work = Work {
            k_packets: 1,
            ..Default::default()
        };
        self.process_frame(core, &frame.pkt, &frame.parsed(), None, now);
        Some(std::mem::take(&mut self.ledger.work))
    }

    /// Poll-mode fast path: run up to `fastpath_burst` packets at the
    /// front of a core's RX ring through the batched pipeline, where they
    /// sit — hash all → flow lookup → reassembly/cutoff → delivery — and
    /// drain them. Returns the burst's work receipt, or `None` when the
    /// ring was empty.
    ///
    /// Delivered streams are byte-identical to per-packet
    /// [`ScapKernel::kernel_poll`] dispatch: both funnel into the same
    /// per-packet processing and accounting, so the conservation
    /// identity and flight reconciliation hold unchanged. What differs
    /// is the cost structure: the ring access is paid once per burst
    /// (`fp_bursts`), each packet is charged the amortized batched rate
    /// (`fp_packets`) instead of the softirq entry, and payload reaches
    /// the arena chunks by reference (no kernel copy charge).
    pub fn poll_burst(&mut self, core: usize, now: u64) -> Option<Work> {
        let burst = self.cfg.fastpath_burst.max(1);
        // The burst stays where it sits, at the front of the ring.
        let (mut ring, n) = self.nic.lend(core, now, burst)?;
        let mut hashed = std::mem::take(&mut self.nic.hashed);
        // Canonicalize + hash every key against this core's table seed
        // in one arithmetic-only sweep.
        let seed = self.flows.cores[core].seed();
        scap_fastpath::hash_burst(seed, ring.range(..n).map(|f| f.meta.key()), &mut hashed);
        // Walk the table for the whole burst, loads only, so that the
        // per-packet pass below finds its lines in cache.
        self.flows.stage(core, &hashed);
        // Prehashed flow lookup, reassembly/cutoff, delivery — the same
        // per-packet path the classic poll uses.
        self.ledger.work = Work {
            fp_bursts: 1,
            fp_packets: n as u64,
            ..Default::default()
        };
        self.ledger.tele.inc(core, Metric::FastpathBursts);
        self.ledger
            .tele
            .add(core, Metric::FastpathPackets, n as u64);
        for (frame, hk) in ring.range(..n).zip(&hashed) {
            self.process_frame(core, &frame.pkt, &frame.parsed(), hk.as_ref(), now);
        }
        // Zero-copy delivery: chunk payload is handed over by reference
        // into the arena, so the per-byte kernel copy charge of the
        // emulated path does not apply here.
        self.ledger.work.k_bytes_copied = 0;
        ring.drain(..n);
        self.nic.nic.queue_mut(core).put_back(ring);
        self.nic.hashed = hashed;
        Some(std::mem::take(&mut self.ledger.work))
    }

    /// One frame off a ring, with the parse admission made of it: the
    /// socket-wide filter, the flow probe, and the stream's lane.
    /// `prehashed` carries the canonical key, direction and table hash
    /// when the batched hash stage already computed them; the classic
    /// path passes `None` and pays for them inline. Either way the probe,
    /// the stream machinery and the accounting are identical, which is
    /// what makes the two paths byte-equivalent.
    fn process_frame(
        &mut self,
        core: usize,
        pkt: &Packet,
        parsed: &ParsedPacket<'_>,
        prehashed: Option<&HashedKey>,
        now: u64,
    ) {
        let len = pkt.len() as u64;
        self.ledger.work.k_bytes_touched += HDR_TOUCH_BYTES.min(len);
        let (at, kernel) = (At::new(core, now, 0), FlightLayer::Kernel);
        // Socket-wide BPF filter: discard early, in the kernel.
        let filter = self.cfg.filter.as_ref();
        if filter.is_some_and(|f| !f.matches_frame(&pkt.frame)) {
            return self
                .ledger
                .discarded(at, kernel, DropReason::BpfFilter, 1, len);
        }
        let Some(key) = parsed.key else {
            return self
                .ledger
                .discarded(at, kernel, DropReason::NoFlowKey, 1, 0);
        };

        // Flow lookup / creation. The open-addressed probe runs on the
        // canonical key and its symmetric hash.
        let hk = match prehashed {
            Some(hk) => *hk,
            None => hash_key(self.flows.cores[core].seed(), &key),
        };
        let Ok(probed) = self.flows.probe(&mut self.ledger, core, &hk, now) else {
            // Flow table at its configured cap (a flood can get here):
            // the stream is lost but the capture survives.
            self.ledger.stats.stack.streams_lost += 1;
            return self
                .ledger
                .dropped(at, kernel, DropReason::FlowTableFull, 1, len);
        };
        self.ledger.cache_probe(core, &probed);
        let (id, dir) = (probed.id, probed.dir);
        if probed.created {
            self.open_stream(core, id, &key, pkt.ts_ns, now);
        }

        let flows = &mut self.flows.cores[core];
        flows.touch(id, now);
        let (Some(ks), Some(rec)) = flows.stream_mut(id) else {
            // TIME_WAIT tombstone: a stream that already terminated keeps
            // its table slot until the inactivity timeout so stray
            // teardown ACKs and late retransmissions do not spawn ghost
            // streams. Tombstones are exactly the records without
            // kernel-side state.
            return self
                .ledger
                .discarded(at, kernel, DropReason::TimeWait, 1, len);
        };
        // Wire accounting.
        rec.dirs[dir.index()].total_pkts += 1;
        rec.dirs[dir.index()].total_bytes += len;
        let at = At {
            uid: ks.uid(),
            ..at
        };
        let mut lane = Lane {
            cfg: &self.cfg,
            governor: &self.governor,
            place: &mut self.place,
            emit: &mut self.emit,
            ledger: &mut self.ledger,
            ks,
            rec,
            at,
            id,
            dir,
        };
        let owed = match key.transport() {
            Transport::Tcp => lane.tcp(pkt, parsed),
            Transport::Udp => lane.udp(pkt, parsed),
            // Tracked for statistics only; processing is complete.
            Transport::Other(_) => lane.done(),
        };
        if let Some(again) = owed.cut {
            let (hw, mut deps) = self.hw();
            hw.cut(&mut deps, core, id, now, again);
        }
        if let (Some(kind), Some(meta)) = (owed.closed, parsed.tcp) {
            estimate_filtered_sizes(&mut self.flows.cores[core], id, &meta, dir);
            let status = match kind {
                CloseKind::Fin => StreamStatus::ClosedFin,
                CloseKind::Rst => StreamStatus::ClosedRst,
            };
            self.terminate_stream(core, id, status, now, true);
        }
    }

    /// A probe opened a record: make it a stream — its cutoff class,
    /// priority, a uid, kernel state — and report it.
    fn open_stream(&mut self, core: usize, id: StreamId, key: &FlowKey, ingress_ns: u64, now: u64) {
        let uid = self.flows.open(core, id);
        self.ledger.stats.stack.streams_created += 1;
        let at = At::new(core, now, uid);
        let created = FlightEvent::new(FlightKind::StreamCreated, FlightLayer::Kernel, now);
        self.ledger.journal(at, created);
        // Invariant: `created` implies the slot is live.
        let (ks, rec) = self.flows.cores[core].stream_mut(id);
        debug_assert!(rec.is_some());
        let (Some(ks), Some(rec)) = (ks, rec) else {
            return;
        };
        classify(ks, rec, &self.cfg);
        // A `Mark` rule in the NIC offload table overrides the
        // configured priority policy: the tag rides the descriptor
        // and the PPL consumes it from stream creation on.
        let marked = self.nic.nic.offload().mark_for(key);
        rec.priority = marked.unwrap_or_else(|| self.cfg.priorities.for_key(key));
        let (arena, created) = (&mut self.place.arena, EventKind::Created);
        self.emit
            .enqueue(&mut self.ledger, arena, at, (rec, ks), created, ingress_ns);
    }
}
