//! One stream in the hands of the data path. The burst loop probes the
//! packet's flow, borrows the stream's state and record in place, and
//! builds a [`Lane`] around them with the stages that work on a stream —
//! placement, emit, the ledger. A packet then runs gate → reassemble →
//! place → settle → emit down the lane; a timer or a termination joins
//! at emit. Both transports run the same steps; where TCP and UDP
//! differ, the difference is spelled out in [`Lane::tcp`] / [`Lane::udp`].

use super::emit::Emitter;
use super::ledger::{At, Ledger};
use super::place::{Placement, Placer};
use super::probe::{Flags, Segments, StreamKState};
use crate::config::ScapConfig;
use crate::event::{EventKind, PacketRecord};
use crate::governor::OverloadGovernor;
use scap_flight::{DropReason, FlightEvent, FlightKind, FlightLayer};
use scap_flow::{StreamErrors, StreamId, StreamRecord};
use scap_memory::{ChunkBuf, PplVerdict};
use scap_reassembly::{CloseKind, ReasmConfig, ReasmFlags, SegOutcome, TcpConn};
use scap_telemetry::Metric;
use scap_trace::Packet;
use scap_wire::{Direction, ParsedPacket, TcpFlags};

pub(super) struct Lane<'a> {
    pub cfg: &'a ScapConfig,
    pub governor: &'a OverloadGovernor,
    pub place: &'a mut Placer,
    pub emit: &'a mut Emitter,
    pub ledger: &'a mut Ledger,
    pub ks: &'a mut StreamKState,
    pub rec: &'a mut StreamRecord,
    /// The core and clock of the burst or tick, and the stream's uid.
    pub at: At,
    pub id: StreamId,
    pub dir: Direction,
}

/// What a packet's stream still needs once its lane is done: the steps
/// that take the whole flow table and the NIC, left to the burst loop.
#[derive(Default)]
pub(super) struct Owed {
    /// Put the stream's NIC drop filters in (`true`: again, after a
    /// filter timeout let a data packet back through).
    pub cut: Option<bool>,
    /// The segment closed the connection.
    pub closed: Option<CloseKind>,
}

/// TCP's gate spares control segments (SYN/FIN/RST) and bare ACKs: the
/// handshake, the close and its size estimate must get through. (Every
/// UDP datagram with payload faces it; one without is done on arrival.)
#[inline]
fn tcp_faces_gate(flags: TcpFlags, payload: &[u8]) -> bool {
    !flags.intersects(TcpFlags::SYN | TcpFlags::FIN | TcpFlags::RST) && !payload.is_empty()
}

impl Lane<'_> {
    /// The stream's cutoff for the lane's direction, and the one in
    /// force: that, tightened to the governor's dynamic cap at levels 2+.
    #[inline]
    fn cutoffs(&self) -> (Option<u64>, Option<u64>) {
        let own = self.ks.cutoff(self.rec, self.cfg, self.dir.index());
        let effective = match (own, self.governor.cutoff_cap()) {
            (Some(c), Some(cap)) => Some(c.min(cap)),
            (None, Some(cap)) => Some(cap),
            (c, None) => c,
        };
        (own, effective)
    }

    /// The cutoff/discard gate, before any reassembly work: a direction
    /// at or past its `effective` cutoff (the stream's `own`, or tighter;
    /// zero cutoffs of flow-stats-only
    /// applications included, §3.3.1), or a stream the application or
    /// the governor discarded, takes no more data. On a hit the packet
    /// is booked against the stream and discarded, with the reason that
    /// names who turned it away; returns whether the direction is beyond
    /// its cutoff. Which packets face the gate — and what becomes of the
    /// stream's `cutoff_exceeded` flag — is the transport's business.
    #[inline]
    fn gate(
        &mut self,
        len: u64,
        offset: u64,
        (own, effective): (Option<u64>, Option<u64>),
    ) -> Option<bool> {
        let (rec, d) = (&mut *self.rec, self.dir.index());
        let beyond = effective.is_some_and(|c| offset >= c);
        if !beyond && !rec.discarded {
            return None;
        }
        rec.dirs[d].discarded_pkts += 1;
        rec.dirs[d].discarded_bytes += len;
        let beyond_configured = own.is_some_and(|c| offset >= c);
        let clamped = beyond && !beyond_configured && !rec.discarded;
        let reason = if rec.discarded && !beyond {
            DropReason::AppDiscard
        } else if clamped {
            DropReason::GovernorClamp
        } else {
            DropReason::Cutoff
        };
        self.ledger
            .discarded(self.at, FlightLayer::Kernel, reason, 1, len);
        if beyond && !rec.cutoff_exceeded {
            self.cutoff_hit(reason, offset);
        }
        if clamped {
            self.ledger.stats.resilience.governor_cutoff_clamps += 1;
        }
        Some(beyond)
    }

    /// Journal the lane's direction reaching its cutoff at `offset`.
    fn cutoff_hit(&mut self, reason: DropReason, offset: u64) {
        let hit = FlightEvent::new(FlightKind::CutoffHit, FlightLayer::Kernel, self.at.now);
        self.ledger
            .journal(self.at, hit.with_reason(reason).with_vals(offset, 0));
    }

    /// Prioritized packet loss, decided before memory is spent: under
    /// memory pressure (arena occupancy plus the governor's per-level
    /// watermark tightening) the packet is booked against the stream and
    /// dropped. Returns whether it was.
    #[inline]
    fn ppl_drops(&mut self, len: u64, offset: u64) -> bool {
        let pressure = (self.place.arena.used_fraction() + self.governor.ppl_boost()).min(1.0);
        let (tele, core) = (&self.ledger.tele, self.at.core);
        let priority = self.rec.priority;
        let verdict = (self.cfg.ppl).verdict_recorded(pressure, priority, offset, tele, core);
        if verdict == PplVerdict::Accept {
            return false;
        }
        let dstats = &mut self.rec.dirs[self.dir.index()];
        dstats.dropped_pkts += 1;
        dstats.dropped_bytes += len;
        self.ledger
            .dropped(self.at, FlightLayer::Memory, DropReason::Ppl, 1, len);
        true
    }

    /// `copied` payload bytes went into the stream's chunks at `offset`.
    #[inline]
    fn note_copy(&mut self, offset: u64, copied: u64) {
        let core = self.at.core;
        self.ledger
            .tele
            .add(core, Metric::KernelBytesCopied, copied);
        if copied > 0 {
            self.ledger
                .cache_write(self.at.uid, self.dir, offset, copied);
        }
    }

    /// Settle a placed packet: its packet record, the flush timer for a
    /// partial chunk, and its one stack-level exit — dropped (OOM),
    /// discarded (`duplicate`: a pure retransmission's bytes) or
    /// delivered — so that `wire = delivered + dropped + discarded`
    /// holds. Returns the packet records that go out with the completed
    /// chunks.
    #[inline]
    fn settle(
        &mut self,
        pkt: &Packet,
        payload_len: usize,
        placed: &Placement,
        copied: u64,
        duplicate: Option<u64>,
    ) -> Vec<PacketRecord> {
        let (ks, at, d) = (&mut *self.ks, self.at, self.dir.index());
        let len = pkt.len() as u64;
        let seg = (ks.seg.as_deref_mut()).expect("a placed packet's stream has its box");
        let armed = Flags::FLUSH_ARMED[d];
        if self.cfg.need_pkts && payload_len > 0 {
            let first = placed.first_off;
            seg.pkt_records[d].push(PacketRecord {
                ts_ns: pkt.ts_ns,
                wire_len: len as u32,
                payload_len: payload_len as u32,
                chunk_off: first.map_or(u32::MAX, |o| o.min(u64::from(u32::MAX)) as u32),
            });
        }
        let asm = &seg.asm[d];
        if asm.has_pending() && !ks.flags.has(armed) {
            ks.flags.set(armed, true);
            let due = at.now + self.cfg.flush_timeout_ns;
            let offset = asm.stream_offset();
            self.place
                .arm_flush(at.core, due, self.id, self.dir, offset);
        }
        let mut packets = Vec::new();
        if !placed.completed.is_empty() {
            ks.flags.set(armed, false);
            packets = std::mem::take(&mut seg.pkt_records[d]);
        }
        if placed.oom {
            self.ledger
                .dropped(at, FlightLayer::Memory, DropReason::ArenaOom, 1, len);
        } else if let Some(bytes) = duplicate {
            self.ledger
                .discarded(at, FlightLayer::Kernel, DropReason::Duplicate, 1, bytes);
        } else {
            self.ledger.delivered(at.core, 1, 0);
        }
        self.ledger.delivered(at.core, 0, copied);
        packets
    }

    /// Emit one data event per completed chunk of the lane's direction;
    /// `packets` are the records of the packets that filled them. A
    /// chunk held back by `scap_keep_stream_chunk` is merged in front of
    /// the first (§3.2). Live streams' chunks, timer-flushed tails and a
    /// removed stream's last bytes all leave through here. `ingress_ns`
    /// is the NIC-ingress timestamp of the packet that completed the
    /// chunk (the tick, for the other two).
    #[inline]
    pub(super) fn emit_data(
        &mut self,
        completed: Vec<ChunkBuf>,
        packets: Vec<PacketRecord>,
        ingress_ns: u64,
    ) {
        let (at, dir) = (self.at, self.dir);
        let mut packets = Some(packets);
        for chunk in completed {
            let seg = (self.ks.seg.as_deref_mut()).expect("a chunk's stream has its box");
            seg.chunks += 1;
            let mut chunk = match seg.kept[dir.index()].take() {
                Some(kept) => self.place.merge(self.ledger, at.core, kept, chunk),
                None => chunk,
            };
            self.ledger.cache_stamp(&mut chunk, at.uid, dir);
            let kind = EventKind::Data {
                dir,
                chunk,
                packets: packets.take().unwrap_or_default(),
            };
            let arena = &mut self.place.arena;
            let stream = (&*self.rec, &*self.ks);
            self.emit
                .enqueue(self.ledger, arena, at, stream, kind, ingress_ns);
        }
    }

    /// A TCP segment of the lane's stream.
    #[inline]
    pub(super) fn tcp(&mut self, pkt: &Packet, parsed: &ParsedPacket<'_>) -> Owed {
        let (d, len) = (self.dir.index(), pkt.len() as u64);
        let mut owed = Owed::default();
        let Some(meta) = parsed.tcp else {
            // Transport said TCP but the header would not parse: nothing
            // to reassemble.
            let why = DropReason::NoTcpHeader;
            self.ledger
                .discarded(self.at, FlightLayer::Kernel, why, 1, len);
            return owed;
        };
        let payload = parsed.payload();
        let offset = self.ks.offset(d);
        let (priority, was_exceeded) =
            (self.rec.priority.min(3) as usize, self.rec.cutoff_exceeded);
        let cutoffs = self.cutoffs();
        let (own, effective) = cutoffs;
        if tcp_faces_gate(meta.flags, payload) {
            if let Some(beyond) = self.gate(len, offset, cutoffs) {
                self.rec.cutoff_exceeded |= beyond;
                owed.cut = Some(was_exceeded);
                return owed;
            }
        }
        self.ledger.stats.wire_by_priority[priority] += 1;
        if !payload.is_empty() && self.ppl_drops(len, offset) {
            self.ledger.stats.dropped_by_priority[priority] += 1;
            return owed;
        }

        // Reassemble in place: the connection tracker (allocated, with
        // the stream's box, on its first segment past the gate) hands
        // in-order bytes to the placement sink, which writes them into
        // the stream's chunks without anything being lifted out.
        let cfg = self.cfg;
        self.ks.flags.set(Flags::OPENED[d], true);
        let seg = self.ks.segments(cfg);
        let conn = seg.conn.get_or_insert_with(|| {
            let reasm = ReasmConfig::for_mode(cfg.reassembly_mode).with_policy(cfg.overlap_policy);
            TcpConn::new(reasm)
        });
        let asm = &mut seg.asm[d];
        let copied_before = asm.bytes_copied;
        let cap = effective.unwrap_or(u64::MAX);
        let mut placed = Placement::default();
        let arena = &mut self.place.arena;
        let outcome = conn.on_segment(self.dir, &meta, payload, &mut |off, data: &[u8]| {
            placed.put(arena, asm, cap, off, data)
        });
        let copied = asm.bytes_copied - copied_before;
        let offset_after = asm.stream_offset();
        let flags = conn.flags();
        self.note_copy(offset_after.saturating_sub(copied), copied);
        let seg = (self.ks.seg.as_deref_mut()).expect("just allocated");
        let duplicate = book_segment(
            (self.rec, seg),
            d,
            &outcome,
            flags,
            payload.len() as u64,
            len,
            placed.oom,
        );
        self.ledger.stats.resilience.resume_gap_bytes += outcome.data.resume_gap;

        // Newly exceeded cutoff: flush the final partial chunk now and
        // have NIC filters installed so the tail never reaches memory.
        let newly_beyond = !was_exceeded && effective.is_some_and(|c| offset_after >= c);
        if newly_beyond {
            self.rec.cutoff_exceeded = true;
            if let Some(seg) = self.ks.seg.as_deref_mut() {
                self.place
                    .flush_tail(&mut seg.asm[d], &mut placed.completed);
            }
            owed.cut = Some(false);
        }
        let packets = self.settle(pkt, payload.len(), &placed, copied, duplicate);
        if placed.oom {
            self.ledger.stats.dropped_by_priority[priority] += 1;
        }
        if newly_beyond {
            let reason = if own.is_some_and(|c| offset_after >= c) {
                DropReason::Cutoff
            } else {
                DropReason::GovernorClamp
            };
            self.cutoff_hit(reason, offset_after);
        }
        self.emit_data(placed.completed, packets, pkt.ts_ns);
        owed.closed = outcome.closed_now;
        owed
    }

    /// A packet with nothing to capture: fully processed on arrival.
    #[inline]
    pub(super) fn done(&mut self) -> Owed {
        self.ledger.delivered(self.at.core, 1, 0);
        Owed::default()
    }

    /// A UDP datagram of the lane's stream.
    #[inline]
    pub(super) fn udp(&mut self, pkt: &Packet, parsed: &ParsedPacket<'_>) -> Owed {
        let payload = parsed.payload();
        if payload.is_empty() {
            return self.done();
        }
        let (d, len) = (self.dir.index(), pkt.len() as u64);
        let cutoffs = self.cutoffs();
        self.ks.flags.set(Flags::OPENED[d], true);
        let offset = self.ks.offset(d);
        // Every datagram with payload faces the gate, and a stream it
        // turned away counts as cut off whoever asked for that. No NIC
        // filters for UDP: the next datagram meets the gate again. The
        // stream's box waits for a datagram that gets through.
        if self.gate(len, offset, cutoffs).is_some() {
            self.rec.cutoff_exceeded = true;
            return Owed::default();
        }
        if self.ppl_drops(len, offset) {
            return Owed::default();
        }

        // A datagram is in order by definition: straight to placement.
        // No tail flush on reaching the cutoff; the flush timer closes
        // the last chunk.
        let cap = cutoffs.1.unwrap_or(u64::MAX);
        let allowed = ((cap - offset) as usize).min(payload.len()) as u64;
        let mut placed = Placement::default();
        let seg = self.ks.segments(self.cfg);
        placed.put(&mut self.place.arena, &mut seg.asm[d], cap, offset, payload);
        let captured = &mut seg.captured[d];
        captured[0] += 1;
        captured[1] += allowed;
        self.note_copy(offset, allowed);
        let dstats = &mut self.rec.dirs[d];
        if placed.oom {
            dstats.dropped_pkts += 1;
            dstats.dropped_bytes += len;
        }
        let packets = self.settle(pkt, payload.len(), &placed, allowed, None);
        self.emit_data(placed.completed, packets, pkt.ts_ns);
        Owed::default()
    }
}

/// Book one TCP segment's outcome against the stream's record and box:
/// captured bytes, an arena refusal or a pure retransmission in direction `d`,
/// the blackout hole the first segment after a warm restart skipped
/// (bounded by the traffic between the checkpoint and the crash), and
/// the reassembler's error flags. Returns a pure retransmission's
/// duplicate bytes.
#[inline]
fn book_segment(
    (rec, boxed): (&mut StreamRecord, &mut Segments),
    d: usize,
    seg: &SegOutcome,
    flags: ReasmFlags,
    payload_len: u64,
    pkt_len: u64,
    oom: bool,
) -> Option<u64> {
    let captured = seg.data.delivered > 0 || seg.data.buffered > 0;
    let dup_only = !captured && seg.data.duplicate > 0;
    if captured {
        let c = &mut boxed.captured[d];
        c[0] += 1;
        c[1] += (seg.data.delivered + seg.data.buffered).min(payload_len);
    }
    let dstats = &mut rec.dirs[d];
    if oom {
        dstats.dropped_pkts += 1;
        dstats.dropped_bytes += pkt_len;
    } else if dup_only {
        dstats.discarded_pkts += 1;
        dstats.discarded_bytes += seg.data.duplicate;
    }
    boxed.resume_gap_bytes += seg.data.resume_gap;
    for (rf, sf) in [
        (
            ReasmFlags::INCOMPLETE_HANDSHAKE,
            StreamErrors::INCOMPLETE_HANDSHAKE,
        ),
        (ReasmFlags::SEQUENCE_GAP, StreamErrors::SEQUENCE_GAP),
        (
            ReasmFlags::INCONSISTENT_OVERLAP,
            StreamErrors::INCONSISTENT_OVERLAP,
        ),
        (ReasmFlags::INVALID_SEQUENCE, StreamErrors::INVALID_SEQUENCE),
    ] {
        if flags.contains(rf) {
            rec.errors.set(sf);
        }
    }
    dup_only.then_some(seg.data.duplicate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::governor::GovernorConfig;
    use scap_flow::{FlowTable, FlowTableConfig};
    use scap_wire::{FlowKey, Transport};

    /// A lane over one stream with the stages it borrows and no kernel:
    /// the governor capping cutoffs at `cap`, and the stream's record in
    /// a flow table or, `removed`, taken out of it as a terminating
    /// stream's is.
    fn with_lane<R>(cap: Option<u64>, removed: bool, f: impl FnOnce(&mut Lane<'_>) -> R) -> R {
        let cfg = ScapConfig::default();
        let mut governor = OverloadGovernor::new(GovernorConfig {
            cutoff_caps: [cap.unwrap_or(0); 2],
            ..cfg.governor
        });
        governor.restore_level(if cap.is_some() { 2 } else { 0 }, 0);
        let mut flows = FlowTable::new(FlowTableConfig::default(), 1);
        let key = FlowKey::new_v4([1, 1, 1, 1], [2, 2, 2, 2], 9, 80, Transport::Tcp);
        let id = flows.lookup_or_insert(&key, 5).unwrap().id;
        let mut owned;
        let rec = if removed {
            owned = flows.remove(id).unwrap();
            &mut owned
        } else {
            flows.get_mut(id).unwrap()
        };
        let at = At {
            core: 0,
            now: 9,
            uid: 42,
        };
        let mut lane = Lane {
            cfg: &cfg,
            governor: &governor,
            place: &mut Placer::new(&cfg, 1),
            emit: &mut Emitter::new(1, 8),
            ledger: &mut Ledger::new(&cfg, 1, 64),
            ks: &mut StreamKState::new(std::num::NonZeroU64::new(at.uid).unwrap()),
            rec,
            at,
            id,
            dir: Direction::Reverse,
        };
        f(&mut lane)
    }

    /// The shared gate under each transport's call-site condition: who
    /// faces the gate, and which reason it gives.
    #[test]
    fn gate_table_for_both_transports() {
        use DropReason::{AppDiscard, Cutoff, GovernorClamp};
        let ack = TcpFlags::ACK;
        let fin = TcpFlags::ACK | TcpFlags::FIN;
        // (configured cutoff, governor cap, discarded, TCP flags, payload
        // bytes) at stream offset 1000 → (TCP verdict, UDP verdict).
        type Row = (
            (Option<u64>, Option<u64>, bool, TcpFlags, usize),
            (Option<DropReason>, Option<DropReason>),
        );
        let both = |r| (Some(r), Some(r));
        let table: [Row; 12] = [
            ((None, None, false, ack, 100), (None, None)),
            ((Some(2000), None, false, ack, 100), (None, None)),
            ((Some(1000), None, false, ack, 100), both(Cutoff)),
            ((Some(0), None, false, ack, 100), both(Cutoff)),
            (
                (Some(2000), Some(500), false, ack, 100),
                both(GovernorClamp),
            ),
            ((None, Some(1000), false, ack, 100), both(GovernorClamp)),
            ((Some(800), Some(500), false, ack, 100), both(Cutoff)),
            ((Some(2000), Some(1500), false, ack, 100), (None, None)),
            ((None, None, true, ack, 100), both(AppDiscard)),
            ((Some(800), None, true, ack, 100), both(Cutoff)),
            // Exempt at the TCP call site only: a FIN with data.
            ((Some(0), None, true, fin, 100), (None, Some(Cutoff))),
            // A bare ACK faces neither gate; an empty datagram never
            // reaches UDP's.
            ((Some(0), None, true, ack, 0), (None, None)),
        ];
        for (row, want) in table {
            let (cutoff, cap, discarded, flags, payload_len) = row;
            let payload = vec![0u8; payload_len];
            let verdict = |faces_gate: bool| -> Option<DropReason> {
                if !faces_gate {
                    return None;
                }
                with_lane(cap, false, |lane| {
                    for d in 0..2 {
                        lane.ks.set_cutoff(lane.rec, lane.cfg, d, cutoff);
                    }
                    lane.rec.discarded = discarded;
                    let beyond = lane.gate(140, 1000, lane.cutoffs())?;
                    // A hit books the packet once, everywhere.
                    let journal = lane.ledger.flight.events();
                    assert_eq!(journal[0].kind, FlightKind::Discard);
                    assert_eq!((journal[0].uid, journal[0].a, journal[0].b), (42, 1, 140));
                    assert_eq!(lane.ledger.tele.total(Metric::DiscardedPackets), 1);
                    assert_eq!(lane.rec.dirs[1].discarded_bytes, 140);
                    assert_eq!(beyond, journal.len() == 2, "a first hit is journalled");
                    let clamps = lane.ledger.stats.resilience.governor_cutoff_clamps;
                    assert_eq!(clamps == 1, journal[0].reason == GovernorClamp);
                    Some(journal[0].reason)
                })
            };
            let tcp = verdict(tcp_faces_gate(flags, &payload));
            let udp = verdict(!payload.is_empty());
            assert_eq!((tcp, udp), want, "{row:?}");
        }
    }

    /// A removed stream's tail leaves as the same `Data` event a live
    /// stream's chunk does — one builder, whoever holds the record.
    #[test]
    fn a_removed_streams_tail_is_the_event_a_live_streams_chunk_is() {
        let emitted = |removed: bool| -> Event {
            with_lane(None, removed, |lane| {
                let mut chunk = lane.place.arena.alloc(64, 5, 4096).unwrap();
                chunk.extend_from_slice(b"hello");
                let packets = vec![PacketRecord {
                    ts_ns: 5,
                    wire_len: 59,
                    payload_len: 5,
                    chunk_off: 0,
                }];
                lane.ks.segments(lane.cfg);
                lane.emit_data(vec![chunk], packets, 7);
                let events = lane.ledger.tele.total(Metric::KernelEventsEnqueued);
                let queued = (events, lane.emit.backlog(0));
                let chunks = lane.ks.seg.as_ref().unwrap().chunks;
                assert_eq!((chunks, queued), (1, (1, 1)));
                lane.emit.pop(0).unwrap()
            })
        };
        let (live, tail) = (emitted(false), emitted(true));
        assert_eq!(format!("{live:?}"), format!("{tail:?}"));
        let EventKind::Data {
            dir,
            chunk,
            packets,
        } = tail.kind
        else {
            panic!("not a data event");
        };
        assert_eq!((dir, chunk.bytes()), (Direction::Reverse, &b"hello"[..]));
        assert_eq!((chunk.start_offset, packets.len()), (4096, 1));
        assert_eq!((tail.stream.uid, tail.stream.chunks), (42, 1));
        assert_eq!((tail.core, tail.ingress_ns, tail.enqueued_ns), (0, 7, 9));
    }
}
