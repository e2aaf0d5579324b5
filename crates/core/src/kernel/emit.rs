//! The emit stage: event creation. It owns the per-core event queues
//! and the pending keep-chunk requests, builds every event the kernel
//! reports from a consistent snapshot of the stream's record and kernel
//! state, and books what a full queue loses.

use super::ledger::{At, Ledger};
use super::probe::StreamKState;
use crate::event::{Event, EventKind, StreamSnapshot, StreamUid};
use scap_flight::{DropReason, FlightLayer};
use scap_flow::{StreamId, StreamRecord};
use scap_memory::Arena;
use scap_telemetry::{Metric, PulseStage};
use scap_wire::{Direction, IntMap};
use std::collections::VecDeque;

pub(crate) struct Emitter {
    queues: Vec<VecDeque<Event>>,
    /// Keep-chunk requests awaiting the chunk's return, each with the
    /// `(core, id)` its stream was found at when the request applied.
    pending_keep: IntMap<(StreamUid, u8), (usize, StreamId)>,
    queue_cap: usize,
}

fn snapshot((rec, ks): (&StreamRecord, &StreamKState), uid: StreamUid) -> StreamSnapshot {
    let seg = ks.seg.as_deref();
    StreamSnapshot {
        uid,
        key: rec.key,
        first_dir: rec.first_dir,
        status: rec.status,
        errors: rec.errors,
        priority: rec.priority,
        cutoff_exceeded: rec.cutoff_exceeded,
        dirs: [0, 1].map(|d| ks.dir_stats(rec, d)),
        first_ts_ns: rec.first_ts_ns,
        last_ts_ns: rec.last_ts_ns,
        chunks: seg.map_or(0, |s| s.chunks),
        processing_time_ns: seg.map_or(0, |s| s.processing_time_ns),
        resume_gap_bytes: seg.map_or(0, |s| s.resume_gap_bytes),
    }
}

impl Emitter {
    pub(super) fn new(ncores: usize, queue_cap: usize) -> Self {
        Emitter {
            queues: (0..ncores).map(|_| VecDeque::new()).collect(),
            pending_keep: IntMap::default(),
            queue_cap,
        }
    }

    /// Queue an event of `stream` (uid `at.uid`) on `at.core`, or — the queue
    /// being full — drop it, returning a data event's chunk to the arena
    /// and booking its bytes lost. `ingress_ns` is the NIC-ingress
    /// timestamp of the packet that produced it (the tick, for
    /// timer-driven events); `at.now` is the processing clock.
    pub(super) fn enqueue(
        &mut self,
        ledger: &mut Ledger,
        arena: &mut Arena,
        at: At,
        stream: (&StreamRecord, &StreamKState),
        kind: EventKind,
        ingress_ns: u64,
    ) {
        let queue = &mut self.queues[at.core];
        if queue.len() >= self.queue_cap {
            ledger.tele.inc(at.core, Metric::KernelEventsDropped);
            if let EventKind::Data { chunk, .. } = kind {
                let at = At::new(at.core, stream.0.last_ts_ns, at.uid);
                let why = DropReason::EventQueueFull;
                ledger.dropped(at, FlightLayer::EventQueue, why, 0, chunk.len() as u64);
                arena.release(chunk);
            }
            return;
        }
        ledger.tele.inc(at.core, Metric::KernelEventsEnqueued);
        if matches!(kind, EventKind::Data { .. }) {
            ledger.tele.inc(at.core, Metric::KernelChunksPlaced);
        }
        // Pulse: dispatch latency — NIC ingress of the producing packet
        // to event-queue admission (ring residency + kernel processing).
        let delay = at.now.saturating_sub(ingress_ns);
        ledger.latency(
            PulseStage::KernelDispatch,
            FlightLayer::EventQueue,
            at,
            delay,
        );
        queue.push_back(Event {
            stream: snapshot(stream, at.uid),
            kind,
            core: at.core,
            ingress_ns,
            enqueued_ns: at.now,
        });
    }

    /// Pop the next event from a core's queue (user side).
    pub(super) fn pop(&mut self, core: usize) -> Option<Event> {
        self.queues[core].pop_front()
    }

    pub(super) fn backlog(&self, core: usize) -> usize {
        self.queues[core].len()
    }

    /// Fill of the fullest queue, as a fraction of its capacity.
    pub(super) fn pressure(&self) -> f64 {
        let fullest = self.queues.iter().map(VecDeque::len).max().unwrap_or(0);
        fullest as f64 / self.queue_cap.max(1) as f64
    }

    /// `scap_keep_stream_chunk`: hold the next returned chunk of stream
    /// `uid`, found at `at`.
    pub(super) fn keep(&mut self, uid: StreamUid, dir: Direction, at: (usize, StreamId)) {
        self.pending_keep.insert((uid, dir.index() as u8), at);
    }

    /// Where the stream of a returned chunk that was asked to be kept
    /// was found (asked once). Every returned chunk asks, and almost none
    /// was.
    #[inline]
    pub(super) fn take_keep(
        &mut self,
        uid: StreamUid,
        dir: Direction,
    ) -> Option<(usize, StreamId)> {
        if self.pending_keep.is_empty() {
            return None;
        }
        self.pending_keep.remove(&(uid, dir.index() as u8))
    }

    /// A stream ended: its keep requests end with it.
    pub(super) fn forget(&mut self, uid: StreamUid) {
        if self.pending_keep.is_empty() {
            return;
        }
        self.pending_keep.remove(&(uid, 0));
        self.pending_keep.remove(&(uid, 1));
    }
}
