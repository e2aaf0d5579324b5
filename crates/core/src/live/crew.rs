//! The worker side of a live capture: the threads that run the
//! application's callbacks, the queues that feed them, and the watchdog
//! that keeps a capture alive when they die or wedge.
//!
//! The kernel thread hands each worker slot the events of a burst as one
//! [`Batch`] (one lock and one wake per burst); the worker dispatches it
//! and sends the same buffer back with only the data events left in it,
//! so their chunks return to the arena and the buffer carries a later
//! burst.

use super::{EventSink, Handler, StreamCtx, WorkerStatus};
use crate::event::{Event, EventKind};
use crate::kernel::{ControlOp, ScapKernel};
use scap_faults::{WorkerFault, WorkerFaultKind};
use scap_flight::{FlightEvent, FlightKind, FlightLayer};
use scap_flow::StreamErrors;
use scap_telemetry::{AtomicRegistry, Metric, SpanTimer, Stage};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

/// How long a worker's heartbeat may sit still (with work outstanding)
/// before the watchdog declares it wedged.
const STALL_GRACE: Duration = Duration::from_millis(30);
/// Upper bound on one wait for the workers to catch up.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);
/// Longest such a wait blocks on the release channel before it runs
/// another watchdog pass.
const WATCHDOG_PACE: Duration = Duration::from_millis(2);

/// What a worker slot is handed per burst. It comes back on the release
/// channel holding only its data events, whose chunks the kernel
/// recycles, and the emptied buffer carries a later burst.
type Batch = Vec<Event>;

/// A worker slot's queue of batches, shared by the worker and any
/// replacement or sibling threads. The lock is held only to move a
/// batch, never across a callback.
#[derive(Default)]
struct Inbox {
    queue: Mutex<Queue>,
    ready: Condvar,
}

#[derive(Default)]
struct Queue {
    batches: VecDeque<Batch>,
    /// No more batches will come.
    closed: bool,
}

impl Inbox {
    /// Every update leaves the queue valid, so a guard poisoned by a
    /// panicking worker is still good.
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Queue a batch at the back (the kernel thread's hand-off) or, with
    /// `front`, ahead of everything queued (what a dying worker had not
    /// reached yet).
    fn push(&self, batch: Batch, front: bool) {
        let mut q = self.lock();
        if front {
            q.batches.push_front(batch);
        } else {
            q.batches.push_back(batch);
        }
        drop(q);
        self.ready.notify_one();
    }

    /// Workers drain what is queued and exit.
    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Block for the next batch; `None` once closed and drained.
    fn pop(&self) -> Option<Batch> {
        let mut q = self.lock();
        loop {
            if let Some(batch) = q.batches.pop_front() {
                return Some(batch);
            }
            if q.closed {
                return None;
            }
            q = self.ready.wait(q).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// The batch a worker thread is dispatching. Dropping it — at the end of
/// the batch, or while a panicking callback unwinds — re-queues the
/// events not reached yet and sends the rest back for release, so a
/// panic loses exactly the event it was holding.
struct Held<'a> {
    batch: Batch,
    /// Index of the event being dispatched.
    next: usize,
    inbox: &'a Inbox,
    rel: &'a Sender<Batch>,
}

impl Drop for Held<'_> {
    fn drop(&mut self) {
        if self.next + 1 < self.batch.len() {
            self.inbox.push(self.batch.split_off(self.next + 1), true);
        }
        self.batch
            .retain(|ev| matches!(ev.kind, EventKind::Data { .. }));
        let _ = self.rel.send(std::mem::take(&mut self.batch));
    }
}

/// What every worker thread of a capture is given.
#[derive(Clone)]
struct WorkerEnv {
    handlers: WorkerHandlers,
    ctl: Sender<ControlOp>,
    rel: Sender<Batch>,
    tele: Arc<AtomicRegistry>,
}

/// A worker thread: dispatch batches from the slot's inbox until it is
/// closed and drained.
fn worker_loop(
    env: &WorkerEnv,
    inbox: &Inbox,
    heartbeat: &AtomicU64,
    current_uid: &AtomicU64,
    faults: &[WorkerFault],
    shard: usize,
) {
    let mut events_seen = 0u64;
    while let Some(batch) = inbox.pop() {
        let mut held = Held {
            batch,
            next: 0,
            inbox,
            rel: &env.rel,
        };
        while let Some(ev) = held.batch.get(held.next) {
            events_seen += 1;
            current_uid.store(ev.stream.uid, Ordering::SeqCst);
            for f in faults {
                if f.after_events == events_seen {
                    match f.kind {
                        WorkerFaultKind::Stall(ns) => {
                            std::thread::sleep(Duration::from_nanos(ns));
                        }
                        WorkerFaultKind::Panic => {
                            panic!("injected worker fault");
                        }
                    }
                }
            }
            let span = SpanTimer::start();
            env.handlers.dispatch(ev, &env.ctl);
            span.finish(&env.tele, shard, Stage::Worker);
            env.tele.inc(shard, Metric::WorkerEventsHandled);
            held.next += 1;
            heartbeat.fetch_add(1, Ordering::SeqCst);
            current_uid.store(0, Ordering::SeqCst);
        }
    }
}

/// One worker slot's bookkeeping on the kernel thread.
struct WorkerSlot {
    /// The queue, shared with the worker and any replacements.
    inbox: Arc<Inbox>,
    /// Events of the burst in progress, handed over at its end.
    batch: Batch,
    /// Events completed by threads on this queue.
    heartbeat: Arc<AtomicU64>,
    /// Uid of the stream currently being dispatched (0 = idle).
    current_uid: Arc<AtomicU64>,
    /// Events sent into this queue.
    sent: u64,
    /// Events known lost to panics (held mid-dispatch by a dead thread).
    lost: u64,
    last_beat: u64,
    last_beat_at: Instant,
    stall_flagged: bool,
    panics: u64,
    stalls: u64,
    restarts: u64,
    /// Respawn circuit breaker: too many panics/stalls inside the
    /// configured window parks the slot instead of thrashing forever.
    breaker: scap_shard::CircuitBreaker,
    /// Parked by the breaker: no further respawns; queued events are
    /// accounted as lost and new events are recycled at fan-out.
    parked: bool,
}

/// The worker side of a capture as the kernel thread sees it: the slots,
/// their threads, and the channels back from them.
pub(super) struct Crew<'scope, 'env> {
    scope: &'scope Scope<'scope, 'env>,
    env: WorkerEnv,
    slots: Vec<WorkerSlot>,
    handles: Vec<Option<ScopedJoinHandle<'scope, ()>>>,
    /// Siblings put next to wedged workers.
    extra: Vec<ScopedJoinHandle<'scope, ()>>,
    /// Emptied batch buffers awaiting reuse.
    spare: Vec<Batch>,
    // PF_SCAP-socket stand-ins.
    ctl_rx: Receiver<ControlOp>,
    rel_rx: Receiver<Batch>,
}

impl<'scope, 'env> Crew<'scope, 'env> {
    /// Start `nworkers` worker threads in `scope`, each on a slot of its
    /// own, with the scheduled `faults` armed on the workers they name.
    pub(super) fn start(
        scope: &'scope Scope<'scope, 'env>,
        handlers: WorkerHandlers,
        nworkers: usize,
        breaker: scap_shard::CircuitBreaker,
        faults: &[WorkerFault],
    ) -> Self {
        let (ctl, ctl_rx) = channel();
        let (rel, rel_rx) = channel();
        // Worker-side telemetry is shared across threads, so it uses the
        // atomic backend (one shard per worker slot); the kernel-side
        // registries stay plain because only that thread drives them.
        let tele = Arc::new(AtomicRegistry::new(nworkers));
        let mut crew = Crew {
            scope,
            env: WorkerEnv {
                handlers,
                ctl,
                rel,
                tele,
            },
            slots: Vec::with_capacity(nworkers),
            handles: Vec::with_capacity(nworkers),
            extra: Vec::new(),
            spare: Vec::new(),
            ctl_rx,
            rel_rx,
        };
        for w in 0..nworkers {
            crew.slots.push(WorkerSlot {
                inbox: Arc::default(),
                batch: Batch::new(),
                heartbeat: Arc::default(),
                current_uid: Arc::default(),
                sent: 0,
                lost: 0,
                last_beat: 0,
                last_beat_at: Instant::now(),
                stall_flagged: false,
                panics: 0,
                stalls: 0,
                restarts: 0,
                breaker: breaker.clone(),
                parked: false,
            });
            let armed = faults.iter().copied().filter(|f| f.worker == w).collect();
            let handle = crew.spawn(w, crew.slots[w].current_uid.clone(), armed);
            crew.handles.push(Some(handle));
        }
        crew
    }

    /// Close the queues, join every thread (workers drain what is still
    /// queued first), collect the last control operations and chunks, and
    /// report each slot's outcome and the workers' telemetry.
    pub(super) fn finish(
        mut self,
        kernel: &mut ScapKernel,
        now: u64,
    ) -> (Vec<WorkerStatus>, scap_telemetry::Snapshot) {
        for slot in &self.slots {
            slot.inbox.close();
        }
        for i in 0..self.slots.len() {
            if self.handles[i].take().is_some_and(|h| h.join().is_err()) {
                // Died after the last watchdog pass.
                self.note_panic(kernel, i, now);
            }
        }
        for h in std::mem::take(&mut self.extra) {
            let _ = h.join();
        }
        self.drain_control(kernel);
        self.drain_released(kernel);
        let statuses: Vec<WorkerStatus> = self
            .slots
            .iter()
            .enumerate()
            .map(|(i, sl)| WorkerStatus {
                worker: i,
                panics: sl.panics,
                stalls: sl.stalls,
                restarts: sl.restarts,
                events_sent: sl.sent,
                events_handled: sl.heartbeat.load(Ordering::SeqCst),
                events_lost: sl.lost,
            })
            .collect();
        kernel.set_worker_heartbeats(statuses.iter().map(|st| st.events_handled).sum());
        (statuses, self.telemetry())
    }

    /// Snapshot of the workers' telemetry (stage spans, events handled).
    pub(super) fn telemetry(&self) -> scap_telemetry::Snapshot {
        self.env.tele.snapshot()
    }

    /// Spawn a thread on slot `i`'s inbox.
    fn spawn(
        &self,
        i: usize,
        current_uid: Arc<AtomicU64>,
        faults: Vec<WorkerFault>,
    ) -> ScopedJoinHandle<'scope, ()> {
        let env = self.env.clone();
        let inbox = self.slots[i].inbox.clone();
        let heartbeat = self.slots[i].heartbeat.clone();
        self.scope
            .spawn(move || worker_loop(&env, &inbox, &heartbeat, &current_uid, &faults, i))
    }

    /// Route one kernel event to its worker slot's pending batch.
    pub(super) fn fan_out(&mut self, kernel: &mut ScapKernel, ev: Event) {
        let n = self.slots.len();
        let slot = &mut self.slots[ev.core % n];
        slot.sent += 1;
        if slot.parked {
            // The event cannot be handled; count the loss and recycle
            // its chunk.
            slot.lost += 1;
            kernel.release_event(ev);
        } else {
            slot.batch.push(ev);
        }
    }

    /// Hand every slot the events of the burst as one batch.
    pub(super) fn hand_off(&mut self) {
        for slot in self.slots.iter_mut().filter(|sl| !sl.batch.is_empty()) {
            let next = self.spare.pop().unwrap_or_default();
            slot.inbox
                .push(std::mem::replace(&mut slot.batch, next), false);
        }
    }

    pub(super) fn drain_control(&self, kernel: &mut ScapKernel) {
        while let Ok(op) = self.ctl_rx.try_recv() {
            kernel.control(op);
        }
    }

    /// Return a batch's chunks to the arena and keep its buffer.
    fn recycle(&mut self, kernel: &mut ScapKernel, mut batch: Batch) {
        for ev in batch.drain(..) {
            kernel.release_event(ev);
        }
        self.spare.push(batch);
    }

    /// Recycle every batch the workers have sent back so far.
    pub(super) fn drain_released(&mut self, kernel: &mut ScapKernel) {
        let Ok(first) = self.rel_rx.try_recv() else {
            return;
        };
        let span = SpanTimer::start();
        self.recycle(kernel, first);
        while let Ok(batch) = self.rel_rx.try_recv() {
            self.recycle(kernel, batch);
        }
        span.finish(kernel.telemetry(), 0, Stage::Memory);
    }

    /// Wait — still watching for deaths and stalls, which would otherwise
    /// hold the wait hostage — until no slot owes more than `allow`
    /// events (sent, neither handled nor written off yet).
    pub(super) fn catch_up(&mut self, kernel: &mut ScapKernel, now: u64, allow: u64) {
        let behind = |slots: &[WorkerSlot]| {
            slots.iter().any(|sl| {
                let done = sl.heartbeat.load(Ordering::SeqCst) + sl.lost;
                sl.sent.saturating_sub(done) > allow
            })
        };
        if !behind(&self.slots) {
            return; // the usual case under overload, once per packet
        }
        let deadline = Instant::now() + DRAIN_DEADLINE;
        while behind(&self.slots) && Instant::now() <= deadline {
            self.watchdog(kernel, now);
            self.drain_control(kernel);
            // Every finished batch comes back on the release channel, so
            // block there; the timeout paces the watchdog.
            if let Ok(batch) = self.rel_rx.recv_timeout(WATCHDOG_PACE) {
                self.recycle(kernel, batch);
            }
        }
    }

    /// A thread of slot `i` died in a callback: count it, journal it,
    /// flag the stream it held.
    fn note_panic(&mut self, kernel: &mut ScapKernel, i: usize, now: u64) {
        let slot = &mut self.slots[i];
        slot.panics += 1;
        kernel.resilience_mut().worker_panics += 1;
        let uid = slot.current_uid.swap(0, Ordering::SeqCst);
        kernel.flight_mut().emit(
            0,
            FlightEvent::new(FlightKind::WorkerPanic, FlightLayer::Worker, now)
                .with_uid(uid)
                .with_vals(i as u64, 0),
        );
        if uid != 0 {
            kernel.flag_stream_error(uid, StreamErrors::WORKER_FAILURE);
        }
    }

    /// Record a failure of slot `i` with its breaker. A tripped breaker
    /// parks the slot: close its queue, account every outstanding event
    /// as lost (so shutdown drain terminates), and surface the trip in
    /// `ResilienceStats` and the flight journal. Returns whether it did.
    fn tripped(&mut self, kernel: &mut ScapKernel, i: usize, now: u64) -> bool {
        let slot = &mut self.slots[i];
        if !slot.breaker.record_failure(now) {
            return false;
        }
        slot.parked = true;
        slot.inbox.close();
        let beat = slot.heartbeat.load(Ordering::SeqCst);
        slot.lost = slot.sent.saturating_sub(beat);
        let fails = u64::from(slot.breaker.failures_in_window());
        kernel.resilience_mut().watchdog_breaker_trips += 1;
        kernel.flight_mut().emit(
            0,
            FlightEvent::new(FlightKind::BreakerTripped, FlightLayer::Worker, now)
                .with_vals(i as u64, fails),
        );
        true
    }

    /// A fresh thread went onto slot `i`'s queue.
    fn note_restart(&mut self, kernel: &mut ScapKernel, i: usize, now: u64) {
        self.slots[i].restarts += 1;
        kernel.resilience_mut().worker_restarts += 1;
        kernel.flight_mut().emit(
            0,
            FlightEvent::new(FlightKind::WorkerRestart, FlightLayer::Worker, now)
                .with_vals(i as u64, 0),
        );
    }

    /// One watchdog pass: respawn dead workers, sibling wedged ones, flag
    /// the streams they were holding.
    pub(super) fn watchdog(&mut self, kernel: &mut ScapKernel, now: u64) {
        let beats: u64 = self
            .slots
            .iter()
            .map(|sl| sl.heartbeat.load(Ordering::SeqCst))
            .sum();
        kernel.set_worker_heartbeats(beats);
        for i in 0..self.slots.len() {
            if self.slots[i].parked {
                continue;
            }
            // A finished thread while its queue is still open means the
            // thread died: a clean exit only happens after close.
            if self.handles[i].as_ref().is_some_and(|h| h.is_finished()) {
                if self.handles[i].take().is_some_and(|h| h.join().is_err()) {
                    self.slots[i].lost += 1; // the event it was dispatching is gone
                    self.note_panic(kernel, i, now);
                }
                // M failures inside the window: stop respawning.
                if self.tripped(kernel, i, now) {
                    continue;
                }
                // Respawn on the same shared queue; the replacement picks
                // up exactly where the dead worker left off. Scheduled
                // faults are not re-armed for replacements.
                let uid = self.slots[i].current_uid.clone();
                self.handles[i] = Some(self.spawn(i, uid, Vec::new()));
                self.note_restart(kernel, i, now);
                let slot = &mut self.slots[i];
                slot.last_beat = slot.heartbeat.load(Ordering::SeqCst);
                slot.last_beat_at = Instant::now();
                slot.stall_flagged = false;
                continue;
            }

            let slot = &mut self.slots[i];
            let beat = slot.heartbeat.load(Ordering::SeqCst);
            if beat != slot.last_beat {
                slot.last_beat = beat;
                slot.last_beat_at = Instant::now();
                slot.stall_flagged = false;
                continue;
            }
            // Heartbeat flat: wedged if there is (or was) work it should
            // be making progress on.
            let uid = slot.current_uid.load(Ordering::SeqCst);
            let busy = uid != 0 || slot.sent > beat.saturating_add(slot.lost);
            if busy && !slot.stall_flagged && slot.last_beat_at.elapsed() >= STALL_GRACE {
                slot.stall_flagged = true;
                slot.stalls += 1;
                kernel.resilience_mut().worker_stalls_detected += 1;
                kernel.flight_mut().emit(
                    0,
                    FlightEvent::new(FlightKind::WorkerStall, FlightLayer::Worker, now)
                        .with_uid(uid)
                        .with_vals(i as u64, 0),
                );
                if uid != 0 {
                    kernel.flag_stream_error(uid, StreamErrors::WORKER_FAILURE);
                }
                // Same breaker policy for the sibling path: a slot that
                // keeps wedging stops getting fresh threads thrown at it.
                if self.tripped(kernel, i, now) {
                    continue;
                }
                // Threads cannot be killed; leave the wedged worker alone
                // and put a fresh sibling on the same queue so the
                // backlog moves.
                let sibling = self.spawn(i, Arc::new(AtomicU64::new(0)), Vec::new());
                self.extra.push(sibling);
                self.note_restart(kernel, i, now);
            }
        }
    }
}

/// The application's callbacks and sinks, as every worker thread gets
/// them.
#[derive(Clone)]
pub(super) struct WorkerHandlers {
    pub(super) on_create: Option<Handler>,
    pub(super) on_data: Option<Handler>,
    pub(super) on_termination: Option<Handler>,
    pub(super) sinks: Vec<Arc<dyn EventSink>>,
}

impl WorkerHandlers {
    fn dispatch(&self, ev: &Event, ctl: &Sender<ControlOp>) {
        let mut ctx = StreamCtx {
            stream: &ev.stream,
            dir: None,
            data: None,
            data_offset: 0,
            packet_records: &[],
            ctl,
        };
        let handler = match &ev.kind {
            EventKind::Created => {
                for s in &self.sinks {
                    s.on_created(&ev.stream);
                }
                &self.on_create
            }
            EventKind::Data {
                dir,
                chunk,
                packets,
            } => {
                ctx.dir = Some(*dir);
                ctx.data = Some(chunk.bytes());
                ctx.data_offset = chunk.start_offset;
                ctx.packet_records = packets.as_slice();
                for s in &self.sinks {
                    s.on_data(&ev.stream, *dir, chunk.bytes(), chunk.start_offset);
                }
                &self.on_data
            }
            EventKind::Terminated => {
                for s in &self.sinks {
                    s.on_terminated(&ev.stream);
                }
                &self.on_termination
            }
        };
        if let Some(h) = handler {
            h(&ctx);
        }
    }
}
