//! The worker side of a live capture: the threads that run the
//! application's callbacks, the queues that feed them, and the watchdog
//! that keeps a capture alive when they die or wedge.
//!
//! The kernel thread hands each worker slot the events of a burst as one
//! [`Batch`] (one lock and one wake per burst); the worker dispatches it
//! and sends the same buffer back with only the data events left in it,
//! so their chunks return to the arena and the buffer carries a later
//! burst.
//!
//! The watchdog keeps one [`Worker`] record per thread and judges it by
//! a [`Lease`] on the crew's one clock (DESIGN.md §4.1, "Worker failures").

use super::{EventSink, Handler, StreamCtx, WorkerStatus};
use crate::event::{Event, EventKind};
use crate::kernel::{ControlOp, ScapKernel};
use scap_faults::{WorkerFault, WorkerFaultKind};
use scap_flight::{FlightEvent, FlightKind, FlightLayer};
use scap_flow::StreamErrors;
use scap_shard::{CircuitBreaker, Lease};
use scap_telemetry::{AtomicRegistry, Metric, SpanTimer, Stage};
use std::cell::OnceCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

/// How long a thread may hold one event before the watchdog declares it
/// wedged.
const STALL_GRACE: Duration = Duration::from_millis(30);
/// Upper bound on one wait for the workers to catch up.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);
/// Longest such a wait blocks on the release channel before it runs
/// another watchdog pass.
const WATCHDOG_PACE: Duration = Duration::from_millis(2);
/// Set in a heartbeat's uid by the thread's panic hook.
const DYING: u64 = 1 << 63;

/// What a worker slot is handed per burst. It comes back holding only
/// its data events, whose chunks the kernel recycles, to carry a later one.
type Batch = Vec<Event>;

/// A worker slot's queue of batches, shared by every thread on the slot.
/// The lock is held only to move a batch, never across a callback.
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

    /// Queue a batch at the back (the hand-off) or, with `front`, ahead of
    /// everything queued (what a dying worker had not reached yet).
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
        let q = (self.ready).wait_while(self.lock(), |q| q.batches.is_empty() && !q.closed);
        q.unwrap_or_else(|p| p.into_inner()).batches.pop_front()
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
    ended: Arc<Ended>,
}

/// Streams a fault was judged on after the kernel had ended them. Their
/// termination event is already queued behind the faulting one, so the
/// worker that delivers it flags it `WORKER_FAILURE`. (A uid whose
/// termination was itself the faulting event, or was written off, stays:
/// one per such fault.)
#[derive(Default)]
struct Ended(Mutex<Vec<u64>>);

impl Ended {
    fn lock(&self) -> MutexGuard<'_, Vec<u64>> {
        self.0.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Whether `uid` is one of them; it is not any more.
    fn take(&self, uid: u64) -> bool {
        let mut uids = self.lock();
        let at = uids.iter().position(|&u| u == uid);
        at.map(|i| uids.swap_remove(i)).is_some()
    }
}

/// What a worker thread publishes: events it completed, and the uid of
/// the stream whose event it holds (0 = none; [`DYING`] once it panics).
#[derive(Default)]
struct Heartbeat {
    events: AtomicU64,
    uid: AtomicU64,
}

impl Heartbeat {
    fn read(&self) -> (u64, u64) {
        let uid = self.uid.load(Ordering::SeqCst);
        (self.events.load(Ordering::SeqCst), uid)
    }
}

thread_local! {
    static HEARTBEAT: OnceCell<Arc<Heartbeat>> = const { OnceCell::new() };
}

/// Wrap the process's panic hook, once: a worker's panic marks its
/// heartbeat before the old hook runs, which may outlast the grace (the
/// default with `RUST_BACKTRACE` set). A hook set later drops the mark.
fn mark_worker_panics() {
    static WRAP: Once = Once::new();
    WRAP.call_once(|| {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let _ =
                HEARTBEAT.try_with(|h| h.get().map(|b| b.uid.fetch_or(DYING, Ordering::SeqCst)));
            hook(info);
        }));
    });
}

/// A worker thread: dispatch batches from the slot's inbox until it is
/// closed and drained.
fn worker_loop(
    env: &WorkerEnv,
    inbox: &Inbox,
    beat: Arc<Heartbeat>,
    faults: &[WorkerFault],
    shard: usize,
) {
    let beat = HEARTBEAT.with(|h| h.get_or_init(|| beat).clone());
    let mut events = 0u64;
    while let Some(batch) = inbox.pop() {
        let mut held = Held {
            batch,
            next: 0,
            inbox,
            rel: &env.rel,
        };
        while let Some(ev) = held.batch.get_mut(held.next) {
            beat.uid.store(ev.stream.uid, Ordering::SeqCst);
            events += 1;
            for f in faults.iter().filter(|f| f.after_events == events) {
                match f.kind {
                    WorkerFaultKind::Stall(ns) => std::thread::sleep(Duration::from_nanos(ns)),
                    WorkerFaultKind::Panic => panic!("injected worker fault"),
                }
            }
            if matches!(ev.kind, EventKind::Terminated) && env.ended.take(ev.stream.uid) {
                ev.stream.errors.set(StreamErrors::WORKER_FAILURE);
            }
            let span = SpanTimer::start();
            env.handlers.dispatch(ev, &env.ctl);
            span.finish(&env.tele, shard, Stage::Worker);
            env.tele.inc(shard, Metric::WorkerEventsHandled);
            held.next += 1;
            beat.events.store(events, Ordering::SeqCst);
            beat.uid.store(0, Ordering::SeqCst);
        }
    }
}

/// What the watchdog last saw a thread publish, the lease that renewed,
/// and whether the fault it is in was judged.
struct Watch {
    seen: (u64, u64),
    lease: Lease,
    judged: bool,
}

impl Watch {
    /// A thread starts idle: the first event it takes renews the lease.
    fn new() -> Self {
        Watch {
            seen: (0, 0),
            lease: Lease::new(STALL_GRACE.as_nanos() as u64, 0),
            judged: false,
        }
    }

    /// The verdict on a thread whose heartbeat reads `seen` at `now` ns on
    /// the crew's clock, `ended` once joined (`Some(true)`: it panicked): a
    /// fault not judged yet — one event held past the grace, or a panic —
    /// or `None`. Plain data in, no clock read.
    fn judge(&mut self, seen: (u64, u64), ended: Option<bool>, now: u64) -> Option<FlightKind> {
        let (moved, dying) = ((seen.0, seen.1 & !DYING), seen.1 & DYING != 0);
        if moved != self.seen {
            // It completed or took an event (a panic hook's mark is no move).
            (self.seen, self.judged) = (moved, false);
            self.lease.beat(now);
        } else if moved.1 != 0 {
            self.lease.offered(); // still on the same event
        }
        let fault = match ended {
            Some(panicked) => panicked.then_some(FlightKind::WorkerPanic),
            None if dying || !self.lease.expired(now) => None,
            None => Some(FlightKind::WorkerStall),
        };
        let fresh = fault.filter(|_| !self.judged);
        self.judged |= fresh.is_some();
        fresh
    }
}

struct Worker<'scope> {
    thread: ScopedJoinHandle<'scope, ()>,
    beat: Arc<Heartbeat>,
    watch: Watch,
}

/// One worker slot's bookkeeping on the kernel thread.
struct WorkerSlot<'scope> {
    inbox: Arc<Inbox>,
    /// Events of the burst in progress, handed over at its end.
    batch: Batch,
    /// The first thread, replacements, and wedged threads still running.
    threads: Vec<Worker<'scope>>,
    /// Its outcome (`events_handled`: by threads joined so far).
    st: WorkerStatus,
    /// Too many faults inside its window trip it and park the slot: no
    /// more threads, and what reaches its closed queue is written off.
    breaker: CircuitBreaker,
}

impl WorkerSlot<'_> {
    fn handled(&self) -> u64 {
        self.st.events_handled + self.threads.iter().map(|w| w.beat.read().0).sum::<u64>()
    }

    /// Events sent, neither handled nor written off yet.
    fn owed(&self) -> u64 {
        (self.st.events_sent).saturating_sub(self.handled() + self.st.events_lost)
    }
}

fn journal(kernel: &mut ScapKernel, kind: FlightKind, now: u64, uid: u64, i: usize, b: u64) {
    let ev = FlightEvent::new(kind, FlightLayer::Worker, now).with_uid(uid);
    kernel.flight_mut().emit(0, ev.with_vals(i as u64, b));
}

/// The worker side of a capture as the kernel thread sees it.
pub(super) struct Crew<'scope, 'env> {
    scope: &'scope Scope<'scope, 'env>,
    env: WorkerEnv,
    /// The watchdog's clock, read once per pass.
    epoch: Instant,
    slots: Vec<WorkerSlot<'scope>>,
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
        breaker: CircuitBreaker,
        faults: &[WorkerFault],
    ) -> Self {
        let (ctl, ctl_rx) = channel();
        let (rel, rel_rx) = channel();
        // Worker-side telemetry is shared across threads: the atomic
        // backend, one shard per slot (the kernel's stay plain).
        let tele = Arc::new(AtomicRegistry::new(nworkers));
        mark_worker_panics();
        let mut crew = Crew {
            scope,
            env: WorkerEnv {
                handlers,
                ctl,
                rel,
                tele,
                ended: Arc::default(),
            },
            epoch: Instant::now(),
            slots: Vec::with_capacity(nworkers),
            spare: Vec::new(),
            ctl_rx,
            rel_rx,
        };
        for w in 0..nworkers {
            let st = WorkerStatus {
                worker: w,
                panics: 0,
                stalls: 0,
                restarts: 0,
                events_sent: 0,
                events_handled: 0,
                events_lost: 0,
            };
            crew.slots.push(WorkerSlot {
                inbox: Arc::default(),
                batch: Batch::new(),
                threads: Vec::new(),
                st,
                breaker: breaker.clone(),
            });
            let armed = faults.iter().copied().filter(|f| f.worker == w).collect();
            crew.spawn(w, armed);
        }
        crew
    }

    /// Close the queues, join every thread (workers drain what is queued
    /// first), collect the last control operations and chunks, and report.
    pub(super) fn finish(
        mut self,
        kernel: &mut ScapKernel,
        now: u64,
    ) -> (Vec<WorkerStatus>, scap_telemetry::Snapshot) {
        let clock = self.clock_ns();
        self.slots.iter().for_each(|sl| sl.inbox.close());
        for i in 0..self.slots.len() {
            // A death after the last pass is judged here; a replacement
            // drains the closed queue.
            while let Some(w) = self.slots[i].threads.pop() {
                self.bury(kernel, i, w, now, clock);
            }
            self.write_off(kernel, i);
        }
        self.drain_control(kernel);
        self.drain_released(kernel);
        let statuses: Vec<WorkerStatus> = self.slots.iter().map(|sl| sl.st).collect();
        kernel.set_worker_heartbeats(statuses.iter().map(|st| st.events_handled).sum());
        (statuses, self.telemetry())
    }

    /// Snapshot of the workers' telemetry (stage spans, events handled).
    pub(super) fn telemetry(&self) -> scap_telemetry::Snapshot {
        self.env.tele.snapshot()
    }

    fn clock_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Put a thread on slot `i`'s queue with `faults` armed on it.
    fn spawn(&mut self, i: usize, faults: Vec<WorkerFault>) {
        let (env, inbox) = (self.env.clone(), self.slots[i].inbox.clone());
        let beat = Arc::new(Heartbeat::default());
        let b = beat.clone();
        let thread = (self.scope).spawn(move || worker_loop(&env, &inbox, b, &faults, i));
        self.slots[i].threads.push(Worker {
            thread,
            beat,
            watch: Watch::new(),
        });
    }

    /// Route one kernel event to its worker slot's pending batch.
    pub(super) fn fan_out(&mut self, ev: Event) {
        let n = self.slots.len();
        let slot = &mut self.slots[ev.core % n];
        slot.st.events_sent += 1;
        slot.batch.push(ev);
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

    /// Wait — still watching for deaths and stalls, which would hold it
    /// hostage — until no slot owes more than `allow` events.
    pub(super) fn catch_up(&mut self, kernel: &mut ScapKernel, now: u64, allow: u64) {
        // Not behind is the usual case under overload, once per packet.
        let mut deadline = None;
        while self.slots.iter().any(|sl| sl.owed() > allow) {
            let clock = self.clock_ns();
            if clock > *deadline.get_or_insert(clock + DRAIN_DEADLINE.as_nanos() as u64) {
                break;
            }
            self.pass(kernel, now, clock);
            self.drain_control(kernel);
            // Every finished batch comes back on the release channel, so
            // block there; the timeout paces the watchdog.
            if let Ok(batch) = self.rel_rx.recv_timeout(WATCHDOG_PACE) {
                self.recycle(kernel, batch);
            }
        }
    }

    pub(super) fn watchdog(&mut self, kernel: &mut ScapKernel, now: u64) {
        let clock = self.clock_ns();
        self.pass(kernel, now, clock);
    }

    /// A pass at `clock` on the crew's clock; `now` is the trace time the
    /// journal and the breakers read.
    fn pass(&mut self, kernel: &mut ScapKernel, now: u64, clock: u64) {
        kernel.set_worker_heartbeats(self.slots.iter().map(WorkerSlot::handled).sum());
        for i in 0..self.slots.len() {
            let mut j = 0;
            while let Some(w) = self.slots[i].threads.get_mut(j) {
                if w.thread.is_finished() {
                    let w = self.slots[i].threads.swap_remove(j);
                    self.bury(kernel, i, w, now, clock);
                    continue;
                }
                let seen = w.beat.read();
                j += 1;
                // A wedged thread cannot be killed: it stays, and a fresh
                // one moves the queue.
                if let Some(kind) = w.watch.judge(seen, None, clock) {
                    self.fault(kernel, i, kind, seen.1, now);
                }
            }
            self.write_off(kernel, i);
        }
    }

    /// Join an ended thread of slot `i`: a panic writes off the event it
    /// held.
    fn bury(&mut self, kernel: &mut ScapKernel, i: usize, mut w: Worker, now: u64, clock: u64) {
        let panicked = w.thread.join().is_err();
        let seen = w.beat.read();
        self.slots[i].st.events_handled += seen.0;
        self.slots[i].st.events_lost += u64::from(panicked);
        if let Some(kind) = w.watch.judge(seen, Some(panicked), clock) {
            self.fault(kernel, i, kind, seen.1, now);
        }
    }

    /// A fault's one verdict on slot `i` (`WorkerPanic` or `WorkerStall`):
    /// count and journal it, flag the stream the thread held (or, if the
    /// kernel has ended it, its termination event), and put a fresh thread
    /// (no faults armed) on the queue, unless the fault trips the slot's
    /// breaker.
    fn fault(&mut self, kernel: &mut ScapKernel, i: usize, kind: FlightKind, uid: u64, now: u64) {
        let (slot, r, uid) = (&mut self.slots[i], kernel.resilience_mut(), uid & !DYING);
        if kind == FlightKind::WorkerPanic {
            slot.st.panics += 1;
            r.worker_panics += 1;
        } else {
            slot.st.stalls += 1;
            r.worker_stalls_detected += 1;
        }
        journal(kernel, kind, now, uid, i, 0);
        if uid != 0 && !kernel.flag_stream_error(uid, StreamErrors::WORKER_FAILURE) {
            self.env.ended.lock().push(uid);
        }
        if slot.breaker.is_tripped() {
            return;
        }
        if slot.breaker.record_failure(now) {
            slot.inbox.close();
            let fails = u64::from(slot.breaker.failures_in_window());
            kernel.resilience_mut().watchdog_breaker_trips += 1;
            journal(kernel, FlightKind::BreakerTripped, now, 0, i, fails);
            return;
        }
        slot.st.restarts += 1;
        kernel.resilience_mut().worker_restarts += 1;
        journal(kernel, FlightKind::WorkerRestart, now, 0, i, 0);
        self.spawn(i, Vec::new());
    }

    /// Recycle what is queued on slot `i`, once parked, as lost.
    fn write_off(&mut self, kernel: &mut ScapKernel, i: usize) {
        if !self.slots[i].breaker.is_tripped() {
            return;
        }
        let queued = std::mem::take(&mut self.slots[i].inbox.lock().batches);
        for batch in queued {
            self.slots[i].st.events_lost += batch.len() as u64;
            self.recycle(kernel, batch);
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
        let stream = &ev.stream;
        let (handler, dir, chunk, packet_records) = match &ev.kind {
            EventKind::Created => {
                self.sinks.iter().for_each(|s| s.on_created(stream));
                (&self.on_create, None, None, &[][..])
            }
            EventKind::Data {
                dir,
                chunk,
                packets,
            } => {
                let (data, at) = (chunk.bytes(), chunk.start_offset);
                self.sinks
                    .iter()
                    .for_each(|s| s.on_data(stream, *dir, data, at));
                (&self.on_data, Some(*dir), Some(chunk), &packets[..])
            }
            EventKind::Terminated => {
                self.sinks.iter().for_each(|s| s.on_terminated(stream));
                (&self.on_termination, None, None, &[][..])
            }
        };
        if let Some(h) = handler {
            h(&StreamCtx {
                stream,
                dir,
                data: chunk.map(|c| c.bytes()),
                data_offset: chunk.map_or(0, |c| c.start_offset),
                packet_records,
                ctl,
            });
        }
    }
}

#[cfg(test)]
mod tests;
