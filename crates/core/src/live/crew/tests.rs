//! The watchdog on a manual clock. The worker threads are real, but each
//! callback holds its event until the test lets it go, and every pass
//! runs at a clock time the test picks: nothing here sleeps or reads the
//! wall clock, so what a schedule is judged is fixed by the schedule.

use super::*;
use crate::config::ScapConfig;
use proptest::prelude::*;
use scap_trace::Packet;
use scap_wire::PacketBuilder;
use std::collections::HashMap;

const GRACE: u64 = STALL_GRACE.as_nanos() as u64;
/// Longest clock step between two passes.
const STEP: u64 = GRACE / 4;

/// What a callback does with its event, timed on the test's clock from
/// the moment the test saw it enter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Act {
    /// Returns after this long: slow, but it lets go before a pass could
    /// see it hold past the grace (≤ `GRACE - STEP`).
    Live(u64),
    /// Wedged this long — long enough for a pass to see it past the grace
    /// (> `GRACE + 2 STEP`) — then returns.
    Stall(u64),
    /// Panics after `hold` (≤ `GRACE - STEP`); its unwinding then takes
    /// `unwind` more.
    Panic { hold: u64, unwind: u64 },
}

/// How far each event's callback may go: 1 = return (or panic), 2 = let
/// the unwinding finish.
#[derive(Default)]
struct Gates {
    stage: Mutex<HashMap<u64, u8>>,
    moved: Condvar,
}

impl Gates {
    fn lock(&self) -> MutexGuard<'_, HashMap<u64, u8>> {
        self.stage.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn open(&self, uid: u64, stage: u8) {
        self.lock().insert(uid, stage);
        self.moved.notify_all();
    }

    fn at(&self, uid: u64) -> u8 {
        self.lock().get(&uid).copied().unwrap_or(0)
    }

    fn wait(&self, uid: u64, stage: u8) {
        let mut g = self.lock();
        while g.get(&uid).copied().unwrap_or(0) < stage {
            g = self.moved.wait(g).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// Holds a panicking callback's unwinding at gate stage 2.
struct Unwind<'a>(&'a Gates, u64);

impl Drop for Unwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.wait(self.1, 2);
        }
    }
}

/// A kernel holding `n` streams, and the creation event of each.
fn streams(n: usize) -> (ScapKernel, Vec<Event>) {
    let mut kernel = ScapKernel::new(ScapConfig {
        cores: 1,
        ..ScapConfig::default()
    });
    for port in 0..n as u16 {
        let frame = PacketBuilder::udp_v4([10, 0, 0, 1], [10, 0, 0, 2], 1000 + port, 53, b"q");
        kernel.nic_receive(&Packet::new(1, frame));
    }
    let mut created = Vec::new();
    kernel.service(1, |k, ev| match ev.kind {
        EventKind::Created => created.push(ev),
        _ => k.release_event(ev),
    });
    assert_eq!(created.len(), n);
    (kernel, created)
}

/// What a schedule was judged.
struct Outcome {
    /// `(uid, WorkerPanic | WorkerStall)` for each verdict journaled.
    verdicts: Vec<(u64, FlightKind)>,
    /// The verdict each fault that fired should get.
    fired: Vec<(u64, FlightKind)>,
    resilience: crate::kernel::ResilienceStats,
    statuses: Vec<WorkerStatus>,
}

/// Run `plan` (each event's worker slot and act) on `workers` slots. A
/// hand-off follows event `e` when bit `e` of `cuts` is set, passes run
/// at clock steps cycling through `steps`, and a slot's breaker trips at
/// its `threshold`-th fault.
fn run(workers: usize, plan: &[(usize, Act)], cuts: u64, steps: &[u64], threshold: u32) -> Outcome {
    let (mut kernel, events) = streams(plan.len());
    let acts: HashMap<u64, Act> = events
        .iter()
        .zip(plan)
        .map(|(ev, p)| (ev.stream.uid, p.1))
        .collect();
    let gates = Arc::new(Gates::default());
    let (entered, entries) = channel();
    let callback: Handler = {
        let (gates, acts) = (gates.clone(), acts.clone());
        Arc::new(move |ctx: &StreamCtx<'_>| {
            let uid = ctx.stream.uid;
            let _ = entered.send(uid);
            let _unwind = Unwind(&gates, uid);
            gates.wait(uid, 1);
            if let Act::Panic { .. } = acts[&uid] {
                panic!("scheduled fault");
            }
        })
    };
    let handlers = WorkerHandlers {
        on_create: Some(callback),
        on_data: None,
        on_termination: None,
        sinks: Vec::new(),
    };
    let breaker = CircuitBreaker::new(threshold, u64::MAX);
    let mut seen_at: HashMap<u64, u64> = HashMap::new();
    let (statuses, _) = std::thread::scope(|s| {
        let mut crew = Crew::start(s, handlers, workers, breaker, &[]);
        for (e, (mut ev, &(slot, _))) in events.into_iter().zip(plan).enumerate() {
            ev.core = slot;
            crew.fan_out(ev);
            if cuts >> (e % 64) & 1 == 1 {
                crew.hand_off();
            }
        }
        crew.hand_off();
        // A live thread that holds `uid` and has not begun to panic.
        let holds = |crew: &Crew, uid: u64| {
            crew.slots.iter().flat_map(|sl| &sl.threads).any(|w| {
                w.beat.read().1 == uid && !w.thread.is_finished() // DYING unset
            })
        };
        let mut clock = 0;
        for step in steps.iter().cycle() {
            if crew.slots.iter().all(|sl| sl.owed() == 0) {
                break;
            }
            // Every event a thread can be seen holding has been seen
            // entering: its hold is timed from no later than the pass
            // that first sees it.
            loop {
                while let Ok(uid) = entries.try_recv() {
                    seen_at.entry(uid).or_insert(clock);
                }
                let threads = crew.slots.iter().flat_map(|sl| &sl.threads);
                let held = threads.map(|w| w.beat.read().1 & !DYING);
                if held
                    .filter(|&uid| uid != 0)
                    .all(|uid| seen_at.contains_key(&uid))
                {
                    break;
                }
                std::thread::yield_now();
            }
            clock += step;
            for (&uid, &at) in &seen_at {
                let (end, unwound) = match acts[&uid] {
                    Act::Live(d) | Act::Stall(d) => (d, d),
                    Act::Panic { hold, unwind } => (hold, hold + unwind),
                };
                if clock - at >= end && gates.at(uid) < 1 {
                    gates.open(uid, 1);
                    // Let it go before the pass looks: a callback that has
                    // returned, or begun to panic, shows it.
                    while holds(&crew, uid) {
                        std::thread::yield_now();
                    }
                }
                if clock - at >= unwound && gates.at(uid) < 2 {
                    gates.open(uid, 2);
                }
            }
            crew.pass(&mut kernel, clock, clock);
            std::thread::yield_now();
        }
        crew.finish(&mut kernel, clock)
    });
    let mut verdicts: Vec<(u64, FlightKind)> = (kernel.flight().events().into_iter())
        .filter(|e| matches!(e.kind, FlightKind::WorkerPanic | FlightKind::WorkerStall))
        .map(|e| (e.uid, e.kind))
        .collect();
    verdicts.sort_by_key(|v| v.0);
    let mut fired: Vec<(u64, FlightKind)> = (seen_at.keys())
        .filter_map(|&uid| match acts[&uid] {
            Act::Live(_) => None,
            Act::Stall(_) => Some((uid, FlightKind::WorkerStall)),
            Act::Panic { .. } => Some((uid, FlightKind::WorkerPanic)),
        })
        .collect();
    fired.sort_by_key(|v| v.0);
    Outcome {
        verdicts,
        fired,
        resilience: kernel.stats().resilience,
        statuses,
    }
}

/// One fault, one verdict: every fault that fired is judged once, as
/// what it was; no live callback is judged; each verdict puts one fresh
/// thread on the queue until the breaker trips; and every event sent is
/// handled or written off, exactly once.
fn one_fault_one_verdict(o: &Outcome) {
    assert_eq!(o.verdicts, o.fired);
    let r = &o.resilience;
    let faults = o.fired.len() as u64;
    assert_eq!(r.worker_panics + r.worker_stalls_detected, faults, "{r:?}");
    if r.watchdog_breaker_trips == 0 {
        assert_eq!(r.worker_restarts, faults, "{r:?}");
    } else {
        assert!(r.worker_restarts < faults, "{r:?}");
    }
    for st in &o.statuses {
        assert_eq!(st.events_sent, st.events_handled + st.events_lost, "{st:?}");
    }
}

proptest! {
    /// Random schedules: 1–3 workers; live, wedged and panicking
    /// callbacks at random event ordinals; passes at random clock steps;
    /// breakers that trip at the first to fifth fault.
    #[test]
    fn each_fault_gets_one_verdict(
        workers in 1usize..4,
        plan in proptest::collection::vec((0usize..3, 0u8..5, 0..u64::MAX, 0..u64::MAX), 1..13),
        cuts: u64,
        steps in proptest::collection::vec(1u64..STEP + 1, 1..8),
        threshold in 1u32..6,
    ) {
        let plan: Vec<(usize, Act)> = (plan.iter())
            .map(|&(slot, kind, a, b)| {
                let act = match kind {
                    0 | 1 => Act::Live(a % (GRACE - STEP + 1)),
                    2 => Act::Stall(GRACE + 2 * STEP + 1 + a % (2 * GRACE)),
                    3 => Act::Panic { hold: a % (GRACE - STEP + 1), unwind: 0 },
                    _ => Act::Panic { hold: a % (GRACE - STEP + 1), unwind: b % (3 * GRACE) },
                };
                (slot % workers, act)
            })
            .collect();
        one_fault_one_verdict(&run(workers, &plan, cuts, &steps, threshold));
    }
}

/// A wedged worker is judged once. Its sibling drains the queue, and the
/// slot goes quiet while the wedged thread still holds its event: pass
/// after pass, nothing new is judged and no second sibling is spawned.
#[test]
fn a_wedged_worker_is_judged_once_while_its_sibling_drains_the_queue() {
    let mut plan = vec![(0, Act::Stall(20 * GRACE))];
    plan.extend([(0, Act::Live(0)); 6]);
    let o = run(1, &plan, u64::MAX, &[STEP], 8);
    one_fault_one_verdict(&o);
    assert_eq!(o.verdicts.len(), 1);
    assert_eq!(o.verdicts[0].1, FlightKind::WorkerStall);
    let w = o.statuses[0];
    assert_eq!(
        (w.stalls, w.panics, w.restarts, w.events_lost),
        (1, 0, 1, 0)
    );
    assert_eq!(w.events_handled, 7);
}

/// A worker that takes long to die is judged once, as a panic: it holds
/// its event, unmoving, for many times the grace while it unwinds, and
/// is neither judged wedged nor counted twice.
#[test]
fn a_panic_slow_to_unwind_is_one_panic() {
    let plan = [
        (0, Act::Live(0)),
        (
            0,
            Act::Panic {
                hold: 0,
                unwind: 20 * GRACE,
            },
        ),
        (0, Act::Live(0)),
        (0, Act::Live(0)),
    ];
    let o = run(1, &plan, 0, &[STEP], 8);
    one_fault_one_verdict(&o);
    assert_eq!(o.verdicts.len(), 1);
    assert_eq!(o.verdicts[0].1, FlightKind::WorkerPanic);
    let w = o.statuses[0];
    assert_eq!(
        (w.stalls, w.panics, w.restarts, w.events_lost),
        (0, 1, 1, 1)
    );
    assert_eq!(w.events_handled, 3);
}

/// A worker judged wedged that then dies without moving again is not
/// judged again: the event it held is written off, with no second
/// verdict and no second replacement. A panic hook's mark neither moves
/// a thread nor lets it be judged wedged.
#[test]
fn a_wedged_worker_that_dies_is_not_judged_twice() {
    const STALL: Option<FlightKind> = Some(FlightKind::WorkerStall);
    let wedged = (3, 42);
    let mut watch = Watch::new();
    assert_eq!(watch.judge(wedged, None, 1), None);
    assert_eq!(watch.judge(wedged, None, 1 + GRACE), None);
    assert_eq!(watch.judge(wedged, None, 2 + GRACE), STALL);
    assert_eq!(watch.judge(wedged, None, 100 * GRACE), None);
    assert_eq!(watch.judge((3, 42 | DYING), None, 101 * GRACE), None);
    assert_eq!(watch.judge((3, 42 | DYING), Some(true), 102 * GRACE), None);
    // Had it moved before dying, the panic would be a fault of its own.
    let mut watch = Watch::new();
    assert_eq!(watch.judge(wedged, None, 1), None);
    assert_eq!(watch.judge(wedged, None, 2 + GRACE), STALL);
    let died = watch.judge((4, 43 | DYING), Some(true), 3 + GRACE);
    assert_eq!(died, Some(FlightKind::WorkerPanic));
    // Dying, a thread is not judged wedged however long its hook takes.
    let mut watch = Watch::new();
    assert_eq!(watch.judge((0, 7 | DYING), None, 1), None);
    assert_eq!(watch.judge((0, 7 | DYING), None, 100 * GRACE), None);
}
