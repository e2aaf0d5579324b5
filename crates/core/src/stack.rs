//! The simulation driver: wires [`ScapKernel`] into the discrete-time
//! engine and runs a real application model on top.
//!
//! Scheduling per tick mirrors the paper's §4.2 layout: a kernel thread
//! per core drains its own RX ring (softirq priority), and worker threads
//! pinned one-per-core consume the event queues their core produced
//! (locality by construction). With fewer workers than cores — the
//! single-worker comparison experiments — each worker round-robins over
//! the queues it covers.

use crate::event::{Event, EventKind};
use crate::kernel::ScapKernel;
use scap_sim::{CacheSim, CaptureStack, CoreBudgets, CostModel, StackStats, Work};
use scap_telemetry::{Metric, Stage};
use scap_trace::Packet;
#[allow(unused_imports)]
use CacheSim as _CacheSimUsed;

/// A user-level application under simulation.
///
/// `on_event` runs the application's *real* logic (e.g. Aho–Corasick over
/// the delivered chunk) and returns the work receipt for the cost model.
pub trait SimApp {
    /// Handle one event; return the user-side work it cost.
    fn on_event(&mut self, ev: &Event) -> Work;
    /// Total pattern matches found so far (0 for non-matching apps).
    fn matches(&self) -> u64 {
        0
    }
}

/// The Scap capture stack under simulation.
pub struct ScapSimStack<A: SimApp> {
    kernel: ScapKernel,
    app: A,
    nworkers: usize,
    events_delivered: u64,
}

impl<A: SimApp> ScapSimStack<A> {
    /// Wrap a kernel and an application; `nworkers` worker threads are
    /// pinned to cores `0..nworkers`.
    pub fn new(kernel: ScapKernel, app: A) -> Self {
        let nworkers = kernel.config().worker_threads.max(1);
        ScapSimStack {
            kernel,
            app,
            nworkers,
            events_delivered: 0,
        }
    }

    /// Attach a cache model (the Fig. 7 locality experiment): the kernel
    /// traces its touches (frame headers, flow records, chunk writes into
    /// stream-specific regions) and the worker's chunk reads follow —
    /// Scap's locality argument made literal.
    pub fn with_cache(mut self, cache: CacheSim) -> Self {
        self.kernel.set_cache(cache);
        self
    }

    /// Total cache misses recorded (when a cache model is attached).
    pub fn cache_misses(&self) -> u64 {
        self.kernel.cache_misses()
    }

    /// Access the kernel (inspection in tests/harness).
    pub fn kernel(&self) -> &ScapKernel {
        &self.kernel
    }

    /// Access the application model.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Split one kernel work receipt into per-stage virtual-cycle spans
    /// and record them into the kernel's telemetry registry. The same
    /// stage histograms hold wall-clock nanoseconds under the live
    /// driver; here they hold deterministic virtual cycles, so a seeded
    /// run always produces identical telemetry.
    fn record_kernel_spans(kernel: &ScapKernel, model: &CostModel, core: usize, w: &Work) {
        let tele = kernel.telemetry();
        let nic = w.k_packets as f64 * model.cyc_k_packet;
        let kern = w.k_hash_probes as f64 * model.cyc_k_hash_probe
            + w.k_bytes_touched as f64 * model.cyc_k_byte_touch
            + w.k_fdir_ops as f64 * model.cyc_k_fdir_op
            + w.k_timer_ops as f64 * model.cyc_k_timer_op;
        let mem = w.k_bytes_copied as f64 * model.cyc_k_byte_copy;
        let evq = w.k_events as f64 * model.cyc_k_event;
        let fp =
            w.fp_bursts as f64 * model.cyc_fp_burst + w.fp_packets as f64 * model.cyc_fp_packet;
        for (stage, cyc) in [
            (Stage::Nic, nic),
            (Stage::Kernel, kern),
            (Stage::Memory, mem),
            (Stage::EventQueue, evq),
            (Stage::Fastpath, fp),
        ] {
            if cyc > 0.0 {
                tele.record_stage(core, stage, cyc as u64);
            }
        }
    }

    fn deliver(kernel: &mut ScapKernel, app: &mut A, ev: Event, now_ns: u64) -> Work {
        kernel.note_delivery(&ev, now_ns);
        let mut w = Work {
            u_events: 1,
            ..Default::default()
        };
        if let EventKind::Data { chunk, .. } = &ev.kind {
            // The worker reads the chunk the kernel just wrote — on the
            // same core, still warm (the §6.5.2 locality effect).
            w.u_cache_misses += kernel.user_touch_chunk(chunk);
        }
        let app_work = app.on_event(&ev);
        w.add(&app_work);
        if let EventKind::Data { chunk, dir, .. } = ev.kind {
            kernel.release_data(ev.stream.uid, dir, chunk);
        }
        w
    }
}

impl<A: SimApp> CaptureStack for ScapSimStack<A> {
    fn tick(&mut self, now_ns: u64, packets: &[Packet], budgets: &mut CoreBudgets) {
        // Stages 1+2 interleaved — NIC admission (hardware, unbudgeted)
        // with immediate softirq drain while the core has budget. The
        // interleaving matters for dynamics *within* a tick: softirq runs
        // concurrently with arrival on real hardware, so a flow-director
        // filter installed in response to packet N must already drop
        // packet N+1, not take effect a tick later.
        let ncores = self.kernel.ncores();
        let model = *budgets.model();
        for p in packets {
            let verdict = self.kernel.nic_receive(p);
            if let Some(q) = verdict.queue() {
                while budgets.can_run(q) {
                    match self.kernel.poll(q, now_ns) {
                        Some(w) => {
                            budgets.charge_kernel(q, &w);
                            Self::record_kernel_spans(&self.kernel, &model, q, &w);
                        }
                        None => break,
                    }
                }
            }
        }
        // Timers, plus backlog drain on cores that regained budget.
        for core in 0..ncores {
            let tw = self.kernel.kernel_timers(core, now_ns);
            budgets.charge_kernel(core, &tw);
            Self::record_kernel_spans(&self.kernel, &model, core, &tw);
            while budgets.can_run(core) {
                match self.kernel.poll(core, now_ns) {
                    Some(w) => {
                        budgets.charge_kernel(core, &w);
                        Self::record_kernel_spans(&self.kernel, &model, core, &w);
                    }
                    None => break,
                }
            }
        }

        // Stage 3 — workers: each pinned to its core, consuming the event
        // queues it covers with whatever budget softirq left.
        for worker in 0..self.nworkers {
            // One poll syscall per tick with pending work.
            let mut polled = false;
            let mut queue_offset = 0;
            while budgets.can_run(worker) {
                // Find the next covered queue with an event.
                let mut ev = None;
                for i in 0..ncores {
                    let q = (queue_offset + i) % ncores;
                    if q % self.nworkers != worker {
                        continue;
                    }
                    if let Some(e) = self.kernel.next_event(q) {
                        queue_offset = q + 1;
                        ev = Some(e);
                        break;
                    }
                }
                let Some(ev) = ev else { break };
                if !polled {
                    budgets.charge_user(
                        worker,
                        &Work {
                            u_syscalls: 1,
                            ..Default::default()
                        },
                    );
                    polled = true;
                }
                self.events_delivered += 1;
                let w = Self::deliver(&mut self.kernel, &mut self.app, ev, now_ns);
                budgets.charge_user(worker, &w);
                // Shard by worker, clamped into the per-core registry
                // (workers normally number at most the cores).
                let shard = worker % ncores;
                let tele = self.kernel.telemetry();
                tele.inc(shard, Metric::WorkerEventsHandled);
                tele.record_stage(shard, Stage::Worker, model.user_cycles(&w) as u64);
            }
        }
        self.kernel.set_worker_heartbeats(self.events_delivered);
    }

    fn finish(&mut self, now_ns: u64) {
        self.kernel.finish(now_ns);
        // Post-run catch-up: remaining queued events are processed
        // unbudgeted so final accounting (streams, matches) is complete.
        for q in 0..self.kernel.ncores() {
            let worker = q % self.nworkers;
            while let Some(ev) = self.kernel.next_event(q) {
                self.events_delivered += 1;
                Self::deliver(&mut self.kernel, &mut self.app, ev, now_ns);
                self.kernel
                    .telemetry()
                    .inc(worker, Metric::WorkerEventsHandled);
            }
        }
        self.kernel.set_worker_heartbeats(self.events_delivered);
    }

    fn stats(&self) -> StackStats {
        let mut s = self.kernel.stats().stack;
        s.matches = self.app.matches();
        s.events_delivered = self.events_delivered;
        s
    }
}

/// Built-in application models used by the experiments.
pub mod apps {
    use super::SimApp;
    use crate::event::{Event, EventKind};
    use scap_patterns::{AhoCorasick, MatcherState};
    use scap_sim::Work;
    use std::collections::HashMap;

    /// §3.3.1 — flow statistics export: no data is consumed at all; the
    /// termination callback reads counters from the snapshot.
    #[derive(Default)]
    pub struct FlowStatsApp {
        /// Exported flow records: (key, bytes, pkts).
        pub exported: u64,
        /// Total bytes across exported flows (wire bytes, incl. FDIR
        /// estimates).
        pub exported_bytes: u64,
    }

    impl SimApp for FlowStatsApp {
        fn on_event(&mut self, ev: &Event) -> Work {
            if matches!(ev.kind, EventKind::Terminated) {
                self.exported += 1;
                self.exported_bytes += ev.stream.total_bytes();
            }
            // Reading a handful of snapshot fields: negligible beyond the
            // event dispatch the stack already charges.
            Work::default()
        }
    }

    /// §6.3 — stream delivery: receive all stream data, touch every byte,
    /// no further processing.
    #[derive(Default)]
    pub struct StreamTouchApp {
        /// Total delivered bytes observed.
        pub bytes: u64,
    }

    impl SimApp for StreamTouchApp {
        fn on_event(&mut self, ev: &Event) -> Work {
            let n = ev.data_len() as u64;
            self.bytes += n;
            Work {
                u_bytes_touched: n,
                ..Default::default()
            }
        }
    }

    /// §3.3.2 / §6.5 — pattern matching over reassembled streams, with
    /// per-stream-direction matcher state carried across chunks.
    pub struct PatternMatchApp {
        ac: AhoCorasick,
        states: HashMap<(u64, u8), MatcherState>,
        matches: u64,
        /// Scan delivered per-packet payloads instead of the chunk
        /// (§6.5.3, "Scap with packets").
        pub per_packet: bool,
    }

    impl PatternMatchApp {
        /// Build from a compiled automaton.
        pub fn new(ac: AhoCorasick) -> Self {
            PatternMatchApp {
                ac,
                states: HashMap::new(),
                matches: 0,
                per_packet: false,
            }
        }
    }

    impl SimApp for PatternMatchApp {
        fn on_event(&mut self, ev: &Event) -> Work {
            match &ev.kind {
                EventKind::Data {
                    dir,
                    chunk,
                    packets,
                } => {
                    let key = (ev.stream.uid, dir.index() as u8);
                    let st = self.states.entry(key).or_default();
                    if self.per_packet {
                        // Packet-based processing: scan each packet's
                        // payload slice out of the chunk. Patterns
                        // spanning packets may be missed (the observed
                        // small accuracy dip in Fig. 6b).
                        let mut n = 0u64;
                        for pr in packets {
                            if pr.chunk_off == u32::MAX {
                                continue;
                            }
                            let start =
                                (pr.chunk_off as u64).saturating_sub(chunk.start_offset) as usize;
                            let end = (start + pr.payload_len as usize).min(chunk.len());
                            if start >= end {
                                continue;
                            }
                            let mut local = MatcherState::new();
                            n += self.ac.count(&mut local, &chunk.bytes()[start..end]);
                        }
                        self.matches += n;
                        Work {
                            u_bytes_scanned: chunk.len() as u64,
                            ..Default::default()
                        }
                    } else {
                        self.matches += self.ac.count(st, chunk.bytes());
                        Work {
                            u_bytes_scanned: chunk.len() as u64,
                            ..Default::default()
                        }
                    }
                }
                EventKind::Terminated => {
                    self.states.remove(&(ev.stream.uid, 0));
                    self.states.remove(&(ev.stream.uid, 1));
                    Work::default()
                }
                EventKind::Created => Work::default(),
            }
        }

        fn matches(&self) -> u64 {
            self.matches
        }
    }
}

#[cfg(test)]
mod tests {
    use super::apps::*;
    use super::*;
    use crate::config::ScapConfig;
    use scap_patterns::AhoCorasick;
    use scap_sim::{Engine, EngineConfig};
    use scap_trace::gen::{CampusMix, CampusMixConfig};
    use std::sync::Arc;

    fn engine() -> Engine {
        Engine::new(EngineConfig::default())
    }

    #[test]
    fn flow_stats_app_exports_every_stream() {
        let trace = CampusMix::new(CampusMixConfig::sized(3, 2 << 20)).collect_all();
        let expected = scap_trace::stats::TraceStats::from_packets(trace.iter()).flows;
        let kernel = ScapKernel::new(ScapConfig {
            cutoff: crate::config::CutoffPolicy {
                default: Some(0),
                ..Default::default()
            },
            ..Default::default()
        });
        let mut stack = ScapSimStack::new(kernel, FlowStatsApp::default());
        let report = engine().run(trace, &mut stack);
        assert_eq!(report.stats.dropped_packets, 0);
        assert_eq!(stack.app().exported, expected);
        // Flow-stats export with zero cutoff keeps user CPU tiny (§6.2).
        assert!(
            report.user_cpu_percent() < 10.0,
            "cpu {}",
            report.user_cpu_percent()
        );
    }

    #[test]
    fn stream_touch_app_receives_all_payload() {
        let trace = CampusMix::new(CampusMixConfig::sized(5, 2 << 20)).collect_all();
        let kernel = ScapKernel::new(ScapConfig::default());
        let mut stack = ScapSimStack::new(kernel, StreamTouchApp::default());
        let report = engine().run(trace, &mut stack);
        assert_eq!(report.stats.dropped_packets, 0);
        // Delivered bytes are payload only, well below wire bytes but
        // a substantial share of them.
        assert!(stack.app().bytes > report.stats.wire_bytes / 2);
        assert!(stack.app().bytes < report.stats.wire_bytes);
    }

    #[test]
    fn pattern_match_app_finds_embedded_patterns() {
        let pats: Vec<Vec<u8>> = vec![b"XXWEBATTACKXX".to_vec()];
        let trace = CampusMix::new(CampusMixConfig {
            patterns: Some(Arc::new(pats.clone())),
            pattern_prob: 1.0,
            ..CampusMixConfig::sized(7, 2 << 20)
        })
        .collect_all();
        let ac = AhoCorasick::new(&pats, false);
        let kernel = ScapKernel::new(ScapConfig::default());
        let mut stack = ScapSimStack::new(kernel, PatternMatchApp::new(ac));
        let report = engine().run(trace, &mut stack);
        assert_eq!(report.stats.dropped_packets, 0);
        assert!(report.stats.matches > 0, "no matches found");
    }

    #[test]
    fn overload_drops_packets_but_keeps_more_streams() {
        // Replay a trace far above single-worker matching capacity.
        let pats = scap_patterns::generate_web_attack_patterns(200, 1);
        let trace = CampusMix::new(CampusMixConfig {
            patterns: Some(Arc::new(pats.clone())),
            ..CampusMixConfig::sized(9, 8 << 20)
        })
        .collect_all();
        let natural = scap_trace::replay::natural_rate_bps(&trace);
        let fast: Vec<Packet> =
            scap_trace::replay::RateReplay::new(trace.into_iter(), natural, 6e9).collect();
        let ac = AhoCorasick::new(&pats, false);
        let kernel = ScapKernel::new(ScapConfig {
            memory_bytes: 2 << 20,
            inactivity_timeout_ns: 500_000_000,
            flush_timeout_ns: 5_000_000,
            ..Default::default()
        });
        let mut stack = ScapSimStack::new(kernel, PatternMatchApp::new(ac));
        let report = engine().run(fast, &mut stack);
        assert!(
            report.stats.drop_percent() > 10.0,
            "expected overload, drop = {:.1}%",
            report.stats.drop_percent()
        );
        // Stream loss stays far below packet loss (§6.5.1): handshakes
        // are cheap and PPL shelters young streams.
        assert!(
            report.stats.stream_loss_percent() < report.stats.drop_percent() / 2.0,
            "stream loss {:.1}% vs packet loss {:.1}%",
            report.stats.stream_loss_percent(),
            report.stats.drop_percent()
        );
    }

    #[test]
    fn multiple_workers_raise_capacity() {
        let pats = scap_patterns::generate_web_attack_patterns(200, 2);
        let ac = AhoCorasick::new(&pats, false);
        let trace = CampusMix::new(CampusMixConfig::sized(13, 24 << 20)).collect_all();
        let natural = scap_trace::replay::natural_rate_bps(&trace);
        let run = |workers: usize| {
            let fast: Vec<Packet> =
                scap_trace::replay::RateReplay::new(trace.clone().into_iter(), natural, 3e9)
                    .collect();
            let kernel = ScapKernel::new(ScapConfig {
                worker_threads: workers,
                memory_bytes: 6 << 20,
                // Timeouts scaled to the compressed replay timebase so
                // idle chunks release promptly (see the experiments'
                // scap_config for the same reasoning).
                inactivity_timeout_ns: 500_000_000,
                flush_timeout_ns: 5_000_000,
                ..Default::default()
            });
            let mut stack = ScapSimStack::new(kernel, PatternMatchApp::new(ac.clone()));
            engine().run(fast, &mut stack).stats.drop_percent()
        };
        let one = run(1);
        let eight = run(8);
        assert!(
            one > 5.0,
            "one worker must be overloaded at 3 Gbit/s (got {one:.1}%)"
        );
        assert!(
            eight < one / 2.0,
            "8 workers ({eight:.1}%) should drop far less than 1 ({one:.1}%)"
        );
    }
}

#[cfg(test)]
mod memory_invariant_tests {
    use super::*;
    use crate::config::ScapConfig;
    use crate::kernel::ScapKernel;
    use scap_sim::{Engine, EngineConfig};
    use scap_trace::gen::{CampusMix, CampusMixConfig};

    /// Arena conservation: after a full run and finish, every allocated
    /// chunk has been released — no stream memory leaks, whatever mix of
    /// chunks, merges, flushes, evictions and terminations happened.
    #[test]
    fn arena_returns_to_empty_after_capture() {
        let trace = CampusMix::new(CampusMixConfig {
            retrans_prob: 0.02,
            reorder_prob: 0.02,
            overlap_prob: 0.01,
            ..CampusMixConfig::sized(17, 3 << 20)
        })
        .collect_all();
        let kernel = ScapKernel::new(ScapConfig {
            chunk_size: 2048,
            inactivity_timeout_ns: 500_000_000,
            flush_timeout_ns: 5_000_000,
            ..ScapConfig::default()
        });
        let mut stack = ScapSimStack::new(kernel, apps::StreamTouchApp::default());
        Engine::new(EngineConfig::default()).run(trace, &mut stack);
        assert_eq!(
            stack.kernel().memory_used_fraction(),
            0.0,
            "stream memory leaked"
        );
    }

    /// The same invariant under overload (drops, PPL, OOM paths taken).
    #[test]
    fn arena_returns_to_empty_after_overloaded_capture() {
        let trace = CampusMix::new(CampusMixConfig::sized(19, 6 << 20)).collect_all();
        let natural = scap_trace::replay::natural_rate_bps(&trace);
        let fast: Vec<Packet> =
            scap_trace::replay::RateReplay::new(trace.into_iter(), natural, 6e9).collect();
        let kernel = ScapKernel::new(ScapConfig {
            memory_bytes: 1 << 20, // deliberately tiny: force every drop path
            inactivity_timeout_ns: 500_000_000,
            flush_timeout_ns: 5_000_000,
            ..ScapConfig::default()
        });
        let mut stack = ScapSimStack::new(
            kernel,
            apps::PatternMatchApp::new(scap_patterns::AhoCorasick::new(
                &scap_patterns::builtin_web_patterns(),
                false,
            )),
        );
        let report = Engine::new(EngineConfig::default()).run(fast, &mut stack);
        assert!(report.stats.dropped_packets > 0, "overload expected");
        assert_eq!(
            stack.kernel().memory_used_fraction(),
            0.0,
            "stream memory leaked under overload"
        );
    }
}
