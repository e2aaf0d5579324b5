//! The discrete-time engine: batches a replayed trace into ticks, hands
//! each batch to the capture stack under per-core cycle budgets, and
//! aggregates the paper's metrics (drop rate, application CPU
//! utilization, software-interrupt load).

use crate::budgets::CoreBudgets;
use crate::cost::CostModel;
use scap_trace::Packet;

/// Common statistics every capture stack reports.
///
/// The distinction between *dropped* (lost to overload — rings full,
/// memory exhausted, PPL) and *discarded* (deliberately not kept —
/// cutoffs, filters, duplicates) mirrors the paper's per-stream counters
/// and matters for every figure: discards are a feature, drops are loss.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StackStats {
    /// Packets offered by the wire.
    pub wire_packets: u64,
    /// Bytes offered by the wire.
    pub wire_bytes: u64,
    /// Packets lost to overload (all causes).
    pub dropped_packets: u64,
    /// Bytes lost to overload.
    pub dropped_bytes: u64,
    /// Packets discarded on purpose before user level (NIC filters,
    /// kernel cutoff, duplicates).
    pub discarded_packets: u64,
    /// Bytes discarded on purpose.
    pub discarded_bytes: u64,
    /// Packets dropped at the NIC by FDIR (subset of `discarded_packets`
    /// for Scap-with-FDIR; they never reached main memory).
    pub nic_filtered_packets: u64,
    /// Payload bytes delivered to the application.
    pub delivered_bytes: u64,
    /// Packets that completed stream processing (neither dropped nor
    /// discarded). Stacks that maintain it satisfy the conservation
    /// identity `wire = delivered + dropped + discarded`; stacks that
    /// don't leave it 0.
    pub delivered_packets: u64,
    /// Streams observed (created).
    pub streams_created: u64,
    /// Streams lost: never tracked (table full / SYN dropped) or evicted.
    pub streams_lost: u64,
    /// Streams that terminated and were reported to the application.
    pub streams_reported: u64,
    /// Pattern matches found (when the workload matches patterns).
    pub matches: u64,
    /// Events delivered to user callbacks.
    pub events_delivered: u64,
}

impl StackStats {
    /// Packet drop percentage (the paper's headline metric).
    pub fn drop_percent(&self) -> f64 {
        if self.wire_packets == 0 {
            0.0
        } else {
            100.0 * self.dropped_packets as f64 / self.wire_packets as f64
        }
    }

    /// Lost-stream percentage.
    pub fn stream_loss_percent(&self) -> f64 {
        let total = self.streams_created + self.streams_lost;
        if total == 0 {
            0.0
        } else {
            100.0 * self.streams_lost as f64 / total as f64
        }
    }
}

/// A capture stack under simulation.
pub trait CaptureStack {
    /// Process all packets whose timestamps fall in the current tick.
    ///
    /// The stack stages its own pipeline internally: NIC admission
    /// (hardware — not budgeted), kernel/softirq work (budgeted with
    /// priority), then user work (budgeted with what remains).
    fn tick(&mut self, now_ns: u64, packets: &[Packet], budgets: &mut CoreBudgets);

    /// The trace has ended: flush internal state so final stream/match
    /// accounting is complete. Runs unbudgeted.
    fn finish(&mut self, now_ns: u64);

    /// Current statistics.
    fn stats(&self) -> StackStats;
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Simulated cores (the paper's sensor has 8).
    pub ncores: usize,
    /// Tick length in simulated nanoseconds.
    pub tick_ns: u64,
    /// The cost table.
    pub model: CostModel,
    /// Post-trace drain ticks (backlog gets budget to empty out).
    pub drain_ticks: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            ncores: 8,
            tick_ns: 1_000_000,
            model: CostModel::default(),
            drain_ticks: 500,
        }
    }
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Final stack statistics.
    pub stats: StackStats,
    /// Mean busy fraction per core attributable to kernel (softirq) work,
    /// over the traced interval.
    pub kernel_busy: Vec<f64>,
    /// Mean busy fraction per core attributable to user work.
    pub user_busy: Vec<f64>,
    /// Simulated trace duration in seconds.
    pub duration_secs: f64,
}

impl EngineReport {
    /// The paper's "software interrupt load": kernel cycles as a
    /// percentage of total capacity across all cores.
    pub fn softirq_percent(&self) -> f64 {
        (100.0 * self.kernel_busy.iter().sum::<f64>() / self.kernel_busy.len() as f64).min(100.0)
    }

    /// The paper's "CPU utilization" of the monitoring application:
    /// the busiest core's user share (single-worker experiments pin the
    /// application to one core).
    pub fn user_cpu_percent(&self) -> f64 {
        (100.0 * self.user_busy.iter().cloned().fold(0.0, f64::max)).min(100.0)
    }
}

/// The discrete-time engine.
pub struct Engine {
    cfg: EngineConfig,
}

impl Engine {
    /// Build an engine.
    pub fn new(cfg: EngineConfig) -> Self {
        Engine { cfg }
    }

    /// Run a packet stream through a stack.
    pub fn run(
        &self,
        packets: impl IntoIterator<Item = Packet>,
        stack: &mut dyn CaptureStack,
    ) -> EngineReport {
        let tick_ns = self.cfg.tick_ns;
        let mut budgets = CoreBudgets::new(self.cfg.model, self.cfg.ncores, tick_ns);
        let mut kernel_cycles = vec![0.0; self.cfg.ncores];
        let mut user_cycles = vec![0.0; self.cfg.ncores];
        let mut ticks: u64 = 0;

        let mut batch: Vec<Packet> = Vec::new();
        let mut tick_end: Option<u64> = None;
        let mut now = 0u64;

        let flush_tick = |batch: &mut Vec<Packet>,
                          now: u64,
                          budgets: &mut CoreBudgets,
                          kernel_cycles: &mut Vec<f64>,
                          user_cycles: &mut Vec<f64>,
                          ticks: &mut u64,
                          stack: &mut dyn CaptureStack| {
            stack.tick(now, batch, budgets);
            batch.clear();
            for (core, (k, u)) in budgets.next_tick().into_iter().enumerate() {
                kernel_cycles[core] += k;
                user_cycles[core] += u;
            }
            *ticks += 1;
        };

        for p in packets {
            let end = *tick_end.get_or_insert_with(|| (p.ts_ns / tick_ns + 1) * tick_ns);
            if p.ts_ns >= end {
                // Close the current tick and any empty ticks in between.
                now = end;
                flush_tick(
                    &mut batch,
                    now,
                    &mut budgets,
                    &mut kernel_cycles,
                    &mut user_cycles,
                    &mut ticks,
                    stack,
                );
                let mut e = end + tick_ns;
                while p.ts_ns >= e {
                    now = e;
                    flush_tick(
                        &mut batch,
                        now,
                        &mut budgets,
                        &mut kernel_cycles,
                        &mut user_cycles,
                        &mut ticks,
                        stack,
                    );
                    e += tick_ns;
                }
                tick_end = Some(e);
            }
            batch.push(p);
        }
        if !batch.is_empty() || tick_end.is_some() {
            now = tick_end.unwrap_or(tick_ns);
            flush_tick(
                &mut batch,
                now,
                &mut budgets,
                &mut kernel_cycles,
                &mut user_cycles,
                &mut ticks,
                stack,
            );
        }

        let traced_ticks = ticks.max(1);

        // Drain: backlog keeps getting budget, but usage is not counted
        // toward the traced-interval averages.
        for _ in 0..self.cfg.drain_ticks {
            now += tick_ns;
            stack.tick(now, &[], &mut budgets);
            budgets.next_tick();
        }
        stack.finish(now);

        let denom = budgets.tick_cycles() * traced_ticks as f64;
        EngineReport {
            stats: stack.stats(),
            kernel_busy: kernel_cycles.iter().map(|c| c / denom).collect(),
            user_busy: user_cycles.iter().map(|c| c / denom).collect(),
            duration_secs: (traced_ticks * tick_ns) as f64 / 1e9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Work;

    /// A toy stack: every packet costs fixed kernel work on core 0 and is
    /// dropped if the core is out of budget.
    struct ToyStack {
        stats: StackStats,
        backlog: u64,
    }

    impl CaptureStack for ToyStack {
        fn tick(&mut self, _now: u64, packets: &[Packet], budgets: &mut CoreBudgets) {
            for p in packets {
                self.stats.wire_packets += 1;
                self.stats.wire_bytes += p.len() as u64;
                self.backlog += 1;
            }
            while self.backlog > 0 && budgets.can_run(0) {
                budgets.charge_kernel(
                    0,
                    &Work {
                        k_packets: 1,
                        k_bytes_copied: 100_000, // deliberately expensive
                        ..Default::default()
                    },
                );
                self.backlog -= 1;
                self.stats.delivered_bytes += 100;
            }
            // Bounded backlog: what cannot queue is dropped.
            let cap = 50;
            if self.backlog > cap {
                self.stats.dropped_packets += self.backlog - cap;
                self.backlog = cap;
            }
        }

        fn finish(&mut self, _now: u64) {}

        fn stats(&self) -> StackStats {
            self.stats
        }
    }

    fn trace(n: usize, gap_ns: u64) -> Vec<Packet> {
        (0..n)
            .map(|i| Packet::new(i as u64 * gap_ns, vec![0u8; 100]))
            .collect()
    }

    #[test]
    fn overload_produces_drops_underload_does_not() {
        let cfg = EngineConfig {
            ncores: 1,
            tick_ns: 1_000_000,
            model: CostModel::default(),
            drain_ticks: 100,
        };
        // Each packet costs ~100_600 cycles; one core does ~2e6/ms
        // => ~19 pkt/ms capacity.
        let slow = Engine::new(cfg).run(
            trace(100, 100_000), // 10 pkt/ms
            &mut ToyStack {
                stats: StackStats::default(),
                backlog: 0,
            },
        );
        assert_eq!(slow.stats.dropped_packets, 0);
        assert!(slow.kernel_busy[0] > 0.3 && slow.kernel_busy[0] <= 1.0);

        let fast = Engine::new(cfg).run(
            trace(2000, 10_000), // 100 pkt/ms >> capacity
            &mut ToyStack {
                stats: StackStats::default(),
                backlog: 0,
            },
        );
        assert!(
            fast.stats.dropped_packets > 500,
            "drops {}",
            fast.stats.dropped_packets
        );
        assert!(fast.kernel_busy[0] > 0.9);
    }

    #[test]
    fn empty_trace_reports_cleanly() {
        let r = Engine::new(EngineConfig::default()).run(
            Vec::new(),
            &mut ToyStack {
                stats: StackStats::default(),
                backlog: 0,
            },
        );
        assert_eq!(r.stats.wire_packets, 0);
        assert_eq!(r.stats.drop_percent(), 0.0);
    }

    #[test]
    fn stats_percentages() {
        let s = StackStats {
            wire_packets: 200,
            dropped_packets: 50,
            streams_created: 30,
            streams_lost: 10,
            ..Default::default()
        };
        assert_eq!(s.drop_percent(), 25.0);
        assert_eq!(s.stream_loss_percent(), 25.0);
    }

    #[test]
    fn ticks_with_gaps_are_simulated() {
        // Packets 5 ms apart: the engine must tick through empty windows.
        let pkts = vec![
            Packet::new(0, vec![0u8; 10]),
            Packet::new(5_000_000, vec![0u8; 10]),
        ];
        let r = Engine::new(EngineConfig {
            ncores: 1,
            ..Default::default()
        })
        .run(
            pkts,
            &mut ToyStack {
                stats: StackStats::default(),
                backlog: 0,
            },
        );
        assert_eq!(r.stats.wire_packets, 2);
        assert!(r.duration_secs >= 0.005);
    }
}
