//! Per-core cycle budgets for one simulation tick.
//!
//! Kernel (softirq) work preempts user work on the same core: the kernel
//! stage draws from the core's full budget, and the user stage gets what
//! is left. Both draws are tracked separately so the engine can report
//! the paper's two CPU metrics (application CPU utilization and software
//! interrupt load).

use crate::cost::{CostModel, Work};

/// Cycle budgets for all cores during one tick.
#[derive(Debug)]
pub struct CoreBudgets {
    model: CostModel,
    /// Remaining cycles per core.
    remaining: Vec<f64>,
    /// Cycles consumed by kernel work per core (this tick).
    kernel_used: Vec<f64>,
    /// Cycles consumed by user work per core (this tick).
    user_used: Vec<f64>,
    tick_cycles: f64,
}

impl CoreBudgets {
    /// Budgets for `ncores` cores over a tick of `tick_ns` simulated time.
    pub fn new(model: CostModel, ncores: usize, tick_ns: u64) -> Self {
        let tick_cycles = model.core_hz * tick_ns as f64 / 1e9;
        CoreBudgets {
            model,
            remaining: vec![tick_cycles; ncores],
            kernel_used: vec![0.0; ncores],
            user_used: vec![0.0; ncores],
            tick_cycles,
        }
    }

    /// Number of cores.
    pub fn ncores(&self) -> usize {
        self.remaining.len()
    }

    /// The cost model in force.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Cycles a full tick grants each core.
    pub fn tick_cycles(&self) -> f64 {
        self.tick_cycles
    }

    /// Reset for the next tick, returning per-core (kernel, user) usage
    /// of the finished tick.
    pub fn next_tick(&mut self) -> Vec<(f64, f64)> {
        let usage: Vec<(f64, f64)> = self
            .kernel_used
            .iter()
            .zip(&self.user_used)
            .map(|(k, u)| (*k, *u))
            .collect();
        for c in &mut self.remaining {
            *c = self.tick_cycles;
        }
        for c in &mut self.kernel_used {
            *c = 0.0;
        }
        for c in &mut self.user_used {
            *c = 0.0;
        }
        usage
    }

    /// True when `core` still has cycles to start another item.
    pub fn can_run(&self, core: usize) -> bool {
        self.remaining[core] > 0.0
    }

    /// Remaining cycles on `core`.
    pub fn remaining(&self, core: usize) -> f64 {
        self.remaining[core]
    }

    /// Charge kernel work to a core. Returns `false` when the core was
    /// already exhausted (the item should not have started; the engine
    /// convention is to check [`Self::can_run`] first, so the final item
    /// of a tick may overdraw slightly — fluid-model behaviour).
    pub fn charge_kernel(&mut self, core: usize, w: &Work) -> bool {
        let cycles = self.model.kernel_cycles(w);
        let ok = self.remaining[core] > 0.0;
        self.remaining[core] -= cycles;
        self.kernel_used[core] += cycles;
        ok
    }

    /// Charge user work to a core.
    pub fn charge_user(&mut self, core: usize, w: &Work) -> bool {
        let cycles = self.model.user_cycles(w);
        let ok = self.remaining[core] > 0.0;
        self.remaining[core] -= cycles;
        self.user_used[core] += cycles;
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_deplete_and_reset() {
        let m = CostModel::default();
        let mut b = CoreBudgets::new(m, 2, 1_000_000); // 1 ms -> 2e6 cycles
        assert!((b.tick_cycles() - 2e6).abs() < 1.0);
        assert!(b.can_run(0));
        let w = Work {
            k_packets: 10_000, // 6e6 cycles at default 600/packet
            ..Default::default()
        };
        b.charge_kernel(0, &w);
        assert!(!b.can_run(0));
        assert!(b.can_run(1));
        let usage = b.next_tick();
        assert!(usage[0].0 > 0.0);
        assert_eq!(usage[1], (0.0, 0.0));
        assert!(b.can_run(0));
    }

    #[test]
    fn kernel_and_user_tracked_separately() {
        let m = CostModel::default();
        let mut b = CoreBudgets::new(m, 1, 1_000_000);
        b.charge_kernel(
            0,
            &Work {
                k_packets: 100,
                ..Default::default()
            },
        );
        b.charge_user(
            0,
            &Work {
                u_bytes_scanned: 1000,
                ..Default::default()
            },
        );
        let usage = b.next_tick();
        assert!((usage[0].0 - 60_000.0).abs() < 1.0);
        assert!((usage[0].1 - 15_000.0).abs() < 1.0);
    }
}
