//! The kernel service step every driver shares.
//!
//! Scap's kernel path is batch-shaped (§4–§5): a per-core kernel thread
//! drains its RX queue in one softirq pass, runs the expiry and flush
//! timers, then publishes to the core's event queue. That pass — poll
//! the ring dry on the configured dispatch path, timers, drain the
//! events into the caller's sink — is [`ScapKernel::service_core`]; the
//! live driver, the shard fleet, `scapd` and the experiments all call it
//! once per burst of packets they have fed to
//! [`ScapKernel::nic_receive`], and the one step that reads the dispatch
//! mode is [`ScapKernel::poll`], so the mode is honoured everywhere and
//! the per-burst cost is paid in one place.

use crate::config::DispatchMode;
use crate::event::{Event, EventKind};
use crate::kernel::ScapKernel;
use scap_sim::Work;
use scap_telemetry::{SpanTimer, Stage};

/// Whether a service step records its stage spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageClock {
    /// No spans (drivers whose stage histograms hold model cycles, or
    /// none at all).
    Untimed,
    /// Wall-clock spans, one per call: `Stage::Kernel` or
    /// `Stage::Fastpath` over the ring drain plus timers, and
    /// `Stage::EventQueue` over the event drain when it moved anything.
    Wall,
}

impl ScapKernel {
    /// Run the next packet (classic) or burst (fast path) at the front of
    /// a core's RX ring, by [`crate::ScapConfig::dispatch`], and return
    /// its work receipt; `None` once the ring is empty. The only place
    /// the dispatch mode chooses between [`ScapKernel::kernel_poll`] and
    /// [`ScapKernel::poll_burst`].
    pub fn poll(&mut self, core: usize, now: u64) -> Option<Work> {
        match self.config().dispatch {
            DispatchMode::Classic => self.kernel_poll(core, now),
            DispatchMode::Fastpath => self.poll_burst(core, now),
        }
    }

    /// Service one core: poll its RX ring dry (classic or fast path, by
    /// [`crate::ScapConfig::dispatch`]), run its timers at `now`, and
    /// hand every queued event to `sink` after noting its delivery
    /// latency. The sink owns the event: it forwards it, or returns its
    /// chunk with [`ScapKernel::release_event`].
    pub fn service_core(
        &mut self,
        core: usize,
        now: u64,
        clock: StageClock,
        sink: &mut impl FnMut(&mut ScapKernel, Event),
    ) {
        let span = (clock == StageClock::Wall).then(SpanTimer::start);
        while self.poll(core, now).is_some() {}
        self.kernel_timers(core, now);
        if let Some(span) = span {
            let stage = match self.config().dispatch {
                DispatchMode::Classic => Stage::Kernel,
                DispatchMode::Fastpath => Stage::Fastpath,
            };
            span.finish(self.telemetry(), core, stage);
        }
        let span =
            (clock == StageClock::Wall && self.event_backlog(core) > 0).then(SpanTimer::start);
        self.drain_core(core, now, sink);
        if let Some(span) = span {
            span.finish(self.telemetry(), core, Stage::EventQueue);
        }
    }

    /// [`ScapKernel::service_core`] over every core, untimed.
    pub fn service(&mut self, now: u64, mut sink: impl FnMut(&mut ScapKernel, Event)) {
        for core in 0..self.ncores() {
            self.service_core(core, now, StageClock::Untimed, &mut sink);
        }
    }

    /// Drain every core's event queue into `sink` without polling — the
    /// tail after [`ScapKernel::finish`].
    pub fn drain_events(&mut self, now: u64, mut sink: impl FnMut(&mut ScapKernel, Event)) {
        for core in 0..self.ncores() {
            self.drain_core(core, now, &mut sink);
        }
    }

    fn drain_core(&mut self, core: usize, now: u64, sink: &mut impl FnMut(&mut ScapKernel, Event)) {
        while let Some(ev) = self.next_event(core) {
            // Delivery span on the trace clock: ingress of the producing
            // packet to hand-off.
            self.note_delivery(&ev, now);
            sink(self, ev);
        }
    }

    /// Done with an event: return its data chunk (if it carries one) to
    /// the arena through [`ScapKernel::release_data`].
    pub fn release_event(&mut self, ev: Event) {
        if let EventKind::Data { dir, chunk, .. } = ev.kind {
            self.release_data(ev.stream.uid, dir, chunk);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScapConfig;
    use scap_trace::Packet;
    use scap_wire::PacketBuilder;

    fn loaded_kernel(dispatch: DispatchMode) -> ScapKernel {
        let mut k = ScapKernel::new(ScapConfig {
            dispatch,
            cores: 1,
            ..ScapConfig::default()
        });
        for i in 0..8u8 {
            let frame = PacketBuilder::udp_v4([10, 0, 0, i], [10, 0, 0, 200], 1000, 53, b"q");
            k.nic_receive(&Packet::new(u64::from(i) + 1, frame));
        }
        k
    }

    /// `poll` is the one dispatch switch: its receipt shows a burst
    /// exactly on the fast path, and the service step's wall-clock span
    /// is booked to the stage of the path that ran.
    #[test]
    fn poll_runs_the_configured_dispatch_path() {
        for mode in [DispatchMode::Classic, DispatchMode::Fastpath] {
            let fast = mode == DispatchMode::Fastpath;
            let mut k = loaded_kernel(mode);
            let w = k.poll(0, 10).expect("frames are queued");
            assert_eq!(w.fp_bursts > 0, fast, "{mode:?}: {w:?}");

            let mut k = loaded_kernel(mode);
            k.service_core(0, 10, StageClock::Wall, &mut |k, ev| k.release_event(ev));
            let snap = k.telemetry_snapshot();
            let (ran, idle) = if fast {
                (Stage::Fastpath, Stage::Kernel)
            } else {
                (Stage::Kernel, Stage::Fastpath)
            };
            assert_eq!(snap.stage(ran).count(), 1, "{mode:?}");
            assert_eq!(snap.stage(idle).count(), 0, "{mode:?}");
        }
    }
}
