//! The one fixed drive loop every single-kernel workload uses: feed 256
//! packets to the NIC, then per core poll the ring dry, run the timers
//! and drain the event queue, handing every data chunk back. The public
//! drivers of the repository consume a whole trace at once, so this
//! loop is the only place a span can be put around each kernel call.

use crate::span::Tracer;
use scap::{Event, EventKind, ScapKernel};
use scap_trace::Packet;

/// Packets fed to the NIC between polls (well under the 4096-slot
/// rings, so a loss-free workload stays loss-free).
pub const BATCH: usize = 256;

/// Span names of the drive loop; per-layer metrics are derived from
/// their totals.
pub mod names {
    /// One 256-packet batch, parent of the spans below.
    pub const BATCH: &str = "core.drive.batch";
    /// `ScapKernel::nic_receive` over one batch.
    pub const NIC_RECEIVE: &str = "core.nic_receive";
    /// `ScapKernel::kernel_poll` until the ring is empty, one core.
    pub const KERNEL_POLL: &str = "core.kernel_poll";
    /// `ScapKernel::poll_burst` until the ring is empty, one core.
    pub const POLL_BURST: &str = "core.poll_burst";
    /// `ScapKernel::kernel_timers`, one core.
    pub const KERNEL_TIMERS: &str = "core.kernel_timers";
    /// `next_event` until empty with `release_data`, one core.
    pub const EVENT_DRAIN: &str = "core.event_drain";
    /// `ScapKernel::finish` and the final drain.
    pub const FINISH: &str = "core.finish";
}

/// Drain one core's event queue into `sink`, returning chunks to the
/// kernel. Returns the number of events drained.
fn drain_core(kernel: &mut ScapKernel, core: usize, sink: &mut impl FnMut(&Event)) -> u64 {
    let mut n = 0;
    while let Some(ev) = kernel.next_event(core) {
        sink(&ev);
        n += 1;
        if let EventKind::Data { dir, chunk, .. } = ev.kind {
            kernel.release_data(ev.stream.uid, dir, chunk);
        }
    }
    n
}

/// Drive `pkts` through `kernel` (classic or fast-path dispatch, as the
/// kernel is configured). Every event goes to `sink` before its chunk
/// is released. Returns the number of events drained.
pub fn drive(
    kernel: &mut ScapKernel,
    pkts: &[Packet],
    sink: &mut impl FnMut(&Event),
    tr: &mut Tracer,
) -> u64 {
    let fastpath = kernel.config().dispatch == scap::DispatchMode::Fastpath;
    let poll_name = if fastpath {
        names::POLL_BURST
    } else {
        names::KERNEL_POLL
    };
    let ncores = kernel.ncores();
    let mut events = 0;
    for batch in pkts.chunks(BATCH) {
        let b = tr.open(names::BATCH);
        let s = tr.open(names::NIC_RECEIVE);
        for p in batch {
            kernel.nic_receive(p);
        }
        tr.close(s);
        let now = batch.last().expect("chunks are non-empty").ts_ns;
        for core in 0..ncores {
            let s = tr.open(poll_name);
            if fastpath {
                while kernel.poll_burst(core, now).is_some() {}
            } else {
                while kernel.kernel_poll(core, now).is_some() {}
            }
            tr.close(s);
            let s = tr.open(names::KERNEL_TIMERS);
            kernel.kernel_timers(core, now);
            tr.close(s);
            let s = tr.open(names::EVENT_DRAIN);
            events += drain_core(kernel, core, sink);
            tr.close(s);
        }
        tr.close(b);
    }
    events
}

/// End the pass: terminate every remaining stream and drain the final
/// events. Returns the number of events drained.
pub fn finish(
    kernel: &mut ScapKernel,
    now: u64,
    sink: &mut impl FnMut(&Event),
    tr: &mut Tracer,
) -> u64 {
    let s = tr.open(names::FINISH);
    kernel.finish(now);
    let mut events = 0;
    for core in 0..kernel.ncores() {
        events += drain_core(kernel, core, sink);
    }
    tr.close(s);
    events
}
