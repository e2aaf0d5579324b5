//! The hardware-cutoff stage: dynamic NIC filter management (§5.5). When
//! a stream passes its cutoff the stage puts the rest of it out of the
//! host's sight — one bidirectional `Drop` rule in the programmable
//! offload table, or the paper's four FDIR filters with a doubling
//! timeout — and keeps the books that takes: filter deadlines, rule
//! owners, the retry queue for installs the hardware refused, and the
//! filter bits of each stream's [`Flags`]. It borrows the NIC from the
//! admission stage and the streams from the flow probe; nothing else
//! writes these.

use super::admit::Admitted;
use super::ledger::{At, Ledger};
use super::probe::{Flags, FlowProbe, StreamKState};
use crate::config::ScapConfig;
use crate::event::StreamUid;
use scap_flight::{FlightEvent, FlightKind, FlightLayer};
use scap_flow::{FlowTable, StreamId};
use scap_nic::{FdirError, FdirFilter, Nic, OffloadAction, OffloadError, OffloadRule};
use scap_telemetry::Metric;
use scap_wire::{Direction, FlowKey, TcpFlags, TcpMeta, Transport};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Initial FDIR filter timeout; doubles on each reinstall (§5.5).
pub(super) const FDIR_INITIAL_TIMEOUT_NS: u64 = 2_000_000_000;
/// Delay before the first retry of a transiently failed FDIR install;
/// doubles per attempt (exponential backoff with deterministic jitter).
const FDIR_RETRY_BASE_NS: u64 = 50_000;
/// Hard ceiling on any single FDIR retry delay, jitter included: the
/// backoff curve flattens here instead of growing without bound.
const FDIR_RETRY_CAP_NS: u64 = 5_000_000;
/// Install attempts (beyond the first) before falling back to software
/// cutoff enforcement for good.
const FDIR_RETRY_MAX_ATTEMPTS: u32 = 5;
/// Entries the offload table's clock hand examines per eviction (bounds
/// the worst-case install latency at million-rule scale).
const OFFLOAD_EVICT_SCAN: usize = 64;

/// A stream as the stage's books name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Owner {
    pub core: usize,
    pub id: StreamId,
    pub uid: StreamUid,
}

/// A transiently failed FDIR install awaiting its next attempt.
#[derive(Debug, Clone, Copy)]
struct FdirRetry {
    owner: Owner,
    attempts: u32,
    next_try_ns: u64,
}

/// What the stage borrows from the burst loop for the length of a call.
pub(crate) struct HwDeps<'a> {
    pub cfg: &'a ScapConfig,
    pub nic: &'a mut Nic<Admitted>,
    pub flows: &'a mut FlowProbe,
    pub ledger: &'a mut Ledger,
}

impl HwDeps<'_> {
    fn stream(&mut self, o: Owner) -> Option<&mut StreamKState> {
        self.flows.cores[o.core].state_mut(o.id)
    }

    /// Set or clear filter bit `f` of stream `o`, if it still lives.
    fn set(&mut self, o: Owner, f: Flags, on: bool) {
        if let Some(ks) = self.stream(o) {
            ks.flags.set(f, on);
        }
    }

    /// Journal an event of `layer` about stream `o`.
    fn event(&mut self, o: Owner, now: u64, kind: FlightKind, layer: FlightLayer, a: u64, b: u64) {
        let ev = FlightEvent::new(kind, layer, now).with_vals(a, b);
        self.ledger.journal(At::new(o.core, now, o.uid), ev);
    }

    fn fdir_event(&mut self, o: Owner, now: u64, kind: FlightKind, a: u64, b: u64) {
        self.event(o, now, kind, FlightLayer::Fdir, a, b);
    }
}

#[derive(Default)]
pub(crate) struct HwCutoff {
    /// FDIR filter deadlines: (deadline, uid) → the stream and its key.
    fdir_expiries: BTreeMap<(u64, StreamUid), (Owner, FlowKey)>,
    /// Host-side shadow of stream-owned offload `Drop` rules: canonical
    /// key → owning stream, so a hardware eviction can clear the owner's
    /// `offload_installed` flag (the table itself knows only keys).
    offload_owners: HashMap<FlowKey, Owner>,
    /// Transiently failed FDIR installs awaiting retry (backoff queue).
    fdir_retry: VecDeque<FdirRetry>,
}

impl HwCutoff {
    /// (Re-)install NIC drop filters for a stream past its cutoff: the
    /// programmable offload stage first (one bidirectional rule, no
    /// timeout), falling back to classic FDIR — first time normally,
    /// `again` with a doubled timeout when an expired filter let a data
    /// packet back through (§5.5).
    pub(super) fn cut(
        &mut self,
        d: &mut HwDeps<'_>,
        core: usize,
        id: StreamId,
        now: u64,
        again: bool,
    ) {
        let offloaded = d.cfg.use_offload && self.install_offload(d, core, id, now);
        if !offloaded && d.cfg.use_fdir {
            self.install_fdir(d, core, id, now, again);
        }
    }

    /// Install a per-flow `Drop` rule in the programmable offload table.
    /// One canonical-key rule covers both directions (vs. FDIR's four
    /// perfect-match filters) and has no timeout — it stays until the
    /// stream terminates or its cutoff is widened. Control packets
    /// (SYN/FIN/RST) keep punting to the host, so FIN/RST size
    /// estimation and termination still work. Returns `true` when the
    /// rule is live; on a transient hardware failure the caller composes
    /// with the classic FDIR install/retry path instead.
    fn install_offload(&mut self, d: &mut HwDeps<'_>, core: usize, id: StreamId, now: u64) -> bool {
        let flows = &d.flows.cores[core];
        let Some(rec) = flows.get(id) else {
            return false;
        };
        let rule = OffloadRule::new(rec.key, OffloadAction::Drop, rec.priority);
        let uid = match flows.state(id) {
            Some(ks) if ks.flags.has(Flags::OFFLOAD_INSTALLED) => return true, // already shunting
            Some(ks) => ks.uid(),
            None => return false,
        };
        let owner = Owner { core, id, uid };
        // Make room under table pressure: the clock hand displaces the
        // coldest lowest-priority rule, folding its hit counters into
        // the aggregates so accounting never loses a frame.
        if d.nic.offload().free() == 0 {
            d.ledger.stats.offload_ops += 1;
            if let Some(evicted) = d.nic.offload_evict(OFFLOAD_EVICT_SCAN) {
                if let Some(evictee) = self.offload_owners.remove(&evicted.key.canonical().0) {
                    d.set(evictee, Flags::OFFLOAD_INSTALLED, false);
                }
                let (kind, prio) = (FlightKind::OffloadEvicted, u64::from(evicted.priority));
                d.event(owner, now, kind, FlightLayer::Offload, prio, 0);
            }
        }
        d.ledger.stats.offload_ops += 1;
        match d.nic.offload_install(rule) {
            Ok(()) | Err(OffloadError::Duplicate) => {}
            Err(_) => return false, // Busy/TableFull: fall back to FDIR
        }
        d.set(owner, Flags::OFFLOAD_INSTALLED, true);
        self.offload_owners.insert(rule.key, owner);
        let (kind, action) = (FlightKind::OffloadInstalled, rule.action.discriminant());
        d.event(owner, now, kind, FlightLayer::Offload, action.into(), 1);
        true
    }

    /// Remove a stream's offload rule (the canonical key covers both
    /// directions). The table folds the rule's per-entry counters into
    /// its aggregates, so no hit is ever lost to a remove.
    fn remove_offload_rule(&mut self, d: &mut HwDeps<'_>, key: FlowKey) {
        if d.nic.offload_uninstall(&key).is_ok() {
            d.ledger.stats.offload_ops += 1;
        }
        self.disown_offload(&key);
    }

    /// An offload rule left the table by the application's hand.
    pub(super) fn disown_offload(&mut self, key: &FlowKey) {
        self.offload_owners.remove(&key.canonical().0);
    }

    /// Install the paper's two FDIR drop filters for both directions of a
    /// stream past its cutoff; `reinstall` doubles the timeout.
    fn install_fdir(
        &mut self,
        d: &mut HwDeps<'_>,
        core: usize,
        id: StreamId,
        now: u64,
        reinstall: bool,
    ) {
        let Some(key) = d.flows.cores[core].get(id).map(|rec| rec.key) else {
            return;
        };
        if key.transport() != Transport::Tcp {
            return;
        }
        let Some(ks) = d.flows.cores[core].state_mut(id) else {
            return;
        };
        let busy =
            Flags::FDIR_INSTALLED | Flags::FDIR_RETRY_PENDING | Flags::FDIR_SOFTWARE_FALLBACK;
        if ks.flags.any(busy) {
            return;
        }
        if reinstall {
            ks.double_fdir_timeout();
        }
        let owner = Owner {
            core,
            id,
            uid: ks.uid(),
        };

        // Make room (4 filters: two flag patterns × two directions) by
        // evicting the filters with the nearest deadline — short timeout
        // means not a long-lived stream (§5.5).
        while d.nic.fdir().free() < 4 {
            let Some((deadline, evictee, ekey)) = self.soonest() else {
                return;
            };
            self.retire_fdir(d, evictee, ekey, Some(deadline));
            d.fdir_event(evictee, now, FlightKind::FdirEvicted, 0, 0);
        }

        if Self::try_install_filters(d, key) {
            self.file_installed(d, owner, key, now, None);
        } else {
            self.enqueue_retry(d, owner, 0, now);
        }
    }

    /// The filter set with the nearest deadline.
    fn soonest(&self) -> Option<(u64, Owner, FlowKey)> {
        let (&(deadline, _), &(owner, key)) = self.fdir_expiries.first_key_value()?;
        Some((deadline, owner, key))
    }

    /// A stream's filters are in the NIC: mark them installed, file their
    /// deadline and journal it. A first install and a retry that got
    /// through (`retry`: which attempt) both end here.
    fn file_installed(
        &mut self,
        d: &mut HwDeps<'_>,
        o: Owner,
        key: FlowKey,
        now: u64,
        retry: Option<u32>,
    ) {
        let Some(ks) = d.stream(o) else {
            return;
        };
        ks.flags.set(Flags::FDIR_RETRY_PENDING, false);
        ks.flags.set(Flags::FDIR_INSTALLED, true);
        let timeout = ks.fdir_timeout_ns();
        self.fdir_expiries
            .insert((now.saturating_add(timeout), o.uid), (o, key));
        let (kind, val) = match retry {
            None => (FlightKind::FdirInstalled, timeout),
            Some(attempt) => (FlightKind::FdirRetryOk, u64::from(attempt)),
        };
        d.fdir_event(o, now, kind, val, 0);
    }

    /// Take a stream's drop filters out of the NIC and their deadline off
    /// the books (`deadline` where the caller holds the entry, a search
    /// by uid otherwise), and clear the flag where the stream is still
    /// tracked. Eviction for room, timeout, re-open and termination all
    /// retire filters here.
    fn retire_fdir(&mut self, d: &mut HwDeps<'_>, o: Owner, key: FlowKey, deadline: Option<u64>) {
        let removed =
            d.nic.fdir_uninstall_all_for(&key) + d.nic.fdir_uninstall_all_for(&key.reversed());
        if removed > 0 {
            d.ledger.stats.fdir_ops += 1;
        }
        match deadline {
            Some(deadline) => {
                self.fdir_expiries.remove(&(deadline, o.uid));
            }
            None => self.fdir_expiries.retain(|&(_, uid), _| uid != o.uid),
        }
        d.set(o, Flags::FDIR_INSTALLED, false);
    }

    /// Program the paper's four drop filters for a stream. On a transient
    /// hardware failure the filters already added are rolled back with
    /// targeted removes (steering filters on the same tuple survive) and
    /// `false` is returned so the caller can schedule a retry.
    fn try_install_filters(d: &mut HwDeps<'_>, key: FlowKey) -> bool {
        let mut added: Vec<FdirFilter> = Vec::new();
        for dkey in [key, key.reversed()] {
            for flags in [TcpFlags::ACK, TcpFlags::ACK | TcpFlags::PSH] {
                let filter = FdirFilter::drop_tcp_flags(dkey, flags);
                d.ledger.stats.fdir_ops += 1;
                match d.nic.fdir_install(filter) {
                    Ok(()) => added.push(filter),
                    Err(FdirError::Busy) => {
                        for f in &added {
                            let _ = d.nic.fdir_uninstall(&f.key, f.flex);
                            d.ledger.stats.fdir_ops += 1;
                        }
                        return false;
                    }
                    Err(_) => {}
                }
            }
        }
        true
    }

    /// Park a transiently failed install on the backoff queue.
    fn enqueue_retry(&mut self, d: &mut HwDeps<'_>, o: Owner, attempts: u32, now: u64) {
        d.set(o, Flags::FDIR_RETRY_PENDING, true);
        // Exponential backoff, capped, with deterministic jitter: up to
        // 25% of the raw delay, derived from the stream uid and attempt
        // number, so retriers that failed together de-synchronize
        // instead of hammering the hardware in lockstep — while a
        // seeded run stays byte-identical.
        let retry_seed = d.cfg.faults.as_ref().map_or(0, |f| f.seed);
        let delay = scap_shard::Backoff::new(FDIR_RETRY_BASE_NS, FDIR_RETRY_CAP_NS, retry_seed)
            .delay_ns(attempts, o.uid);
        d.ledger.tele.add(o.core, Metric::FdirRetriesQueued, 1);
        d.ledger.tele.add(o.core, Metric::FdirRetryBackoffNs, delay);
        d.fdir_event(o, now, FlightKind::FdirRetryQueued, attempts.into(), delay);
        self.fdir_retry.push_back(FdirRetry {
            owner: o,
            attempts,
            next_try_ns: now.saturating_add(delay),
        });
    }

    /// Retry transiently failed FDIR installs whose backoff has elapsed.
    /// Deadlines are not monotonic across the queue (fresh failures and
    /// old backoffs interleave), so the whole queue is examined each pass
    /// and not-yet-due entries are requeued.
    pub(super) fn drain_retries(&mut self, d: &mut HwDeps<'_>, now: u64) {
        if self.fdir_retry.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.fdir_retry);
        for r in pending {
            // The stream may have terminated (and its slot been taken by
            // another) while the retry was parked.
            if !d.flows.holds(r.owner.core, r.owner.id, r.owner.uid) {
                continue;
            }
            if r.next_try_ns > now {
                self.fdir_retry.push_back(r);
                continue;
            }
            d.ledger.stats.resilience.fdir_retries += 1;
            d.ledger.tele.inc(r.owner.core, Metric::KernelTimerOps);
            if self.retry(d, r, now) {
                d.ledger.stats.resilience.fdir_retry_successes += 1;
            }
        }
    }

    /// One retry attempt: install, or re-park with doubled backoff, or —
    /// once the attempt budget is spent — fall back to software cutoff
    /// enforcement for the stream's remaining lifetime.
    fn retry(&mut self, d: &mut HwDeps<'_>, r: FdirRetry, now: u64) -> bool {
        let o = r.owner;
        let Some(key) = d.flows.cores[o.core].get(o.id).map(|rec| rec.key) else {
            return false;
        };
        if d.nic.fdir().free() >= 4 && Self::try_install_filters(d, key) {
            self.file_installed(d, o, key, now, Some(r.attempts + 1));
            return true;
        }
        if r.attempts + 1 >= FDIR_RETRY_MAX_ATTEMPTS {
            // Give up on the hardware: the kernel discard path already
            // enforces the cutoff; it just costs a DMA + header touch.
            d.set(o, Flags::FDIR_RETRY_PENDING, false);
            d.set(o, Flags::FDIR_SOFTWARE_FALLBACK, true);
            d.ledger.stats.resilience.fdir_fallback_software += 1;
            let spent = u64::from(r.attempts + 1);
            d.fdir_event(o, now, FlightKind::FdirFallback, spent, 0);
        } else {
            self.enqueue_retry(d, o, r.attempts + 1, now);
        }
        false
    }

    /// FDIR filter timeouts: retire every filter set whose deadline has
    /// passed (a data packet that slips through reinstalls it, doubled).
    pub(super) fn expire(&mut self, d: &mut HwDeps<'_>, now: u64) {
        while let Some((deadline, o, key)) = self.soonest().filter(|&(at, ..)| at <= now) {
            self.retire_fdir(d, o, key, Some(deadline));
            d.fdir_event(o, now, FlightKind::FdirExpired, 0, 0);
            d.ledger.tele.inc(o.core, Metric::KernelTimerOps);
        }
    }

    /// A widened cutoff re-opened the stream: pull its NIC drop filters
    /// and start its bookkeeping over, so data collection resumes.
    pub(super) fn reopen(&mut self, d: &mut HwDeps<'_>, o: Owner, key: FlowKey) {
        let Some(flags) = d.stream(o).map(|ks| ks.flags) else {
            return;
        };
        self.release(d, o, key, flags, false);
        if let Some(ks) = d.stream(o) {
            ks.reset_filters();
        }
    }

    /// Take whatever the stream has in the NIC back out. `steered`: the
    /// load balancer may have pinned the tuple with steering filters the
    /// stream's own flag knows nothing of.
    pub(super) fn release(
        &mut self,
        d: &mut HwDeps<'_>,
        o: Owner,
        key: FlowKey,
        flags: Flags,
        steered: bool,
    ) {
        if flags.has(Flags::FDIR_INSTALLED) || steered {
            self.retire_fdir(d, o, key, None);
        }
        if flags.has(Flags::OFFLOAD_INSTALLED) {
            self.remove_offload_rule(d, key);
        }
    }

    /// Warm restart: take a restored stream back on the books — its
    /// filters' deadline re-filed from `from_ns`, and the `Drop` rule the
    /// restored table holds for it, if any (ownership is a pure function
    /// of restored rules × restored streams, so it does not travel in the
    /// per-stream record).
    pub(super) fn adopt(&mut self, d: &mut HwDeps<'_>, o: Owner, key: FlowKey, from_ns: u64) {
        let dropped = matches!(d.nic.offload().action_for(&key), Some(OffloadAction::Drop));
        let Some(ks) = d.stream(o) else { return };
        if ks.flags.has(Flags::FDIR_INSTALLED) {
            let deadline = from_ns.saturating_add(ks.fdir_timeout_ns());
            self.fdir_expiries.insert((deadline, o.uid), (o, key));
        }
        if dropped {
            ks.flags.set(Flags::OFFLOAD_INSTALLED, true);
            self.offload_owners.insert(key.canonical().0, o);
        }
    }
}

/// On FIN/RST of an FDIR-filtered stream, estimate per-direction totals
/// from sequence numbers (per-filter NIC counters don't exist, §5.5).
pub(super) fn estimate_filtered_sizes(
    flows: &mut FlowTable<StreamKState>,
    id: StreamId,
    meta: &TcpMeta,
    dir: Direction,
) {
    let Some(ks) = flows.state(id) else {
        return;
    };
    if !ks.flags.has(Flags::FDIR_INSTALLED) {
        return;
    }
    let Some(conn) = ks.conn() else { return };
    let fwd_est = conn.dir(dir).rel_offset_of(meta.seq);
    let rev_est = conn.dir(dir.flip()).rel_offset_of(meta.ack);
    if let Some(rec) = flows.get_mut(id) {
        if let Some(e) = fwd_est {
            let d = &mut rec.dirs[dir.index()];
            d.total_bytes = d.total_bytes.max(e);
        }
        if let Some(e) = rev_est {
            let d = &mut rec.dirs[dir.flip().index()];
            d.total_bytes = d.total_bytes.max(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scap_faults::{FaultPlan, FdirFaultConfig};
    use scap_flight::FlightEvent;

    /// The stage on its own: a bare NIC whose FDIR table refuses every
    /// install, one tracked TCP stream, a ledger — no `ScapKernel`.
    struct Bench {
        cfg: ScapConfig,
        nic: Nic<Admitted>,
        flows: FlowProbe,
        ledger: Ledger,
        hw: HwCutoff,
        owner: Owner,
    }

    impl Bench {
        fn new() -> Self {
            let cfg = ScapConfig {
                use_fdir: true,
                ..ScapConfig::default()
            };
            let mut nic = Nic::new(1, 64);
            nic.fdir_mut().set_fault_injector(Self::hardware(1.0));
            let mut flows = FlowProbe::new(1);
            let key = FlowKey::new_v4([10, 0, 0, 1], [10, 0, 0, 2], 4000, 80, Transport::Tcp);
            let id = flows.cores[0].lookup_or_insert(&key, 0).unwrap().id;
            let uid = flows.open(0, id);
            Bench {
                ledger: Ledger::new(&cfg, 1, 1024),
                cfg,
                nic,
                flows,
                hw: HwCutoff::default(),
                owner: Owner { core: 0, id, uid },
            }
        }

        /// FDIR hardware that refuses installs with probability `p`.
        fn hardware(p: f64) -> scap_faults::FdirInjector {
            FaultPlan {
                fdir: FdirFaultConfig {
                    transient_fail_prob: p,
                    max_consecutive_failures: u32::MAX,
                    ..Default::default()
                },
                ..FaultPlan::new(3)
            }
            .fdir_injector()
        }

        fn with<R>(&mut self, f: impl FnOnce(&mut HwCutoff, &mut HwDeps<'_>) -> R) -> R {
            let mut deps = HwDeps {
                cfg: &self.cfg,
                nic: &mut self.nic,
                flows: &mut self.flows,
                ledger: &mut self.ledger,
            };
            f(&mut self.hw, &mut deps)
        }

        fn state(&self) -> Flags {
            self.flows.cores[0].state(self.owner.id).unwrap().flags
        }

        fn journal(&self) -> Vec<FlightEvent> {
            self.ledger.flight.events()
        }

        fn last_event(&self) -> FlightEvent {
            *self.journal().last().unwrap()
        }
    }

    #[test]
    fn a_refused_install_backs_off_then_gets_through() {
        let mut b = Bench::new();
        let o = b.owner;
        b.with(|hw, d| hw.cut(d, o.core, o.id, 1_000, false));
        // Busy: nothing installed, the partial install rolled back, the
        // stream parked on the retry queue.
        assert_eq!(b.nic.fdir().len(), 0);
        assert!(b.state().has(Flags::FDIR_RETRY_PENDING) && !b.state().has(Flags::FDIR_INSTALLED));
        let queued = b.last_event();
        assert_eq!(queued.kind, FlightKind::FdirRetryQueued);
        let (attempts, delay) = (queued.a, queued.b);
        assert_eq!(attempts, 0);
        assert!((FDIR_RETRY_BASE_NS..=FDIR_RETRY_CAP_NS).contains(&delay));
        // A second cutoff packet while parked queues nothing more.
        b.with(|hw, d| hw.cut(d, o.core, o.id, 1_001, true));
        assert_eq!(b.journal().len(), 1);

        // Before the backoff elapses the queue holds still.
        b.with(|hw, d| hw.drain_retries(d, 1_000 + delay - 1));
        assert_eq!(b.ledger.stats.resilience.fdir_retries, 0);
        // The hardware recovers; the retry that comes due gets through.
        b.nic.fdir_mut().set_fault_injector(Bench::hardware(0.0));
        let due = 1_000 + delay;
        b.with(|hw, d| hw.drain_retries(d, due));
        assert_eq!(b.nic.fdir().len(), 4);
        assert!(b.state().has(Flags::FDIR_INSTALLED) && !b.state().has(Flags::FDIR_RETRY_PENDING));
        assert_eq!(b.last_event().kind, FlightKind::FdirRetryOk);
        let r = b.ledger.stats.resilience;
        assert_eq!((r.fdir_retries, r.fdir_retry_successes), (1, 1));
        // … and the filters are on the books: they expire on schedule.
        b.with(|hw, d| hw.expire(d, due + FDIR_INITIAL_TIMEOUT_NS - 1));
        assert_eq!(b.nic.fdir().len(), 4);
        b.with(|hw, d| hw.expire(d, due + FDIR_INITIAL_TIMEOUT_NS));
        assert_eq!(b.nic.fdir().len(), 0);
        assert!(!b.state().has(Flags::FDIR_INSTALLED));
        assert_eq!(b.last_event().kind, FlightKind::FdirExpired);
    }

    #[test]
    fn retries_exhausted_fall_back_to_software_for_good() {
        let mut b = Bench::new();
        let o = b.owner;
        b.with(|hw, d| hw.cut(d, o.core, o.id, 0, false));
        // Every retry is refused; each re-parks with a longer backoff
        // (up to the cap) until the attempt budget is spent.
        let mut now = 0;
        let mut delays = Vec::new();
        while b.state().has(Flags::FDIR_RETRY_PENDING) {
            let queued = b.last_event();
            assert_eq!(queued.kind, FlightKind::FdirRetryQueued);
            assert_eq!(queued.a, delays.len() as u64);
            delays.push(queued.b);
            now += queued.b;
            b.with(|hw, d| hw.drain_retries(d, now));
        }
        assert_eq!(delays.len(), FDIR_RETRY_MAX_ATTEMPTS as usize);
        assert!(delays.windows(2).all(|w| w[0] < w[1]), "{delays:?}");
        assert!(delays.iter().all(|&d| d <= FDIR_RETRY_CAP_NS));
        assert!(
            b.state().has(Flags::FDIR_SOFTWARE_FALLBACK) && !b.state().has(Flags::FDIR_INSTALLED)
        );
        assert_eq!(b.last_event().kind, FlightKind::FdirFallback);
        let r = b.ledger.stats.resilience;
        assert_eq!(r.fdir_retries, u64::from(FDIR_RETRY_MAX_ATTEMPTS));
        assert_eq!((r.fdir_retry_successes, r.fdir_fallback_software), (0, 1));
        // Healthy hardware comes too late: the stream stays in software.
        b.nic.fdir_mut().set_fault_injector(Bench::hardware(0.0));
        let events = b.journal().len();
        b.with(|hw, d| hw.cut(d, o.core, o.id, now + 1, true));
        b.with(|hw, d| hw.drain_retries(d, u64::MAX));
        assert_eq!((b.nic.fdir().len(), b.journal().len()), (0, events));
    }
}
