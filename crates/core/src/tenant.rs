//! Multi-tenant capture: per-tenant isolation, quotas, and fair-share
//! backpressure on top of one shared reassembly pass.
//!
//! The paper's sharing model (§5.6) runs one kernel-owned capture and
//! serves every subscriber a filtered, cutoff-limited view. This module
//! hardens that model for *mutually untrusting* subscribers — tenants —
//! so one misbehaving tenant cannot degrade the others:
//!
//! * **Admission control** ([`TenantEngine::attach`]): memory and disk
//!   quotas are expressed in permille shares; an attach that would
//!   overcommit either pool, reuse a live name, or bring a filter that
//!   does not compile is rejected before it can touch the capture.
//! * **Memory isolation**: each tenant owns a bounded delivery queue
//!   whose byte capacity is its share of the delivery budget. A slow
//!   consumer fills only its own queue; other tenants' queues (and the
//!   kernel, which never blocks on delivery) are unaffected — there is
//!   no head-of-line blocking across tenants.
//! * **Slow-consumer ladder**: on queue overflow a tenant is first
//!   *degraded* (its effective cutoff is halved so it asks for less),
//!   then its excess is *dropped with provenance* (a `scap-flight`
//!   `Drop/tenant/slow_consumer` event per rejected chunk), and after
//!   [`TenantEngine::strike_limit`] strikes it is *disconnected* — its
//!   queue is cleared (the cleared bytes move from delivered to dropped
//!   so its conservation identity still balances) and it stops
//!   receiving events entirely.
//! * **Per-tenant conservation**: for every tenant, at all times,
//!   `matched == delivered + dropped + discarded` (bytes). `matched` is
//!   what the shared capture offered the tenant's filter, `delivered`
//!   what entered its queue, `dropped` what the slow-consumer ladder
//!   shed (all attributed in the flight journal), `discarded` what the
//!   tenant's own cutoff (or its degraded cutoff) trimmed.
//! * **Crash consistency**: the tenant table serializes to
//!   [`TenantImage`] records inside the kernel checkpoint (record
//!   `0x15`), so a warm restart restores tenants, quotas, ladder
//!   states, and conservation counters together with stream state.
//!
//! The engine is deliberately kernel-adjacent but not kernel-owned: the
//! driver (scapd, the bench harness, or a test) pumps kernel events
//! through [`TenantEngine::on_event`] and drains per-tenant queues at
//! whatever pace each consumer manages.

use std::collections::HashMap;
use std::collections::VecDeque;

use scap_filter::Filter;
use scap_flight::{DropReason, FlightEvent, FlightKind, FlightLayer, FlightRecorder};
use scap_telemetry::{Metric, PlainRegistry, Pulse, PulseSnapshot, PulseStage};
use scap_wire::Direction;

use crate::checkpoint::TenantImage;
use crate::config::{ConfigDelta, ScapConfig};
use crate::event::{Event, EventKind, StreamUid};
use crate::sharing::{union_requirements, Requirement};

/// What a tenant asks of the shared capture when it attaches.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantSpec {
    /// Human-readable tenant name; unique among attached tenants.
    pub name: String,
    /// BPF source of the tenant's stream filter (`None` = all streams).
    pub filter: Option<String>,
    /// Per-stream delivery cutoff in bytes (`None` = unlimited).
    pub cutoff: Option<u64>,
    /// PPL priority for the tenant's streams (0 = shed first). Mapped
    /// into the merged [`crate::config::PriorityPolicy`], so a tenant's
    /// memory-pressure survival is part of its quota.
    pub priority: u8,
    /// Share of the delivery-queue memory budget, in permille.
    pub mem_share: u32,
    /// Share of the archive disk budget, in permille (consumed by the
    /// scap-store writer the daemon runs for the tenant).
    pub disk_share: u32,
}

/// Why an attach was refused. Admission control runs before the tenant
/// can influence the capture, so a rejected attach is side-effect free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The name is not 1 to 64 of `[A-Za-z0-9_-]`: names become control
    /// file names and OpenMetrics label values.
    BadName(String),
    /// A tenant with this name is already attached.
    DuplicateName(String),
    /// `mem_share`/`disk_share` must be in `1..=1000` permille.
    ShareOutOfRange {
        /// The rejected memory share.
        mem: u32,
        /// The rejected disk share.
        disk: u32,
    },
    /// Granting the memory share would overcommit the delivery budget.
    MemoryOvercommit {
        /// The requested memory share (permille).
        requested: u32,
        /// What remains uncommitted (permille).
        available: u32,
    },
    /// Granting the disk share would overcommit the archive budget.
    DiskOvercommit {
        /// The requested disk share (permille).
        requested: u32,
        /// What remains uncommitted (permille).
        available: u32,
    },
    /// The tenant's filter did not compile.
    Filter(String),
}

impl core::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AdmissionError::BadName(n) => {
                write!(f, "tenant name {n:?} is not 1 to 64 of [A-Za-z0-9_-]")
            }
            AdmissionError::DuplicateName(n) => write!(f, "tenant name {n:?} already attached"),
            AdmissionError::ShareOutOfRange { mem, disk } => {
                write!(
                    f,
                    "shares must be 1..=1000 permille (mem={mem}, disk={disk})"
                )
            }
            AdmissionError::MemoryOvercommit {
                requested,
                available,
            } => write!(
                f,
                "memory share {requested}\u{2030} exceeds available {available}\u{2030}"
            ),
            AdmissionError::DiskOvercommit {
                requested,
                available,
            } => write!(
                f,
                "disk share {requested}\u{2030} exceeds available {available}\u{2030}"
            ),
            AdmissionError::Filter(e) => write!(f, "tenant filter rejected: {e}"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Whether `name` may name a tenant: 1 to 64 of `[A-Za-z0-9_-]`.
pub fn valid_tenant_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

/// Where a tenant sits on the slow-consumer ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantState {
    /// Delivering normally.
    Active,
    /// Queue overflowed: effective cutoff halved, overflow dropped with
    /// provenance, strikes accumulating. Recovers to `Active` when the
    /// consumer drains the queue below a quarter of its capacity.
    Degraded,
    /// Struck out: queue cleared, no further delivery. Terminal until
    /// the tenant detaches and re-attaches.
    Disconnected,
}

impl TenantState {
    /// Lower-case name, as tables and status files print it.
    pub fn name(self) -> &'static str {
        match self {
            TenantState::Active => "active",
            TenantState::Degraded => "degraded",
            TenantState::Disconnected => "disconnected",
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            TenantState::Active => 0,
            TenantState::Degraded => 1,
            TenantState::Disconnected => 2,
        }
    }

    fn from_u8(v: u8) -> TenantState {
        match v {
            1 => TenantState::Degraded,
            2 => TenantState::Disconnected,
            _ => TenantState::Active,
        }
    }
}

/// One queued delivery. Control events carry zero bytes; data events
/// carry the chunk length that was admitted past the tenant's cutoff.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Stream the event belongs to.
    pub uid: StreamUid,
    /// Direction for data deliveries.
    pub dir: Option<Direction>,
    /// Payload bytes (0 for created/terminated).
    pub bytes: u64,
    /// Event class: 0 created, 1 data, 2 terminated.
    pub kind: u8,
    /// Trace-clock time the delivery entered the tenant queue (the
    /// producing event's kernel-enqueue timestamp). The pulse plane
    /// measures tenant-queue residency against this at drain time.
    pub enqueued_ns: u64,
}

/// Per-tenant conservation and behavior counters (bytes unless noted).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Bytes the shared capture offered this tenant's filter.
    pub matched_bytes: u64,
    /// Bytes admitted into the tenant's delivery queue.
    pub delivered_bytes: u64,
    /// Bytes shed by the slow-consumer ladder (flight-attributed).
    pub dropped_bytes: u64,
    /// Bytes trimmed by the tenant's own (or degraded) cutoff.
    pub discarded_bytes: u64,
    /// Bytes the consumer actually drained from the queue.
    pub drained_bytes: u64,
    /// Events (created/data/terminated) matched.
    pub events: u64,
    /// Queue-overflow strikes taken (lifetime).
    pub strikes: u64,
    /// Degraded→Active recoveries.
    pub recoveries: u64,
    /// 1 once the ladder disconnected the tenant.
    pub disconnects: u64,
}

impl TenantStats {
    /// The per-tenant conservation identity: everything offered to the
    /// tenant is accounted as delivered, dropped, or discarded.
    pub fn conserved(&self) -> bool {
        self.matched_bytes == self.delivered_bytes + self.dropped_bytes + self.discarded_bytes
    }
}

/// One attached tenant.
#[derive(Debug)]
pub struct Tenant {
    /// Stable id (attach order; never recycled within an engine).
    pub id: u64,
    /// The spec the tenant attached with.
    pub spec: TenantSpec,
    /// Ladder position.
    pub state: TenantState,
    /// Counters.
    pub stats: TenantStats,
    filter: Option<Filter>,
    queue: VecDeque<Delivery>,
    queue_bytes: u64,
    queue_cap: u64,
    strikes: u32,
    /// Cutoff allowance consumed per stream (tenant-local view).
    seen: HashMap<StreamUid, u64>,
}

impl Tenant {
    fn wants(&self, ev: &Event) -> bool {
        match &self.filter {
            None => true,
            Some(f) => f.matches_key(&ev.stream.key) || f.matches_key(&ev.stream.key.reversed()),
        }
    }

    /// The cutoff currently in force: the spec's cutoff, halved while
    /// degraded (the first rung of the ladder asks for less data
    /// instead of dropping it).
    fn effective_cutoff(&self) -> Option<u64> {
        match (self.state, self.spec.cutoff) {
            (TenantState::Degraded, Some(c)) => Some(c / 2),
            (_, c) => c,
        }
    }

    /// Queue bytes still available before the ladder engages.
    pub fn quota_headroom(&self) -> u64 {
        self.queue_cap.saturating_sub(self.queue_bytes)
    }

    /// Current queue depth in bytes / entries.
    pub fn queue_depth(&self) -> (u64, usize) {
        (self.queue_bytes, self.queue.len())
    }

    /// Byte capacity of the delivery queue (mem share of the budget).
    pub fn queue_cap(&self) -> u64 {
        self.queue_cap
    }
}

/// The tenant table and demux engine.
#[derive(Debug)]
pub struct TenantEngine {
    tenants: Vec<Tenant>,
    next_id: u64,
    delivery_budget: u64,
    strike_limit: u32,
    /// Engine-tracked trace clock: the latest event timestamp seen by
    /// `on_event`, so `drain` can measure queue residency without every
    /// caller threading a clock through.
    clock_ns: u64,
    /// Tenant-queue latency recorder (the `TenantQueue` pulse stage).
    pulse: Pulse,
}

impl TenantEngine {
    /// Create an engine distributing `delivery_budget` queue bytes;
    /// a tenant is disconnected after `strike_limit` overflow strikes.
    pub fn new(delivery_budget: u64, strike_limit: u32) -> Self {
        TenantEngine {
            tenants: Vec::new(),
            next_id: 1,
            delivery_budget,
            strike_limit: strike_limit.max(1),
            clock_ns: 0,
            pulse: Pulse::default(),
        }
    }

    /// Reconfigure the tenant-queue pulse recorder (sampling quantile in
    /// permille, exemplars kept per stage). Call before traffic flows —
    /// existing histograms are replaced.
    pub fn configure_pulse(&mut self, quantile_permille: u32, exemplar_cap: usize) {
        self.pulse = Pulse::new(quantile_permille, exemplar_cap);
    }

    /// Export the engine's pulse plane (tenant-queue residency spans).
    pub fn pulse_snapshot(&self) -> PulseSnapshot {
        self.pulse.snapshot()
    }

    /// Permille of the memory budget already committed.
    pub fn mem_committed(&self) -> u32 {
        self.tenants.iter().map(|t| t.spec.mem_share).sum()
    }

    /// Permille of the disk budget already committed.
    pub fn disk_committed(&self) -> u32 {
        self.tenants.iter().map(|t| t.spec.disk_share).sum()
    }

    /// The strike limit the ladder disconnects at.
    pub fn strike_limit(&self) -> u32 {
        self.strike_limit
    }

    /// Attached tenants, in id order.
    pub fn tenants(&self) -> &[Tenant] {
        &self.tenants
    }

    /// Look up a tenant by id.
    pub fn tenant(&self, id: u64) -> Option<&Tenant> {
        self.tenants.iter().find(|t| t.id == id)
    }

    /// Look up a tenant by name.
    pub fn tenant_by_name(&self, name: &str) -> Option<&Tenant> {
        self.tenants.iter().find(|t| t.spec.name == name)
    }

    /// Admission control + attach. On success the tenant id is
    /// returned and a `tenant_attached` flight event is emitted.
    pub fn attach(
        &mut self,
        spec: TenantSpec,
        now_ns: u64,
        flight: Option<&mut FlightRecorder>,
    ) -> Result<u64, AdmissionError> {
        if !valid_tenant_name(&spec.name) {
            return Err(AdmissionError::BadName(spec.name));
        }
        if spec.mem_share == 0
            || spec.mem_share > 1000
            || spec.disk_share == 0
            || spec.disk_share > 1000
        {
            return Err(AdmissionError::ShareOutOfRange {
                mem: spec.mem_share,
                disk: spec.disk_share,
            });
        }
        if self.tenants.iter().any(|t| t.spec.name == spec.name) {
            return Err(AdmissionError::DuplicateName(spec.name));
        }
        let mem_avail = 1000 - self.mem_committed();
        if spec.mem_share > mem_avail {
            return Err(AdmissionError::MemoryOvercommit {
                requested: spec.mem_share,
                available: mem_avail,
            });
        }
        let disk_avail = 1000 - self.disk_committed();
        if spec.disk_share > disk_avail {
            return Err(AdmissionError::DiskOvercommit {
                requested: spec.disk_share,
                available: disk_avail,
            });
        }
        let filter = match &spec.filter {
            None => None,
            Some(src) => match Filter::new(src) {
                Ok(f) => Some(f),
                Err(e) => return Err(AdmissionError::Filter(e.to_string())),
            },
        };
        let id = self.next_id;
        self.next_id += 1;
        let queue_cap = self.delivery_budget * u64::from(spec.mem_share) / 1000;
        if let Some(fl) = flight {
            fl.emit(
                0,
                FlightEvent::new(FlightKind::TenantAttached, FlightLayer::Tenant, now_ns)
                    .with_uid(id)
                    .with_vals(u64::from(spec.mem_share), u64::from(spec.disk_share)),
            );
        }
        self.tenants.push(Tenant {
            id,
            spec,
            state: TenantState::Active,
            stats: TenantStats::default(),
            filter,
            queue: VecDeque::new(),
            queue_bytes: 0,
            queue_cap,
            strikes: 0,
            seen: HashMap::new(),
        });
        Ok(id)
    }

    /// Detach a tenant, returning its final stats (for end-of-life
    /// conservation reporting). Frees its quota shares immediately.
    pub fn detach(
        &mut self,
        id: u64,
        now_ns: u64,
        flight: Option<&mut FlightRecorder>,
    ) -> Option<TenantStats> {
        let idx = self.tenants.iter().position(|t| t.id == id)?;
        let t = self.tenants.remove(idx);
        if let Some(fl) = flight {
            fl.emit(
                0,
                FlightEvent::new(FlightKind::TenantDetached, FlightLayer::Tenant, now_ns)
                    .with_uid(t.id)
                    .with_vals(t.stats.delivered_bytes, 0),
            );
        }
        Some(t.stats)
    }

    /// The capture requirements of the current tenant set.
    pub fn requirements(&self) -> Vec<Requirement> {
        self.tenants
            .iter()
            .map(|t| Requirement {
                filter: t.filter.clone(),
                cutoff: t.spec.cutoff,
                priority: t.spec.priority,
            })
            .collect()
    }

    /// The generalized kernel configuration for the tenant set: union
    /// of filters, max cutoff, priority classes mapping each tenant's
    /// PPL survival to its quota.
    pub fn merged_config(&self, base: ScapConfig) -> Result<ScapConfig, scap_filter::FilterError> {
        union_requirements(base, &self.requirements(), false)
    }

    /// The hot-reconfiguration delta that moves an installed config to
    /// this tenant set's merged view (for `apply_config` after an
    /// attach or detach on a live capture). The delta replaces the
    /// cutoff class list wholesale, so narrowing after a detach passes
    /// [`ConfigDelta::validate`].
    pub fn config_delta(&self, base: ScapConfig) -> Result<ConfigDelta, scap_filter::FilterError> {
        let merged = self.merged_config(base)?;
        Ok(ConfigDelta {
            cutoff_default: Some(merged.cutoff.default),
            cutoff_classes: Some(merged.cutoff.classes.clone()),
            priorities: Some(merged.priorities.clone()),
            filter: Some(merged.filter.clone()),
        })
    }

    /// Demux one kernel event across the tenant table. Never blocks:
    /// each tenant either absorbs its share into its own queue or takes
    /// the slow-consumer ladder; other tenants are untouched.
    pub fn on_event(&mut self, ev: &Event, flight: &mut FlightRecorder) {
        let ts = ev.stream.last_ts_ns;
        let core = ev.core;
        let strike_limit = self.strike_limit;
        // Queue-entry timestamp for the pulse plane: the event's kernel
        // enqueue time when the driver stamped one, else the stream's
        // last-activity clock.
        let entry_ns = ev.enqueued_ns.max(ts);
        self.clock_ns = self.clock_ns.max(entry_ns);
        for t in &mut self.tenants {
            if t.state == TenantState::Disconnected || !t.wants(ev) {
                continue;
            }
            t.stats.events += 1;
            let (kind, dir, len) = match &ev.kind {
                EventKind::Created => (0u8, None, 0u64),
                EventKind::Data { dir, chunk, .. } => (1, Some(*dir), chunk.len as u64),
                EventKind::Terminated => (2, None, 0),
            };
            if kind != 1 {
                // Control events are tiny: always enqueue, zero bytes.
                t.queue.push_back(Delivery {
                    uid: ev.stream.uid,
                    dir: None,
                    bytes: 0,
                    kind,
                    enqueued_ns: entry_ns,
                });
                if kind == 2 {
                    t.seen.remove(&ev.stream.uid);
                }
                continue;
            }
            t.stats.matched_bytes += len;
            // The tenant's own cutoff view: the shared capture may run a
            // wider (unioned) cutoff; trim this tenant back to what it
            // asked for — or to the degraded cutoff while on the ladder.
            let cutoff = t.effective_cutoff();
            let seen = t.seen.entry(ev.stream.uid).or_insert(0);
            let allowed = match cutoff {
                None => len,
                Some(c) => c.saturating_sub(*seen).min(len),
            };
            let trimmed = len - allowed;
            if trimmed > 0 {
                t.stats.discarded_bytes += trimmed;
                if t.state == TenantState::Degraded {
                    // Degraded trims beyond the spec cutoff are a quota
                    // action, not tenant intent: attribute them.
                    flight.emit(
                        core,
                        FlightEvent::new(FlightKind::Drop, FlightLayer::Tenant, ts)
                            .with_reason(DropReason::TenantQuota)
                            .with_uid(t.id)
                            .with_vals(1, trimmed),
                    );
                }
            }
            if allowed == 0 {
                continue;
            }
            *seen += allowed;
            if t.queue_bytes + allowed <= t.queue_cap {
                t.queue.push_back(Delivery {
                    uid: ev.stream.uid,
                    dir,
                    bytes: allowed,
                    kind,
                    enqueued_ns: entry_ns,
                });
                t.queue_bytes += allowed;
                t.stats.delivered_bytes += allowed;
                continue;
            }
            // Queue overflow: the slow-consumer ladder.
            t.stats.dropped_bytes += allowed;
            t.stats.strikes += 1;
            t.strikes += 1;
            flight.emit(
                core,
                FlightEvent::new(FlightKind::Drop, FlightLayer::Tenant, ts)
                    .with_reason(DropReason::SlowConsumer)
                    .with_uid(t.id)
                    .with_vals(1, allowed),
            );
            if t.state == TenantState::Active {
                t.state = TenantState::Degraded;
                flight.emit(
                    core,
                    FlightEvent::new(FlightKind::TenantDegraded, FlightLayer::Tenant, ts)
                        .with_uid(t.id)
                        .with_vals(t.effective_cutoff().unwrap_or(0), t.queue_cap),
                );
            } else if t.strikes >= strike_limit {
                // Struck out: clear the queue. Bytes sitting in it were
                // counted delivered at enqueue; they will never reach
                // the consumer, so move them to dropped — conservation
                // stays exact.
                let cleared = t.queue_bytes;
                t.queue.clear();
                t.queue_bytes = 0;
                t.stats.delivered_bytes -= cleared;
                t.stats.dropped_bytes += cleared;
                t.state = TenantState::Disconnected;
                t.stats.disconnects = 1;
                if cleared > 0 {
                    flight.emit(
                        core,
                        FlightEvent::new(FlightKind::Drop, FlightLayer::Tenant, ts)
                            .with_reason(DropReason::SlowConsumer)
                            .with_uid(t.id)
                            .with_vals(t.queue.len() as u64, cleared),
                    );
                }
                flight.emit(
                    core,
                    FlightEvent::new(FlightKind::TenantDisconnected, FlightLayer::Tenant, ts)
                        .with_uid(t.id)
                        .with_vals(cleared, u64::from(t.strikes)),
                );
            }
        }
    }

    /// Consumer side: drain up to `max_bytes` of queued deliveries for
    /// tenant `id` (control events are free). Draining below a quarter
    /// of the queue capacity recovers a degraded tenant to active.
    pub fn drain(&mut self, id: u64, max_bytes: u64) -> Vec<Delivery> {
        let clock = self.clock_ns;
        let Some(t) = self.tenants.iter_mut().find(|t| t.id == id) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut budget = max_bytes;
        while let Some(front) = t.queue.front() {
            if front.bytes > budget && front.bytes > 0 {
                break;
            }
            let d = t.queue.pop_front().expect("front checked");
            budget -= d.bytes;
            t.queue_bytes -= d.bytes;
            t.stats.drained_bytes += d.bytes;
            // Pulse: tenant-queue residency on the engine's trace clock.
            self.pulse.record_uid(
                PulseStage::TenantQueue,
                clock.saturating_sub(d.enqueued_ns),
                d.uid,
                0,
            );
            out.push(d);
        }
        if t.state == TenantState::Degraded && t.queue_bytes <= t.queue_cap / 4 {
            t.state = TenantState::Active;
            t.strikes = 0;
            t.stats.recoveries += 1;
        }
        out
    }

    /// Every tenant's conservation identity holds.
    pub fn all_conserved(&self) -> bool {
        self.tenants.iter().all(|t| t.stats.conserved())
    }

    /// Export per-tenant totals into a telemetry registry (shard 0).
    /// Call once at end of capture: the Tenant* metrics are monotonic
    /// counters, so incremental exports would double-count.
    pub fn export_telemetry(&self, tele: &PlainRegistry) {
        for t in &self.tenants {
            tele.add(0, Metric::TenantDeliveredBytes, t.stats.delivered_bytes);
            tele.add(0, Metric::TenantDroppedBytes, t.stats.dropped_bytes);
            tele.add(0, Metric::TenantDiscardedBytes, t.stats.discarded_bytes);
            tele.add(0, Metric::TenantDisconnects, t.stats.disconnects);
        }
    }

    /// Serialize the tenant table for the kernel checkpoint.
    pub fn images(&self) -> Vec<TenantImage> {
        self.tenants
            .iter()
            .map(|t| TenantImage {
                id: t.id,
                name: t.spec.name.clone(),
                filter_src: t.spec.filter.clone(),
                cutoff: t.spec.cutoff,
                priority: t.spec.priority,
                mem_share: t.spec.mem_share,
                disk_share: t.spec.disk_share,
                state: t.state.to_u8(),
                delivered_bytes: t.stats.delivered_bytes,
                dropped_bytes: t.stats.dropped_bytes,
                discarded_bytes: t.stats.discarded_bytes,
            })
            .collect()
    }

    /// Rebuild an engine from checkpointed tenant images. Queues come
    /// back empty (queued-but-undrained deliveries died with the
    /// process; their bytes are already accounted in the counters),
    /// ladder states and conservation counters are restored, and
    /// `matched` is re-derived so the identity holds on the restored
    /// table.
    pub fn from_images(images: &[TenantImage], delivery_budget: u64, strike_limit: u32) -> Self {
        let mut eng = TenantEngine::new(delivery_budget, strike_limit);
        for img in images {
            let filter = img.filter_src.as_deref().and_then(|s| Filter::new(s).ok());
            let queue_cap = delivery_budget * u64::from(img.mem_share) / 1000;
            eng.tenants.push(Tenant {
                id: img.id,
                spec: TenantSpec {
                    name: img.name.clone(),
                    filter: img.filter_src.clone(),
                    cutoff: img.cutoff,
                    priority: img.priority,
                    mem_share: img.mem_share,
                    disk_share: img.disk_share,
                },
                state: TenantState::from_u8(img.state),
                stats: TenantStats {
                    matched_bytes: img.delivered_bytes + img.dropped_bytes + img.discarded_bytes,
                    delivered_bytes: img.delivered_bytes,
                    dropped_bytes: img.dropped_bytes,
                    discarded_bytes: img.discarded_bytes,
                    ..TenantStats::default()
                },
                filter,
                queue: VecDeque::new(),
                queue_bytes: 0,
                queue_cap,
                strikes: 0,
                seen: HashMap::new(),
            });
            eng.next_id = eng.next_id.max(img.id + 1);
        }
        eng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::ScapKernel;
    use scap_faults::{FaultPlan, TenantFault, TenantFaultKind};
    use scap_flight::decode_journal;
    use scap_trace::gen::{CampusMix, CampusMixConfig};
    use scap_trace::Packet;

    fn trace(seed: u64) -> Vec<Packet> {
        CampusMix::new(CampusMixConfig::sized(seed, 2 << 20)).collect_all()
    }

    fn specs() -> Vec<TenantSpec> {
        vec![
            TenantSpec {
                name: "web".into(),
                filter: Some("tcp and port 80".into()),
                cutoff: Some(8 << 10),
                priority: 2,
                mem_share: 300,
                disk_share: 300,
            },
            TenantSpec {
                name: "dns".into(),
                filter: Some("udp".into()),
                cutoff: Some(2 << 10),
                priority: 1,
                mem_share: 200,
                disk_share: 200,
            },
            TenantSpec {
                name: "bulk".into(),
                filter: Some("tcp".into()),
                cutoff: None,
                priority: 0,
                mem_share: 300,
                disk_share: 300,
            },
        ]
    }

    /// Drive a capture with per-tenant consumer behavior: tenants in
    /// `stalled` stop draining after their given event count.
    fn drive(
        engine: &mut TenantEngine,
        kernel: &mut ScapKernel,
        packets: &[Packet],
        stalled: &[(u64, u64)],
    ) {
        let mut events_seen: HashMap<u64, u64> = HashMap::new();
        let mut now = 0;
        let ids: Vec<u64> = engine.tenants().iter().map(|t| t.id).collect();
        for pkt in packets {
            now = pkt.ts_ns;
            kernel.nic_receive(pkt);
            kernel.service(now, |k, ev| {
                engine.on_event(&ev, k.flight_mut());
                k.release_event(ev);
            });
            for &id in &ids {
                let seen = events_seen.entry(id).or_insert(0);
                let stall = stalled
                    .iter()
                    .find(|(sid, _)| *sid == id)
                    .map(|(_, after)| *after);
                if stall.is_some_and(|after| *seen >= after) {
                    continue; // stalled consumer: stops draining forever
                }
                *seen += engine.drain(id, u64::MAX).len() as u64;
            }
        }
        let end = now.saturating_add(1);
        kernel.finish(end);
        kernel.drain_events(end, |k, ev| {
            engine.on_event(&ev, k.flight_mut());
            k.release_event(ev);
        });
        // Healthy consumers drain whatever the finish flush enqueued.
        for &id in &ids {
            let seen = events_seen.entry(id).or_insert(0);
            let stall = stalled
                .iter()
                .find(|(sid, _)| *sid == id)
                .map(|(_, after)| *after);
            if stall.is_some_and(|after| *seen >= after) {
                continue;
            }
            *seen += engine.drain(id, u64::MAX).len() as u64;
        }
    }

    fn run(
        specs: Vec<TenantSpec>,
        seed: u64,
        budget: u64,
        stalled_names: &[(&str, u64)],
    ) -> (TenantEngine, ScapKernel) {
        let mut engine = TenantEngine::new(budget, 8);
        let mut ids = Vec::new();
        for s in specs {
            ids.push((s.name.clone(), engine.attach(s, 0, None).unwrap()));
        }
        let cfg = engine.merged_config(ScapConfig::default()).unwrap();
        let mut kernel = ScapKernel::new(cfg);
        kernel.set_tenant_table(engine.images());
        let stalled: Vec<(u64, u64)> = stalled_names
            .iter()
            .map(|(n, after)| (ids.iter().find(|(name, _)| name == n).unwrap().1, *after))
            .collect();
        drive(&mut engine, &mut kernel, &trace(seed), &stalled);
        (engine, kernel)
    }

    /// Tenants side by side on one capture, every consumer healthy: each
    /// one's counters, by name.
    fn side_by_side(seed: u64, specs: Vec<TenantSpec>) -> HashMap<String, TenantStats> {
        let (engine, _) = run(specs, seed, 1 << 30, &[]);
        assert!(engine.all_conserved());
        engine
            .tenants()
            .iter()
            .map(|t| (t.spec.name.clone(), t.stats))
            .collect()
    }

    fn tenant(name: &str, filter: Option<&str>, cutoff: Option<u64>) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            filter: filter.map(Into::into),
            cutoff,
            priority: 0,
            mem_share: 300,
            disk_share: 300,
        }
    }

    #[test]
    fn a_tenant_filter_restricts_which_streams_it_sees() {
        let stats = side_by_side(
            43,
            vec![
                tenant("all", None, None),
                tenant("web", Some("port 80"), None),
            ],
        );
        let (all, web) = (stats["all"].events, stats["web"].events);
        assert!(web > 0, "no port-80 streams seen");
        assert!(web < all, "web tenant matched {web} of {all} events");
    }

    #[test]
    fn a_tenant_cutoff_trims_only_its_own_view() {
        let stats = side_by_side(
            47,
            vec![
                tenant("stats", None, Some(0)),
                tenant("headers", None, Some(512)),
                tenant("full", None, None),
            ],
        );
        let (headers, full) = (stats["headers"], stats["full"]);
        // A cutoff-0 tenant gets no payload even though the shared
        // capture, generalized for `full`, reassembles everything.
        assert_eq!(stats["stats"].delivered_bytes, 0);
        assert!(stats["stats"].discarded_bytes > 0);
        assert!(headers.delivered_bytes > 0);
        assert!(
            headers.delivered_bytes < full.delivered_bytes / 2,
            "cutoff tenant received {} vs full tenant {}",
            headers.delivered_bytes,
            full.delivered_bytes
        );
        assert!(headers.discarded_bytes > 0);
        assert_eq!(full.discarded_bytes, 0);
    }

    #[test]
    fn admission_control_enforces_quotas() {
        let mut eng = TenantEngine::new(1 << 20, 8);
        let a = eng
            .attach(
                TenantSpec {
                    name: "a".into(),
                    mem_share: 700,
                    disk_share: 500,
                    ..Default::default()
                },
                0,
                None,
            )
            .unwrap();
        // Duplicate name.
        assert_eq!(
            eng.attach(
                TenantSpec {
                    name: "a".into(),
                    mem_share: 100,
                    disk_share: 100,
                    ..Default::default()
                },
                0,
                None,
            ),
            Err(AdmissionError::DuplicateName("a".into()))
        );
        // Memory overcommit: only 300‰ left.
        assert_eq!(
            eng.attach(
                TenantSpec {
                    name: "b".into(),
                    mem_share: 400,
                    disk_share: 100,
                    ..Default::default()
                },
                0,
                None,
            ),
            Err(AdmissionError::MemoryOvercommit {
                requested: 400,
                available: 300,
            })
        );
        // Disk overcommit: only 500‰ left.
        assert_eq!(
            eng.attach(
                TenantSpec {
                    name: "b".into(),
                    mem_share: 100,
                    disk_share: 600,
                    ..Default::default()
                },
                0,
                None,
            ),
            Err(AdmissionError::DiskOvercommit {
                requested: 600,
                available: 500,
            })
        );
        // Bad shares and bad filters never get in.
        assert!(matches!(
            eng.attach(
                TenantSpec {
                    name: "b".into(),
                    mem_share: 0,
                    disk_share: 1,
                    ..Default::default()
                },
                0,
                None,
            ),
            Err(AdmissionError::ShareOutOfRange { .. })
        ));
        assert!(matches!(
            eng.attach(
                TenantSpec {
                    name: "b".into(),
                    filter: Some("((".into()),
                    mem_share: 100,
                    disk_share: 100,
                    ..Default::default()
                },
                0,
                None,
            ),
            Err(AdmissionError::Filter(_))
        ));
        // A fitting attach succeeds, and detach frees the shares.
        eng.detach(a, 0, None).unwrap();
        assert!(eng
            .attach(
                TenantSpec {
                    name: "b".into(),
                    mem_share: 1000,
                    disk_share: 1000,
                    ..Default::default()
                },
                0,
                None,
            )
            .is_ok());
    }

    #[test]
    fn admission_rejects_names_outside_the_label_alphabet() {
        let mut eng = TenantEngine::new(1 << 20, 8);
        let spec = |name: &str| TenantSpec {
            name: name.into(),
            mem_share: 100,
            disk_share: 100,
            ..Default::default()
        };
        for bad in [String::new(), "a/b".into(), "a\"b".into(), "x".repeat(65)] {
            assert_eq!(
                eng.attach(spec(&bad), 0, None),
                Err(AdmissionError::BadName(bad.clone()))
            );
        }
        assert!(eng.tenants().is_empty(), "a rejected name attaches nothing");
        assert!(eng.attach(spec("web"), 0, None).is_ok());
        assert!(eng.attach(spec("bulk_2"), 0, None).is_ok());
        assert!(eng.attach(spec(&"x".repeat(64)), 0, None).is_ok());
    }

    #[test]
    fn merged_config_maps_priorities_to_ppl() {
        let mut eng = TenantEngine::new(1 << 20, 8);
        for s in specs() {
            eng.attach(s, 0, None).unwrap();
        }
        let cfg = eng.merged_config(ScapConfig::default()).unwrap();
        // "bulk" is unlimited ⇒ merged cutoff unlimited; its tcp filter
        // plus web/dns still unions to a restricted capture filter.
        assert_eq!(cfg.cutoff.default, None);
        assert!(cfg.filter.is_some());
        // Two tenants stated priorities ⇒ PPL runs 3 watermark levels
        // (priorities 0..=2), mapping quota to shed order.
        assert_eq!(cfg.ppl.num_priorities, 3);
        assert_eq!(cfg.priorities.classes.len(), 2);
    }

    #[test]
    fn per_tenant_conservation_holds_with_all_consumers_healthy() {
        let (engine, kernel) = run(specs(), 11, 1 << 20, &[]);
        assert!(engine.all_conserved());
        for t in engine.tenants() {
            assert_eq!(t.state, TenantState::Active, "tenant {}", t.spec.name);
            assert_eq!(t.stats.dropped_bytes, 0);
            assert!(
                t.stats.matched_bytes > 0,
                "tenant {} saw no traffic",
                t.spec.name
            );
        }
        // Healthy consumers drained everything that was delivered.
        for t in engine.tenants() {
            assert_eq!(t.stats.drained_bytes, t.stats.delivered_bytes);
        }
        // No tenant-layer drops in the journal either.
        let journal = decode_journal(&kernel.flight().encode()).unwrap();
        assert!(!journal
            .events
            .iter()
            .any(|e| e.kind == FlightKind::Drop && e.layer == FlightLayer::Tenant));
    }

    /// The chaos isolation test: a hostile tenant (stalled consumer,
    /// from the seeded tenant fault plan) is degraded, dropped-with-
    /// provenance, and finally disconnected — while every well-behaved
    /// tenant's delivered bytes stay within 5% of what it gets running
    /// alone (documented isolation bound; in this deterministic setting
    /// the match is exact), conservation holds per tenant, and the
    /// journal's tenant drop sums reconcile exactly.
    #[test]
    fn hostile_tenant_cannot_starve_the_others() {
        let seed = 42;
        let plan = FaultPlan::tenant_storm(seed, 3);
        // The plan nominates a hostile tenant with a consumer stall;
        // map it onto the "bulk" tenant (highest-volume view).
        let stall_after = plan
            .tenants
            .iter()
            .find_map(|TenantFault { kind, .. }| match kind {
                TenantFaultKind::StallConsumer { after_events } => Some(*after_events),
                _ => None,
            })
            .expect("tenant storm always stalls someone");
        let budget = 64 << 10; // small budget so the stall bites
        let (shared, kernel) = run(specs(), seed, budget, &[("bulk", stall_after)]);

        // The hostile tenant walked the full ladder.
        let bulk = shared.tenant_by_name("bulk").unwrap();
        assert_eq!(bulk.state, TenantState::Disconnected);
        assert_eq!(bulk.stats.disconnects, 1);
        assert!(bulk.stats.dropped_bytes > 0);

        // Conservation holds for every tenant, hostile included.
        for t in shared.tenants() {
            assert!(
                t.stats.conserved(),
                "tenant {}: matched={} delivered={} dropped={} discarded={}",
                t.spec.name,
                t.stats.matched_bytes,
                t.stats.delivered_bytes,
                t.stats.dropped_bytes,
                t.stats.discarded_bytes
            );
        }

        // Journal reconciliation: per-tenant Drop sums equal the
        // engine's dropped counters exactly.
        let journal = decode_journal(&kernel.flight().encode()).unwrap();
        for t in shared.tenants() {
            let journal_dropped: u64 = journal
                .events
                .iter()
                .filter(|e| {
                    e.kind == FlightKind::Drop
                        && e.layer == FlightLayer::Tenant
                        && e.uid == t.id
                        && e.reason == DropReason::SlowConsumer
                })
                .map(|e| e.b)
                .sum();
            assert_eq!(
                journal_dropped, t.stats.dropped_bytes,
                "tenant {} journal mismatch",
                t.spec.name
            );
        }

        // Isolation bound: each well-behaved tenant delivered at least
        // 95% of its solo-run bytes despite the hostile tenant.
        for name in ["web", "dns"] {
            let solo_spec: Vec<TenantSpec> =
                specs().into_iter().filter(|s| s.name == name).collect();
            let (solo, _) = run(solo_spec, seed, budget, &[]);
            let solo_t = solo.tenant_by_name(name).unwrap();
            let shared_t = shared.tenant_by_name(name).unwrap();
            assert!(shared_t.stats.dropped_bytes == 0, "{name} took drops");
            assert!(
                shared_t.stats.delivered_bytes * 100 >= solo_t.stats.delivered_bytes * 95,
                "{name}: shared={} < 95% of solo={}",
                shared_t.stats.delivered_bytes,
                solo_t.stats.delivered_bytes
            );
        }
    }

    #[test]
    fn degraded_tenant_recovers_when_consumer_catches_up() {
        let mut eng = TenantEngine::new(1 << 20, 8);
        for s in specs() {
            eng.attach(s, 0, None).unwrap();
        }
        let cfg = eng.merged_config(ScapConfig::default()).unwrap();
        let mut kernel = ScapKernel::new(cfg);
        let packets = trace(7);
        let half = packets.len() / 2;
        let bulk = eng.tenant_by_name("bulk").unwrap().id;
        // First half: bulk's consumer never drains.
        drive(&mut eng, &mut kernel, &packets[..half], &[(bulk, 0)]);
        let mid = eng.tenant_by_name("bulk").unwrap();
        assert_ne!(
            mid.state,
            TenantState::Active,
            "stall must engage the ladder"
        );
        // Catch up: a full drain recovers a degraded tenant.
        let drained = eng.drain(bulk, u64::MAX);
        let t = eng.tenant_by_name("bulk").unwrap();
        if t.state != TenantState::Disconnected {
            assert_eq!(t.state, TenantState::Active);
            assert!(t.stats.recoveries > 0);
            assert!(!drained.is_empty());
        }
        assert!(eng.all_conserved());
    }

    #[test]
    fn attach_detach_storm_keeps_table_and_quotas_consistent() {
        let plan = FaultPlan::tenant_storm(3, 2);
        let cycles = plan
            .tenants
            .iter()
            .find_map(|TenantFault { kind, .. }| match kind {
                TenantFaultKind::AttachStorm { cycles } => Some(*cycles),
                _ => None,
            })
            .expect("tenant storm always storms someone");
        let mut eng = TenantEngine::new(1 << 20, 8);
        let keeper = eng
            .attach(
                TenantSpec {
                    name: "keeper".into(),
                    mem_share: 500,
                    disk_share: 500,
                    ..Default::default()
                },
                0,
                None,
            )
            .unwrap();
        for i in 0..cycles {
            let id = eng
                .attach(
                    TenantSpec {
                        name: "churn".into(),
                        mem_share: 500,
                        disk_share: 500,
                        ..Default::default()
                    },
                    u64::from(i),
                    None,
                )
                .unwrap();
            assert_eq!(eng.mem_committed(), 1000);
            eng.detach(id, u64::from(i), None).unwrap();
            assert_eq!(eng.mem_committed(), 500);
        }
        // Ids are never recycled; the keeper is untouched.
        assert_eq!(eng.tenants().len(), 1);
        assert_eq!(eng.tenant(keeper).unwrap().spec.name, "keeper");
        assert_eq!(eng.next_id, u64::from(cycles) + 2);
    }

    #[test]
    fn tenant_table_round_trips_through_kernel_checkpoint() {
        let (engine, mut kernel) = run(specs(), 9, 64 << 10, &[("bulk", 4)]);
        kernel.set_tenant_table(engine.images());
        let bytes = kernel.checkpoint_bytes(1_000_000, 1);
        let img = crate::checkpoint::CheckpointImage::decode(&bytes).unwrap();
        assert_eq!(img.tenants, engine.images());

        // Restore: ladder states, quotas, and counters survive; the
        // conservation identity holds on the restored table.
        let restored = TenantEngine::from_images(&img.tenants, 64 << 10, 8);
        assert!(restored.all_conserved());
        for (a, b) in engine.tenants().iter().zip(restored.tenants()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.state, b.state);
            assert_eq!(a.stats.delivered_bytes, b.stats.delivered_bytes);
            assert_eq!(a.stats.dropped_bytes, b.stats.dropped_bytes);
        }
        // Quota accounting carries over: a new over-committing attach
        // is still rejected after restore.
        let mut restored = restored;
        assert!(matches!(
            restored.attach(
                TenantSpec {
                    name: "late".into(),
                    mem_share: 900,
                    disk_share: 10,
                    ..Default::default()
                },
                0,
                None,
            ),
            Err(AdmissionError::MemoryOvercommit { .. })
        ));
    }

    #[test]
    fn telemetry_export_totals_match_engine_counters() {
        let (engine, _) = run(specs(), 5, 64 << 10, &[("bulk", 2)]);
        let tele = PlainRegistry::new(1);
        engine.export_telemetry(&tele);
        let snap = tele.snapshot();
        let total_delivered: u64 = engine
            .tenants()
            .iter()
            .map(|t| t.stats.delivered_bytes)
            .sum();
        let total_dropped: u64 = engine.tenants().iter().map(|t| t.stats.dropped_bytes).sum();
        assert_eq!(snap.total(Metric::TenantDeliveredBytes), total_delivered);
        assert_eq!(snap.total(Metric::TenantDroppedBytes), total_dropped);
    }
}
