//! Configuration: everything `scap_create` and the `scap_set_*` family
//! control in the paper's Table 1.

use crate::governor::GovernorConfig;
use scap_faults::FaultPlan;
use scap_filter::Filter;
use scap_memory::PplConfig;
use scap_reassembly::{OverlapPolicy, ReassemblyMode};
use scap_wire::{Direction, FlowKey};

/// Stream cutoffs: default, per-direction, and per-class (§2.1).
///
/// Precedence when a stream is created: the first matching *class*
/// cutoff wins; otherwise the per-direction cutoff if set; otherwise the
/// default. Applications can still override per stream afterwards
/// (`scap_set_stream_cutoff`).
#[derive(Debug, Clone, Default)]
pub struct CutoffPolicy {
    /// Default cutoff for all streams (None = unlimited).
    pub default: Option<u64>,
    /// Direction-specific overrides (`scap_add_cutoff_direction`).
    pub per_direction: [Option<u64>; 2],
    /// Class overrides (`scap_add_cutoff_class`), first match wins.
    pub classes: Vec<(Filter, u64)>,
}

impl CutoffPolicy {
    /// Effective per-direction cutoffs for a new stream.
    pub fn effective(&self, key: &FlowKey) -> [Option<u64>; 2] {
        for (filter, value) in &self.classes {
            if filter.matches_key(key) || filter.matches_key(&key.reversed()) {
                return [Some(*value), Some(*value)];
            }
        }
        [
            self.per_direction[Direction::Forward.index()].or(self.default),
            self.per_direction[Direction::Reverse.index()].or(self.default),
        ]
    }

    /// True when no cutoff can ever apply (fast-path check).
    pub fn is_unlimited(&self) -> bool {
        self.default.is_none()
            && self.per_direction.iter().all(Option::is_none)
            && self.classes.is_empty()
    }

    /// Collapse the policy to a single default cutoff, clearing stale
    /// per-direction and per-class overrides. This is the "widening"
    /// rule shared by `union_config` (a new sharing subscriber must not
    /// inherit a narrower class cutoff) and `apply_config` (a widened
    /// cutoff must clear the overrides that would silently re-narrow it).
    pub fn generalize_to(&mut self, default: Option<u64>) {
        self.default = default;
        self.per_direction = [None, None];
        self.classes.clear();
    }
}

/// Priority assignment at stream creation: first matching filter wins.
#[derive(Debug, Clone, Default)]
pub struct PriorityPolicy {
    /// (filter, priority) pairs; unmatched streams get priority 0.
    pub classes: Vec<(Filter, u8)>,
}

impl PriorityPolicy {
    /// Priority for a new stream.
    pub fn for_key(&self, key: &FlowKey) -> u8 {
        for (filter, prio) in &self.classes {
            if filter.matches_key(key) || filter.matches_key(&key.reversed()) {
                return *prio;
            }
        }
        0
    }

    /// Number of distinct priority levels in use (for PPL watermarks).
    pub fn levels(&self) -> u8 {
        self.classes
            .iter()
            .map(|(_, p)| p + 1)
            .max()
            .unwrap_or(1)
            .max(1)
    }
}

/// How packets move from the RX rings into the kernel pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchMode {
    /// The emulated classic path: one softirq-style `kernel_poll` per
    /// packet, each paying the full per-packet entry cost.
    #[default]
    Classic,
    /// The kernel-bypass poll-mode path: `poll_burst` pulls packets in
    /// bursts and runs batched stages (parse → hash → flow lookup →
    /// reassembly → delivery), amortizing the entry cost and skipping
    /// the per-packet kernel/user copy. Delivered streams are
    /// byte-identical to [`DispatchMode::Classic`].
    Fastpath,
}

/// Why a [`ConfigDelta`] was rejected by validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The delta narrows the default cutoff while wider per-direction
    /// or per-class overrides stay installed: streams matching an
    /// override would keep delivering beyond the new default, silently
    /// contradicting the requested narrowing. Clear or replace the
    /// overrides in the same delta (set `cutoff_classes`), or widen
    /// instead.
    CutoffConflict {
        /// The rejected new default cutoff.
        new_default: Option<u64>,
        /// The widest installed override it conflicts with
        /// (`None` = an unlimited override).
        widest_override: Option<u64>,
    },
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ConfigError::CutoffConflict {
                new_default,
                widest_override,
            } => {
                let fmt_cut = |c: &Option<u64>| match c {
                    Some(v) => v.to_string(),
                    None => "unlimited".to_string(),
                };
                write!(
                    f,
                    "cutoff_default {} conflicts with installed per-direction/class \
                     override {} — clear the overrides in the same delta or widen",
                    fmt_cut(new_default),
                    fmt_cut(widest_override)
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// A hot-reconfiguration delta applied to a *running* capture via
/// `apply_config`: each `Some` field replaces the corresponding part of
/// the live [`ScapConfig`] without tearing down the driver. `None`
/// fields are left untouched.
#[derive(Debug, Default)]
pub struct ConfigDelta {
    /// Replace the default cutoff. Widening (a larger value or `None` =
    /// unlimited) also clears per-direction/class overrides — the same
    /// generalization `union_config` performs — and re-opens streams
    /// whose old, narrower cutoff had already tripped.
    pub cutoff_default: Option<Option<u64>>,
    /// Replace the cutoff class list (applies to new streams).
    pub cutoff_classes: Option<Vec<(Filter, u64)>>,
    /// Replace the priority classes; live streams are re-classified.
    pub priorities: Option<PriorityPolicy>,
    /// Replace the socket-wide BPF filter (`None` inside = match-all).
    pub filter: Option<Option<Filter>>,
}

impl ConfigDelta {
    /// Check this delta against the configuration it would be applied
    /// to, without consuming it. The only rejected shape is a *narrowed*
    /// default cutoff that leaves wider per-direction or per-class
    /// overrides installed: `apply_to` would set the new default, the
    /// overrides would keep winning for the streams they match, and the
    /// narrowing would be silently ignored for exactly the traffic it
    /// was probably aimed at. Widening is always fine — it generalizes
    /// the whole policy — and a delta that replaces the class list
    /// (`cutoff_classes`) vouches for its own classes.
    pub fn validate(&self, cfg: &ScapConfig) -> Result<(), ConfigError> {
        let Some(new_default) = self.cutoff_default else {
            return Ok(());
        };
        // Mirror `apply_to`'s widening rule: widen ⇒ generalize_to
        // clears every override, so no conflict can survive.
        let widened = match (cfg.cutoff.default, new_default) {
            (Some(old), Some(new)) => new > old,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if widened {
            return Ok(());
        }
        let Some(new) = new_default else {
            // None → None: no effective change, nothing to conflict.
            return Ok(());
        };
        let mut widest: Option<u64> = None;
        let mut consider = |v: u64| {
            if v > new && widest.is_none_or(|w| v > w) {
                widest = Some(v);
            }
        };
        for d in cfg.cutoff.per_direction.iter().flatten() {
            consider(*d);
        }
        if self.cutoff_classes.is_none() {
            for (_, v) in &cfg.cutoff.classes {
                consider(*v);
            }
        }
        match widest {
            Some(v) => Err(ConfigError::CutoffConflict {
                new_default,
                widest_override: Some(v),
            }),
            None => Ok(()),
        }
    }
}

/// Full capture configuration (the `scap_create` arguments plus every
/// `scap_set_*` knob).
#[derive(Debug, Clone)]
pub struct ScapConfig {
    /// Stream-memory budget in bytes (`memory_size`).
    pub memory_bytes: usize,
    /// TCP reassembly mode (`SCAP_TCP_STRICT` / `SCAP_TCP_FAST`).
    pub reassembly_mode: ReassemblyMode,
    /// Default target-based overlap policy.
    pub overlap_policy: OverlapPolicy,
    /// Deliver per-packet records alongside chunks (`need_pkts`).
    pub need_pkts: bool,
    /// Socket-wide BPF filter (`scap_set_filter`).
    pub filter: Option<Filter>,
    /// Cutoff configuration.
    pub cutoff: CutoffPolicy,
    /// Priority classes for PPL.
    pub priorities: PriorityPolicy,
    /// Worker threads (`scap_set_worker_threads`).
    pub worker_threads: usize,
    /// Kernel cores / NIC queues (the sensor machine has 8).
    pub cores: usize,
    /// Chunk size (default 16 KB, as in the evaluation).
    pub chunk_size: usize,
    /// Chunk overlap bytes.
    pub overlap: usize,
    /// Flush timeout for partial chunks (ns).
    pub flush_timeout_ns: u64,
    /// Inactivity timeout for stream expiration (ns; paper uses 10 s).
    pub inactivity_timeout_ns: u64,
    /// PPL parameters (`base_threshold`, `overload_cutoff`).
    pub ppl: PplConfig,
    /// Use NIC flow-director filters for subzero-copy discarding.
    pub use_fdir: bool,
    /// Dynamic FDIR load balancing (§2.4): when RSS assigns a new stream
    /// to a core already holding more than `balance_threshold ×` the
    /// average stream count, steer the stream to the least-loaded core
    /// with a flow-director filter instead.
    pub use_fdir_balancing: bool,
    /// Imbalance trigger as a multiple of the per-core average.
    pub balance_threshold: f64,
    /// RX descriptor ring size per queue.
    pub rx_ring_slots: usize,
    /// Maximum queued events per core (beyond this, data chunks are
    /// dropped; memory pressure usually intervenes first).
    pub event_queue_cap: usize,
    /// Overload-governor tuning (always active; the defaults only bite
    /// under sustained pressure).
    pub governor: GovernorConfig,
    /// Deterministic fault-injection plan (tests and the `faults`
    /// experiment; None in production use).
    pub faults: Option<FaultPlan>,
    /// Gauge-sampling interval for the telemetry time-series (ns of
    /// trace/virtual time between rows).
    pub telemetry_sample_interval_ns: u64,
    /// Maximum retained telemetry time-series rows (oldest evicted).
    pub telemetry_series_cap: usize,
    /// Per-core flight-recorder ring capacity (events). The recorder is
    /// always on; a full ring overwrites its oldest events and counts
    /// the overwrites.
    pub flight_ring_cap: usize,
    /// How packets are dispatched from the RX rings (classic per-packet
    /// emulated path vs. poll-mode kernel-bypass bursts).
    pub dispatch: DispatchMode,
    /// Frames per burst on the fast path (clamped to ≥ 1).
    pub fastpath_burst: usize,
    /// Use the programmable flow-offload engine for cutoff enforcement
    /// (one bidirectional rule per stream instead of four FDIR filters)
    /// and for application-programmed bypass/mark/sample rules.
    pub use_offload: bool,
    /// Offload-table rule capacity (the simulated hardware table size).
    pub offload_capacity: usize,
    /// Worker failures (panics + stalls) inside
    /// [`ScapConfig::watchdog_breaker_window_ns`] that trip the live
    /// watchdog's circuit breaker and park the slot instead of
    /// respawning it forever.
    pub watchdog_breaker_threshold: u32,
    /// Sliding failure window (virtual ns) of the watchdog's circuit
    /// breaker.
    pub watchdog_breaker_window_ns: u64,
    /// Pulse-plane exemplar sampling quantile, in permille: stage
    /// delays at or above this quantile of their own distribution are
    /// tail-sampled into exemplars (990 = p99).
    pub pulse_exemplar_permille: u32,
    /// Exemplars retained per pulse stage (worst delays win).
    pub pulse_exemplar_cap: usize,
}

impl Default for ScapConfig {
    fn default() -> Self {
        ScapConfig {
            memory_bytes: 256 << 20,
            reassembly_mode: ReassemblyMode::Fast,
            overlap_policy: OverlapPolicy::default(),
            need_pkts: false,
            filter: None,
            cutoff: CutoffPolicy::default(),
            priorities: PriorityPolicy::default(),
            worker_threads: 1,
            cores: 8,
            chunk_size: 16 << 10,
            overlap: 0,
            flush_timeout_ns: 100_000_000,
            inactivity_timeout_ns: 10_000_000_000,
            ppl: PplConfig {
                base_threshold: 0.5,
                num_priorities: 1,
                overload_cutoff: None,
            },
            use_fdir: false,
            use_fdir_balancing: false,
            balance_threshold: 1.5,
            rx_ring_slots: 4096,
            event_queue_cap: 1 << 16,
            governor: GovernorConfig::default(),
            faults: None,
            telemetry_sample_interval_ns: 5_000_000,
            telemetry_series_cap: 4096,
            flight_ring_cap: scap_flight::DEFAULT_RING_CAP,
            dispatch: DispatchMode::Classic,
            fastpath_burst: scap_fastpath::DEFAULT_BURST,
            use_offload: false,
            offload_capacity: scap_offload::DEFAULT_OFFLOAD_CAPACITY,
            watchdog_breaker_threshold: 8,
            watchdog_breaker_window_ns: 2_000_000_000,
            pulse_exemplar_permille: 990,
            pulse_exemplar_cap: 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scap_wire::Transport;

    fn key(port: u16) -> FlowKey {
        FlowKey::new_v4([10, 0, 0, 1], [10, 0, 0, 2], 40000, port, Transport::Tcp)
    }

    #[test]
    fn cutoff_precedence_class_over_direction_over_default() {
        let mut c = CutoffPolicy {
            default: Some(1000),
            ..Default::default()
        };
        assert_eq!(c.effective(&key(80)), [Some(1000), Some(1000)]);
        c.per_direction[Direction::Reverse.index()] = Some(5000);
        assert_eq!(c.effective(&key(80)), [Some(1000), Some(5000)]);
        c.classes.push((Filter::new("port 80").unwrap(), 77));
        assert_eq!(c.effective(&key(80)), [Some(77), Some(77)]);
        assert_eq!(c.effective(&key(443)), [Some(1000), Some(5000)]);
    }

    #[test]
    fn class_cutoff_matches_either_direction_of_stream() {
        let c = CutoffPolicy {
            classes: vec![(Filter::new("src port 80").unwrap(), 9)],
            ..Default::default()
        };
        // The canonical key may have port 80 on either side.
        assert_eq!(c.effective(&key(80)), [Some(9), Some(9)]);
        assert_eq!(c.effective(&key(80).reversed()), [Some(9), Some(9)]);
    }

    #[test]
    fn unlimited_detection() {
        assert!(CutoffPolicy::default().is_unlimited());
        assert!(!CutoffPolicy {
            default: Some(0),
            ..Default::default()
        }
        .is_unlimited());
    }

    #[test]
    fn validate_rejects_narrowing_below_installed_overrides() {
        let mut cfg = ScapConfig {
            cutoff: CutoffPolicy {
                default: Some(10_000),
                ..Default::default()
            },
            ..Default::default()
        };
        cfg.cutoff.per_direction[Direction::Forward.index()] = Some(50_000);

        // Narrowing the default below the per-direction override is the
        // silently-contradicted shape: rejected, naming the override.
        let narrow = ConfigDelta {
            cutoff_default: Some(Some(1_000)),
            ..Default::default()
        };
        assert_eq!(
            narrow.validate(&cfg),
            Err(ConfigError::CutoffConflict {
                new_default: Some(1_000),
                widest_override: Some(50_000),
            })
        );
        assert!(narrow
            .validate(&cfg)
            .unwrap_err()
            .to_string()
            .contains("50000"));

        // Widening generalizes away every override: always fine.
        let widen = ConfigDelta {
            cutoff_default: Some(Some(1 << 20)),
            ..Default::default()
        };
        assert_eq!(widen.validate(&cfg), Ok(()));
        let unlimited = ConfigDelta {
            cutoff_default: Some(None),
            ..Default::default()
        };
        assert_eq!(unlimited.validate(&cfg), Ok(()));
    }

    #[test]
    fn validate_class_conflict_waived_when_delta_replaces_classes() {
        let cfg = ScapConfig {
            cutoff: CutoffPolicy {
                default: Some(10_000),
                classes: vec![(Filter::new("port 80").unwrap(), 90_000)],
                ..Default::default()
            },
            ..Default::default()
        };
        let narrow = ConfigDelta {
            cutoff_default: Some(Some(1_000)),
            ..Default::default()
        };
        assert_eq!(
            narrow.validate(&cfg),
            Err(ConfigError::CutoffConflict {
                new_default: Some(1_000),
                widest_override: Some(90_000),
            })
        );
        // A delta that replaces the class list vouches for its classes:
        // the stale ones it conflicted with are gone after apply.
        let replace = ConfigDelta {
            cutoff_default: Some(Some(1_000)),
            cutoff_classes: Some(vec![]),
            ..Default::default()
        };
        assert_eq!(replace.validate(&cfg), Ok(()));
        // A delta touching no cutoff at all is trivially valid.
        assert_eq!(ConfigDelta::default().validate(&cfg), Ok(()));
    }

    #[test]
    fn priority_assignment() {
        let p = PriorityPolicy {
            classes: vec![(Filter::new("port 80").unwrap(), 1)],
        };
        assert_eq!(p.for_key(&key(80)), 1);
        assert_eq!(p.for_key(&key(443)), 0);
        assert_eq!(p.levels(), 2);
        assert_eq!(PriorityPolicy::default().levels(), 1);
    }
}
