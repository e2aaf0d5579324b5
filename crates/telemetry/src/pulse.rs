//! # scap-pulse — the end-to-end latency plane.
//!
//! [`Pulse`] is a per-kernel latency recorder: one log2 histogram per
//! [`PulseStage`] plus a bounded ring of **exemplars** — the concrete
//! slow packets behind the tail percentiles. Clock-difference stages
//! (kernel dispatch, tenant queue, delivery) record deltas on the trace
//! clock (`now − ingress_ns`), which under both the sim and the live
//! driver is the packets' own capture timestamps, so same-seed runs
//! produce byte-identical distributions. Processing stages (NIC
//! verdict, offload, flow table, store seal, checkpoint) record virtual
//! nanoseconds derived from deterministic per-op cost models anchored
//! at [`CORE_HZ`].
//!
//! Exemplar sampling is *tail* sampling: a record is exemplar-eligible
//! only while its delay is at or above a cached estimate of the
//! configured quantile (refreshed every [`THRESHOLD_REFRESH`] records).
//! At snapshot time the ring is re-filtered against the **final**
//! quantile estimate, so every exported exemplar provably satisfies
//! `delay ≥ quantile(q)` of the histogram it rides with — including
//! after cross-shard merges, which re-filter again. Each exemplar
//! carries the stream uid and the flight-journal cursor at record time,
//! so `scapcat --trace <uid>` can replay why that packet was slow.

use crate::hist::{bucket_of, Hist64, HistSnapshot};
use crate::PulseStage;
use std::cell::Cell;

/// Virtual core frequency anchoring cycle→ns conversion (2 GHz, the
/// same anchor the sim cost model uses).
pub const CORE_HZ: u64 = 2_000_000_000;

/// Whole cycles per nanosecond at the anchor.
const CYCLES_PER_NS: u64 = CORE_HZ / 1_000_000_000;
const _: () = assert!(CYCLES_PER_NS * 1_000_000_000 == CORE_HZ);

/// Records between refreshes of the cached exemplar threshold.
const THRESHOLD_REFRESH: u64 = 256;

/// Convert virtual cycles to nanoseconds at the [`CORE_HZ`] anchor,
/// rounded down: exact integer arithmetic for every input.
#[inline]
pub fn cycles_to_ns(cycles: u64) -> u64 {
    cycles / CYCLES_PER_NS
}

/// One tail-sampled outlier: the concrete packet behind a percentile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// Stream uid the slow packet belonged to (0 = no stream context).
    pub uid: u64,
    /// Stage whose latency this exemplifies.
    pub stage: PulseStage,
    /// The observed stage delay, in nanoseconds.
    pub delay_ns: u64,
    /// Flight-journal cursor (events recorded so far) at sample time —
    /// bounds where in the journal this packet's story lives.
    pub cursor: u64,
}

/// The live, mutable latency recorder owned by a kernel (or engine).
pub struct Pulse {
    hists: Vec<Hist64<Cell<u64>>>,
    exemplars: Vec<Vec<Exemplar>>,
    thresholds: Vec<u64>,
    since_refresh: Vec<u64>,
    quantile_permille: u32,
    exemplar_cap: usize,
}

impl std::fmt::Debug for Pulse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pulse")
            .field("quantile_permille", &self.quantile_permille)
            .field("exemplar_cap", &self.exemplar_cap)
            .field(
                "recorded",
                &self.hists.iter().map(|h| h.snapshot().count()).sum::<u64>(),
            )
            .finish_non_exhaustive()
    }
}

impl Default for Pulse {
    fn default() -> Self {
        Pulse::new(990, 8)
    }
}

impl Pulse {
    /// A recorder tail-sampling above the `quantile_permille`/1000
    /// quantile, keeping at most `exemplar_cap` exemplars per stage.
    pub fn new(quantile_permille: u32, exemplar_cap: usize) -> Self {
        let n = PulseStage::COUNT;
        Pulse {
            hists: (0..n).map(|_| Hist64::default()).collect(),
            exemplars: vec![Vec::new(); n],
            thresholds: vec![0; n],
            since_refresh: vec![0; n],
            quantile_permille: quantile_permille.clamp(1, 999),
            exemplar_cap,
        }
    }

    /// The sampling quantile, as a fraction.
    pub fn quantile(&self) -> f64 {
        f64::from(self.quantile_permille) / 1000.0
    }

    /// Record a stage delay with no stream context (never an exemplar).
    #[inline]
    pub fn record(&mut self, stage: PulseStage, delay_ns: u64) {
        self.hists[stage.idx()].record(delay_ns);
    }

    /// Record `n` identical stage delays (batched processing costs).
    #[inline]
    pub fn record_n(&mut self, stage: PulseStage, delay_ns: u64, n: u64) {
        self.hists[stage.idx()].record_n(delay_ns, n);
    }

    /// Record a stage delay for stream `uid`, tail-sampling it into the
    /// exemplar ring when it clears the cached quantile threshold.
    /// `cursor` is the flight-journal position at record time. Returns
    /// `true` when the sample entered the exemplar ring, so the caller
    /// can journal the outlier (a `pulse_exemplar` flight event) and
    /// keep the exemplar→journal lookup resolvable.
    pub fn record_uid(&mut self, stage: PulseStage, delay_ns: u64, uid: u64, cursor: u64) -> bool {
        let i = stage.idx();
        self.hists[i].record(delay_ns);
        self.since_refresh[i] += 1;
        if self.since_refresh[i] >= THRESHOLD_REFRESH {
            self.since_refresh[i] = 0;
            self.thresholds[i] = self.hists[i].snapshot().quantile_floor(self.quantile());
        }
        // Eligible only once the threshold has been established: early
        // records cannot flood the ring before the distribution exists.
        if uid == 0 || self.thresholds[i] == 0 || delay_ns < self.thresholds[i] {
            return false;
        }
        let ring = &mut self.exemplars[i];
        ring.push(Exemplar {
            uid,
            stage,
            delay_ns,
            cursor,
        });
        if ring.len() > self.exemplar_cap {
            // Evict the smallest delay (first occurrence on ties) so the
            // ring deterministically keeps the worst outliers.
            let min = ring
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.delay_ns)
                .map(|(j, _)| j)
                .unwrap_or(0);
            ring.remove(min);
        }
        true
    }

    /// Export the current state, re-filtering the exemplar rings against
    /// the **final** per-stage quantile estimates so every exported
    /// exemplar satisfies `delay_ns ≥ quantile(q)`.
    pub fn snapshot(&self) -> PulseSnapshot {
        let mut s = PulseSnapshot {
            stages: self.hists.iter().map(|h| h.snapshot()).collect(),
            exemplars: self.exemplars.iter().flatten().copied().collect(),
            quantile_permille: self.quantile_permille,
            exemplar_cap: self.exemplar_cap,
        };
        s.normalize();
        s
    }
}

/// Plain-data pulse state: mergeable across shards and incarnations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PulseSnapshot {
    /// One histogram per [`PulseStage`], in declaration order.
    pub stages: Vec<HistSnapshot>,
    /// Tail exemplars, every one satisfying `delay_ns ≥` its stage's
    /// `quantile(q)` estimate from `stages`.
    pub exemplars: Vec<Exemplar>,
    /// The sampling quantile, in permille.
    pub quantile_permille: u32,
    /// Per-stage exemplar retention cap.
    pub exemplar_cap: usize,
}

impl Default for PulseSnapshot {
    fn default() -> Self {
        PulseSnapshot {
            stages: (0..PulseStage::COUNT)
                .map(|_| HistSnapshot::default())
                .collect(),
            exemplars: Vec::new(),
            quantile_permille: 990,
            exemplar_cap: 8,
        }
    }
}

impl PulseSnapshot {
    /// The sampling quantile, as a fraction.
    pub fn quantile(&self) -> f64 {
        f64::from(self.quantile_permille) / 1000.0
    }

    /// The histogram for one stage.
    pub fn stage(&self, st: PulseStage) -> &HistSnapshot {
        &self.stages[st.idx()]
    }

    /// The exemplar threshold for a stage: the conservative
    /// (bucket-floor) estimate of the sampling quantile, guaranteed ≤
    /// the true quantile so the tail-sample set is never vacuously
    /// empty. Every exported exemplar satisfies `delay_ns ≥` this.
    pub fn threshold(&self, st: PulseStage) -> u64 {
        self.stages[st.idx()].quantile_floor(self.quantile())
    }

    /// Exemplars belonging to one stage, worst first.
    pub fn stage_exemplars(&self, st: PulseStage) -> Vec<Exemplar> {
        self.exemplars
            .iter()
            .filter(|e| e.stage == st)
            .copied()
            .collect()
    }

    /// Absorb another snapshot: histograms merge element-wise, exemplar
    /// sets concatenate and are re-filtered against the merged per-stage
    /// quantile estimates (a shard-local outlier may fall below the
    /// fleet-wide tail), then re-capped worst-first.
    pub fn merge(&mut self, other: &PulseSnapshot) {
        for (a, b) in self.stages.iter_mut().zip(other.stages.iter()) {
            a.merge(b);
        }
        self.exemplars.extend_from_slice(&other.exemplars);
        self.exemplar_cap = self.exemplar_cap.max(other.exemplar_cap);
        self.normalize();
    }

    /// Re-establish the exemplar invariants: drop entries below their
    /// stage's current quantile estimate, order deterministically
    /// (stage, then worst delay first), and cap per stage.
    fn normalize(&mut self) {
        let q = self.quantile();
        let thresholds: Vec<u64> = self.stages.iter().map(|h| h.quantile_floor(q)).collect();
        self.exemplars
            .retain(|e| e.delay_ns >= thresholds[e.stage.idx()] && e.delay_ns > 0);
        self.exemplars.sort_by(|a, b| {
            (
                a.stage.idx(),
                std::cmp::Reverse(a.delay_ns),
                a.uid,
                a.cursor,
            )
                .cmp(&(
                    b.stage.idx(),
                    std::cmp::Reverse(b.delay_ns),
                    b.uid,
                    b.cursor,
                ))
        });
        self.exemplars.dedup();
        let cap = self.exemplar_cap;
        let mut kept = [0usize; PulseStage::COUNT];
        self.exemplars.retain(|e| {
            kept[e.stage.idx()] += 1;
            kept[e.stage.idx()] <= cap
        });
    }

    /// (count, p50, p99, p999) summary for one stage.
    pub fn summary(&self, st: PulseStage) -> (u64, u64, u64, u64) {
        let h = self.stage(st);
        (
            h.count(),
            h.quantile(0.50),
            h.quantile(0.99),
            h.quantile(0.999),
        )
    }

    /// True when no stage recorded anything.
    pub fn is_empty(&self) -> bool {
        self.stages.iter().all(|h| h.count() == 0)
    }
}

/// Deterministic virtual-cost helpers shared by every driver, so both
/// dispatch paths and the live driver attribute identical processing
/// costs to identical work. All are cycle counts at the [`CORE_HZ`]
/// anchor; callers convert with [`cycles_to_ns`].
pub mod cost {
    /// NIC verdict: filter consult + RSS hash + ring admission.
    pub fn nic_verdict_cycles(frame_len: u64) -> u64 {
        60 + frame_len / 16
    }

    /// Offload table consult (and action application on a hit).
    pub fn offload_cycles(hit: bool) -> u64 {
        if hit {
            48
        } else {
            22
        }
    }

    /// Flow-table lookup: `probes` open-addressing group probes plus
    /// fixed parse/touch overhead.
    pub fn flow_table_cycles(probes: u64) -> u64 {
        30 + 28 * probes.max(1)
    }

    /// Store seal: per-stream index commit plus per-byte append cost.
    pub fn store_seal_cycles(bytes: u64) -> u64 {
        400 + bytes / 4
    }

    /// Checkpoint encode+fsync model from the image size.
    pub fn checkpoint_cycles(image_bytes: u64) -> u64 {
        2_000 + image_bytes / 2
    }
}

/// Sanity helper used by tests and experiment assertions: true when the
/// exemplar is consistent with the snapshot it was exported with.
pub fn exemplar_consistent(s: &PulseSnapshot, e: &Exemplar) -> bool {
    e.delay_ns >= s.threshold(e.stage) && s.stage(e.stage).buckets[bucket_of(e.delay_ns)] > 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(seed: u64) -> Pulse {
        let mut p = Pulse::new(900, 4);
        let mut x = seed;
        for i in 0..2000u64 {
            // xorshift: a deterministic spread of delays.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let delay = x % 10_000;
            p.record_uid(PulseStage::Delivery, delay, 1 + i % 37, i);
        }
        p.record(PulseStage::NicVerdict, 120);
        p
    }

    #[test]
    fn exemplars_clear_the_final_threshold() {
        let s = filled(42).snapshot();
        assert!(!s.exemplars.is_empty(), "tail sampling produced nothing");
        for e in &s.exemplars {
            assert!(exemplar_consistent(&s, e), "exemplar {e:?} below threshold");
            assert!(e.uid != 0);
        }
        // Per-stage cap respected.
        assert!(s.stage_exemplars(PulseStage::Delivery).len() <= 4);
        // uid-less records never become exemplars.
        assert!(s.stage_exemplars(PulseStage::NicVerdict).is_empty());
    }

    #[test]
    fn snapshots_are_deterministic() {
        assert_eq!(filled(7).snapshot(), filled(7).snapshot());
    }

    #[test]
    fn merge_refilters_against_merged_tail() {
        let a = filled(1).snapshot();
        let b = filled(99).snapshot();
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(
            m.stage(PulseStage::Delivery).count(),
            a.stage(PulseStage::Delivery).count() + b.stage(PulseStage::Delivery).count()
        );
        for e in &m.exemplars {
            assert!(
                exemplar_consistent(&m, e),
                "merged exemplar {e:?} below merged threshold"
            );
        }
        // Merge is commutative on the histogram state.
        let mut m2 = b.clone();
        m2.merge(&a);
        assert_eq!(m.stages, m2.stages);
        assert_eq!(m.exemplars, m2.exemplars);
    }

    #[test]
    fn cost_models_are_monotone() {
        assert!(cost::nic_verdict_cycles(1500) > cost::nic_verdict_cycles(64));
        assert!(cost::flow_table_cycles(9) > cost::flow_table_cycles(1));
        assert!(cost::store_seal_cycles(1 << 20) > cost::store_seal_cycles(64));
        assert!(cost::checkpoint_cycles(1 << 20) > cost::checkpoint_cycles(1 << 10));
        assert_eq!(cycles_to_ns(2_000_000_000), 1_000_000_000);
    }

    /// What `cycles_to_ns` computed in floating point, which rounds the
    /// product once it passes 2^53.
    fn float_cycles_to_ns(cycles: u64) -> u64 {
        (cycles as f64 * 1e9 / 2.0e9) as u64
    }

    #[test]
    fn integer_clock_equals_the_float_formula_below_2_pow_24() {
        for c in 0..1u64 << 24 {
            assert_eq!(cycles_to_ns(c), float_cycles_to_ns(c), "{c} cycles");
        }
    }

    proptest::proptest! {
        #[test]
        fn integer_clock_equals_the_float_formula_below_2_pow_33(start in 0u64..1 << 33) {
            for c in start..start + 1024 {
                proptest::prop_assert_eq!(cycles_to_ns(c), float_cycles_to_ns(c), "{} cycles", c);
            }
        }
    }
}
