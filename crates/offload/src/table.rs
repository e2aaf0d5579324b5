//! The fixed-capacity open-addressed rule table.
//!
//! The index is the kernel flow table's ([`GroupIndex`]: ctrl tags probed
//! a group at a time, cached 64-bit hashes) with the rule itself as the
//! payload of its position, so a hit touches no second structure — but
//! sized once at construction and never rehashed: hardware flow tables
//! have a fixed number of entries. Deleting rules leaves tombstones; when
//! tombstones would start lengthening probe chains noticeably (a quarter
//! of the index), the table compacts in place, which stands in for the
//! background re-programming real firmware does.

use crate::{OffloadAction, OffloadError, OffloadRule, OffloadVerdict};
use scap_flow::index::{GroupIndex, GROUP};
use scap_wire::{FlowKey, ParsedPacket, TcpFlags};

/// Aggregate offload accounting. Per-rule hit/byte counters fold into
/// `evicted_hits`/`evicted_bytes` when a rule is evicted or removed, so
/// `hits`/`hit_bytes` (which include them) never go backwards and no
/// frame ever falls out of the accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OffloadStats {
    /// Frames matched by any rule (all actions, kept or dropped).
    pub hits: u64,
    /// Bytes matched by any rule.
    pub hit_bytes: u64,
    /// Frames dropped by `Drop` rules (subzero copy).
    pub drop_frames: u64,
    /// Bytes dropped by `Drop` rules.
    pub drop_bytes: u64,
    /// Frames shunted by `Bypass` rules (counted delivered at the NIC).
    pub bypass_frames: u64,
    /// Bytes shunted by `Bypass` rules.
    pub bypass_bytes: u64,
    /// Frames passed through tagged by `Mark` rules.
    pub mark_frames: u64,
    /// Frames kept (1-in-N) by `Sample` rules.
    pub sample_kept_frames: u64,
    /// Frames dropped by `Sample` rules.
    pub sample_drop_frames: u64,
    /// Bytes dropped by `Sample` rules.
    pub sample_drop_bytes: u64,
    /// TCP control packets (SYN/FIN/RST) punted to the host by
    /// drop-class rules.
    pub control_passthrough: u64,
    /// Rules evicted under table pressure.
    pub evictions: u64,
    /// Hits folded in from evicted/removed rules (already included in
    /// `hits`; kept separately so reconciliation can see the fold).
    pub evicted_hits: u64,
    /// Bytes folded in from evicted/removed rules.
    pub evicted_bytes: u64,
    /// Rule add/remove operations (cost-model input, like FDIR's ~10 µs).
    pub ops: u64,
    /// Installs rejected with [`OffloadError::Busy`] (injected faults).
    pub transient_failures: u64,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    key: FlowKey,
    action: OffloadAction,
    priority: u8,
    hits: u64,
    bytes: u64,
    /// Per-flow packet sequence for deterministic 1-in-N sampling.
    sample_seq: u32,
}

impl Entry {
    fn rule(&self) -> OffloadRule {
        OffloadRule {
            key: self.key,
            action: self.action,
            priority: self.priority,
        }
    }
}

/// The programmable flow-offload table.
#[derive(Debug)]
pub struct OffloadTable {
    /// The installed rules, each at its index position (FULL ⇔ `Some`).
    index: GroupIndex<Option<Entry>>,
    /// Hard rule limit (the hardware table size).
    capacity: usize,
    seed: u64,
    /// Clock hand for tiered eviction, in index positions.
    clock: usize,
    stats: OffloadStats,
    faults: Option<scap_faults::FdirInjector>,
}

impl OffloadTable {
    /// A table holding at most `capacity` rules; `seed` randomizes the
    /// hash (the same symmetric hash both directions share).
    pub fn new(capacity: usize, seed: u64) -> Self {
        let capacity = capacity.max(1);
        OffloadTable {
            // Sized so `capacity` rules stay under a 7/8 load factor.
            index: GroupIndex::with_capacity(capacity * 8 / 7 + GROUP),
            capacity,
            seed,
            clock: 0,
            stats: OffloadStats::default(),
            faults: None,
        }
    }

    /// Attach a fault injector; subsequent `add` calls may transiently
    /// fail with [`OffloadError::Busy`].
    pub fn set_fault_injector(&mut self, inj: scap_faults::FdirInjector) {
        self.faults = Some(inj);
    }

    /// Installed rules.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Remaining rule capacity.
    pub fn free(&self) -> usize {
        self.capacity - self.len()
    }

    /// The hard rule limit.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Rule occupancy in permille of the hardware capacity.
    pub fn load_permille(&self) -> u64 {
        (self.len() as u64 * 1000) / self.capacity as u64
    }

    /// Aggregate accounting.
    pub fn stats(&self) -> OffloadStats {
        self.stats
    }

    fn hash(&self, canon: &FlowKey) -> u64 {
        canon.sym_hash(self.seed)
    }

    /// Position of the rule for `canon`, if installed.
    fn find(&self, h: u64, canon: &FlowKey) -> Option<usize> {
        let same_flow = |e: &Option<Entry>| e.as_ref().is_some_and(|e| e.key == *canon);
        self.index.scan(h, || {}, same_flow)
    }

    fn rule_at(&self, pos: usize) -> &Entry {
        self.index.get(pos).as_ref().expect("rule at FULL position")
    }

    fn erase(&mut self, pos: usize) -> Entry {
        let e = self.index.erase(pos).expect("rule at FULL position");
        // Fold the departing rule's counters into the aggregates so no
        // hit is lost when the rule goes away.
        self.stats.evicted_hits += e.hits;
        self.stats.evicted_bytes += e.bytes;
        self.maybe_compact();
        e
    }

    /// Compact in place once tombstones cover a quarter of the index
    /// (fixed tables cannot rehash away probe-chain rot; firmware
    /// re-programs instead).
    fn maybe_compact(&mut self) {
        if self.index.tombstones() * 4 < self.index.capacity() {
            return;
        }
        let mut all = 0..self.index.capacity();
        let live: Vec<_> = std::iter::from_fn(|| self.index.take_next(&mut all)).collect();
        self.index.clear();
        for (h, e) in live {
            self.index.insert(h, e);
        }
    }

    /// Install a rule. The key is canonicalized, so one rule covers
    /// both directions of the flow.
    pub fn add(&mut self, rule: OffloadRule) -> Result<(), OffloadError> {
        if let Some(inj) = self.faults.as_mut() {
            match inj.on_install() {
                scap_faults::FdirInstallFault::TransientFail => {
                    self.stats.transient_failures += 1;
                    return Err(OffloadError::Busy);
                }
                scap_faults::FdirInstallFault::Latency(_) | scap_faults::FdirInstallFault::None => {
                }
            }
        }
        let canon = rule.key.canonical().0;
        let h = self.hash(&canon);
        if self.find(h, &canon).is_some() {
            return Err(OffloadError::Duplicate);
        }
        if self.len() >= self.capacity {
            return Err(OffloadError::TableFull);
        }
        let entry = Entry {
            key: canon,
            action: rule.action,
            priority: rule.priority,
            hits: 0,
            bytes: 0,
            sample_seq: 0,
        };
        self.index.insert(h, Some(entry));
        self.stats.ops += 1;
        Ok(())
    }

    /// Remove the rule for a flow (either direction of the key works).
    pub fn remove(&mut self, key: &FlowKey) -> Result<OffloadRule, OffloadError> {
        let canon = key.canonical().0;
        let h = self.hash(&canon);
        let Some(pos) = self.find(h, &canon) else {
            return Err(OffloadError::NotFound);
        };
        let e = self.erase(pos);
        self.stats.ops += 1;
        Ok(e.rule())
    }

    /// The installed action for a flow, if any (no counters touched).
    pub fn action_for(&self, key: &FlowKey) -> Option<OffloadAction> {
        let canon = key.canonical().0;
        let h = self.hash(&canon);
        self.find(h, &canon).map(|pos| self.rule_at(pos).action)
    }

    /// The mark tag for a flow, if a `Mark` rule is installed — the
    /// kernel consults this at stream creation.
    pub fn mark_for(&self, key: &FlowKey) -> Option<u8> {
        match self.action_for(key) {
            Some(OffloadAction::Mark(t)) => Some(t),
            _ => None,
        }
    }

    /// Snapshot every installed rule (checkpointing; order unspecified,
    /// the codec sorts by encoding for determinism).
    pub fn rules(&self) -> Vec<OffloadRule> {
        // Every periodic checkpoint asks: walk the tag bytes, not the
        // rules, and no further than the last rule installed — a capture
        // that installs none pays nothing.
        let installed = self.index.full(0..self.index.capacity());
        installed
            .take(self.len())
            .map(|pos| self.rule_at(pos).rule())
            .collect()
    }

    /// Tiered clock eviction: scan up to `max_scan` installed rules
    /// from the clock hand and evict the lowest-priority one (fewest
    /// hits breaks ties, so cold rules go before hot ones). Returns the
    /// evicted rule. Counters fold into the aggregates first.
    pub fn evict_tiered(&mut self, max_scan: usize) -> Option<OffloadRule> {
        let (cap, window) = (self.index.capacity(), max_scan.max(1));
        let mut best: Option<(u8, u64, usize)> = None;
        let mut last = self.clock;
        // At most one turn of the clock.
        for pos in self.index.full(self.clock..self.clock + cap).take(window) {
            let e = self.rule_at(pos);
            if best.is_none_or(|(p, hits, _)| (e.priority, e.hits) < (p, hits)) {
                best = Some((e.priority, e.hits, pos));
            }
            last = pos;
        }
        let (_, _, victim) = best?;
        // The hand stops on the last rule of a full window; with fewer
        // rules than that it has come all the way round.
        let hand = if self.len() >= window {
            last
        } else {
            self.clock
        };
        self.clock = (hand + 1) & (cap - 1);
        let e = self.erase(victim);
        self.stats.evictions += 1;
        self.stats.ops += 1;
        Some(e.rule())
    }

    /// Hardware lookup for one frame. Returns `None` when no rule
    /// matches (the frame continues to FDIR/RSS) — including TCP
    /// control packets punted past drop-class rules.
    pub fn lookup(&mut self, parsed: &ParsedPacket<'_>) -> Option<OffloadVerdict> {
        if self.is_empty() {
            return None;
        }
        let key = parsed.key.as_ref()?;
        let canon = key.canonical().0;
        let h = self.hash(&canon);
        let pos = self.find(h, &canon)?;
        let len = parsed.frame.len() as u64;

        // Drop-class rules punt SYN/FIN/RST to the host so the kernel
        // still sees connection setup and teardown (§5.5).
        if let Some(tcp) = parsed.tcp.as_ref() {
            let ctl = TcpFlags(TcpFlags::SYN.0 | TcpFlags::FIN.0 | TcpFlags::RST.0);
            let is_control = tcp.flags.0 & ctl.0 != 0;
            if is_control && self.rule_at(pos).action.can_drop() {
                self.stats.control_passthrough += 1;
                return None;
            }
        }

        let e = self.index.get_mut(pos).as_mut().expect("found rule");
        e.hits += 1;
        e.bytes += len;
        self.stats.hits += 1;
        self.stats.hit_bytes += len;
        match e.action {
            OffloadAction::Bypass => {
                self.stats.bypass_frames += 1;
                self.stats.bypass_bytes += len;
                Some(OffloadVerdict::Bypass)
            }
            OffloadAction::Drop => {
                self.stats.drop_frames += 1;
                self.stats.drop_bytes += len;
                Some(OffloadVerdict::Drop)
            }
            OffloadAction::Mark(t) => {
                self.stats.mark_frames += 1;
                Some(OffloadVerdict::Mark(t))
            }
            OffloadAction::Sample(n) => {
                let n = n.max(1);
                let keep = e.sample_seq.is_multiple_of(n);
                e.sample_seq = e.sample_seq.wrapping_add(1);
                if keep {
                    self.stats.sample_kept_frames += 1;
                    Some(OffloadVerdict::SampleKeep)
                } else {
                    self.stats.sample_drop_frames += 1;
                    self.stats.sample_drop_bytes += len;
                    Some(OffloadVerdict::SampleDrop)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use scap_wire::{parse_frame, PacketBuilder, Transport};

    fn key(i: u32) -> FlowKey {
        FlowKey::new_v4(
            [10, (i >> 16) as u8, (i >> 8) as u8, i as u8],
            [192, 168, 0, 1],
            1024 + (i % 60000) as u16,
            443,
            Transport::Tcp,
        )
    }

    fn frame(i: u32, flags: TcpFlags, payload: &[u8]) -> Vec<u8> {
        let k = key(i);
        PacketBuilder::tcp_v4(
            [10, (i >> 16) as u8, (i >> 8) as u8, i as u8],
            [192, 168, 0, 1],
            k.src_port(),
            k.dst_port(),
            100,
            200,
            flags,
            payload,
        )
    }

    #[test]
    fn add_lookup_remove_cycle() {
        let mut t = OffloadTable::new(16, 7);
        t.add(OffloadRule::new(key(1), OffloadAction::Drop, 0))
            .unwrap();
        assert_eq!(
            t.add(OffloadRule::new(key(1), OffloadAction::Bypass, 0)),
            Err(OffloadError::Duplicate)
        );
        let f = frame(1, TcpFlags::ACK, b"data");
        let p = parse_frame(&f).unwrap();
        assert_eq!(t.lookup(&p), Some(OffloadVerdict::Drop));
        assert_eq!(t.stats().drop_frames, 1);
        let removed = t.remove(&key(1)).unwrap();
        assert_eq!(removed.action, OffloadAction::Drop);
        assert!(t.is_empty());
        assert_eq!(t.remove(&key(1)), Err(OffloadError::NotFound));
        // Removed rule's counters folded into the aggregates.
        assert_eq!(t.stats().evicted_hits, 1);
        assert_eq!(t.stats().evicted_bytes, f.len() as u64);
    }

    #[test]
    fn one_rule_matches_both_directions() {
        let mut t = OffloadTable::new(16, 7);
        t.add(OffloadRule::new(key(1), OffloadAction::Drop, 0))
            .unwrap();
        let k = key(1);
        let rev = PacketBuilder::tcp_v4(
            [192, 168, 0, 1],
            [10, 0, 0, 1],
            k.dst_port(),
            k.src_port(),
            5,
            6,
            TcpFlags::ACK,
            b"resp",
        );
        assert_eq!(
            t.lookup(&parse_frame(&rev).unwrap()),
            Some(OffloadVerdict::Drop)
        );
        assert_eq!(t.action_for(&k.reversed()), Some(OffloadAction::Drop));
    }

    #[test]
    fn control_packets_punted_past_drop_rules() {
        let mut t = OffloadTable::new(16, 7);
        t.add(OffloadRule::new(key(1), OffloadAction::Drop, 0))
            .unwrap();
        for flags in [TcpFlags::SYN, TcpFlags::FIN | TcpFlags::ACK, TcpFlags::RST] {
            let f = frame(1, flags, b"");
            assert_eq!(t.lookup(&parse_frame(&f).unwrap()), None, "{flags:?}");
        }
        assert_eq!(t.stats().control_passthrough, 3);
        // Mark rules do tag control packets (marking is not a loss).
        t.remove(&key(1)).unwrap();
        t.add(OffloadRule::new(key(1), OffloadAction::Mark(3), 0))
            .unwrap();
        let syn = frame(1, TcpFlags::SYN, b"");
        assert_eq!(
            t.lookup(&parse_frame(&syn).unwrap()),
            Some(OffloadVerdict::Mark(3))
        );
    }

    #[test]
    fn sampling_is_deterministic_one_in_n() {
        let mut t = OffloadTable::new(16, 7);
        t.add(OffloadRule::new(key(2), OffloadAction::Sample(4), 0))
            .unwrap();
        let f = frame(2, TcpFlags::ACK, b"x");
        let p = parse_frame(&f).unwrap();
        let verdicts: Vec<_> = (0..8).map(|_| t.lookup(&p).unwrap()).collect();
        assert_eq!(verdicts[0], OffloadVerdict::SampleKeep);
        assert_eq!(verdicts[4], OffloadVerdict::SampleKeep);
        assert_eq!(
            verdicts
                .iter()
                .filter(|v| **v == OffloadVerdict::SampleKeep)
                .count(),
            2
        );
        assert_eq!(t.stats().sample_kept_frames, 2);
        assert_eq!(t.stats().sample_drop_frames, 6);
    }

    #[test]
    fn capacity_enforced_and_eviction_frees_space() {
        let mut t = OffloadTable::new(3, 7);
        for i in 0..3 {
            t.add(OffloadRule::new(key(i), OffloadAction::Drop, (i % 3) as u8))
                .unwrap();
        }
        assert_eq!(
            t.add(OffloadRule::new(key(9), OffloadAction::Drop, 0)),
            Err(OffloadError::TableFull)
        );
        // Tiered eviction removes the lowest-priority rule.
        let evicted = t.evict_tiered(8).unwrap();
        assert_eq!(evicted.priority, 0);
        assert_eq!(t.stats().evictions, 1);
        t.add(OffloadRule::new(key(9), OffloadAction::Drop, 2))
            .unwrap();
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn eviction_accounting_never_loses_hits() {
        let mut t = OffloadTable::new(4, 7);
        t.add(OffloadRule::new(key(1), OffloadAction::Drop, 0))
            .unwrap();
        let f = frame(1, TcpFlags::ACK, b"abcdef");
        let p = parse_frame(&f).unwrap();
        for _ in 0..5 {
            t.lookup(&p);
        }
        let before = t.stats();
        assert_eq!(before.hits, 5);
        t.evict_tiered(4).unwrap();
        let after = t.stats();
        assert_eq!(after.hits, 5, "aggregate hits survive eviction");
        assert_eq!(after.evicted_hits, 5);
        assert_eq!(after.evicted_bytes, 5 * f.len() as u64);
    }

    #[test]
    fn million_scale_table_stays_exact_under_churn() {
        let mut t = OffloadTable::new(1 << 16, 0xBEEF);
        for i in 0..50_000u32 {
            t.add(OffloadRule::new(key(i), OffloadAction::Drop, (i % 4) as u8))
                .unwrap();
            if i % 3 == 0 {
                t.remove(&key(i / 2)).ok();
            }
        }
        // Every surviving rule still resolves.
        let mut found = 0;
        for i in 0..50_000u32 {
            if t.action_for(&key(i)).is_some() {
                found += 1;
            }
        }
        assert_eq!(found, t.len());
    }

    proptest! {
        /// The fixed-capacity table agrees with a BTreeMap reference
        /// model across install/remove/evict/lookup; eviction respects
        /// priority tiers within its scan window, and capacity is a
        /// hard limit.
        #[test]
        fn matches_reference_model(
            ops in proptest::collection::vec((0u8..4, 0u32..24, 0u8..4), 1..300)
        ) {
            let mut t = OffloadTable::new(8, 0xA5A5);
            let mut model: std::collections::BTreeMap<u32, u8> = Default::default();
            for (op, i, prio) in ops {
                match op {
                    0 => {
                        let r = t.add(OffloadRule::new(key(i), OffloadAction::Drop, prio));
                        if model.contains_key(&i) {
                            prop_assert_eq!(r, Err(OffloadError::Duplicate));
                        } else if model.len() >= 8 {
                            prop_assert_eq!(r, Err(OffloadError::TableFull));
                        } else {
                            prop_assert_eq!(r, Ok(()));
                            model.insert(i, prio);
                        }
                    }
                    1 => {
                        match t.remove(&key(i)) {
                            Ok(rule) => {
                                prop_assert_eq!(model.remove(&i), Some(rule.priority));
                            }
                            Err(OffloadError::NotFound) => {
                                prop_assert!(!model.contains_key(&i));
                            }
                            Err(e) => prop_assert!(false, "unexpected {:?}", e),
                        }
                    }
                    2 => {
                        // A full-window evict must pick a globally
                        // minimal priority tier.
                        let evicted = t.evict_tiered(usize::MAX);
                        match evicted {
                            Some(rule) => {
                                let min = model.values().min().copied().unwrap();
                                prop_assert_eq!(rule.priority, min);
                                let gone: Vec<u32> = model
                                    .iter()
                                    .filter(|(k2, p)| {
                                        **p == min && t.action_for(&key(**k2)).is_none()
                                    })
                                    .map(|(k2, _)| *k2)
                                    .collect();
                                prop_assert_eq!(gone.len(), 1);
                                model.remove(&gone[0]);
                            }
                            None => prop_assert!(model.is_empty()),
                        }
                    }
                    _ => {
                        prop_assert_eq!(
                            t.action_for(&key(i)).is_some(),
                            model.contains_key(&i)
                        );
                    }
                }
                prop_assert_eq!(t.len(), model.len());
            }
        }

        /// Aggregate hit accounting is conserved across arbitrary
        /// lookup/evict interleavings: hits == live per-rule hits +
        /// folded evicted hits, always.
        #[test]
        fn hit_accounting_conserved(
            ops in proptest::collection::vec((0u8..3, 0u32..12), 1..200)
        ) {
            let mut t = OffloadTable::new(6, 0x0FF1);
            let mut expected_hits = 0u64;
            for (op, i) in ops {
                match op {
                    0 => { t.add(OffloadRule::new(key(i), OffloadAction::Drop, (i % 3) as u8)).ok(); }
                    1 => {
                        let f = frame(i, TcpFlags::ACK, b"data");
                        let p = parse_frame(&f).unwrap();
                        if t.lookup(&p).is_some() {
                            expected_hits += 1;
                        }
                    }
                    _ => { t.evict_tiered(3); }
                }
                prop_assert_eq!(t.stats().hits, expected_hits);
            }
            // Drain everything: all hits end up folded.
            while t.evict_tiered(usize::MAX).is_some() {}
            prop_assert_eq!(t.stats().evicted_hits, expected_hits);
        }
    }
}
