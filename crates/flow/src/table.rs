//! The kernel-side flow table: randomized hashing, growable record pools,
//! and the access-list LRU used for inactivity expiration and
//! memory-pressure eviction.
//!
//! # Layout
//!
//! The index is the open-addressed, cache-line-packed [`GroupIndex`]
//! (ctrl tags probed a group of [`GROUP`] at a time, cached hashes), its
//! payload the slot of the record in the pool, sized for millions of
//! concurrent flows. `probes` counts the ctrl *groups* a lookup examined
//! — i.e. index cache-line touches — which is what the cost model charges.
//!
//! Growth is an **incremental rehash**: when the index passes a 7/8
//! load factor a new (usually doubled) index is allocated, the old one
//! is retained, and every mutating call migrates a few groups of old
//! entries until the old index drains. Lookups consult the new index
//! first, then the pending old one, so no operation ever pays a full
//! O(n) rehash latency spike.
//!
//! The record pool (slot + generation) and the intrusive access-list
//! LRU are unchanged from the chained design: [`StreamId`]s stay stable
//! across rehashes, checkpoints, and both dispatch paths. A slot's
//! position and generation *are* its record's handle, and its
//! access-list links are the slot's, not the record's: the record holds
//! only what its flow's packets move.
//!
//! # A slot, not a sidecar
//!
//! A pool slot holds the record *and* whatever else the table's owner
//! keeps per stream: `FlowTable<S>` stores an `Option<S>` next to the
//! record, under the slot's one generation ([`FlowTable::state`],
//! [`FlowTable::state_mut`], [`FlowTable::stream_mut`],
//! [`FlowTable::set_state`], [`FlowTable::take_state`]). The probe that
//! finds the record has found the state: no second table, no second
//! bounds check or generation compare, and the two sit on adjacent
//! lines. The table never looks inside an `S`. State is set on a live
//! record and outlives the record's removal — [`FlowTable::remove`] and
//! the expiry and eviction calls hand back the record (the last two with
//! its handle), the owner then takes the state — until it is taken or
//! the slot's next tenant arrives.
//! A record without state is a complete thing (the kernel's TIME_WAIT
//! tombstones), and `FlowTable<()>`, a table of bare records, is the
//! default.
//!
//! # Touch epochs
//!
//! Every way to change a record or its state goes through this module —
//! insert, [`FlowTable::get_mut`], [`FlowTable::touch`],
//! [`FlowTable::remove`], and every state call that takes `&mut self` —
//! and each of them stamps the pool slot with the table's current epoch.
//! [`FlowTable::touched`] reads the stamp back and
//! [`FlowTable::next_epoch`] starts a new one, so "which streams could
//! have changed since I last looked" is answered by construction rather
//! than by the caller remembering its own writes (the incremental
//! checkpoint encoder is that caller).
//!
//! # Staging a burst
//!
//! A probe of a cold flow is a chain of dependent cache misses — ctrl
//! group, then cached hash and entry, then the record and state, then the
//! two access-list neighbours a touch relinks — and one packet at a time
//! they are taken one after the other. A caller holding a whole burst of
//! hashed keys can instead issue each link of the chain for every key
//! before anything needs the next: [`FlowTable::stage_probe`],
//! [`FlowTable::stage_record`], [`FlowTable::stage_state`] and
//! [`FlowTable::stage_links`] are those loads and nothing else. They take
//! `&self`: no probe is counted, no epoch stamped, no list relinked,
//! nothing returned that a lookup would trust — the slot they pass along
//! is a guess (tag and cached hash matched; the key was not compared),
//! and the real probe that follows finds whatever it would have found,
//! faster.

use crate::index::GroupIndex;
use crate::record::{StreamId, StreamRecord};
use scap_wire::{Direction, FlowKey};
use std::hint::black_box;

pub use crate::index::GROUP;

/// Old-index groups migrated per mutating call during incremental
/// rehash. At 4 groups × 16 tags per insert, a doubled index drains
/// well before the new one can refill to its own growth threshold.
const MIGRATE_GROUPS: usize = 4;

/// Flow-table configuration.
#[derive(Debug, Clone)]
pub struct FlowTableConfig {
    /// Records pre-allocated at start (the paper pre-allocates pools and
    /// grows dynamically).
    pub initial_capacity: usize,
    /// Hard record limit. `None` = grow without bound (Scap behaviour);
    /// `Some(n)` = static limit (Libnids/Snort behaviour in Fig. 5).
    pub max_flows: Option<usize>,
}

impl Default for FlowTableConfig {
    fn default() -> Self {
        FlowTableConfig {
            initial_capacity: 4096,
            max_flows: None,
        }
    }
}

/// Result of [`FlowTable::lookup_or_insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lookup {
    /// Handle of the record.
    pub id: StreamId,
    /// True when this call created the record.
    pub created: bool,
    /// Direction of the queried key relative to the canonical key.
    pub direction: Direction,
}

/// Why an insert failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableFull {
    /// The configured `max_flows` limit was reached (static-table
    /// baselines); the stream is lost.
    MaxFlows,
}

/// The access-list link that points nowhere.
const NIL: u32 = u32::MAX;

struct Slot<S> {
    generation: u32,
    /// Epoch of the last insert into, `&mut` borrow of, or removal from
    /// this slot (see the module docs). Sixteen bits, so that with the
    /// generation, the links and the one byte an `Option<()>` takes the
    /// header of a `Slot<()>` is sixteen bytes.
    stamp: u16,
    /// Access-list neighbours of the record (more recent, less recent),
    /// [`NIL`] at either end. Meaningful only while the slot holds one.
    prev: u32,
    next: u32,
    record: Option<StreamRecord>,
    state: Option<S>,
}

/// A link as a slot position.
fn link(l: u32) -> Option<u32> {
    (l != NIL).then_some(l)
}

/// Probe `index` for `h`/`canon`, counting ctrl groups examined into
/// `probes`. Returns the position of the matching FULL entry.
fn find<S>(
    index: &GroupIndex<u32>,
    h: u64,
    canon: &FlowKey,
    slots: &[Slot<S>],
    probes: &mut u64,
) -> Option<usize> {
    index.scan(
        h,
        || *probes += 1,
        |&slot| {
            let rec = slots[slot as usize].record.as_ref();
            rec.is_some_and(|rec| rec.key == *canon)
        },
    )
}

/// The flow table; `S` is the per-stream state its owner keeps in the
/// record's slot (see the module docs).
pub struct FlowTable<S = ()> {
    /// Active open-addressed index.
    index: GroupIndex<u32>,
    /// Pending old index during incremental rehash, with the next
    /// group to migrate.
    old: Option<(GroupIndex<u32>, usize)>,
    slots: Vec<Slot<S>>,
    free: Vec<u32>,
    len: usize,
    seed: u64,
    cfg: FlowTableConfig,
    /// Current touch epoch; starts at 1 so a never-used slot (stamp 0)
    /// reads as untouched.
    epoch: u16,
    /// Head (most recent) of the access list.
    lru_head: Option<u32>,
    /// Tail (least recent) of the access list.
    lru_tail: Option<u32>,
    /// Cumulative index probes — ctrl *groups* (cache lines) examined —
    /// the cost-model input.
    pub probes: u64,
}

impl FlowTable {
    /// Create a table of bare records; `seed` randomizes the hash
    /// function (§5.2).
    pub fn new(cfg: FlowTableConfig, seed: u64) -> Self {
        Self::with_state(cfg, seed)
    }
}

impl<S> FlowTable<S> {
    /// [`FlowTable::new`] for a table whose slots also hold an `S`.
    pub fn with_state(cfg: FlowTableConfig, seed: u64) -> Self {
        // Size the index so `initial_capacity` records fit under the
        // 7/8 growth threshold without rehashing.
        let want = cfg.initial_capacity.max(16) * 8 / 7 + GROUP;
        FlowTable {
            index: GroupIndex::with_capacity(want),
            old: None,
            slots: Vec::with_capacity(cfg.initial_capacity),
            free: Vec::new(),
            len: 0,
            seed,
            cfg,
            epoch: 1,
            lru_head: None,
            lru_tail: None,
            probes: 0,
        }
    }

    /// Number of live streams.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no streams are tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The randomized hash seed; [`FlowKey::sym_hash`] with this seed
    /// is the table's hash function (exposed so batched dispatch can
    /// pre-hash keys before [`FlowTable::lookup_or_insert_prehashed`]).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Index positions in the active open-addressed array.
    pub fn index_capacity(&self) -> usize {
        self.index.capacity()
    }

    /// Occupancy of the active index in permille (load-factor gauge).
    pub fn load_permille(&self) -> u64 {
        (self.index.len() as u64 * 1000) / self.index.capacity() as u64
    }

    /// True while an incremental rehash is still draining its old index.
    pub fn rehash_pending(&self) -> bool {
        self.old.is_some()
    }

    /// The ctrl group `h` probes first: `group * GROUP` is a stable
    /// byte offset into the ctrl array, used by the cache model to
    /// touch the index line a lookup reads.
    pub fn probe_group(&self, h: u64) -> usize {
        self.index.home_group(h)
    }

    fn hash(&self, key: &FlowKey) -> u64 {
        key.sym_hash(self.seed)
    }

    /// Find the index position of `canon` in the active index or the
    /// pending old one.
    fn find_pos(&mut self, h: u64, canon: &FlowKey) -> Option<(bool, usize)> {
        if let Some(pos) = find(&self.index, h, canon, &self.slots, &mut self.probes) {
            return Some((false, pos));
        }
        let (old, _) = self.old.as_ref()?;
        let pos = find(old, h, canon, &self.slots, &mut self.probes)?;
        Some((true, pos))
    }

    /// Migrate a few old-index groups into the active index; drops the
    /// old index once drained. Called from every mutating operation.
    fn migrate_step(&mut self, groups: usize) {
        let Some((mut old, cursor)) = self.old.take() else {
            return;
        };
        let ngroups = old.capacity() / GROUP;
        let end = cursor.saturating_add(groups).min(ngroups);
        let mut span = cursor * GROUP..end * GROUP;
        // A migrated position is a tombstone, not EMPTY: later probes of
        // the old index must keep walking past it.
        while let Some((h, slot)) = old.take_next(&mut span) {
            self.index.insert(h, slot);
        }
        if end < ngroups {
            self.old = Some((old, end));
        }
    }

    /// Start (or restart) an incremental rehash when the active index
    /// crosses its load threshold.
    fn maybe_grow(&mut self) {
        if !self.index.over_threshold() {
            return;
        }
        // A second rehash cannot start while one is pending: drain the
        // remainder of the old index first (bounded by its size).
        if self.old.is_some() {
            self.migrate_step(usize::MAX);
        }
        if !self.index.over_threshold() {
            return;
        }
        // Doubling when genuinely full; same-size when the threshold
        // was mostly tombstones (the rehash reclaims them).
        let new_cap = (self.len.max(1) * 2)
            .next_power_of_two()
            .max(self.index.capacity());
        let fresh = GroupIndex::with_capacity(new_cap);
        let old = std::mem::replace(&mut self.index, fresh);
        self.old = Some((old, 0));
        self.migrate_step(MIGRATE_GROUPS);
    }

    /// Find an existing stream.
    pub fn lookup(&mut self, key: &FlowKey) -> Option<(StreamId, Direction)> {
        let (canon, dir) = key.canonical();
        let h = self.hash(&canon);
        self.lookup_prehashed(&canon, dir, h)
    }

    /// [`FlowTable::lookup`] with the canonical key and hash already
    /// computed (batched dispatch hashes whole bursts up front).
    pub fn lookup_prehashed(
        &mut self,
        canon: &FlowKey,
        dir: Direction,
        h: u64,
    ) -> Option<(StreamId, Direction)> {
        let (in_old, pos) = self.find_pos(h, canon)?;
        let idx = if in_old {
            &self.old.as_ref().expect("pending old index").0
        } else {
            &self.index
        };
        let slot = *idx.get(pos);
        Some((self.id_of(slot), dir))
    }

    /// [`FlowTable::lookup`] for a caller off the packet path: the same
    /// walk, counted nowhere ([`FlowTable::probes`] is the cost model's
    /// input) and touching nothing.
    pub fn peek(&self, key: &FlowKey) -> Option<StreamId> {
        let (canon, _) = key.canonical();
        let h = self.hash(&canon);
        let mut uncounted = 0;
        let mut find_in = |idx| find(idx, h, &canon, &self.slots, &mut uncounted);
        let slot = match find_in(&self.index) {
            Some(pos) => *self.index.get(pos),
            None => {
                let (old, _) = self.old.as_ref()?;
                *old.get(find_in(old)?)
            }
        };
        Some(self.id_of(slot))
    }

    /// Find or create the stream for `key`. `now` stamps creation time.
    pub fn lookup_or_insert(&mut self, key: &FlowKey, now: u64) -> Result<Lookup, TableFull> {
        let (canon, dir) = key.canonical();
        let h = self.hash(&canon);
        self.lookup_or_insert_prehashed(&canon, dir, h, now)
    }

    /// [`FlowTable::lookup_or_insert`] with the canonical key, its
    /// direction, and hash already computed.
    pub fn lookup_or_insert_prehashed(
        &mut self,
        canon: &FlowKey,
        dir: Direction,
        h: u64,
        now: u64,
    ) -> Result<Lookup, TableFull> {
        self.migrate_step(MIGRATE_GROUPS);
        if let Some((id, direction)) = self.lookup_prehashed(canon, dir, h) {
            return Ok(Lookup {
                id,
                created: false,
                direction,
            });
        }
        if let Some(max) = self.cfg.max_flows {
            if self.len >= max {
                return Err(TableFull::MaxFlows);
            }
        }

        // Allocate a slot from the free list or grow the pool.
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(Slot {
                    generation: 0,
                    stamp: 0,
                    prev: NIL,
                    next: NIL,
                    record: None,
                    state: None,
                });
                (self.slots.len() - 1) as u32
            }
        };
        let epoch = self.epoch;
        let s = &mut self.slots[slot as usize];
        s.generation += 1;
        s.stamp = epoch;
        let id = StreamId {
            slot,
            generation: s.generation,
        };
        s.record = Some(StreamRecord::new(*canon, dir, now));
        // Whatever an earlier tenant left behind goes with it.
        s.state = None;
        self.index.insert(h, slot);
        self.len += 1;
        self.lru_push_front(slot);
        self.maybe_grow();
        Ok(Lookup {
            id,
            created: true,
            direction: dir,
        })
    }

    /// The handle of whatever occupies pool slot `slot`.
    #[inline]
    fn id_of(&self, slot: u32) -> StreamId {
        StreamId {
            slot,
            generation: self.slots[slot as usize].generation,
        }
    }

    /// The slot of `id`, while `id` is the generation occupying it.
    #[inline]
    fn slot(&self, id: StreamId) -> Option<&Slot<S>> {
        let s = self.slots.get(id.slot as usize)?;
        (s.generation == id.generation).then_some(s)
    }

    /// [`FlowTable::slot`] to write through: the one place a slot is
    /// lent out mutably by handle, and so where it is stamped.
    #[inline]
    fn slot_mut(&mut self, id: StreamId) -> Option<&mut Slot<S>> {
        let s = self.slots.get_mut(id.slot as usize)?;
        if s.generation != id.generation {
            return None;
        }
        s.stamp = self.epoch;
        Some(s)
    }

    /// Get a record by handle (None if the handle is stale).
    pub fn get(&self, id: StreamId) -> Option<&StreamRecord> {
        self.slot(id)?.record.as_ref()
    }

    /// Mutable access by handle. Marks the slot touched in the
    /// current epoch whether or not the caller ends up writing.
    pub fn get_mut(&mut self, id: StreamId) -> Option<&mut StreamRecord> {
        self.slot_mut(id)?.record.as_mut()
    }

    /// The state of stream `id` (`None` for a stale handle, and for a
    /// record that was never given any).
    #[inline]
    pub fn state(&self, id: StreamId) -> Option<&S> {
        self.slot(id)?.state.as_ref()
    }

    /// The state of stream `id`, in place. A touch, like
    /// [`FlowTable::get_mut`].
    #[inline]
    pub fn state_mut(&mut self, id: StreamId) -> Option<&mut S> {
        self.slot_mut(id)?.state.as_mut()
    }

    /// A stream's state and record, borrowed side by side: one bounds
    /// check, one generation compare, one stamp.
    #[inline]
    pub fn stream_mut(&mut self, id: StreamId) -> (Option<&mut S>, Option<&mut StreamRecord>) {
        match self.slot_mut(id) {
            Some(s) => (s.state.as_mut(), s.record.as_mut()),
            None => (None, None),
        }
    }

    /// Make `state` the state of stream `id`, replacing any it had. A
    /// stale handle stores nothing.
    pub fn set_state(&mut self, id: StreamId, state: S) {
        if let Some(s) = self.slot_mut(id) {
            s.state = Some(state);
        }
    }

    /// Take the state of stream `id` out of its slot — also after the
    /// record itself was removed, for as long as the slot has no new
    /// tenant.
    pub fn take_state(&mut self, id: StreamId) -> Option<S> {
        self.slot_mut(id)?.state.take()
    }

    /// True when the record of `id` was created or removed, or it or its
    /// state mutably borrowed, set or taken, since the last
    /// [`FlowTable::next_epoch`]. A stream for which this reads false is
    /// exactly what it was when the epoch began (its access-list links
    /// aside, which only this table reads).
    pub fn touched(&self, id: StreamId) -> bool {
        self.slots
            .get(id.slot as usize)
            .is_some_and(|s| s.stamp == self.epoch)
    }

    /// Start a new touch epoch: [`FlowTable::touched`] reads false for
    /// every record until it is next written. The counter wraps; a stamp
    /// exactly 65,536 epochs old reads as touched, which errs on the safe
    /// side.
    pub fn next_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
    }

    /// Record activity: stamp `last_ts_ns` and move to the front of the
    /// access list (constant time).
    pub fn touch(&mut self, id: StreamId, now: u64) {
        let Some(rec) = self.get_mut(id) else { return };
        rec.last_ts_ns = rec.last_ts_ns.max(now);
        // The head is where a relink would put it: a train of one flow's
        // packets writes its neighbours' links once, not per packet.
        if self.lru_head != Some(id.slot) {
            self.lru_unlink(id.slot);
            self.lru_push_front(id.slot);
        }
    }

    /// Remove a stream from the table (after its termination event).
    pub fn remove(&mut self, id: StreamId) -> Option<StreamRecord> {
        let rec = self.get(id)?;
        let key = rec.key;
        let h = self.hash(&key);
        let slot = id.slot;
        self.migrate_step(MIGRATE_GROUPS);
        if let Some((in_old, pos)) = self.find_pos(h, &key) {
            if in_old {
                self.old.as_mut().expect("pending old index").0.erase(pos);
            } else {
                self.index.erase(pos);
            }
        }
        self.lru_unlink(slot);
        self.len -= 1;
        self.free.push(slot);
        let s = &mut self.slots[slot as usize];
        s.stamp = self.epoch;
        s.record.take()
    }

    /// Expire streams whose `last_ts_ns` is older than `now - timeout_ns`,
    /// walking from the stale end of the access list. Expired records are
    /// removed and returned with their handles (for termination events).
    /// At most `max_per_call` are expired per call, bounding softirq work.
    pub fn expire_inactive(
        &mut self,
        now: u64,
        timeout_ns: u64,
        max_per_call: usize,
    ) -> Vec<(StreamId, StreamRecord)> {
        let deadline = now.saturating_sub(timeout_ns);
        let mut out = Vec::new();
        while out.len() < max_per_call {
            let Some(tail) = self.lru_tail else { break };
            let rec = self.slots[tail as usize]
                .record
                .as_ref()
                .expect("lru tail points at live record");
            if rec.last_ts_ns >= deadline {
                break;
            }
            let id = self.id_of(tail);
            let mut rec = self.remove(id).expect("tail record removable");
            rec.status = crate::record::StreamStatus::ClosedTimeout;
            out.push((id, rec));
        }
        out
    }

    /// Evict the least-recently-active stream (memory-pressure policy:
    /// "always store newer streams by removing the older ones", §6.4).
    pub fn evict_oldest(&mut self) -> Option<(StreamId, StreamRecord)> {
        let id = self.id_of(self.lru_tail?);
        Some((id, self.remove(id)?))
    }

    /// Tiered eviction: scan up to `max_scan` records from the stale end
    /// of the access list and evict the lowest-priority one among them
    /// (the stalest wins a priority tie). Falls back to plain LRU when
    /// every scanned stream shares one priority — so under pressure,
    /// old low-priority flows go before old high-priority ones.
    pub fn evict_tiered(&mut self, max_scan: usize) -> Option<(StreamId, StreamRecord)> {
        let mut cur = self.lru_tail?;
        let mut best: Option<(u8, u32)> = None;
        for _ in 0..max_scan.max(1) {
            let s = &self.slots[cur as usize];
            let rec = s
                .record
                .as_ref()
                .expect("access list points at live records");
            let better = match best {
                None => true,
                Some((p, _)) => rec.priority < p,
            };
            if better {
                best = Some((rec.priority, cur));
                if rec.priority == 0 {
                    break; // nothing outranks the bottom tier
                }
            }
            match link(s.prev) {
                Some(prev) => cur = prev,
                None => break,
            }
        }
        let id = self.id_of(best?.1);
        Some((id, self.remove(id)?))
    }

    /// Iterate over all live records with their handles (diagnostics,
    /// final flush), in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (StreamId, &StreamRecord)> {
        self.slots.iter().enumerate().filter_map(|(slot, s)| {
            let id = StreamId {
                slot: slot as u32,
                generation: s.generation,
            };
            Some((id, s.record.as_ref()?))
        })
    }

    /// Drain every live record (end-of-capture flush), in slot order.
    pub fn drain_all(&mut self) -> Vec<(StreamId, StreamRecord)> {
        let ids: Vec<StreamId> = self.iter().map(|(id, _)| id).collect();
        let drained = ids.into_iter().map(|id| Some((id, self.remove(id)?)));
        drained.flatten().collect()
    }

    // ---- staging (see the module docs) ----

    /// First link of the chain: read `h`'s index lines — the active
    /// index, then the pending old one — and return the pool slot a
    /// probe for `h` will most likely resolve to.
    pub fn stage_probe(&self, h: u64) -> Option<u32> {
        let old = || self.old.as_ref().and_then(|(old, _)| old.candidate(h));
        self.index.candidate(h).or_else(old).copied()
    }

    /// Second link: read what a probe for `canon`, a touch and the wire
    /// accounting read of the record in pool slot `slot`. Returns its
    /// access-list neighbours (previous, next) for the third.
    pub fn stage_record(&self, slot: u32, canon: &FlowKey) -> [Option<u32>; 2] {
        let Some(s) = self.slots.get(slot as usize) else {
            return [None; 2];
        };
        let Some(rec) = s.record.as_ref() else {
            return [None; 2];
        };
        black_box((
            s.generation,
            rec.key == *canon,
            rec.last_ts_ns,
            rec.dirs[0].total_pkts,
            rec.dirs[1].total_pkts,
            rec.discarded,
        ));
        [link(s.prev), link(s.next)]
    }

    /// With the second link: whatever state pool slot `slot` holds, of
    /// whichever generation — for reading ahead of a
    /// [`FlowTable::stream_mut`], not for acting on.
    #[inline]
    pub fn stage_state(&self, slot: u32) -> Option<&S> {
        self.slots.get(slot as usize)?.state.as_ref()
    }

    /// Third link: read the access-list links of the record in pool slot
    /// `slot`, which relinking a neighbour writes.
    pub fn stage_links(&self, slot: u32) {
        black_box(self.slots.get(slot as usize).map(|s| (s.prev, s.next)));
    }

    // ---- intrusive access list ----

    fn lru_push_front(&mut self, slot: u32) {
        let old_head = self.lru_head;
        let s = &mut self.slots[slot as usize];
        s.prev = NIL;
        s.next = old_head.unwrap_or(NIL);
        if let Some(h) = old_head {
            self.slots[h as usize].prev = slot;
        }
        self.lru_head = Some(slot);
        if self.lru_tail.is_none() {
            self.lru_tail = Some(slot);
        }
    }

    fn lru_unlink(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        let (prev, next) = (link(s.prev), link(s.next));
        s.prev = NIL;
        s.next = NIL;
        match prev {
            Some(p) => self.slots[p as usize].next = next.unwrap_or(NIL),
            None => self.lru_head = next,
        }
        match next {
            Some(n) => self.slots[n as usize].prev = prev.unwrap_or(NIL),
            None => self.lru_tail = prev,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use scap_wire::Transport;

    fn key(i: u32) -> FlowKey {
        FlowKey::new_v4(
            [10, (i >> 16) as u8, (i >> 8) as u8, i as u8],
            [192, 168, 0, 1],
            1024 + (i % 60000) as u16,
            80,
            Transport::Tcp,
        )
    }

    fn table() -> FlowTable {
        FlowTable::new(FlowTableConfig::default(), 0xD00D)
    }

    #[test]
    fn insert_lookup_both_directions() {
        let mut t = table();
        let k = key(1);
        let l = t.lookup_or_insert(&k, 10).unwrap();
        assert!(l.created);
        let (id, dir) = t.lookup(&k.reversed()).unwrap();
        assert_eq!(id, l.id);
        assert_ne!(dir, l.direction);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn growth_beyond_initial_capacity() {
        let mut t = FlowTable::new(
            FlowTableConfig {
                initial_capacity: 16,
                max_flows: None,
            },
            7,
        );
        for i in 0..10_000 {
            t.lookup_or_insert(&key(i), u64::from(i)).unwrap();
        }
        assert_eq!(t.len(), 10_000);
        // Every flow still findable.
        for i in (0..10_000).step_by(997) {
            assert!(t.lookup(&key(i)).is_some());
        }
    }

    #[test]
    fn peek_finds_what_lookup_finds_and_counts_nothing() {
        let mut t = FlowTable::new(
            FlowTableConfig {
                initial_capacity: 16,
                max_flows: None,
            },
            7,
        );
        let (mut ids, mut mid_rehash) = (Vec::new(), 0);
        for i in 0..3_000 {
            ids.push(t.lookup_or_insert(&key(i), 0).unwrap().id);
            mid_rehash += usize::from(t.rehash_pending());
            t.next_epoch();
            let probes = t.probes;
            for j in [0, i / 2, i] {
                assert_eq!(t.peek(&key(j).reversed()), Some(ids[j as usize]));
                assert!(!t.touched(ids[j as usize]));
            }
            assert_eq!(t.peek(&key(i + 1)), None);
            assert_eq!(t.probes, probes);
        }
        assert!(mid_rehash > 0, "never peeked into a pending old index");
    }

    #[test]
    fn static_limit_rejects_like_libnids() {
        let mut t = FlowTable::new(
            FlowTableConfig {
                initial_capacity: 4,
                max_flows: Some(3),
            },
            7,
        );
        for i in 0..3 {
            t.lookup_or_insert(&key(i), 0).unwrap();
        }
        assert_eq!(t.lookup_or_insert(&key(99), 0), Err(TableFull::MaxFlows));
        // Existing flows still resolvable.
        assert!(!t.lookup_or_insert(&key(1), 0).unwrap().created);
    }

    #[test]
    fn stale_handles_do_not_resolve() {
        let mut t = table();
        let l = t.lookup_or_insert(&key(1), 0).unwrap();
        t.remove(l.id).unwrap();
        assert!(t.get(l.id).is_none());
        // Slot reuse bumps the generation.
        let l2 = t.lookup_or_insert(&key(2), 0).unwrap();
        assert_eq!(l2.id.slot, l.id.slot);
        assert_ne!(l2.id.generation, l.id.generation);
        assert!(t.get(l.id).is_none());
        assert!(t.get(l2.id).is_some());
    }

    #[test]
    fn touch_epochs_mark_every_mutable_gateway_and_nothing_else() {
        let mut t = table();
        let ids: Vec<StreamId> = (0..6)
            .map(|i| t.lookup_or_insert(&key(i), 10).unwrap().id)
            .collect();
        assert!(ids.iter().all(|&id| t.touched(id)), "inserts are touches");
        t.next_epoch();
        assert!(!ids.iter().any(|&id| t.touched(id)));
        // Reads, probes of an existing key and relinking a neighbour in
        // the access list leave a record untouched.
        assert!(t.get(ids[0]).is_some());
        assert!(!t.lookup_or_insert(&key(1), 20).unwrap().created);
        assert_eq!(t.iter().count(), 6);
        t.touch(ids[2], 30); // ids[1] and ids[3] are its list neighbours
        t.get_mut(ids[4]).unwrap().priority = 3;
        assert!(t.get_mut(ids[5]).is_some(), "a borrow alone is a touch");
        let touched: Vec<bool> = ids.iter().map(|&id| t.touched(id)).collect();
        assert_eq!(touched, [false, false, true, false, true, true]);
        // A stale handle stamps nothing.
        let stale = StreamId {
            slot: ids[0].slot,
            generation: ids[0].generation + 1,
        };
        assert!(t.get_mut(stale).is_none());
        assert!(!t.touched(ids[0]));
        // Removal and reuse of the slot both read as touched.
        t.next_epoch();
        t.remove(ids[0]).unwrap();
        assert!(t.touched(ids[0]));
        t.next_epoch();
        let reused = t.lookup_or_insert(&key(99), 40).unwrap().id;
        assert_eq!(reused.slot, ids[0].slot);
        assert!(t.touched(reused));
        assert!(!t.touched(ids[1]));
        // Expiry goes through `remove`; survivors stay clean.
        t.next_epoch();
        t.touch(reused, 1_000_000);
        t.next_epoch();
        let gone = t.expire_inactive(1_000_000, 10, 64);
        assert_eq!(gone.len(), 5);
        assert!(gone.iter().all(|&(id, _)| t.touched(id)));
        assert!(!t.touched(reused));
    }

    #[test]
    fn touching_the_head_rewrites_nobodys_links() {
        let mut t = table();
        let [a, b, c] = [1, 2, 3].map(|i| t.lookup_or_insert(&key(i), 10).unwrap().id);
        t.next_epoch();
        let links = |t: &FlowTable, id: StreamId| {
            let s = &t.slots[id.slot as usize];
            (link(s.prev), link(s.next))
        };
        let (of_a, of_b) = (links(&t, a), links(&t, b));
        assert_eq!(
            of_b,
            (Some(c.slot), Some(a.slot)),
            "c is the head, then b, a"
        );
        t.touch(c, 50);
        assert_eq!(t.get(c).unwrap().last_ts_ns, 50);
        assert!(t.touched(c));
        assert_eq!((links(&t, a), links(&t, b)), (of_a, of_b));
        assert_eq!(links(&t, c), (None, Some(b.slot)));
        assert!(!t.touched(a) && !t.touched(b));
        // Anyone else still moves to the front, in front of the old head.
        t.touch(a, 60);
        assert_eq!(links(&t, a), (None, Some(c.slot)));
        assert_eq!(links(&t, c), (Some(a.slot), Some(b.slot)));
        let order = std::iter::from_fn(|| t.evict_oldest().map(|(id, _)| id));
        assert_eq!(order.collect::<Vec<_>>(), [b, c, a]);
    }

    /// A table small enough to rehash early, every stream's slot holding
    /// a state — and the history the staging tests need: a removed key (a
    /// TOMBSTONE in the index), a key removed and seen again (its slot
    /// reused under a new generation, no state: the kernel's TIME_WAIT
    /// records), and a rehash left pending.
    fn staging_fixture() -> (FlowTable<u32>, Vec<StreamId>) {
        let cfg = FlowTableConfig {
            initial_capacity: 16,
            max_flows: None,
        };
        let mut t = FlowTable::with_state(cfg, 0x57A6E);
        let mut ids = Vec::new();
        let mut i = 0;
        while !t.rehash_pending() || ids.len() < 40 {
            let id = t.lookup_or_insert(&key(i), u64::from(i)).unwrap().id;
            t.set_state(id, i);
            ids.push(id);
            if i == 20 {
                t.remove(ids[3]).unwrap();
                t.take_state(ids[3]);
                t.remove(ids[5]).unwrap();
                ids.push(t.lookup_or_insert(&key(5), 20).unwrap().id);
            }
            i += 1;
        }
        (t, ids)
    }

    /// What a burst does before its per-packet pass, key by key.
    fn stage(t: &FlowTable<u32>, burst: &[FlowKey]) {
        for k in burst {
            let (canon, _) = k.canonical();
            let Some(slot) = t.stage_probe(t.hash(&canon)) else {
                continue;
            };
            black_box(t.stage_state(slot));
            for neighbour in t.stage_record(slot, &canon).into_iter().flatten() {
                t.stage_links(neighbour);
            }
        }
    }

    #[test]
    fn staging_guesses_the_slot_a_probe_finds() {
        let (mut t, ids) = staging_fixture();
        assert!(t.rehash_pending(), "some keys are still in the old index");
        let live: Vec<StreamId> = ids
            .iter()
            .copied()
            .filter(|&id| t.get(id).is_some())
            .collect();
        assert_eq!(live.len(), t.len());
        for id in live {
            let k = t.get(id).unwrap().key;
            assert_eq!(t.stage_probe(t.hash(&k)), Some(id.slot), "{k}");
            assert_eq!(t.lookup(&k.reversed()).unwrap().0, id);
        }
        // A key that was removed, and keys never seen.
        for i in [3, 1000, 1001, 1002] {
            assert_eq!(t.stage_probe(t.hash(&key(i).canonical().0)), None);
        }
        // A slot is a guess, not a handle: one past the pool is nothing.
        let past = t.slots.len() as u32;
        assert_eq!(t.stage_record(past, &key(0)), [None; 2]);
        t.stage_links(past);
    }

    #[test]
    fn staging_leaves_no_trace() {
        let (mut staged, ids) = staging_fixture();
        let (mut twin, _) = staging_fixture();
        for t in [&mut staged, &mut twin] {
            t.next_epoch();
        }
        // Hits in both directions, misses, the removed key, the reused
        // slot, a stale handle's key — several times over, in a burst far
        // longer than the table has ctrl groups.
        let burst: Vec<FlowKey> = (0..200u32)
            .map(|n| match n % 4 {
                0 => key(n % 40),
                1 => key(n % 40).reversed(),
                2 => key(5_000 + n),
                _ => key([3, 5][n as usize / 4 % 2]),
            })
            .collect();
        assert!(burst.len() > staged.index.capacity() / GROUP);
        assert!(staged.rehash_pending());
        let probes = staged.probes;
        stage(&staged, &burst);
        assert_eq!(staged.probes, probes);
        assert!(staged.rehash_pending(), "staging migrates nothing");
        assert!(!ids.iter().any(|&id| staged.touched(id)));

        // The same operations on both from here on, the staged table
        // staging each before it happens: nothing ever tells them apart.
        for (n, k) in burst.iter().enumerate() {
            let now = 1_000 + n as u64;
            stage(&staged, &burst[n..(n + 8).min(burst.len())]);
            let seen = [&mut staged, &mut twin].map(|t| {
                let l = t.lookup_or_insert(k, now).unwrap();
                t.touch(l.id, now);
                if let (Some(v), Some(_)) = t.stream_mut(l.id) {
                    *v += 1;
                }
                (l, t.probes, t.rehash_pending())
            });
            assert_eq!(seen[0], seen[1], "{k}");
        }
        for id in ids
            .iter()
            .copied()
            .chain(staged.iter().map(|(id, _)| id).collect::<Vec<_>>())
        {
            assert_eq!(staged.touched(id), twin.touched(id));
            assert_eq!(staged.state(id), twin.state(id));
        }
        let drain = |t: &mut FlowTable<u32>| -> Vec<(StreamId, u64)> {
            std::iter::from_fn(|| t.evict_oldest())
                .map(|(id, r)| (id, r.last_ts_ns))
                .collect()
        };
        let order = drain(&mut staged);
        assert!(order.len() > 40);
        assert_eq!(order, drain(&mut twin));
    }

    #[test]
    fn a_recycled_slot_never_shows_its_predecessor() {
        let mut t: FlowTable<&str> = FlowTable::with_state(FlowTableConfig::default(), 1);
        let old = t.lookup_or_insert(&key(1), 0).unwrap().id;
        t.set_state(old, "old");
        // The state outlives the record, for its owner to take ...
        t.remove(old).unwrap();
        assert_eq!(t.state(old), Some(&"old"));
        // ... until a successor takes the slot: from then on neither
        // handle sees, or can write, the other's state.
        let new = t.lookup_or_insert(&key(2), 0).unwrap().id;
        assert_eq!(new.slot(), old.slot());
        assert_eq!(t.state(new), None);
        assert_eq!(t.take_state(new), None);
        t.set_state(old, "stale");
        assert_eq!(t.stage_state(new.slot), None);
        t.set_state(new, "new");
        assert_eq!(t.state(old), None);
        assert_eq!(t.state_mut(old), None);
        assert_eq!(t.take_state(old), None);
        assert!(matches!(t.stream_mut(old), (None, None)));
        assert_eq!(t.state(new), Some(&"new"));
        assert_eq!(t.stage_state(new.slot), Some(&"new"));
        assert_eq!(t.take_state(new), Some("new"));
        assert_eq!(t.state(new), None);
        assert!(t.get(new).is_some(), "a record without state is whole");
    }

    #[test]
    fn touch_epochs_follow_state_set_borrow_and_take() {
        let mut t: FlowTable<u32> = FlowTable::with_state(FlowTableConfig::default(), 1);
        let ids: Vec<StreamId> = (0..5)
            .map(|i| t.lookup_or_insert(&key(i), 0).unwrap().id)
            .collect();
        t.next_epoch();
        for &id in &ids[..3] {
            t.set_state(id, 0);
        }
        let touched = |t: &FlowTable<u32>| ids.iter().map(|&id| t.touched(id)).collect::<Vec<_>>();
        assert_eq!(touched(&t), [true, true, true, false, false]);
        t.next_epoch();
        assert_eq!(t.state(ids[0]), Some(&0));
        assert_eq!(t.stage_state(ids[0].slot), Some(&0));
        assert!(!t.touched(ids[0]), "reads are not touches");
        *t.state_mut(ids[1]).unwrap() += 1;
        assert_eq!(t.take_state(ids[2]), Some(0));
        assert!(
            t.state_mut(ids[3]).is_none(),
            "a borrow of nothing is a touch"
        );
        assert_eq!(touched(&t), [false, true, true, true, false]);
        t.next_epoch();
        let (state, rec) = t.stream_mut(ids[0]);
        assert!(state.is_some() && rec.is_some());
        assert_eq!(touched(&t), [true, false, false, false, false]);
        // The stamp outlives the state it was taken for, by one epoch.
        assert_eq!(t.state(ids[2]), None);
        // A stale handle neither borrows nor stamps.
        t.next_epoch();
        t.remove(ids[0]).unwrap();
        let new = t.lookup_or_insert(&key(9), 0).unwrap().id;
        assert_eq!(new.slot(), ids[0].slot());
        t.next_epoch();
        assert_eq!(t.state_mut(ids[0]), None);
        assert_eq!(t.take_state(ids[0]), None);
        t.set_state(ids[0], 7);
        assert!(matches!(t.stream_mut(ids[0]), (None, None)));
        assert!(!t.touched(new));
    }

    #[test]
    fn a_table_of_bare_records_pays_nothing_for_the_state_it_lacks() {
        use std::mem::size_of;
        assert_eq!(size_of::<Slot<()>>(), size_of::<StreamRecord>() + 16);
        assert_eq!(
            size_of::<Slot<[u64; 4]>>(),
            size_of::<Slot<()>>() + size_of::<Option<[u64; 4]>>()
        );
    }

    #[test]
    fn expiration_removes_only_stale_tail() {
        let mut t = table();
        let a = t.lookup_or_insert(&key(1), 1_000).unwrap().id;
        let b = t.lookup_or_insert(&key(2), 2_000).unwrap().id;
        let c = t.lookup_or_insert(&key(3), 3_000).unwrap().id;
        // Touch a at t=5000 so it is fresh again.
        t.touch(a, 5_000);
        let expired = t.expire_inactive(6_000, 2_500, 64);
        let ids: Vec<StreamId> = expired.iter().map(|&(id, _)| id).collect();
        assert!(ids.contains(&b));
        assert!(ids.contains(&c));
        assert!(!ids.contains(&a));
        assert!(expired
            .iter()
            .all(|(_, r)| r.status == crate::record::StreamStatus::ClosedTimeout));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn expiration_respects_batch_limit() {
        let mut t = table();
        for i in 0..100 {
            t.lookup_or_insert(&key(i), 0).unwrap();
        }
        let first = t.expire_inactive(1_000_000, 10, 30);
        assert_eq!(first.len(), 30);
        assert_eq!(t.len(), 70);
    }

    #[test]
    fn evict_oldest_follows_access_order() {
        let mut t = table();
        let a = t.lookup_or_insert(&key(1), 100).unwrap().id;
        let b = t.lookup_or_insert(&key(2), 200).unwrap().id;
        // b is newer, but touching a makes a the most recent.
        t.touch(a, 300);
        assert_eq!(t.evict_oldest().unwrap().0, b);
        assert_eq!(t.evict_oldest().unwrap().0, a);
        assert!(t.evict_oldest().is_none());
    }

    #[test]
    fn tiered_eviction_prefers_low_priority_in_scan_window() {
        let mut t = table();
        let a = t.lookup_or_insert(&key(1), 100).unwrap().id; // stalest
        let b = t.lookup_or_insert(&key(2), 200).unwrap().id;
        let c = t.lookup_or_insert(&key(3), 300).unwrap().id;
        t.get_mut(a).unwrap().priority = 2;
        t.get_mut(b).unwrap().priority = 0;
        t.get_mut(c).unwrap().priority = 1;
        // Low-priority b goes first even though a is staler.
        assert_eq!(t.evict_tiered(8).unwrap().0, b);
        // Among the rest, the lowest remaining priority wins.
        assert_eq!(t.evict_tiered(8).unwrap().0, c);
        assert_eq!(t.evict_tiered(8).unwrap().0, a);
        assert!(t.evict_tiered(8).is_none());
        // A scan window of 1 degenerates to plain LRU.
        let d = t.lookup_or_insert(&key(4), 400).unwrap().id;
        let e = t.lookup_or_insert(&key(5), 500).unwrap().id;
        t.get_mut(d).unwrap().priority = 7;
        assert_eq!(t.evict_tiered(1).unwrap().0, d);
        assert_eq!(t.evict_tiered(1).unwrap().0, e);
    }

    #[test]
    fn drain_all_empties_table() {
        let mut t = table();
        for i in 0..50 {
            t.lookup_or_insert(&key(i), 0).unwrap();
        }
        let drained = t.drain_all();
        assert_eq!(drained.len(), 50);
        assert!(t.is_empty());
        assert!(t.lookup(&key(10)).is_none());
    }

    #[test]
    fn prehashed_ops_match_keyed_ops() {
        let mut t = table();
        let k = key(42);
        let (canon, dir) = k.canonical();
        let h = canon.sym_hash(t.seed());
        let l = t.lookup_or_insert_prehashed(&canon, dir, h, 10).unwrap();
        assert!(l.created);
        assert_eq!(t.lookup(&k).unwrap().0, l.id);
        let (rcanon, rdir) = k.reversed().canonical();
        assert_eq!(rcanon, canon);
        let l2 = t.lookup_or_insert_prehashed(&rcanon, rdir, h, 20).unwrap();
        assert!(!l2.created);
        assert_eq!(l2.id, l.id);
        assert_ne!(l2.direction, dir);
        assert_eq!(t.lookup_prehashed(&canon, dir, h).unwrap().0, l.id);
    }

    #[test]
    fn incremental_rehash_stays_consistent_under_churn() {
        // Small initial capacity forces many rehashes; interleaved
        // removals leave tombstones for same-size rehashes to reclaim.
        let mut t = FlowTable::new(
            FlowTableConfig {
                initial_capacity: 16,
                max_flows: None,
            },
            0xBEEF,
        );
        let mut live = Vec::new();
        for i in 0..5_000u32 {
            let id = t.lookup_or_insert(&key(i), u64::from(i)).unwrap().id;
            live.push((i, id));
            if i % 3 == 0 {
                let (j, id) = live.remove((i as usize * 7) % live.len());
                assert!(t.remove(id).is_some(), "remove {j}");
            }
        }
        assert_eq!(t.len(), live.len());
        for (i, id) in &live {
            let (found, _) = t.lookup(&key(*i)).expect("live key resolves");
            assert_eq!(found, *id);
        }
        // Load factor stays under the 7/8 threshold.
        assert!(t.load_permille() <= 875);
        // Drain any pending rehash via mutations; the table stays exact.
        while t.rehash_pending() {
            let (i, id) = live.pop().unwrap();
            assert!(t.remove(id).is_some());
            assert!(t.lookup(&key(i)).is_none());
        }
        assert_eq!(t.len(), live.len());
    }

    #[test]
    fn collision_heavy_keys_stay_findable() {
        // Keys engineered to share home groups: identical low hash bits
        // are unlikely via sym_hash, so instead hammer one tiny index
        // (capacity 32 ⇒ 2 groups) where every key collides by pigeonhole.
        let mut t = FlowTable::new(
            FlowTableConfig {
                initial_capacity: 4,
                max_flows: None,
            },
            3,
        );
        for i in 0..200 {
            t.lookup_or_insert(&key(i), 0).unwrap();
        }
        for i in 0..200 {
            assert!(t.lookup(&key(i)).is_some(), "key {i}");
            assert!(!t.lookup_or_insert(&key(i), 0).unwrap().created);
        }
        assert_eq!(t.len(), 200);
    }

    proptest! {
        /// With slots recycled and generations bumped the way the kernel
        /// sees them, the state API agrees with a `HashMap<StreamId, _>`
        /// on every handle ever issued — live, removed, and stale.
        #[test]
        fn state_matches_a_hashmap_keyed_by_stream_id(
            ops in proptest::collection::vec((0u8..5, 0u32..12), 1..400)
        ) {
            let mut t: FlowTable<u64> = FlowTable::with_state(
                FlowTableConfig { initial_capacity: 4, max_flows: None },
                0x51DE,
            );
            let mut model: std::collections::HashMap<StreamId, u64> = Default::default();
            let mut issued: Vec<StreamId> = Vec::new();
            for (n, (op, i)) in ops.into_iter().enumerate() {
                let n = n as u64;
                match op {
                    // A stream appears (or is seen again) and gets state.
                    0 => {
                        let id = t.lookup_or_insert(&key(i), n).unwrap().id;
                        issued.push(id);
                        t.set_state(id, n);
                        model.insert(id, n);
                    }
                    // A stream ends; its owner takes the state after it.
                    1 => {
                        if let Some((id, _)) = t.lookup(&key(i)) {
                            t.remove(id).unwrap();
                            prop_assert_eq!(t.take_state(id), model.remove(&id));
                        }
                    }
                    // A stream ends and a tombstone without state takes
                    // its slot (the kernel's TIME_WAIT records) — with
                    // the state taken first, or left for the table to drop.
                    2 => {
                        if let Some((id, _)) = t.lookup(&key(i)) {
                            t.remove(id).unwrap();
                            let gone = model.remove(&id);
                            if n.is_multiple_of(2) {
                                prop_assert_eq!(t.take_state(id), gone);
                            }
                            let tomb = t.lookup_or_insert(&key(i), n).unwrap().id;
                            prop_assert_eq!(tomb.slot(), id.slot());
                            issued.push(tomb);
                        }
                    }
                    // In-place mutation through any handle ever issued.
                    3 => {
                        if let Some(&id) = issued.get(i as usize % issued.len().max(1)) {
                            match (t.stream_mut(id).0, model.get_mut(&id)) {
                                (Some(a), Some(b)) => { *a += 1; *b += 1; }
                                (a, b) => prop_assert_eq!(a, b),
                            }
                        }
                    }
                    // Removal through any handle ever issued.
                    _ => {
                        if let Some(&id) = issued.get(i as usize % issued.len().max(1)) {
                            prop_assert_eq!(t.take_state(id), model.remove(&id));
                        }
                    }
                }
                for id in &issued {
                    prop_assert_eq!(t.state(*id), model.get(id));
                }
                let held = (0..t.slots.len() as u32).filter_map(|s| t.stage_state(s)).count();
                prop_assert_eq!(held, model.len());
            }
        }

        /// Random interleavings of insert/remove/touch keep the table
        /// internally consistent (LRU list matches live set).
        #[test]
        fn random_ops_keep_invariants(ops in proptest::collection::vec((0u8..3, 0u32..50), 1..200)) {
            let mut t = table();
            let mut live: std::collections::HashMap<u32, StreamId> = Default::default();
            let mut now = 0u64;
            for (op, i) in ops {
                now += 1;
                match op {
                    0 => {
                        let l = t.lookup_or_insert(&key(i), now).unwrap();
                        live.insert(i, l.id);
                    }
                    1 => {
                        if let Some(id) = live.remove(&i) {
                            prop_assert!(t.remove(id).is_some());
                        }
                    }
                    _ => {
                        if let Some(id) = live.get(&i) {
                            t.touch(*id, now);
                        }
                    }
                }
                prop_assert_eq!(t.len(), live.len());
            }
            // Walk the LRU from head: must visit exactly `len` records.
            let visited = t.drain_all();
            prop_assert_eq!(visited.len(), live.len());
        }

        /// The open-addressed table agrees with a BTreeMap reference
        /// model across insert/lookup/remove/expire under collision-heavy
        /// key sets (tiny key space on a tiny initial index).
        #[test]
        fn matches_btreemap_reference_model(
            ops in proptest::collection::vec((0u8..4, 0u32..24), 1..300)
        ) {
            let mut t = FlowTable::new(
                FlowTableConfig { initial_capacity: 4, max_flows: None },
                0xA5A5,
            );
            // Reference: key index -> (id, last_ts).
            let mut model: std::collections::BTreeMap<u32, (StreamId, u64)> = Default::default();
            let mut now = 0u64;
            for (op, i) in ops {
                now += 10;
                match op {
                    0 => {
                        let l = t.lookup_or_insert(&key(i), now).unwrap();
                        let entry = model.entry(i).or_insert((l.id, now));
                        prop_assert_eq!(l.created, entry.1 == now && entry.0 == l.id);
                        prop_assert_eq!(l.id, entry.0);
                        entry.1 = now;
                        t.touch(l.id, now);
                    }
                    1 => {
                        match (t.lookup(&key(i)), model.get(&i)) {
                            (Some((id, _)), Some((mid, _))) => prop_assert_eq!(id, *mid),
                            (None, None) => {}
                            (got, want) => prop_assert!(
                                false, "lookup mismatch: got {:?}, want {:?}", got, want
                            ),
                        }
                    }
                    2 => {
                        let removed = model.remove(&i);
                        match removed {
                            Some((id, _)) => prop_assert!(t.remove(id).is_some()),
                            None => prop_assert!(t.lookup(&key(i)).is_none()),
                        }
                    }
                    _ => {
                        // Expire everything idle > 25 ticks; mirror in model.
                        let expired = t.expire_inactive(now, 25, usize::MAX);
                        for (_, rec) in &expired {
                            prop_assert_eq!(
                                rec.status,
                                crate::record::StreamStatus::ClosedTimeout
                            );
                        }
                        let deadline = now.saturating_sub(25);
                        let before = model.len();
                        model.retain(|_, (_, ts)| *ts >= deadline);
                        prop_assert_eq!(expired.len(), before - model.len());
                    }
                }
                prop_assert_eq!(t.len(), model.len());
            }
            for (i, (id, _)) in &model {
                let (found, _) = t.lookup(&key(*i)).expect("model key resolves");
                prop_assert_eq!(found, *id);
            }
        }

        /// Eviction-order invariant: evict_oldest always returns the
        /// least-recently-touched live stream; evict_tiered never
        /// returns a stream when a lower-priority one is in its window.
        #[test]
        fn eviction_order_invariants(
            ops in proptest::collection::vec((0u8..3, 0u32..16, 0u8..3), 1..200)
        ) {
            let mut t = table();
            // Reference recency list: front = most recent.
            let mut order: Vec<(u32, StreamId, u8)> = Vec::new();
            let mut now = 0u64;
            for (op, i, prio) in ops {
                now += 1;
                match op {
                    0 => {
                        if let Some(posn) = order.iter().position(|(k, ..)| *k == i) {
                            let ent = order.remove(posn);
                            t.touch(ent.1, now);
                            order.insert(0, ent);
                        } else {
                            let l = t.lookup_or_insert(&key(i), now).unwrap();
                            t.get_mut(l.id).unwrap().priority = prio;
                            order.insert(0, (i, l.id, prio));
                        }
                    }
                    1 => {
                        let evicted = t.evict_oldest();
                        match (evicted, order.pop()) {
                            (Some((got, _)), Some((_, id, _))) => prop_assert_eq!(got, id),
                            (None, None) => {}
                            _ => prop_assert!(false, "evict_oldest disagrees with model"),
                        }
                    }
                    _ => {
                        const WINDOW: usize = 4;
                        let evicted = t.evict_tiered(WINDOW);
                        if order.is_empty() {
                            prop_assert!(evicted.is_none());
                        } else {
                            let (id, rec) = evicted.expect("non-empty table evicts");
                            let window: Vec<&(u32, StreamId, u8)> =
                                order.iter().rev().take(WINDOW).collect();
                            let min_prio =
                                window.iter().map(|(.., p)| *p).min().unwrap();
                            prop_assert_eq!(rec.priority, min_prio);
                            // The stalest min-priority entry in the window.
                            let want = window.iter().find(|(.., p)| *p == min_prio).unwrap().1;
                            prop_assert_eq!(id, want);
                            let posn = order.iter().position(|&(_, o, _)| o == id).unwrap();
                            order.remove(posn);
                        }
                    }
                }
                prop_assert_eq!(t.len(), order.len());
            }
        }
    }
}
