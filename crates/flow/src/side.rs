//! Slot-indexed side tables: per-stream state kept *beside* the flow
//! table instead of in a second hash table.
//!
//! A [`StreamId`] already names a dense pool slot plus the generation
//! that occupied it, so state that lives and dies with a stream needs
//! no hashing of its own: [`SideTable`] is a `Vec` indexed by
//! [`StreamId::slot`], each entry tagged with the generation it belongs
//! to. A lookup is one bounds check and one compare, the entry is
//! borrowed in place, and a stale handle (an older generation of a
//! recycled slot) resolves to `None` — never to the successor's state.
//!
//! Like the flow table, a side table stamps a slot with its current
//! touch epoch whenever the slot's state is inserted, mutably borrowed
//! or removed; [`SideTable::touched`] and [`SideTable::next_epoch`] are
//! the read side (see `FlowTable`'s "Touch epochs").

use crate::record::StreamId;

/// One slot: the state, the generation that owns it (meaningful while
/// `value` is `Some`), and the epoch the slot was last written in.
#[derive(Debug)]
struct Entry<T> {
    generation: u32,
    stamp: u32,
    value: Option<T>,
}

/// Per-stream state of type `T`, indexed by [`StreamId`].
#[derive(Debug)]
pub struct SideTable<T> {
    entries: Vec<Entry<T>>,
    /// Current touch epoch; starts at 1 so a never-used slot (stamp 0)
    /// reads as untouched.
    epoch: u32,
}

impl<T> Default for SideTable<T> {
    fn default() -> Self {
        SideTable {
            entries: Vec::new(),
            epoch: 1,
        }
    }
}

impl<T> SideTable<T> {
    /// An empty table; it grows to the highest slot ever inserted.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store `value` as the state of `id`, replacing what the slot held:
    /// the previous state of `id`, or one left behind by an earlier
    /// generation of the slot, whose stream no longer exists.
    pub fn insert(&mut self, id: StreamId, value: T) {
        let slot = id.slot();
        if slot >= self.entries.len() {
            self.entries.resize_with(slot + 1, || Entry {
                generation: 0,
                stamp: 0,
                value: None,
            });
        }
        self.entries[slot] = Entry {
            generation: id.generation,
            stamp: self.epoch,
            value: Some(value),
        };
    }

    /// The state of `id` (`None` for an unknown or stale handle).
    #[inline]
    pub fn get(&self, id: StreamId) -> Option<&T> {
        let e = self.entries.get(id.slot())?;
        if e.generation != id.generation {
            return None;
        }
        e.value.as_ref()
    }

    /// Mutable access to the state of `id`, in place. Marks the slot
    /// touched in the current epoch whether or not the caller writes.
    #[inline]
    pub fn get_mut(&mut self, id: StreamId) -> Option<&mut T> {
        let e = self.entries.get_mut(id.slot())?;
        if e.generation != id.generation {
            return None;
        }
        e.stamp = self.epoch;
        e.value.as_mut()
    }

    /// Whatever state pool slot `slot` holds, of whichever generation:
    /// for reading ahead of a [`SideTable::get_mut`] (see `FlowTable`'s
    /// "Staging a burst"), not for acting on. Nothing is stamped.
    #[inline]
    pub fn stage(&self, slot: usize) -> Option<&T> {
        let e = self.entries.get(slot)?;
        std::hint::black_box(e.generation);
        e.value.as_ref()
    }

    /// Take the state of `id` out of the table.
    pub fn remove(&mut self, id: StreamId) -> Option<T> {
        let e = self.entries.get_mut(id.slot())?;
        if e.generation != id.generation {
            return None;
        }
        e.stamp = self.epoch;
        e.value.take()
    }

    /// Every stored value, in slot order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.entries.iter().filter_map(|e| e.value.as_ref())
    }

    /// True when state was inserted at, mutably borrowed from or removed
    /// from the slot of `id` since the last [`SideTable::next_epoch`].
    pub fn touched(&self, id: StreamId) -> bool {
        self.entries
            .get(id.slot())
            .is_some_and(|e| e.stamp == self.epoch)
    }

    /// Start a new touch epoch (wrap-around errs towards "touched").
    pub fn next_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{FlowTable, FlowTableConfig};
    use proptest::prelude::*;
    use scap_wire::{FlowKey, Transport};
    use std::collections::HashMap;

    fn key(i: u32) -> FlowKey {
        FlowKey::new_v4([10, 0, 0, i as u8], [10, 9, 9, 9], 4000, 80, Transport::Tcp)
    }

    #[test]
    fn a_recycled_slot_never_shows_its_predecessor() {
        let mut flows = FlowTable::new(FlowTableConfig::default(), 1);
        let mut side = SideTable::new();
        let old = flows.lookup_or_insert(&key(1), 0).unwrap().id;
        side.insert(old, "old");
        flows.remove(old).unwrap();
        // The successor takes the same slot before the old state is
        // removed: neither handle sees the other's state.
        let new = flows.lookup_or_insert(&key(2), 0).unwrap().id;
        assert_eq!(new.slot(), old.slot());
        assert_eq!(side.get(new), None);
        assert_eq!(side.remove(new), None);
        side.insert(new, "new");
        assert_eq!(side.values().count(), 1);
        assert_eq!(side.get(old), None);
        assert_eq!(side.get_mut(old), None);
        assert_eq!(side.remove(old), None);
        assert_eq!(side.get(new), Some(&"new"));
        assert_eq!(side.remove(new), Some("new"));
        assert_eq!(side.values().count(), 0);
    }

    #[test]
    fn touch_epochs_follow_insert_borrow_and_remove() {
        let mut flows = FlowTable::new(FlowTableConfig::default(), 1);
        let mut side = SideTable::new();
        let ids: Vec<StreamId> = (0..4)
            .map(|i| flows.lookup_or_insert(&key(i), 0).unwrap().id)
            .collect();
        // A slot the table has never grown to is untouched.
        assert!(!side.touched(ids[3]));
        for &id in &ids[..3] {
            side.insert(id, 0u32);
        }
        assert!(ids[..3].iter().all(|&id| side.touched(id)));
        side.next_epoch();
        assert!(!ids.iter().any(|&id| side.touched(id)));
        assert_eq!(side.get(ids[0]), Some(&0));
        assert_eq!(side.values().count(), 3);
        assert!(!side.touched(ids[0]), "reads are not touches");
        *side.get_mut(ids[1]).unwrap() += 1;
        assert_eq!(side.remove(ids[2]), Some(0));
        let touched: Vec<bool> = ids.iter().map(|&id| side.touched(id)).collect();
        assert_eq!(touched, [false, true, true, false]);
        // The stamp outlives the state it was taken for.
        assert_eq!(side.get(ids[2]), None);
        side.next_epoch();
        assert!(!side.touched(ids[2]));
        // A stale handle neither borrows nor stamps.
        flows.remove(ids[0]).unwrap();
        let new = flows.lookup_or_insert(&key(9), 0).unwrap().id;
        assert_eq!(new.slot(), ids[0].slot());
        assert_eq!(side.get_mut(new), None);
        assert_eq!(side.remove(new), None);
        assert!(!side.touched(new));
    }

    proptest! {
        /// Driven by a real flow table (so slots are recycled and
        /// generations bumped the way the kernel sees them), the side
        /// table agrees with a `HashMap<StreamId, _>` on every handle
        /// ever issued — live, removed, and stale.
        #[test]
        fn matches_a_hashmap_keyed_by_stream_id(
            ops in proptest::collection::vec((0u8..5, 0u32..12), 1..400)
        ) {
            let mut flows = FlowTable::new(
                FlowTableConfig { initial_capacity: 4, max_flows: None },
                0x51DE,
            );
            let mut side: SideTable<u64> = SideTable::new();
            let mut model: HashMap<StreamId, u64> = HashMap::new();
            let mut issued: Vec<StreamId> = Vec::new();
            for (n, (op, i)) in ops.into_iter().enumerate() {
                let n = n as u64;
                match op {
                    // A stream appears (or is seen again) and gets state.
                    0 => {
                        let id = flows.lookup_or_insert(&key(i), n).unwrap().id;
                        issued.push(id);
                        side.insert(id, n);
                        model.insert(id, n);
                    }
                    // A stream ends; its state goes with it.
                    1 => {
                        if let Some((id, _)) = flows.lookup(&key(i)) {
                            flows.remove(id).unwrap();
                            prop_assert_eq!(side.remove(id), model.remove(&id));
                        }
                    }
                    // A stream ends and a tombstone without state takes
                    // its slot (the kernel's TIME_WAIT records).
                    2 => {
                        if let Some((id, _)) = flows.lookup(&key(i)) {
                            flows.remove(id).unwrap();
                            prop_assert_eq!(side.remove(id), model.remove(&id));
                            let tomb = flows.lookup_or_insert(&key(i), n).unwrap().id;
                            prop_assert_eq!(tomb.slot(), id.slot());
                            issued.push(tomb);
                        }
                    }
                    // In-place mutation through any handle ever issued.
                    3 => {
                        if let Some(&id) = issued.get(i as usize % issued.len().max(1)) {
                            match (side.get_mut(id), model.get_mut(&id)) {
                                (Some(a), Some(b)) => { *a += 1; *b += 1; }
                                (a, b) => prop_assert_eq!(a, b),
                            }
                        }
                    }
                    // Removal through any handle ever issued.
                    _ => {
                        if let Some(&id) = issued.get(i as usize % issued.len().max(1)) {
                            prop_assert_eq!(side.remove(id), model.remove(&id));
                        }
                    }
                }
                prop_assert_eq!(side.values().count(), model.len());
                for id in &issued {
                    prop_assert_eq!(side.get(*id), model.get(id));
                }
            }
            let mut a: Vec<u64> = side.values().copied().collect();
            let mut b: Vec<u64> = model.values().copied().collect();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);
        }
    }
}
