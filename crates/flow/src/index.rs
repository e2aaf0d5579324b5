//! The open-addressed ctrl-group index both hash tables of the capture
//! path are built on: the kernel flow table (payload: a record-pool slot)
//! and the NIC offload rule table (payload: the rule itself, inline).
//!
//! Three parallel arrays, one entry per position:
//!
//! ```text
//! ctrl:     [u8]  one tag byte per position   0x00 EMPTY
//!                                             0x01 TOMBSTONE
//!                                             0x80|top7(hash) FULL
//! hashes:   [u64] cached full 64-bit hash (no payload touch on mismatch)
//! payloads: [P]   whatever the table keeps at a position
//! ```
//!
//! Positions are probed in aligned groups of [`GROUP`] tags; a probe
//! scans a whole group at once and stops at the first group containing
//! an EMPTY tag, so a negative lookup usually costs a single cache-line
//! touch of the ctrl array.
//!
//! The index knows nothing of keys, growth or eviction: a table compares
//! keys in the `accept` closure it hands [`GroupIndex::scan`], and decides
//! for itself what to do when [`GroupIndex::over_threshold`] reads true
//! (the flow table rehashes incrementally into a second index, the
//! offload table is sized once and compacts in place).

use std::ops::Range;

/// Tags scanned per probe step (one ctrl group; 16 tags = a quarter of
/// a 64-byte line, so neighbouring groups share lines).
pub const GROUP: usize = 16;

const CTRL_EMPTY: u8 = 0x00;
const CTRL_TOMB: u8 = 0x01;
/// Set in the tag of every FULL position, clear in EMPTY and TOMBSTONE.
const CTRL_FULL: u8 = 0x80;

#[inline]
fn tag(h: u64) -> u8 {
    CTRL_FULL | ((h >> 57) as u8)
}

/// One open-addressed index: parallel ctrl/hash/payload arrays.
#[derive(Debug)]
pub struct GroupIndex<P> {
    ctrl: Vec<u8>,
    hashes: Vec<u64>,
    payloads: Vec<P>,
    mask: usize,
    /// FULL positions.
    used: usize,
    /// TOMBSTONE positions (reclaimed by a rehash or [`GroupIndex::clear`]).
    tombs: usize,
}

impl<P: Clone + Default> GroupIndex<P> {
    /// An empty index of at least `cap` positions (a power of two, and
    /// never fewer than two groups).
    pub fn with_capacity(cap: usize) -> Self {
        let cap = cap.max(2 * GROUP).next_power_of_two();
        GroupIndex {
            ctrl: vec![CTRL_EMPTY; cap],
            hashes: vec![0; cap],
            payloads: vec![P::default(); cap],
            mask: cap - 1,
            used: 0,
            tombs: 0,
        }
    }

    /// Positions in the index.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// FULL positions.
    pub fn len(&self) -> usize {
        self.used
    }

    /// True when no position is FULL.
    pub fn is_empty(&self) -> bool {
        self.used == 0
    }

    /// TOMBSTONE positions.
    pub fn tombstones(&self) -> usize {
        self.tombs
    }

    fn ngroups(&self) -> usize {
        self.capacity() / GROUP
    }

    /// The ctrl group `h` probes first.
    #[inline]
    pub fn home_group(&self, h: u64) -> usize {
        (h as usize & self.mask) / GROUP
    }

    /// Walk `h`'s probe sequence a ctrl group at a time (`group` runs
    /// once per group examined) up to the first group with an EMPTY tag.
    /// Returns the first FULL position whose tag and cached hash are
    /// `h`'s and whose payload `accept`s.
    #[inline]
    pub fn scan(
        &self,
        h: u64,
        mut group: impl FnMut(),
        mut accept: impl FnMut(&P) -> bool,
    ) -> Option<usize> {
        let t = tag(h);
        let ngroups = self.ngroups();
        let mut g = self.home_group(h);
        for _ in 0..ngroups {
            group();
            let base = g * GROUP;
            let mut saw_empty = false;
            for pos in base..base + GROUP {
                let c = self.ctrl[pos];
                if c == CTRL_EMPTY {
                    saw_empty = true;
                } else if c == t && self.hashes[pos] == h && accept(&self.payloads[pos]) {
                    return Some(pos);
                }
            }
            if saw_empty {
                return None;
            }
            g = (g + 1) & (ngroups - 1);
        }
        None
    }

    /// The payload at the first position `h`'s tag and cached hash
    /// match: where a [`GroupIndex::scan`] that compares keys will almost
    /// surely end up, learnt from the index lines alone.
    pub fn candidate(&self, h: u64) -> Option<&P> {
        let pos = self.scan(h, || {}, |_| true)?;
        Some(&self.payloads[pos])
    }

    /// First insertable position in `h`'s probe sequence: the earliest
    /// TOMBSTONE, or the first EMPTY if no tombstone precedes it.
    fn insert_pos(&self, h: u64) -> usize {
        let ngroups = self.ngroups();
        let mut g = self.home_group(h);
        let mut first_tomb: Option<usize> = None;
        for _ in 0..ngroups {
            let base = g * GROUP;
            for pos in base..base + GROUP {
                match self.ctrl[pos] {
                    CTRL_EMPTY => return first_tomb.unwrap_or(pos),
                    CTRL_TOMB => first_tomb = first_tomb.or(Some(pos)),
                    _ => {}
                }
            }
            g = (g + 1) & (ngroups - 1);
        }
        first_tomb.expect("index kept below load threshold")
    }

    /// Store `payload` under `h` (the caller has established that no
    /// equal key is present). Returns the position it took.
    pub fn insert(&mut self, h: u64, payload: P) -> usize {
        let pos = self.insert_pos(h);
        if self.ctrl[pos] == CTRL_TOMB {
            self.tombs -= 1;
        }
        self.ctrl[pos] = tag(h);
        self.hashes[pos] = h;
        self.payloads[pos] = payload;
        self.used += 1;
        pos
    }

    /// Take the payload out of FULL position `pos`, leaving a TOMBSTONE:
    /// probes keep walking past it.
    pub fn erase(&mut self, pos: usize) -> P {
        debug_assert!(self.ctrl[pos] & CTRL_FULL != 0, "erase of live position");
        self.ctrl[pos] = CTRL_TOMB;
        self.used -= 1;
        self.tombs += 1;
        std::mem::take(&mut self.payloads[pos])
    }

    /// Forget every position, FULL or TOMBSTONE, keeping the arrays.
    pub fn clear(&mut self) {
        self.ctrl.fill(CTRL_EMPTY);
        self.used = 0;
        self.tombs = 0;
    }

    /// Past the 7/8 load factor (tombstones count: they lengthen
    /// probe chains exactly like live entries).
    pub fn over_threshold(&self) -> bool {
        (self.used + self.tombs) * 8 >= self.capacity() * 7
    }

    /// The FULL positions among `span`, in its order. `span` counts on
    /// past the last position and wraps: `hand..hand + capacity()` is one
    /// turn of a clock from `hand`.
    pub fn full(&self, span: Range<usize>) -> impl Iterator<Item = usize> + '_ {
        span.map(|pos| pos & self.mask)
            .filter(|&pos| self.ctrl[pos] & CTRL_FULL != 0)
    }

    /// Take the first FULL entry among `span` (which does not wrap) out
    /// of the index — its cached hash and payload; a TOMBSTONE stays,
    /// probes keep walking past it — and move the start of `span` past
    /// it: called until `None`, it drains the span.
    pub fn take_next(&mut self, span: &mut Range<usize>) -> Option<(u64, P)> {
        let pos = self.full(span.clone()).next()?;
        span.start = pos + 1;
        Some((self.hashes[pos], self.erase(pos)))
    }

    /// The payload at `pos`.
    #[inline]
    pub fn get(&self, pos: usize) -> &P {
        &self.payloads[pos]
    }

    /// The payload at `pos`, mutably.
    #[inline]
    pub fn get_mut(&mut self, pos: usize) -> &mut P {
        &mut self.payloads[pos]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::fmt::Debug;

    /// Two groups: every probe sequence that starts in the last group
    /// wraps to the first.
    const CAP: usize = 2 * GROUP;

    /// Few tags, few home positions, and two keys to every full hash: the
    /// tag, the cached hash and `accept` each get to say no.
    fn hash_of(k: u64) -> u64 {
        ((k % 3) << 57) | (k % 8 * 4)
    }

    /// A payload that knows its key, as both tables' payloads do (the
    /// flow table's through the record pool).
    trait Keyed: Clone + Default + PartialEq + Debug {
        fn new(k: u64, n: u32) -> Self;
        fn key(&self) -> Option<u64>;
    }

    impl Keyed for u32 {
        fn new(k: u64, n: u32) -> Self {
            (n << 8) | k as u32
        }
        fn key(&self) -> Option<u64> {
            Some(u64::from(*self & 0xFF))
        }
    }

    impl Keyed for Option<(u64, [u32; 5])> {
        fn new(k: u64, n: u32) -> Self {
            Some((k, [n; 5]))
        }
        fn key(&self) -> Option<u64> {
            self.map(|(k, _)| k)
        }
    }

    fn find<P: Keyed>(ix: &GroupIndex<P>, k: u64) -> Option<usize> {
        ix.scan(hash_of(k), || {}, |p| p.key() == Some(k))
    }

    /// Insert / erase / look up / rebuild against a `HashMap`, on an index
    /// that is never grown: tombstones pile up until no EMPTY is left.
    fn agrees_with_a_hashmap<P: Keyed>(ops: &[(u8, u64)]) {
        let mut ix: GroupIndex<P> = GroupIndex::with_capacity(CAP);
        let mut model: HashMap<u64, P> = HashMap::new();
        for (n, &(op, k)) in ops.iter().enumerate() {
            match op {
                // Insert below the 7/8 load the tables keep to; over
                // tombstones once there are any in the way.
                0..=2 => {
                    if !model.contains_key(&k) && model.len() < CAP * 7 / 8 {
                        assert_eq!(find(&ix, k), None);
                        let p = P::new(k, n as u32);
                        let pos = ix.insert(hash_of(k), p.clone());
                        assert_eq!(ix.get(pos), &p);
                        model.insert(k, p);
                    }
                }
                3 | 4 => match (find(&ix, k), model.remove(&k)) {
                    (Some(pos), Some(p)) => {
                        assert_eq!(ix.erase(pos), p);
                        assert_eq!(ix.get(pos), &P::default());
                    }
                    (pos, p) => assert!(pos.is_none() && p.is_none()),
                },
                5 => {
                    if let Some(pos) = find(&ix, k) {
                        *ix.get_mut(pos) = P::new(k, !0);
                        model.insert(k, P::new(k, !0));
                    }
                }
                // Rebuild, the offload table's way (in place) or the flow
                // table's (into a fresh index, a few groups at a time).
                _ => {
                    let mut span = 0..CAP;
                    if k % 2 == 0 {
                        let live: Vec<(u64, P)> =
                            std::iter::from_fn(|| ix.take_next(&mut span)).collect();
                        assert_eq!(live.len(), model.len());
                        assert!(ix.is_empty());
                        ix.clear();
                        assert_eq!(ix.tombstones(), 0);
                        for (h, p) in live {
                            ix.insert(h, p);
                        }
                    } else {
                        let mut fresh = GroupIndex::with_capacity(CAP);
                        for end in (GROUP..=CAP).step_by(GROUP) {
                            span.end = end;
                            while let Some((h, p)) = ix.take_next(&mut span) {
                                fresh.insert(h, p);
                            }
                        }
                        ix = fresh;
                    }
                }
            }
            assert_eq!(ix.len(), model.len());
            assert_eq!(ix.full(0..CAP).count(), model.len());
            assert!(ix.len() + ix.tombstones() <= CAP);
            for (&k, p) in &model {
                let pos = find(&ix, k);
                assert_eq!(pos.map(|pos| ix.get(pos)), Some(p), "key {}", k);
                let twin = ix.candidate(hash_of(k)).and_then(P::key);
                assert!(twin == Some(k) || twin == Some((k + 24) % 48));
            }
            for k in (0..48).filter(|k| !model.contains_key(k)) {
                assert_eq!(find(&ix, k), None);
            }
        }
    }

    fn ops() -> impl Strategy<Value = Vec<(u8, u64)>> {
        proptest::collection::vec((0u8..7, 0u64..48), 1..400)
    }

    proptest! {
        #[test]
        fn slot_payloads_agree_with_a_hashmap(ops in ops()) {
            agrees_with_a_hashmap::<u32>(&ops);
        }

        #[test]
        fn inline_payloads_agree_with_a_hashmap(ops in ops()) {
            agrees_with_a_hashmap::<Option<(u64, [u32; 5])>>(&ops);
        }
    }

    #[test]
    fn an_index_full_of_tombstones_still_answers_and_still_takes_inserts() {
        let mut ix: GroupIndex<u32> = GroupIndex::with_capacity(CAP);
        let homed = |g: usize| (0..48u64).filter(move |&k| usize::from(k % 8 >= 4) == g);
        let put = |ix: &mut GroupIndex<u32>, k: u64| ix.insert(hash_of(k), u32::new(k, 0));
        // Fill the last group, most of the first, empty the last again,
        // fill the rest of the first: no EMPTY tag is left anywhere.
        let late: Vec<usize> = homed(1).take(GROUP).map(|k| put(&mut ix, k)).collect();
        assert!(late.iter().all(|&pos| pos >= GROUP));
        for k in homed(0).take(GROUP - 4) {
            put(&mut ix, k);
        }
        for pos in late {
            ix.erase(pos);
        }
        for k in homed(0).skip(GROUP - 4).take(4) {
            put(&mut ix, k);
        }
        assert_eq!((ix.len(), ix.tombstones()), (GROUP, GROUP));
        assert!(ix.over_threshold());
        // A miss walks every group, once, and ends.
        let mut groups = 0;
        assert_eq!(ix.scan(hash_of(4), || groups += 1, |_| true), None);
        assert_eq!(groups, CAP / GROUP);
        for k in homed(0).take(GROUP) {
            assert_eq!(find(&ix, k).map(|pos| ix.get(pos).key()), Some(Some(k)));
        }
        // Half of the first group goes; the last fills up over its
        // tombstones; one more key homed there finds neither an EMPTY nor
        // a tombstone in its own group and wraps into the first.
        for k in homed(0).take(8) {
            ix.erase(find(&ix, k).unwrap());
        }
        for k in homed(1).take(GROUP) {
            put(&mut ix, k);
        }
        assert_eq!((ix.len(), ix.tombstones()), (GROUP + 8, 8));
        let wrapped = homed(1).nth(GROUP).unwrap();
        assert_eq!(find(&ix, wrapped), None);
        let pos = put(&mut ix, wrapped);
        assert!(pos < GROUP);
        assert_eq!(find(&ix, wrapped), Some(pos));
        assert_eq!((ix.len(), ix.tombstones()), (GROUP + 9, 7));
        // And a clock started in the last group comes round to it.
        assert_eq!(ix.full(GROUP..GROUP + CAP).nth(GROUP), Some(pos));
    }
}
