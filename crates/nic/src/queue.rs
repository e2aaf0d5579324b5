//! RX descriptor rings.
//!
//! A fixed-capacity FIFO standing in for a hardware descriptor ring: when
//! the host is too slow to replenish descriptors, arriving frames are
//! dropped at the NIC — the overload mechanism every drop-rate figure in
//! the paper ultimately measures.
//!
//! `capacity` is where the ring starts dropping, not what it allocates:
//! storage grows to the depth the ring was ever filled to, and a ring
//! drained empty starts over at its first slot. A consumer that keeps up
//! therefore works in the same few cache lines, whatever the size of an
//! item, instead of walking — and keeping resident — all `capacity` slots
//! (8 rings × 4,096 entries of 104 B would be 3.4 MB a kernel).

use std::collections::VecDeque;

/// A bounded FIFO of host-side packet handles.
#[derive(Debug)]
pub struct RxQueue<T> {
    ring: VecDeque<T>,
    capacity: usize,
    /// Total accepted items.
    pub enqueued: u64,
    /// Total rejected (ring-full) items.
    pub dropped: u64,
    /// High-water mark of occupancy.
    pub max_depth: usize,
}

impl<T> RxQueue<T> {
    /// A ring with `capacity` descriptors.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        RxQueue {
            ring: VecDeque::new(),
            capacity,
            enqueued: 0,
            dropped: 0,
            max_depth: 0,
        }
    }

    /// Try to enqueue; `false` means the ring was full and the item was
    /// dropped.
    pub fn push(&mut self, item: T) -> bool {
        if self.ring.len() >= self.capacity {
            self.dropped += 1;
            return false;
        }
        self.ring.push_back(item);
        self.enqueued += 1;
        self.max_depth = self.max_depth.max(self.ring.len());
        true
    }

    /// Dequeue the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        let item = self.ring.pop_front();
        self.rewind_if_empty();
        item
    }

    /// Lend the queued items out, oldest first, so that a consumer can
    /// work on a burst where it sits and drain it afterwards; the ring
    /// reads empty until [`RxQueue::put_back`] returns them. Nothing may
    /// be pushed while they are out.
    pub fn take(&mut self) -> VecDeque<T> {
        std::mem::take(&mut self.ring)
    }

    /// Return the items [`RxQueue::take`] lent out, minus whatever the
    /// consumer drained from the front.
    pub fn put_back(&mut self, ring: VecDeque<T>) {
        debug_assert!(self.ring.is_empty(), "pushed while the ring was lent");
        self.ring = ring;
        self.rewind_if_empty();
    }

    /// Start over at the first slot: `clear` rewinds an empty `VecDeque`
    /// (were it ever not to, only the locality is lost).
    #[inline]
    fn rewind_if_empty(&mut self) {
        if self.ring.is_empty() {
            self.ring.clear();
        }
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Occupancy as a fraction of capacity.
    pub fn fill_level(&self) -> f64 {
        self.ring.len() as f64 / self.capacity as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q = RxQueue::new(4);
        for i in 0..4 {
            assert!(q.push(i));
        }
        assert!(!q.push(99));
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(1));
        assert!(q.push(4));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(4));
        assert_eq!(q.pop(), None);
        assert_eq!(q.enqueued, 5);
        assert_eq!(q.dropped, 1);
        assert_eq!(q.max_depth, 4);
    }

    #[test]
    fn a_lent_ring_comes_back_drained_and_rewinds_when_empty() {
        let mut q = RxQueue::new(8);
        for i in 0..6 {
            assert!(q.push(i));
        }
        // Lent: the items sit in order, the ring reads empty.
        let mut ring = q.take();
        assert!(q.is_empty());
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), [0, 1, 2, 3, 4, 5]);
        ring.drain(..4);
        q.put_back(ring);
        assert_eq!(q.len(), 2);
        // A push after the return queues behind what was left.
        assert!(q.push(6));
        let mut ring = q.take();
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), [4, 5, 6]);
        while ring.pop_front().is_some() {}
        q.put_back(ring);
        assert!(q.is_empty());
        // Drained, the storage starts over at its first slot: a full
        // ring's worth of items sits in one contiguous run from there.
        for i in 0..8 {
            assert!(q.push(i));
        }
        let ring = q.take();
        assert_eq!(ring.as_slices(), (&[0, 1, 2, 3, 4, 5, 6, 7][..], &[][..]));
        q.put_back(ring);
        assert_eq!(q.pop(), Some(0));
        assert_eq!((q.enqueued, q.dropped, q.max_depth), (15, 0, 8));
    }

    #[test]
    fn fill_level_tracks_occupancy() {
        let mut q = RxQueue::new(10);
        assert_eq!(q.fill_level(), 0.0);
        for i in 0..5 {
            q.push(i);
        }
        assert!((q.fill_level() - 0.5).abs() < 1e-9);
        assert!(!q.is_empty());
        assert_eq!(q.capacity(), 10);
        assert_eq!(q.len(), 5);
    }
}
