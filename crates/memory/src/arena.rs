//! The budgeted block arena.
//!
//! Models the kernel module's stream-data buffer: a fixed byte budget
//! (`memory_size` in `scap_create`) from which contiguous blocks are
//! allocated, one per in-progress chunk. Released blocks park on
//! per-size free lists, mirroring the paper's "own memory allocator"
//! that avoids dynamic-allocation overhead in the softirq path.

/// Arena exhaustion: the caller decides what to drop (PPL usually
/// prevents this from being reached by high-priority traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfMemory;

impl core::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "stream memory arena exhausted")
    }
}

impl std::error::Error for OutOfMemory {}

/// An allocated block holding (part of) one stream chunk.
#[derive(Debug)]
pub struct ChunkBuf {
    /// The valid bytes; the capacity is the allocation class size. Only
    /// written bytes exist, so a fresh block is never zero-filled.
    data: Vec<u8>,
    /// Stream offset of the chunk's first byte (for reporting and packet
    /// records).
    pub start_offset: u64,
    /// True when reassembly noted an error inside this chunk (fast mode).
    pub had_error: bool,
    /// Synthetic address used by the cache model (set by the kernel when
    /// the chunk is emitted; 0 when unused).
    pub sim_addr: u64,
}

impl ChunkBuf {
    /// The valid payload of the chunk.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Valid bytes written so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Nothing written yet.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Remaining capacity.
    pub fn room(&self) -> usize {
        self.data.capacity() - self.data.len()
    }

    /// Append `bytes` behind the valid ones; they must fit in [`room`].
    ///
    /// [`room`]: ChunkBuf::room
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        assert!(bytes.len() <= self.room(), "chunk block overflow");
        self.data.extend_from_slice(bytes);
    }
}

use scap_telemetry::{Metric, PlainRegistry};
use scap_wire::IntMap;

/// The block allocator.
#[derive(Debug)]
pub struct Arena {
    budget: usize,
    used: usize,
    /// Free lists keyed by block size (blocks are reused exactly-sized;
    /// chunk sizes are few in practice — one per application config).
    freelists: IntMap<usize, Vec<Vec<u8>>>,
    /// Lifetime counters for diagnostics and the cost model.
    pub allocs: u64,
    /// Blocks handed back.
    pub releases: u64,
    /// Allocation failures (arena full).
    pub failures: u64,
    /// High-water mark of `used`.
    pub peak_used: usize,
    /// Bytes withheld from the budget (fault injection / external
    /// pressure). Reserved bytes count as used for admission and for
    /// `used_fraction`, so PPL sees the pressure spike.
    reserved: usize,
    /// Telemetry (single shard: the arena is one shared resource).
    tele: PlainRegistry,
}

impl Arena {
    /// An arena with `budget` bytes (the paper's experiments use 1 GB).
    pub fn new(budget: usize) -> Self {
        Arena {
            budget,
            used: 0,
            freelists: IntMap::default(),
            allocs: 0,
            releases: 0,
            failures: 0,
            peak_used: 0,
            reserved: 0,
            tele: PlainRegistry::new(1),
        }
    }

    /// The arena's telemetry registry (merged into capture-wide
    /// snapshots by the kernel).
    pub fn telemetry(&self) -> &PlainRegistry {
        &self.tele
    }

    /// Total budget in bytes.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Bytes currently allocated to live blocks.
    pub fn used(&self) -> usize {
        self.used
    }

    /// Bytes currently withheld from the budget (0 unless fault
    /// injection or an external reservation is active).
    pub fn reserved(&self) -> usize {
        self.reserved
    }

    /// Withhold `bytes` from the budget. Already-allocated blocks are
    /// unaffected; new allocations and `used_fraction` see the squeeze.
    pub fn set_reserved(&mut self, bytes: usize) {
        self.reserved = bytes.min(self.budget);
    }

    /// Fraction of the budget in use (input to PPL). Reserved bytes
    /// count as used.
    pub fn used_fraction(&self) -> f64 {
        if self.budget == 0 {
            1.0
        } else {
            ((self.used + self.reserved) as f64 / self.budget as f64).min(1.0)
        }
    }

    /// Allocate a block of exactly `size` bytes for a new chunk starting
    /// at stream offset `start_offset`.
    pub fn alloc(&mut self, size: usize, start_offset: u64) -> Result<ChunkBuf, OutOfMemory> {
        assert!(size > 0);
        if self.used + self.reserved + size > self.budget {
            self.failures += 1;
            self.tele.inc(0, Metric::ArenaAllocFailures);
            return Err(OutOfMemory);
        }
        let data = match self.freelists.get_mut(&size).and_then(Vec::pop) {
            Some(b) => b,
            None => Vec::with_capacity(size),
        };
        self.used += size;
        self.peak_used = self.peak_used.max(self.used);
        self.allocs += 1;
        self.tele.inc(0, Metric::ArenaAllocs);
        Ok(ChunkBuf {
            data,
            start_offset,
            had_error: false,
            sim_addr: 0,
        })
    }

    /// Return a block to the arena (after the worker consumed the chunk).
    pub fn release(&mut self, chunk: ChunkBuf) {
        let mut data = chunk.data;
        let size = data.capacity();
        self.used -= size;
        self.releases += 1;
        self.tele.inc(0, Metric::ArenaReleases);
        data.clear();
        self.freelists.entry(size).or_default().push(data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_enforced() {
        let mut a = Arena::new(10_000);
        let c1 = a.alloc(4096, 0).unwrap();
        let _c2 = a.alloc(4096, 0).unwrap();
        assert!(a.alloc(4096, 0).is_err());
        assert_eq!(a.failures, 1);
        a.release(c1);
        assert!(a.alloc(4096, 0).is_ok());
    }

    #[test]
    fn used_fraction_tracks_allocations() {
        let mut a = Arena::new(100);
        assert_eq!(a.used_fraction(), 0.0);
        let c = a.alloc(50, 0).unwrap();
        assert!((a.used_fraction() - 0.5).abs() < 1e-9);
        a.release(c);
        assert_eq!(a.used_fraction(), 0.0);
        assert_eq!(a.peak_used, 50);
    }

    #[test]
    fn freed_blocks_are_reused() {
        let mut a = Arena::new(1 << 20);
        let mut c = a.alloc(8192, 0).unwrap();
        c.extend_from_slice(&[7; 100]);
        let ptr = c.data.as_ptr();
        a.release(c);
        let c2 = a.alloc(8192, 100).unwrap();
        assert_eq!(c2.data.as_ptr(), ptr, "block not recycled");
        assert_eq!(c2.start_offset, 100);
        // Recycled empty, with the whole class to fill.
        assert_eq!((c2.len(), c2.room()), (0, 8192));
        assert_eq!(a.used(), 8192);
    }

    #[test]
    fn chunk_buf_accessors() {
        let mut a = Arena::new(1 << 16);
        let mut c = a.alloc(100, 7).unwrap();
        c.extend_from_slice(b"abc");
        assert_eq!(c.bytes(), b"abc");
        assert_eq!((c.len(), c.room()), (3, 97));
    }

    #[test]
    fn reserved_bytes_squeeze_the_budget() {
        let mut a = Arena::new(10_000);
        a.set_reserved(7_000);
        assert!((a.used_fraction() - 0.7).abs() < 1e-9);
        assert!(a.alloc(4096, 0).is_err());
        let c = a.alloc(2048, 0).unwrap();
        assert!((a.used_fraction() - 0.9048).abs() < 1e-3);
        a.set_reserved(0);
        a.release(c);
        assert_eq!(a.used_fraction(), 0.0);
        // Reservation is clamped to the budget.
        a.set_reserved(usize::MAX);
        assert_eq!(a.reserved(), 10_000);
        assert_eq!(a.used_fraction(), 1.0);
    }

    #[test]
    fn zero_budget_is_always_full() {
        let mut a = Arena::new(0);
        assert_eq!(a.used_fraction(), 1.0);
        assert!(a.alloc(1, 0).is_err());
    }
}
