//! The budgeted block arena.
//!
//! Models the kernel module's stream-data buffer: a fixed byte budget
//! (`memory_size` in `scap_create`) from which blocks are allocated, one
//! per in-progress chunk. Released blocks park on per-class free lists,
//! mirroring the paper's "own memory allocator" that avoids
//! dynamic-allocation overhead in the softirq path.
//!
//! A chunk has a *logical* size — what the budget charges, what
//! [`ChunkBuf::room`] reports and where the chunk completes — and a
//! *physical* block that holds its bytes. The block is a size class: a
//! power of two of at least [`MIN_CLASS`] bytes, capped at the logical
//! size. A chunk that outgrows its block moves to a larger class through
//! [`Arena::grow`], which never consults the budget: the budget already
//! charged the whole logical size.

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

/// The smallest block class: a 200-byte segment takes a 256-byte block,
/// not a whole chunk's.
pub const MIN_CLASS: usize = 256;

/// An allocated block holding (part of) one stream chunk.
#[derive(Debug)]
pub struct ChunkBuf {
    /// The valid bytes; the capacity is the block's class. Only written
    /// bytes exist, so a fresh block is never zero-filled.
    data: Vec<u8>,
    /// Stream offset of the chunk's first byte (for reporting and packet
    /// records).
    pub start_offset: u64,
    /// Synthetic address used by the cache model (set by the kernel when
    /// the chunk is emitted; 0 when unused).
    pub sim_addr: u64,
    /// The logical size: what the arena charged for the chunk.
    size: u32,
    /// True when reassembly noted an error inside this chunk (fast mode).
    pub had_error: bool,
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

    /// The chunk's logical size: it completes when it holds this many
    /// bytes.
    pub fn size(&self) -> usize {
        self.size as usize
    }

    /// Bytes the physical block holds: at most [`size`], except for a
    /// chunk made by [`Arena::alloc_pow2`], whose block is the power of
    /// two that holds it.
    ///
    /// [`size`]: ChunkBuf::size
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Bytes the chunk takes before it completes.
    pub fn room(&self) -> usize {
        self.size() - self.data.len()
    }

    /// Append `bytes` behind the valid ones; they must fit in the block
    /// (grow a chunk through [`Arena::grow`]).
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        assert!(
            bytes.len() <= self.data.capacity() - self.data.len(),
            "chunk block overflow"
        );
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
    /// One free list per block class, keyed by the class's byte size (the
    /// powers of two from [`MIN_CLASS`] up, and each logical size below or
    /// between them that caps a chunk's top class).
    freelists: IntMap<usize, Vec<Vec<u8>>>,
    /// Smallest class handed out ([`MIN_CLASS`]; tests raise it past every
    /// chunk size to get the full-size blocks of a plain block allocator).
    min_class: usize,
    /// Bytes of every block this arena has made.
    block_bytes: usize,
    /// Lifetime counters for diagnostics and the cost model.
    pub allocs: u64,
    /// Blocks handed back.
    pub releases: u64,
    /// Chunks moved to a larger block.
    pub grows: u64,
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
            min_class: MIN_CLASS,
            block_bytes: 0,
            allocs: 0,
            releases: 0,
            grows: 0,
            failures: 0,
            peak_used: 0,
            reserved: 0,
            tele: PlainRegistry::new(1),
        }
    }

    /// An arena whose every block is its chunk's full logical size: the
    /// reference the right-sized blocks are tested against.
    #[cfg(test)]
    pub(crate) fn with_full_blocks(budget: usize) -> Self {
        Arena {
            min_class: usize::MAX,
            ..Arena::new(budget)
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

    /// Bytes charged to live chunks: each one's logical size, whatever
    /// block holds it.
    pub fn used(&self) -> usize {
        self.used
    }

    /// Physical bytes of the blocks this arena has made, live and free
    /// (a chunk dropped instead of released still counts).
    pub fn block_bytes(&self) -> usize {
        self.block_bytes
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

    /// Allocate a chunk of logical size `size` starting at stream offset
    /// `start_offset`, charging `size` to the budget. Its block is the
    /// smallest class that holds `fill` bytes (what the caller is about
    /// to write; capped at `size`).
    pub fn alloc(
        &mut self,
        size: usize,
        fill: usize,
        start_offset: u64,
    ) -> Result<ChunkBuf, OutOfMemory> {
        self.charge(size, self.class(fill, size), start_offset)
    }

    /// Allocate a chunk of a one-off logical size `size` (two chunks
    /// merged into one), charging `size` to the budget. Its block is the
    /// power-of-two class that holds it, not a class capped at `size`:
    /// the block then comes from, and goes back to, a free list other
    /// allocations share, instead of one only a chunk of the very same
    /// size would ever pop.
    pub fn alloc_pow2(&mut self, size: usize, start_offset: u64) -> Result<ChunkBuf, OutOfMemory> {
        self.charge(size, size.max(MIN_CLASS).next_power_of_two(), start_offset)
    }

    /// Charge `size` to the budget and hand out a chunk of that logical
    /// size in a block of `class` bytes.
    fn charge(
        &mut self,
        size: usize,
        class: usize,
        start_offset: u64,
    ) -> Result<ChunkBuf, OutOfMemory> {
        assert!(size > 0);
        let fits = self.used + self.reserved + size <= self.budget;
        let (true, Ok(logical)) = (fits, u32::try_from(size)) else {
            self.failures += 1;
            self.tele.inc(0, Metric::ArenaAllocFailures);
            return Err(OutOfMemory);
        };
        let data = self.block(class);
        self.used += size;
        self.peak_used = self.peak_used.max(self.used);
        self.allocs += 1;
        self.tele.inc(0, Metric::ArenaAllocs);
        Ok(ChunkBuf {
            data,
            start_offset,
            sim_addr: 0,
            size: logical,
            had_error: false,
        })
    }

    /// Move `chunk` into a block of the class that holds `need` bytes
    /// (at most its logical size): the held bytes are copied over and the
    /// old block goes back to its free list. The budget is not consulted
    /// — it charged the logical size at [`alloc`] — so growth never
    /// fails.
    ///
    /// [`alloc`]: Arena::alloc
    #[cold]
    pub fn grow(&mut self, chunk: &mut ChunkBuf, need: usize) {
        assert!(
            need <= chunk.size(),
            "a chunk grows only to its logical size"
        );
        if need <= chunk.capacity() {
            return;
        }
        let mut block = self.block(self.class(need, chunk.size()));
        block.extend_from_slice(&chunk.data);
        let old = std::mem::replace(&mut chunk.data, block);
        self.park(old);
        self.grows += 1;
    }

    /// Return a block to the arena (after the worker consumed the chunk).
    pub fn release(&mut self, chunk: ChunkBuf) {
        self.used -= chunk.size();
        self.releases += 1;
        self.tele.inc(0, Metric::ArenaReleases);
        self.park(chunk.data);
    }

    /// The class of the block that holds `fill` bytes of a chunk of
    /// logical size `size`.
    #[inline]
    fn class(&self, fill: usize, size: usize) -> usize {
        fill.max(self.min_class)
            .min(size)
            .next_power_of_two()
            .min(size)
    }

    /// An empty block of `class` bytes, from its free list when it has one.
    fn block(&mut self, class: usize) -> Vec<u8> {
        match self.freelists.get_mut(&class).and_then(Vec::pop) {
            Some(b) => b,
            None => {
                self.block_bytes += class;
                Vec::with_capacity(class)
            }
        }
    }

    /// Put an emptied block on its class's free list.
    fn park(&mut self, mut block: Vec<u8>) {
        block.clear();
        self.freelists
            .entry(block.capacity())
            .or_default()
            .push(block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_enforced() {
        let mut a = Arena::new(10_000);
        let c1 = a.alloc(4096, 4096, 0).unwrap();
        let _c2 = a.alloc(4096, 4096, 0).unwrap();
        assert!(a.alloc(4096, 4096, 0).is_err());
        assert_eq!(a.failures, 1);
        a.release(c1);
        assert!(a.alloc(4096, 4096, 0).is_ok());
    }

    #[test]
    fn used_fraction_tracks_allocations() {
        let mut a = Arena::new(100);
        assert_eq!(a.used_fraction(), 0.0);
        let c = a.alloc(50, 50, 0).unwrap();
        assert!((a.used_fraction() - 0.5).abs() < 1e-9);
        a.release(c);
        assert_eq!(a.used_fraction(), 0.0);
        assert_eq!(a.peak_used, 50);
    }

    #[test]
    fn freed_blocks_are_reused() {
        let mut a = Arena::new(1 << 20);
        let mut c = a.alloc(8192, 8192, 0).unwrap();
        c.extend_from_slice(&[7; 100]);
        let ptr = c.data.as_ptr();
        a.release(c);
        let c2 = a.alloc(8192, 5000, 100).unwrap();
        assert_eq!(c2.data.as_ptr(), ptr, "block not recycled");
        assert_eq!(c2.start_offset, 100);
        // Recycled empty, with the whole class to fill.
        assert_eq!((c2.len(), c2.room(), c2.capacity()), (0, 8192, 8192));
        assert_eq!((a.used(), a.block_bytes()), (8192, 8192));
    }

    #[test]
    fn a_block_is_the_class_of_its_fill_capped_at_the_logical_size() {
        let mut a = Arena::new(1 << 20);
        for (size, fill, class) in [
            (16384, 0, 256),
            (16384, 200, 256),
            (16384, 256, 256),
            (16384, 257, 512),
            (16384, 4097, 8192),
            (16384, 16383, 16384),
            (16384, 1 << 20, 16384),
            (1000, 300, 512),
            (1000, 600, 1000),
            (100, 50, 100),
            (1, 1, 1),
        ] {
            let c = a.alloc(size, fill, 0).unwrap();
            assert_eq!((c.size(), c.capacity()), (size, class), "fill {fill}");
            a.release(c);
        }
        // The budget saw logical sizes only.
        assert_eq!((a.used(), a.peak_used), (0, 16384));
    }

    #[test]
    fn growth_moves_the_bytes_and_parks_the_old_block() {
        // The budget holds exactly one chunk: growth must not ask it.
        let mut a = Arena::new(16384);
        let mut c = a.alloc(16384, 200, 9).unwrap();
        c.extend_from_slice(&[3; 200]);
        c.had_error = true;
        let small = c.data.as_ptr();
        a.grow(&mut c, 4097);
        assert_eq!((c.len(), c.capacity(), c.room()), (200, 8192, 16184));
        assert_eq!(
            (c.bytes(), c.start_offset, c.had_error),
            (&[3; 200][..], 9, true)
        );
        // A need the block already holds moves nothing.
        let big = c.data.as_ptr();
        a.grow(&mut c, 8192);
        assert_eq!(c.data.as_ptr(), big);
        a.grow(&mut c, 16384);
        assert_eq!(c.capacity(), 16384);
        assert_eq!((a.used(), a.failures, a.grows), (16384, 0, 2));
        assert_eq!(a.block_bytes(), 256 + 8192 + 16384);
        a.release(c);
        // The 256-byte block waits on its own list for the next small chunk.
        let again = a.alloc(16384, 10, 0).unwrap();
        assert_eq!(again.data.as_ptr(), small);
        assert_eq!(a.block_bytes(), 256 + 8192 + 16384);
    }

    #[test]
    fn one_off_sizes_share_power_of_two_blocks() {
        let mut a = Arena::new(1 << 20);
        let c = a.alloc_pow2(16_385, 3).unwrap();
        assert_eq!(
            (c.size(), c.capacity(), c.start_offset),
            (16_385, 32_768, 3)
        );
        assert_eq!(a.used(), 16_385);
        a.release(c);
        // A different size of the same class takes the parked block.
        let c = a.alloc_pow2(20_000, 0).unwrap();
        assert_eq!(a.block_bytes(), 32_768);
        a.release(c);
        // Small ones share the classes the assembler draws from.
        let c = a.alloc_pow2(1, 0).unwrap();
        assert_eq!((c.size(), c.capacity()), (1, MIN_CLASS));
        a.release(c);
        let c = a.alloc(16_384, 10, 0).unwrap();
        assert_eq!(a.block_bytes(), 32_768 + MIN_CLASS);
        a.release(c);
        assert_eq!(a.used(), 0);
    }

    #[test]
    #[should_panic(expected = "logical size")]
    fn a_chunk_does_not_grow_past_its_logical_size() {
        let mut a = Arena::new(1 << 20);
        let mut c = a.alloc(1000, 10, 0).unwrap();
        a.grow(&mut c, 1001);
    }

    #[test]
    #[should_panic(expected = "chunk block overflow")]
    fn writes_do_not_outgrow_the_block() {
        let mut a = Arena::new(1 << 20);
        let mut c = a.alloc(16384, 10, 0).unwrap();
        c.extend_from_slice(&[0; 257]);
    }

    #[test]
    fn chunk_buf_accessors() {
        let mut a = Arena::new(1 << 16);
        let mut c = a.alloc(100, 3, 7).unwrap();
        c.extend_from_slice(b"abc");
        assert_eq!(c.bytes(), b"abc");
        assert_eq!((c.len(), c.room(), c.size()), (3, 97, 100));
        // A logical size below the smallest class is its own block.
        assert_eq!(c.capacity(), 100);
    }

    #[test]
    fn reserved_bytes_squeeze_the_budget() {
        let mut a = Arena::new(10_000);
        a.set_reserved(7_000);
        assert!((a.used_fraction() - 0.7).abs() < 1e-9);
        assert!(a.alloc(4096, 4096, 0).is_err());
        let c = a.alloc(2048, 2048, 0).unwrap();
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
        assert!(a.alloc(1, 1, 0).is_err());
    }
}
