//! Per-direction chunk assembly.
//!
//! In-order payload (the reassembly engine's output) is copied once,
//! directly into the stream's current chunk. When the chunk reaches its
//! size, it is complete and handed to the caller for event delivery; a
//! new chunk is allocated for the remainder. A chunk's first block is
//! the class of its first append, or of the block the direction's
//! previous chunk reached if that is larger, and an append the block
//! cannot hold grows it through the arena. Supports the `overlap` parameter
//! (the last N bytes of a completed chunk are replayed at the head of the
//! next one, for patterns spanning chunk boundaries) and explicit flushes
//! (flush timeout, stream termination, cutoff).

use crate::arena::{Arena, ChunkBuf, OutOfMemory};

/// Assembles one direction of one stream into chunks.
#[derive(Debug)]
pub struct ChunkAssembler {
    chunk_size: u32,
    overlap: u32,
    /// Block class the previous chunk reached: the next one starts there.
    class: u32,
    cur: Option<ChunkBuf>,
    /// Stream offset of the next byte to be written.
    written: u64,
    /// Total payload bytes copied into blocks (cost-model input).
    pub bytes_copied: u64,
    /// Chunks completed (filled or flushed).
    pub chunks_completed: u64,
}

impl ChunkAssembler {
    /// A new assembler with the stream's chunk size and overlap.
    pub fn new(chunk_size: usize, overlap: usize) -> Self {
        let (chunk_size, overlap) = geometry(chunk_size, overlap);
        ChunkAssembler {
            chunk_size,
            overlap,
            class: 0,
            cur: None,
            written: 0,
            bytes_copied: 0,
            chunks_completed: 0,
        }
    }

    /// Stream offset of the next byte (how much has been assembled).
    pub fn stream_offset(&self) -> u64 {
        self.written
    }

    /// The bytes buffered in the partial chunk, if any (checkpointing:
    /// they are part of the committed offset but not yet emitted).
    pub fn pending_bytes(&self) -> &[u8] {
        self.cur.as_ref().map_or(&[], |c| c.bytes())
    }

    /// Rebuild an assembler mid-stream after a warm restart: the next
    /// byte to write is `committed`, and `pending` (possibly empty) is
    /// the partial-chunk content that was buffered at checkpoint time.
    /// `committed` includes the pending bytes, so the restored partial
    /// chunk starts at `committed - pending.len()`.
    pub fn resume(
        arena: &mut Arena,
        chunk_size: usize,
        overlap: usize,
        committed: u64,
        pending: &[u8],
    ) -> Result<Self, OutOfMemory> {
        assert!(pending.len() <= chunk_size);
        assert!(committed >= pending.len() as u64);
        let mut asm = ChunkAssembler {
            written: committed,
            ..ChunkAssembler::new(chunk_size, overlap)
        };
        if !pending.is_empty() {
            let start = committed - pending.len() as u64;
            let mut cur = arena.alloc(chunk_size, pending.len(), start)?;
            cur.extend_from_slice(pending);
            asm.cur = Some(cur);
        }
        Ok(asm)
    }

    /// Change the chunk geometry; takes effect at the next block
    /// allocation (`scap_set_stream_parameter` semantics: "the next
    /// invocation of the callback").
    pub fn set_geometry(&mut self, chunk_size: usize, overlap: usize) {
        (self.chunk_size, self.overlap) = geometry(chunk_size, overlap);
    }

    /// Current chunk size.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size as usize
    }

    /// True when a partial chunk is buffered.
    pub fn has_pending(&self) -> bool {
        self.cur.as_ref().is_some_and(|c| !c.is_empty())
    }

    /// Bytes currently buffered in the partial chunk.
    pub fn pending_len(&self) -> usize {
        self.cur.as_ref().map_or(0, ChunkBuf::len)
    }

    /// Append in-order payload. Completed chunks are pushed to `out`.
    ///
    /// On arena exhaustion the already-appended prefix stays; the caller
    /// treats the remainder as a dropped packet (and PPL accounting takes
    /// over).
    pub fn append(
        &mut self,
        arena: &mut Arena,
        mut data: &[u8],
        out: &mut Vec<ChunkBuf>,
    ) -> Result<(), OutOfMemory> {
        let (chunk_size, overlap) = (self.chunk_size as usize, self.overlap as usize);
        while !data.is_empty() {
            let cur = match self.cur.as_mut() {
                Some(cur) => cur,
                None => {
                    let fill = data.len().max(self.class as usize);
                    self.cur
                        .insert(arena.alloc(chunk_size, fill, self.written)?)
                }
            };
            let take = data.len().min(cur.room());
            if cur.len() + take > cur.capacity() {
                arena.grow(cur, cur.len() + take);
            }
            cur.extend_from_slice(&data[..take]);
            self.bytes_copied += take as u64;
            self.written += take as u64;
            data = &data[take..];
            if cur.room() == 0 {
                let full = self.cur.take().expect("full chunk present");
                self.class = full.capacity() as u32;
                // Start the next chunk with the overlap tail of this one.
                if overlap > 0 {
                    let tail_start = full.len() - overlap;
                    let next_start = full.start_offset + tail_start as u64;
                    match arena.alloc(chunk_size, full.capacity(), next_start) {
                        Ok(mut next) => {
                            next.extend_from_slice(&full.bytes()[tail_start..]);
                            self.bytes_copied += overlap as u64;
                            self.cur = Some(next);
                        }
                        Err(_) => {
                            // Deliver the full chunk even if the next one
                            // could not be allocated.
                            self.chunks_completed += 1;
                            out.push(full);
                            return Err(OutOfMemory);
                        }
                    }
                }
                self.chunks_completed += 1;
                out.push(full);
            }
        }
        Ok(())
    }

    /// Record a reassembly error in the chunk under construction (fast
    /// mode sets a flag on the chunk that had holes).
    pub fn mark_error(&mut self) {
        if let Some(c) = self.cur.as_mut() {
            c.had_error = true;
        }
    }

    /// Flush the partial chunk (flush timeout, cutoff, or termination).
    /// Returns `None` when nothing is buffered.
    pub fn flush(&mut self) -> Option<ChunkBuf> {
        let c = self.cur.take()?;
        self.class = c.capacity() as u32;
        if c.is_empty() {
            // An empty block (e.g. only overlap bytes pending with
            // overlap = 0) is not worth an event; the caller releases it.
            return Some(c);
        }
        self.chunks_completed += 1;
        Some(c)
    }

    /// Give back the in-progress block without emitting it (stream is
    /// being force-evicted; its partial data is discarded).
    pub fn abandon(&mut self, arena: &mut Arena) {
        if let Some(c) = self.cur.take() {
            arena.release(c);
        }
    }
}

/// A chunk geometry as the assembler stores it.
fn geometry(chunk_size: usize, overlap: usize) -> (u32, u32) {
    assert!(chunk_size > 0);
    assert!(overlap < chunk_size, "overlap must be smaller than chunk");
    let chunk_size = u32::try_from(chunk_size).expect("chunk size fits in 32 bits");
    (chunk_size, overlap as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn arena() -> Arena {
        Arena::new(1 << 22)
    }

    #[test]
    fn exact_multiple_fills_exactly() {
        let mut a = arena();
        let mut asm = ChunkAssembler::new(1024, 0);
        let mut out = Vec::new();
        asm.append(&mut a, &[1u8; 2048], &mut out).unwrap();
        assert_eq!(out.len(), 2);
        assert!(!asm.has_pending());
        assert_eq!(asm.stream_offset(), 2048);
        assert_eq!(out[0].start_offset, 0);
        assert_eq!(out[1].start_offset, 1024);
    }

    #[test]
    fn partial_chunk_flushes() {
        let mut a = arena();
        let mut asm = ChunkAssembler::new(1024, 0);
        let mut out = Vec::new();
        asm.append(&mut a, &[9u8; 100], &mut out).unwrap();
        assert!(out.is_empty());
        assert_eq!(asm.pending_len(), 100);
        let c = asm.flush().unwrap();
        assert_eq!(c.len(), 100);
        assert_eq!(c.bytes(), &[9u8; 100][..]);
        assert!(asm.flush().is_none());
    }

    #[test]
    fn overlap_replays_tail_bytes() {
        let mut a = arena();
        let mut asm = ChunkAssembler::new(8, 3);
        let mut out = Vec::new();
        let data: Vec<u8> = (0u8..16).collect();
        asm.append(&mut a, &data, &mut out).unwrap();
        // First chunk: bytes 0..8. Second chunk begins with bytes 5..8
        // (the 3-byte overlap), then 8..13 fills it to 8 bytes.
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].bytes(), &[0, 1, 2, 3, 4, 5, 6, 7][..]);
        assert_eq!(out[1].bytes(), &[5, 6, 7, 8, 9, 10, 11, 12][..]);
        assert_eq!(out[1].start_offset, 5);
        let tail = asm.flush().unwrap();
        assert_eq!(tail.bytes(), &[10, 11, 12, 13, 14, 15][..]);
    }

    #[test]
    fn content_is_preserved_across_chunks() {
        let mut a = arena();
        let mut asm = ChunkAssembler::new(100, 0);
        let mut out = Vec::new();
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for piece in data.chunks(37) {
            asm.append(&mut a, piece, &mut out).unwrap();
        }
        if let Some(t) = asm.flush() {
            out.push(t);
        }
        let reassembled: Vec<u8> = out.iter().flat_map(|c| c.bytes().to_vec()).collect();
        assert_eq!(reassembled, data);
    }

    #[test]
    fn error_flag_travels_with_chunk() {
        let mut a = arena();
        let mut asm = ChunkAssembler::new(64, 0);
        let mut out = Vec::new();
        asm.append(&mut a, &[1u8; 10], &mut out).unwrap();
        asm.mark_error();
        asm.append(&mut a, &[2u8; 54], &mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].had_error);
    }

    #[test]
    fn arena_exhaustion_reported() {
        let mut a = Arena::new(128);
        let mut asm = ChunkAssembler::new(128, 0);
        let mut out = Vec::new();
        // First block fits; the second allocation must fail.
        assert!(asm.append(&mut a, &[0u8; 200], &mut out).is_err());
        // The full first chunk was still delivered.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len(), 128);
    }

    #[test]
    fn a_direction_starts_each_chunk_at_the_class_the_last_one_reached() {
        let mut a = arena();
        let mut asm = ChunkAssembler::new(16 << 10, 0);
        let mut out = Vec::new();
        // A bulk direction grows its first chunk 2 → 4 → 8 → 16 KiB, once.
        for _ in 0..60 {
            asm.append(&mut a, &[1; 1460], &mut out).unwrap();
            for c in out.drain(..) {
                assert_eq!(c.capacity(), 16 << 10);
                a.release(c);
            }
        }
        assert_eq!((asm.chunks_completed, a.grows), (5, 3));
        // From then on its chunks start full-size, a flushed tail's too.
        let tail = asm.flush().unwrap();
        a.release(tail);
        asm.append(&mut a, &[2; 200], &mut out).unwrap();
        assert_eq!(asm.flush().unwrap().capacity(), 16 << 10);
        // A direction of small segments starts where its last chunk
        // ended, not smaller.
        let mut small = ChunkAssembler::new(16 << 10, 0);
        small.append(&mut a, &[3; 200], &mut out).unwrap();
        small.append(&mut a, &[3; 200], &mut out).unwrap();
        assert_eq!((small.flush().unwrap().capacity(), a.grows), (512, 4));
        small.append(&mut a, &[4; 100], &mut out).unwrap();
        assert_eq!((small.flush().unwrap().capacity(), a.grows), (512, 4));
    }

    #[test]
    fn abandon_releases_block() {
        let mut a = arena();
        let used_before = a.used();
        let mut asm = ChunkAssembler::new(1024, 0);
        let mut out = Vec::new();
        asm.append(&mut a, &[5u8; 10], &mut out).unwrap();
        assert!(a.used() > used_before);
        asm.abandon(&mut a);
        assert_eq!(a.used(), used_before);
        assert!(!asm.has_pending());
    }

    proptest! {
        /// Reassembled content equals input for arbitrary chunk sizes,
        /// overlaps, and write granularities.
        #[test]
        fn roundtrip_any_geometry(
            chunk_size in 8usize..200,
            overlap in 0usize..7,
            data in proptest::collection::vec(any::<u8>(), 0..2000),
            granularity in 1usize..97,
        ) {
            prop_assume!(overlap < chunk_size);
            let mut a = Arena::new(1 << 22);
            let mut asm = ChunkAssembler::new(chunk_size, overlap);
            let mut out = Vec::new();
            for piece in data.chunks(granularity) {
                asm.append(&mut a, piece, &mut out).unwrap();
            }
            if let Some(t) = asm.flush() {
                if !t.is_empty() { out.push(t); }
            }
            // Strip each chunk's overlap prefix (except the first) and
            // concatenate: must equal the input.
            let mut got = Vec::new();
            for c in &out {
                let skip = (got.len() as u64).saturating_sub(c.start_offset) as usize;
                prop_assert!(skip <= c.len());
                got.extend_from_slice(&c.bytes()[skip..]);
            }
            prop_assert_eq!(got, data);
        }
    }

    /// One system under the differential test: an arena, its streams
    /// and the chunks delivered but not yet released.
    struct System {
        arena: Arena,
        streams: Vec<ChunkAssembler>,
        delivered: Vec<ChunkBuf>,
    }

    impl System {
        fn new(arena: Arena, geometry: &[(usize, usize)]) -> Self {
            let streams = geometry
                .iter()
                .map(|&(chunk, overlap)| ChunkAssembler::new(chunk, overlap))
                .collect();
            System {
                arena,
                streams,
                delivered: Vec::new(),
            }
        }

        /// Apply one step; the result is what an append or a resume
        /// returned.
        fn step(&mut self, op: u8, s: usize, data: &[u8], arg: usize) -> Result<(), OutOfMemory> {
            let arena = &mut self.arena;
            let asm = &mut self.streams[s];
            match op {
                0..=3 => return asm.append(arena, data, &mut self.delivered),
                4 => match asm.flush() {
                    Some(c) if !c.is_empty() => self.delivered.push(c),
                    Some(empty) => arena.release(empty),
                    None => {}
                },
                5 => asm.abandon(arena),
                6 => {
                    let (committed, pending) = (asm.stream_offset(), asm.pending_bytes().to_vec());
                    let (chunk, overlap) = (asm.chunk_size(), asm.overlap as usize);
                    asm.abandon(arena);
                    *asm = ChunkAssembler::resume(arena, chunk, overlap, committed, &pending)?;
                }
                7 => asm.mark_error(),
                _ => {
                    // Release delivered chunks, oldest first.
                    let n = arg.min(self.delivered.len());
                    for c in self.delivered.drain(..n) {
                        arena.release(c);
                    }
                }
            }
            Ok(())
        }

        /// Both systems delivered the same chunks and hold the same
        /// streams, and their budgets agree.
        fn agrees(&self, other: &System) -> bool {
            fn chunk(c: &ChunkBuf) -> (&[u8], u64, bool) {
                (c.bytes(), c.start_offset, c.had_error)
            }
            fn stream(a: &ChunkAssembler) -> (&[u8], [u64; 3]) {
                let counters = [a.stream_offset(), a.bytes_copied, a.chunks_completed];
                (a.pending_bytes(), counters)
            }
            let budget = |a: &Arena| (a.used(), a.peak_used, a.failures);
            self.delivered
                .iter()
                .map(chunk)
                .eq(other.delivered.iter().map(chunk))
                && self
                    .streams
                    .iter()
                    .map(stream)
                    .eq(other.streams.iter().map(stream))
                && budget(&self.arena) == budget(&other.arena)
        }

        /// No block is larger than its chunk.
        fn blocks_fit(&self) -> bool {
            let pending = self.streams.iter().filter_map(|a| a.cur.as_ref());
            (self.delivered.iter().chain(pending)).all(|c| c.capacity() <= c.size())
        }
    }

    /// A chunk size: 1, below the smallest class, a power of two, or not.
    fn chunk_size_of(kind: u8, x: u16) -> usize {
        let x = usize::from(x);
        match kind % 5 {
            0 => 1,
            1 => 2 + x % 254,
            2 => 257 + x % 20_000,
            3 => 256 << (x % 7),
            _ => 16 << 10,
        }
    }

    proptest! {
        /// Right-sized blocks change nothing a caller or the budget can
        /// see: the same steps through an arena of full-size blocks emit
        /// the same chunks and leave the same counters and accounting.
        #[test]
        fn right_sized_blocks_match_full_size_blocks(
            geometry in proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 1..4),
            budget_kind in 0u8..3,
            budget_x: u16,
            ops in proptest::collection::vec((0u8..10, any::<u8>(), any::<u16>(), any::<u8>()), 1..160),
        ) {
            let geometry: Vec<(usize, usize)> = (geometry.iter())
                .map(|&(kind, x, o)| {
                    let chunk = chunk_size_of(kind, x);
                    // Half the streams replay an overlap.
                    (chunk, if o % 2 == 0 { 0 } else { usize::from(o / 2) % chunk })
                })
                .collect();
            let largest = geometry.iter().map(|g| g.0).max().unwrap();
            let budget = match budget_kind {
                0 => 1 << 30,
                1 => largest * (1 + usize::from(budget_x) % 6),
                _ => 1 + usize::from(budget_x) % (4 * largest),
            };
            let mut sized = System::new(Arena::new(budget), &geometry);
            let mut full = System::new(Arena::with_full_blocks(budget), &geometry);
            let pattern: Vec<u8> = (0..1u32 << 17).map(|i| (i % 251) as u8).collect();
            for &(op, pick, x, arg) in &ops {
                let s = usize::from(pick) % geometry.len();
                let (chunk, pending) = (geometry[s].0, sized.streams[s].pending_len());
                // Appends end just below, at and just past every class
                // boundary of the chunk, or anywhere up to two chunks on.
                let classes = (8..15).map(|b| 1usize << b).filter(|&c| c < chunk);
                let boundary = classes.chain([chunk]).cycle().nth(usize::from(x) % 8).unwrap();
                let len = match arg % 4 {
                    0 => (boundary + usize::from(x % 3)).saturating_sub(pending + 1),
                    1 => 1 + usize::from(x) % (2 * chunk + 1),
                    2 => 200,
                    _ => 1 + usize::from(x % 64),
                }
                .max(1);
                let data = &pattern[usize::from(x)..][..len];
                let got = sized.step(op, s, data, usize::from(arg % 8));
                let want = full.step(op, s, data, usize::from(arg % 8));
                prop_assert_eq!(got, want, "op {} on stream {}", op, s);
                prop_assert!(sized.agrees(&full), "op {} on stream {}", op, s);
                prop_assert!(sized.blocks_fit());
            }
        }
    }

    /// One round of mixed stream lifecycles: a quarter of the streams are
    /// bulk (1,460-byte segments over several chunks), the rest send one
    /// to three 200-byte segments; streams open staggered, and delivered
    /// chunks are released sixteen behind. Returns the most physical
    /// bytes any chunk held beyond its logical size (0 when blocks fit).
    fn lifecycle_round(arena: &mut Arena) -> usize {
        const GEOMETRY: [(usize, usize); 4] = [(16 << 10, 0), (1000, 0), (4096, 100), (300, 0)];
        let mut streams: Vec<(ChunkAssembler, usize)> = (0..48)
            .map(|i| {
                let (chunk, overlap) = GEOMETRY[i / 4 % GEOMETRY.len()];
                let bytes = if i % 4 == 0 {
                    2 * chunk + 1460 * (i % 5) + 7
                } else {
                    200 * (1 + i % 3)
                };
                (ChunkAssembler::new(chunk, overlap), bytes)
            })
            .collect();
        let (mut out, mut held) = (Vec::new(), std::collections::VecDeque::new());
        let mut excess = 0;
        for step in 0.. {
            let mut active = 0;
            for (i, (asm, left)) in streams.iter_mut().enumerate() {
                if i / 2 > step || *left == 0 {
                    continue;
                }
                active += 1;
                let seg = if i % 4 == 0 { 1460 } else { 200 };
                let n = seg.min(*left);
                asm.append(arena, &vec![i as u8; n], &mut out).unwrap();
                *left -= n;
                if *left == 0 {
                    out.extend(asm.flush());
                }
                let over = |c: &ChunkBuf| c.capacity().saturating_sub(c.size());
                excess = (asm.cur.iter().chain(&out))
                    .map(over)
                    .fold(excess, usize::max);
                held.extend(out.drain(..));
                while held.len() > 16 {
                    arena.release(held.pop_front().unwrap());
                }
            }
            if active == 0 && step > streams.len() {
                break;
            }
        }
        for c in held {
            arena.release(c);
        }
        excess
    }

    #[test]
    fn free_lists_stay_bounded_over_replayed_stream_lifecycles() {
        let mut arena = Arena::new(1 << 30);
        let mut made = Vec::new();
        for _ in 0..20 {
            assert_eq!(lifecycle_round(&mut arena), 0, "a block outgrew its chunk");
            assert_eq!(arena.used(), 0);
            made.push(arena.block_bytes());
        }
        // The first round's blocks serve every later one.
        assert!(made.iter().all(|&b| b == made[0]), "{made:?}");
        // And they are fewer bytes than full-size blocks take.
        let mut full = Arena::with_full_blocks(1 << 30);
        lifecycle_round(&mut full);
        assert!(
            made[0] < full.block_bytes(),
            "{} vs {}",
            made[0],
            full.block_bytes()
        );
    }
}
