//! Per-direction chunk assembly.
//!
//! In-order payload (the reassembly engine's output) is copied once,
//! directly into the stream's current block. When a block fills, the
//! chunk is complete and handed to the caller for event delivery; a new
//! block is allocated for the remainder. Supports the `overlap` parameter
//! (the last N bytes of a completed chunk are replayed at the head of the
//! next one, for patterns spanning chunk boundaries) and explicit flushes
//! (flush timeout, stream termination, cutoff).

use crate::arena::{Arena, ChunkBuf, OutOfMemory};

/// Assembles one direction of one stream into chunks.
#[derive(Debug)]
pub struct ChunkAssembler {
    chunk_size: usize,
    overlap: usize,
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
        assert!(chunk_size > 0);
        assert!(overlap < chunk_size, "overlap must be smaller than chunk");
        ChunkAssembler {
            chunk_size,
            overlap,
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
        assert!(chunk_size > 0);
        assert!(overlap < chunk_size, "overlap must be smaller than chunk");
        assert!(pending.len() <= chunk_size);
        assert!(committed >= pending.len() as u64);
        let mut asm = ChunkAssembler {
            chunk_size,
            overlap,
            cur: None,
            written: committed,
            bytes_copied: 0,
            chunks_completed: 0,
        };
        if !pending.is_empty() {
            let mut cur = arena.alloc(chunk_size, committed - pending.len() as u64)?;
            cur.extend_from_slice(pending);
            asm.cur = Some(cur);
        }
        Ok(asm)
    }

    /// Change the chunk geometry; takes effect at the next block
    /// allocation (`scap_set_stream_parameter` semantics: "the next
    /// invocation of the callback").
    pub fn set_geometry(&mut self, chunk_size: usize, overlap: usize) {
        assert!(chunk_size > 0);
        assert!(overlap < chunk_size);
        self.chunk_size = chunk_size;
        self.overlap = overlap;
    }

    /// Current chunk size.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
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
        while !data.is_empty() {
            if self.cur.is_none() {
                self.cur = Some(arena.alloc(self.chunk_size, self.written)?);
            }
            let cur = self.cur.as_mut().expect("just ensured");
            let take = data.len().min(cur.room());
            cur.extend_from_slice(&data[..take]);
            self.bytes_copied += take as u64;
            self.written += take as u64;
            data = &data[take..];
            if cur.room() == 0 {
                let full = self.cur.take().expect("full chunk present");
                // Start the next chunk with the overlap tail of this one.
                if self.overlap > 0 {
                    let tail_start = full.len() - self.overlap;
                    let mut next = arena
                        .alloc(self.chunk_size, full.start_offset + tail_start as u64)
                        .inspect_err(|_| {
                            // Deliver the full chunk even if the next block
                            // could not be allocated.
                        });
                    match next.as_mut() {
                        Ok(next_buf) => {
                            next_buf.extend_from_slice(&full.bytes()[tail_start..]);
                            self.bytes_copied += self.overlap as u64;
                            self.cur = Some(next.unwrap());
                        }
                        Err(_) => {
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
}
