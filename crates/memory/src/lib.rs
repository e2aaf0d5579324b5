#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # scap-memory
//!
//! The stream memory substrate (§5.3 of the paper):
//!
//! * [`arena`] — the large buffer the kernel module allocates and maps
//!   into user space, modelled as a budgeted block allocator with
//!   per-size-class free lists. The budget charges every open chunk its
//!   full chunk size, and that fill fraction drives overload policy; the
//!   block that holds a chunk's bytes is contiguous and only as large as
//!   its power-of-two class (from 256 bytes up to the chunk size).
//! * [`assembler`] — per-direction chunk assembly: payload is copied
//!   *once* from the frame, directly into the stream's current block (the
//!   paper's core performance argument against user-level reassembly;
//!   the bytes of a chunk whose block grows move once more), with chunk
//!   completion, flush, and inter-chunk overlap.
//! * [`ppl`] — Prioritized Packet Loss (§2.2): the
//!   `base_threshold`/watermark scheme that sheds low-priority packets
//!   and the tails of long streams first under memory pressure.

pub mod arena;
pub mod assembler;
pub mod ppl;

pub use arena::{Arena, ChunkBuf, OutOfMemory};
pub use assembler::ChunkAssembler;
pub use ppl::{PplConfig, PplVerdict};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_quickstart() {
        let mut arena = Arena::new(1 << 20);
        let mut asm = ChunkAssembler::new(4096, 0);
        let mut done = Vec::new();
        asm.append(&mut arena, &[7u8; 10_000], &mut done).unwrap();
        // Two full 4 KB chunks completed; the rest is still assembling.
        assert_eq!(done.len(), 2);
        let tail = asm.flush().unwrap();
        assert_eq!(
            done.iter().map(|c| c.len()).sum::<usize>() + tail.len(),
            10_000
        );
    }
}
