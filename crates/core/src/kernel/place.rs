//! The placement stage: stream memory. It owns the chunk arena and the
//! per-core flush timers; payload is placed into a stream's chunk
//! assembler through a [`Placement`], and a partial chunk leaves by
//! timer or tail flush.

use super::ledger::Ledger;
use crate::config::ScapConfig;
use scap_faults::ArenaInjector;
use scap_flow::StreamId;
use scap_memory::{Arena, ChunkAssembler, ChunkBuf};
use scap_telemetry::Metric;
use scap_wire::Direction;
use std::collections::VecDeque;

/// What placing one packet's payload produced.
#[derive(Default)]
pub(super) struct Placement {
    /// Chunks the payload filled.
    pub completed: Vec<ChunkBuf>,
    /// The arena refused a chunk.
    pub oom: bool,
    /// Stream offset of the first byte handed over.
    pub first_off: Option<u64>,
}

impl Placement {
    /// Append in-order payload at stream offset `off`, up to `cap`.
    #[inline]
    pub(super) fn put(
        &mut self,
        arena: &mut Arena,
        asm: &mut ChunkAssembler,
        cap: u64,
        off: u64,
        data: &[u8],
    ) {
        self.first_off.get_or_insert(off);
        if off >= cap {
            return;
        }
        let allowed = ((cap - off) as usize).min(data.len());
        let appended = asm.append(arena, &data[..allowed], &mut self.completed);
        self.oom |= appended.is_err();
    }
}

pub(crate) struct Placer {
    pub(super) arena: Arena,
    /// Arena pressure-spike injection (None without a fault plan).
    pub(super) arena_faults: Option<ArenaInjector>,
    /// Per core: (deadline, stream, dir, chunk offset when armed).
    flush_timers: Vec<VecDeque<(u64, StreamId, Direction, u64)>>,
}

impl Placer {
    pub(super) fn new(cfg: &ScapConfig, ncores: usize) -> Self {
        let faults = cfg.faults.as_ref();
        Placer {
            arena: Arena::new(cfg.memory_bytes),
            arena_faults: faults.map(|plan| plan.arena_injector(cfg.memory_bytes as u64)),
            flush_timers: vec![VecDeque::new(); ncores],
        }
    }

    /// Close the assembler's partial chunk into `completed`; an empty
    /// one goes straight back to the arena.
    #[inline]
    pub(super) fn flush_tail(&mut self, asm: &mut ChunkAssembler, completed: &mut Vec<ChunkBuf>) {
        match asm.flush() {
            Some(tail) if !tail.is_empty() => completed.push(tail),
            Some(empty) => self.arena.release(empty),
            None => {}
        }
    }

    /// Arm a flush timer for a stream's partial chunk, `offset` bytes in.
    #[inline]
    pub(super) fn arm_flush(
        &mut self,
        core: usize,
        due: u64,
        id: StreamId,
        dir: Direction,
        offset: u64,
    ) {
        self.flush_timers[core].push_back((due, id, dir, offset));
    }

    /// The next flush timer of `core` that has come due.
    pub(super) fn due_flush(
        &mut self,
        core: usize,
        now: u64,
    ) -> Option<(StreamId, Direction, u64)> {
        let timers = &mut self.flush_timers[core];
        let &(deadline, id, dir, armed_offset) = timers.front()?;
        if deadline > now {
            return None;
        }
        timers.pop_front();
        Some((id, dir, armed_offset))
    }

    /// Concatenate a kept chunk with its successor into one larger chunk.
    /// The budget charges their total; the block is the power-of-two
    /// class that holds it, so a merged block goes back to a free list
    /// later merges and chunks draw from.
    pub(super) fn merge(
        &mut self,
        ledger: &mut Ledger,
        core: usize,
        kept: ChunkBuf,
        next: ChunkBuf,
    ) -> ChunkBuf {
        let total = kept.len() + next.len();
        match self.arena.alloc_pow2(total.max(1), kept.start_offset) {
            Ok(mut merged) => {
                merged.extend_from_slice(kept.bytes());
                merged.extend_from_slice(next.bytes());
                merged.had_error = kept.had_error || next.had_error;
                ledger
                    .tele
                    .add(core, Metric::KernelBytesCopied, total as u64);
                self.arena.release(kept);
                self.arena.release(next);
                merged
            }
            Err(_) => {
                // No memory to merge: deliver the newer chunk unmerged.
                self.arena.release(kept);
                next
            }
        }
    }

    /// Injected arena pressure spikes squeeze the budget.
    pub(super) fn apply_pressure_faults(&mut self, now: u64) {
        if let Some(inj) = self.arena_faults.as_mut() {
            let reserved = inj.reserved_at(now);
            self.arena.set_reserved(reserved as usize);
        }
    }

    #[cfg(test)]
    pub(super) fn armed_flush_timers(&self, core: usize) -> usize {
        self.flush_timers[core].len()
    }
}
