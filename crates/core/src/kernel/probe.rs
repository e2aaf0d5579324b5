//! The flow-probe stage: the per-core flow tables, each slot holding a
//! stream's record and its kernel-side state, and the capture-wide uid
//! space. One probe per packet resolves record and state together; the
//! later stages mutate both in place through the table the burst loop
//! lends them.

use super::hw::FilterState;
use super::ledger::Ledger;
use crate::event::{PacketRecord, StreamUid};
use scap_fastpath::HashedKey;
use scap_flow::table::TableFull;
use scap_flow::{FlowTable, FlowTableConfig, StreamId, StreamRecord};
use scap_memory::{ChunkAssembler, ChunkBuf};
use scap_reassembly::TcpConn;
use scap_telemetry::pulse::cost;
use scap_telemetry::{cycles_to_ns, Metric, PulseStage};
use scap_wire::{Direction, IntMap};
use std::hint::black_box;

/// Per-stream kernel-side state (in the flow record's slot): what every
/// tracked flow needs. What only a stream that carries segments needs
/// sits behind `seg`, allocated when the stream's first TCP segment
/// passes the gate or its first UDP payload is placed — so a header-only
/// flow (a cutoff-0 flow-export flow, a lone SYN) costs this much and no
/// more (DESIGN §9.4).
pub(crate) struct StreamKState {
    pub(super) uid: StreamUid,
    /// NIC filter bookkeeping, written by the hardware-cutoff stage only.
    pub(super) hw: FilterState,
    pub(super) flush_armed: [bool; 2],
    /// The direction's chunk assembler exists. A UDP datagram with
    /// payload opens it before the gate, so a direction the gate turned
    /// away from its first byte has one, standing at offset 0 with
    /// nothing pending, and no box; checkpoint images show it as such.
    pub(super) opened: [bool; 2],
    pub(super) seg: Option<Box<Segments>>,
}

// A slot holds this inline next to the flow record, once per tracked
// flow: growing it is a deliberate decision, not a side effect.
const _: () = assert!(std::mem::size_of::<StreamKState>() <= 64);

/// The state of a stream that carries segments.
pub(crate) struct Segments {
    /// TCP's connection tracker (`None` for UDP).
    pub(super) conn: Option<TcpConn>,
    /// Both directions' assemblers. One its direction has not opened
    /// stands at offset 0 with nothing pending, in the record's geometry:
    /// what opening it would build.
    pub(super) asm: [ChunkAssembler; 2],
    pub(super) pkt_records: [Vec<PacketRecord>; 2],
    /// Chunks held back by `scap_keep_stream_chunk` for merging.
    pub(super) kept: [Option<ChunkBuf>; 2],
}

impl Segments {
    /// Nothing assembled yet, chunks of `chunk` bytes replaying `overlap`.
    pub(super) fn new(chunk: usize, overlap: usize) -> Self {
        Segments {
            conn: None,
            asm: [0, 1].map(|_| ChunkAssembler::new(chunk, overlap)),
            pkt_records: [Vec::new(), Vec::new()],
            kept: [None, None],
        }
    }
}

impl StreamKState {
    pub(super) fn new(uid: StreamUid) -> Self {
        StreamKState {
            uid,
            hw: FilterState::default(),
            flush_armed: [false, false],
            opened: [false, false],
            seg: None,
        }
    }

    /// Stream offset of direction `d`'s next byte.
    #[inline]
    pub(super) fn offset(&self, d: usize) -> u64 {
        self.seg.as_ref().map_or(0, |s| s.asm[d].stream_offset())
    }

    /// The bytes of direction `d`'s partial chunk.
    pub(super) fn pending(&self, d: usize) -> &[u8] {
        self.seg.as_ref().map_or(&[], |s| s.asm[d].pending_bytes())
    }

    /// The box, allocated on first use in the geometry `rec` carries.
    #[inline]
    pub(super) fn segments(&mut self, rec: &StreamRecord) -> &mut Segments {
        self.seg.get_or_insert_with(|| {
            let (chunk, overlap) = geometry(rec);
            Box::new(Segments::new(chunk, overlap))
        })
    }

    /// TCP's connection tracker, once the stream has one.
    pub(super) fn conn(&self) -> Option<&TcpConn> {
        self.seg.as_ref()?.conn.as_ref()
    }
}

/// The slots and access-list neighbours [`FlowProbe::stage`] carries from
/// one sweep to the next, kept between bursts.
#[derive(Default)]
struct StageScratch {
    slots: Vec<Option<u32>>,
    links: Vec<u32>,
}

/// The burst's keys, a train of one flow's packets counted once.
fn trains(hashed: &[Option<HashedKey>]) -> impl Iterator<Item = &HashedKey> {
    let mut last = None;
    hashed
        .iter()
        .flatten()
        .filter(move |hk| last.replace(hk.hash) != Some(hk.hash))
}

/// What one packet's probe found.
pub(crate) struct Probed {
    pub id: StreamId,
    pub dir: Direction,
    /// The packet opened a new flow record.
    pub created: bool,
    /// Ctrl groups walked (at least one) and where the walk began.
    pub probes: u64,
    pub group: u64,
}

pub(crate) struct FlowProbe {
    /// One table per core: record and kernel state share a slot, the
    /// probe's `StreamId` reaches both, nothing is hashed twice.
    pub(super) cores: Vec<FlowTable<StreamKState>>,
    /// Capture-wide uid → (core, id) for control operations.
    uid_index: IntMap<StreamUid, (usize, StreamId)>,
    /// The last uid handed out (checkpointed, so uids stay unique
    /// across a warm restart).
    pub(super) uid_counter: u64,
    /// Flow-table lookups performed (denominator of the mean
    /// probe-length gauge; `Metric::KernelHashProbes` is the numerator).
    pub(super) lookups: u64,
    stage_scratch: StageScratch,
}

impl FlowProbe {
    pub(super) fn new(ncores: usize) -> Self {
        let cores = (0..ncores)
            .map(|i| FlowTable::with_state(FlowTableConfig::default(), 0x5CA9_0000 + i as u64))
            .collect();
        FlowProbe {
            cores,
            uid_index: IntMap::default(),
            uid_counter: 0,
            lookups: 0,
            stage_scratch: StageScratch::default(),
        }
    }

    /// Read ahead in the table of `core` for a burst about to be probed,
    /// touched and borrowed key by key: three sweeps over the burst, each
    /// issuing for every key the loads the next sweep's addresses come
    /// from, so that the cache misses of different flows are in flight
    /// together instead of one packet's chain after another's. Loads only
    /// (`scap_flow`'s "Staging a burst"): the per-packet pass that follows
    /// does and counts exactly what it would have without this.
    pub(super) fn stage(&mut self, core: usize, hashed: &[Option<HashedKey>]) {
        let flows = &self.cores[core];
        let StageScratch { slots, links } = &mut self.stage_scratch;
        slots.clear();
        links.clear();
        // Index lines → the slot each key will resolve to.
        slots.extend(trains(hashed).map(|hk| flows.stage_probe(hk.hash)));
        // Record and kernel state in that slot → its list neighbours.
        for (hk, slot) in trains(hashed).zip(slots.iter()) {
            let Some(slot) = *slot else { continue };
            let neighbours = flows.stage_record(slot, &hk.canon);
            links.extend(neighbours.into_iter().flatten());
            if let Some(ks) = flows.stage_state(slot) {
                let offsets =
                    (ks.seg.as_ref()).map(|s| s.asm.each_ref().map(ChunkAssembler::stream_offset));
                black_box((ks.uid, offsets));
            }
        }
        // The neighbours' links, which the touch rewrites.
        for &slot in links.iter() {
            flows.stage_links(slot);
        }
    }

    /// Look the packet's flow up, or open a record for it, and record the
    /// probe's span and counters. `Err` when the table is at its cap.
    #[inline]
    pub(super) fn probe(
        &mut self,
        ledger: &mut Ledger,
        core: usize,
        hk: &HashedKey,
        now: u64,
    ) -> Result<Probed, TableFull> {
        let flows = &mut self.cores[core];
        let probes_before = flows.probes;
        self.lookups += 1;
        let lookup = flows.lookup_or_insert_prehashed(&hk.canon, hk.dir, hk.hash, now)?;
        let probes = (flows.probes - probes_before).max(1);
        ledger.pulse.record(
            PulseStage::FlowTable,
            cycles_to_ns(cost::flow_table_cycles(probes)),
        );
        ledger.work.k_hash_probes += probes;
        ledger.tele.add(core, Metric::KernelHashProbes, probes);
        Ok(Probed {
            id: lookup.id,
            dir: lookup.direction,
            created: lookup.created,
            probes,
            group: flows.probe_group(hk.hash) as u64,
        })
    }

    /// Give the freshly created record at `id` its uid and kernel state.
    pub(super) fn open(&mut self, core: usize, id: StreamId) -> StreamUid {
        self.uid_counter += 1;
        let uid = self.uid_counter;
        self.cores[core].set_state(id, StreamKState::new(uid));
        self.uid_index.insert(uid, (core, id));
        uid
    }

    /// Install a restored stream's kernel state under the uid it carries.
    pub(super) fn adopt(&mut self, core: usize, id: StreamId, ks: StreamKState) {
        self.uid_index.insert(ks.uid, (core, id));
        self.cores[core].set_state(id, ks);
    }

    /// A stream ended: its uid no longer resolves.
    pub(super) fn close(&mut self, uid: StreamUid) {
        self.uid_index.remove(&uid);
    }

    pub(super) fn resolve(&self, uid: StreamUid) -> Option<(usize, StreamId)> {
        self.uid_index.get(&uid).copied()
    }

    /// The record behind a live uid.
    pub(super) fn record_mut(&mut self, uid: StreamUid) -> Option<&mut StreamRecord> {
        let (core, id) = self.resolve(uid)?;
        self.cores[core].get_mut(id)
    }

    /// The kernel state behind a live uid.
    pub(super) fn state_mut(&mut self, uid: StreamUid) -> Option<&mut StreamKState> {
        let (core, id) = self.resolve(uid)?;
        self.cores[core].state_mut(id)
    }

    /// Every live uid, ascending.
    pub(super) fn uids(&self) -> Vec<StreamUid> {
        let mut uids: Vec<StreamUid> = self.uid_index.keys().copied().collect();
        uids.sort_unstable();
        uids
    }
}

/// The chunk size and overlap the stream's record carries, made valid.
#[inline]
fn geometry(rec: &StreamRecord) -> (usize, usize) {
    let chunk = rec.chunk_size.max(1) as usize;
    (chunk, (rec.overlap as usize).min(chunk - 1))
}
