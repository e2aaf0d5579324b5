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
use scap_wire::Direction;
use std::collections::HashMap;
use std::hint::black_box;

/// Per-stream kernel-side state (in the flow record's slot).
pub(crate) struct StreamKState {
    pub(super) uid: StreamUid,
    /// Allocated on the first TCP segment, so that UDP streams do not
    /// carry it.
    pub(super) conn: Option<Box<TcpConn>>,
    pub(super) asm: [Option<ChunkAssembler>; 2],
    pub(super) pkt_records: [Vec<PacketRecord>; 2],
    pub(super) flush_armed: [bool; 2],
    /// NIC filter bookkeeping, written by the hardware-cutoff stage only.
    pub(super) hw: FilterState,
    /// Chunks held back by `scap_keep_stream_chunk` for merging.
    pub(super) kept: [Option<ChunkBuf>; 2],
}

impl StreamKState {
    pub(super) fn new(uid: StreamUid) -> Self {
        StreamKState {
            uid,
            conn: None,
            asm: [None, None],
            pkt_records: [Vec::new(), Vec::new()],
            flush_armed: [false, false],
            hw: FilterState::default(),
            kept: [None, None],
        }
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
    uid_index: HashMap<StreamUid, (usize, StreamId)>,
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
            uid_index: HashMap::new(),
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
                let offsets = ks
                    .asm
                    .each_ref()
                    .map(|a| a.as_ref().map(|a| a.stream_offset()));
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
        // Built in the slot: the state is 360 bytes, and this is the
        // create path of every stream.
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

/// A fresh chunk assembler with the geometry the stream's record carries.
#[inline]
pub(super) fn assembler_for(rec: &StreamRecord) -> ChunkAssembler {
    let chunk = rec.chunk_size.max(1) as usize;
    ChunkAssembler::new(chunk, (rec.overlap as usize).min(chunk - 1))
}
