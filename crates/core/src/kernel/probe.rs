//! The flow-probe stage: the per-core flow tables, the kernel-side state
//! of every live stream at its record's pool slot, and the capture-wide
//! uid space. One probe per packet resolves record and state together;
//! the later stages mutate both in place through the [`CoreFlows`] the
//! burst loop lends them.

use super::hw::FilterState;
use super::ledger::Ledger;
use crate::event::{PacketRecord, StreamUid};
use scap_fastpath::HashedKey;
use scap_flow::table::TableFull;
use scap_flow::{FlowTable, FlowTableConfig, SideTable, StreamId, StreamRecord};
use scap_memory::{ChunkAssembler, ChunkBuf};
use scap_reassembly::TcpConn;
use scap_telemetry::pulse::cost;
use scap_telemetry::{cycles_to_ns, Metric, PulseStage};
use scap_wire::Direction;
use std::collections::HashMap;
use std::hint::black_box;

/// Per-stream kernel-side state (parallel to the flow record).
pub(crate) struct StreamKState {
    pub(super) uid: StreamUid,
    /// Allocated on the first TCP segment, so that UDP streams, and the
    /// empty side-table slots under TIME_WAIT tombstones, do not carry it.
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

/// One core's flow table and the state of its live streams; the flow
/// probe's `StreamId` indexes both, nothing is hashed twice.
pub(crate) struct CoreFlows {
    pub(super) flows: FlowTable,
    pub(super) kstates: SideTable<StreamKState>,
}

impl CoreFlows {
    /// A stream's state and record, borrowed side by side.
    #[inline]
    pub(super) fn stream_mut(
        &mut self,
        id: StreamId,
    ) -> (Option<&mut StreamKState>, Option<&mut StreamRecord>) {
        (self.kstates.get_mut(id), self.flows.get_mut(id))
    }
}

/// The slots and access-list neighbours [`CoreFlows::stage`] carries from
/// one sweep to the next, kept between bursts.
#[derive(Default)]
pub(crate) struct StageScratch {
    slots: Vec<Option<u32>>,
    links: Vec<u32>,
}

impl CoreFlows {
    /// Read ahead for a burst about to be probed, touched and borrowed
    /// key by key: three sweeps over the burst, each issuing for every
    /// key the loads the next sweep's addresses come from, so that the
    /// cache misses of different flows are in flight together instead of
    /// one packet's chain after another's. Loads only (`scap_flow`'s
    /// "Staging a burst"): the per-packet pass that follows does and
    /// counts exactly what it would have without this.
    pub(super) fn stage(&self, hashed: &[Option<HashedKey>], scratch: &mut StageScratch) {
        let StageScratch { slots, links } = scratch;
        slots.clear();
        links.clear();
        // Index lines → the slot each key will resolve to.
        slots.extend(trains(hashed).map(|hk| self.flows.stage_probe(hk.hash)));
        // Record and kernel state at that slot → its list neighbours.
        for (hk, slot) in trains(hashed).zip(slots.iter()) {
            let Some(slot) = *slot else { continue };
            let neighbours = self.flows.stage_record(slot, &hk.canon);
            links.extend(neighbours.into_iter().flatten());
            if let Some(ks) = self.kstates.stage(slot as usize) {
                let offsets = ks
                    .asm
                    .each_ref()
                    .map(|a| a.as_ref().map(|a| a.stream_offset()));
                black_box((ks.uid, offsets));
            }
        }
        // The neighbours' links, which the touch rewrites.
        for &slot in links.iter() {
            self.flows.stage_links(slot);
        }
    }
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
    pub(super) cores: Vec<CoreFlows>,
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
            .map(|i| CoreFlows {
                flows: FlowTable::new(FlowTableConfig::default(), 0x5CA9_0000 + i as u64),
                kstates: SideTable::new(),
            })
            .collect();
        FlowProbe {
            cores,
            uid_index: HashMap::new(),
            uid_counter: 0,
            lookups: 0,
            stage_scratch: StageScratch::default(),
        }
    }

    /// [`CoreFlows::stage`] for `core`, with the probe's own scratch.
    pub(super) fn stage(&mut self, core: usize, hashed: &[Option<HashedKey>]) {
        self.cores[core].stage(hashed, &mut self.stage_scratch);
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
        let flows = &mut self.cores[core].flows;
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
        self.cores[core].kstates.insert(id, StreamKState::new(uid));
        self.uid_index.insert(uid, (core, id));
        uid
    }

    /// Install a restored stream's kernel state under the uid it carries.
    pub(super) fn adopt(&mut self, core: usize, id: StreamId, ks: StreamKState) {
        self.uid_index.insert(ks.uid, (core, id));
        self.cores[core].kstates.insert(id, ks);
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
        self.cores[core].flows.get_mut(id)
    }

    /// The kernel state behind a live uid.
    pub(super) fn state_mut(&mut self, uid: StreamUid) -> Option<&mut StreamKState> {
        let (core, id) = self.resolve(uid)?;
        self.cores[core].kstates.get_mut(id)
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
