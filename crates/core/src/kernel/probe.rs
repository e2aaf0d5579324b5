//! The flow-probe stage: the per-core flow tables, each slot holding a
//! stream's record and its kernel-side state, and the capture-wide uid
//! counter. One probe per packet resolves record and state together; the
//! later stages mutate both in place through the table the burst loop
//! lends them. The tables are the only index of streams: a control
//! operation finds its stream by key, then checks the uid.

use super::hw::FDIR_INITIAL_TIMEOUT_NS;
use super::ledger::Ledger;
use crate::config::ScapConfig;
use crate::event::{PacketRecord, StreamRef, StreamUid};
use scap_fastpath::HashedKey;
use scap_flow::table::TableFull;
use scap_flow::{DirStats, FlowTable, FlowTableConfig, StreamId, StreamRecord};
use scap_memory::{ChunkAssembler, ChunkBuf};
use scap_reassembly::TcpConn;
use scap_telemetry::pulse::cost;
use scap_telemetry::{cycles_to_ns, Metric, PulseStage};
use scap_wire::Direction;
use std::hint::black_box;
use std::num::NonZeroU64;

/// A stream's kernel-side flags, one bit each: the hardware-cutoff
/// stage's filter bookkeeping, and per direction whether its assembler
/// is open, whether a flush timer is armed for it and whether the
/// application set its cutoff.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Flags(u16);

impl Flags {
    /// The stream's FDIR drop filters are in the NIC.
    pub const FDIR_INSTALLED: Flags = Flags(1 << 0);
    /// A transiently failed install is parked on the retry queue.
    pub const FDIR_RETRY_PENDING: Flags = Flags(1 << 1);
    /// Retries exhausted: the cutoff is enforced in software only.
    pub const FDIR_SOFTWARE_FALLBACK: Flags = Flags(1 << 2);
    /// A `Drop` rule for this stream is live in the NIC offload table.
    pub const OFFLOAD_INSTALLED: Flags = Flags(1 << 3);
    /// Every bit the hardware-cutoff stage owns.
    pub const FILTERS: Flags = Flags(0x0F);
    /// The direction's chunk assembler exists. A UDP datagram with
    /// payload opens it before the gate, so a direction the gate turned
    /// away from its first byte has one, standing at offset 0 with
    /// nothing pending, and no box; checkpoint images show it as such.
    pub const OPENED: [Flags; 2] = [Flags(1 << 4), Flags(1 << 5)];
    /// A flush timer is armed for the direction's partial chunk.
    pub const FLUSH_ARMED: [Flags; 2] = [Flags(1 << 6), Flags(1 << 7)];
    /// The direction's cutoff is the application's, in the box: the
    /// packet path reads the box for it only then.
    pub const OWN_CUTOFF: [Flags; 2] = [Flags(1 << 8), Flags(1 << 9)];

    /// Whether every bit of `f` is set.
    #[inline]
    pub fn has(self, f: Flags) -> bool {
        self.0 & f.0 == f.0
    }

    /// Whether any bit of `f` is set.
    #[inline]
    pub fn any(self, f: Flags) -> bool {
        self.0 & f.0 != 0
    }

    /// Set (`on`) or clear the bits of `f`.
    #[inline]
    pub fn set(&mut self, f: Flags, on: bool) {
        if on {
            self.0 |= f.0;
        } else {
            self.0 &= !f.0;
        }
    }
}

impl std::ops::BitOr for Flags {
    type Output = Flags;

    fn bitor(self, other: Flags) -> Flags {
        Flags(self.0 | other.0)
    }
}

/// Per-stream kernel-side state (in the flow record's slot): what every
/// tracked flow needs. What only a stream that carries segments, or one
/// an application overrode, needs sits behind `seg`, allocated when the
/// stream's first TCP segment passes the gate, its first UDP payload is
/// placed, or an override differs from what the configuration gives it —
/// so a header-only flow (a cutoff-0 flow-export flow, a lone SYN) costs
/// this much and no more (DESIGN §9.4).
pub(crate) struct StreamKState {
    uid: NonZeroU64,
    pub(super) seg: Option<Box<Segments>>,
    pub(super) flags: Flags,
    /// Reinstalls of the stream's FDIR filters since they were first
    /// installed: each doubles their timeout (§5.5).
    fdir_doublings: u8,
}

// A slot holds this inline next to the flow record, once per tracked
// flow: growing it is a deliberate decision, not a side effect. The uid
// is never 0, which keeps an absent state free too.
const _: () = assert!(std::mem::size_of::<StreamKState>() <= 24);
const _: () = assert!(std::mem::size_of::<Option<StreamKState>>() <= 24);

/// The state of a stream that carries segments or overrides: its
/// reassembly and chunking, and the stream's counters that only such a
/// stream moves.
pub(crate) struct Segments {
    /// TCP's connection tracker (`None` for UDP).
    pub(super) conn: Option<TcpConn>,
    /// Both directions' assemblers. One its direction has not opened
    /// stands at offset 0 with nothing pending, in the stream's geometry:
    /// what opening it would build.
    pub(super) asm: [ChunkAssembler; 2],
    pub(super) pkt_records: [Vec<PacketRecord>; 2],
    /// Chunks held back by `scap_keep_stream_chunk` for merging.
    pub(super) kept: [Option<ChunkBuf>; 2],
    /// Per direction, packets and bytes of payload accepted
    /// ([`DirStats`]' `captured_*`).
    pub(super) captured: [[u64; 2]; 2],
    /// Chunks delivered so far.
    pub(super) chunks: u64,
    /// Payload bytes skipped over warm-restart blackout windows.
    pub(super) resume_gap_bytes: u64,
    /// The application's cutoff per direction (`None`: unlimited), in
    /// force where it differs from the stream's class's
    /// ([`Flags::OWN_CUTOFF`]).
    pub(super) cutoff: [Option<u64>; 2],
    /// The application's chunk size and overlap, where they differ from
    /// the socket's (the assemblers run on them).
    pub(super) geometry: Option<[u32; 2]>,
    /// Image fields carried through a restore, which nothing else
    /// writes: reassembly runs on the socket's `overlap_policy`, and
    /// nothing charges the §3.2 per-stream processing time.
    pub(super) reassembly_policy: Option<u8>,
    pub(super) processing_time_ns: u64,
}

impl Segments {
    /// Nothing assembled yet, chunks of `chunk` bytes replaying `overlap`.
    pub(super) fn new(chunk: usize, overlap: usize) -> Self {
        Segments {
            conn: None,
            asm: [0, 1].map(|_| ChunkAssembler::new(chunk, overlap)),
            pkt_records: [Vec::new(), Vec::new()],
            kept: [None, None],
            captured: [[0; 2]; 2],
            chunks: 0,
            resume_gap_bytes: 0,
            cutoff: [None, None],
            geometry: None,
            reassembly_policy: None,
            processing_time_ns: 0,
        }
    }
}

/// The FDIR filter timeout after `n` doublings of the initial one,
/// saturating.
pub(super) fn fdir_timeout_ns(n: u8) -> u64 {
    1u64.checked_shl(u32::from(n))
        .and_then(|m| FDIR_INITIAL_TIMEOUT_NS.checked_mul(m))
        .unwrap_or(u64::MAX)
}

impl StreamKState {
    pub(super) fn new(uid: NonZeroU64) -> Self {
        StreamKState {
            uid,
            seg: None,
            flags: Flags::default(),
            fdir_doublings: 0,
        }
    }

    /// The stream's capture-wide uid.
    #[inline]
    pub(super) fn uid(&self) -> StreamUid {
        self.uid.get()
    }

    /// The timeout the stream's FDIR filters are (or will be) installed
    /// with.
    pub(super) fn fdir_timeout_ns(&self) -> u64 {
        fdir_timeout_ns(self.fdir_doublings)
    }

    /// Double the FDIR timeout for a reinstall.
    pub(super) fn double_fdir_timeout(&mut self) {
        self.fdir_doublings = self.fdir_doublings.saturating_add(1);
    }

    /// Start the filter bookkeeping over: no filters, initial timeout.
    pub(super) fn reset_filters(&mut self) {
        self.flags.set(Flags::FILTERS, false);
        self.fdir_doublings = 0;
    }

    /// Put back the filter bookkeeping an image carries: `None` when
    /// `timeout_ns` is no timeout this kernel could have doubled to.
    pub(super) fn restore_filters(
        &mut self,
        fdir_installed: bool,
        timeout_ns: u64,
        software_fallback: bool,
    ) -> Option<()> {
        self.fdir_doublings = (0..=64).find(|&n| fdir_timeout_ns(n) == timeout_ns)?;
        self.flags.set(Flags::FDIR_INSTALLED, fdir_installed);
        self.flags
            .set(Flags::FDIR_SOFTWARE_FALLBACK, software_fallback);
        Some(())
    }

    /// Whether direction `d`'s assembler exists.
    #[inline]
    pub(super) fn opened(&self, d: usize) -> bool {
        self.flags.has(Flags::OPENED[d])
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

    /// The box, allocated on first use in the socket's geometry (an
    /// app's own geometry comes with the box, see
    /// [`StreamKState::set_geometry`]).
    #[inline]
    pub(super) fn segments(&mut self, cfg: &ScapConfig) -> &mut Segments {
        self.seg.get_or_insert_with(|| {
            let [chunk, overlap] = socket_geometry(cfg);
            let (chunk, overlap) = geometry(chunk, overlap);
            Box::new(Segments::new(chunk, overlap))
        })
    }

    /// TCP's connection tracker, once the stream has one.
    pub(super) fn conn(&self) -> Option<&TcpConn> {
        self.seg.as_ref()?.conn.as_ref()
    }

    /// The cutoff of direction `d` of the stream `rec`: the
    /// application's, else its class's under `cfg`.
    #[inline]
    pub(super) fn cutoff(&self, rec: &StreamRecord, cfg: &ScapConfig, d: usize) -> Option<u64> {
        if self.flags.has(Flags::OWN_CUTOFF[d]) {
            return self.seg.as_ref().and_then(|s| s.cutoff[d]);
        }
        class_cutoff(rec, cfg, d)
    }

    /// Both directions' [`StreamKState::cutoff`].
    pub(super) fn cutoffs(&self, rec: &StreamRecord, cfg: &ScapConfig) -> [Option<u64>; 2] {
        [0, 1].map(|d| self.cutoff(rec, cfg, d))
    }

    /// Make `value` the cutoff of direction `d`: stored in the box where
    /// it differs from the class's, nothing (and no box) where it does
    /// not.
    pub(super) fn set_cutoff(
        &mut self,
        rec: &StreamRecord,
        cfg: &ScapConfig,
        d: usize,
        value: Option<u64>,
    ) {
        let own = value != class_cutoff(rec, cfg, d);
        self.flags.set(Flags::OWN_CUTOFF[d], own);
        if own {
            self.segments(cfg).cutoff[d] = value;
        }
    }

    /// Make `chunk_size`/`overlap` (valid) the stream's chunk geometry
    /// from the next chunk on: kept in the box where it differs from the
    /// socket's, nothing (and no box) where it does not.
    pub(super) fn set_geometry(&mut self, cfg: &ScapConfig, chunk_size: u32, overlap: u32) {
        let own = [chunk_size, overlap];
        let own = (own != socket_geometry(cfg)).then_some(own);
        if own.is_none() && self.seg.is_none() {
            return;
        }
        let seg = self.segments(cfg);
        seg.geometry = own;
        for asm in &mut seg.asm {
            asm.set_geometry(chunk_size as usize, overlap as usize);
        }
    }

    /// Direction `d`'s counters as events and images show them.
    pub(super) fn dir_stats(&self, rec: &StreamRecord, d: usize) -> DirStats {
        let [pkts, bytes] = self.seg.as_ref().map_or([0; 2], |s| s.captured[d]);
        rec.dirs[d].with_captured(pkts, bytes)
    }
}

/// The cutoff of direction `d` that `cfg` gives the class of `rec`.
#[inline]
fn class_cutoff(rec: &StreamRecord, cfg: &ScapConfig, d: usize) -> Option<u64> {
    let class = (rec.cutoff_class != StreamRecord::NO_CLASS).then_some(rec.cutoff_class as usize);
    cfg.cutoff.class_cutoff(class, d)
}

/// Put the stream `rec` in the cutoff class its key matches under `cfg`.
/// A class past what the record can name makes its cutoff the stream's
/// own.
pub(super) fn classify(ks: &mut StreamKState, rec: &mut StreamRecord, cfg: &ScapConfig) {
    let class = cfg.cutoff.class_of(&rec.key);
    let named = class.and_then(|c| u16::try_from(c).ok());
    let named = named.filter(|&c| c != StreamRecord::NO_CLASS);
    rec.cutoff_class = named.unwrap_or(StreamRecord::NO_CLASS);
    if class.is_some() && named.is_none() {
        for d in 0..2 {
            ks.set_cutoff(rec, cfg, d, cfg.cutoff.class_cutoff(class, d));
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
        let uid = NonZeroU64::new(self.uid_counter).expect("uids count from 1");
        self.cores[core].set_state(id, StreamKState::new(uid));
        uid.get()
    }

    /// Whether slot `id` of `core`'s table holds the live stream `uid`:
    /// the one check behind every handle found or kept off the packet
    /// path. A slot found by key may hold a TIME_WAIT tombstone or a
    /// newer stream of the 5-tuple.
    pub(super) fn holds(&self, core: usize, id: StreamId, uid: StreamUid) -> bool {
        self.cores[core].state(id).is_some_and(|ks| ks.uid() == uid)
    }

    /// The live stream `s` names: its key probed in the table of `home`
    /// (the core the NIC queues the key to), then in the other cores'
    /// (a stream FDIR steered off its RSS core), taken only where the
    /// slot holds its uid. A tombstone or a newer stream of the 5-tuple
    /// is not it.
    pub(super) fn find(&self, home: usize, s: &StreamRef) -> Option<(usize, StreamId)> {
        let others = (0..self.cores.len()).filter(|&c| c != home);
        std::iter::once(home).chain(others).find_map(|core| {
            let id = self.cores[core].peek(&s.key)?;
            self.holds(core, id, s.uid).then_some((core, id))
        })
    }

    /// The live stream `uid`, by a walk of every table: for a caller
    /// that holds no key and runs once in a long while.
    pub(super) fn scan(&self, uid: StreamUid) -> Option<(usize, StreamId)> {
        self.cores.iter().enumerate().find_map(|(core, flows)| {
            let mut ids = flows.iter().map(|(id, _)| id);
            ids.find(|&id| self.holds(core, id, uid))
                .map(|id| (core, id))
        })
    }

    /// Every live stream whose record `keep` takes, as `(uid, core, id)`
    /// in ascending uid order: the order reloads and evictions act in,
    /// so that what they journal does not depend on slot positions.
    pub(super) fn by_uid(
        &self,
        keep: impl Fn(&StreamRecord) -> bool,
    ) -> Vec<(StreamUid, usize, StreamId)> {
        let mut live = Vec::new();
        for (core, flows) in self.cores.iter().enumerate() {
            for (id, _) in flows.iter().filter(|(_, rec)| keep(rec)) {
                live.extend(flows.state(id).map(|ks| (ks.uid(), core, id)));
            }
        }
        live.sort_unstable_by_key(|&(uid, ..)| uid);
        live
    }
}

/// The socket's chunk size and overlap, as a stream's geometry reads.
pub(super) fn socket_geometry(cfg: &ScapConfig) -> [u32; 2] {
    [cfg.chunk_size as u32, cfg.overlap as u32]
}

/// A chunk size and overlap, made valid.
#[inline]
pub(super) fn geometry(chunk_size: u32, overlap: u32) -> (usize, usize) {
    let chunk = chunk_size.max(1) as usize;
    (chunk, (overlap as usize).min(chunk - 1))
}
