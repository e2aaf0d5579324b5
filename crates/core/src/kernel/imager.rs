//! The checkpoint imager: warm restart (checkpoint / restore). It owns
//! what only imaging needs — the last image written and where each
//! stream sits in it, the tenant table carried through, the blackout
//! excuse a restore arms — and reads every other stage's state to write
//! an image, or rebuilds every stage from one.

use super::hw::Owner;
use super::ledger::At;
use super::probe::{classify, geometry, socket_geometry, Flags, FlowProbe, Segments, StreamKState};
use super::ScapKernel;
use crate::checkpoint::{
    self, AsmImage, CheckpointError, CheckpointGlobals, CheckpointImage, ConnView, KStateView,
    StreamImage, TenantImage,
};
use crate::config::ScapConfig;
use crate::event::StreamUid;
use scap_faults::FaultPlan;
use scap_flight::{FlightEvent, FlightKind, FlightLayer};
use scap_flow::{DirCounters, StreamErrors, StreamId, StreamRecord};
use scap_memory::ChunkAssembler;
use scap_reassembly::{ReasmConfig, TcpConn};
use scap_telemetry::pulse::cost;
use scap_telemetry::{cycles_to_ns, PulseStage, Stage};
use std::num::NonZeroU64;
use std::ops::Range;

const CKPT: FlightLayer = FlightLayer::Checkpoint;

/// What the kernel keeps of the last checkpoint image it wrote, so that
/// the next one re-encodes only the streams touched since (DESIGN §7,
/// "Incremental images").
#[derive(Default)]
struct LastImage {
    /// The image, byte for byte, in the kernel's own copy: whatever
    /// happens to the bytes handed to the caller — a fault plan corrupts
    /// stored images — never reaches the next one.
    bytes: Vec<u8>,
    /// `frames[core][slot]`: where the framed stream record of that flow
    /// slot sits in `bytes`; empty for a slot no image has covered.
    frames: Vec<Vec<Range<usize>>>,
}

#[derive(Default)]
pub(crate) struct Imager {
    /// The previous checkpoint image and where each stream sits in it.
    last_image: LastImage,
    /// The multi-tenant attachment table (`scapd`), carried opaquely so
    /// tenant attachments survive checkpoint/restore with the capture.
    /// Empty for single-tenant captures.
    tenant_table: Vec<TenantImage>,
    /// Set by [`ScapKernel::from_image`]: the first clock observed after
    /// a warm restart re-stamps every restored flow's activity so the
    /// blackout never counts as inactivity (the process was down, the
    /// streams were not idle).
    resume_epoch_pending: bool,
}

impl Imager {
    /// First clock observation after a restore: excuse the blackout from
    /// every restored flow's idle clock. Without this, a blackout longer
    /// than the inactivity timeout would reap every resumed stream before
    /// its first post-restart packet, splitting each into a second uid.
    pub(super) fn excuse_blackout(&mut self, flows: &mut FlowProbe, now: u64) {
        if !self.resume_epoch_pending {
            return;
        }
        self.resume_epoch_pending = false;
        for core in &mut flows.cores {
            let ids: Vec<StreamId> = core.iter().map(|(id, _)| id).collect();
            for id in ids {
                core.touch(id, now);
            }
        }
    }
}

/// The image of stream `rec` on core `core`, assembled from its record,
/// its kernel state `ks` (`None`: a TIME_WAIT tombstone, which was never
/// given a cutoff or a chunk geometry) and the configuration.
fn stream_image<'a>(
    cfg: &ScapConfig,
    core: usize,
    uid: StreamUid,
    rec: &StreamRecord,
    ks: Option<&'a StreamKState>,
) -> StreamImage<KStateView<'a>> {
    let seg = ks.and_then(|ks| ks.seg.as_deref());
    let (cutoff, [chunk_size, overlap]) = match ks {
        Some(ks) => {
            let own = seg.and_then(|s| s.geometry);
            (ks.cutoffs(rec, cfg), own.unwrap_or(socket_geometry(cfg)))
        }
        None => ([None, None], [0, 0]),
    };
    StreamImage {
        core: core as u32,
        uid,
        key: rec.key,
        first_dir: rec.first_dir,
        first_ts_ns: rec.first_ts_ns,
        last_ts_ns: rec.last_ts_ns,
        status: rec.status,
        errors: rec.errors.0,
        priority: rec.priority,
        cutoff,
        cutoff_exceeded: rec.cutoff_exceeded,
        discarded: rec.discarded,
        dirs: [0, 1].map(|d| match ks {
            Some(ks) => ks.dir_stats(rec, d),
            None => rec.dirs[d].with_captured(0, 0),
        }),
        chunk_size,
        overlap,
        reassembly_policy: seg.and_then(|s| s.reassembly_policy),
        processing_time_ns: seg.map_or(0, |s| s.processing_time_ns),
        chunks: seg.map_or(0, |s| s.chunks),
        resume_gap_bytes: seg.map_or(0, |s| s.resume_gap_bytes),
        kstate: ks.map(|ks| KStateView {
            fdir_installed: ks.flags.has(Flags::FDIR_INSTALLED),
            fdir_timeout_ns: ks.fdir_timeout_ns(),
            fdir_software_fallback: ks.flags.has(Flags::FDIR_SOFTWARE_FALLBACK),
            conn: ks.conn().map(ConnView::Live),
            asm: [0, 1].map(|d| {
                ks.opened(d).then(|| AsmImage {
                    committed: ks.offset(d),
                    pending: ks.pending(d),
                })
            }),
        }),
    }
}

impl ScapKernel {
    /// Install the multi-tenant attachment table carried in checkpoints.
    /// The kernel treats it as opaque payload: `scapd` keeps it current
    /// as tenants attach/detach so every checkpoint written through the
    /// normal path is crash-consistent with the tenant registry.
    pub fn set_tenant_table(&mut self, tenants: Vec<TenantImage>) {
        self.imager.tenant_table = tenants;
    }

    /// Write one image into `out`, copying from `last` the frame of every
    /// stream untouched since `last` was written and encoding the others,
    /// and leave in `last.frames` where each stream's frame now sits in
    /// `out` (the caller makes `last.bytes` match). With an empty `last`
    /// every stream is encoded.
    fn write_image(
        &self,
        globals: &CheckpointGlobals,
        seq: u64,
        out: &mut Vec<u8>,
        last: &mut LastImage,
    ) {
        let (cores, nic) = (&self.flows.cores, &self.nic.nic);
        // Ascending uid; the stable sort keeps TIME_WAIT tombstones
        // (uid 0) in table order.
        let mut order = Vec::new();
        for (c, core) in cores.iter().enumerate() {
            for (id, rec) in core.iter() {
                let ks = core.state(id);
                order.push((ks.map_or(0, StreamKState::uid), c, id, rec, ks));
            }
        }
        order.sort_by_key(|&(uid, ..)| uid);
        last.frames.resize_with(cores.len(), Vec::new);
        let mut image = checkpoint::ImageWriter::begin(out, seq, &self.cfg, globals);
        for (uid, c, id, rec, ks) in order {
            let frames = &mut last.frames[c];
            let slot = id.slot();
            if slot >= frames.len() {
                frames.resize(slot + 1, 0..0);
            }
            let kept = frames[slot].clone();
            let at = image.position();
            if !kept.is_empty() && !cores[c].touched(id) {
                image.stream_frame(&last.bytes[kept]);
            } else {
                image.stream(&stream_image(&self.cfg, c, uid, rec, ks));
            }
            frames[slot] = at..image.position();
        }
        let tenants = &self.imager.tenant_table;
        image.finish(&nic.fdir().filters(), &nic.offload().rules(), tenants);
    }

    /// Snapshot the full kernel state into checkpoint-file bytes. The
    /// capture keeps running — this is the §4 two-instance trick applied
    /// to one instance: the snapshot is taken between packets, so it is
    /// always consistent. The caller persists the bytes with
    /// [`checkpoint::write_atomic`].
    pub fn checkpoint_bytes(&mut self, now_ns: u64, seq: u64) -> Vec<u8> {
        let mut out = Vec::new();
        self.checkpoint_into(now_ns, seq, &mut out);
        out
    }

    /// [`ScapKernel::checkpoint_bytes`] into a caller-owned buffer,
    /// replacing its contents: a periodic checkpointer passes the image
    /// it is about to retire and pays for no allocation.
    ///
    /// The encode is incremental. The kernel keeps its own copy of the
    /// last image and where each stream's framed record sits in it; a
    /// stream whose flow record and kernel state nobody has borrowed
    /// mutably since (the flow table stamps the slot on every such borrow)
    /// is copied frame and all, and only the rest are encoded — straight
    /// from the flow tables, the assemblers' pending chunks and the
    /// reassemblers' buffered segments — and checksummed. The result is
    /// byte for byte the image a from-scratch encode produces, which a
    /// fresh or just-restored kernel, with every stream touched, does.
    pub fn checkpoint_into(&mut self, now_ns: u64, seq: u64, out: &mut Vec<u8>) {
        let globals = CheckpointGlobals {
            ts_ns: now_ns,
            uid_counter: self.flows.uid_counter,
            governor_level: self.governor.level(),
            restarts: self.ledger.stats.resilience.restarts,
        };
        let mut last = std::mem::take(&mut self.imager.last_image);
        out.clear();
        out.reserve(last.bytes.len());
        self.write_image(&globals, seq, out, &mut last);
        #[cfg(debug_assertions)]
        {
            let mut full = Vec::new();
            self.write_image(&globals, seq, &mut full, &mut LastImage::default());
            assert!(
                *out == full,
                "incremental checkpoint {seq} differs from a full encode"
            );
        }
        last.bytes.clone_from(out);
        self.imager.last_image = last;
        for core in &mut self.flows.cores {
            core.next_epoch();
        }
        let ledger = &mut self.ledger;
        ledger.stats.resilience.checkpoints_written += 1;
        // Pulse: checkpoint span from the deterministic encode+sync
        // model over the image size.
        ledger.pulse.record(
            PulseStage::Checkpoint,
            cycles_to_ns(cost::checkpoint_cycles(out.len() as u64)),
        );
        let written = FlightEvent::new(FlightKind::CheckpointWritten, CKPT, now_ns);
        ledger.journal(
            At::new(0, now_ns, 0),
            written.with_vals(seq, out.len() as u64),
        );
    }

    /// Rebuild a kernel mid-capture from a decoded checkpoint (warm
    /// restart). Stream uids stay stable, every direction re-anchors at
    /// its committed offset, NIC drop filters are re-installed, and each
    /// restored live stream is marked [`StreamErrors::RESUMED`]. `faults`
    /// re-attaches a fault plan — plans are deliberately not part of the
    /// checkpoint, so the restarted instance chooses its own.
    pub fn from_image(
        img: CheckpointImage,
        faults: Option<FaultPlan>,
    ) -> Result<ScapKernel, CheckpointError> {
        let recovery = checkpoint::recovery_cycles(&img);
        let mut cfg = img.config.clone();
        cfg.faults = faults;
        let mut k = ScapKernel::new(cfg);
        k.flows.uid_counter = img.globals.uid_counter;
        // Re-anchor the governor's hysteresis clock at the checkpoint
        // timestamp: the first post-restart tick sees transient pressure
        // (refilling arena, replayed backlog) and must not re-escalate.
        k.governor
            .restore_level(img.globals.governor_level, img.globals.ts_ns);
        k.imager.tenant_table = img.tenants.clone();
        let mut resumed = Vec::new();
        for s in &img.streams {
            if let Some(owner) = k.restore_stream(s, img.globals.ts_ns)? {
                resumed.push((owner, s.key));
            }
        }
        for f in img.fdir {
            if k.nic.nic.fdir_install(f).is_ok() {
                k.ledger.stats.fdir_ops += 1;
            }
        }
        for r in img.offload {
            if k.nic.nic.offload_install(r).is_ok() {
                k.ledger.stats.offload_ops += 1;
            }
        }
        let (hw, mut deps) = k.hw();
        for &(owner, key) in &resumed {
            hw.adopt(&mut deps, owner, key, img.globals.ts_ns);
        }
        k.imager.resume_epoch_pending = true;
        let ledger = &mut k.ledger;
        ledger.stats.resilience.restarts = img.globals.restarts + 1;
        ledger.stats.resilience.resumed_streams = resumed.len() as u64;
        ledger.stats.resilience.recovery_virtual_cycles = recovery;
        ledger.tele.record_stage(0, Stage::Restart, recovery);
        let restarts = ledger.stats.resilience.restarts;
        let restarted = FlightEvent::new(FlightKind::Restarted, CKPT, img.globals.ts_ns);
        let restarted = restarted.with_vals(restarts, resumed.len() as u64);
        ledger.journal(At::new(0, img.globals.ts_ns, 0), restarted);
        Ok(k)
    }

    /// Put one checkpointed stream back: its record, and — unless it is
    /// a TIME_WAIT tombstone, whose record alone absorbs stray late
    /// packets exactly as before the restart — its kernel state, under
    /// the uid it had. What the record does not hold comes back in the
    /// stream's box, which it gets whenever its image carries any of it;
    /// its cutoff class is looked up again under this kernel's config.
    /// Returns the owner of a stream that resumed.
    fn restore_stream(
        &mut self,
        s: &StreamImage,
        image_ts_ns: u64,
    ) -> Result<Option<Owner>, CheckpointError> {
        let corrupt = |what: &str| CheckpointError::Corrupt(format!("{what} stream uid {}", s.uid));
        let core = s.core as usize;
        let flows = &mut self.flows.cores[core];
        let id = flows
            .lookup_or_insert(&s.key, s.first_ts_ns)
            .map_err(|_| corrupt("flow table full restoring"))?
            .id;
        if let Some(rec) = flows.get_mut(id) {
            rec.first_dir = s.first_dir;
            rec.first_ts_ns = s.first_ts_ns;
            rec.last_ts_ns = s.last_ts_ns;
            rec.status = s.status;
            rec.errors = StreamErrors(s.errors);
            rec.priority = s.priority;
            rec.cutoff_exceeded = s.cutoff_exceeded;
            rec.discarded = s.discarded;
            rec.dirs = s.dirs.each_ref().map(DirCounters::from);
            if s.kstate.is_some() {
                rec.errors.set(StreamErrors::RESUMED);
            }
        }
        flows.touch(id, s.last_ts_ns);
        let captured = s.dirs.map(|d| [d.captured_pkts, d.captured_bytes]);
        let image_geometry = [s.chunk_size, s.overlap];
        // Counters and image fields only a box holds.
        let counted = captured != [[0; 2]; 2]
            || [s.chunks, s.resume_gap_bytes, s.processing_time_ns] != [0; 3]
            || s.reassembly_policy.is_some();
        let Some(ksi) = &s.kstate else {
            // A tombstone is its record and nothing more.
            if counted || s.cutoff != [None, None] || image_geometry != [0, 0] {
                return Err(corrupt("stream state on the tombstone of"));
            }
            return Ok(None);
        };
        let uid = NonZeroU64::new(s.uid).ok_or_else(|| corrupt("kernel state for"))?;
        let mut ks = StreamKState::new(uid);
        let (installed, fallback) = (ksi.fdir_installed, ksi.fdir_software_fallback);
        ks.restore_filters(installed, ksi.fdir_timeout_ns, fallback)
            .ok_or_else(|| corrupt("FDIR timeout of no doubling on"))?;
        let reasm_cfg =
            ReasmConfig::for_mode(self.cfg.reassembly_mode).with_policy(self.cfg.overlap_policy);
        let chunk = if s.chunk_size == 0 {
            self.cfg.chunk_size as u32
        } else {
            s.chunk_size
        };
        let (chunk_size, overlap) = geometry(chunk, s.overlap);
        let own_geometry = (image_geometry != socket_geometry(&self.cfg)).then_some(image_geometry);
        // A stream gets its box back when it had one: a tracked TCP
        // connection, bytes assembled in some direction, or a counter or
        // override only a box holds. A direction opened at offset 0 with
        // nothing pending is a bit.
        let carried = |a: &AsmImage| a.committed > 0 || !a.pending.is_empty();
        let boxed = ksi.conn.is_some()
            || ksi.asm.iter().flatten().any(carried)
            || counted
            || own_geometry.is_some();
        if boxed {
            let mut seg = Segments::new(chunk_size, overlap);
            seg.conn = ksi.conn.as_ref().map(|ck| TcpConn::restore(reasm_cfg, ck));
            seg.captured = captured;
            seg.chunks = s.chunks;
            seg.resume_gap_bytes = s.resume_gap_bytes;
            seg.processing_time_ns = s.processing_time_ns;
            seg.reassembly_policy = s.reassembly_policy;
            seg.geometry = own_geometry;
            ks.seg = Some(Box::new(seg));
        }
        let rec = self.flows.cores[core].get_mut(id).expect("restored above");
        classify(&mut ks, rec, &self.cfg);
        for (d, &cutoff) in s.cutoff.iter().enumerate() {
            ks.set_cutoff(rec, &self.cfg, d, cutoff);
        }
        for (d, image) in ksi.asm.iter().enumerate() {
            let Some(a) = image else { continue };
            if a.pending.len() > chunk_size {
                return Err(CheckpointError::Corrupt(format!(
                    "stream uid {}: pending chunk larger than chunk size",
                    s.uid
                )));
            }
            ks.flags.set(Flags::OPENED[d], true);
            let Some(seg) = ks.seg.as_deref_mut() else {
                continue;
            };
            seg.asm[d] = ChunkAssembler::resume(
                &mut self.place.arena,
                chunk_size,
                overlap,
                a.committed,
                &a.pending,
            )
            .map_err(|_| corrupt("arena exhausted restoring pending chunk of"))?;
        }
        let owner = Owner {
            core,
            id,
            uid: s.uid,
        };
        self.flows.cores[core].set_state(id, ks);
        let resumed = FlightEvent::new(FlightKind::StreamResumed, CKPT, image_ts_ns);
        self.ledger
            .journal(At::new(core, image_ts_ns, s.uid), resumed);
        Ok(Some(owner))
    }
}
