//! The checkpoint imager: warm restart (checkpoint / restore). It owns
//! what only imaging needs — the last image written and where each
//! stream sits in it, the tenant table carried through, the blackout
//! excuse a restore arms — and reads every other stage's state to write
//! an image, or rebuilds every stage from one.

use super::hw::{FilterState, Owner};
use super::ledger::At;
use super::probe::{FlowProbe, Segments, StreamKState};
use super::ScapKernel;
use crate::checkpoint::{
    self, AsmImage, CheckpointError, CheckpointGlobals, CheckpointImage, ConnView, KStateView,
    StreamImage, TenantImage,
};
use scap_faults::FaultPlan;
use scap_flight::{FlightEvent, FlightKind, FlightLayer};
use scap_flow::{StreamErrors, StreamId};
use scap_memory::ChunkAssembler;
use scap_reassembly::{ReasmConfig, TcpConn};
use scap_telemetry::pulse::cost;
use scap_telemetry::{cycles_to_ns, PulseStage, Stage};
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
            let ids: Vec<StreamId> = core.iter().map(|r| r.id).collect();
            for id in ids {
                core.touch(id, now);
            }
        }
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
            for rec in core.iter() {
                let ks = core.state(rec.id);
                order.push((ks.map_or(0, |k| k.uid), c, rec, ks));
            }
        }
        order.sort_by_key(|&(uid, ..)| uid);
        last.frames.resize_with(cores.len(), Vec::new);
        let mut image = checkpoint::ImageWriter::begin(out, seq, &self.cfg, globals);
        for (uid, c, rec, ks) in order {
            let core = &cores[c];
            let frames = &mut last.frames[c];
            let slot = rec.id.slot();
            if slot >= frames.len() {
                frames.resize(slot + 1, 0..0);
            }
            let kept = frames[slot].clone();
            let at = image.position();
            if !kept.is_empty() && !core.touched(rec.id) {
                image.stream_frame(&last.bytes[kept]);
            } else {
                image.stream(&StreamImage {
                    core: c as u32,
                    uid,
                    key: rec.key,
                    first_dir: rec.first_dir,
                    first_ts_ns: rec.first_ts_ns,
                    last_ts_ns: rec.last_ts_ns,
                    status: rec.status,
                    errors: rec.errors.0,
                    priority: rec.priority,
                    cutoff: rec.cutoff,
                    cutoff_exceeded: rec.cutoff_exceeded,
                    discarded: rec.discarded,
                    dirs: rec.dirs,
                    chunk_size: rec.chunk_size,
                    overlap: rec.overlap,
                    reassembly_policy: rec.reassembly_policy,
                    processing_time_ns: rec.processing_time_ns,
                    chunks: rec.chunks,
                    resume_gap_bytes: rec.resume_gap_bytes,
                    kstate: ks.map(|ks| {
                        let (fdir_installed, fdir_timeout_ns, fdir_software_fallback) =
                            ks.hw.image();
                        KStateView {
                            fdir_installed,
                            fdir_timeout_ns,
                            fdir_software_fallback,
                            conn: ks.conn().map(ConnView::Live),
                            asm: [0, 1].map(|d| {
                                ks.opened[d].then(|| AsmImage {
                                    committed: ks.offset(d),
                                    pending: ks.pending(d),
                                })
                            }),
                        }
                    }),
                });
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
    /// the uid it had. Returns the owner of a stream that resumed.
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
            rec.cutoff = s.cutoff;
            rec.cutoff_exceeded = s.cutoff_exceeded;
            rec.discarded = s.discarded;
            rec.dirs = s.dirs;
            rec.chunk_size = s.chunk_size;
            rec.overlap = s.overlap;
            rec.reassembly_policy = s.reassembly_policy;
            rec.processing_time_ns = s.processing_time_ns;
            rec.chunks = s.chunks;
            rec.resume_gap_bytes = s.resume_gap_bytes;
            if s.kstate.is_some() {
                rec.errors.set(StreamErrors::RESUMED);
            }
        }
        flows.touch(id, s.last_ts_ns);
        let Some(ksi) = &s.kstate else {
            return Ok(None);
        };
        let mut ks = StreamKState::new(s.uid);
        ks.hw = FilterState::restored(
            ksi.fdir_installed,
            ksi.fdir_timeout_ns,
            ksi.fdir_software_fallback,
        );
        let reasm_cfg =
            ReasmConfig::for_mode(self.cfg.reassembly_mode).with_policy(self.cfg.overlap_policy);
        let chunk_size = if s.chunk_size == 0 {
            self.cfg.chunk_size.max(1)
        } else {
            s.chunk_size as usize
        };
        let overlap = (s.overlap as usize).min(chunk_size - 1);
        // A stream gets its box back when it had one: a tracked TCP
        // connection, or bytes assembled in some direction. A direction
        // opened at offset 0 with nothing pending is a bit.
        let carried = |a: &AsmImage| a.committed > 0 || !a.pending.is_empty();
        if ksi.conn.is_some() || ksi.asm.iter().flatten().any(carried) {
            let mut seg = Segments::new(chunk_size, overlap);
            seg.conn = ksi.conn.as_ref().map(|ck| TcpConn::restore(reasm_cfg, ck));
            ks.seg = Some(Box::new(seg));
        }
        for (d, image) in ksi.asm.iter().enumerate() {
            let Some(a) = image else { continue };
            if a.pending.len() > chunk_size {
                return Err(CheckpointError::Corrupt(format!(
                    "stream uid {}: pending chunk larger than chunk size",
                    s.uid
                )));
            }
            ks.opened[d] = true;
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
        self.flows.adopt(core, id, ks);
        let resumed = FlightEvent::new(FlightKind::StreamResumed, CKPT, image_ts_ns);
        self.ledger
            .journal(At::new(core, image_ts_ns, s.uid), resumed);
        Ok(Some(owner))
    }
}
