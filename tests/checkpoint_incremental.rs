//! The incremental checkpoint encoder against a from-scratch encode.
//!
//! A kernel that has taken a checkpoint keeps the image and, for the next
//! one, copies the frame of every stream nobody has touched since and
//! encodes only the others. A kernel that has never taken one has nothing
//! to copy from and encodes every stream. So for any history of traffic,
//! timers and control operations, the image taken at a given point must
//! not depend on which checkpoints were taken before it: the kernel that
//! took them all (incremental) and a replica that was fed the same
//! history and takes only this one (from scratch) must write the same
//! bytes. That is what the property below checks, at random packet
//! indices, for a kernel started cold and for one restored from an image
//! — together with `image == decode(image).to_bytes()` and with the
//! bytes a capture resumed from an image goes on to deliver.
//!
//! Debug builds make the same comparison inside `checkpoint_into`; this
//! test is the net in `--release`, where that check is compiled out
//! (`ci.sh` runs it in both profiles).

use proptest::prelude::*;
use rand::Rng;
use scap::checkpoint::AsmImage;
use scap::checkpoint::CheckpointImage;
use scap::{
    ControlOp, Direction, Event, EventKind, OffloadAction, OffloadRule, ScapConfig, ScapKernel,
    StreamRef, StreamUid,
};
use scap_filter::Filter;
use scap_trace::{CampusMix, CampusMixConfig, Packet};
use scap_wire::{parse_frame, FlowKey, PacketBuilder, TcpFlags};
use std::collections::{BTreeMap, HashMap};

/// What happens between two packets of a scenario.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// A `ControlOp` of the given kind on the `pick`-th stream created so
    /// far (modulo their number).
    Control { kind: u8, pick: usize, value: u64 },
    /// Program an application rule for the flow of the `pick`-th packet.
    Offload { pick: usize, action: u8 },
    /// `KeepChunk` in the packet's direction of the stream the `pick`-th
    /// packet belongs to, if it is live.
    Keep { pick: usize },
    /// Take a checkpoint (if this replay takes the one with this ordinal).
    Checkpoint(usize),
}

/// One step of a scenario's script.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Feed `trace[i]` to the NIC.
    Packet(usize),
    /// Service the kernel, then run the operation.
    Op(Op),
}

struct Scenario {
    cfg: ScapConfig,
    trace: Vec<Packet>,
    script: Vec<Step>,
    /// Packets fed between two service passes.
    burst: usize,
    checkpoints: usize,
}

/// Short TCP sessions `base..base + n`, their packets interleaved step
/// by step from `t0`: three in four run SYN to FIN-ACK (and leave a
/// TIME_WAIT tombstone), every fourth is a lone SYN.
fn churn(base: u32, n: u32, t0: u64, gap: u64) -> Vec<Packet> {
    let mut out = Vec::new();
    let mut ts = t0;
    let ack = TcpFlags::ACK;
    for step in 0..6 {
        for i in base..base + n {
            if i % 4 == 3 && step > 0 {
                continue;
            }
            let c = [10, 77, (i >> 8) as u8, i as u8];
            let s = [172, 20, 0, 1];
            let (cp, sp) = (20_000 + (i % 30_000) as u16, 8080);
            let (c0, s0) = (1_000 + i, 90_000 + i);
            let frame = match step {
                0 => PacketBuilder::tcp_v4(c, s, cp, sp, c0, 0, TcpFlags::SYN, b""),
                1 => PacketBuilder::tcp_v4(s, c, sp, cp, s0, c0 + 1, TcpFlags::SYN | ack, b""),
                2 => PacketBuilder::tcp_v4(c, s, cp, sp, c0 + 1, s0 + 1, ack, b""),
                3 => PacketBuilder::tcp_v4(c, s, cp, sp, c0 + 1, s0 + 1, ack, &[i as u8; 300]),
                4 => {
                    PacketBuilder::tcp_v4(c, s, cp, sp, c0 + 301, s0 + 1, TcpFlags::FIN | ack, b"")
                }
                _ => {
                    PacketBuilder::tcp_v4(s, c, sp, cp, s0 + 1, c0 + 302, TcpFlags::FIN | ack, b"")
                }
            };
            out.push(Packet::new(ts, frame));
            ts += gap;
        }
    }
    out
}

/// UDP flows that exchange a datagram each way every `gap` from `t0` to
/// `t1`: the flows of `port` 5353 meet a cutoff of 0 (flow export: each
/// direction has an assembler that never takes a byte, and the stream
/// never gets a box), the others carry data from their first datagram.
fn datagrams(t0: u64, t1: u64, gap: u64) -> Vec<Packet> {
    let mut out = Vec::new();
    let s = [172, 20, 0, 2];
    for (i, port) in [5353u16, 5353, 5353, 5004, 5004, 5004]
        .into_iter()
        .enumerate()
    {
        let c = [10, 78, 0, i as u8];
        let mut ts = t0 + i as u64 * gap / 6;
        let mut n = 0u8;
        while ts < t1 {
            n = n.wrapping_add(1);
            let ask = PacketBuilder::udp_v4(c, s, 30_000, port, &[n; 180]);
            out.push(Packet::new(ts, ask));
            let answer = PacketBuilder::udp_v4(s, c, port, 30_000, &[!n; 420]);
            out.push(Packet::new(ts + gap / 2, answer));
            ts += gap;
        }
    }
    out
}

/// Campus traffic plus two waves of short sessions and a few long UDP
/// flows, with control operations (`KeepChunk` requests among them),
/// application offload rules and checkpoints scattered over it; half the
/// scenarios deliver packet records. With `expiring`, the inactivity
/// timeout is a quarter of the trace and the waves are further apart than
/// that: the first wave's tombstones and lone SYNs expire, and the second
/// wave takes over their pool slots. Without, no stream is ever idle long
/// enough to expire.
fn scenario(seed: u64, expiring: bool) -> (Scenario, proptest::TestRng) {
    use proptest::TestSeedableRng;
    let mut rng = proptest::TestRng::seed_from_u64(seed);
    let mut trace = CampusMix::new(CampusMixConfig::sized(seed, 320 << 10)).collect_all();
    // The generator packs its sessions into a few hundred milliseconds.
    // Every other scenario plays them out over seconds instead, so that
    // the NIC filters of streams past their cutoff time out (2 s) and
    // are reinstalled: a change to a stream's kernel state alone, from a
    // timer, with no packet of the stream in sight.
    let stretch = if rng.random() { 32 } else { 1 };
    for p in &mut trace {
        p.ts_ns *= stretch;
    }
    let (t0, t1) = (trace[0].ts_ns, trace.last().unwrap().ts_ns);
    let span = (t1 - t0).max(8_000_000);
    trace.extend(churn(0, 40, t0 + span / 16, span / 4_000));
    trace.extend(churn(1_000, 40, t0 + span * 3 / 4, span / 4_000));
    trace.extend(datagrams(t0, t1, span / 24));
    trace.sort_by_key(|p| p.ts_ns);

    let mut cfg = ScapConfig {
        cores: 2,
        memory_bytes: 32 << 20,
        chunk_size: rng.random_range(1024..4096usize),
        flush_timeout_ns: span / 64,
        inactivity_timeout_ns: if expiring { span / 4 } else { u64::MAX / 2 },
        use_fdir: rng.random(),
        use_offload: rng.random(),
        offload_capacity: 256,
        dispatch: if rng.random() {
            scap::DispatchMode::Fastpath
        } else {
            scap::DispatchMode::Classic
        },
        need_pkts: rng.random(),
        ..ScapConfig::default()
    };
    // Low enough that the larger campus streams trip it and the kernel
    // installs its own FDIR filters / offload drop rules.
    cfg.cutoff.default = Some(rng.random_range(4_000..40_000u64));
    let export = Filter::new("udp port 5353").expect("a valid filter");
    cfg.cutoff.classes.push((export, 0));

    let n = trace.len();
    let mut ops: Vec<(usize, Op)> = Vec::new();
    for _ in 0..24 {
        ops.push((
            rng.random_range(0..n),
            Op::Control {
                kind: rng.random_range(0..if expiring { 5u8 } else { 4 }),
                pick: rng.random(),
                value: rng.random_range(0..60_000u64),
            },
        ));
    }
    for _ in 0..4 {
        ops.push((
            rng.random_range(0..n),
            Op::Offload {
                pick: rng.random_range(0..n),
                // A `Sample` rule's 1-in-N phase is the NIC's own count,
                // not part of an image: a resumed capture keeps other
                // frames of a sampled flow than the uninterrupted one.
                action: rng.random_range(0..if expiring { 3u8 } else { 2 }),
            },
        ));
    }
    // A chunk held back for merging is not part of an image: a resumed
    // capture delivers the next chunk alone, not the pair concatenated.
    // Only images, not resumed bytes, are compared with it.
    if expiring {
        for _ in 0..6 {
            let (at, pick) = (rng.random_range(0..n), rng.random_range(0..n));
            ops.push((at, Op::Keep { pick }));
        }
    }
    // Checkpoints at random indices, one pair back to back with nothing
    // in between, and one after the last packet (behind both waves, so
    // the image holds tombstones in recycled slots).
    let mut at: Vec<usize> = (0..5).map(|_| rng.random_range(0..n)).collect();
    at.push(at[0]);
    at.push(n - 1);
    // A stable sort on the index keeps controls ahead of the checkpoints
    // they share an index with.
    ops.extend(at.iter().map(|&i| (i, Op::Checkpoint(0))));
    ops.sort_by_key(|&(i, _)| i);
    let mut checkpoints = 0;
    for (_, op) in &mut ops {
        if let Op::Checkpoint(ordinal) = op {
            *ordinal = checkpoints;
            checkpoints += 1;
        }
    }
    let mut script = Vec::with_capacity(n + ops.len());
    let mut ops = ops.into_iter().peekable();
    for i in 0..n {
        script.push(Step::Packet(i));
        while let Some((_, op)) = ops.next_if(|&(at, _)| at == i) {
            script.push(Step::Op(op));
        }
    }
    let sc = Scenario {
        cfg,
        trace,
        script,
        burst: rng.random_range(1..12usize),
        checkpoints,
    };
    (sc, rng)
}

/// What the application has seen so far: the streams created, in order
/// (and the newest per flow), as their created snapshots name them, and
/// every delivered byte at its stream offset.
#[derive(Clone, Default, PartialEq, Debug)]
struct Seen {
    created: Vec<StreamRef>,
    by_key: HashMap<FlowKey, StreamRef>,
    bytes: BTreeMap<(StreamUid, usize), Vec<Option<u8>>>,
}

impl Seen {
    fn on_event(&mut self, k: &mut ScapKernel, ev: Event) {
        match &ev.kind {
            EventKind::Created => {
                self.created.push(StreamRef::from(&ev.stream));
                self.by_key
                    .insert(ev.stream.key, StreamRef::from(&ev.stream));
            }
            EventKind::Data { dir, chunk, .. } => {
                let have = self.bytes.entry((ev.stream.uid, dir.index())).or_default();
                let at = chunk.start_offset as usize;
                if have.len() < at + chunk.len() {
                    have.resize(at + chunk.len(), None);
                }
                for (slot, &b) in have[at..].iter_mut().zip(chunk.bytes()) {
                    *slot = Some(b);
                }
            }
            EventKind::Terminated => {}
        }
        k.release_event(ev);
    }
}

/// One image a replay took.
struct Taken {
    ordinal: usize,
    /// Script position of the checkpoint step.
    pos: usize,
    image: Vec<u8>,
    /// What the application had seen by then.
    seen: Seen,
}

struct Replay {
    kernel: ScapKernel,
    seen: Seen,
    images: Vec<Taken>,
    now: u64,
}

impl Replay {
    fn cold(sc: &Scenario) -> Self {
        Replay {
            kernel: ScapKernel::new(sc.cfg.clone()),
            seen: Seen::default(),
            images: Vec::new(),
            now: 0,
        }
    }

    /// A capture resumed from `from`, the application keeping what it
    /// had seen.
    fn restored(from: &Taken) -> Self {
        let img = CheckpointImage::decode(&from.image).expect("image decodes");
        Replay {
            now: img.globals.ts_ns,
            kernel: ScapKernel::from_image(img, None).expect("image restores"),
            seen: from.seen.clone(),
            images: Vec::new(),
        }
    }

    fn service(&mut self) {
        let Replay {
            kernel, seen, now, ..
        } = self;
        kernel.service(*now, |k, ev| seen.on_event(k, ev));
    }

    fn checkpoint(&mut self, ordinal: usize, pos: usize) {
        let image = self.kernel.checkpoint_bytes(self.now, ordinal as u64 + 1);
        let decoded = CheckpointImage::decode(&image).expect("image decodes");
        assert!(
            decoded.to_bytes() == image,
            "image {ordinal} is not what its decoded form re-encodes to"
        );
        self.images.push(Taken {
            ordinal,
            pos,
            image,
            seen: self.seen.clone(),
        });
    }

    fn apply(&mut self, sc: &Scenario, op: Op, pos: usize, take: &dyn Fn(usize) -> bool) {
        match op {
            Op::Control { kind, pick, value } => {
                let created = &self.seen.created;
                let Some(&stream) = created.get(pick % created.len().max(1)) else {
                    return;
                };
                let dir = [Direction::Forward, Direction::Reverse][(value & 1) as usize];
                let widened = (value & 2 != 0).then_some(value * 8);
                self.kernel.control(match kind {
                    0 => ControlOp::SetCutoff(stream, Some(dir), Some(value)),
                    1 => ControlOp::SetCutoff(stream, None, widened),
                    2 => ControlOp::SetPriority(stream, (value % 3) as u8),
                    3 => ControlOp::Discard(stream),
                    _ => ControlOp::KeepChunk(stream, dir),
                });
            }
            Op::Offload { pick, action } => {
                let Some(key) = parse_frame(&sc.trace[pick].frame).ok().and_then(|p| p.key) else {
                    return;
                };
                let action = match action {
                    0 => OffloadAction::Mark(3),
                    1 => OffloadAction::Bypass,
                    _ => OffloadAction::Sample(2),
                };
                let _ = self
                    .kernel
                    .offload_install(OffloadRule::new(key, action, 1));
            }
            Op::Keep { pick } => {
                let Some(key) = parse_frame(&sc.trace[pick].frame).ok().and_then(|p| p.key) else {
                    return;
                };
                let (canon, dir) = key.canonical();
                if let Some(&stream) = self.seen.by_key.get(&canon) {
                    self.kernel.control(ControlOp::KeepChunk(stream, dir));
                }
            }
            Op::Checkpoint(ordinal) => {
                if take(ordinal) {
                    self.checkpoint(ordinal, pos);
                }
            }
        }
    }

    /// Run the script from step `from`, taking the checkpoints `take`
    /// names, up to and including checkpoint `until` — or, with `None`,
    /// to the end of the capture.
    fn run(
        mut self,
        sc: &Scenario,
        from: usize,
        until: Option<usize>,
        take: &dyn Fn(usize) -> bool,
    ) -> Self {
        let mut unserviced = 0;
        for (pos, &step) in sc.script.iter().enumerate().skip(from) {
            match step {
                Step::Packet(i) => {
                    self.now = sc.trace[i].ts_ns;
                    self.kernel.nic_receive(&sc.trace[i]);
                    unserviced += 1;
                    if unserviced == sc.burst {
                        self.service();
                        unserviced = 0;
                    }
                }
                Step::Op(op) => {
                    if unserviced > 0 {
                        self.service();
                        unserviced = 0;
                    }
                    self.apply(sc, op, pos, take);
                    if matches!(op, Op::Checkpoint(o) if Some(o) == until) {
                        return self;
                    }
                }
            }
        }
        assert!(until.is_none(), "checkpoint {until:?} never came up");
        self.service();
        self.now += 1;
        self.kernel.finish(self.now);
        let Replay {
            kernel, seen, now, ..
        } = &mut self;
        kernel.drain_events(*now, |k, ev| seen.on_event(k, ev));
        self
    }
}

proptest! {
    /// Incremental and from-scratch encodes agree, for a kernel started
    /// cold and for one restored from an image, with every timer firing.
    #[test]
    fn an_image_does_not_depend_on_the_checkpoints_taken_before_it(seed: u64) {
        let (sc, mut rng) = scenario(seed, true);
        let plain = Replay::cold(&sc).run(&sc, 0, None, &|_| false);
        let all = Replay::cold(&sc).run(&sc, 0, None, &|_| true);
        prop_assert_eq!(all.images.len(), sc.checkpoints);
        prop_assert!(all.seen == plain.seen, "taking checkpoints changed what was delivered");
        for taken in &all.images {
            let alone = Replay::cold(&sc).run(&sc, 0, Some(taken.ordinal), &|o| o == taken.ordinal);
            prop_assert!(
                alone.images[0].image == taken.image,
                "image {} of {}: incremental and from-scratch encodes differ",
                taken.ordinal,
                sc.checkpoints
            );
        }
        // The scenario got where it was meant to: the first wave expired,
        // and the last image holds tombstones (in pool slots that had
        // owners before) next to live streams with state.
        prop_assert!(all.kernel.stats().expired_streams > 0);
        let last = CheckpointImage::decode(&all.images.last().unwrap().image).unwrap();
        prop_assert!(last.streams.iter().any(|s| s.kstate.is_none()));
        prop_assert!(last.streams.iter().any(|s| s.kstate.is_some()));
        // … and the flow-export streams sit in the images with both
        // directions opened and empty, next to UDP streams that carried
        // data.
        let images: Vec<_> = (all.images.iter())
            .map(|t| CheckpointImage::decode(&t.image).unwrap())
            .collect();
        let udp = || {
            let streams = images.iter().flat_map(|img| &img.streams);
            streams.filter_map(|s| s.kstate.as_ref().filter(|ks| ks.conn.is_none()))
        };
        let empty = Some(AsmImage { committed: 0, pending: Vec::new() });
        prop_assert!(udp().any(|ks| ks.asm == [empty.clone(), empty.clone()]));
        prop_assert!(udp().any(|ks| ks.asm.iter().flatten().any(|a| a.committed > 0)));

        // Restore one of the images. The first image the restored kernel
        // takes has nothing to copy from; the later ones do, and each is
        // compared with a second restored kernel that takes only that one.
        let from = &all.images[rng.random_range(0..sc.checkpoints - 1)];
        let mut resumed = Replay::restored(from);
        resumed.checkpoint(1_000, from.pos);
        let resumed = resumed.run(&sc, from.pos + 1, None, &|_| true);
        prop_assert!(resumed.images.len() > 1);
        for taken in &resumed.images[1..] {
            let alone = Replay::restored(from)
                .run(&sc, from.pos + 1, Some(taken.ordinal), &|o| o == taken.ordinal);
            prop_assert!(
                alone.images[0].image == taken.image,
                "image {} after resuming from {}: incremental and from-scratch encodes differ",
                taken.ordinal,
                from.ordinal
            );
        }
    }

    /// A capture resumed from an incremental image, nothing fed twice and
    /// nothing skipped, goes on to deliver what the uninterrupted capture
    /// delivers. (A restore excuses the blackout from every idle clock,
    /// which moves inactivity expiries — and with them uids — so this
    /// scenario lets no stream idle out; and a chunk held back by
    /// `KeepChunk` is not part of an image, so it keeps none.)
    #[test]
    fn a_capture_resumed_from_any_image_delivers_the_same_bytes(seed: u64) {
        let (sc, mut rng) = scenario(seed, false);
        let plain = Replay::cold(&sc).run(&sc, 0, None, &|_| false);
        prop_assert!(plain.seen.bytes.values().map(Vec::len).sum::<usize>() > 2_000);
        let all = Replay::cold(&sc).run(&sc, 0, None, &|_| true);
        prop_assert!(all.seen == plain.seen, "taking checkpoints changed what was delivered");
        for _ in 0..2 {
            let from = &all.images[rng.random_range(0..sc.checkpoints)];
            let resumed = Replay::restored(from).run(&sc, from.pos + 1, None, &|_| true);
            prop_assert!(
                resumed.seen == plain.seen,
                "resuming from image {} changed what was delivered",
                from.ordinal
            );
        }
    }
}
