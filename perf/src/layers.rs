//! Each layer on its own: wall time around public calls of one crate,
//! on inputs taken from the workload's own trace (or, for the table
//! layers, on the same 2^18 synthetic flows for every workload, so the
//! numbers compare across workloads). Nothing here is modelled.

use crate::gen;
use crate::procfs::rss_bytes;
use crate::span::Tracer;
use crate::stats::median;
use crate::workloads::{FLEET_SHARDS, FLOWS};
use scap::{
    CheckpointImage, Event, FleetConfig, FlightEvent, FlightKind, FlightLayer, FlightRecorder,
    FlowKey, ScapConfig, ScapKernel, ShardMap, TenantEngine, TenantSpec,
};
use scap_filter::Filter;
use scap_flow::{FlowTable, FlowTableConfig};
use scap_memory::{Arena, ChunkAssembler};
use scap_nic::{Nic, RssHasher};
use scap_offload::{OffloadAction, OffloadRule, OffloadTable};
use scap_patterns::{builtin_web_patterns, AhoCorasick, MatcherState};
use scap_reassembly::{ReasmConfig, ReassemblyMode, TcpConn};
use scap_telemetry::{Metric, PlainRegistry, Pulse, PulseStage};
use scap_trace::{Amplifier, AmplifyConfig, CampusMix, CampusMixConfig, Packet};
use scap_wire::{parse_frame, Direction, ParsedPacket, TcpMeta};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Packets of the workload's trace the per-packet layers are run on.
const SAMPLE: usize = 1 << 17;
/// Packets driven into a kernel before it is checkpointed, and whose
/// events feed the tenant layer.
const KERNEL_SAMPLE: usize = 1 << 14;
/// Flows preloaded to measure kernel state per flow.
const STATE_FLOWS: u32 = 1 << 16;
/// Repetitions of each timed pass; the median is reported.
const REPS: usize = 5;

/// Median over [`REPS`] passes of `ns / ops`, where each pass first
/// builds fresh state off the clock with `fresh` and `pass` returns the
/// operations it did. 0 when a pass has nothing to do.
fn ns_per_op<S>(mut fresh: impl FnMut() -> S, mut pass: impl FnMut(&mut S) -> u64) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .filter_map(|_| {
            let mut state = fresh();
            let t0 = Instant::now();
            let ops = pass(&mut state);
            let ns = t0.elapsed().as_nanos() as f64;
            black_box(&mut state);
            (ops > 0).then(|| ns / ops as f64)
        })
        .collect();
    median(&samples)
}

/// Megabytes per second from bytes moved at `ns_per_byte`.
fn mbytes_per_s(ns_per_byte: f64) -> f64 {
    if ns_per_byte > 0.0 {
        1e3 / ns_per_byte
    } else {
        0.0
    }
}

/// A TCP segment: `(connection index, direction, header, payload)`.
type Segment<'a> = (usize, Direction, TcpMeta, &'a [u8]);

/// The per-packet views of the sample every layer run shares.
struct Sample<'a> {
    pkts: &'a [Packet],
    parsed: Vec<ParsedPacket<'a>>,
    keys: Vec<FlowKey>,
}

impl<'a> Sample<'a> {
    fn of(trace: &'a [Packet]) -> Self {
        let pkts = &trace[..trace.len().min(SAMPLE)];
        let parsed: Vec<ParsedPacket<'a>> = pkts
            .iter()
            .filter_map(|p| parse_frame(&p.frame).ok())
            .collect();
        let keys = parsed.iter().filter_map(|p| p.key).collect();
        Sample { pkts, parsed, keys }
    }

    /// TCP segments and the number of connections they belong to.
    fn segments(&self) -> (Vec<Segment<'a>>, usize) {
        let mut conns: HashMap<FlowKey, usize> = HashMap::new();
        let segs = self
            .parsed
            .iter()
            .filter_map(|p| {
                let (canon, dir) = p.key?.canonical();
                let next = conns.len();
                let idx = *conns.entry(canon).or_insert(next);
                Some((idx, dir, p.tcp?, p.payload()))
            })
            .collect();
        (segs, conns.len())
    }
}

/// Flow keys of the synthetic concurrent-flows set.
fn synthetic_keys(seed: u64, flows: u32) -> Vec<FlowKey> {
    gen::udp_flows(seed, flows)
        .iter()
        .map(|p| {
            parse_frame(&p.frame)
                .ok()
                .and_then(|p| p.key)
                .expect("generated UDP frames carry a flow key")
        })
        .collect()
}

/// The table layers, on the same 2^18 synthetic flows for every
/// workload. Memory is measured as growth of the resident set, so this
/// runs first in the process, before the workload's own allocations
/// (and frees, which the allocator keeps) would hide the growth.
pub fn tables(seed: u64) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    flow_table(&synthetic_keys(seed, FLOWS), seed, &mut out);
    kernel_state(seed, &mut out);
    out
}

/// Every other isolated layer, on packets of the workload's own trace.
pub fn on_trace(trace: &[Packet], cfg: &ScapConfig, seed: u64) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let sample = Sample::of(trace);
    per_packet(&sample, &synthetic_keys(seed, FLOWS), seed, &mut out);
    stream_layers(&sample, &mut out);
    kernel_layers(sample.pkts, cfg, &mut out);
    small_ops(&mut out);
    generators(sample.pkts, seed, &mut out);
    out
}

fn flow_table(keys: &[FlowKey], seed: u64, out: &mut Vec<(&'static str, f64)>) {
    let n = keys.len() as u64;
    let order = gen::hit_order(seed, keys.len() as u32, 2 * keys.len());
    let (mut insert, mut lookup, mut expire, mut evict, mut bytes) =
        (vec![], vec![], vec![], vec![], vec![]);
    for _ in 0..3 {
        let rss0 = rss_bytes();
        let t0 = Instant::now();
        let mut table = FlowTable::new(FlowTableConfig::default(), seed);
        for (i, k) in keys.iter().enumerate() {
            black_box(table.lookup_or_insert(k, i as u64).is_ok());
        }
        insert.push(t0.elapsed().as_nanos() as f64 / n as f64);
        bytes.push(rss_bytes().saturating_sub(rss0) as f64 / n as f64);

        let t0 = Instant::now();
        for i in &order {
            black_box(table.lookup(&keys[*i as usize]));
        }
        lookup.push(t0.elapsed().as_nanos() as f64 / order.len() as f64);

        // Every record is older than the deadline: sweep half of them
        // in the kernel's bounded steps, evict the rest one by one.
        let t0 = Instant::now();
        let mut expired = 0;
        while expired < n / 2 {
            expired += table.expire_inactive(u64::MAX, 1, 1024).len() as u64;
        }
        expire.push(t0.elapsed().as_nanos() as f64 / expired as f64);
        let t0 = Instant::now();
        let mut evicted = 0u64;
        while table.evict_tiered(8).is_some() {
            evicted += 1;
        }
        evict.push(t0.elapsed().as_nanos() as f64 / evicted.max(1) as f64);
    }
    out.extend([
        ("flow.insert.ns_per_op", median(&insert)),
        ("flow.table_bytes_per_entry", median(&bytes)),
        ("flow.lookup_hit.ns_per_op", median(&lookup)),
        ("flow.expire_inactive.ns_per_op", median(&expire)),
        ("flow.evict_tiered.ns_per_op", median(&evict)),
    ]);
}

/// Resident bytes a kernel holds per tracked flow: growth of the
/// resident set while it admits [`STATE_FLOWS`] header-only UDP flows.
fn kernel_state(seed: u64, out: &mut Vec<(&'static str, f64)>) {
    let pkts = gen::udp_flows(seed ^ 0x57A7E, STATE_FLOWS);
    let mut cfg = ScapConfig {
        inactivity_timeout_ns: u64::MAX / 2,
        ..ScapConfig::default()
    };
    cfg.cutoff.default = Some(0);
    let rss0 = rss_bytes();
    let mut kernel = ScapKernel::new(cfg);
    crate::drive::drive(&mut kernel, &pkts, &mut |_| {}, &mut Tracer::new(false));
    let grown = rss_bytes().saturating_sub(rss0);
    black_box(&kernel);
    out.push((
        "core.state_bytes_per_flow",
        grown as f64 / f64::from(STATE_FLOWS),
    ));
}

fn per_packet(
    s: &Sample<'_>,
    synthetic: &[FlowKey],
    seed: u64,
    out: &mut Vec<(&'static str, f64)>,
) {
    out.push((
        "wire.parse_frame.ns_per_pkt",
        ns_per_op(
            || (),
            |()| {
                for p in s.pkts {
                    black_box(parse_frame(black_box(&p.frame)).is_ok());
                }
                s.pkts.len() as u64
            },
        ),
    ));
    let filter = Filter::new("tcp and dst port 80").expect("a valid filter expression");
    out.push((
        "filter.matches_frame.ns_per_pkt",
        ns_per_op(
            || (),
            |()| {
                for p in s.pkts {
                    black_box(filter.matches_frame(black_box(&p.frame)));
                }
                s.pkts.len() as u64
            },
        ),
    ));
    let rss = RssHasher::symmetric(ScapConfig::default().cores);
    out.push((
        "nic.rss_queue_for.ns_per_pkt",
        ns_per_op(
            || (),
            |()| {
                for k in &s.keys {
                    black_box(rss.queue_for(black_box(k)));
                }
                s.keys.len() as u64
            },
        ),
    ));
    // Rings deep enough to take the whole sample: admission only, the
    // poll side belongs to the kernel spans.
    out.push((
        "nic.receive.ns_per_pkt",
        ns_per_op(
            || Nic::<u32>::new(ScapConfig::default().cores, s.parsed.len().max(1)),
            |nic| {
                for (i, p) in s.parsed.iter().enumerate() {
                    black_box(nic.receive(p, i as u32));
                }
                s.parsed.len() as u64
            },
        ),
    ));

    // 2^18 rules: the sample's own flows first, so every lookup hits a
    // rule that lets the frame continue, then synthetic flows to fill.
    let mut table = OffloadTable::new(FLOWS as usize, seed);
    for k in s.keys.iter().chain(synthetic) {
        if table.len() == FLOWS as usize {
            break;
        }
        let _ = table.add(OffloadRule::new(*k, OffloadAction::Mark(1), 0));
    }
    out.push((
        "offload.lookup.ns_per_pkt",
        ns_per_op(
            || (),
            |()| {
                for p in &s.parsed {
                    black_box(table.lookup(p));
                }
                s.parsed.len() as u64
            },
        ),
    ));
    drop(table);

    let mut hashed = Vec::with_capacity(scap_fastpath::DEFAULT_BURST);
    out.push((
        "fastpath.hash_burst.ns_per_pkt",
        ns_per_op(
            || (),
            |()| {
                for burst in s.keys.chunks(scap_fastpath::DEFAULT_BURST) {
                    scap_fastpath::hash_burst(seed, burst.iter().copied().map(Some), &mut hashed);
                    black_box(&hashed);
                }
                s.keys.len() as u64
            },
        ),
    ));

    let map = ShardMap::new(FLEET_SHARDS, FleetConfig::default().partition_seed);
    let mut per_shard = [0u64; FLEET_SHARDS];
    out.push((
        "shard.shard_of.ns_per_pkt",
        ns_per_op(
            || (),
            |()| {
                per_shard = [0; FLEET_SHARDS];
                for k in &s.keys {
                    per_shard[map.shard_of(k)] += 1;
                }
                s.keys.len() as u64
            },
        ),
    ));
    let total: u64 = per_shard.iter().sum();
    let busiest = per_shard.iter().copied().max().unwrap_or(0);
    out.push((
        "shard.skew_permille",
        if total == 0 {
            0.0
        } else {
            // How far the busiest shard is above an even share.
            (busiest * FLEET_SHARDS as u64 * 1000) as f64 / total as f64 - 1000.0
        },
    ));

    let ac = AhoCorasick::new(&builtin_web_patterns(), true);
    let payload_bytes: u64 = s.parsed.iter().map(|p| p.payload_len as u64).sum();
    out.push((
        "patterns.count.mbytes_per_s",
        mbytes_per_s(ns_per_op(
            || (),
            |()| {
                for p in &s.parsed {
                    black_box(ac.count(&mut MatcherState::new(), p.payload()));
                }
                payload_bytes
            },
        )),
    ));
}

fn stream_layers(s: &Sample<'_>, out: &mut Vec<(&'static str, f64)>) {
    let (segs, nconns) = s.segments();
    let reasm = ReasmConfig::for_mode(ReassemblyMode::Fast);
    out.push((
        "reassembly.on_segment.ns_per_pkt",
        ns_per_op(
            || (0..nconns).map(|_| TcpConn::new(reasm)).collect::<Vec<_>>(),
            |conns| {
                let mut delivered = 0u64;
                for (idx, dir, meta, payload) in &segs {
                    black_box(conns[*idx].on_segment(*dir, meta, payload, &mut |_, data| {
                        delivered += data.len() as u64;
                    }));
                }
                black_box(delivered);
                segs.len() as u64
            },
        ),
    ));

    // Payload-carrying packets of either transport, appended to their
    // stream direction's chunk; full chunks go straight back. The kernel
    // flushes idle streams' partial chunks on a timer, so only some
    // streams hold a block at any moment: here, OPEN_STREAMS of them.
    const OPEN_STREAMS: usize = 256;
    let chunk_size = ScapConfig::default().chunk_size;
    let mut streams: HashMap<(FlowKey, Direction), usize> = HashMap::new();
    let payloads: Vec<(usize, &[u8])> = s
        .parsed
        .iter()
        .filter(|p| p.payload_len > 0)
        .filter_map(|p| {
            let next = streams.len();
            let idx = *streams.entry(p.key?.canonical()).or_insert(next);
            Some((idx % OPEN_STREAMS, p.payload()))
        })
        .collect();
    let bytes: u64 = payloads.iter().map(|(_, d)| d.len() as u64).sum();
    let fresh = || {
        let assemblers: Vec<ChunkAssembler> = (0..OPEN_STREAMS)
            .map(|_| ChunkAssembler::new(chunk_size, 0))
            .collect();
        (
            assemblers,
            Arena::new(ScapConfig::default().memory_bytes),
            Vec::new(),
        )
    };
    let per_pkt = ns_per_op(fresh, |(assemblers, arena, done)| {
        for (idx, data) in &payloads {
            let _ = assemblers[*idx].append(arena, data, done);
            for chunk in done.drain(..) {
                arena.release(chunk);
            }
        }
        payloads.len() as u64
    });
    out.push(("memory.append.ns_per_pkt", per_pkt));
    out.push((
        "memory.append.mbytes_per_s",
        if bytes == 0 {
            0.0
        } else {
            mbytes_per_s(per_pkt * payloads.len() as f64 / bytes as f64)
        },
    ));
}

/// Drive `pkts` through `kernel` keeping every event (and so every
/// chunk) instead of handing it back.
fn collect_events(kernel: &mut ScapKernel, pkts: &[Packet]) -> Vec<Event> {
    let mut events = Vec::new();
    for batch in pkts.chunks(crate::drive::BATCH) {
        for p in batch {
            kernel.nic_receive(p);
        }
        let now = batch.last().expect("chunks are non-empty").ts_ns;
        for core in 0..kernel.ncores() {
            while kernel.kernel_poll(core, now).is_some() {}
            kernel.kernel_timers(core, now);
            while let Some(ev) = kernel.next_event(core) {
                events.push(ev);
            }
        }
    }
    events
}

fn kernel_layers(pkts: &[Packet], cfg: &ScapConfig, out: &mut Vec<(&'static str, f64)>) {
    let pkts = &pkts[..pkts.len().min(KERNEL_SAMPLE)];
    let mut kernel = ScapKernel::new(ScapConfig {
        dispatch: scap::DispatchMode::Classic,
        ..cfg.clone()
    });
    let events = collect_events(&mut kernel, pkts);
    let now = pkts.last().map_or(0, |p| p.ts_ns);

    let mut image = Vec::new();
    let mut seq = 0;
    let encode_ns = ns_per_op(
        || (),
        |()| {
            seq += 1;
            image = kernel.checkpoint_bytes(now, seq);
            1
        },
    );
    out.push(("core.checkpoint_bytes.ms", encode_ns / 1e6));
    out.push(("core.checkpoint_image_bytes", image.len() as f64));
    // What a respawn pays: decode the image, rebuild the kernel.
    let restore_ns = ns_per_op(
        || (),
        |()| {
            let img = CheckpointImage::decode(&image).expect("a checkpoint just written decodes");
            black_box(ScapKernel::from_image(img, None).is_ok());
            1
        },
    );
    out.push(("core.from_image.ms", restore_ns / 1e6));

    let fresh = || {
        let mut engine = TenantEngine::new(1 << 30, 8);
        engine
            .attach(
                TenantSpec {
                    name: "perf".into(),
                    mem_share: 1000,
                    disk_share: 1000,
                    ..TenantSpec::default()
                },
                0,
                None,
            )
            .expect("a lone tenant asking for every share is admitted");
        (engine, FlightRecorder::new(cfg.cores, cfg.flight_ring_cap))
    };
    out.push((
        "core.tenant.on_event.ns_per_event",
        ns_per_op(fresh, |(engine, flight)| {
            for ev in &events {
                engine.on_event(ev, flight);
            }
            events.len() as u64
        }),
    ));
}

fn small_ops(out: &mut Vec<(&'static str, f64)>) {
    const OPS: u64 = 1 << 20;
    let cores = ScapConfig::default().cores;
    out.push((
        "flight.emit.ns_per_event",
        ns_per_op(
            || FlightRecorder::new(cores, scap::flight::DEFAULT_RING_CAP),
            |flight| {
                for i in 0..OPS {
                    flight.emit(
                        i as usize % cores,
                        FlightEvent::new(FlightKind::StreamTerminated, FlightLayer::Kernel, i)
                            .with_uid(i)
                            .with_vals(1, 64),
                    );
                }
                OPS
            },
        ),
    ));
    out.push((
        "telemetry.counter_add.ns_per_op",
        ns_per_op(
            || PlainRegistry::new(cores),
            |reg| {
                for i in 0..OPS {
                    reg.add(i as usize % cores, Metric::WireBytes, black_box(i));
                }
                OPS
            },
        ),
    ));
    let d = ScapConfig::default();
    out.push((
        "telemetry.pulse_record.ns_per_op",
        ns_per_op(
            || Pulse::new(d.pulse_exemplar_permille, d.pulse_exemplar_cap),
            |pulse| {
                for i in 0..OPS {
                    pulse.record(PulseStage::NicVerdict, black_box(100 + (i & 0xfff)));
                }
                OPS
            },
        ),
    ));
}

/// The generators, timed so that set-up cost is never mistaken for the
/// program's.
fn generators(pkts: &[Packet], seed: u64, out: &mut Vec<(&'static str, f64)>) {
    out.push((
        "trace.campus_gen.ns_per_pkt",
        ns_per_op(
            || (),
            |()| {
                let trace = CampusMix::new(CampusMixConfig::sized(seed, 4 << 20)).collect_all();
                black_box(&trace);
                trace.len() as u64
            },
        ),
    ));
    let base = &pkts[..pkts.len().min(KERNEL_SAMPLE)];
    out.push((
        "trace.amplify.ns_per_pkt",
        ns_per_op(
            || (),
            |()| {
                let mut n = 0;
                for p in Amplifier::new(base.iter().cloned(), AmplifyConfig::by(4)) {
                    black_box(p);
                    n += 1;
                }
                n
            },
        ),
    ));
}

/// The layers on a workload's per-packet path, each with how many times
/// a wire packet pays it: the numerator of `layers_sum_share_permille`.
/// `events_per_pkt` is the measured event rate of the composed run.
/// The multipliers are read off the code (two frame parses per packet —
/// NIC admission and kernel poll —, about eight counter updates and two
/// pulse records) and off the workload's construction; they are an
/// estimate, which is why the share is reported and not gated.
pub fn path(workload: &str, events_per_pkt: f64) -> Vec<(&'static str, f64)> {
    let mut p = vec![
        ("wire.parse_frame.ns_per_pkt", 2.0),
        ("nic.receive.ns_per_pkt", 1.0),
        ("flow.lookup_hit.ns_per_op", 1.0),
        ("telemetry.counter_add.ns_per_op", 8.0),
        ("telemetry.pulse_record.ns_per_op", 2.0),
    ];
    let streams = [
        ("reassembly.on_segment.ns_per_pkt", 1.0),
        ("memory.append.ns_per_pkt", 1.0),
    ];
    match workload {
        "campus_stream" | "live_deliver" => p.extend(streams),
        "flows_256k_hit" => p.push(("fastpath.hash_burst.ns_per_pkt", 1.0)),
        "flow_churn" => p.extend([
            ("reassembly.on_segment.ns_per_pkt", 1.0),
            // One stream per 4.75 packets; one in four of them expires.
            ("flow.insert.ns_per_op", 1.0 / 4.75),
            ("flow.expire_inactive.ns_per_op", 0.25 / 4.75),
        ]),
        "fleet_archive" => {
            p.extend(streams);
            p.extend([
                ("wire.parse_frame.ns_per_pkt", 1.0),
                ("shard.shard_of.ns_per_pkt", 1.0),
                ("store.observe.ns_per_event", events_per_pkt),
                // One checkpoint per `checkpoint_interval_pkts` packets
                // of a shard, reported in ms.
                (
                    "core.checkpoint_bytes.ms",
                    1e6 / FleetConfig::default().checkpoint_interval_pkts as f64,
                ),
            ]);
        }
        _ => {}
    }
    p
}
