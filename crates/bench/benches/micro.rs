//! Criterion micro-benchmarks: one group per substrate, measuring the
//! real (wall-clock) throughput of the reproduction's data-path code.
//! These complement the `experiments` binary, which regenerates the
//! paper's figures under the calibrated performance model.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use scap_filter::Filter;
use scap_memory::{Arena, ChunkAssembler};
use scap_patterns::{generate_web_attack_patterns, AhoCorasick, MatcherState};
use scap_reassembly::{DirReassembler, ReasmConfig, ReassemblyMode};
use scap_trace::gen::{CampusMix, CampusMixConfig};
use scap_wire::{parse_frame, FlowKey, PacketBuilder, TcpFlags, Transport};
use std::hint::black_box;

fn bench_wire_parse(c: &mut Criterion) {
    let frame = PacketBuilder::tcp_v4(
        [10, 0, 0, 1],
        [10, 0, 0, 2],
        40000,
        80,
        1,
        1,
        TcpFlags::ACK,
        &[0x41; 1400],
    );
    let mut g = c.benchmark_group("wire");
    g.throughput(Throughput::Bytes(frame.len() as u64));
    g.bench_function("parse_frame_1400B", |b| {
        b.iter(|| parse_frame(black_box(&frame)).unwrap())
    });
    g.finish();
}

fn bench_patterns(c: &mut Criterion) {
    let pats = generate_web_attack_patterns(2120, 42);
    let ac = AhoCorasick::new(&pats, false);
    let data = vec![0x61u8; 64 << 10];
    let mut g = c.benchmark_group("patterns");
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("aho_corasick_scan_64K_2120pats", |b| {
        b.iter(|| {
            let mut st = MatcherState::new();
            black_box(ac.count(&mut st, black_box(&data)))
        })
    });
    g.finish();
}

fn bench_reassembly(c: &mut Criterion) {
    // 64 segments of 1460 B, slightly reordered.
    let mut segs: Vec<(u32, Vec<u8>)> = (0..64u32)
        .map(|i| (i * 1460, vec![(i % 251) as u8; 1460]))
        .collect();
    for i in (1..segs.len()).step_by(7) {
        segs.swap(i - 1, i);
    }
    let total: u64 = segs.iter().map(|(_, d)| d.len() as u64).sum();
    let mut g = c.benchmark_group("reassembly");
    g.throughput(Throughput::Bytes(total));
    g.bench_function("tcp_dir_64segs_reordered", |b| {
        b.iter_batched(
            || DirReassembler::new(ReasmConfig::for_mode(ReassemblyMode::Fast)),
            |mut r| {
                r.set_base(0);
                let mut n = 0u64;
                for (seq, data) in &segs {
                    r.on_data(*seq, data, &mut |_, d| n += d.len() as u64);
                }
                black_box(n)
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_flow_table(c: &mut Criterion) {
    use scap_flow::{FlowTable, FlowTableConfig};
    let keys: Vec<FlowKey> = (0..10_000u32)
        .map(|i| {
            FlowKey::new_v4(
                [10, (i >> 8) as u8, i as u8, 1],
                [93, 184, 216, 34],
                1024 + (i % 60000) as u16,
                443,
                Transport::Tcp,
            )
        })
        .collect();
    let mut g = c.benchmark_group("flow_table");
    g.throughput(Throughput::Elements(keys.len() as u64));
    g.bench_function("insert_lookup_10k", |b| {
        b.iter_batched(
            || FlowTable::new(FlowTableConfig::default(), 7),
            |mut t| {
                for (i, k) in keys.iter().enumerate() {
                    black_box(t.lookup_or_insert(k, i as u64).unwrap());
                }
                for k in &keys {
                    black_box(t.lookup(&k.reversed()));
                }
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();

    // Probe latency at the scale the fast path is built for: a table
    // holding a million live entries, hit from the reverse direction
    // (canonicalization + full-load probe walk).
    let mut t = FlowTable::new(FlowTableConfig::default(), 7);
    let mkey = |i: u32| {
        FlowKey::new_v4(
            [10, (i >> 16) as u8, (i >> 8) as u8, i as u8],
            [93, 184, 216, 34],
            1024 + (i % 60000) as u16,
            443,
            Transport::Tcp,
        )
    };
    const MFLOWS: u32 = 1 << 20;
    for i in 0..MFLOWS {
        t.lookup_or_insert(&mkey(i), u64::from(i))
            .expect("unbounded table");
    }
    let probe_keys: Vec<FlowKey> = (0..1024u32)
        .map(|j| mkey(j * (MFLOWS / 1024)).reversed())
        .collect();
    let mut g = c.benchmark_group("flow_table");
    g.throughput(Throughput::Elements(probe_keys.len() as u64));
    g.bench_function("hit_probe_1m_entries", |b| {
        b.iter(|| {
            let mut found = 0u32;
            for k in &probe_keys {
                found += u32::from(t.lookup(black_box(k)).is_some());
            }
            assert_eq!(found as usize, probe_keys.len());
            black_box(found)
        })
    });
    g.finish();
}

fn bench_filter(c: &mut Criterion) {
    let f = Filter::new("tcp and (dst port 80 or dst port 443) and src net 10.0.0.0/8")
        .expect("valid filter");
    let hit = PacketBuilder::tcp_v4(
        [10, 1, 2, 3],
        [5, 6, 7, 8],
        9999,
        443,
        1,
        1,
        TcpFlags::ACK,
        b"x",
    );
    let miss = PacketBuilder::udp_v4([11, 1, 2, 3], [5, 6, 7, 8], 53, 53, b"x");
    let mut g = c.benchmark_group("filter");
    g.throughput(Throughput::Elements(2));
    g.bench_function("bpf_vm_two_frames", |b| {
        b.iter(|| {
            black_box(f.matches_frame(black_box(&hit)));
            black_box(f.matches_frame(black_box(&miss)));
        })
    });
    g.finish();
}

fn bench_rss(c: &mut Criterion) {
    use scap_nic::RssHasher;
    let h = RssHasher::symmetric(8);
    let k = FlowKey::new_v4(
        [10, 1, 2, 3],
        [93, 184, 216, 34],
        40000,
        443,
        Transport::Tcp,
    );
    let mut g = c.benchmark_group("nic");
    g.throughput(Throughput::Elements(1));
    g.bench_function("toeplitz_rss_v4", |b| {
        b.iter(|| black_box(h.queue_for(black_box(&k))))
    });
    g.finish();
}

fn bench_chunk_assembly(c: &mut Criterion) {
    let data = vec![0x42u8; 1 << 20];
    let mut g = c.benchmark_group("memory");
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("chunk_assembler_1MB_16K_chunks", |b| {
        b.iter_batched(
            || (Arena::new(4 << 20), ChunkAssembler::new(16 << 10, 0)),
            |(mut arena, mut asm)| {
                let mut out = Vec::new();
                for piece in data.chunks(1460) {
                    asm.append(&mut arena, piece, &mut out).unwrap();
                    for cb in out.drain(..) {
                        arena.release(cb);
                    }
                }
                black_box(asm.bytes_copied)
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_generator(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace_gen");
    g.sample_size(10);
    g.bench_function("campus_mix_2MB", |b| {
        b.iter(|| {
            let pkts = CampusMix::new(CampusMixConfig::sized(9, 2 << 20)).collect_all();
            black_box(pkts.len())
        })
    });
    g.finish();
}

fn bench_telemetry(c: &mut Criterion) {
    use scap_telemetry::{AtomicRegistry, Metric, PlainRegistry, Stage};
    let plain = PlainRegistry::new(8);
    let atomic = AtomicRegistry::new(8);
    let mut g = c.benchmark_group("telemetry");
    g.throughput(Throughput::Elements(1));
    // The hot-path contract: a counter record is a single indexed add.
    g.bench_function("counter_add_plain", |b| {
        b.iter(|| plain.add(black_box(3), Metric::WirePackets, black_box(1)))
    });
    g.bench_function("counter_add_atomic", |b| {
        b.iter(|| atomic.add(black_box(3), Metric::WirePackets, black_box(1)))
    });
    g.bench_function("stage_hist_record_plain", |b| {
        b.iter(|| plain.record_stage(black_box(3), Stage::Kernel, black_box(1234)))
    });
    g.finish();
}

fn bench_fastpath_stages(c: &mut Criterion) {
    use scap_fastpath::{hash_burst, pull_burst, DEFAULT_BURST};
    use scap_nic::RxQueue;

    let keys: Vec<Option<FlowKey>> = (0..DEFAULT_BURST as u32)
        .map(|i| {
            Some(FlowKey::new_v4(
                [10, 0, (i >> 8) as u8, i as u8],
                [93, 184, 216, 34],
                1024 + (i % 60000) as u16,
                443,
                Transport::Udp,
            ))
        })
        .collect();
    let mut g = c.benchmark_group("fastpath");
    g.throughput(Throughput::Elements(DEFAULT_BURST as u64));
    g.bench_function("hash_burst_64", |b| {
        let mut out = Vec::with_capacity(DEFAULT_BURST);
        b.iter(|| {
            hash_burst(0x5CA9, black_box(keys.iter().copied()), &mut out);
            black_box(out.len())
        })
    });
    g.bench_function("pull_burst_64", |b| {
        b.iter_batched(
            || {
                let mut ring = RxQueue::new(128);
                for i in 0..DEFAULT_BURST as u32 {
                    assert!(ring.push(i));
                }
                ring
            },
            |mut ring| {
                let mut out = Vec::with_capacity(DEFAULT_BURST);
                black_box(pull_burst(&mut ring, DEFAULT_BURST, &mut out))
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// Real wall-clock dispatch throughput (pkts/s) on a table preloaded
/// with 128 K live flows: classic per-packet polling vs. the batched
/// fast path at several burst sizes. The kernel is built and loaded
/// once per row; each iteration replays a 4096-packet hit batch.
fn bench_fastpath_dispatch(c: &mut Criterion) {
    use scap::{DispatchMode, ScapConfig, ScapKernel};

    const FLOWS: u32 = 1 << 17;
    const HITS: usize = 4096;

    let udp = |i: u32, reversed: bool| {
        let src = [10, (i >> 16) as u8, (i >> 8) as u8, i as u8];
        let dst = [172, 16 + (i >> 16) as u8, (i >> 8) as u8, i as u8];
        let sport = 1024 + (i % 60_000) as u16;
        if reversed {
            PacketBuilder::udp_v4(dst, src, 53, sport, &[])
        } else {
            PacketBuilder::udp_v4(src, dst, sport, 53, &[])
        }
    };
    let drain = |kernel: &mut ScapKernel, fastpath: bool, now: u64| {
        for core in 0..kernel.ncores() {
            loop {
                let w = if fastpath {
                    kernel.poll_burst(core, now)
                } else {
                    kernel.kernel_poll(core, now)
                };
                if w.is_none() {
                    break;
                }
            }
            while kernel.next_event(core).is_some() {}
        }
    };

    let hit_pkts: Vec<scap_trace::Packet> = (0..HITS as u32)
        .map(|j| {
            scap_trace::Packet::new(u64::from(FLOWS + j), udp(j * (FLOWS / HITS as u32), true))
        })
        .collect();

    let mut g = c.benchmark_group("fastpath_dispatch");
    g.throughput(Throughput::Elements(HITS as u64));
    for (id, mode, burst) in [
        ("classic_128k_flows", DispatchMode::Classic, 64),
        ("bypass_burst8_128k_flows", DispatchMode::Fastpath, 8),
        ("bypass_burst64_128k_flows", DispatchMode::Fastpath, 64),
        ("bypass_burst128_128k_flows", DispatchMode::Fastpath, 128),
    ] {
        let cfg = ScapConfig {
            dispatch: mode,
            fastpath_burst: burst,
            inactivity_timeout_ns: u64::MAX / 2,
            ..Default::default()
        };
        let mut kernel = ScapKernel::new(cfg);
        let fastpath = mode == DispatchMode::Fastpath;
        // Preload: one empty-payload UDP packet per flow keeps every
        // record alive in the open-addressed table without touching
        // the arena.
        for i in 0..FLOWS {
            kernel.nic_receive(&scap_trace::Packet::new(u64::from(i) + 1, udp(i, false)));
            if i % 1024 == 1023 {
                drain(&mut kernel, fastpath, u64::from(i) + 1);
            }
        }
        drain(&mut kernel, fastpath, u64::from(FLOWS));
        g.bench_function(id, |b| {
            b.iter(|| {
                for p in &hit_pkts {
                    kernel.nic_receive(black_box(p));
                }
                drain(&mut kernel, fastpath, u64::from(FLOWS) + HITS as u64);
            })
        });
    }
    g.finish();
}

/// The incremental checkpoint encoder at its two ends, on one kernel
/// stopped 16 Ki packets into the amplified campus mix (≈ 700 tracked
/// streams, a 250 KB image — what a `ShardFleet` shard images every 512
/// packets, and the kernel `perf`'s `core.checkpoint_bytes.ms` times):
/// `checkpoint_idle` re-images it with nothing touched in between, so
/// every stream frame is copied from the retained image;
/// `checkpoint_all_dirty` images a kernel just restored from that image,
/// where every stream goes through the encoder and the CRC — what every
/// image cost before the encoder was incremental.
fn bench_checkpoint(c: &mut Criterion) {
    use scap::checkpoint::CheckpointImage;
    use scap::{ScapConfig, ScapKernel};
    use scap_trace::{Amplifier, AmplifyConfig};

    let base = CampusMix::new(CampusMixConfig::sized(42, 16 << 20)).collect_all();
    let pkts: Vec<scap_trace::Packet> = Amplifier::new(base.into_iter(), AmplifyConfig::by(4))
        .take(1 << 14)
        .collect();
    let now = pkts.last().unwrap().ts_ns;
    let mut kernel = ScapKernel::new(ScapConfig::default());
    for batch in pkts.chunks(256) {
        for p in batch {
            kernel.nic_receive(p);
        }
        kernel.service(batch.last().unwrap().ts_ns, |k, ev| k.release_event(ev));
    }
    let mut image = Vec::new();
    kernel.checkpoint_into(now, 1, &mut image);
    let streams = CheckpointImage::decode(&image).unwrap().streams.len();
    assert!(streams > 500, "only {streams} streams to image");

    let mut g = c.benchmark_group("core");
    g.throughput(Throughput::Bytes(image.len() as u64));
    g.bench_function("checkpoint_idle", |b| {
        b.iter(|| {
            kernel.checkpoint_into(now, 2, &mut image);
            black_box(image.len())
        })
    });
    g.bench_function("checkpoint_all_dirty", |b| {
        let mut out = Vec::with_capacity(image.len());
        b.iter_batched(
            || ScapKernel::from_image(CheckpointImage::decode(&image).unwrap(), None).unwrap(),
            |mut restored| {
                restored.checkpoint_into(now, 2, &mut out);
                black_box(out.len());
                restored
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn bench_scap_end_to_end(c: &mut Criterion) {
    use scap::apps::PatternMatchApp;
    use scap::{ScapConfig, ScapKernel, ScapSimStack};
    use scap_sim::CaptureStack;
    use scap_sim::CoreBudgets;

    let pats = generate_web_attack_patterns(512, 3);
    let trace = CampusMix::new(CampusMixConfig::sized(5, 4 << 20)).collect_all();
    let bytes: u64 = trace.iter().map(|p| p.len() as u64).sum();
    let ac = AhoCorasick::new(&pats, false);
    let mut g = c.benchmark_group("end_to_end");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(bytes));
    g.bench_function("scap_kernel_plus_matching_4MB", |b| {
        b.iter_batched(
            || {
                (
                    ScapSimStack::new(
                        ScapKernel::new(ScapConfig::default()),
                        PatternMatchApp::new(ac.clone()),
                    ),
                    CoreBudgets::new(
                        scap_sim::CostModel {
                            core_hz: 1e15,
                            ..Default::default()
                        },
                        8,
                        1_000_000,
                    ),
                )
            },
            |(mut stack, mut budgets)| {
                stack.tick(0, &trace, &mut budgets);
                stack.finish(1);
                black_box(stack.stats().matches)
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_wire_parse,
    bench_patterns,
    bench_reassembly,
    bench_flow_table,
    bench_filter,
    bench_rss,
    bench_chunk_assembly,
    bench_generator,
    bench_telemetry,
    bench_fastpath_stages,
    bench_fastpath_dispatch,
    bench_checkpoint,
    bench_scap_end_to_end,
);
criterion_main!(benches);
