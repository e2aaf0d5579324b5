//! Criterion micro-benchmarks for what `perf`'s layer table
//! (`BENCHMARK.json`, `per_layer`) has no row for: classic against
//! fast-path dispatch at several burst sizes on a preloaded table — hot
//! (the same 4096 flows every iteration) and cold (all 128 K in seeded
//! random order) — and the checkpoint encoder at its idle and all-dirty
//! ends. Every other layer is timed by `perf run`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use scap_trace::gen::{CampusMix, CampusMixConfig};
use scap_wire::PacketBuilder;
use std::hint::black_box;

/// Real wall-clock dispatch throughput (pkts/s) on a table preloaded
/// with 128 K live flows: classic per-packet polling vs. the batched
/// fast path at several burst sizes. The kernel is built and loaded
/// once per row; each iteration replays a 4096-packet hit batch. The
/// `_128k_flows` rows replay the same batch every time, so the 4096
/// flows it hits stay in cache and the rows show per-packet work; the
/// `cold_` rows walk a seeded random draw over all the flows, so every
/// hit is a probe of lines last seen ≈ 128 K packets ago — the case a
/// burst stages its table walk for (DESIGN §9.1).
fn bench_fastpath_dispatch(c: &mut Criterion) {
    use scap::{DispatchMode, ScapConfig, ScapKernel};

    const FLOWS: u32 = 1 << 17;
    const HITS: usize = 4096;
    const COLD_SEED: u64 = 42;

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

    let hit = |j: u32, flow: u32| scap_trace::Packet::new(u64::from(FLOWS + j), udp(flow, true));
    let hot_pkts: Vec<scap_trace::Packet> = (0..HITS as u32)
        .map(|j| hit(j, j * (FLOWS / HITS as u32)))
        .collect();
    let cold_pkts: Vec<scap_trace::Packet> = (0..FLOWS)
        .map(|j| {
            let draw = scap_wire::splitmix64(COLD_SEED ^ u64::from(j));
            hit(j % HITS as u32, (draw % u64::from(FLOWS)) as u32)
        })
        .collect();

    let mut g = c.benchmark_group("fastpath_dispatch");
    g.throughput(Throughput::Elements(HITS as u64));
    use DispatchMode::{Classic, Fastpath};
    for (id, mode, burst, cold) in [
        ("classic_128k_flows", Classic, 64, false),
        ("bypass_burst8_128k_flows", Fastpath, 8, false),
        ("bypass_burst64_128k_flows", Fastpath, 64, false),
        ("bypass_burst128_128k_flows", Fastpath, 128, false),
        ("classic_cold_128k_flows", Classic, 64, true),
        ("bypass_burst64_cold_128k_flows", Fastpath, 64, true),
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
        let mut batches = if cold { &cold_pkts } else { &hot_pkts }
            .chunks(HITS)
            .cycle();
        g.bench_function(id, |b| {
            b.iter(|| {
                for p in batches.next().expect("a cycle does not end") {
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

criterion_group!(benches, bench_fastpath_dispatch, bench_checkpoint,);
criterion_main!(benches);
