#![forbid(unsafe_code)]

//! scaptop — a `top`-style live dashboard over a Scap capture.
//!
//! Drives the kernel synchronously over a pcap file (or a synthetic
//! campus trace) and redraws a terminal dashboard every `--interval`
//! packets: per-queue rates, overload-governor level, arena occupancy,
//! the flight recorder's drop breakdown by layer and reason, and the
//! top-K streams by delivered bytes.
//!
//! On a TTY each frame repaints in place (ANSI clear); when stdout is a
//! pipe the frames print sequentially, which is what the CI smoke run
//! consumes. All numbers are keyed on the trace's virtual clock, so the
//! same trace and seed render byte-identical frames; `--delay-ms` adds
//! wall-clock pacing between frames for watching live.
//!
//! ```text
//! scaptop trace.pcap                    # dashboard over a pcap
//! scaptop trace.pcap "tcp and port 80"  # with a BPF filter
//! scaptop --gen 8                       # synthetic 8 MB campus trace
//! scaptop --gen 8 --interval 2000 --topk 5 --cutoff 16384 --delay-ms 100
//! scaptop --scapd /tmp/ctl              # per-tenant panel of a scapd instance
//! scaptop --gen 8 --shards 4            # sharded-fleet panel
//! scaptop --gen 8 --shards 4 --storm    # ... under a seeded shard-kill storm
//! ```
//!
//! With `--shards N` the trace is partitioned across an in-process
//! [`scap::ShardFleet`]: the panel shows each shard's supervisor state,
//! lease age, partition share, respawn/kill counters, and the exact
//! packet/byte loss attributed to its blackouts; `--storm` runs the
//! seeded shard-kill storm on top. The final line checks the fleet
//! conservation identity and the exit code reports it.
//!
//! With `--scapd DIR` scaptop does not capture anything itself: it
//! polls the daemon's OpenMetrics `metrics` file in the control
//! directory, reads the tenant rows back with
//! [`scap_bench::render::parse_scapd_status`], and renders a per-tenant panel — delivered rate, queue depth against
//! the quota cap, quota headroom, and drop attribution (slow-consumer
//! drops vs the tenant's own cutoff discards) — until the daemon
//! writes its `scapd-done` marker.

use scap::telemetry::{Gauge, Metric, Snapshot};
use scap::{DispatchMode, EventKind, ScapConfig, ScapKernel};
use scap_bench::render::{
    bar, latency_panel, mbit_per_sec, parse_scapd_status, permille, rate_per_sec, Frame,
    LatencyHistory,
};
use scap_flight::{attribution, FlightKind};
use scap_trace::gen::{CampusMix, CampusMixConfig};
use scap_trace::pcap::PcapReader;
use scap_trace::Packet;
use std::collections::HashMap;

fn die(msg: &str) -> ! {
    eprintln!("scaptop: {msg}");
    std::process::exit(2);
}

/// Per-queue counters remembered from the previous frame, for rates.
#[derive(Clone, Copy, Default)]
struct QueuePrev {
    pkts: u64,
    bytes: u64,
}

struct Dashboard {
    interval: u64,
    topk: usize,
    frame: Frame,
    fastpath: bool,
    offload: bool,
    latency: bool,
    latency_hist: LatencyHistory,
    prev_ts_ns: u64,
    prev_fp_pkts: u64,
    prev_evictions: u64,
    prev_queues: Vec<QueuePrev>,
    /// uid -> (flow key, delivered bytes), fed by Data events.
    streams: HashMap<u64, (String, u64)>,
}

impl Dashboard {
    fn render(&mut self, kernel: &ScapKernel, fed: usize, total: usize, now_ns: u64) {
        let snap: Snapshot = kernel.telemetry_snapshot();
        let out = self.frame.begin();
        let dt = (now_ns.saturating_sub(self.prev_ts_ns)) as f64 / 1e9;
        out.push_str(&format!(
            "scaptop — {fed}/{total} packets | trace time {:.3} s | wire {} pkts / {} B | {} streams tracked\n\n",
            now_ns as f64 / 1e9,
            snap.total(Metric::WirePackets),
            snap.total(Metric::WireBytes),
            snap.gauge(0, Gauge::TrackedStreams),
        ));

        // Per-queue delivered rates over the last frame window (virtual
        // time). Delivered counters are sharded per core/queue; wire
        // counters live on shard 0 and show up in the header instead.
        out.push_str(
            "queue delivered      bytes    pkt/s (window)  Mbit/s (window)  streams  backlog\n",
        );
        let nq = kernel.ncores();
        self.prev_queues.resize(nq, QueuePrev::default());
        for q in 0..nq {
            let pkts = snap.counter(q, Metric::DeliveredPackets);
            let bytes = snap.counter(q, Metric::DeliveredBytes);
            let prev = self.prev_queues[q];
            let rate_p = rate_per_sec(pkts - prev.pkts, dt);
            let rate_b = mbit_per_sec(bytes - prev.bytes, dt);
            out.push_str(&format!(
                "  q{q:<3} {pkts:>9} {bytes:>10} {rate_p:>15.0} {rate_b:>16.2} {streams:>8} {backlog:>8}\n",
                streams = kernel.tracked_streams(q),
                backlog = kernel.event_backlog(q),
            ));
            self.prev_queues[q] = QueuePrev { pkts, bytes };
        }
        self.prev_ts_ns = now_ns;

        // Gauges: governor, arena, backlog, ring fill.
        let arena = snap.gauge(0, Gauge::ArenaUsedPermille);
        let ring = snap.gauge(0, Gauge::RingFillPermille);
        out.push_str(&format!(
            "\ngovernor level {}   arena {} [{}]   ring fill {}   event backlog {}   fdir filters {}\n",
            snap.gauge(0, Gauge::GovernorLevel),
            permille(arena),
            bar(arena),
            permille(ring),
            snap.gauge(0, Gauge::EventBacklog),
            snap.gauge(0, Gauge::FdirFilters),
        ));

        // Flow-table health: load factor of the open-addressed index
        // and mean probe length in cache-line groups per lookup.
        let load = snap.gauge(0, Gauge::FlowLoadPermille);
        let probe = snap.gauge(0, Gauge::FlowProbeCentigroups);
        out.push_str(&format!(
            "flow table     load {} [{}]   probe length {}.{:02} groups/lookup\n",
            permille(load),
            bar(load),
            probe / 100,
            probe % 100,
        ));
        // Poll-mode panel: how full the bursts run and the dispatch rate.
        let fp_pkts = snap.total(Metric::FastpathPackets);
        if self.fastpath {
            let fill = snap.gauge(0, Gauge::FastpathFillPermille);
            let fp_rate = rate_per_sec(fp_pkts - self.prev_fp_pkts, dt);
            out.push_str(&format!(
                "fast path      burst fill {} [{}]   {} bursts / {} pkts   {:.0} pkt/s (window)\n",
                permille(fill),
                bar(fill),
                snap.total(Metric::FastpathBursts),
                fp_pkts,
                fp_rate,
            ));
        }
        self.prev_fp_pkts = fp_pkts;

        // Offload panel: how much the NIC-stage rule table is resolving
        // before the host, and its churn under capacity pressure.
        if self.offload {
            let os = kernel.offload_stats();
            let wire = snap.total(Metric::WirePackets).max(1);
            let hit_pct = 100.0 * os.hits as f64 / wire as f64;
            let load = kernel.offload_load_permille();
            let ev_rate = rate_per_sec(os.evictions - self.prev_evictions, dt);
            out.push_str(&format!(
                "offload        rules {}   load {} [{}]   hit rate {:.1}%   evictions {} ({:.0}/s window)\n",
                kernel.offload_rules(),
                permille(load),
                bar(load),
                hit_pct,
                os.evictions,
                ev_rate,
            ));
            out.push_str(&format!(
                "offload mix    drop {} pkts / {} B   sample {} kept / {} shed   bypass {}   mark {}   punt {}\n",
                os.drop_frames,
                os.drop_bytes,
                os.sample_kept_frames,
                os.sample_drop_frames,
                os.bypass_frames,
                os.mark_frames,
                os.control_passthrough,
            ));
            self.prev_evictions = os.evictions;
        }

        // Drop breakdown straight from the flight recorder.
        let events = kernel.flight().events();
        out.push_str("\nloss attribution (flight recorder)\n");
        let rows = attribution(&events);
        if rows.is_empty() {
            out.push_str("  no losses recorded\n");
        }
        for r in rows.iter().take(6) {
            out.push_str(&format!(
                "  {:<8} {:<12} {:<16} {:>8} events {:>10} pkts {:>12} bytes\n",
                r.kind.name(),
                r.layer.name(),
                r.reason.name(),
                r.events,
                r.pkts,
                r.bytes,
            ));
        }
        let overwritten: u64 = kernel.flight().total_dropped();
        if overwritten > 0 {
            out.push_str(&format!(
                "  (+{overwritten} journal events overwritten by ring wrap)\n"
            ));
        }

        // Top-K streams by delivered bytes.
        out.push_str(&format!("\ntop {} streams by delivered bytes\n", self.topk));
        let mut top: Vec<(&u64, &(String, u64))> = self.streams.iter().collect();
        top.sort_by_key(|(uid, (_, b))| (std::cmp::Reverse(*b), **uid));
        for (uid, (key, bytes)) in top.into_iter().take(self.topk) {
            out.push_str(&format!("  uid {uid:<6} {key:<48} {bytes:>12}\n"));
        }

        // Per-stage pulse percentiles with a p99 trend sparkline.
        if self.latency {
            latency_panel(out, &kernel.pulse_snapshot(), &mut self.latency_hist);
        }

        self.frame.flush();
    }
}

/// The `--scapd DIR` mode: a per-tenant panel over a live (or just
/// finished) scapd control directory.
fn scapd_panel(dir: &str, delay_ms: u64) -> ! {
    let metrics = std::path::Path::new(dir).join("metrics");
    let done_marker = std::path::Path::new(dir).join("scapd-done");
    let mut frame = Frame::new(delay_ms.max(50));
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    // (name, id) -> (delivered, ts_ns)
    let mut prev: HashMap<(String, u64), (u64, u64)> = HashMap::new();
    loop {
        let done = done_marker.exists();
        let text = match std::fs::read_to_string(&metrics) {
            Ok(t) => t,
            Err(_) if !done => {
                if std::time::Instant::now() > deadline {
                    die("no metrics file appeared (is scapd running?)");
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
                continue;
            }
            Err(e) => die(&format!("cannot read {}: {e}", metrics.display())),
        };
        let status = parse_scapd_status(&text).unwrap_or_else(|e| die(&e));
        let (ts, rows) = (status.ts_ns, status.tenants);
        let out = frame.begin();
        out.push_str(&format!(
            "scapd @ {dir} — {}/{} packets | trace time {:.3} s | {} tenants{}\n\n",
            status.fed,
            status.total,
            ts as f64 / 1e9,
            rows.len(),
            if done { " | done" } else { "" },
        ));
        out.push_str(
            "tenant       state         delivered   Mbit/s  queue      [cap]    headroom  \
             drop attribution\n",
        );
        for r in &rows {
            let key = (r.name.clone(), r.id);
            let (pd, pt) = prev.get(&key).copied().unwrap_or((r.delivered, ts));
            let dt = ts.saturating_sub(pt) as f64 / 1e9;
            let rate = mbit_per_sec(r.delivered - pd, dt);
            let fill = (r.queue * 1000).checked_div(r.queue_cap).unwrap_or(0);
            out.push_str(&format!(
                "{:<12} {:<12} {:>10} {:>8.2} {:>8} [{}] {:>9} {:>6} slow-consumer B, \
                 {} cutoff B, {} strikes\n",
                r.name,
                r.state,
                r.delivered,
                rate,
                r.queue,
                bar(fill),
                r.headroom,
                r.dropped,
                r.discarded,
                r.strikes,
            ));
            out.push_str(&format!(
                "             spooled payload {} B / acked {} B / drained {} B / matched {} B\n",
                r.spooled, r.acked, r.drained, r.matched,
            ));
            prev.insert(key, (r.delivered, ts));
        }
        frame.flush();
        if done {
            let verdict = std::fs::read_to_string(&done_marker).unwrap_or_default();
            println!(
                "\nscapd panel complete: {} tenants | daemon says: {}",
                rows.len(),
                verdict.trim(),
            );
            std::process::exit(i32::from(!verdict.starts_with("ok")));
        }
        if std::time::Instant::now() > deadline {
            die("scapd never wrote its done marker");
        }
    }
}

/// The `--shards N` mode: partition the trace across a supervised shard
/// fleet and render the supervisor's per-shard view each interval.
fn shards_panel(
    packets: &[Packet],
    nshards: usize,
    storm_seed: Option<u64>,
    interval: u64,
    delay_ms: u64,
    latency: bool,
) -> ! {
    use scap::{FaultPlan, FleetConfig, ShardFleet};

    let cfg = FleetConfig {
        nshards,
        faults: storm_seed.map(|s| FaultPlan::shard_storm(s, nshards)),
        ..FleetConfig::default()
    };
    let backoff_cap_ns = cfg.backoff_cap_ns;
    let mut fleet = ShardFleet::new(cfg);
    let mut frame = Frame::new(delay_ms);
    let mut latency_hist = LatencyHistory::default();

    let mut render = |fleet: &ShardFleet, fed: usize, now_ns: u64| {
        let fs = fleet.fleet_stats();
        let out = frame.begin();
        out.push_str(&format!(
            "scaptop --shards {nshards} — {fed}/{} packets | trace time {:.3} s | \
             {} flows | {} kills / {} respawns / {} parked\n\n",
            packets.len(),
            now_ns as f64 / 1e9,
            fs.streams_created,
            fs.kills,
            fs.respawns,
            fs.parked,
        ));
        out.push_str(
            "shard  state       lease_age_ms  offered_pkts  part%  tracked  kills  \
             respawns  down_pkts  down_bytes  blackout_ms\n",
        );
        let wire = fs.wire_packets.max(1);
        for st in fleet.status() {
            out.push_str(&format!(
                "  {:<4} {:<11} {:>12.2} {:>13} {:>6.1} {:>8} {:>6} {:>9} {:>10} {:>11} {:>12.2}\n",
                st.shard,
                st.state.name(),
                st.lease_age_ns as f64 / 1e6,
                st.offered_pkts,
                100.0 * st.offered_pkts as f64 / wire as f64,
                st.tracked_streams,
                st.kills,
                st.respawns,
                st.down_pkts,
                st.down_bytes,
                st.max_blackout_ns as f64 / 1e6,
            ));
        }
        out.push_str(&format!(
            "\nfleet  wire {} pkts / {} B | delivered {} | dropped {} | discarded {} | \
             shard-down {} pkts / {} B\n",
            fs.wire_packets,
            fs.wire_bytes,
            fs.delivered_packets,
            fs.dropped_packets,
            fs.discarded_packets,
            fs.shard_down_packets,
            fs.shard_down_bytes,
        ));
        if latency {
            latency_panel(out, &fleet.fleet_pulse(), &mut latency_hist);
        }
        frame.flush();
    };

    let mut now = 0u64;
    for (i, pkt) in packets.iter().enumerate() {
        now = pkt.ts_ns;
        fleet.offer(pkt);
        if ((i + 1) as u64).is_multiple_of(interval) {
            render(&fleet, i + 1, now);
        }
    }
    // Let pending respawns land, then flush and render the final frame.
    fleet.tick(now + backoff_cap_ns + 1);
    fleet.finish(now + backoff_cap_ns + 2);
    render(&fleet, packets.len(), now);

    let fs = fleet.fleet_stats();
    let conserved = fs.packets_conserved() && fs.bytes_conserved();
    println!(
        "\nfleet capture complete: {} packets | {} flows | {} kills / {} respawns / \
         {} parked | worst blackout {:.2} ms | conservation {}",
        fs.wire_packets,
        fs.streams_created,
        fs.kills,
        fs.respawns,
        fs.parked,
        fs.max_blackout_ns as f64 / 1e6,
        if conserved { "ok" } else { "VIOLATED" },
    );
    std::process::exit(i32::from(!conserved));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: scaptop [file.pcap] [filter] [--gen MB] [--interval PKTS] \
             [--topk N] [--cutoff BYTES] [--fastpath] [--offload] [--latency] \
             [--burst FRAMES] [--delay-ms MS] [--seed N] [--scapd DIR] \
             [--shards N [--storm]]"
        );
        std::process::exit(0);
    }

    let mut gen_mb: Option<u64> = None;
    let mut scapd_dir: Option<String> = None;
    let mut interval: u64 = 1000;
    let mut topk: usize = 10;
    let mut cutoff: Option<u64> = None;
    let mut fastpath = false;
    let mut offload = false;
    let mut latency = false;
    let mut burst: Option<usize> = None;
    let mut delay_ms: u64 = 0;
    let mut seed: u64 = 42;
    let mut shards: Option<usize> = None;
    let mut storm = false;
    let mut positional: Vec<&String> = Vec::new();
    let mut i = 0;
    let numarg = |args: &[String], i: usize, name: &str| -> u64 {
        args.get(i)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| die(&format!("{name} needs a number")))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--gen" => {
                i += 1;
                gen_mb = Some(numarg(&args, i, "--gen"));
            }
            "--interval" => {
                i += 1;
                interval = numarg(&args, i, "--interval").max(1);
            }
            "--topk" => {
                i += 1;
                topk = numarg(&args, i, "--topk") as usize;
            }
            "--cutoff" => {
                i += 1;
                cutoff = Some(numarg(&args, i, "--cutoff"));
            }
            "--fastpath" => fastpath = true,
            "--offload" => offload = true,
            "--latency" => latency = true,
            "--burst" => {
                i += 1;
                burst = Some(numarg(&args, i, "--burst").max(1) as usize);
            }
            "--delay-ms" => {
                i += 1;
                delay_ms = numarg(&args, i, "--delay-ms");
            }
            "--seed" => {
                i += 1;
                seed = numarg(&args, i, "--seed");
            }
            "--shards" => {
                i += 1;
                shards = Some(numarg(&args, i, "--shards").max(1) as usize);
            }
            "--storm" => storm = true,
            "--scapd" => {
                i += 1;
                scapd_dir = Some(
                    args.get(i)
                        .unwrap_or_else(|| die("--scapd needs a path"))
                        .clone(),
                );
            }
            other if other.starts_with("--") => die(&format!("unknown flag {other}")),
            _ => positional.push(&args[i]),
        }
        i += 1;
    }

    if let Some(dir) = scapd_dir {
        scapd_panel(&dir, delay_ms);
    }

    let packets: Vec<Packet> = match (gen_mb, positional.first()) {
        (Some(mb), _) => CampusMix::new(CampusMixConfig::sized(seed, mb << 20)).collect_all(),
        (None, Some(path)) => {
            let f = std::fs::File::open(path)
                .unwrap_or_else(|e| die(&format!("cannot open {path}: {e}")));
            PcapReader::new(f)
                .unwrap_or_else(|e| die(&format!("not a pcap file: {e}")))
                .read_all()
                .unwrap_or_else(|e| die(&format!("read error: {e}")))
        }
        (None, None) => die("no pcap file given (or use --gen MB)"),
    };
    if let Some(n) = shards {
        shards_panel(
            &packets,
            n,
            storm.then_some(seed),
            interval,
            delay_ms,
            latency,
        );
    }
    let filter_expr = if gen_mb.is_some() {
        positional.first().map(|s| s.as_str()).unwrap_or("")
    } else {
        positional.get(1).map(|s| s.as_str()).unwrap_or("")
    };

    let mut config = ScapConfig {
        use_fdir: true,
        ..ScapConfig::default()
    };
    if !filter_expr.is_empty() {
        config.filter = Some(
            scap_filter::Filter::new(filter_expr)
                .unwrap_or_else(|e| die(&format!("bad filter expression: {e}"))),
        );
    }
    if let Some(c) = cutoff {
        config.cutoff.default = Some(c);
    }
    if fastpath {
        config.dispatch = DispatchMode::Fastpath;
    }
    if offload {
        config.use_offload = true;
    }
    if let Some(n) = burst {
        config.fastpath_burst = n;
    }
    let mut kernel = ScapKernel::new(config);

    let mut dash = Dashboard {
        interval,
        topk,
        frame: Frame::new(delay_ms),
        fastpath,
        offload,
        latency,
        latency_hist: LatencyHistory::default(),
        prev_ts_ns: 0,
        prev_fp_pkts: 0,
        prev_evictions: 0,
        prev_queues: Vec::new(),
        streams: HashMap::new(),
    };

    // Per-stream delivered-byte tally for the top-k panel.
    fn tally(streams: &mut HashMap<u64, (String, u64)>, kernel: &mut ScapKernel, ev: scap::Event) {
        if let EventKind::Data { chunk, .. } = &ev.kind {
            let e = streams
                .entry(ev.stream.uid)
                .or_insert_with(|| (ev.stream.key.to_string(), 0));
            e.1 += chunk.len as u64;
        }
        kernel.release_event(ev);
    }

    let total = packets.len();
    let mut now = 0u64;
    for (i, pkt) in packets.iter().enumerate() {
        now = pkt.ts_ns;
        kernel.nic_receive(pkt);
        kernel.service(now, |k, ev| tally(&mut dash.streams, k, ev));
        if ((i + 1) as u64).is_multiple_of(dash.interval) {
            dash.render(&kernel, i + 1, total, now);
        }
    }
    kernel.finish(now.saturating_add(1));
    kernel.drain_events(now.saturating_add(1), |k, ev| {
        tally(&mut dash.streams, k, ev)
    });
    dash.render(&kernel, total, total, now.saturating_add(1));

    let s = kernel.stats();
    let events = kernel.flight().events();
    println!(
        "\ncapture complete: {} packets | {} streams | {} payload bytes | {}",
        s.stack.wire_packets,
        s.stack.streams_reported,
        s.stack.delivered_bytes,
        scap_flight::top_reasons_line(&events, 3),
    );
    // Sanity line the smoke gate greps: restarts vs journal must agree.
    let restart_events = events
        .iter()
        .filter(|e| e.kind == FlightKind::Restarted)
        .count() as u64;
    if restart_events != s.resilience.restarts {
        eprintln!(
            "scaptop: restart counter {} disagrees with journal {}",
            s.resilience.restarts, restart_events
        );
        std::process::exit(1);
    }
}
