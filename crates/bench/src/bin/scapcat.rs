#![forbid(unsafe_code)]

//! scapcat — a tcpdump-flavoured flow analyzer built on the Scap library.
//!
//! Reads a pcap file (or generates a synthetic campus trace), runs the
//! full Scap capture pipeline over it — BPF filter, kernel-side flow
//! tracking and TCP reassembly, cutoffs — and prints one line per stream
//! plus capture totals. A small, real consumer of the public API.
//!
//! ```text
//! scapcat trace.pcap                         # all streams
//! scapcat trace.pcap "tcp and port 80"       # filtered
//! scapcat trace.pcap --cutoff 4096           # keep 4 KB per stream
//! scapcat --gen 8 out.pcap                   # write an 8 MB synthetic pcap
//! scapcat --top 20 trace.pcap                # largest 20 streams
//! scapcat --stats-interval 5000 trace.pcap   # OpenMetrics to stderr
//!                                            # every 5000 packets and at
//!                                            # the end (for `scaptop -`)
//! scapcat --shards 4 [--storm] trace.pcap    # a shard fleet (under a
//!                                            # seeded kill storm); no
//!                                            # per-stream table
//! scapcat --trace 17 trace.pcap              # full flight-recorder
//!                                            # lifecycle of stream uid 17
//! scapcat --trace "port 80" trace.pcap       # same, for every stream
//!                                            # matching the 5-tuple filter
//! scapcat --write out.pcap trace.pcap "tcp"  # dump the post-filter /
//!                                            # post-cutoff packets
//! scapcat --supervise --checkpoint-every 500 --ckpt cap.ckpt \
//!         [--kill-at 2000] trace.pcap        # supervised warm-restart:
//!     run the capture under periodic checkpointing; if it dies (e.g. an
//!     injected --kill-at crash), resume from the latest checkpoint and
//!     continue with the remaining packets
//! ```

use scap::flight::decode_journal;
use scap::telemetry::{Metric, Snapshot};
use scap::{
    DispatchMode, FaultPlan, FleetConfig, Scap, ScapBuilder, ScapConfig, ShardFleet, StreamCtx,
};
use scap_bench::cli::Args;
use scap_bench::render::{exposition, fleet_series, loss_series, Progress};
use scap_trace::gen::{CampusMix, CampusMixConfig};
use scap_trace::pcap::{write_file, PcapReader};
use scap_trace::Packet;
use std::num::{NonZeroU64, NonZeroUsize};
use std::sync::Arc;
use std::sync::Mutex;

struct FlowLine {
    uid: u64,
    flow_key: scap::FlowKey,
    key: String,
    status: &'static str,
    bytes: u64,
    pkts: u64,
    captured: u64,
    duration_ms: f64,
    errors: bool,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: scapcat [--gen MB out.pcap] [--cutoff BYTES] [--top N] \
             [--fastpath] [--offload] [--burst FRAMES] [--stats-interval PKTS] \
             [--shards N [--storm]] [--write out.pcap] [--trace UID|FILTER] \
             [--supervise [--checkpoint-every PKTS] [--ckpt FILE] [--kill-at PKT]] \
             <file.pcap> [filter]"
        );
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }

    // --gen MB out.pcap: produce a synthetic trace and exit.
    if let Some(i) = args.iter().position(|a| a == "--gen") {
        let mb: u64 = args
            .get(i + 1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| die("--gen needs a size in MB"));
        let path = args
            .get(i + 2)
            .unwrap_or_else(|| die("--gen needs an output path"));
        let trace = CampusMix::new(CampusMixConfig::sized(42, mb << 20)).collect_all();
        let f = std::fs::File::create(path)
            .unwrap_or_else(|e| die(&format!("cannot create {path}: {e}")));
        write_file(f, &trace).unwrap_or_else(|e| die(&format!("write failed: {e}")));
        println!("wrote {} packets to {path}", trace.len());
        return;
    }

    let mut cutoff: Option<u64> = None;
    let mut top: usize = usize::MAX;
    let mut stats_interval: Option<u64> = None;
    let mut write_out: Option<String> = None;
    let mut trace_query: Option<String> = None;
    let mut supervise = false;
    let mut fastpath = false;
    let mut offload = false;
    let mut burst: Option<usize> = None;
    let mut shards: Option<usize> = None;
    let mut storm = false;
    let mut kill_at: Option<u64> = None;
    let mut ckpt_every: u64 = 1000;
    let mut ckpt_path: Option<String> = None;
    let mut positional: Vec<&str> = Vec::new();
    let mut given: Vec<&str> = Vec::new();
    let mut flags = Args::new(&args, die);
    while let Some(arg) = flags.next() {
        if arg.starts_with("--") {
            given.push(arg);
        }
        match arg {
            "--supervise" => supervise = true,
            "--fastpath" => fastpath = true,
            "--offload" => offload = true,
            "--storm" => storm = true,
            "--shards" => shards = Some(flags.value::<NonZeroUsize>("a shard count").get()),
            "--burst" => burst = Some(flags.value::<NonZeroUsize>("a frame count").get()),
            "--kill-at" => kill_at = Some(flags.value("a packet index")),
            "--checkpoint-every" => ckpt_every = flags.value::<NonZeroU64>("a packet count").get(),
            "--ckpt" => ckpt_path = Some(flags.value("a file path")),
            "--cutoff" => cutoff = Some(flags.value("a byte count")),
            "--stats-interval" => stats_interval = Some(flags.value("a packet count")),
            "--top" => top = flags.value("a number"),
            "--write" => write_out = Some(flags.value("an output path")),
            "--trace" => trace_query = Some(flags.value("a stream uid or 5-tuple filter")),
            other if other.starts_with("--") => die(&format!("unknown flag {other}")),
            _ => positional.push(arg),
        }
    }
    refuse_ignored_flags(&given);
    let Some(path) = positional.first() else {
        die("no pcap file given")
    };
    let filter = positional.get(1).copied().unwrap_or("");

    let f = std::fs::File::open(path).unwrap_or_else(|e| die(&format!("cannot open {path}: {e}")));
    let packets = PcapReader::new(f)
        .unwrap_or_else(|e| die(&format!("not a pcap file: {e}")))
        .read_all()
        .unwrap_or_else(|e| die(&format!("read error: {e}")));

    // The capture flags, for the plain and the supervised capture alike.
    let capture = || {
        let mut b = Scap::builder()
            .filter(filter)
            .worker_threads(2)
            .offload(offload);
        if let Some(c) = cutoff {
            b = b.cutoff(c);
        }
        if fastpath {
            b = b.dispatch(DispatchMode::Fastpath);
        }
        if let Some(n) = burst {
            b = b.fastpath_burst(n);
        }
        b
    };
    if supervise {
        let ckpt = ckpt_path.unwrap_or_else(|| format!("{path}.ckpt"));
        run_supervised(packets, &capture, kill_at, ckpt_every, &ckpt);
        return;
    }

    // --write out.pcap: dump the packets that survive the configured
    // filter and per-stream cutoff — the same view the capture keeps.
    if let Some(out) = &write_out {
        let filt = scap_filter::Filter::new(filter)
            .unwrap_or_else(|e| die(&format!("bad filter expression: {e}")));
        let mut budgets: std::collections::HashMap<scap::FlowKey, u64> =
            std::collections::HashMap::new();
        let kept: Vec<Packet> = packets
            .iter()
            .filter(|p| {
                if !filt.matches_frame(&p.frame) {
                    return false;
                }
                let Some(c) = cutoff else { return true };
                let Ok(parsed) = scap_wire::parse_frame(&p.frame) else {
                    return true;
                };
                let Some(key) = parsed.key else { return true };
                // Control packets (no payload) always pass; data packets
                // stop once the flow's payload budget is spent.
                let seen = budgets.entry(key.canonical().0).or_insert(0);
                if parsed.payload_len == 0 {
                    return true;
                }
                if *seen >= c {
                    return false;
                }
                *seen += parsed.payload_len as u64;
                true
            })
            .cloned()
            .collect();
        let f = std::fs::File::create(out)
            .unwrap_or_else(|e| die(&format!("cannot create {out}: {e}")));
        write_file(f, &kept).unwrap_or_else(|e| die(&format!("write failed: {e}")));
        println!(
            "wrote {} of {} packets (post-filter/post-cutoff) to {out}",
            kept.len(),
            packets.len()
        );
    }

    let mode = if fastpath { "fastpath" } else { "classic" };
    let labels = [("proc", "scapcat"), ("mode", mode)];
    if let Some(nshards) = shards {
        // The capture flags apply to every shard's kernel.
        let d = ScapConfig::default();
        let filter = scap_filter::Filter::new(filter)
            .unwrap_or_else(|e| die(&format!("bad filter expression: {e}")));
        let mut shard = ScapConfig {
            filter: Some(filter),
            use_offload: offload,
            fastpath_burst: burst.unwrap_or(d.fastpath_burst),
            ..d
        };
        shard.cutoff.default = cutoff;
        if fastpath {
            shard.dispatch = DispatchMode::Fastpath;
        }
        let cfg = FleetConfig {
            nshards,
            shard,
            faults: storm.then(|| FaultPlan::shard_storm(42, nshards)),
            ..FleetConfig::default()
        };
        run_fleet(&packets, cfg, stats_interval, &labels);
    }

    let flows: Arc<Mutex<Vec<FlowLine>>> = Arc::new(Mutex::new(Vec::new()));
    let mut builder = capture();
    if let Some(n) = stats_interval {
        builder = builder.stats_interval(n);
    }
    let mut scap = builder
        .try_build()
        .unwrap_or_else(|e| die(&format!("bad filter expression: {e}")));
    // Each packet's trace time: an exposition says how far the capture got.
    let times: Arc<[u64]> = packets.iter().map(|p| p.ts_ns).collect();
    let publish = move |fed: u64, snap: &Snapshot, pulse: &_, journals: Option<&[_]>| {
        let total = times.len() as u64;
        let ts_ns = fed
            .checked_sub(1)
            .and_then(|i| times.get(i as usize))
            .map_or(0, |&t| t);
        let progress = Progress { fed, total, ts_ns };
        let text = exposition(&labels, progress, snap, pulse, |om| {
            if let Some(journals) = journals {
                loss_series(om, journals);
            }
        });
        eprint!("{text}");
    };
    if stats_interval.is_some() {
        let publish = publish.clone();
        scap.dispatch_stats(move |snap, pulse| {
            publish(snap.total(Metric::WirePackets), snap, pulse, None)
        });
    }
    {
        let flows = flows.clone();
        scap.dispatch_termination(move |ctx: &StreamCtx<'_>| {
            let s = ctx.stream;
            flows.lock().unwrap().push(FlowLine {
                uid: s.uid,
                flow_key: s.key,
                key: s.key.to_string(),
                status: s.status_str(),
                bytes: s.total_bytes(),
                pkts: s.total_pkts(),
                captured: s.dirs[0].captured_bytes + s.dirs[1].captured_bytes,
                duration_ms: (s.last_ts_ns - s.first_ts_ns) as f64 / 1e6,
                errors: !s.errors.is_clean(),
            });
        });
    }
    let stats = scap.start_capture(packets);

    let mut flows = Arc::try_unwrap(flows)
        .map(|m| m.into_inner().unwrap())
        .unwrap_or_else(|arc| std::mem::take(&mut *arc.lock().unwrap()));
    flows.sort_by_key(|f| std::cmp::Reverse(f.bytes));

    println!(
        "{:<48} {:>12} {:>8} {:>12} {:>10}  {:<16} flags",
        "stream", "bytes", "pkts", "captured", "dur(ms)", "status"
    );
    for fl in flows.iter().take(top) {
        println!(
            "{:<48} {:>12} {:>8} {:>12} {:>10.1}  {:<16} {}",
            fl.key,
            fl.bytes,
            fl.pkts,
            fl.captured,
            fl.duration_ms,
            fl.status,
            if fl.errors { "E" } else { "" }
        );
    }
    if flows.len() > top {
        println!("... and {} more streams", flows.len() - top);
    }
    println!(
        "\n{} packets, {} bytes on the wire | {} streams | {} payload bytes reassembled | {} discarded in-kernel",
        stats.stack.wire_packets,
        stats.stack.wire_bytes,
        stats.stack.streams_reported,
        stats.stack.delivered_bytes,
        stats.stack.discarded_packets,
    );
    if offload {
        println!(
            "offload: {} packets resolved at the NIC ({:.1}% of wire) | {} rule ops",
            stats.stack.nic_filtered_packets,
            100.0 * stats.stack.nic_filtered_packets as f64
                / stats.stack.wire_packets.max(1) as f64,
            stats.offload_ops,
        );
    }
    if stats_interval.is_some() {
        // The final exposition adds the flight journal's loss rows:
        // where and why the capture lost packets.
        let journal = scap.flight_journal().and_then(|b| decode_journal(&b).ok());
        let snap = scap.telemetry_snapshot().cloned().unwrap_or_default();
        let pulse = scap.pulse_snapshot().unwrap_or_default();
        publish(
            stats.stack.wire_packets,
            &snap,
            &pulse,
            Some(journal.as_slice()),
        );
    }

    // --trace UID|FILTER: stream-scoped flight-recorder query — the full
    // recorded lifecycle (creation, losses with layer+reason, cutoff,
    // termination) of the requested stream(s).
    if let Some(q) = &trace_query {
        let bytes = scap
            .flight_journal()
            .unwrap_or_else(|| die("no flight journal (capture did not run)"));
        let journal =
            decode_journal(&bytes).unwrap_or_else(|e| die(&format!("flight journal: {e}")));
        let uids: Vec<u64> = match q.parse::<u64>() {
            Ok(uid) => vec![uid],
            Err(_) => {
                let filt = scap_filter::Filter::new(q)
                    .unwrap_or_else(|e| die(&format!("bad --trace filter: {e}")));
                let mut v: Vec<u64> = flows
                    .iter()
                    .filter(|fl| {
                        filt.matches_key(&fl.flow_key) || filt.matches_key(&fl.flow_key.reversed())
                    })
                    .map(|fl| fl.uid)
                    .collect();
                v.sort_unstable();
                v
            }
        };
        if uids.is_empty() {
            println!("\nno streams matched --trace {q}");
        }
        for uid in &uids {
            let evs = journal.for_uid(*uid);
            let key = flows
                .iter()
                .find(|fl| fl.uid == *uid)
                .map(|fl| fl.key.as_str())
                .unwrap_or("?");
            println!(
                "\n--- flight trace uid {uid} {key} ({} event(s)) ---",
                evs.len()
            );
            for e in &evs {
                println!("{}", e.format());
            }
        }
    }
}

/// Supervisor loop: run the capture under periodic checkpointing; when a
/// run dies mid-capture (injected `--kill-at` crash), resume from the
/// latest checkpoint and feed it the packets the dead run never admitted.
/// The packets between the last checkpoint and the crash are the blackout
/// window — resumed streams carry the RESUMED flag and a bounded gap.
fn run_supervised(
    packets: Vec<Packet>,
    capture: &dyn Fn() -> ScapBuilder,
    kill_at: Option<u64>,
    ckpt_every: u64,
    ckpt: &str,
) {
    let _ = std::fs::remove_file(ckpt);
    let total = packets.len();
    let mut offset = 0usize;
    let mut kill = kill_at;
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        if attempts > 16 {
            die("too many restarts; giving up");
        }
        let mut builder = capture().checkpoint_every(ckpt_every, ckpt);
        if let Some(n) = kill.take() {
            builder = builder.fault_plan(scap::FaultPlan {
                kill_at_packet: Some(n),
                ..Default::default()
            });
        }
        if offset > 0 {
            if !std::path::Path::new(ckpt).exists() {
                die("capture died before the first checkpoint; nothing to resume");
            }
            builder = builder.resume_from(ckpt);
        }
        let mut scap = builder.try_build().unwrap_or_else(|e| die(&format!("{e}")));
        let stats = scap.start_capture(packets[offset..].to_vec());
        match scap.died_at() {
            Some(n) => {
                offset += n as usize;
                eprintln!(
                    "scapcat: capture died at packet {offset}/{total} — resuming from {ckpt}"
                );
            }
            None => {
                println!(
                    "supervised capture complete after {} restart(s): {} stream(s) resumed, \
                     recovery {} virtual cycles, {} checkpoint(s) written",
                    stats.resilience.restarts,
                    stats.resilience.resumed_streams,
                    stats.resilience.recovery_virtual_cycles,
                    stats.resilience.checkpoints_written,
                );
                println!(
                    "{} packets | {} streams | {} payload bytes reassembled",
                    stats.stack.wire_packets,
                    stats.stack.streams_reported,
                    stats.stack.delivered_bytes,
                );
                return;
            }
        }
    }
}

/// `--shards N [--storm]`: partition the trace across a supervised
/// shard fleet. With `--stats-interval` it publishes the fleet's rows
/// every interval and, once finished, with its loss rows and its
/// conservation. Exits 1 unless the fleet conserves.
fn run_fleet(trace: &[Packet], cfg: FleetConfig, every: Option<u64>, labels: &[(&str, &str)]) -> ! {
    let backoff_cap_ns = cfg.backoff_cap_ns;
    let mut fleet = ShardFleet::new(cfg);
    let total = trace.len() as u64;
    let publish = |fleet: &ShardFleet, fed: u64, ts_ns: u64, journals: Option<&[_]>| {
        let progress = Progress { fed, total, ts_ns };
        let (idle, pulse) = (Snapshot::empty(1), fleet.fleet_pulse());
        let text = exposition(labels, progress, &idle, &pulse, |om| {
            fleet_series(om, fleet, journals.is_some());
            if let Some(journals) = journals {
                loss_series(om, journals);
            }
        });
        eprint!("{text}");
    };
    let mut now = 0u64;
    for (i, pkt) in trace.iter().enumerate() {
        now = pkt.ts_ns;
        fleet.offer(pkt);
        let fed = i as u64 + 1;
        if every.is_some_and(|n| fed.is_multiple_of(n)) {
            publish(&fleet, fed, now, None);
        }
    }
    // Let pending respawns land, then flush.
    fleet.tick(now + backoff_cap_ns + 1);
    fleet.finish(now + backoff_cap_ns + 2);
    if every.is_some() {
        let journals = fleet.journals();
        let decoded: Vec<_> = journals
            .iter()
            .filter_map(|b| decode_journal(b).ok())
            .collect();
        publish(&fleet, total, now, Some(&decoded));
    }
    let fs = fleet.fleet_stats();
    let conserved = fs.packets_conserved() && fs.bytes_conserved();
    let verdict = if conserved { "ok" } else { "VIOLATED" };
    println!(
        "fleet capture complete: {} packets | {} kills / {} respawns | conservation {verdict}",
        fs.wire_packets, fs.kills, fs.respawns,
    );
    std::process::exit(i32::from(!conserved));
}

/// Refuse a flag the chosen mode would drop silently: a supervised
/// capture applies none of the output flags and runs one kernel, a fleet
/// prints no per-stream table, and the kill storm and the checkpoint
/// flags belong to the fleet and to the supervisor.
fn refuse_ignored_flags(given: &[&str]) {
    let has = |flag: &str| given.contains(&flag);
    let rules = [
        ("with", "--supervise", "--stats-interval --top --write"),
        ("with", "--supervise", "--trace --shards --storm"),
        ("with", "--shards", "--top --trace"),
        ("without", "--shards", "--storm"),
        ("without", "--supervise", "--kill-at --ckpt"),
        ("without", "--supervise", "--checkpoint-every"),
    ];
    for (how, mode, flags) in rules {
        let ignored = has(mode) == (how == "with");
        if let Some(flag) = flags.split(' ').find(|&f| ignored && has(f)) {
            die(&format!("{flag} has no effect {how} {mode}"));
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("scapcat: {msg}");
    std::process::exit(2);
}
