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
//! scapcat --stats-interval 5000 trace.pcap   # telemetry table to stderr
//!                                            # every 5000 packets, plus a
//!                                            # final drop-attribution line
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

use scap::{DispatchMode, Scap, StreamCtx};
use scap_trace::gen::{CampusMix, CampusMixConfig};
use scap_trace::pcap::{write_file, PcapReader};
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
             [--fastpath] [--offload] [--burst FRAMES] \
             [--stats-interval PKTS] [--write out.pcap] [--trace UID|FILTER] \
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
    let mut kill_at: Option<u64> = None;
    let mut ckpt_every: u64 = 1000;
    let mut ckpt_path: Option<String> = None;
    let mut positional: Vec<&String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--supervise" => supervise = true,
            "--fastpath" => fastpath = true,
            "--offload" => offload = true,
            "--burst" => {
                i += 1;
                burst = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|&n: &usize| n > 0)
                        .unwrap_or_else(|| die("--burst needs a frame count")),
                );
            }
            "--kill-at" => {
                i += 1;
                kill_at = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("--kill-at needs a packet index")),
                );
            }
            "--checkpoint-every" => {
                i += 1;
                ckpt_every = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n: &u64| n > 0)
                    .unwrap_or_else(|| die("--checkpoint-every needs a packet count"));
            }
            "--ckpt" => {
                i += 1;
                ckpt_path = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--ckpt needs a file path")),
                );
            }
            "--cutoff" => {
                i += 1;
                cutoff = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("--cutoff needs a byte count")),
                );
            }
            "--stats-interval" => {
                i += 1;
                stats_interval = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("--stats-interval needs a packet count")),
                );
            }
            "--top" => {
                i += 1;
                top = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--top needs a number"));
            }
            "--write" => {
                i += 1;
                write_out = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--write needs an output path")),
                );
            }
            "--trace" => {
                i += 1;
                trace_query = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--trace needs a stream uid or 5-tuple filter")),
                );
            }
            other if other.starts_with("--") => die(&format!("unknown flag {other}")),
            _ => positional.push(&args[i]),
        }
        i += 1;
    }
    let Some(path) = positional.first() else {
        die("no pcap file given")
    };
    let filter = positional.get(1).map(|s| s.as_str()).unwrap_or("");

    let f = std::fs::File::open(path).unwrap_or_else(|e| die(&format!("cannot open {path}: {e}")));
    let packets = PcapReader::new(f)
        .unwrap_or_else(|e| die(&format!("not a pcap file: {e}")))
        .read_all()
        .unwrap_or_else(|e| die(&format!("read error: {e}")));

    if supervise {
        let ckpt = ckpt_path.unwrap_or_else(|| format!("{path}.ckpt"));
        run_supervised(
            packets, filter, cutoff, fastpath, offload, burst, kill_at, ckpt_every, &ckpt,
        );
        return;
    }

    // --write out.pcap: dump the packets that survive the configured
    // filter and per-stream cutoff — the same view the capture keeps.
    if let Some(out) = &write_out {
        let filt = scap_filter::Filter::new(filter)
            .unwrap_or_else(|e| die(&format!("bad filter expression: {e}")));
        let mut budgets: std::collections::HashMap<scap::FlowKey, u64> =
            std::collections::HashMap::new();
        let kept: Vec<scap_trace::Packet> = packets
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

    let flows: Arc<Mutex<Vec<FlowLine>>> = Arc::new(Mutex::new(Vec::new()));
    let mut builder = Scap::builder().filter(filter).worker_threads(2);
    if let Some(c) = cutoff {
        builder = builder.cutoff(c);
    }
    if fastpath {
        builder = builder.dispatch(DispatchMode::Fastpath);
    }
    if offload {
        builder = builder.offload(true);
    }
    if let Some(n) = burst {
        builder = builder.fastpath_burst(n);
    }
    if let Some(n) = stats_interval {
        builder = builder.stats_interval(n);
    }
    let mut scap = builder
        .try_build()
        .unwrap_or_else(|e| die(&format!("bad filter expression: {e}")));
    if stats_interval.is_some() {
        scap.dispatch_stats(|snap| {
            eprintln!("{}", scap::telemetry::export::to_table(snap));
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
        if let Some(snap) = scap.telemetry_snapshot() {
            eprintln!(
                "\nfinal telemetry:\n{}",
                scap::telemetry::export::to_table(snap)
            );
        }
        // One-line drop attribution from the flight recorder: where and
        // why the capture lost packets, worst offenders first.
        if let Some(j) = scap
            .flight_journal()
            .and_then(|b| scap::flight::decode_journal(&b).ok())
        {
            eprintln!("{}", scap::flight::top_reasons_line(&j.events, 3));
        }
    }

    // --trace UID|FILTER: stream-scoped flight-recorder query — the full
    // recorded lifecycle (creation, losses with layer+reason, cutoff,
    // termination) of the requested stream(s).
    if let Some(q) = &trace_query {
        let bytes = scap
            .flight_journal()
            .unwrap_or_else(|| die("no flight journal (capture did not run)"));
        let journal = scap::flight::decode_journal(&bytes)
            .unwrap_or_else(|e| die(&format!("flight journal: {e}")));
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
#[allow(clippy::too_many_arguments)]
fn run_supervised(
    packets: Vec<scap_trace::Packet>,
    filter: &str,
    cutoff: Option<u64>,
    fastpath: bool,
    offload: bool,
    burst: Option<usize>,
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
        let mut builder = Scap::builder()
            .filter(filter)
            .worker_threads(2)
            .checkpoint_every(ckpt_every, ckpt);
        if let Some(c) = cutoff {
            builder = builder.cutoff(c);
        }
        if fastpath {
            builder = builder.dispatch(DispatchMode::Fastpath);
        }
        if offload {
            builder = builder.offload(true);
        }
        if let Some(n) = burst {
            builder = builder.fastpath_burst(n);
        }
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

fn die(msg: &str) -> ! {
    eprintln!("scapcat: {msg}");
    std::process::exit(2);
}
