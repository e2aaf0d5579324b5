#![forbid(unsafe_code)]

//! scapstore — front-end for the persistent stream archive.
//!
//! ```text
//! scapstore write <dir> <file.pcap> [filter] [--cutoff BYTES]
//!           [--budget BYTES] [--segment BYTES] [--workers N]
//!     capture the pcap through the full Scap stack and archive every
//!     delivered stream into <dir>
//! scapstore ls <dir>                  list archived streams (uid order)
//! scapstore query <dir> <expr> [--since NS] [--until NS]
//!           [--export out.pcap]      BPF query over index records only
//! scapstore fquery <root> <expr> [--timeout-ms N]
//!     federated query across every <root>/shard-N archive with a
//!     per-shard time budget; reports per-shard status and whether the
//!     merged result is partial
//! scapstore cat <dir> <uid>          dump a stream's payload to stdout
//! scapstore compact <dir> [--budget BYTES]
//!     re-enforce the budget and rewrite segments without dead weight
//! scapstore verify <dir|ckpt> [--repair]  integrity check (exit 1 if dirty);
//!     --repair runs torn-tail recovery first. A plain-file argument is
//!     treated as a warm-restart checkpoint instead of an archive
//! ```

use scap::Scap;
use scap_store::{IndexRecord, SharedStoreWriter, StoreConfig, StoreReader, StoreWriter};
use scap_trace::pcap::PcapReader;
use std::io::Write;
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        usage(if args.is_empty() { 2 } else { 0 });
    }
    match args[0].as_str() {
        "write" => cmd_write(&args[1..]),
        "ls" => cmd_ls(&args[1..]),
        "query" => cmd_query(&args[1..]),
        "fquery" => cmd_fquery(&args[1..]),
        "cat" => cmd_cat(&args[1..]),
        "compact" => cmd_compact(&args[1..]),
        "verify" => cmd_verify(&args[1..]),
        other => die(&format!("unknown command {other}")),
    }
}

fn usage(code: i32) -> ! {
    eprintln!(
        "usage: scapstore write <dir> <file.pcap> [filter] [--cutoff BYTES] \
         [--budget BYTES] [--segment BYTES] [--workers N]\n\
         \x20      scapstore ls <dir>\n\
         \x20      scapstore query <dir> <expr> [--since NS] [--until NS] [--export out.pcap]\n\
         \x20      scapstore fquery <root> <expr> [--timeout-ms N]\n\
         \x20      scapstore cat <dir> <uid>\n\
         \x20      scapstore compact <dir> [--budget BYTES]\n\
         \x20      scapstore verify <dir|ckpt> [--repair]"
    );
    std::process::exit(code);
}

fn die(msg: &str) -> ! {
    eprintln!("scapstore: {msg}");
    std::process::exit(2);
}

/// Split `args` into positionals and `--flag value` pairs, rejecting
/// unknown flags.
fn parse(args: &[String], known: &[&str]) -> (Vec<String>, Vec<(String, String)>) {
    let mut pos = Vec::new();
    let mut flags = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            if !known.contains(&name) {
                die(&format!("unknown flag --{name}"));
            }
            if name == "repair" {
                flags.push((name.to_string(), String::new()));
            } else {
                i += 1;
                let v = args
                    .get(i)
                    .unwrap_or_else(|| die(&format!("--{name} needs a value")));
                flags.push((name.to_string(), v.clone()));
            }
        } else {
            pos.push(a.clone());
        }
        i += 1;
    }
    (pos, flags)
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

fn num(flags: &[(String, String)], name: &str) -> Option<u64> {
    flag(flags, name).map(|v| {
        v.parse()
            .unwrap_or_else(|_| die(&format!("--{name} needs a number, got {v}")))
    })
}

fn cmd_write(args: &[String]) {
    let (pos, flags) = parse(args, &["cutoff", "budget", "segment", "workers"]);
    let [dir, pcap] = &pos[..2.min(pos.len())] else {
        usage(2)
    };
    let filter = pos.get(2).map(String::as_str).unwrap_or("");
    let f = std::fs::File::open(pcap).unwrap_or_else(|e| die(&format!("cannot open {pcap}: {e}")));
    let packets = PcapReader::new(f)
        .unwrap_or_else(|e| die(&format!("not a pcap file: {e}")))
        .read_all()
        .unwrap_or_else(|e| die(&format!("read error: {e}")));

    let mut cfg = StoreConfig::new(dir);
    if let Some(b) = num(&flags, "budget") {
        cfg = cfg.disk_budget(b);
    }
    if let Some(b) = num(&flags, "segment") {
        cfg = cfg.segment_bytes(b);
    }
    let writer = StoreWriter::open(cfg).unwrap_or_else(|e| die(&format!("open archive: {e}")));
    let shared = SharedStoreWriter::new(writer);

    let mut builder = Scap::builder()
        .filter(filter)
        .worker_threads(num(&flags, "workers").unwrap_or(1) as usize);
    if let Some(c) = num(&flags, "cutoff") {
        builder = builder.cutoff(c);
    }
    let mut scap = builder
        .try_build()
        .unwrap_or_else(|e| die(&format!("bad filter expression: {e}")));
    scap.attach_sink(Arc::new(shared.clone()));
    let stats = scap.start_capture(packets);
    let store = shared
        .finish()
        .unwrap_or_else(|e| die(&format!("archive finish: {e}")));

    println!(
        "captured {} packets, {} streams | archived {} streams, {} payload bytes, {} segment(s)",
        stats.stack.wire_packets,
        stats.stack.streams_reported,
        store.streams_archived,
        store.bytes_archived,
        store.segments_created,
    );
    if store.streams_pruned > 0 {
        println!(
            "retention pruned {} stream(s) / {} bytes; compaction reclaimed {} bytes",
            store.streams_pruned, store.bytes_pruned, store.bytes_reclaimed
        );
    }
    if store.write_errors > 0 {
        eprintln!("scapstore: {} write error(s)", store.write_errors);
        std::process::exit(1);
    }
}

fn open_reader(dir: &str) -> StoreReader {
    StoreReader::open(dir).unwrap_or_else(|e| die(&format!("open archive {dir}: {e}")))
}

fn print_records<'a>(records: impl IntoIterator<Item = &'a IndexRecord>) -> usize {
    println!(
        "{:>8} {:<48} {:<16} {:>4} {:>12} {:>16} {:>16} flags",
        "uid", "stream", "status", "prio", "stored", "first_ns", "last_ns"
    );
    let mut n = 0;
    for r in records {
        n += 1;
        println!(
            "{:>8} {:<48} {:<16} {:>4} {:>12} {:>16} {:>16} {}{}",
            r.uid,
            r.key.to_string(),
            status_str(r),
            r.priority,
            r.stored_bytes(),
            r.first_ts_ns,
            r.last_ts_ns,
            if r.cutoff_exceeded { "C" } else { "" },
            if r.errors.0 != 0 { "E" } else { "" },
        );
    }
    n
}

fn status_str(r: &IndexRecord) -> &'static str {
    match r.status {
        scap::StreamStatus::Active => "active",
        scap::StreamStatus::ClosedFin => "closed(fin)",
        scap::StreamStatus::ClosedRst => "closed(rst)",
        scap::StreamStatus::ClosedTimeout => "closed(timeout)",
    }
}

fn cmd_ls(args: &[String]) {
    let (pos, _) = parse(args, &[]);
    let [dir] = &pos[..] else { usage(2) };
    let r = open_reader(dir);
    let n = print_records(r.iter());
    println!("{n} stream(s)");
}

fn cmd_query(args: &[String]) {
    let (pos, flags) = parse(args, &["since", "until", "export"]);
    let [dir, expr] = &pos[..] else { usage(2) };
    let r = open_reader(dir);
    let mut hits = r
        .query(expr)
        .unwrap_or_else(|e| die(&format!("bad filter expression: {e}")));
    let since = num(&flags, "since").unwrap_or(0);
    let until = num(&flags, "until").unwrap_or(u64::MAX);
    hits.retain(|rec| rec.first_ts_ns <= until && rec.last_ts_ns >= since);
    let uids: Vec<u64> = hits.iter().map(|rec| rec.uid).collect();
    let n = print_records(hits);
    println!("{n} stream(s) matched");
    if let Some(out) = flag(&flags, "export") {
        let f = std::fs::File::create(out)
            .unwrap_or_else(|e| die(&format!("cannot create {out}: {e}")));
        let pkts = r
            .export_pcap(&uids, f, 65535)
            .unwrap_or_else(|e| die(&format!("export failed: {e}")));
        println!("exported {pkts} synthesized packet(s) to {out}");
    }
}

fn cmd_fquery(args: &[String]) {
    use scap_store::{FederatedReader, ShardOutcome};
    let (pos, flags) = parse(args, &["timeout-ms"]);
    let [root, expr] = &pos[..] else { usage(2) };
    let budget = std::time::Duration::from_millis(num(&flags, "timeout-ms").unwrap_or(5_000));
    let fed = FederatedReader::open(root)
        .unwrap_or_else(|e| die(&format!("open fleet root {root}: {e}")));
    let res = fed.query(expr, budget);
    let n = print_records(res.records.iter().map(|(_, r)| r));
    println!(
        "{n} stream(s) matched across {}/{} shard(s){}",
        res.ok_shards(),
        fed.nshards(),
        if res.partial {
            " — PARTIAL result"
        } else {
            ""
        }
    );
    for s in &res.statuses {
        let outcome = match &s.outcome {
            ShardOutcome::Ok(k) => format!("ok ({k} record(s))"),
            ShardOutcome::Error(e) => format!("ERROR: {e}"),
            ShardOutcome::TimedOut => "TIMED OUT (records excluded)".into(),
        };
        println!(
            "  shard {:>3}  {:>8.2} ms  {}",
            s.shard,
            s.elapsed.as_secs_f64() * 1e3,
            outcome
        );
    }
    if res.partial {
        std::process::exit(1);
    }
}

fn cmd_cat(args: &[String]) {
    let (pos, _) = parse(args, &[]);
    let [dir, uid] = &pos[..] else { usage(2) };
    let uid: u64 = uid
        .parse()
        .unwrap_or_else(|_| die(&format!("bad uid {uid}")));
    let r = open_reader(dir);
    let data = r
        .read_stream(uid)
        .unwrap_or_else(|e| die(&format!("read stream {uid}: {e}")));
    // Ignore write errors (e.g. a closed pipe under `| head`).
    let mut out = std::io::stdout().lock();
    for (di, d) in data.iter().enumerate() {
        if !d.is_empty() {
            let _ = writeln!(out, "--- direction {di} ({} bytes) ---", d.len());
            let _ = out.write_all(d);
            let _ = writeln!(out);
        }
    }
}

fn cmd_compact(args: &[String]) {
    let (pos, flags) = parse(args, &["budget"]);
    let [dir] = &pos[..] else { usage(2) };
    let mut cfg = StoreConfig::new(dir);
    if let Some(b) = num(&flags, "budget") {
        cfg = cfg.disk_budget(b);
    }
    let mut w = StoreWriter::open(cfg).unwrap_or_else(|e| die(&format!("open archive: {e}")));
    let stats = w.finish().unwrap_or_else(|e| die(&format!("compact: {e}")));
    println!(
        "{} live stream(s), {} live bytes | pruned {} / reclaimed {} bytes, recovered {} torn bytes",
        w.live_streams(),
        w.live_bytes(),
        stats.streams_pruned,
        stats.bytes_reclaimed,
        stats.torn_tail_bytes_recovered,
    );
}

fn cmd_verify(args: &[String]) {
    let (pos, flags) = parse(args, &["repair"]);
    let [dir] = &pos[..] else { usage(2) };
    // A plain file is a capture checkpoint or a flight-recorder black
    // box, not an archive directory; the file magic distinguishes them.
    if std::path::Path::new(dir).is_file() {
        if is_flight_file(dir) {
            return verify_flight(dir);
        }
        return verify_checkpoint(dir, flag(&flags, "repair").is_some());
    }
    if flag(&flags, "repair").is_some() {
        // Writer-side open runs torn-tail recovery (truncating torn
        // segment/index tails and dropping records whose payload no
        // longer resolves); compaction then rewrites the index and
        // segments so the on-disk state matches the surviving records.
        let mut w =
            StoreWriter::open(StoreConfig::new(dir)).unwrap_or_else(|e| die(&format!("{e}")));
        if w.stats().torn_tail_bytes_recovered > 0 {
            println!(
                "recovered {} torn tail byte(s)",
                w.stats().torn_tail_bytes_recovered
            );
        }
        w.compact().unwrap_or_else(|e| die(&format!("repair: {e}")));
        println!("repaired: {} stream(s) retained", w.live_streams());
    }
    let r = open_reader(dir);
    let report = r.verify().unwrap_or_else(|e| die(&format!("verify: {e}")));
    println!("{report}");
    for e in &report.errors {
        eprintln!("scapstore: {e}");
    }
    if !report.is_clean() {
        eprintln!("scapstore: archive is NOT clean (run verify --repair to truncate torn tails)");
        std::process::exit(1);
    }
    println!("archive is clean");
}

/// True when the file starts with the flight-journal magic.
fn is_flight_file(path: &str) -> bool {
    std::fs::read(path).is_ok_and(|b| {
        b.len() >= 4 && u32::from_le_bytes([b[0], b[1], b[2], b[3]]) == scap::flight::FLIGHT_MAGIC
    })
}

/// Decode and summarize a flight-recorder black box (the journal tail the
/// live driver dumps next to the checkpoint when the process dies),
/// printing the last few events — the ones that explain the death.
fn verify_flight(path: &str) {
    let j = scap::flight::read_journal(std::path::Path::new(path))
        .unwrap_or_else(|e| die(&format!("black box is NOT clean: {e}")));
    println!(
        "flight black box is clean: {} event(s) from {} core ring(s) (cap {}), \
         {} recorded / {} overwritten lifetime",
        j.events.len(),
        j.ncores,
        j.ring_cap,
        j.total_recorded(),
        j.total_dropped(),
    );
    if j.torn_bytes > 0 {
        println!(
            "torn tail: {} byte(s) past the last valid record",
            j.torn_bytes
        );
    }
    let rows = scap::flight::attribution(&j.events);
    println!("{}", scap::flight::top_reasons_line(rows, 3));
    let tail = j.events.len().saturating_sub(8);
    for e in &j.events[tail..] {
        println!("{}", e.format());
    }
}

/// Verify a warm-restart checkpoint file; with `repair`, truncate its
/// torn tail first (idempotent: a second repair removes nothing).
fn verify_checkpoint(path: &str, repair: bool) {
    let p = std::path::Path::new(path);
    if repair {
        let r = scap::checkpoint::repair_file(p).unwrap_or_else(|e| die(&format!("repair: {e}")));
        if r.torn_bytes_removed > 0 {
            println!(
                "recovered {} torn tail byte(s), {} valid bytes kept",
                r.torn_bytes_removed, r.valid_len
            );
        } else {
            println!("nothing to repair ({} valid bytes)", r.valid_len);
        }
    }
    match scap::checkpoint::read_image(p) {
        Ok(img) => println!(
            "checkpoint seq {} is clean: {} stream(s), {} fdir filter(s), uid counter {}",
            img.seq,
            img.streams.len(),
            img.fdir.len(),
            img.globals.uid_counter,
        ),
        Err(e) => {
            eprintln!("scapstore: checkpoint is NOT clean: {e}");
            std::process::exit(1);
        }
    }
}
