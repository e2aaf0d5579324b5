#![forbid(unsafe_code)]

//! scapctl — client for a running scapd control directory.
//!
//! Speaks the scapd filesystem protocol (see `scapd.rs`): attach
//! requests are `attach-<name>.conf` files, deliveries arrive in
//! `<name>.spool`, and flow control is the consumed offset the client
//! writes to `<name>.ack`. A consumer that stops acking exercises the
//! daemon's slow-consumer ladder — `consume --stall-after` does that
//! on purpose for the CI isolation smoke.
//!
//! ```text
//! scapctl attach  --dir D --name web --filter "tcp and port 80" \
//!                 --cutoff 8192 --priority 2 --mem 300 --disk 300
//! scapctl consume --dir D --name web            # ack until scapd-done
//! scapctl consume --dir D --name bulk --stall-after 4096
//! scapctl detach  --dir D --name web
//! scapctl metrics --dir D                       # validated OpenMetrics dump
//! scapctl status  --dir D                       # tenant table (tsv), read from `metrics`
//! ```
//!
//! `metrics` is the machine format; `status` renders its tenant rows
//! for a person. A `--name` must be 1 to 64 of `[A-Za-z0-9_-]`, the
//! daemon's admission rule: it becomes a file name in the control dir.

use scap::checkpoint::write_atomic;
use scap::tenant::valid_tenant_name;
use scap_bench::cli::Args;
use scap_bench::render::{parse_scapd_status, Rows, TenantRow};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn die(msg: &str) -> ! {
    eprintln!("scapctl: {msg}");
    std::process::exit(2);
}

/// Write `content` to `path` atomically (temp file + rename).
fn publish(path: &Path, content: &str) {
    write_atomic(path, content.as_bytes())
        .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", path.display())));
}

struct Flags {
    dir: PathBuf,
    name: String,
    filter: Option<String>,
    cutoff: Option<u64>,
    priority: u8,
    mem: u32,
    disk: u32,
    stall_after: Option<u64>,
    wait_ms: u64,
    poll_ms: u64,
}

fn parse_flags(args: &[String], needs_name: bool) -> Flags {
    let mut f = Flags {
        dir: PathBuf::new(),
        name: String::new(),
        filter: None,
        cutoff: None,
        priority: 0,
        mem: 100,
        disk: 100,
        stall_after: None,
        wait_ms: 15_000,
        poll_ms: 10,
    };
    let mut flags = Args::new(args, die);
    while let Some(arg) = flags.next() {
        match arg {
            "--dir" => f.dir = flags.value("a path"),
            "--name" => f.name = flags.value("a value"),
            "--filter" => f.filter = Some(flags.value("a value")),
            "--cutoff" => f.cutoff = Some(flags.value("a number")),
            "--priority" => f.priority = flags.value("a number"),
            "--mem" => f.mem = flags.value("a number"),
            "--disk" => f.disk = flags.value("a number"),
            "--stall-after" => f.stall_after = Some(flags.value("a number")),
            "--wait-ms" => f.wait_ms = flags.value("a number"),
            "--poll-ms" => f.poll_ms = flags.value::<u64>("a number").max(1),
            other => die(&format!("unknown flag {other}")),
        }
    }
    if f.dir.as_os_str().is_empty() {
        die("--dir is required");
    }
    if needs_name && f.name.is_empty() {
        die("--name is required");
    }
    if !f.name.is_empty() && !valid_tenant_name(&f.name) {
        die(&format!(
            "--name {:?} is not 1 to 64 of [A-Za-z0-9_-]",
            f.name
        ));
    }
    f
}

/// Write the attach spec and wait for the daemon's verdict.
fn attach(f: &Flags) -> i32 {
    let mut conf = String::new();
    if let Some(flt) = &f.filter {
        conf.push_str(&format!("filter={flt}\n"));
    }
    if let Some(c) = f.cutoff {
        conf.push_str(&format!("cutoff={c}\n"));
    }
    conf.push_str(&format!(
        "priority={}\nmem_share={}\ndisk_share={}\n",
        f.priority, f.mem, f.disk
    ));
    let granted = f.dir.join(format!("{}.attached", f.name));
    let rejected = f.dir.join(format!("{}.rejected", f.name));
    let _ = std::fs::remove_file(&granted);
    let _ = std::fs::remove_file(&rejected);
    publish(&f.dir.join(format!("attach-{}.conf", f.name)), &conf);
    let deadline = Instant::now() + Duration::from_millis(f.wait_ms);
    loop {
        if let Ok(grant) = std::fs::read_to_string(&granted) {
            print!("attached {}: {grant}", f.name);
            return 0;
        }
        if let Ok(why) = std::fs::read_to_string(&rejected) {
            eprint!("scapctl: attach {} rejected: {why}", f.name);
            return 1;
        }
        if Instant::now() > deadline {
            die(&format!("attach {} timed out", f.name));
        }
        std::thread::sleep(Duration::from_millis(f.poll_ms));
    }
}

/// Tail the spool, acking the payload bytes consumed (scapd's flow
/// control currency), until the daemon is done. With `--stall-after B`
/// the client stops consuming (and acking) once it has taken B payload
/// bytes — a hostile slow consumer that exercises the daemon's ladder.
fn consume(f: &Flags) -> i32 {
    let spool_path = f.dir.join(format!("{}.spool", f.name));
    let ack_path = f.dir.join(format!("{}.ack", f.name));
    let done_path = f.dir.join("scapd-done");
    let mut offset = 0u64; // spool bytes read
    let mut payload = 0u64; // payload bytes consumed (the acked value)
    let mut records = 0u64;
    let mut carry = String::new();
    let stall_at = f.stall_after.unwrap_or(u64::MAX);
    let mut stalled = false;
    loop {
        let done = done_path.exists();
        let len = std::fs::metadata(&spool_path).map(|m| m.len()).unwrap_or(0);
        if !stalled && len > offset {
            let mut file = std::fs::File::open(&spool_path)
                .unwrap_or_else(|e| die(&format!("cannot open spool: {e}")));
            file.seek(SeekFrom::Start(offset))
                .unwrap_or_else(|e| die(&format!("seek failed: {e}")));
            let mut buf = vec![0u8; (len - offset) as usize];
            file.read_exact(&mut buf)
                .unwrap_or_else(|e| die(&format!("spool read failed: {e}")));
            offset = len;
            carry.push_str(&String::from_utf8_lossy(&buf));
            // Only complete lines count as consumed records; a partial
            // tail line waits for the next poll.
            while let Some(nl) = carry.find('\n') {
                let line: String = carry.drain(..=nl).collect();
                records += 1;
                let mut parts = line.split_whitespace();
                if parts.next() == Some("d") {
                    let _uid = parts.next();
                    let _dir = parts.next();
                    payload += parts
                        .next()
                        .and_then(|b| b.parse::<u64>().ok())
                        .unwrap_or(0);
                }
                if payload >= stall_at {
                    stalled = true;
                    eprintln!("scapctl: {} stalling at {payload} payload bytes", f.name);
                    break;
                }
            }
            if !stalled {
                publish(&ack_path, &format!("{payload}\n"));
            }
        }
        if done && (stalled || len <= offset) {
            break;
        }
        std::thread::sleep(Duration::from_millis(f.poll_ms));
    }
    println!(
        "consumed {}: {records} records, {payload} payload bytes{}",
        f.name,
        if stalled { " (stalled)" } else { "" }
    );
    0
}

fn detach(f: &Flags) -> i32 {
    publish(&f.dir.join(format!("detach-{}", f.name)), "");
    println!("detach {} requested", f.name);
    0
}

/// Read the daemon's exposition, refusing text that does not parse: a
/// scrape `scapctl metrics` relays is safe to hand to any OpenMetrics
/// consumer.
fn read_metrics(f: &Flags) -> String {
    let path = f.dir.join("metrics");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        die(&format!(
            "cannot read {} (is scapd running with traffic?): {e}",
            path.display()
        ))
    });
    if let Err(why) = scap::telemetry::openmetrics::validate(&text) {
        die(&format!("invalid OpenMetrics exposition: {why}"));
    }
    text
}

/// Print the daemon's tenant table, read back from `metrics`: one
/// tab-separated row per tenant, a column per `scapd_tenant_*` gauge.
fn status(f: &Flags) -> i32 {
    let s = parse_scapd_status(&read_metrics(f)).unwrap_or_else(|e| die(&e));
    println!(
        "# fed={} total={} ts_ns={} conserved={}",
        s.progress.fed,
        s.progress.total,
        s.progress.ts_ns,
        s.conserved()
    );
    let names: Vec<&str> = TenantRow::FIELDS.iter().map(|(n, _)| *n).collect();
    println!("tenant\tid\tstate\t{}\tconserved", names.join("\t"));
    for mut r in s.tenants {
        let cells: Vec<String> = TenantRow::FIELDS
            .iter()
            .map(|(_, f)| f(&mut r).to_string())
            .collect();
        let conserved = r.conserved();
        println!(
            "{}\t{}\t{}\t{}\t{conserved}",
            r.name,
            r.id,
            r.state,
            cells.join("\t")
        );
    }
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: scapctl <attach|consume|detach|metrics|status> --dir DIR \
                 [--name NAME] \
                 [--filter F] [--cutoff B] [--priority P] [--mem PERMILLE] \
                 [--disk PERMILLE] [--stall-after BYTES] [--wait-ms MS] [--poll-ms MS]";
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{usage}");
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    let cmd = args[0].clone();
    let needs_name = matches!(cmd.as_str(), "attach" | "consume" | "detach");
    let f = parse_flags(&args[1..], needs_name);
    let code = match cmd.as_str() {
        "attach" => attach(&f),
        "consume" => consume(&f),
        "detach" => detach(&f),
        "metrics" => {
            print!("{}", read_metrics(&f));
            0
        }
        "status" => status(&f),
        other => die(&format!("unknown command {other} ({usage})")),
    };
    std::process::exit(code);
}
