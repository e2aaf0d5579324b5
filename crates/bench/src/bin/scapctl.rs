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
//! scapctl status  --dir D [--json]              # live tsv / final json status
//! ```

use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn die(msg: &str) -> ! {
    eprintln!("scapctl: {msg}");
    std::process::exit(2);
}

fn write_atomic(path: &Path, content: &str) {
    let tmp = path.with_extension("tmp-scapctl");
    std::fs::write(&tmp, content)
        .and_then(|()| std::fs::rename(&tmp, path))
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
    json: bool,
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
        json: false,
    };
    let numarg = |args: &[String], i: usize, name: &str| -> u64 {
        args.get(i)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| die(&format!("{name} needs a number")))
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--dir" => {
                i += 1;
                f.dir = PathBuf::from(args.get(i).unwrap_or_else(|| die("--dir needs a path")));
            }
            "--name" => {
                i += 1;
                f.name = args
                    .get(i)
                    .unwrap_or_else(|| die("--name needs a value"))
                    .clone();
            }
            "--filter" => {
                i += 1;
                f.filter = Some(
                    args.get(i)
                        .unwrap_or_else(|| die("--filter needs a value"))
                        .clone(),
                );
            }
            "--cutoff" => {
                i += 1;
                f.cutoff = Some(numarg(args, i, "--cutoff"));
            }
            "--priority" => {
                i += 1;
                f.priority = numarg(args, i, "--priority") as u8;
            }
            "--mem" => {
                i += 1;
                f.mem = numarg(args, i, "--mem") as u32;
            }
            "--disk" => {
                i += 1;
                f.disk = numarg(args, i, "--disk") as u32;
            }
            "--stall-after" => {
                i += 1;
                f.stall_after = Some(numarg(args, i, "--stall-after"));
            }
            "--wait-ms" => {
                i += 1;
                f.wait_ms = numarg(args, i, "--wait-ms");
            }
            "--poll-ms" => {
                i += 1;
                f.poll_ms = numarg(args, i, "--poll-ms").max(1);
            }
            "--json" => f.json = true,
            other => die(&format!("unknown flag {other}")),
        }
        i += 1;
    }
    if f.dir.as_os_str().is_empty() {
        die("--dir is required");
    }
    if needs_name && f.name.is_empty() {
        die("--name is required");
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
    write_atomic(&f.dir.join(format!("attach-{}.conf", f.name)), &conf);
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
                write_atomic(&ack_path, &format!("{payload}\n"));
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
    write_atomic(&f.dir.join(format!("detach-{}", f.name)), "");
    println!("detach {} requested", f.name);
    0
}

/// Dump the daemon's OpenMetrics exposition, refusing to relay text
/// that does not parse — a scrape that passes here is safe to hand to
/// any OpenMetrics consumer.
fn metrics(f: &Flags) -> i32 {
    let path = f.dir.join("metrics");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        die(&format!(
            "cannot read {} (is scapd running with traffic?): {e}",
            path.display()
        ))
    });
    match scap::telemetry::openmetrics::validate(&text) {
        Ok(samples) => {
            print!("{text}");
            eprintln!("scapctl: {samples} samples, exposition valid");
            0
        }
        Err(why) => {
            eprintln!("scapctl: invalid OpenMetrics exposition: {why}");
            1
        }
    }
}

/// Print the daemon's status: the live per-tenant tsv panel, or with
/// `--json` the machine-readable status (which embeds the telemetry
/// counter/gauge snapshot and the per-stage latency summary).
fn status(f: &Flags) -> i32 {
    let path = if f.json {
        f.dir.join("scapd-status.json")
    } else {
        f.dir.join("scapd-status.tsv")
    };
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| die(&format!("cannot read {}: {e}", path.display())));
    print!("{text}");
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: scapctl <attach|consume|detach|metrics|status> --dir DIR \
                 [--name NAME] [--json] \
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
        "metrics" => metrics(&f),
        "status" => status(&f),
        other => die(&format!("unknown command {other} ({usage})")),
    };
    std::process::exit(code);
}
