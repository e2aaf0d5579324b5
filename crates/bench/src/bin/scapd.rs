#![forbid(unsafe_code)]

//! scapd — multi-tenant capture daemon over a filesystem control dir.
//!
//! N tenants attach with their own capture spec (BPF filter, cutoff,
//! priority, quota shares); scapd merges the union into one live
//! capture and demultiplexes events per tenant through the
//! [`TenantEngine`] slow-consumer ladder. Clients talk to the daemon
//! through plain files in the control directory, so the protocol needs
//! no sockets and is trivially scriptable from CI:
//!
//! ```text
//! attach-<name>.conf   client -> scapd   key=value spec (scapctl attach)
//! <name>.attached      scapd -> client   admission grant (id, queue cap)
//! <name>.rejected      scapd -> client   admission error text
//! <name>.spool         scapd -> client   delivery records, append-only
//! <name>.ack           client -> scapd   consumed spool offset (flow control)
//! detach-<name>        client -> scapd   hot-remove request
//! shutdown             client -> scapd   stop the capture early
//! metrics              scapd -> anyone   OpenMetrics status (scapctl, scaptop --scapd)
//! scapd-done           scapd -> anyone   capture over; content "ok" or error
//! ```
//!
//! `metrics` is the daemon's one status file, rewritten every 512
//! packets and once at the end: the kernel's counters, gauges and pulse
//! latency histograms, and the tenant table as `scapd_tenant_*` gauges,
//! one series per tenant (detached ones with `state="detached"`).
//! `scap_bench::render` writes and parses the tenant table.
//!
//! Flow control is a per-tenant ack window accounted in payload
//! bytes: the client writes the payload byte count it has consumed to
//! its `.ack` file, and scapd only spools a delivery while
//! `spooled_payload - acked_payload < window`. A consumer that stops
//! acking exhausts its window, its queue fills, and the ladder
//! (degrade -> drop-with-provenance -> disconnect) engages without
//! ever head-of-line-blocking the other tenants.
//!
//! ```text
//! scapd --dir /tmp/ctl --await-tenants 2 --gen 2 --seed 42
//! ```

use scap::checkpoint::write_atomic;
use scap::tenant::{Tenant, TenantEngine, TenantSpec, TenantState, TenantStats};
use scap::{ScapConfig, ScapKernel};
use scap_bench::render::{scapd_series, ScapdStatus, TenantRow};
use scap_trace::gen::{CampusMix, CampusMixConfig};
use scap_trace::Packet;
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn die(msg: &str) -> ! {
    eprintln!("scapd: {msg}");
    std::process::exit(2);
}

/// Write `content` to `path` atomically (temp file + rename) so readers
/// polling the control dir never observe a half-written file.
fn publish(path: &Path, content: &str) {
    write_atomic(path, content.as_bytes())
        .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", path.display())));
}

/// Parse a `key=value` attach spec. Unknown keys are an error so a
/// typo'd quota line cannot silently attach with defaults.
fn parse_spec(name: &str, text: &str) -> Result<TenantSpec, String> {
    let mut spec = TenantSpec {
        name: name.to_string(),
        filter: None,
        cutoff: None,
        priority: 0,
        mem_share: 100,
        disk_share: 100,
    };
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (k, v) = line
            .split_once('=')
            .ok_or_else(|| format!("malformed line {line:?}"))?;
        let (k, v) = (k.trim(), v.trim());
        match k {
            "filter" => spec.filter = (!v.is_empty()).then(|| v.to_string()),
            "cutoff" => spec.cutoff = Some(v.parse().map_err(|_| format!("bad cutoff {v:?}"))?),
            "priority" => spec.priority = v.parse().map_err(|_| format!("bad priority {v:?}"))?,
            "mem_share" => {
                spec.mem_share = v.parse().map_err(|_| format!("bad mem_share {v:?}"))?
            }
            "disk_share" => {
                spec.disk_share = v.parse().map_err(|_| format!("bad disk_share {v:?}"))?
            }
            other => return Err(format!("unknown key {other:?}")),
        }
    }
    Ok(spec)
}

/// Per-tenant spool bookkeeping: the append-only delivery file plus
/// how far the consumer has acked it.
struct Spool {
    path: PathBuf,
    /// Payload bytes represented by spooled `d` records.
    payload: u64,
}

impl Spool {
    fn open(dir: &Path, name: &str) -> Spool {
        let path = dir.join(format!("{name}.spool"));
        // Truncate any stale spool from a previous run of this name.
        std::fs::write(&path, b"").unwrap_or_else(|e| die(&format!("cannot create spool: {e}")));
        Spool { path, payload: 0 }
    }

    fn append(&mut self, records: &str, payload: u64) {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&self.path)
            .unwrap_or_else(|e| die(&format!("cannot append spool: {e}")));
        f.write_all(records.as_bytes())
            .unwrap_or_else(|e| die(&format!("spool write failed: {e}")));
        self.payload += payload;
    }
}

fn read_ack(dir: &Path, name: &str) -> u64 {
    std::fs::read_to_string(dir.join(format!("{name}.ack")))
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}

struct Daemon {
    dir: PathBuf,
    engine: TenantEngine,
    base: ScapConfig,
    window: u64,
    /// Tenant names whose attach request has been processed (grant or
    /// reject), so a lingering conf file is not re-admitted.
    processed: HashSet<String>,
    spools: HashMap<u64, (String, Spool)>,
    /// Acked payload bytes per tenant id, cached from the `.ack`
    /// files so the per-packet drain pass does not hit the fs.
    acks: HashMap<u64, u64>,
    /// Final rows of detached tenants, published beside the live ones.
    detached: Vec<TenantRow>,
}

impl Daemon {
    /// Scan for new `attach-<name>.conf` files and run admission on
    /// each. With a live kernel the tenant table and merged config are
    /// hot-applied; before the capture starts `kernel` is `None`.
    fn process_attaches(&mut self, now_ns: u64, mut kernel: Option<&mut ScapKernel>) {
        let mut names = Vec::new();
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for e in entries.flatten() {
                let fname = e.file_name().to_string_lossy().into_owned();
                if let Some(rest) = fname
                    .strip_prefix("attach-")
                    .and_then(|r| r.strip_suffix(".conf"))
                {
                    if !rest.is_empty() && !self.processed.contains(rest) {
                        names.push(rest.to_string());
                    }
                }
            }
        }
        names.sort(); // deterministic admission order within a scan
        for name in names {
            self.processed.insert(name.clone());
            let conf = self.dir.join(format!("attach-{name}.conf"));
            let text = std::fs::read_to_string(&conf).unwrap_or_default();
            let verdict = match parse_spec(&name, &text) {
                Err(e) => Err(e),
                Ok(spec) => self
                    .engine
                    .attach(spec, now_ns, kernel.as_deref_mut().map(|k| k.flight_mut()))
                    .map_err(|e| e.to_string()),
            };
            match verdict {
                Ok(id) => {
                    let cap = self.engine.tenant(id).map(|t| t.queue_cap()).unwrap_or(0);
                    self.spools
                        .insert(id, (name.clone(), Spool::open(&self.dir, &name)));
                    publish(
                        &self.dir.join(format!("{name}.attached")),
                        &format!("id={id}\nqueue_cap={cap}\n"),
                    );
                    eprintln!("scapd: tenant {name} attached (id {id}, queue cap {cap} B)");
                    if let Some(k) = kernel.as_deref_mut() {
                        self.reconfigure(k);
                    }
                }
                Err(e) => {
                    publish(
                        &self.dir.join(format!("{name}.rejected")),
                        &format!("{e}\n"),
                    );
                    eprintln!("scapd: tenant {name} rejected: {e}");
                }
            }
        }
    }

    /// Scan for `detach-<name>` markers and hot-remove those tenants.
    fn process_detaches(&mut self, now_ns: u64, kernel: &mut ScapKernel) {
        let names: Vec<String> = self
            .engine
            .tenants()
            .iter()
            .filter(|t| self.dir.join(format!("detach-{}", t.spec.name)).exists())
            .map(|t| t.spec.name.clone())
            .collect();
        for name in names {
            let id = self.engine.tenant_by_name(&name).map(|t| t.id);
            if let Some(id) = id {
                if let Some(stats) = self.engine.detach(id, now_ns, Some(kernel.flight_mut())) {
                    self.detached.push(stats_row(&name, id, "detached", &stats));
                }
                self.spools.remove(&id);
                self.acks.remove(&id);
                self.processed.remove(&name); // the name may re-attach later
                let _ = std::fs::remove_file(self.dir.join(format!("detach-{name}")));
                let _ = std::fs::remove_file(self.dir.join(format!("attach-{name}.conf")));
                eprintln!("scapd: tenant {name} detached");
                self.reconfigure(kernel);
            }
        }
    }

    /// Push the tenant set's merged view into the live kernel: the
    /// checkpoint tenant table plus a validated hot config delta.
    fn reconfigure(&mut self, kernel: &mut ScapKernel) {
        kernel.set_tenant_table(self.engine.images());
        match self.engine.config_delta(self.base.clone()) {
            Ok(delta) => {
                if let Err(e) = kernel.try_apply_config(delta) {
                    die(&format!("merged config conflicts with live config: {e}"));
                }
            }
            Err(e) => die(&format!("merged config no longer compiles: {e}")),
        }
    }

    /// Refresh the cached acked-payload counters from the `.ack` files.
    fn refresh_acks(&mut self) {
        let pairs: Vec<(u64, String)> = self
            .spools
            .iter()
            .map(|(id, (name, _))| (*id, name.clone()))
            .collect();
        for (id, name) in pairs {
            self.acks.insert(id, read_ack(&self.dir, &name));
        }
    }

    /// Spool queued deliveries for every tenant whose ack window has
    /// room. A consumer that stops acking stalls only its own spool.
    fn drain_into_spools(&mut self) {
        let ids: Vec<u64> = self.spools.keys().copied().collect();
        for id in ids {
            let spooled = self.spools[&id].1.payload;
            let acked = self.acks.get(&id).copied().unwrap_or(0);
            let allowance = (acked + self.window).saturating_sub(spooled);
            if allowance == 0 {
                continue;
            }
            let deliveries = self.engine.drain(id, allowance);
            if deliveries.is_empty() {
                continue;
            }
            let mut records = String::new();
            let mut payload = 0u64;
            for d in &deliveries {
                match d.kind {
                    0 => records.push_str(&format!("c {}\n", d.uid)),
                    2 => records.push_str(&format!("t {}\n", d.uid)),
                    _ => {
                        let dir = d.dir.map(|x| x.index()).unwrap_or(0);
                        records.push_str(&format!("d {} {} {}\n", d.uid, dir, d.bytes));
                        payload += d.bytes;
                    }
                }
            }
            if let Some((_, sp)) = self.spools.get_mut(&id) {
                sp.append(&records, payload);
            }
        }
    }

    /// The live row of an attached tenant.
    fn row(&self, t: &Tenant) -> TenantRow {
        TenantRow {
            queue: t.queue_depth().0,
            queue_cap: t.queue_cap(),
            headroom: t.quota_headroom(),
            spooled: self.spools.get(&t.id).map_or(0, |(_, sp)| sp.payload),
            acked: self.acks.get(&t.id).copied().unwrap_or(0),
            ..stats_row(&t.spec.name, t.id, t.state.name(), &t.stats)
        }
    }

    /// Publish the OpenMetrics exposition as `metrics` in the control
    /// dir (atomic rename, so a scrape never sees a torn file).
    /// `scapctl metrics` reads and validates it. The kernel's pulse
    /// plane and the tenant engine's queue-residency plane merge into
    /// one histogram family — their stages are disjoint.
    fn write_metrics(
        &self,
        kernel: &ScapKernel,
        mode: &str,
        now_ns: u64,
        fed: usize,
        total: usize,
    ) {
        let mut om = scap::telemetry::openmetrics::OpenMetrics::new();
        let labels = [("proc", "scapd"), ("mode", mode)];
        om.registry(&kernel.telemetry_snapshot(), &labels);
        let mut pulse = kernel.pulse_snapshot();
        pulse.merge(&self.engine.pulse_snapshot());
        om.pulse(&pulse, &labels);
        let mut tenants: Vec<TenantRow> =
            self.engine.tenants().iter().map(|t| self.row(t)).collect();
        tenants.extend(self.detached.iter().cloned());
        let status = ScapdStatus {
            fed: fed as u64,
            total: total as u64,
            ts_ns: now_ns,
            tenants,
        };
        scapd_series(&mut om, &status);
        publish(&self.dir.join("metrics"), &om.finish());
    }
}

/// A tenant row carrying only what the engine's counters say.
fn stats_row(name: &str, id: u64, state: &str, s: &TenantStats) -> TenantRow {
    TenantRow {
        name: name.into(),
        id,
        state: state.into(),
        matched: s.matched_bytes,
        delivered: s.delivered_bytes,
        drained: s.drained_bytes,
        dropped: s.dropped_bytes,
        discarded: s.discarded_bytes,
        strikes: s.strikes,
        ..TenantRow::default()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: scapd --dir DIR [--await-tenants N] [--gen MB] [--seed N] \
             [--budget BYTES] [--window BYTES] [--pace-us US] [--attach-wait-ms MS]"
        );
        std::process::exit(0);
    }
    let mut dir: Option<PathBuf> = None;
    let mut await_tenants: usize = 1;
    let mut gen_mb: u64 = 2;
    let mut seed: u64 = 42;
    let mut budget: u64 = 256 << 10;
    let mut window: u64 = 64 << 10;
    let mut pace_us: u64 = 300;
    let mut attach_wait_ms: u64 = 30_000;
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
                dir = Some(PathBuf::from(
                    args.get(i).unwrap_or_else(|| die("--dir needs a path")),
                ));
            }
            "--await-tenants" => {
                i += 1;
                await_tenants = numarg(&args, i, "--await-tenants") as usize;
            }
            "--gen" => {
                i += 1;
                gen_mb = numarg(&args, i, "--gen");
            }
            "--seed" => {
                i += 1;
                seed = numarg(&args, i, "--seed");
            }
            "--budget" => {
                i += 1;
                budget = numarg(&args, i, "--budget");
            }
            "--window" => {
                i += 1;
                window = numarg(&args, i, "--window");
            }
            "--pace-us" => {
                i += 1;
                pace_us = numarg(&args, i, "--pace-us");
            }
            "--attach-wait-ms" => {
                i += 1;
                attach_wait_ms = numarg(&args, i, "--attach-wait-ms");
            }
            other => die(&format!("unknown flag {other}")),
        }
        i += 1;
    }
    let dir = dir.unwrap_or_else(|| die("--dir is required"));
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| die(&format!("cannot create {}: {e}", dir.display())));
    // A fresh run owns the dir: clear markers a previous run left.
    for stale in ["scapd-done", "metrics", "shutdown"] {
        let _ = std::fs::remove_file(dir.join(stale));
    }

    let mut d = Daemon {
        dir,
        engine: TenantEngine::new(budget, 8),
        base: ScapConfig::default(),
        window,
        processed: HashSet::new(),
        spools: HashMap::new(),
        acks: HashMap::new(),
        detached: Vec::new(),
    };

    // Admission phase: wait for the requested number of tenants.
    eprintln!(
        "scapd: waiting for {await_tenants} tenant(s) in {}",
        d.dir.display()
    );
    let deadline = Instant::now() + Duration::from_millis(attach_wait_ms);
    while d.engine.tenants().len() < await_tenants {
        d.process_attaches(0, None);
        if d.engine.tenants().len() >= await_tenants {
            break;
        }
        if Instant::now() > deadline {
            publish(&d.dir.join("scapd-done"), "error: attach wait timed out\n");
            die("timed out waiting for tenants to attach");
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    let merged = d
        .engine
        .merged_config(d.base.clone())
        .unwrap_or_else(|e| die(&format!("merged config: {e}")));
    // The engine's tenant-queue pulse samples at the same quantile/cap
    // as the kernel plane, so the merged exposition is homogeneous.
    d.engine
        .configure_pulse(merged.pulse_exemplar_permille, merged.pulse_exemplar_cap);
    let mode = match merged.dispatch {
        scap::DispatchMode::Fastpath => "fastpath",
        _ => "classic",
    };
    let mut kernel = ScapKernel::new(merged);
    kernel.set_tenant_table(d.engine.images());

    let packets: Vec<Packet> =
        CampusMix::new(CampusMixConfig::sized(seed, gen_mb << 20)).collect_all();
    let total = packets.len();
    eprintln!(
        "scapd: capture starting — {} tenants, {} packets, budget {} B, window {} B",
        d.engine.tenants().len(),
        total,
        budget,
        window
    );

    let mut now = 0u64;
    for (idx, pkt) in packets.iter().enumerate() {
        now = pkt.ts_ns;
        kernel.nic_receive(pkt);
        kernel.service(now, |k, ev| {
            d.engine.on_event(&ev, k.flight_mut());
            k.release_event(ev);
        });
        d.drain_into_spools();
        if ((idx + 1) % 64) == 0 {
            d.refresh_acks();
            d.process_attaches(now, Some(&mut kernel));
            d.process_detaches(now, &mut kernel);
            if ((idx + 1) % 512) == 0 {
                d.write_metrics(&kernel, mode, now, idx + 1, total);
            }
            if d.dir.join("shutdown").exists() {
                eprintln!("scapd: shutdown requested at packet {}", idx + 1);
                break;
            }
            if pace_us > 0 {
                std::thread::sleep(Duration::from_micros(pace_us));
            }
        }
    }

    kernel.finish(now.saturating_add(1));
    kernel.drain_events(now.saturating_add(1), |k, ev| {
        d.engine.on_event(&ev, k.flight_mut());
        k.release_event(ev);
    });

    // Grace period: let live consumers ack and drain the tail. A
    // stalled consumer's window stays exhausted and cannot hold the
    // daemon past the deadline.
    let grace = Instant::now() + Duration::from_millis(2_000);
    loop {
        d.refresh_acks();
        d.drain_into_spools();
        let backlog: u64 = d
            .engine
            .tenants()
            .iter()
            .filter(|t| t.state != TenantState::Disconnected)
            .map(|t| t.queue_depth().0)
            .sum();
        if backlog == 0 || Instant::now() > grace {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    d.write_metrics(&kernel, mode, now.saturating_add(1), total, total);
    // The per-tenant totals are in `metrics` (`scapctl status`).
    if d.engine.all_conserved() {
        publish(&d.dir.join("scapd-done"), "ok\n");
        eprintln!("scapd: capture complete, conservation holds");
    } else {
        publish(&d.dir.join("scapd-done"), "error: conservation violated\n");
        die("per-tenant conservation identity violated");
    }
}
