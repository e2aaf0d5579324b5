//! Multiple applications sharing one capture (§5.6 of the paper).
//!
//! A flow accountant (wants statistics only — cutoff 0), a web-traffic
//! IDS (wants port-80 streams, first 64 KB), and a DNS monitor (wants
//! UDP port 53, everything) attach as tenants of ONE kernel capture. The
//! kernel runs their generalized configuration — union of the filters,
//! largest cutoff — and performs flow tracking and reassembly once; the
//! tenant engine gives each tenant exactly its own filtered,
//! cutoff-trimmed view of the shared streams and accounts for every byte
//! it offered that tenant.
//!
//! Run with: `cargo run --release --example shared_capture`

use scap::{ScapConfig, ScapKernel, TenantEngine, TenantSpec};
use scap_trace::gen::{CampusMix, CampusMixConfig};

fn main() {
    let traffic = CampusMix::new(CampusMixConfig::sized(19, 12 << 20)).collect_all();

    // Three applications with very different requirements.
    let tenant = |name: &str, filter: Option<&str>, cutoff: Option<u64>| TenantSpec {
        name: name.into(),
        filter: filter.map(Into::into),
        cutoff,
        priority: 0,
        mem_share: 300,
        disk_share: 300,
    };
    let mut engine = TenantEngine::new(64 << 20, 8);
    for spec in [
        tenant("accounting", None, Some(0)),
        tenant("web-ids", Some("tcp and port 80"), Some(64 << 10)),
        tenant("dns-monitor", Some("udp and port 53"), None),
    ] {
        engine.attach(spec, 0, None).expect("admitted");
    }

    // The kernel runs the generalized configuration.
    let base = ScapConfig {
        memory_bytes: 64 << 20,
        inactivity_timeout_ns: 500_000_000,
        ..ScapConfig::default()
    };
    let cfg = engine.merged_config(base).expect("filters compile");
    println!(
        "kernel generalization: filter = {}, default cutoff = {:?}",
        if cfg.filter.is_some() {
            "union of tenant filters"
        } else {
            "none (a tenant wants everything)"
        },
        cfg.cutoff.default,
    );

    // One kernel, one reassembly pass; every event is demuxed across the
    // tenant table, and every consumer drains after each packet.
    let mut kernel = ScapKernel::new(cfg);
    let ids: Vec<u64> = engine.tenants().iter().map(|t| t.id).collect();
    let mut now = 0;
    for pkt in &traffic {
        now = pkt.ts_ns;
        kernel.nic_receive(pkt);
        kernel.service(now, |k, ev| {
            engine.on_event(&ev, k.flight_mut());
            k.release_event(ev);
        });
        for &id in &ids {
            engine.drain(id, u64::MAX);
        }
    }
    let end = now.saturating_add(1);
    kernel.finish(end);
    kernel.drain_events(end, |k, ev| {
        engine.on_event(&ev, k.flight_mut());
        k.release_event(ev);
    });
    for &id in &ids {
        engine.drain(id, u64::MAX);
    }

    let stack = kernel.stats().stack;
    println!(
        "\none reassembly pass: {} streams tracked, {} delivered payload bytes\n",
        stack.streams_created, stack.delivered_bytes
    );
    println!(
        "{:>12} {:>7} {:>11} {:>11} {:>9} {:>11} {:>11}  conservation",
        "tenant", "events", "matched", "delivered", "dropped", "discarded", "drained"
    );
    for t in engine.tenants() {
        let s = t.stats;
        println!(
            "{:>12} {:>7} {:>11} {:>11} {:>9} {:>11} {:>11}  {}",
            t.spec.name,
            s.events,
            s.matched_bytes,
            s.delivered_bytes,
            s.dropped_bytes,
            s.discarded_bytes,
            s.drained_bytes,
            if s.conserved() {
                "conserved"
            } else {
                "VIOLATED"
            },
        );
    }
    assert!(
        engine.all_conserved(),
        "a tenant's byte ledger does not add up"
    );
    println!("\nevery tenant conserved: matched == delivered + dropped + discarded");
    println!("The accountant got zero payload (its cutoff is 0), the IDS only");
    println!("port-80 stream prefixes, the DNS monitor only UDP/53 — all from one");
    println!("in-kernel reassembly pass over the shared stream memory.");
}
