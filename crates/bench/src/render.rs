//! Shared terminal-rendering helpers for the live dashboards.
//!
//! `scaptop` grew several panels (per-queue rates, the scapd tenant
//! view, the shard-fleet view, and the pulse latency panel) that all
//! need the same primitives: permille formatting, occupancy bars,
//! rate math over a virtual-time window, sparklines over a bounded
//! history, and the frame protocol (ANSI repaint on a TTY, sequential
//! frames with a `----` separator on a pipe, optional wall-clock
//! pacing). Keeping them here means a new panel cannot drift from the
//! others' formatting.
//!
//! It also holds scapd's tenant table: [`ScapdStatus`] is what the
//! daemon publishes in its OpenMetrics `metrics` file
//! ([`scapd_series`]) and what `scaptop --scapd` and `scapctl status`
//! read back from it ([`parse_scapd_status`]).

use scap::telemetry::openmetrics::OpenMetrics;
use std::io::{IsTerminal, Write};

/// Render a permille gauge (0..=1000) as a percentage, e.g. `427` →
/// `"42.7%"`.
pub fn permille(v: u64) -> String {
    format!("{}.{}%", v / 10, v % 10)
}

/// A 10-cell occupancy bar for a permille gauge, e.g. `[####......]`
/// interior for 40%.
pub fn bar(permille: u64) -> String {
    let filled = (permille.min(1000) / 100) as usize;
    format!("{}{}", "#".repeat(filled), ".".repeat(10 - filled))
}

/// Events per second over a virtual-time window; 0 when the window is
/// empty (first frame).
pub fn rate_per_sec(delta: u64, dt_s: f64) -> f64 {
    if dt_s > 0.0 {
        delta as f64 / dt_s
    } else {
        0.0
    }
}

/// Megabits per second over a virtual-time window.
pub fn mbit_per_sec(delta_bytes: u64, dt_s: f64) -> f64 {
    rate_per_sec(delta_bytes, dt_s) * 8.0 / 1e6
}

/// A one-line sparkline over a value history, scaled to the max seen.
///
/// Uses a pure-ASCII ramp so pipes, CI logs, and narrow terminals all
/// render it identically. An empty history renders as an empty string.
pub fn sparkline(vals: &[u64]) -> String {
    const RAMP: [char; 8] = ['_', '.', ':', '-', '=', '+', '*', '#'];
    let max = vals.iter().copied().max().unwrap_or(0);
    vals.iter()
        .map(|&v| {
            let cell = (v * (RAMP.len() as u64 - 1)).checked_div(max).unwrap_or(0);
            RAMP[cell as usize]
        })
        .collect()
}

/// One dashboard frame: accumulates text, then repaints in place on a
/// TTY or appends a `----`-separated frame on a pipe, with optional
/// wall-clock pacing between frames.
pub struct Frame {
    ansi: bool,
    delay_ms: u64,
    buf: String,
}

impl Frame {
    /// A frame writer for stdout; ANSI repaint iff stdout is a TTY.
    pub fn new(delay_ms: u64) -> Self {
        Frame {
            ansi: std::io::stdout().is_terminal(),
            delay_ms,
            buf: String::new(),
        }
    }

    /// Start a frame: clears the accumulated buffer and, on a TTY,
    /// queues the clear-screen + home escape so the frame repaints in
    /// place. Returns the buffer to format the frame body into.
    pub fn begin(&mut self) -> &mut String {
        self.buf.clear();
        if self.ansi {
            self.buf.push_str("\x1b[2J\x1b[H");
        }
        &mut self.buf
    }

    /// Flush the accumulated frame to stdout (with the pipe-mode
    /// separator when not on a TTY) and apply the inter-frame delay.
    pub fn flush(&mut self) {
        let mut w = std::io::stdout().lock();
        let _ = w.write_all(self.buf.as_bytes());
        if !self.ansi {
            let _ = w.write_all(b"----\n");
        }
        let _ = w.flush();
        if self.delay_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(self.delay_ms));
        }
    }
}

/// Per-stage p99 history feeding the latency panel's sparklines.
///
/// Bounded to the last [`LatencyHistory::WINDOW`] frames per stage so a
/// long capture cannot grow the dashboard's memory.
#[derive(Default)]
pub struct LatencyHistory {
    /// `series[stage_idx]` = recent p99 samples, oldest first.
    series: Vec<Vec<u64>>,
}

impl LatencyHistory {
    /// Frames of history a sparkline spans.
    pub const WINDOW: usize = 32;

    /// Record this frame's p99 for a stage.
    pub fn push(&mut self, stage_idx: usize, p99_ns: u64) {
        if self.series.len() <= stage_idx {
            self.series.resize(stage_idx + 1, Vec::new());
        }
        let s = &mut self.series[stage_idx];
        s.push(p99_ns);
        if s.len() > Self::WINDOW {
            s.remove(0);
        }
    }

    /// The sparkline for a stage ("" when the stage never recorded).
    pub fn sparkline(&self, stage_idx: usize) -> String {
        self.series
            .get(stage_idx)
            .map(|s| sparkline(s))
            .unwrap_or_default()
    }
}

/// Append the per-stage pulse latency panel to a frame body: one row
/// per active stage with interpolated p50/p99/p999, the exemplar count,
/// and a sparkline of the p99 trend across recent frames.
pub fn latency_panel(
    out: &mut String,
    snap: &scap::telemetry::PulseSnapshot,
    history: &mut LatencyHistory,
) {
    use scap::telemetry::PulseStage;
    out.push_str(&format!(
        "\nlatency (pulse plane, ns)          count       p50       p99      p999  ex  p99 trend (last {})\n",
        LatencyHistory::WINDOW
    ));
    let mut any = false;
    for st in PulseStage::ALL {
        let (count, p50, p99, p999) = snap.summary(st);
        if count == 0 {
            continue;
        }
        any = true;
        history.push(st.idx(), p99);
        out.push_str(&format!(
            "  {:<22} {:>16} {:>9} {:>9} {:>9} {:>3}  {}\n",
            st.name(),
            count,
            p50,
            p99,
            p999,
            snap.stage_exemplars(st).len(),
            history.sparkline(st.idx()),
        ));
    }
    if !any {
        out.push_str("  no stage latencies recorded yet\n");
    }
}

/// One tenant of a scapd instance, as its `metrics` file carries it:
/// the `scapd_tenant_*` gauge families, one series per tenant labelled
/// `tenant`, `id` and `state`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TenantRow {
    /// Tenant name (`[A-Za-z0-9_-]{1,64}`, checked at admission).
    pub name: String,
    /// Tenant id.
    pub id: u64,
    /// `active`, `degraded`, `disconnected`, or `detached`.
    pub state: String,
    /// Bytes the tenant's filter matched.
    pub matched: u64,
    /// Bytes admitted to the tenant's queue.
    pub delivered: u64,
    /// Bytes the daemon drained from the queue into the spool.
    pub drained: u64,
    /// Bytes dropped by the slow-consumer ladder.
    pub dropped: u64,
    /// Bytes discarded by the tenant's own cutoff.
    pub discarded: u64,
    /// Bytes queued now.
    pub queue: u64,
    /// The queue's byte cap (the tenant's memory share).
    pub queue_cap: u64,
    /// Bytes left before the queue cap.
    pub headroom: u64,
    /// Strikes on the slow-consumer ladder.
    pub strikes: u64,
    /// Payload bytes written to the tenant's spool.
    pub spooled: u64,
    /// Payload bytes the consumer acked.
    pub acked: u64,
}

impl TenantRow {
    /// `matched = delivered + dropped + discarded`.
    pub fn conserved(&self) -> bool {
        self.matched == self.delivered + self.dropped + self.discarded
    }
}

/// Accessor of one `u64` field of a status struct.
pub type Field<T> = fn(&mut T) -> &mut u64;

/// Each `scapd_tenant_<suffix>` gauge family and the [`TenantRow`]
/// field it carries: the one list [`scapd_series`] writes and
/// [`parse_scapd_status`] reads, so the two cannot disagree.
pub const TENANT_GAUGES: [(&str, Field<TenantRow>); 11] = [
    ("matched_bytes", |r| &mut r.matched),
    ("delivered_bytes", |r| &mut r.delivered),
    ("drained_bytes", |r| &mut r.drained),
    ("dropped_bytes", |r| &mut r.dropped),
    ("discarded_bytes", |r| &mut r.discarded),
    ("queue_bytes", |r| &mut r.queue),
    ("queue_cap_bytes", |r| &mut r.queue_cap),
    ("headroom_bytes", |r| &mut r.headroom),
    ("strikes", |r| &mut r.strikes),
    ("spooled_payload_bytes", |r| &mut r.spooled),
    ("acked_payload_bytes", |r| &mut r.acked),
];

/// A scapd instance's status: how far the capture got and every tenant,
/// attached or detached.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScapdStatus {
    /// Trace packets fed to the kernel so far.
    pub fed: u64,
    /// Trace packets in the run.
    pub total: u64,
    /// Trace time of the last packet fed (ns).
    pub ts_ns: u64,
    /// One row per tenant, in attach order; detached tenants last.
    pub tenants: Vec<TenantRow>,
}

impl ScapdStatus {
    /// Every tenant conserves its matched bytes.
    pub fn conserved(&self) -> bool {
        self.tenants.iter().all(TenantRow::conserved)
    }
}

const CAPTURE_GAUGES: [(&str, Field<ScapdStatus>); 3] = [
    ("scapd_packets_fed", |s| &mut s.fed),
    ("scapd_packets_total", |s| &mut s.total),
    ("scapd_trace_time_ns", |s| &mut s.ts_ns),
];

/// Append a scapd status to an exposition: the capture-wide gauges,
/// one `scapd_tenant_*` family per [`TENANT_GAUGES`] entry, and
/// conservation as 0/1 gauges, capture-wide and per tenant.
pub fn scapd_series(om: &mut OpenMetrics, s: &ScapdStatus) {
    // The fields are `&mut` accessors: read them from a copy.
    let mut s = s.clone();
    for (name, field) in CAPTURE_GAUGES {
        om.gauge(name, "", &[(Vec::new(), *field(&mut s))]);
    }
    om.gauge(
        "scapd_conserved",
        "",
        &[(Vec::new(), u64::from(s.conserved()))],
    );
    let mut families: Vec<(String, Vec<u64>)> = TENANT_GAUGES
        .iter()
        .map(|(suffix, field)| {
            let values = s.tenants.iter_mut().map(|r| *field(r)).collect();
            (format!("scapd_tenant_{suffix}"), values)
        })
        .collect();
    let conserved = s.tenants.iter().map(|r| u64::from(r.conserved()));
    families.push(("scapd_tenant_conserved".into(), conserved.collect()));
    let ids: Vec<String> = s.tenants.iter().map(|r| r.id.to_string()).collect();
    let labels: Vec<Vec<(&str, &str)>> = s
        .tenants
        .iter()
        .zip(&ids)
        .map(|(r, id)| vec![("tenant", &*r.name), ("id", &**id), ("state", &*r.state)])
        .collect();
    for (name, values) in families {
        let series: Vec<_> = labels.iter().cloned().zip(values).collect();
        om.gauge(&name, "", &series);
    }
}

/// Read a [`ScapdStatus`] back from an exposition [`scapd_series`]
/// wrote into; other families are skipped. Label values are read as
/// they stand: tenant names are `[A-Za-z0-9_-]` (admission checks it)
/// and states are fixed words, so nothing in them is escaped.
pub fn parse_scapd_status(text: &str) -> Result<ScapdStatus, String> {
    let mut s = ScapdStatus::default();
    for line in text.lines().filter(|l| l.starts_with("scapd_")) {
        let bad = || format!("malformed sample {line:?}");
        let (series, value) = line.rsplit_once(' ').ok_or_else(bad)?;
        let value: u64 = value.parse().map_err(|_| bad())?;
        let (name, labels) = series
            .strip_suffix('}')
            .and_then(|x| x.split_once('{'))
            .unwrap_or((series, ""));
        if let Some((_, field)) = CAPTURE_GAUGES.iter().find(|(n, _)| *n == name) {
            *field(&mut s) = value;
            continue;
        }
        let Some((_, field)) = name
            .strip_prefix("scapd_tenant_")
            .and_then(|suffix| TENANT_GAUGES.iter().find(|(n, _)| *n == suffix))
        else {
            continue;
        };
        let label = |k: &str| {
            labels
                .split(',')
                .find_map(|kv| kv.strip_prefix(k)?.strip_prefix("=\"")?.strip_suffix('"'))
                .ok_or_else(bad)
        };
        let (name, state) = (label("tenant")?, label("state")?);
        let id: u64 = label("id")?.parse().map_err(|_| bad())?;
        let at = match s.tenants.iter().position(|r| r.name == name && r.id == id) {
            Some(at) => at,
            None => {
                let (name, state) = (name.to_string(), state.to_string());
                s.tenants.push(TenantRow {
                    name,
                    id,
                    state,
                    ..TenantRow::default()
                });
                s.tenants.len() - 1
            }
        };
        *field(&mut s.tenants[at]) = value;
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permille_and_bar_format() {
        assert_eq!(permille(427), "42.7%");
        assert_eq!(bar(400), "####......");
        assert_eq!(bar(5000), "##########");
    }

    #[test]
    fn sparkline_scales_to_max() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0, 0]), "__");
        let s = sparkline(&[1, 4, 8]);
        assert_eq!(s.len(), 3);
        assert!(s.ends_with('#'), "max value renders the top ramp cell");
    }

    #[test]
    fn latency_history_is_bounded() {
        let mut h = LatencyHistory::default();
        for i in 0..(LatencyHistory::WINDOW as u64 + 10) {
            h.push(2, i);
        }
        assert_eq!(h.sparkline(2).chars().count(), LatencyHistory::WINDOW);
        assert_eq!(h.sparkline(0), "");
    }

    #[test]
    fn latency_panel_renders_active_stages() {
        use scap::telemetry::{Pulse, PulseStage};
        let mut p = Pulse::new(990, 8);
        for i in 0..100 {
            p.record(PulseStage::Delivery, 1000 + i * 10);
        }
        let snap = p.snapshot();
        let mut hist = LatencyHistory::default();
        let mut out = String::new();
        latency_panel(&mut out, &snap, &mut hist);
        assert!(out.contains("delivery"));
        assert!(!out.contains("no stage latencies"));
    }

    #[test]
    fn scapd_status_round_trips_through_the_exposition() {
        use scap::telemetry::openmetrics::validate;
        let row = |name: &str, id: u64, state: &str, k: u64| TenantRow {
            name: name.into(),
            id,
            state: state.into(),
            matched: k * 100 + u64::from(k == 3),
            delivered: k * 60,
            drained: k * 50,
            dropped: k * 30,
            discarded: k * 10,
            queue: k,
            queue_cap: 39_321,
            headroom: 39_321 - k,
            strikes: k % 9,
            spooled: k * 40,
            acked: k * 20,
        };
        let status = ScapdStatus {
            fed: 3584,
            total: 4101,
            ts_ns: 1_234_567_890,
            tenants: vec![
                row("web", 1, "active", 1),
                row("bulk_2", 2, "disconnected", 2),
                row("dns-mon", 3, "degraded", 3),
                TenantRow {
                    queue: 0,
                    queue_cap: 0,
                    headroom: 0,
                    spooled: 0,
                    acked: 0,
                    ..row("web", 4, "detached", 4)
                },
            ],
        };
        // The daemon's exposition also carries the kernel's families.
        let mut om = OpenMetrics::new();
        om.counter("scap_wire_packets", "", &[("proc", "scapd")], 4101);
        scapd_series(&mut om, &status);
        let text = om.finish();
        assert_eq!(validate(&text), Ok(1 + 4 + 12 * status.tenants.len()));
        for line in [
            "scapd_tenant_matched_bytes{tenant=\"bulk_2\",id=\"2\",state=\"disconnected\"} 200",
            "scapd_tenant_acked_payload_bytes{tenant=\"web\",id=\"4\",state=\"detached\"} 0",
            "scapd_tenant_conserved{tenant=\"dns-mon\",id=\"3\",state=\"degraded\"} 0",
            "scapd_tenant_conserved{tenant=\"web\",id=\"1\",state=\"active\"} 1",
            "scapd_conserved 0",
        ] {
            assert!(
                text.lines().any(|l| l == line),
                "{line} missing from\n{text}"
            );
        }
        assert_eq!(parse_scapd_status(&text), Ok(status));
        assert_eq!(
            parse_scapd_status(&OpenMetrics::new().finish()),
            Ok(ScapdStatus::default())
        );
        assert!(parse_scapd_status("scapd_tenant_strikes{tenant=\"a\"} 1\n").is_err());
        assert!(parse_scapd_status("scapd_packets_fed x\n").is_err());
    }
}
