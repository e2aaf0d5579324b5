//! The capture dashboard: one helper to publish, one parser, one
//! renderer.
//!
//! Producers build their OpenMetrics text with [`exposition`]: the
//! capture's [`Progress`], the kernel's registry and pulse plane, and
//! their own records, each declared once as a [`Rows`] field list —
//! loss rows ([`loss_series`]), a fleet's totals and shard rows
//! ([`fleet_series`]), scapd's tenants ([`scapd_series`]). `scaptop`
//! and `scapctl status` read them back through [`Exposition::parse`],
//! which validates first; [`Dashboard::frame`] draws each panel whose
//! samples are present. Nothing here reads a clock: rates run over the
//! published trace time, and the `--scapd` poll's patience is
//! [`scapd_gave_up`] of an elapsed time.

use scap::flight::{top_reasons_line, AttributionRow, Journal};
use scap::telemetry::openmetrics::{validate, OpenMetrics};
use scap::telemetry::{PulseSnapshot, PulseStage, Snapshot};
use scap::{DropReason, FleetStats, FlightKind, FlightLayer, ShardFleet, ShardState, ShardStatus};
use std::io::{IsTerminal, Write};
use std::time::Duration;

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

/// Events per second over a trace-time window; 0 when it is empty.
fn rate_per_sec(delta: u64, dt_s: f64) -> f64 {
    if dt_s > 0.0 {
        delta as f64 / dt_s
    } else {
        0.0
    }
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

/// One dashboard frame on stdout: repaints in place on a TTY, or
/// appends a `----`-separated frame on a pipe.
pub struct Frame {
    ansi: bool,
    buf: String,
}

impl Default for Frame {
    fn default() -> Self {
        Frame {
            ansi: std::io::stdout().is_terminal(),
            buf: String::new(),
        }
    }
}

impl Frame {
    /// Start a frame: clears the buffer and, on a TTY, queues the
    /// clear-screen + home escape. Returns the buffer to format into.
    pub fn begin(&mut self) -> &mut String {
        self.buf.clear();
        if self.ansi {
            self.buf.push_str("\x1b[2J\x1b[H");
        }
        &mut self.buf
    }

    /// Write the frame to stdout, with the pipe-mode separator when not
    /// on a TTY.
    pub fn flush(&mut self) {
        let mut w = std::io::stdout().lock();
        let _ = w.write_all(self.buf.as_bytes());
        if !self.ansi {
            let _ = w.write_all(b"----\n");
        }
        let _ = w.flush();
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

/// One sample of a parsed exposition (an exemplar is dropped).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sample {
    /// Sample name (`_total`, `_bucket`, ... suffixes included).
    pub name: String,
    /// Labels in written order, values unescaped.
    pub labels: Vec<(String, String)>,
    /// The value: every producer here publishes unsigned integers.
    pub value: u64,
}

impl Sample {
    /// The value of label `key`.
    pub fn label(&self, key: &str) -> Result<&str, String> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| format!("{} has no label {key:?}", self.name))
    }
}

/// A parsed exposition: every sample, in written order.
#[derive(Clone, Debug, Default)]
pub struct Exposition {
    samples: Vec<Sample>,
}

/// Parse the inside of a `{...}` label set.
fn parse_labels(mut s: &str) -> Option<Vec<(String, String)>> {
    let mut labels = Vec::new();
    while !s.is_empty() {
        let (key, rest) = s.split_once("=\"")?;
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let end = loop {
            match chars.next()? {
                (i, '"') => break i,
                (_, '\\') => value.push(match chars.next()?.1 {
                    'n' => '\n',
                    c => c,
                }),
                (_, c) => value.push(c),
            }
        };
        labels.push((key.to_string(), value));
        s = &rest[end + 1..];
        s = s.strip_prefix(',').unwrap_or(s);
    }
    Some(labels)
}

impl Exposition {
    /// Validate `text` ([`validate`]: well-formed lines, `# EOF` last)
    /// and parse every sample.
    pub fn parse(text: &str) -> Result<Self, String> {
        validate(text)?;
        let mut exp = Exposition::default();
        for (no, line) in text.lines().enumerate() {
            if line.starts_with('#') {
                continue;
            }
            let bad = |why: &str| format!("line {}: {why}: {line:?}", no + 1);
            let series = line.split_once(" # ").map_or(line, |(s, _)| s);
            let (series, value) = series.rsplit_once(' ').ok_or_else(|| bad("no value"))?;
            let value = value.parse().map_err(|_| bad("value is not a u64"))?;
            let (name, labels) = match series.split_once('{') {
                Some((name, labels)) => (
                    name,
                    labels
                        .strip_suffix('}')
                        .and_then(parse_labels)
                        .ok_or_else(|| bad("malformed labels"))?,
                ),
                None => (series, Vec::new()),
            };
            exp.samples.push(Sample {
                name: name.to_string(),
                labels,
                value,
            });
        }
        Ok(exp)
    }

    /// Whether the exposition carries a sample named `name`.
    pub fn has(&self, name: &str) -> bool {
        self.samples.iter().any(|s| s.name == name)
    }

    /// The first sample named `name` whose labels include `labels`.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.samples
            .iter()
            .find(|s| s.name == name && labels.iter().all(|&(k, v)| s.label(k) == Ok(v)))
            .map(|s| s.value)
    }

    /// The first sample named `name`; 0 when absent (the registry leaves zeros out).
    pub fn value(&self, name: &str) -> u64 {
        self.get(name, &[]).unwrap_or(0)
    }
}

/// Accessor of one `u64` field of a published record.
pub type Field<T> = fn(&mut T) -> &mut u64;

/// A record published as one gauge family per `u64` field (`PREFIX` +
/// suffix), one series per row named by its labels: [`row_series`]
/// writes it and [`read_rows`] reads it back, both walking `FIELDS`.
pub trait Rows: Clone + 'static {
    /// Family-name prefix.
    const PREFIX: &'static str;
    /// Each family's suffix and the field it carries.
    const FIELDS: &'static [(&'static str, Field<Self>)];
    /// The labels that name this row (none: the record has one row).
    fn labels(&self) -> Vec<(&'static str, String)> {
        Vec::new()
    }
    /// The row a sample's labels name, every field zero.
    fn named(sample: &Sample) -> Result<Self, String>;
}

/// Append one gauge family per field of `R`, one series per row.
pub fn row_series<R: Rows>(om: &mut OpenMetrics, rows: &[R]) {
    // The fields are `&mut` accessors: read them from a copy.
    let mut rows = rows.to_vec();
    let labels: Vec<Vec<(&str, String)>> = rows.iter().map(R::labels).collect();
    for (suffix, field) in R::FIELDS {
        let series: Vec<(Vec<(&str, &str)>, u64)> = rows
            .iter_mut()
            .zip(&labels)
            .map(|(r, l)| (l.iter().map(|(k, v)| (*k, v.as_str())).collect(), *field(r)))
            .collect();
        om.gauge(&format!("{}{suffix}", R::PREFIX), "", &series);
    }
}

/// Read every row of `R` back, in the order [`row_series`] wrote them.
pub fn read_rows<R: Rows>(exp: &Exposition) -> Result<Vec<R>, String> {
    let mut rows: Vec<(&[(String, String)], R)> = Vec::new();
    for (suffix, field) in R::FIELDS {
        let name = format!("{}{suffix}", R::PREFIX);
        for s in exp.samples.iter().filter(|s| s.name == name) {
            let at = match rows.iter().position(|(l, _)| *l == s.labels) {
                Some(at) => at,
                None => {
                    rows.push((&s.labels, R::named(s)?));
                    rows.len() - 1
                }
            };
            *field(&mut rows[at].1) = s.value;
        }
    }
    Ok(rows.into_iter().map(|(_, r)| r).collect())
}

/// The one unlabelled row of `R`, if the exposition carries it.
fn read_one<R: Rows>(exp: &Exposition) -> Option<R> {
    read_rows(exp).ok()?.pop()
}

/// How far a capture got: the header every producer publishes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Progress {
    /// Trace packets fed to the capture so far.
    pub fed: u64,
    /// Trace packets in the run.
    pub total: u64,
    /// Trace time of the last packet fed (ns).
    pub ts_ns: u64,
}

impl Rows for Progress {
    const PREFIX: &'static str = "scap_capture_";
    const FIELDS: &'static [(&'static str, Field<Self>)] = &[
        ("packets_fed", |p| &mut p.fed),
        ("packets_total", |p| &mut p.total),
        ("trace_time_ns", |p| &mut p.ts_ns),
    ];
    fn named(_: &Sample) -> Result<Self, String> {
        Ok(Progress::default())
    }
}

/// One capture's exposition: its progress, the registry and pulse
/// families under `labels`, then whatever `rows` appends, then `# EOF`.
pub fn exposition(
    labels: &[(&str, &str)],
    progress: Progress,
    snap: &Snapshot,
    pulse: &PulseSnapshot,
    rows: impl FnOnce(&mut OpenMetrics),
) -> String {
    let mut om = OpenMetrics::new();
    row_series(&mut om, &[progress]);
    om.registry(snap, labels);
    om.pulse(pulse, labels);
    rows(&mut om);
    om.finish()
}

impl Rows for AttributionRow {
    const PREFIX: &'static str = "scap_loss_";
    const FIELDS: &'static [(&'static str, Field<Self>)] = &[
        ("events", |r| &mut r.events),
        ("packets", |r| &mut r.pkts),
        ("bytes", |r| &mut r.bytes),
    ];
    fn labels(&self) -> Vec<(&'static str, String)> {
        vec![
            ("kind", self.kind.name().into()),
            ("layer", self.layer.name().into()),
            ("reason", self.reason.name().into()),
        ]
    }
    fn named(s: &Sample) -> Result<Self, String> {
        let unknown = |k: &str| format!("{} has an unknown {k}", s.name);
        Ok(AttributionRow {
            kind: FlightKind::from_name(s.label("kind")?).ok_or_else(|| unknown("kind"))?,
            layer: FlightLayer::from_name(s.label("layer")?).ok_or_else(|| unknown("layer"))?,
            reason: DropReason::from_name(s.label("reason")?).ok_or_else(|| unknown("reason"))?,
            events: 0,
            pkts: 0,
            bytes: 0,
        })
    }
}

/// Journal events overwritten by ring wrap, beside the loss rows.
const LOSS_OVERWRITTEN: &str = "scap_loss_overwritten_events";

/// Append the loss rows of `journals` (aggregated by
/// [`scap::flight::attribution`]) and how many of their events ring
/// wrap overwrote.
pub fn loss_series(om: &mut OpenMetrics, journals: &[Journal]) {
    let events: Vec<_> = journals.iter().flat_map(|j| j.events.clone()).collect();
    row_series(om, &scap::flight::attribution(&events));
    let overwritten = journals.iter().flat_map(|j| &j.dropped).sum();
    om.gauge(LOSS_OVERWRITTEN, "", &[(Vec::new(), overwritten)]);
}

/// A shard's [`ShardStatus`] row: every `u64` field (the breaker's
/// failure count is not published), named by `shard` and `state`.
impl Rows for ShardStatus {
    const PREFIX: &'static str = "scap_shard_";
    const FIELDS: &'static [(&'static str, Field<Self>)] = &[
        ("lease_age_ns", |r| &mut r.lease_age_ns),
        ("offered_packets", |r| &mut r.offered_pkts),
        ("offered_bytes", |r| &mut r.offered_bytes),
        ("tracked_streams", |r| &mut r.tracked_streams),
        ("kills", |r| &mut r.kills),
        ("lease_expiries", |r| &mut r.lease_expiries),
        ("respawns", |r| &mut r.respawns),
        ("ckpt_fallbacks", |r| &mut r.ckpt_fallbacks),
        ("cold_starts", |r| &mut r.cold_starts),
        ("down_packets", |r| &mut r.down_pkts),
        ("down_bytes", |r| &mut r.down_bytes),
        ("max_blackout_ns", |r| &mut r.max_blackout_ns),
    ];
    fn labels(&self) -> Vec<(&'static str, String)> {
        vec![
            ("shard", self.shard.to_string()),
            ("state", self.state.name().into()),
        ]
    }
    fn named(s: &Sample) -> Result<Self, String> {
        let state = s.label("state")?;
        let state = [ShardState::Up, ShardState::Respawning, ShardState::Parked]
            .into_iter()
            .find(|st| st.name() == state)
            .ok_or("unknown shard state")?;
        Ok(ShardStatus {
            shard: s.label("shard")?.parse().map_err(|_| "bad shard label")?,
            state,
            lease_age_ns: 0,
            offered_pkts: 0,
            offered_bytes: 0,
            tracked_streams: 0,
            kills: 0,
            lease_expiries: 0,
            respawns: 0,
            ckpt_fallbacks: 0,
            cold_starts: 0,
            down_pkts: 0,
            down_bytes: 0,
            max_blackout_ns: 0,
            breaker_failures: 0,
        })
    }
}

impl Rows for FleetStats {
    const PREFIX: &'static str = "scap_fleet_";
    const FIELDS: &'static [(&'static str, Field<Self>)] = &[
        ("wire_packets", |f| &mut f.wire_packets),
        ("wire_bytes", |f| &mut f.wire_bytes),
        ("delivered_packets", |f| &mut f.delivered_packets),
        ("dropped_packets", |f| &mut f.dropped_packets),
        ("discarded_packets", |f| &mut f.discarded_packets),
        ("delivered_bytes", |f| &mut f.delivered_bytes),
        ("shard_wire_bytes", |f| &mut f.shard_wire_bytes),
        ("dropped_bytes", |f| &mut f.dropped_bytes),
        ("discarded_bytes", |f| &mut f.discarded_bytes),
        ("shard_down_packets", |f| &mut f.shard_down_packets),
        ("shard_down_bytes", |f| &mut f.shard_down_bytes),
        ("streams_created", |f| &mut f.streams_created),
        ("resume_gap_bytes", |f| &mut f.resume_gap_bytes),
        ("resumed_streams", |f| &mut f.resumed_streams),
        ("checkpoints_written", |f| &mut f.checkpoints_written),
        ("fastpath_bursts", |f| &mut f.fastpath_bursts),
        ("kills", |f| &mut f.kills),
        ("lease_expiries", |f| &mut f.lease_expiries),
        ("respawns", |f| &mut f.respawns),
        ("ckpt_fallbacks", |f| &mut f.ckpt_fallbacks),
        ("cold_starts", |f| &mut f.cold_starts),
        ("parked", |f| &mut f.parked),
        ("max_blackout_ns", |f| &mut f.max_blackout_ns),
    ];
    fn named(_: &Sample) -> Result<Self, String> {
        Ok(FleetStats::default())
    }
}

/// The fleet's conservation identity as a 0/1 gauge: published once
/// the fleet has finished, when its statistics are exact.
pub const FLEET_CONSERVED: &str = "scap_fleet_conserved";

/// Append a fleet's totals and one row per shard; once `finished`, its
/// conservation identity ([`FLEET_CONSERVED`]) too.
pub fn fleet_series(om: &mut OpenMetrics, fleet: &ShardFleet, finished: bool) {
    let fs = fleet.fleet_stats();
    row_series(om, &[fs]);
    row_series(om, &fleet.status());
    if finished {
        let conserved = fs.packets_conserved() && fs.bytes_conserved();
        om.gauge(FLEET_CONSERVED, "", &[(Vec::new(), u64::from(conserved))]);
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

impl Rows for TenantRow {
    const PREFIX: &'static str = "scapd_tenant_";
    const FIELDS: &'static [(&'static str, Field<Self>)] = &[
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
    fn labels(&self) -> Vec<(&'static str, String)> {
        vec![
            ("tenant", self.name.clone()),
            ("id", self.id.to_string()),
            ("state", self.state.clone()),
        ]
    }
    fn named(s: &Sample) -> Result<Self, String> {
        Ok(TenantRow {
            name: s.label("tenant")?.into(),
            id: s.label("id")?.parse().map_err(|_| "bad tenant id label")?,
            state: s.label("state")?.into(),
            ..TenantRow::default()
        })
    }
}

/// A scapd instance's status: how far the capture got and every tenant,
/// attached or detached.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScapdStatus {
    /// How far the capture got.
    pub progress: Progress,
    /// One row per tenant, in attach order; detached tenants last.
    pub tenants: Vec<TenantRow>,
}

impl ScapdStatus {
    /// Every tenant conserves its matched bytes.
    pub fn conserved(&self) -> bool {
        self.tenants.iter().all(TenantRow::conserved)
    }
}

/// Append a scapd tenant table: one `scapd_tenant_*` family per
/// [`TenantRow::FIELDS`] entry, and conservation as 0/1 gauges,
/// capture-wide and per tenant. The progress is [`exposition`]'s.
pub fn scapd_series(om: &mut OpenMetrics, s: &ScapdStatus) {
    om.gauge(
        "scapd_conserved",
        "",
        &[(Vec::new(), u64::from(s.conserved()))],
    );
    row_series(om, &s.tenants);
    let labels: Vec<_> = s.tenants.iter().map(TenantRow::labels).collect();
    let series: Vec<(Vec<(&str, &str)>, u64)> = s
        .tenants
        .iter()
        .zip(&labels)
        .map(|(r, l)| {
            let l = l.iter().map(|(k, v)| (*k, v.as_str())).collect();
            (l, u64::from(r.conserved()))
        })
        .collect();
    om.gauge("scapd_tenant_conserved", "", &series);
}

/// Read a [`ScapdStatus`] back from a scapd exposition.
pub fn parse_scapd_status(text: &str) -> Result<ScapdStatus, String> {
    let exp = Exposition::parse(text)?;
    Ok(ScapdStatus {
        progress: read_one(&exp).unwrap_or_default(),
        tenants: read_rows(&exp)?,
    })
}

/// How long `scaptop --scapd` waits for a new exposition.
pub const SCAPD_PATIENCE: Duration = Duration::from_secs(60);

/// Whether `scaptop --scapd` gives up, `idle` after the last new
/// exposition (or after it started, before the first).
pub fn scapd_gave_up(idle: Duration) -> bool {
    idle > SCAPD_PATIENCE
}

/// The renderer: one frame per exposition. It keeps the last one for
/// windowed rates and the latency trend.
#[derive(Default)]
pub struct Dashboard {
    last: Option<Exposition>,
    latency: LatencyHistory,
}

impl Dashboard {
    /// Validate and parse one exposition and render its frame body into
    /// `out`: each panel whose samples it carries.
    pub fn frame(&mut self, text: &str, out: &mut String) -> Result<(), String> {
        let exp = Exposition::parse(text)?;
        let prev = self.last.take().unwrap_or_default();
        let Progress { fed, total, ts_ns } = read_one(&exp).unwrap_or_default();
        let prev_ts = read_one::<Progress>(&prev).unwrap_or_default().ts_ns;
        let dt = ts_ns.saturating_sub(prev_ts) as f64 / 1e9;
        let secs = ts_ns as f64 / 1e9;
        // A counter that went down (a restarted producer, two runs
        // concatenated) reads as no progress, not as a wrapped rate.
        let delta = |name: &str| exp.value(name).saturating_sub(prev.value(name));
        let head = format!("scaptop — {fed}/{total} packets | trace time {secs:.3} s");
        out.push_str(&head);
        if exp.has("scap_wire_packets_total") {
            let arena = exp.value("scap_arena_used_permille");
            let load = exp.value("scap_flow_load_permille");
            let probe = exp.value("scap_flow_probe_centigroups");
            out.push_str(&format!(
                " | wire {} pkts / {} B | {} streams tracked\n\n\
                 governor level {}   arena {} [{}]   ring fill {}   event backlog {}   fdir filters {}\n\
                 flow table     load {} [{}]   probe length {}.{:02} groups/lookup\n\
                 delivered      {} pkts / {} B   {:.0} pkt/s   {:.2} Mbit/s (window)",
                exp.value("scap_wire_packets_total"),
                exp.value("scap_wire_bytes_total"),
                exp.value("scap_tracked_streams"),
                exp.value("scap_governor_level"),
                permille(arena),
                bar(arena),
                permille(exp.value("scap_ring_fill_permille")),
                exp.value("scap_event_backlog"),
                exp.value("scap_fdir_filters"),
                permille(load),
                bar(load),
                probe / 100,
                probe % 100,
                exp.value("scap_delivered_packets_total"),
                exp.value("scap_delivered_bytes_total"),
                rate_per_sec(delta("scap_delivered_packets_total"), dt),
                rate_per_sec(delta("scap_delivered_bytes_total").saturating_mul(8), dt) / 1e6,
            ));
        }
        out.push('\n');
        if exp.has("scap_fastpath_packets_total") {
            let fill = exp.value("scap_fastpath_fill_permille");
            out.push_str(&format!(
                "fast path      burst fill {} [{}]   {} bursts / {} pkts   {:.0} pkt/s (window)\n",
                permille(fill),
                bar(fill),
                exp.value("scap_fastpath_bursts_total"),
                exp.value("scap_fastpath_packets_total"),
                rate_per_sec(delta("scap_fastpath_packets_total"), dt),
            ));
        }
        if exp.has("scap_offload_rules") {
            let load = exp.value("scap_offload_load_permille");
            let wire = exp.value("scap_wire_packets_total").max(1);
            out.push_str(&format!(
                "offload        rules {}   load {} [{}]   hit rate {:.1}%   evictions {} ({:.0}/s window)\n\
                 offload mix    drop {} pkts   sample shed {}   bypass {}   mark {}\n",
                exp.value("scap_offload_rules"),
                permille(load),
                bar(load),
                100.0 * exp.value("scap_nic_offload_hits_total") as f64 / wire as f64,
                exp.value("scap_nic_offload_evictions_total"),
                rate_per_sec(delta("scap_nic_offload_evictions_total"), dt),
                exp.value("scap_nic_offload_drop_frames_total"),
                exp.value("scap_nic_offload_sample_drops_total"),
                exp.value("scap_nic_offload_bypass_frames_total"),
                exp.value("scap_nic_offload_mark_frames_total"),
            ));
        }
        if exp.has(LOSS_OVERWRITTEN) {
            loss_panel(out, &exp)?;
        }
        if exp.has("scap_pulse_latency_ns_count") {
            self.latency_panel(out, &exp);
        }
        if exp.has("scap_fleet_wire_packets") {
            fleet_panel(out, &exp)?;
        }
        if exp.has("scapd_conserved") {
            out.push_str(&tenant_panel(&exp, &prev, dt)?);
        }
        self.last = Some(exp);
        Ok(())
    }

    /// The closing line once the stream has ended: `Err` when no
    /// exposition came, or the last one has no [`Progress`], stops short
    /// of its trace or reports a broken conservation identity.
    pub fn closing(&self) -> Result<String, String> {
        let exp = self.last.as_ref().ok_or("no exposition read")?;
        let Progress { fed, total, ts_ns } =
            read_one(exp).ok_or("the last exposition has no capture progress")?;
        if fed < total {
            return Err(format!("the capture stopped at packet {fed}/{total}"));
        }
        for name in [FLEET_CONSERVED, "scapd_conserved"] {
            if exp.get(name, &[]) == Some(0) {
                return Err(format!("{name} is 0: conservation violated"));
            }
        }
        let secs = ts_ns as f64 / 1e9;
        Ok(format!(
            "capture complete: {fed} packets | trace time {secs:.3} s"
        ))
    }

    /// Per-stage pulse percentiles with a p99 trend sparkline.
    fn latency_panel(&mut self, out: &mut String, exp: &Exposition) {
        out.push_str(&format!(
            "\nlatency (pulse plane, ns)          count       p50       p99      p999  p99 trend (last {})\n",
            LatencyHistory::WINDOW
        ));
        for st in PulseStage::ALL {
            let stage = ("stage", st.name());
            let count = exp.get("scap_pulse_latency_ns_count", &[stage]);
            let Some(count) = count.filter(|&c| c > 0) else {
                continue;
            };
            let q = |q| {
                let name = "scap_pulse_latency_quantile_ns";
                exp.get(name, &[stage, ("q", q)]).unwrap_or(0)
            };
            self.latency.push(st.idx(), q("0.99"));
            out.push_str(&format!(
                "  {:<22} {:>16} {:>9} {:>9} {:>9}  {}\n",
                st.name(),
                count,
                q("0.5"),
                q("0.99"),
                q("0.999"),
                self.latency.sparkline(st.idx()),
            ));
        }
    }
}

/// The flight journal's loss rows and the top-reasons line.
fn loss_panel(out: &mut String, exp: &Exposition) -> Result<(), String> {
    let rows: Vec<AttributionRow> = read_rows(exp)?;
    out.push_str("\nloss attribution (flight recorder)\n");
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
    let overwritten = exp.value(LOSS_OVERWRITTEN);
    if overwritten > 0 {
        let note = format!("  (+{overwritten} journal events overwritten by ring wrap)\n");
        out.push_str(&note);
    }
    out.push_str(&format!("  {}\n", top_reasons_line(rows, 3)));
    Ok(())
}

/// A fleet's shard rows, totals and (once finished) conservation.
fn fleet_panel(out: &mut String, exp: &Exposition) -> Result<(), String> {
    let fs: FleetStats = read_one(exp).unwrap_or_default();
    out.push_str(
        "\nshard  state       lease_age_ms  offered_pkts  part%  tracked  kills  \
         respawns  down_pkts  down_bytes  blackout_ms\n",
    );
    let wire = fs.wire_packets.max(1);
    for st in read_rows::<ShardStatus>(exp)? {
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
        "fleet  {} flows | {} parked | wire {} pkts / {} B | delivered {} | dropped {} | \
         discarded {} | shard-down {} pkts / {} B\n",
        fs.streams_created,
        fs.parked,
        fs.wire_packets,
        fs.wire_bytes,
        fs.delivered_packets,
        fs.dropped_packets,
        fs.discarded_packets,
        fs.shard_down_packets,
        fs.shard_down_bytes,
    ));
    if let Some(ok) = exp.get(FLEET_CONSERVED, &[]) {
        let verdict = if ok == 1 { "ok" } else { "VIOLATED" };
        out.push_str(&format!("fleet  conservation {verdict}\n"));
    }
    Ok(())
}

/// scapd's tenant table, with each tenant's delivered rate over the
/// window since the previous exposition.
fn tenant_panel(exp: &Exposition, prev: &Exposition, dt: f64) -> Result<String, String> {
    let prev: Vec<TenantRow> = read_rows(prev)?;
    let mut out = String::from(
        "\ntenant       state         delivered   Mbit/s  queue      [cap]    headroom  \
         drop attribution\n",
    );
    for r in read_rows::<TenantRow>(exp)? {
        let before = prev.iter().find(|p| (&p.name, p.id) == (&r.name, r.id));
        let delta = r
            .delivered
            .saturating_sub(before.map_or(r.delivered, |p| p.delivered));
        let fill = (r.queue * 1000).checked_div(r.queue_cap).unwrap_or(0);
        out.push_str(&format!(
            "{:<12} {:<12} {:>10} {:>8.2} {:>8} [{}] {:>9} {:>6} slow-consumer B, \
             {} cutoff B, {} strikes\n\
             \x20            spooled payload {} B / acked {} B / drained {} B / matched {} B\n",
            r.name,
            r.state,
            r.delivered,
            rate_per_sec(delta.saturating_mul(8), dt) / 1e6,
            r.queue,
            bar(fill),
            r.headroom,
            r.dropped,
            r.discarded,
            r.strikes,
            r.spooled,
            r.acked,
            r.drained,
            r.matched,
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scap::telemetry::{Gauge, Metric, PlainRegistry, Pulse};
    use scap::FlightEvent;

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
        let mut p = Pulse::new(990, 8);
        for i in 0..100 {
            p.record(PulseStage::Delivery, 1000 + i * 10);
        }
        let text = exposition(
            &[],
            Progress::default(),
            &Snapshot::default(),
            &p.snapshot(),
            |_| {},
        );
        let mut out = String::new();
        Dashboard::default().frame(&text, &mut out).unwrap();
        assert!(out.contains("\n  delivery "), "{out}");
        assert!(!out.contains("nic_verdict"), "{out}");
    }

    #[test]
    fn the_scapd_poll_gives_up_only_after_a_minute_without_news() {
        assert!(!scapd_gave_up(Duration::ZERO));
        assert!(!scapd_gave_up(Duration::from_secs(59)));
        assert!(!scapd_gave_up(SCAPD_PATIENCE));
        assert!(scapd_gave_up(SCAPD_PATIENCE + Duration::from_millis(1)));
    }

    fn tenants() -> Vec<TenantRow> {
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
        vec![
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
        ]
    }

    /// A registry, a pulse plane, journals with losses and a wrapped
    /// ring, and a two-shard fleet, all nonzero.
    struct Producers {
        snap: Snapshot,
        pulse: PulseSnapshot,
        journals: Vec<Journal>,
        fleet: ShardFleet,
    }

    fn producers() -> Producers {
        let r = PlainRegistry::new(2);
        for (i, m) in Metric::ALL.into_iter().enumerate() {
            r.add(i % 2, m, 10 + i as u64);
        }
        for (i, g) in Gauge::ALL.into_iter().enumerate() {
            r.gauge_set(0, g, 100 + i as u64);
        }
        let mut p = Pulse::new(990, 8);
        for (i, st) in PulseStage::ALL.into_iter().enumerate() {
            for k in 0..50 {
                p.record_uid(st, 1000 * (i as u64 + 1) + k * 37, k, k);
            }
        }
        // Six entries in a four-entry ring: the first two are overwritten.
        let mut flight = scap::FlightRecorder::new(1, 4);
        let loss = |kind, layer, reason, a, b| {
            FlightEvent::new(kind, layer, 0)
                .with_reason(reason)
                .with_vals(a, b)
        };
        for e in [
            loss(
                FlightKind::Drop,
                FlightLayer::Nic,
                DropReason::RingFull,
                3,
                900,
            ),
            loss(
                FlightKind::Discard,
                FlightLayer::Kernel,
                DropReason::Cutoff,
                5,
                7000,
            ),
            loss(
                FlightKind::Drop,
                FlightLayer::Nic,
                DropReason::RingFull,
                1,
                60,
            ),
        ] {
            flight.emit(0, e);
            flight.emit(
                0,
                FlightEvent::new(FlightKind::StreamCreated, FlightLayer::Kernel, 0),
            );
        }
        let journal = scap::flight::decode_journal(&flight.encode()).unwrap();
        let mut fleet = ShardFleet::new(scap::FleetConfig {
            nshards: 2,
            ..scap::FleetConfig::default()
        });
        let trace =
            scap_trace::gen::CampusMix::new(scap_trace::gen::CampusMixConfig::sized(7, 64 << 10))
                .collect_all();
        for pkt in &trace {
            fleet.offer(pkt);
        }
        let end = trace.last().unwrap().ts_ns + 1;
        fleet.finish(end);
        Producers {
            snap: r.snapshot(),
            pulse: p.snapshot(),
            journals: vec![journal.clone(), journal],
            fleet,
        }
    }

    #[test]
    fn scapd_status_round_trips_through_the_exposition() {
        // Every producer's helper into one exposition, as the daemon and
        // `scapcat` write them, and every value read back through the one
        // parser.
        let Producers {
            snap,
            pulse,
            journals,
            fleet,
        } = producers();
        let status = ScapdStatus {
            progress: Progress {
                fed: 3584,
                total: 4101,
                ts_ns: 1_234_567_890,
            },
            tenants: tenants(),
        };
        let labels = [("proc", "scapd"), ("mode", "classic")];
        let text = exposition(&labels, status.progress, &snap, &pulse, |om| {
            loss_series(om, &journals);
            fleet_series(om, &fleet, true);
            scapd_series(om, &status);
        });
        let exp = Exposition::parse(&text).unwrap();

        // Registry: every counter and gauge, under the producer's labels.
        for m in Metric::ALL {
            let name = format!("scap_{}_total", m.name());
            assert_eq!(exp.get(&name, &labels), Some(snap.total(m)), "{name}");
        }
        for g in Gauge::ALL {
            let name = format!("scap_{}", g.name());
            assert_eq!(exp.get(&name, &labels), Some(snap.gauge_max(g)), "{name}");
        }
        // Pulse: count, sum and each quantile of every stage.
        for st in PulseStage::ALL {
            let h = pulse.stage(st);
            let stage = ("stage", st.name());
            assert_eq!(
                exp.get("scap_pulse_latency_ns_count", &[stage]),
                Some(h.count())
            );
            assert_eq!(exp.get("scap_pulse_latency_ns_sum", &[stage]), Some(h.sum));
            for (q, f) in [("0.5", 0.5), ("0.99", 0.99), ("0.999", 0.999)] {
                let got = exp.get("scap_pulse_latency_quantile_ns", &[stage, ("q", q)]);
                assert_eq!(got, Some(h.quantile(f)), "{} q{q}", st.name());
            }
        }
        // Loss rows of both journals, and their wrapped ring.
        let events: Vec<_> = journals.iter().flat_map(|j| j.events.clone()).collect();
        let rows = scap::flight::attribution(&events);
        assert_eq!(rows.len(), 2);
        assert_eq!(read_rows::<AttributionRow>(&exp), Ok(rows));
        let overwritten: u64 = journals.iter().flat_map(|j| &j.dropped).sum();
        assert_eq!(overwritten, 4);
        assert_eq!(exp.value(LOSS_OVERWRITTEN), overwritten);
        // Fleet totals, shard rows and conservation.
        let mut want = fleet.fleet_stats();
        let mut got: FleetStats = read_one(&exp).unwrap();
        for (name, field) in FleetStats::FIELDS {
            assert_eq!(field(&mut got), field(&mut want), "scap_fleet_{name}");
        }
        let shards = fleet.status();
        let read: Vec<ShardStatus> = read_rows(&exp).unwrap();
        assert_eq!(read.len(), 2);
        for (mut got, mut want) in read.into_iter().zip(shards) {
            assert_eq!((got.shard, got.state), (want.shard, want.state));
            for (name, field) in ShardStatus::FIELDS {
                assert_eq!(field(&mut got), field(&mut want), "scap_shard_{name}");
            }
        }
        assert_eq!(exp.get(FLEET_CONSERVED, &[]), Some(1));
        // Progress and tenants.
        for line in [
            "scapd_tenant_matched_bytes{tenant=\"bulk_2\",id=\"2\",state=\"disconnected\"} 200",
            "scapd_tenant_acked_payload_bytes{tenant=\"web\",id=\"4\",state=\"detached\"} 0",
            "scapd_tenant_conserved{tenant=\"dns-mon\",id=\"3\",state=\"degraded\"} 0",
            "scapd_tenant_conserved{tenant=\"web\",id=\"1\",state=\"active\"} 1",
            "scapd_conserved 0",
            "scap_capture_packets_fed 3584",
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
        let bad = "scapd_tenant_strikes{tenant=\"a\"} 1\n# EOF\n";
        assert!(parse_scapd_status(bad)
            .unwrap_err()
            .contains("no label \"id\""));
        assert!(parse_scapd_status("scapd_tenant_strikes{tenant=\"a\"} 1\n").is_err());
        assert!(parse_scapd_status("scap_capture_packets_fed x\n# EOF\n").is_err());
    }

    #[test]
    fn labels_parse_with_their_escapes() {
        let exp = Exposition::parse(
            "# TYPE x gauge\nx{a=\"q\\\"uo,te\",b=\"back\\\\slash\",c=\"\"} 4 # {uid=\"1\"} 9\n# EOF\n",
        )
        .unwrap();
        let s = &exp.samples[0];
        assert_eq!(
            s.labels,
            [("a", "q\"uo,te"), ("b", "back\\slash"), ("c", "")]
                .map(|(k, v)| (k.to_string(), v.to_string()))
        );
        assert_eq!(s.value, 4);
        assert!(exp.has("x") && !exp.has("y"));
    }

    /// Every panel over one fixed exposition, with the anchor line of
    /// each that the CI smokes grep.
    #[test]
    fn every_panel_renders_its_anchor_line() {
        let Producers {
            snap,
            pulse,
            journals,
            fleet,
        } = producers();
        let progress = Progress {
            fed: 4000,
            total: 4000,
            ts_ns: 2_000_000_000,
        };
        let text = exposition(&[("proc", "scapcat")], progress, &snap, &pulse, |om| {
            loss_series(om, &journals);
            fleet_series(om, &fleet, true);
            scapd_series(
                om,
                &ScapdStatus {
                    progress,
                    tenants: tenants(),
                },
            );
        });
        let mut dash = Dashboard::default();
        let mut out = String::new();
        dash.frame(&text, &mut out).unwrap();
        for anchor in [
            "scaptop — 4000/4000 packets | trace time 2.000 s | wire 10 pkts",
            "governor level ",
            "flow table     load ",
            "delivered      ",
            "fast path      burst fill ",
            "offload        rules ",
            "offload mix    drop ",
            "loss attribution (flight recorder)",
            "  drop     nic          ring_full",
            "top drop reasons: kernel/cutoff 10 pkts (14000 B) | nic/ring_full 2 pkts (120 B)",
            "journal events overwritten by ring wrap",
            "latency (pulse plane",
            "  nic_verdict ",
            "shard  state",
            "fleet  conservation ok",
            "tenant       state",
            "dns-mon      degraded",
        ] {
            assert!(out.contains(anchor), "{anchor:?} missing from\n{out}");
        }
        assert_eq!(
            dash.closing(),
            Err("scapd_conserved is 0: conservation violated".into())
        );
    }

    #[test]
    fn counters_that_go_down_render_as_no_progress() {
        let frame = |delivered: u64, ts_ns: u64, tenant_bytes: u64| {
            let r = PlainRegistry::new(1);
            r.add(0, Metric::WirePackets, 1 + delivered);
            r.add(0, Metric::DeliveredPackets, delivered);
            r.add(0, Metric::DeliveredBytes, delivered * 100);
            r.add(0, Metric::FastpathPackets, delivered);
            r.gauge_set(0, Gauge::OffloadRules, 3);
            r.add(0, Metric::NicOffloadEvictions, delivered);
            let progress = Progress {
                fed: delivered,
                total: 10_000,
                ts_ns,
            };
            let status = ScapdStatus {
                progress,
                tenants: vec![TenantRow {
                    name: "web".into(),
                    id: 1,
                    state: "active".into(),
                    matched: tenant_bytes,
                    delivered: tenant_bytes,
                    ..TenantRow::default()
                }],
            };
            let pulse = Pulse::new(990, 8).snapshot();
            exposition(&[], progress, &r.snapshot(), &pulse, |om| {
                scapd_series(om, &status)
            })
        };
        let mut dash = Dashboard::default();
        let mut out = String::new();
        dash.frame(&frame(5000, 2_000_000_000, 80_000), &mut out)
            .unwrap();
        // The producer restarted: every counter and the clock went back.
        out.clear();
        dash.frame(&frame(100, 1_000_000_000, 1_000), &mut out)
            .unwrap();
        assert!(out.contains("   0 pkt/s   0.00 Mbit/s (window)"), "{out}");
        assert!(out.contains("(0/s window)"), "{out}");
        assert!(out.contains("    0.00 "), "{out}");
        // And forward again: a real window.
        out.clear();
        dash.frame(&frame(1100, 2_000_000_000, 2_000), &mut out)
            .unwrap();
        assert!(out.contains("1000 pkt/s   0.80 Mbit/s (window)"), "{out}");
        assert_eq!(
            dash.closing(),
            Err("the capture stopped at packet 1100/10000".into())
        );
    }

    #[test]
    fn malformed_expositions_are_refused_with_the_bad_line() {
        let mut dash = Dashboard::default();
        let mut out = String::new();
        let truncated = "# TYPE scap_capture_packets_fed gauge\nscap_capture_packets_fed 1\n";
        let err = dash.frame(truncated, &mut out).unwrap_err();
        assert!(err.contains("# EOF"), "{err}");
        let garbage = "# TYPE scap_x gauge\nscap_x{a=\"b\" 1\n# EOF\n";
        let err = dash.frame(garbage, &mut out).unwrap_err();
        assert!(
            err.starts_with("line 2:") && err.contains("scap_x{a="),
            "{err}"
        );
        let comment = "# TYPE scap_x gauge\n# NOTE what\nscap_x 1\n# EOF\n";
        let err = dash.frame(comment, &mut out).unwrap_err();
        assert!(err.starts_with("line 2: unknown comment kind"), "{err}");
        let float = "scap_x 1.5\n# EOF\n";
        let err = dash.frame(float, &mut out).unwrap_err();
        assert!(err.contains("value is not a u64"), "{err}");
        assert_eq!(dash.closing(), Err("no exposition read".into()));
    }
}
