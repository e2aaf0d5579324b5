//! Shared experiment infrastructure: scales, workload construction,
//! stack runners, and table/CSV output.

use scap::apps::{FlowStatsApp, PatternMatchApp, StreamTouchApp};
use scap::{ScapConfig, ScapKernel, ScapSimStack, SimApp};
use scap_baseline::{BaselineApp, UserStack, UserStackConfig};
use scap_memory;
use scap_patterns::AhoCorasick;
use scap_sim::{CostModel, Engine, EngineConfig, EngineReport};
use scap_trace::gen::{CampusMix, CampusMixConfig};
use scap_trace::replay::{natural_rate_bps, RateReplay};
use scap_trace::stats::TraceStats;
use scap_trace::Packet;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Experiment sizing. The paper's testbed replays a 46 GB trace against
/// 512 MB / 1 GB buffers for minutes; the reproduction scales trace and
/// buffers together so the same buffer-fill dynamics appear in seconds.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Name used in output headers.
    pub name: &'static str,
    /// Synthetic campus trace size in bytes.
    pub trace_bytes: u64,
    /// PF_PACKET ring size for the baselines.
    pub ring_bytes: usize,
    /// Scap stream-memory arena.
    pub arena_bytes: usize,
    /// Baseline user-level stream-buffer budget.
    pub stream_mem: usize,
    /// The replay-rate ladder (Gbit/s).
    pub rates_gbps: Vec<f64>,
    /// Concurrent-stream levels for Fig. 5.
    pub conc_levels: Vec<u64>,
    /// Data packets per stream in the Fig. 5 workload (paper: 100;
    /// scaled down so the largest level stays tractable).
    pub conc_pkts_per_stream: u32,
    /// Baseline static flow-table limit (paper observes ~1 M; scaled
    /// with the stream levels so the failure appears on the axis).
    pub baseline_max_flows: usize,
    /// Cutoff ladder for Fig. 8, in bytes.
    pub cutoffs: Vec<u64>,
    /// Number of generated attack patterns (paper: 2,120).
    pub pattern_count: usize,
}

impl Scale {
    /// The scale used for the recorded EXPERIMENTS.md run.
    pub fn default_scale() -> Self {
        Scale {
            name: "default",
            trace_bytes: 128 << 20,
            ring_bytes: 8 << 20,
            arena_bytes: 16 << 20,
            stream_mem: 16 << 20,
            rates_gbps: vec![
                0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0,
            ],
            conc_levels: vec![10, 100, 1_000, 10_000, 100_000],
            conc_pkts_per_stream: 20,
            baseline_max_flows: 10_000,
            cutoffs: vec![
                0,
                1 << 10,
                10 << 10,
                100 << 10,
                1 << 20,
                10 << 20,
                100 << 20,
            ],
            pattern_count: 2120,
        }
    }

    /// A fast scale for CI-style smoke runs.
    pub fn smoke() -> Self {
        Scale {
            name: "smoke",
            trace_bytes: 12 << 20,
            ring_bytes: 4 << 20,
            arena_bytes: 8 << 20,
            stream_mem: 8 << 20,
            rates_gbps: vec![0.5, 2.0, 4.0, 6.0],
            conc_levels: vec![10, 100, 1_000],
            conc_pkts_per_stream: 10,
            baseline_max_flows: 500,
            cutoffs: vec![0, 10 << 10, 1 << 20],
            pattern_count: 300,
        }
    }
}

/// Configuration of one experiment invocation.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Sizing.
    pub scale: Scale,
    /// Output directory for text/CSV results.
    pub out_dir: PathBuf,
    /// Workload seed.
    pub seed: u64,
}

impl ExpConfig {
    /// Default config writing into `results/`.
    pub fn new(scale: Scale) -> Self {
        ExpConfig {
            scale,
            out_dir: PathBuf::from("results"),
            seed: 42,
        }
    }
}

/// One produced figure/table.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// Identifier, e.g. `fig3a`.
    pub name: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (headline observations for EXPERIMENTS.md).
    pub notes: Vec<String>,
}

impl FigureResult {
    /// Render as an aligned text table.
    pub fn to_table(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.name));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }

    /// Render as a JSON object `{"headers", "rows", "notes"}`; cells go
    /// through [`json_value`].
    pub fn to_json(&self) -> String {
        let strings = |v: &[String]| -> String {
            let items: Vec<String> = v
                .iter()
                .map(|s| format!("\"{}\"", json_escape(s)))
                .collect();
            format!("[{}]", items.join(", "))
        };
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                let cells: Vec<String> = r.iter().map(|c| json_value(c)).collect();
                format!("[{}]", cells.join(", "))
            })
            .collect();
        format!(
            "{{\"headers\": {}, \"rows\": [{}], \"notes\": {}}}",
            strings(&self.headers),
            rows.join(", "),
            strings(&self.notes)
        )
    }

    /// Write `name.txt` and `name.csv` into the output directory.
    pub fn write(&self, out_dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(out_dir)?;
        let mut t = std::fs::File::create(out_dir.join(format!("{}.txt", self.name)))?;
        t.write_all(self.to_table().as_bytes())?;
        let mut c = std::fs::File::create(out_dir.join(format!("{}.csv", self.name)))?;
        for row in std::iter::once(&self.headers).chain(&self.rows) {
            let cells: Vec<String> = row.iter().map(|c| csv_cell(c)).collect();
            writeln!(c, "{}", cells.join(","))?;
        }
        Ok(())
    }
}

/// A CSV field: quoted (inner quotes doubled) when it holds a comma, a
/// quote or a line break, so such a cell cannot tear its row.
fn csv_cell(cell: &str) -> String {
    if cell.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// Escape a string for inclusion in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Emit a cell as a bare JSON number when it parses as one (the tables
/// pre-format all numerics), otherwise as a quoted string.
pub(crate) fn json_value(cell: &str) -> String {
    match cell.parse::<f64>() {
        Ok(v) if v.is_finite() => cell.to_string(),
        _ => format!("\"{}\"", json_escape(cell)),
    }
}

/// Format helpers.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// Format to two decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Format in scientific notation.
pub fn sci(v: f64) -> String {
    format!("{v:.2e}")
}

/// The standard engine (8 cores, 1 ms ticks, calibrated cost model).
pub fn engine() -> Engine {
    Engine::new(EngineConfig::default())
}

/// An engine whose cores are effectively infinite — the drop-free oracle
/// used to establish ground-truth match counts.
pub fn oracle_engine() -> Engine {
    Engine::new(EngineConfig {
        model: CostModel {
            core_hz: 1e15,
            ..CostModel::default()
        },
        ..EngineConfig::default()
    })
}

/// The campus trace for an experiment (optionally with embedded attack
/// patterns), plus its ground-truth statistics.
pub struct Workload {
    /// The packets, at the generator's natural rate.
    pub trace: Vec<Packet>,
    /// Ground-truth statistics.
    pub stats: TraceStats,
    /// Natural replay rate.
    pub natural_bps: f64,
    /// The compiled pattern set (when patterns were embedded).
    pub patterns: Option<AhoCorasick>,
}

/// Build the plain campus workload.
pub fn campus_workload(cfg: &ExpConfig) -> Workload {
    let trace =
        CampusMix::new(CampusMixConfig::sized(cfg.seed, cfg.scale.trace_bytes)).collect_all();
    let stats = TraceStats::from_packets(trace.iter());
    let natural_bps = natural_rate_bps(&trace);
    Workload {
        trace,
        stats,
        natural_bps,
        patterns: None,
    }
}

/// Build the campus workload with embedded web-attack patterns
/// (the §6.5 pattern-matching evaluation).
pub fn pattern_workload(cfg: &ExpConfig) -> Workload {
    let pats = scap_patterns::generate_web_attack_patterns(cfg.scale.pattern_count, cfg.seed ^ 1);
    let trace = CampusMix::new(CampusMixConfig {
        patterns: Some(Arc::new(pats.clone())),
        pattern_prob: 0.35,
        ..CampusMixConfig::sized(cfg.seed, cfg.scale.trace_bytes)
    })
    .collect_all();
    let stats = TraceStats::from_packets(trace.iter());
    let natural_bps = natural_rate_bps(&trace);
    Workload {
        trace,
        stats,
        natural_bps,
        patterns: Some(AhoCorasick::new(&pats, false)),
    }
}

impl Workload {
    /// The trace rescaled to a target rate.
    pub fn at_rate(&self, gbps: f64) -> Vec<Packet> {
        RateReplay::new(self.trace.iter().cloned(), self.natural_bps, gbps * 1e9).collect()
    }
}

/// Scap configuration shared by the experiments (single worker unless
/// overridden, paper-like parameters, scaled arena).
pub fn scap_config(cfg: &ExpConfig) -> ScapConfig {
    ScapConfig {
        memory_bytes: cfg.scale.arena_bytes,
        // Replay compresses trace time (a multi-minute capture plays in
        // well under a second of simulated time), so the wall-clock
        // timeouts compress along with it: the paper's 10 s inactivity
        // timeout scales to 500 ms, the flush timeout to 5 ms.
        inactivity_timeout_ns: 500_000_000,
        flush_timeout_ns: 5_000_000,
        // Scap's standing overload control (§2.2): above half-full
        // memory, shed the tails of long streams first. This is what
        // keeps matches and streams alive under overload in Fig. 6.
        // base_threshold 0.75: the arena is scaled ~64× below the
        // paper's 1 GB, so a single elephant-flow burst is a far larger
        // *fraction* of it; shedding starts at 75% to absorb those
        // transients while preserving the overload dynamics.
        ppl: scap_memory::PplConfig {
            base_threshold: 0.75,
            num_priorities: 1,
            overload_cutoff: Some(64 << 10),
        },
        ..ScapConfig::default()
    }
}

/// Run a Scap stack over packets; returns the report and the stack.
pub fn run_scap<A: SimApp>(
    engine: &Engine,
    config: ScapConfig,
    app: A,
    packets: Vec<Packet>,
) -> (EngineReport, ScapSimStack<A>) {
    let mut stack = ScapSimStack::new(ScapKernel::new(config), app);
    let report = engine.run(packets, &mut stack);
    (report, stack)
}

/// Run a baseline stack over packets.
pub fn run_baseline<A: BaselineApp>(
    engine: &Engine,
    config: UserStackConfig,
    app: A,
    packets: Vec<Packet>,
) -> (EngineReport, UserStack<A>) {
    let mut stack = UserStack::new(config, app);
    let report = engine.run(packets, &mut stack);
    (report, stack)
}

/// Baseline configs with experiment-scaled buffers.
pub fn libnids_cfg(cfg: &ExpConfig) -> UserStackConfig {
    UserStackConfig {
        ring_bytes: cfg.scale.ring_bytes,
        stream_memory: cfg.scale.stream_mem,
        inactivity_timeout_ns: 500_000_000,
        ..UserStackConfig::libnids()
    }
}

/// Stream5 baseline at experiment scale.
pub fn stream5_cfg(cfg: &ExpConfig) -> UserStackConfig {
    UserStackConfig {
        ring_bytes: cfg.scale.ring_bytes,
        stream_memory: cfg.scale.stream_mem,
        inactivity_timeout_ns: 500_000_000,
        ..UserStackConfig::stream5()
    }
}

/// YAF baseline at experiment scale.
pub fn yaf_cfg(cfg: &ExpConfig) -> UserStackConfig {
    UserStackConfig {
        ring_bytes: cfg.scale.ring_bytes,
        stream_memory: cfg.scale.stream_mem,
        inactivity_timeout_ns: 500_000_000,
        ..UserStackConfig::yaf()
    }
}

/// Ground-truth pattern matches: the oracle run with unlimited CPU.
pub fn oracle_matches(cfg: &ExpConfig, wl: &Workload) -> u64 {
    let ac = wl.patterns.clone().expect("pattern workload");
    let (report, _) = run_scap(
        &oracle_engine(),
        scap_config(cfg),
        PatternMatchApp::new(ac),
        wl.at_rate(1.0),
    );
    report.stats.matches
}

/// Convenience constructors for app models (so figures read cleanly).
pub fn flow_stats_app() -> FlowStatsApp {
    FlowStatsApp::default()
}

/// Stream-touch app.
pub fn touch_app() -> StreamTouchApp {
    StreamTouchApp::default()
}

/// Distill a pulse snapshot into the standard per-stage latency table
/// every pulse-reporting experiment emits: one row per active stage with
/// interpolated p50/p99/p999, the exported exemplar count, and the
/// tail-sampling threshold those exemplars cleared.
pub fn latency_figure(
    name: &str,
    snap: &scap::telemetry::PulseSnapshot,
    mut notes: Vec<String>,
) -> FigureResult {
    use scap::telemetry::PulseStage;
    let mut rows = Vec::new();
    for st in PulseStage::ALL {
        let (count, p50, p99, p999) = snap.summary(st);
        if count == 0 {
            continue;
        }
        rows.push(vec![
            st.name().to_string(),
            count.to_string(),
            p50.to_string(),
            p99.to_string(),
            p999.to_string(),
            snap.stage_exemplars(st).len().to_string(),
            snap.threshold(st).to_string(),
        ]);
    }
    notes.push(format!(
        "exemplars tail-sampled at q={:.3}; every exemplar's delay >= its stage's \
         threshold_ns (the conservative bucket-floor quantile estimate)",
        snap.quantile()
    ));
    FigureResult {
        name: name.into(),
        headers: [
            "stage",
            "count",
            "p50_ns",
            "p99_ns",
            "p999_ns",
            "exemplars",
            "threshold_ns",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
        rows,
        notes,
    }
}

/// The pulse-plane acceptance gate shared by the latency-reporting
/// experiments: delivery latency was actually measured (nonzero p99),
/// every exported exemplar clears its stage's final threshold, and —
/// when the producing journal is at hand — every exemplar uid resolves
/// to at least one journal event (its own `pulse_exemplar` record at
/// minimum), so `scapcat --trace <uid>` can reconstruct the slow packet.
pub fn assert_pulse_acceptance(
    snap: &scap::telemetry::PulseSnapshot,
    journal: Option<&scap_flight::Journal>,
) {
    use scap::telemetry::pulse::exemplar_consistent;
    use scap::telemetry::PulseStage;
    assert!(
        snap.stage(PulseStage::Delivery).quantile(0.99) > 0,
        "pulse plane recorded no delivery latency (p99 == 0)"
    );
    for e in &snap.exemplars {
        assert!(
            exemplar_consistent(snap, e),
            "exemplar {e:?} below its stage's sampling threshold {}",
            snap.threshold(e.stage)
        );
        if let Some(j) = journal {
            assert!(
                !j.for_uid(e.uid).is_empty(),
                "exemplar uid {} resolves to no flight-journal events",
                e.uid
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns() {
        let fr = FigureResult {
            name: "test".into(),
            headers: vec!["rate".into(), "drop%".into()],
            rows: vec![
                vec!["0.25".into(), "0.0".into()],
                vec!["6.00".into(), "81.2".into()],
            ],
            notes: vec!["hello".into()],
        };
        let t = fr.to_table();
        assert!(t.contains("rate"));
        assert!(t.contains("81.2"));
        assert!(t.contains("note: hello"));
    }

    #[test]
    fn csv_quotes_only_cells_that_would_tear_the_row() {
        assert_eq!(csv_cell("81.2"), "81.2");
        assert_eq!(csv_cell("shared/solo %"), "shared/solo %");
        assert_eq!(csv_cell("error: a, b"), "\"error: a, b\"");
        assert_eq!(csv_cell("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_cell("two\nlines"), "\"two\nlines\"");
    }

    #[test]
    fn workload_rate_scaling() {
        let cfg = ExpConfig::new(Scale::smoke());
        let wl = campus_workload(&cfg);
        let fast = wl.at_rate(6.0);
        let slow = wl.at_rate(0.5);
        assert_eq!(fast.len(), slow.len());
        let fd = fast.last().unwrap().ts_ns - fast.first().unwrap().ts_ns;
        let sd = slow.last().unwrap().ts_ns - slow.first().unwrap().ts_ns;
        assert!(sd > fd * 10);
    }
}
