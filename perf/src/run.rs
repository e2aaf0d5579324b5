//! Running one workload: set-up, warm-up, timed rounds, output checks,
//! and the numbers that come out — end-to-end metrics from the untraced
//! run, the per-layer table from the separate traced run.

use crate::digest::Digest;
use crate::drive::names as kn;
use crate::json;
use crate::layers;
use crate::metrics::{self, MetricDef, PER_LAYER};
use crate::procfs;
use crate::span::{self, Span, SpanTotals, Tracer};
use crate::stats::{capped_percentile, median, quartiles};
use crate::workloads::{self, names as wn, RoundOut, Workload};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per untraced run: at least the first number, then more while
/// they fit into the time budget, up to the second. `setup_s` is their
/// median, and a set-up of a few dozen milliseconds needs many samples
/// to have a steady one.
const SETUP_REPS: (usize, usize) = (3, 15);
/// Time budget for repeating set-ups beyond the minimum.
const SETUP_BUDGET_S: f64 = 2.0;
/// Fewest timed rounds of an untraced run, whatever `--seconds` says.
const MIN_ROUNDS: usize = 5;
/// Fewest and most untraced/traced round pairs of a traced run. More
/// pairs than the second number would only grow the span file.
const TRACED_PAIRS: (usize, usize) = (2, 4);

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds of timed rounds to measure.
    pub seconds: u64,
    /// The traced run (per-layer metrics) instead of the untraced one.
    pub traced: bool,
    /// Directory for span files and archive scratch space.
    pub out_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct MetricValue {
    /// Name, unit, direction, bound.
    pub def: &'static MetricDef,
    /// The reported value.
    pub value: f64,
    /// The samples it summarises (rounds or set-ups; one for a count).
    pub samples: Vec<f64>,
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The options it ran under.
    pub opts: Options,
    /// Every output check of every round passed.
    pub correct: bool,
    /// Wire packets in timed rounds.
    pub attempted: u64,
    /// Packets lost to overload, plus every packet of a round whose
    /// output check failed.
    pub failed: u64,
    /// The metrics, in table order.
    pub metrics: Vec<MetricValue>,
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Bookkeeping shared by both kinds of run: operations, failures and
/// the digest every round must reproduce.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    reference: Option<Digest>,
}

impl Ledger {
    /// Account one timed round; `label` names it in error messages.
    fn round(&mut self, label: &str, r: &RoundOut) {
        let mut errors = r.errors.clone();
        match &self.reference {
            None => self.reference = Some(r.digest),
            Some(first) if *first != r.digest => errors.push(format!(
                "delivered digest differs from the first round's: {first:?} vs {:?}",
                r.digest
            )),
            Some(_) => {}
        }
        self.attempted += r.pkts;
        self.failed += if errors.is_empty() { r.dropped } else { r.pkts };
        self.errors
            .extend(errors.into_iter().map(|e| format!("{label}: {e}")));
    }

    /// Account a check made outside the timed rounds.
    fn outside(&mut self, label: &str, errors: Vec<String>) {
        self.errors
            .extend(errors.into_iter().map(|e| format!("{label}: {e}")));
    }
}

fn describe_round(label: &str, r: &RoundOut) {
    println!(
        "{label}: {} pkts in {:.3} s wall, {:.3} s cpu, {} events, {} dropped, {:.1} MB resident after it{}{}",
        r.pkts,
        r.clock.wall_ns as f64 / 1e9,
        r.clock.cpu_ns as f64 / 1e9,
        r.events,
        r.dropped,
        procfs::rss_bytes() as f64 / 1e6,
        if r.errors.is_empty() {
            String::new()
        } else {
            format!(", {} CHECKS FAILED", r.errors.len())
        },
        r.notes
            .iter()
            .map(|n| format!(" ({n})"))
            .collect::<String>()
    );
}

/// The timing of one round.
#[derive(Debug, Clone, Copy)]
struct Timing {
    pkts: u64,
    wall_ns: u64,
    cpu_ns: u64,
}

impl Timing {
    fn of(r: &RoundOut) -> Self {
        Timing {
            pkts: r.pkts.max(1),
            wall_ns: r.clock.wall_ns.max(1),
            cpu_ns: r.clock.cpu_ns,
        }
    }

    fn pkts_per_s(&self) -> f64 {
        self.pkts as f64 * 1e9 / self.wall_ns as f64
    }

    fn cpu_ns_per_pkt(&self) -> f64 {
        self.cpu_ns as f64 / self.pkts as f64
    }
}

/// The quarter of the rounds that ran fastest, pooled into one timing.
///
/// Every round of a workload does identical work, so rounds differ only
/// by what else the machine was doing. On the shared box this benchmark
/// is sized for, contention for the last-level cache and for memory
/// arrives in bursts of seconds and only ever slows a round down: the
/// median round of back-to-back runs of one commit spread by 10 to
/// 21 % (`perf/README.md` has the runs), while the fast quarter is
/// where the program ran least disturbed and repeats within 3 to 12 %
/// in a quiet hour. Pooling a quarter of the rounds,
/// rather than taking the single fastest, keeps one lucky round from
/// deciding the result and gives CPU time (10 ms ticks) enough ticks.
/// The median, minimum and quartiles over all rounds are printed beside
/// it.
fn quiet_quarter(rounds: &[Timing]) -> Timing {
    let mut by_speed = rounds.to_vec();
    by_speed.sort_by(|a, b| b.pkts_per_s().total_cmp(&a.pkts_per_s()));
    by_speed.truncate(rounds.len().div_ceil(4));
    Timing {
        pkts: by_speed.iter().map(|t| t.pkts).sum::<u64>().max(1),
        wall_ns: by_speed.iter().map(|t| t.wall_ns).sum::<u64>().max(1),
        cpu_ns: by_speed.iter().map(|t| t.cpu_ns).sum(),
    }
}

/// Run the workload named in `opts`; progress goes to standard output.
pub fn run(opts: &Options) -> Result<RunResult, String> {
    if !workloads::WORKLOADS.iter().any(|w| w.0 == opts.workload) {
        return Err(format!("unknown workload `{}`", opts.workload));
    }
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("creating {}: {e}", opts.out_dir.display()))?;
    println!(
        "# workload={} seed={} seconds={} traced={} nproc={} (measured wall clock and process CPU time; closed loop, 1 client)",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.traced),
        nproc()
    );
    let (ledger, metrics) = if opts.traced {
        run_traced(opts)?
    } else {
        run_untraced(opts)
    };
    for m in &metrics {
        print_metric(m);
    }
    println!(
        "ops_attempted {} ops_failed {}",
        ledger.attempted, ledger.failed
    );
    for e in &ledger.errors {
        println!("CHECK FAILED {e}");
    }
    Ok(RunResult {
        opts: opts.clone(),
        correct: ledger.errors.is_empty(),
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics,
    })
}

fn build(opts: &Options) -> Box<dyn Workload> {
    workloads::build(&opts.workload, opts.seed, &opts.out_dir).expect("name checked by the caller")
}

fn print_metric(m: &MetricValue) {
    let (q1, med, q3) = quartiles(&m.samples);
    let min = m.samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = m.samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if m.samples.len() > 1 {
        println!(
            "{:<42} {:>16.4} {:<9} n={} median {:.4} min {:.4} q1 {:.4} q3 {:.4} max {:.4}",
            m.def.name,
            m.value,
            m.def.unit,
            m.samples.len(),
            med,
            min,
            q1,
            q3,
            max
        );
    } else {
        println!("{:<42} {:>16.4} {}", m.def.name, m.value, m.def.unit);
    }
}

fn run_untraced(opts: &Options) -> (Ledger, Vec<MetricValue>) {
    let mut ledger = Ledger::default();
    let mut off = Tracer::new(false);

    // Set up several times and report the median: one set-up is a
    // single sample of a short, allocation-heavy interval.
    let mut setup: Vec<f64> = Vec::new();
    let mut workload = None;
    while setup.len() < SETUP_REPS.0
        || (setup.len() < SETUP_REPS.1 && setup.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(workload.take());
        let t0 = Instant::now();
        workload = Some(build(opts));
        setup.push(t0.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("at least one set-up ran");

    let warm = w.round(&mut off, false);
    describe_round("warm-up", &warm);
    ledger.outside("warm-up", warm.errors);
    ledger.reference = Some(warm.digest);

    // The peak resident set is taken round by round and the median
    // round reported: the peak of the whole process is the worst of all
    // its rounds, and the worst of twenty moves more than the typical
    // one (`live_deliver`, whose unbounded kernel-to-worker queue is as
    // deep as the scheduler made it: 170 to 219 MB between runs).
    let mut rounds: Vec<Timing> = Vec::new();
    let mut peaks: Vec<f64> = Vec::new();
    let mut peak_per_round = true;
    let (mut timed_ns, mut wire_bits) = (0, 0.0);
    while rounds.len() < MIN_ROUNDS || timed_ns < opts.seconds * 1_000_000_000 {
        peak_per_round &= procfs::reset_peak_rss();
        let r = w.round(&mut off, false);
        peaks.push(procfs::peak_rss_bytes() as f64 / 1e6);
        let label = format!("round {}", rounds.len() + 1);
        describe_round(&label, &r);
        ledger.round(&label, &r);
        timed_ns += r.clock.wall_ns;
        wire_bits = r.wire_bytes as f64 * 8.0;
        rounds.push(Timing::of(&r));
    }
    ledger.outside("end of run", w.final_checks());
    drop(w);

    let quiet = quiet_quarter(&rounds);
    println!(
        "wire_gbits_per_s {:.4} (information only: on a fixed trace it moves with pkts_per_s)",
        wire_bits * quiet.pkts_per_s() / rounds[0].pkts as f64 / 1e9
    );
    if !peak_per_round {
        println!("peak_rss_mbytes: /proc/self/clear_refs is not writable here; reporting the peak of the whole process");
        peaks = vec![procfs::peak_rss_bytes() as f64 / 1e6];
    }
    let metric = |name: &str, value: f64, samples: Vec<f64>| MetricValue {
        def: metrics::find(name).expect("end-to-end metric names are in the table"),
        value,
        samples,
    };
    let metrics = vec![
        metric(
            metrics::PKTS_PER_S,
            quiet.pkts_per_s(),
            rounds.iter().map(Timing::pkts_per_s).collect(),
        ),
        metric(
            metrics::CPU_NS_PER_PKT,
            quiet.cpu_ns_per_pkt(),
            rounds.iter().map(Timing::cpu_ns_per_pkt).collect(),
        ),
        metric(metrics::PEAK_RSS_MBYTES, median(&peaks), peaks),
        metric(metrics::SETUP_S, median(&setup), setup),
    ];
    (ledger, metrics)
}

/// Packets and events of the traced rounds of one dispatch mode.
#[derive(Default, Clone, Copy)]
struct Traced {
    pkts: u64,
    events: u64,
    rounds: u64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn run_traced(opts: &Options) -> Result<(Ledger, Vec<MetricValue>), String> {
    let mut ledger = Ledger::default();
    let mut off = Tracer::new(false);
    let mut tr = Tracer::new(true);

    println!("isolated table layers ...");
    let table_layers = layers::tables(opts.seed);
    let t0 = Instant::now();
    let mut w = build(opts);
    println!(
        "setup {:.3} s (information only)",
        t0.elapsed().as_secs_f64()
    );
    let warm = w.round(&mut off, false);
    describe_round("warm-up", &warm);
    ledger.outside("warm-up", warm.errors);
    ledger.reference = Some(warm.digest);

    // Untraced and traced rounds alternate, so that drift of the machine
    // lands on both sides of the overhead figure.
    let (mut plain_rounds, mut traced_rounds) = (Vec::new(), Vec::new());
    let (mut native, mut alt) = (Traced::default(), Traced::default());
    let mut alt_rounds: Vec<u32> = Vec::new();
    let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut last_digest = Digest::default();
    let mut round_no = 0u32;
    let mut timed_ns = 0;
    let mut pairs = 0;
    while pairs < TRACED_PAIRS.0
        || (pairs < TRACED_PAIRS.1 && timed_ns < opts.seconds * 1_000_000_000)
    {
        pairs += 1;
        let r = w.round(&mut off, false);
        let label = format!("pair {pairs} untraced");
        describe_round(&label, &r);
        ledger.round(&label, &r);
        timed_ns += r.clock.wall_ns;
        plain_rounds.push(Timing::of(&r));

        round_no += 1;
        tr.set_round(round_no);
        let r = w.round(&mut tr, false);
        let label = format!("pair {pairs} traced");
        describe_round(&label, &r);
        ledger.round(&label, &r);
        timed_ns += r.clock.wall_ns;
        traced_rounds.push(Timing::of(&r));
        native.pkts += r.pkts;
        native.events += r.events;
        native.rounds += 1;
        last_digest = r.digest;
        counts.extend(r.counts.iter().copied());

        if w.has_alt_dispatch() {
            round_no += 1;
            tr.set_round(round_no);
            alt_rounds.push(round_no);
            let r = w.round(&mut tr, true);
            let label = format!("pair {pairs} traced, other dispatch mode");
            describe_round(&label, &r);
            // Same digest as the native mode, or the round has failed.
            ledger.round(&label, &r);
            timed_ns += r.clock.wall_ns;
            alt.pkts += r.pkts;
            alt.events += r.events;
            alt.rounds += 1;
            for (name, v) in &r.counts {
                counts.entry(name).or_insert(*v);
            }
        }
    }
    ledger.outside("end of run", w.final_checks());

    let spans = tr.spans();
    let is_alt = |s: &Span| alt_rounds.contains(&s.round);
    let all = span::totals(spans, |_| true);
    let native_totals = span::totals(spans, |s| !is_alt(s));
    let get = |t: &BTreeMap<&'static str, SpanTotals>, name: &str| {
        t.get(name).copied().unwrap_or_default()
    };
    let (classic, fastpath) = if w.native_fastpath() {
        (alt, native)
    } else {
        (native, alt)
    };
    let both = native.pkts + alt.pkts;

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    values.insert(
        "core.nic_receive.ns_per_pkt",
        ratio(get(&all, kn::NIC_RECEIVE).total_ns as f64, both as f64),
    );
    values.insert(
        "core.kernel_poll.ns_per_pkt",
        ratio(
            get(&all, kn::KERNEL_POLL).total_ns as f64,
            classic.pkts as f64,
        ),
    );
    values.insert(
        "core.poll_burst.ns_per_pkt",
        ratio(
            get(&all, kn::POLL_BURST).total_ns as f64,
            fastpath.pkts as f64,
        ),
    );
    let timers = get(&all, kn::KERNEL_TIMERS);
    values.insert(
        "core.kernel_timers.ns_per_call",
        ratio(timers.total_ns as f64, timers.count as f64),
    );
    values.insert(
        "core.event_drain.ns_per_event",
        ratio(
            get(&all, kn::EVENT_DRAIN).total_ns as f64,
            (native.events + alt.events) as f64,
        ),
    );
    values.insert(
        "core.events_per_kpkt",
        ratio(native.events as f64 * 1000.0, native.pkts as f64),
    );

    // Batch times of the native mode: the kernel drive loop's batches,
    // or the fleet's 256-packet offers.
    let batch_us: Vec<f64> = spans
        .iter()
        .filter(|s| !is_alt(s) && (s.name == kn::BATCH || s.name == wn::FLEET_OFFER))
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    values.insert("core.drive.batch_p50_us", median(&batch_us));
    let (p99, used) = capped_percentile(&batch_us, 990);
    values.insert("core.drive.batch_p99_us", p99);
    if !batch_us.is_empty() && used != 990 {
        println!(
            "core.drive.batch_p99_us: {} batches support the {}th permille at most; that is what is reported",
            batch_us.len(),
            used
        );
    }

    let capture = get(&all, wn::LIVE_CAPTURE);
    values.insert(
        "core.live.start_capture.ns_per_pkt",
        ratio(capture.total_ns as f64, native.pkts as f64),
    );
    let rounds = native.rounds.max(1) as f64;
    let offer = get(&native_totals, wn::FLEET_OFFER);
    values.insert(
        "core.fleet.offer.ns_per_pkt",
        ratio(offer.self_ns as f64, native.pkts as f64),
    );
    let tick = get(&all, wn::FLEET_TICK);
    values.insert(
        "core.fleet.tick.ns_per_call",
        ratio(tick.total_ns as f64, tick.count as f64),
    );
    let finish = get(&all, wn::FLEET_FINISH);
    values.insert(
        "core.fleet.finish.ms",
        ratio(finish.total_ns as f64 / 1e6, finish.count as f64),
    );
    let observe = get(&all, wn::STORE_OBSERVE);
    values.insert(
        "store.observe.ns_per_event",
        ratio(observe.total_ns as f64, observe.count as f64),
    );
    let store_finish = get(&all, wn::STORE_FINISH);
    values.insert(
        "store.finish.ms",
        store_finish.total_ns as f64 / 1e6 / rounds,
    );

    // Counts read at the round boundary. Those that are inputs of a
    // ratio are not metrics themselves.
    let count = |name: &str| counts.get(name).copied().unwrap_or(0.0);
    values.insert(
        "core.live.callback_busy_share_permille",
        ratio(
            count("core.live.callback_busy_ns") * 1000.0,
            capture.total_ns as f64 / rounds,
        ),
    );
    values.insert(
        "store.write_mbytes_per_s",
        ratio(
            count("store.archived_bytes") * 1e3,
            (observe.total_ns + store_finish.total_ns) as f64 / rounds,
        ),
    );
    values.insert(
        "store.bytes_per_delivered_byte",
        ratio(
            count("store.disk_bytes"),
            last_digest.delivered_bytes as f64,
        ),
    );
    for def in &PER_LAYER {
        if let Some(v) = counts.get(def.name) {
            values.insert(def.name, *v);
        }
    }

    let trace = w.trace().to_vec();
    let cfg = w.kernel_config();
    drop(w);
    println!(
        "isolated layers on {} packets of the trace ...",
        trace.len()
    );
    values.extend(table_layers);
    values.extend(layers::on_trace(&trace, &cfg, opts.seed));

    let (plain, traced) = (
        quiet_quarter(&plain_rounds).pkts_per_s(),
        quiet_quarter(&traced_rounds).pkts_per_s(),
    );
    let composed_ns_per_pkt = 1e9 / plain;
    let events_per_pkt = ratio(native.events as f64, native.pkts as f64);
    let layers_sum: f64 = layers::path(&opts.workload, events_per_pkt)
        .iter()
        .map(|(name, times)| values.get(name).copied().unwrap_or(0.0) * times)
        .sum();
    values.insert(
        "layers_sum_share_permille",
        ratio(layers_sum * 1000.0, composed_ns_per_pkt),
    );
    values.insert(
        "trace_overhead_permille",
        ratio((plain - traced) * 1000.0, plain),
    );
    println!(
        "untraced {plain:.1} pkts/s, traced {traced:.1} pkts/s; composed {composed_ns_per_pkt:.1} ns/pkt, layers on the path sum to {layers_sum:.1} ns/pkt"
    );

    let path = opts.out_dir.join(format!("trace-{}.json", opts.workload));
    tr.write_json(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("{} spans written to {}", spans.len(), path.display());

    let metrics = PER_LAYER
        .iter()
        .map(|def| {
            let value = values.get(def.name).copied().unwrap_or(0.0);
            MetricValue {
                def,
                value,
                samples: vec![value],
            }
        })
        .collect();
    Ok((ledger, metrics))
}

impl RunResult {
    /// The line the benchmark driver reads: the last line of output.
    pub fn summary_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(m.def.name),
                    json::number(m.value),
                    json::quote(m.def.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The full record `perf compare` reads: every metric with its
    /// samples, direction and bound.
    pub fn detail_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let samples: Vec<String> = m.samples.iter().map(|s| json::number(*s)).collect();
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}, \"value\": {}, \"samples\": [{}]}}",
                    json::quote(m.def.name),
                    json::quote(m.def.unit),
                    json::quote(m.def.better.as_str()),
                    json::number(m.def.bound),
                    json::number(m.value),
                    samples.join(", ")
                )
            })
            .collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"traced\": {}, \"nproc\": {}, \
             \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": [\n{}\n  ]}}",
            json::quote(&self.opts.workload),
            self.opts.seed,
            self.opts.seconds,
            self.opts.traced,
            nproc(),
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",\n")
        )
    }
}

/// Write the detail records of several runs as one document.
pub fn write_results(path: &Path, records: &[String]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{\"runs\": [\n  {}\n]}}", records.join(",\n  "))?;
    f.flush()
}
