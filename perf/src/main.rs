//! `perf` — the measured benchmark of scap-rs.
//!
//! ```text
//! perf run --seed N [--workload NAME] [--seconds S] [--trace 0|1 | --traced]
//!          [--repeat R] [--out DIR] [--json FILE]
//! perf compare A.json B.json
//! ```
//!
//! `run` generates every input from the seed, runs the workload(s),
//! checks their outputs and prints every metric by name with its unit;
//! with `--workload` the last line is one JSON object for the benchmark
//! driver. Without it, every workload runs in a process of its own (so
//! that each one's peak resident set is its own). Everything printed is
//! measured on this machine — wall clock and process CPU time; no cost
//! model enters this program.

mod compare;
mod digest;
mod drive;
mod gen;
mod json;
mod layers;
mod metrics;
mod procfs;
mod run;
mod span;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

/// Seconds of timed rounds when `--seconds` is not given; the same as
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 15;
/// Where span files, result files and archive scratch space go, seen
/// from the repository root the command is run from.
const DEFAULT_OUT: &str = "perf/out";

/// The allocator setting every workload process runs under. glibc's
/// `malloc` raises its mmap threshold whenever a larger mapped block is
/// freed, so from the second round on the big per-round buffers (chunk
/// arenas, checkpoint images) come from the heap, are not handed back,
/// and the resident set creeps up with the number of rounds the heap
/// has aged through: `fleet_archive` peaked anywhere from 150 to 187 MB
/// on one commit. Naming the threshold (at its default, 128 KiB) turns
/// the adjustment off; freed buffers go back to the system and the peak
/// is that of one round (129 to 131 MB). Other allocators ignore it.
const ALLOCATOR_PIN: (&str, &str) = ("MALLOC_MMAP_THRESHOLD_", "131072");

const USAGE: &str = "usage: perf run --seed N [--workload NAME] [--seconds S] [--trace 0|1 | --traced] [--repeat R] [--out DIR] [--json FILE]\n       perf compare A.json B.json";

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    /// Times the whole set of workloads is run (all-workloads mode):
    /// the samples `perf compare` judges by.
    repeat: u64,
    out_dir: PathBuf,
    json: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        traced: false,
        repeat: 1,
        out_dir: PathBuf::from(DEFAULT_OUT),
        json: None,
    };
    let mut seed = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => seed = Some(number(value()?)?),
            "--seconds" => {
                parsed.seconds = number(value()?)?;
                if !(1..=600).contains(&parsed.seconds) {
                    return Err("--seconds must be between 1 and 600".into());
                }
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--traced" => parsed.traced = true,
            "--repeat" => {
                parsed.repeat = number(value()?)?;
                if !(1..=100).contains(&parsed.repeat) {
                    return Err("--repeat must be between 1 and 100".into());
                }
            }
            "--out" => parsed.out_dir = PathBuf::from(value()?),
            "--json" => parsed.json = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    parsed.seed = seed.ok_or("--seed is required: every input is generated from it")?;
    if parsed.workload.is_some() && parsed.repeat != 1 {
        return Err("--repeat runs the whole set of workloads: leave out --workload".into());
    }
    Ok(parsed)
}

/// This program again with the same arguments, under [`ALLOCATOR_PIN`]:
/// `malloc` reads its settings once, before `main`.
fn rerun_pinned(argv: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    std::process::Command::new(exe)
        .args(argv)
        .env(ALLOCATOR_PIN.0, ALLOCATOR_PIN.1)
        .status()
        .map(|status| status.success())
        .map_err(|e| format!("starting this program again: {e}"))
}

/// One workload, in this process.
fn run_one(args: &RunArgs, workload: &str) -> Result<bool, String> {
    let result = run::run(&run::Options {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        out_dir: args.out_dir.clone(),
    })?;
    if let Some(path) = &args.json {
        std::fs::write(path, result.detail_json())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    println!("{}", result.summary_json());
    Ok(result.correct)
}

/// Every workload, each in a child process of its own, then one result
/// file for `perf compare`.
fn run_all(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("creating {}: {e}", args.out_dir.display()))?;
    let mut records = Vec::new();
    let mut all_correct = true;
    let sets = (1..=args.repeat).flat_map(|set| workloads::WORKLOADS.map(|w| (set, w)));
    for (set, (workload, why)) in sets {
        println!("== {workload} (set {set} of {}): {why}", args.repeat);
        let record = args.out_dir.join(format!("result-{workload}.json"));
        let status = std::process::Command::new(&exe)
            .arg("run")
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out_dir)
            .arg("--json")
            .arg(&record)
            .env(ALLOCATOR_PIN.0, ALLOCATOR_PIN.1)
            .status()
            .map_err(|e| format!("starting {workload}: {e}"))?;
        all_correct &= status.success();
        match std::fs::read_to_string(&record) {
            Ok(text) => records.push(text),
            Err(e) => return Err(format!("{workload} left no result record: {e}")),
        }
        let _ = std::fs::remove_file(&record);
    }
    let path = args.json.clone().unwrap_or_else(|| {
        let kind = if args.traced { "-traced" } else { "" };
        args.out_dir
            .join(format!("results-seed{}{kind}.json", args.seed))
    });
    run::write_results(&path, &records).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("== results of all workloads written to {}", path.display());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|a| match a.workload.clone() {
            Some(_) if std::env::var_os(ALLOCATOR_PIN.0).is_none() => rerun_pinned(&args),
            Some(w) => run_one(&a, &w),
            None => run_all(&a),
        }),
        Some("compare") if args.len() == 3 => {
            let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
            read(&args[1])
                .and_then(|a| Ok((a, read(&args[2])?)))
                .and_then(|(a, b)| compare::compare(&a, &b))
                .map(|(report, regressed)| {
                    print!("{report}");
                    !regressed
                })
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}
