#![forbid(unsafe_code)]

//! The experiments binary: regenerate any table/figure of the paper.
//!
//! ```text
//! experiments --exp all              # everything, default scale
//! experiments --exp fig6 fig7        # selected figures
//! experiments --exp all --scale smoke
//! experiments --out results/         # output directory
//! ```

use scap_bench::cli::Args;
use scap_bench::figures::{run_experiment, ALL_EXPERIMENTS};
use scap_bench::{ExpConfig, Scale};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut exps: Vec<&str> = Vec::new();
    let mut scale = Scale::default_scale();
    let mut out_dir = String::from("results");
    let mut seed = 42u64;

    let mut flags = Args::new(&args, die);
    while let Some(arg) = flags.next() {
        match arg {
            "--exp" => exps.extend(flags.values()),
            "--scale" => {
                scale = match flags.value::<String>("smoke or default").as_str() {
                    "smoke" => Scale::smoke(),
                    "default" => Scale::default_scale(),
                    other => die(&format!("unknown scale '{other}' (use smoke|default)")),
                }
            }
            "--out" => out_dir = flags.value("a directory"),
            "--seed" => seed = flags.value("a number"),
            "--help" | "-h" => {
                println!(
                    "usage: experiments [--exp <id>... | --exp all] [--scale smoke|default] \
                     [--out DIR] [--seed N]\nids: {}",
                    ALL_EXPERIMENTS.join(" ")
                );
                return;
            }
            other => die(&format!("unknown argument '{other}' (try --help)")),
        }
    }

    // Every id is checked before anything runs: a gate that takes a zero
    // exit as proof must not pass on a mistyped experiment.
    if let Some(bad) = exps
        .iter()
        .find(|e| **e != "all" && !ALL_EXPERIMENTS.contains(e))
    {
        die(&format!(
            "unknown experiment '{bad}' (ids: {})",
            ALL_EXPERIMENTS.join(" ")
        ));
    }
    if exps.is_empty() || exps.contains(&"all") {
        exps = ALL_EXPERIMENTS.to_vec();
    }

    let mut cfg = ExpConfig::new(scale);
    cfg.out_dir = out_dir.into();
    cfg.seed = seed;

    println!(
        "scap experiments | scale={} trace={}MB out={}",
        cfg.scale.name,
        cfg.scale.trace_bytes >> 20,
        cfg.out_dir.display()
    );

    let mut produced = Vec::new();
    for id in &exps {
        let t0 = Instant::now();
        match run_experiment(id, &cfg) {
            Some(results) => {
                for r in &results {
                    println!("\n{}", r.to_table());
                    if let Err(e) = r.write(&cfg.out_dir) {
                        eprintln!("warning: could not write {}: {e}", r.name);
                    }
                }
                produced.extend(results);
                println!("[{id} done in {:.1}s]", t0.elapsed().as_secs_f64());
            }
            None => unreachable!("'{id}' is listed in ALL_EXPERIMENTS but not runnable"),
        }
    }

    match scap_bench::write_bench_summary(&cfg, &produced) {
        Ok(path) => println!("summary: {}", path.display()),
        Err(e) => eprintln!("warning: could not write BENCH_summary.json: {e}"),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("experiments: {msg}");
    std::process::exit(2);
}
