#![forbid(unsafe_code)]

//! The experiments binary: regenerate any table/figure of the paper.
//!
//! ```text
//! experiments --exp all              # everything, default scale
//! experiments --exp fig6 fig7        # selected figures
//! experiments --exp all --scale smoke
//! experiments --out results/         # output directory
//! ```

use scap_bench::figures::{run_experiment, ALL_EXPERIMENTS};
use scap_bench::{ExpConfig, Scale};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut exps: Vec<String> = Vec::new();
    let mut scale = Scale::default_scale();
    let mut out_dir = String::from("results");
    let mut seed = 42u64;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--exp" => {
                i += 1;
                while i < args.len() && !args[i].starts_with("--") {
                    exps.push(args[i].clone());
                    i += 1;
                }
            }
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("smoke") => Scale::smoke(),
                    Some("default") | None => Scale::default_scale(),
                    Some(other) => {
                        eprintln!("unknown scale '{other}' (use smoke|default)");
                        std::process::exit(2);
                    }
                };
                i += 1;
            }
            "--out" => {
                i += 1;
                out_dir = args.get(i).cloned().unwrap_or(out_dir);
                i += 1;
            }
            "--seed" => {
                i += 1;
                seed = args.get(i).and_then(|s| s.parse().ok()).unwrap_or(seed);
                i += 1;
            }
            "--help" | "-h" => {
                println!(
                    "usage: experiments [--exp <id>... | --exp all] [--scale smoke|default] \
                     [--out DIR] [--seed N]\nids: {}",
                    ALL_EXPERIMENTS.join(" ")
                );
                return;
            }
            other => {
                eprintln!("unknown argument '{other}' (try --help)");
                std::process::exit(2);
            }
        }
    }

    // Every id is checked before anything runs: a gate that takes a zero
    // exit as proof must not pass on a mistyped experiment.
    if let Some(bad) = exps
        .iter()
        .find(|e| *e != "all" && !ALL_EXPERIMENTS.contains(&e.as_str()))
    {
        eprintln!(
            "unknown experiment '{bad}' (ids: {})",
            ALL_EXPERIMENTS.join(" ")
        );
        std::process::exit(2);
    }
    if exps.is_empty() || exps.iter().any(|e| e == "all") {
        exps = ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
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
    match scap_bench::append_trajectory(&cfg, &produced) {
        Ok(path) => println!("trajectory: {}", path.display()),
        Err(e) => eprintln!("warning: could not append trajectory.jsonl: {e}"),
    }
}
