//! Machine-readable run summary: `BENCH_summary.json`, and the
//! `trajectory.jsonl` line of headline figures.
//!
//! The summary is every table of the run ([`FigureResult::to_json`]),
//! keyed by name in run order. `experiments` reads no clock, so the
//! document says `"clock": "virtual"` once for all of it: every number
//! in it is modelled. Measured numbers are `perf`'s (`perf/out/`).

use crate::common::{json_escape, json_value, ExpConfig, FigureResult};
use std::path::PathBuf;

fn find<'a>(results: &'a [FigureResult], name: &str) -> Option<&'a FigureResult> {
    results.iter().find(|r| r.name == name)
}

/// Render the summary document: every figure produced in this run.
pub fn render_bench_summary(cfg: &ExpConfig, results: &[FigureResult]) -> String {
    let tables: Vec<String> = results
        .iter()
        .map(|r| format!("    \"{}\": {}", json_escape(&r.name), r.to_json()))
        .collect();
    let tables = if tables.is_empty() {
        "{}".to_string()
    } else {
        format!("{{\n{}\n  }}", tables.join(",\n"))
    };
    let fields = [
        "\"schema\": \"scap-bench-summary/2\"".to_string(),
        "\"clock\": \"virtual\"".to_string(),
        format!("\"scale\": \"{}\"", json_escape(cfg.scale.name)),
        format!("\"seed\": {}", cfg.seed),
        format!("\"tables\": {tables}"),
    ];
    format!("{{\n  {}\n}}\n", fields.join(",\n  "))
}

/// Convert unix days to a civil (year, month, day) date
/// (Howard Hinnant's `civil_from_days`, public domain algorithm).
fn civil_from_days(days: i64) -> (i64, u32, u32) {
    let z = days + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// One line of `results/trajectory.jsonl`: the run's headline throughput
/// figures (fast-path pkts/s and offload hit rate/flows when those
/// experiments ran), stamped with the git SHA and UTC date so successive
/// runs accumulate into a performance trajectory of the repository.
pub fn render_trajectory_record(cfg: &ExpConfig, results: &[FigureResult]) -> String {
    let unix_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (y, m, d) = civil_from_days((unix_secs / 86_400) as i64);
    let sha = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());

    let mut fields = vec![
        format!("\"date\": \"{y:04}-{m:02}-{d:02}\""),
        format!("\"unix_secs\": {unix_secs}"),
        format!("\"git_sha\": \"{}\"", json_escape(&sha)),
        format!("\"scale\": \"{}\"", json_escape(cfg.scale.name)),
        format!("\"seed\": {}", cfg.seed),
    ];
    if let Some(t) = find(results, "fastpath_throughput") {
        for r in t.rows.iter().filter(|r| r.len() >= 8) {
            let key = if r[0] == "fastpath" {
                "fastpath_pkts_per_sec"
            } else {
                "classic_pkts_per_sec"
            };
            if let Ok(mpps) = r[5].parse::<f64>() {
                fields.push(format!("\"{key}\": {:.0}", mpps * 1e6));
            }
        }
    }
    if let Some(s) = find(results, "offload_scale") {
        let metric = |name: &str| -> Option<String> {
            s.rows
                .iter()
                .find(|r| r.len() >= 2 && r[0] == name)
                .map(|r| json_value(r[1].trim_end_matches('x')))
        };
        if let Some(v) = metric("offload_hit_rate%") {
            fields.push(format!("\"offload_hit_rate_pct\": {v}"));
        }
        if let Some(v) = metric("flows_replayed") {
            fields.push(format!("\"offload_flows_replayed\": {v}"));
        }
        if let Some(v) = metric("wire_pkts") {
            fields.push(format!("\"offload_wire_pkts\": {v}"));
        }
    }
    if let Some(s) = find(results, "soak_fleet") {
        let metric = |name: &str| -> Option<String> {
            s.rows
                .iter()
                .find(|r| r.len() >= 2 && r[0] == name)
                .map(|r| json_value(&r[1]))
        };
        if let Some(v) = metric("flows_tracked") {
            fields.push(format!("\"soak_flows_tracked\": {v}"));
        }
        if let Some(v) = metric("max_blackout_ms") {
            fields.push(format!("\"soak_max_blackout_ms\": {v}"));
        }
    }
    // End-to-end delivery p99 from whichever experiment reported the
    // pulse plane first — the trajectory's latency headline.
    if let Some(p99) = results
        .iter()
        .filter(|r| r.name.ends_with("_latency"))
        .flat_map(|r| r.rows.iter())
        .find(|row| row.len() >= 4 && row[0] == "delivery")
        .map(|row| row[3].clone())
    {
        fields.push(format!("\"p99_delivery_ns\": {}", json_value(&p99)));
    }
    format!("{{{}}}\n", fields.join(", "))
}

/// Append this run's [`render_trajectory_record`] line to
/// `trajectory.jsonl` in the output directory, returning the path.
pub fn append_trajectory(cfg: &ExpConfig, results: &[FigureResult]) -> std::io::Result<PathBuf> {
    use std::io::Write;
    std::fs::create_dir_all(&cfg.out_dir)?;
    let path = cfg.out_dir.join("trajectory.jsonl");
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)?;
    f.write_all(render_trajectory_record(cfg, results).as_bytes())?;
    Ok(path)
}

/// Write `BENCH_summary.json` into the run's output directory, returning
/// the path written.
pub fn write_bench_summary(cfg: &ExpConfig, results: &[FigureResult]) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(&cfg.out_dir)?;
    let path = cfg.out_dir.join("BENCH_summary.json");
    std::fs::write(&path, render_bench_summary(cfg, results))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Scale;

    fn fig(name: &str, headers: &[&str], rows: Vec<Vec<String>>) -> FigureResult {
        FigureResult {
            name: name.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows,
            notes: vec![],
        }
    }

    #[test]
    fn every_table_appears_once_with_headers_rows_and_notes() {
        let cfg = ExpConfig::new(Scale::smoke());
        let empty = render_bench_summary(&cfg, &[]);
        assert!(empty.contains("\"schema\": \"scap-bench-summary/2\""));
        assert!(empty.contains("\"clock\": \"virtual\""));
        assert!(empty.contains("\"scale\": \"smoke\""));
        assert!(empty.contains("\"seed\": 42"));
        assert!(empty.contains("\"tables\": {}"));

        let mut noted = fig(
            "store_archive",
            &["counter", "value"],
            vec![
                vec!["verify clean".into(), "true".into()],
                vec!["index query 'tcp and port 80' hits".into(), "12".into()],
            ],
        );
        noted.notes = vec!["a \"quoted\" note".into(), "second".into()];
        let results = vec![
            fig(
                "fig10b_max_lossfree_rate",
                &["workers", "max_lossfree_gbps"],
                vec![
                    vec!["1".into(), "1.25".into()],
                    vec!["8".into(), "5.50".into()],
                ],
            ),
            noted,
            fig("faults_timeline", &["t_ms", "event"], vec![]),
        ];
        let full = render_bench_summary(&cfg, &results);
        assert!(full.contains(
            "\"fig10b_max_lossfree_rate\": {\"headers\": [\"workers\", \
             \"max_lossfree_gbps\"], \"rows\": [[1, 1.25], [8, 5.50]], \"notes\": []}"
        ));
        assert!(full.contains(
            "\"store_archive\": {\"headers\": [\"counter\", \"value\"], \"rows\": \
             [[\"verify clean\", \"true\"], [\"index query 'tcp and port 80' hits\", 12]], \
             \"notes\": [\"a \\\"quoted\\\" note\", \"second\"]}"
        ));
        assert!(full.contains(
            "\"faults_timeline\": {\"headers\": [\"t_ms\", \"event\"], \"rows\": [], \
             \"notes\": []}"
        ));
        // Run order, each exactly once.
        let at = |name: &str| {
            let key = format!("\n    \"{name}\": {{");
            assert_eq!(full.matches(&key).count(), 1, "{name}");
            full.find(&key).unwrap()
        };
        assert!(at("fig10b_max_lossfree_rate") < at("store_archive"));
        assert!(at("store_archive") < at("faults_timeline"));
        assert_eq!(full.matches("\"headers\"").count(), results.len());
    }

    #[test]
    fn escaping_and_non_numeric_cells() {
        assert_eq!(json_value("3.25"), "3.25");
        assert_eq!(json_value("nan"), "\"nan\"");
        assert_eq!(json_value("a\"b"), "\"a\\\"b\"");
    }

    #[test]
    fn trajectory_record_carries_throughput_and_stamp() {
        let cfg = ExpConfig::new(Scale::smoke());
        let results = vec![
            fig(
                "fastpath_throughput",
                &[
                    "path",
                    "burst",
                    "wire_pkts",
                    "concurrent_flows",
                    "cycles/pkt",
                    "Mpkt/s",
                    "speedup",
                    "induced_drops",
                ],
                vec![vec![
                    "fastpath".into(),
                    "64".into(),
                    "2097152".into(),
                    "1048576".into(),
                    "549.6".into(),
                    "29.11".into(),
                    "1.80".into(),
                    "3232".into(),
                ]],
            ),
            fig(
                "offload_scale",
                &["metric", "value"],
                vec![
                    vec!["offload_hit_rate%".into(), "52.2".into()],
                    vec!["flows_replayed".into(), "10065".into()],
                    vec!["wire_pkts".into(), "264210".into()],
                ],
            ),
            // The soak table has no throughput row: `perf` measures that.
            fig(
                "soak_fleet",
                &["metric", "value"],
                vec![
                    vec!["flows_tracked".into(), "20130".into()],
                    vec!["max_blackout_ms".into(), "41.00".into()],
                ],
            ),
            fig(
                "fastpath_latency",
                &["stage", "count", "p50_ns", "p99_ns"],
                vec![
                    vec![
                        "kernel_dispatch".into(),
                        "2097152".into(),
                        "25500".into(),
                        "50600".into(),
                    ],
                    vec![
                        "delivery".into(),
                        "2097152".into(),
                        "25700".into(),
                        "50900".into(),
                    ],
                ],
            ),
            fig(
                "soak_latency",
                &["stage", "count", "p50_ns", "p99_ns"],
                vec![vec![
                    "delivery".into(),
                    "884000".into(),
                    "110000".into(),
                    "420000".into(),
                ]],
            ),
        ];
        let line = render_trajectory_record(&cfg, &results);
        assert!(line.ends_with("}\n"));
        assert!(line.contains("\"soak_flows_tracked\": 20130"));
        assert!(line.contains("\"soak_max_blackout_ms\": 41.00"));
        assert!(!line.contains("soak_pkts_per_sec"));
        // The first delivery row's p99 is the latency headline; a run
        // with no latency table has none.
        assert!(line.contains("\"p99_delivery_ns\": 50900"));
        assert!(!render_trajectory_record(&cfg, &[]).contains("p99_delivery_ns"));
        assert!(line.contains("\"fastpath_pkts_per_sec\": 29110000"));
        assert!(line.contains("\"offload_hit_rate_pct\": 52.2"));
        assert!(line.contains("\"offload_flows_replayed\": 10065"));
        assert!(line.contains("\"git_sha\": \""));
        assert!(line.contains("\"scale\": \"smoke\""));
        // Date must render as YYYY-MM-DD.
        let date = line.split("\"date\": \"").nth(1).unwrap();
        let date = &date[..10];
        assert_eq!(date.as_bytes()[4], b'-');
        assert_eq!(date.as_bytes()[7], b'-');
    }

    #[test]
    fn civil_from_days_known_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1));
    }
}
