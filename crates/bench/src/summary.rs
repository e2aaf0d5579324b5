//! Machine-readable run summary: `BENCH_summary.json`, the one record
//! of a run.
//!
//! The summary is every table of the run ([`FigureResult::to_json`]),
//! keyed by name in run order. `experiments` reads no clock, so the
//! document says `"clock": "virtual"` once for all of it: every number
//! in it is modelled. Measured numbers are `perf`'s (`perf/out/`).

use crate::common::{json_escape, ExpConfig, FigureResult};
use std::path::PathBuf;

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
    use crate::common::{json_value, Scale};

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
}
