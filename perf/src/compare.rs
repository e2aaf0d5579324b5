//! `perf compare <a.json> <b.json>`: two result files of the same
//! benchmark, `a` the parent and `b` the change, judged per workload ×
//! metric by each metric's own bound and the rule of choosing-metrics
//! §6 and §8. A sample is the value one run reported; a file made with
//! `--repeat N` holds N of them per workload.

use crate::json::{self, Value};
use crate::metrics::Better;
use crate::stats::{iqr_share, median, quartiles};
use std::collections::BTreeMap;

/// How one metric of one workload moved from `a` to `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b`'s median is no worse than `a`'s by more than the bound, and
    /// the runs are steady enough to say so.
    Unchanged,
    /// The run-to-run spread is wider than the bound: the runs cannot
    /// show that the metric stayed within it.
    Unresolved,
    /// `b`'s median is worse than `a`'s by more than the bound.
    Regressed,
    /// `b` wins at least nine tenths of at least ten pairs and the
    /// medians differ by more than `a`'s own interquartile distance.
    Improved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
        }
    }
}

/// Judge samples `a` (parent) against `b` (change).
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    // Oriented so that larger means worse.
    let cost = |x: f64| match better {
        Better::Lower => x,
        Better::Higher => -x,
    };
    let (ma, mb) = (median(a), median(b));
    let worse_by = if ma == 0.0 {
        0.0
    } else {
        (cost(mb) - cost(ma)) / ma.abs()
    };

    let pairs = a.len().min(b.len());
    let wins = a
        .iter()
        .zip(b)
        .filter(|(x, y)| cost(**y) < cost(**x))
        .count();
    let (q1, _, q3) = quartiles(a);
    let gain = cost(ma) - cost(mb);
    if pairs >= 10 && wins * 10 >= pairs * 9 && gain > q3 - q1 {
        return Verdict::Improved;
    }
    let every_b_better = b.iter().all(|y| a.iter().all(|x| cost(*y) < cost(*x)));
    if iqr_share(a).max(iqr_share(b)) > bound && !every_b_better {
        return Verdict::Unresolved;
    }
    if worse_by > bound {
        return Verdict::Regressed;
    }
    Verdict::Unchanged
}

/// One metric of one workload, as read back from a result file: its
/// definition and the value of every run in the file.
#[derive(Debug, Clone, PartialEq)]
struct Recorded {
    unit: String,
    better: Better,
    bound: f64,
    samples: Vec<f64>,
}

/// `(workload, traced, metric)` → record, in sorted order.
type Records = BTreeMap<(String, bool, String), Recorded>;

fn field<'a>(v: &'a Value, key: &str, what: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("{what} has no `{key}`"))
}

fn read_run(run: &Value, into: &mut Records) -> Result<(), String> {
    let workload = field(run, "workload", "run")?
        .as_str()
        .ok_or("`workload` is not a string")?;
    let traced = field(run, "traced", "run")? == &Value::Bool(true);
    let metrics = field(run, "metrics", "run")?
        .as_array()
        .ok_or("`metrics` is not an array")?;
    for m in metrics {
        let text = |key: &str| -> Result<&str, String> {
            field(m, key, "metric")?
                .as_str()
                .ok_or_else(|| format!("metric `{key}` is not a string"))
        };
        let name = text("name")?;
        let number = |key: &str| -> Result<f64, String> {
            field(m, key, name)?
                .as_f64()
                .ok_or_else(|| format!("`{key}` of {name} is not a number"))
        };
        let def = Recorded {
            unit: text("unit")?.to_string(),
            better: Better::parse(text("better")?)
                .ok_or_else(|| format!("`better` of {name} is neither higher nor lower"))?,
            bound: number("bound")?,
            samples: Vec::new(),
        };
        let rec = into
            .entry((workload.to_string(), traced, name.to_string()))
            .or_insert_with(|| def.clone());
        if (&rec.unit, rec.better, rec.bound) != (&def.unit, def.better, def.bound) {
            return Err(format!(
                "runs of {workload} disagree on the unit, direction or bound of {name}"
            ));
        }
        rec.samples.push(number("value")?);
    }
    Ok(())
}

/// Read a result file: one run record, or `{"runs": [...]}`.
fn read_results(text: &str) -> Result<Records, String> {
    let doc = json::parse(text)?;
    let mut records = Records::new();
    match doc.get("runs") {
        Some(runs) => {
            for run in runs.as_array().ok_or("`runs` is not an array")? {
                read_run(run, &mut records)?;
            }
        }
        None => read_run(&doc, &mut records)?,
    }
    Ok(records)
}

/// Compare two result documents; returns the report and whether any
/// metric regressed.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let a = read_results(a_text).map_err(|e| format!("first file: {e}"))?;
    let b = read_results(b_text).map_err(|e| format!("second file: {e}"))?;
    let mut report = String::new();
    let mut regressed = false;
    let mut judged = 0;
    for (key, ra) in &a {
        let Some(rb) = b.get(key) else { continue };
        // Per-layer metrics carry no bound and are not judged.
        if ra.bound <= 0.0 {
            continue;
        }
        if (rb.better, rb.bound, &rb.unit) != (ra.better, ra.bound, &ra.unit) {
            return Err(format!(
                "{} {}: the two files disagree on unit, direction or bound",
                key.0, key.2
            ));
        }
        let v = verdict(&ra.samples, &rb.samples, ra.better, ra.bound);
        regressed |= v == Verdict::Regressed;
        judged += 1;
        let side = |s: &[f64]| {
            let (q1, med, q3) = quartiles(s);
            format!("{med:.4} [{q1:.4}, {q3:.4}] n={}", s.len())
        };
        let (ma, mb) = (median(&ra.samples), median(&rb.samples));
        let change = if ma == 0.0 {
            0.0
        } else {
            (mb - ma) / ma.abs() * 100.0
        };
        report.push_str(&format!(
            "{:<15} {:<16} {:<10} a {}  b {}  {} change {:+.2}% (better: {}, bound {:.0}%)\n",
            key.0,
            key.2,
            v.as_str(),
            side(&ra.samples),
            side(&rb.samples),
            ra.unit,
            change,
            ra.better.as_str(),
            ra.bound * 100.0
        ));
    }
    if judged == 0 {
        return Err("the two files share no bounded metric of the same workload".into());
    }
    Ok((report, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, n: usize, step: f64) -> Vec<f64> {
        (0..n)
            .map(|i| center + (i as f64 - (n as f64 - 1.0) / 2.0) * step)
            .collect()
    }

    #[test]
    fn within_the_bound_and_steady_is_unchanged() {
        let a = around(100.0, 8, 0.2);
        let b = around(104.0, 8, 0.2);
        assert_eq!(verdict(&a, &b, Better::Lower, 0.10), Verdict::Unchanged);
        assert_eq!(verdict(&a, &b, Better::Higher, 0.10), Verdict::Unchanged);
    }

    #[test]
    fn worse_by_more_than_the_bound_is_regressed_in_the_metric_s_direction() {
        let a = around(100.0, 8, 0.2);
        let b = around(115.0, 8, 0.2);
        assert_eq!(verdict(&a, &b, Better::Lower, 0.10), Verdict::Regressed);
        // The same numbers are a gain for a higher-is-better metric, but
        // eight pairs are too few to call it one.
        assert_eq!(verdict(&a, &b, Better::Higher, 0.10), Verdict::Unchanged);
        assert_eq!(verdict(&b, &a, Better::Higher, 0.10), Verdict::Regressed);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better() {
        let noisy = around(100.0, 8, 5.0);
        assert_eq!(
            verdict(&noisy, &around(101.0, 8, 5.0), Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Every run of b below every run of a: no regression to resolve.
        assert_eq!(
            verdict(&noisy, &around(50.0, 8, 5.0), Better::Lower, 0.10),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_gain_needs_ten_pairs_nine_tenths_won_and_more_than_the_spread() {
        let a = around(100.0, 10, 0.5);
        assert_eq!(
            verdict(&a, &around(90.0, 10, 0.5), Better::Lower, 0.10),
            Verdict::Improved
        );
        // Better by less than a's own interquartile distance.
        assert_eq!(
            verdict(&a, &around(99.0, 10, 0.5), Better::Lower, 0.10),
            Verdict::Unchanged
        );
        // Two of ten pairs lost.
        let mut b = around(90.0, 10, 0.5);
        b[0] = 120.0;
        b[1] = 120.0;
        assert_ne!(verdict(&a, &b, Better::Lower, 0.10), Verdict::Improved);
        // Nine pairs only.
        assert_eq!(
            verdict(&a[..9], &around(90.0, 9, 0.5), Better::Lower, 0.10),
            Verdict::Unchanged
        );
    }

    /// A result file with one run of workload `w` per value.
    fn file(pps: &[f64]) -> String {
        let runs: Vec<String> = pps
            .iter()
            .map(|v| {
                format!(
                    "{{\"workload\": \"w\", \"traced\": false, \"metrics\": [\
                     {{\"name\": \"pkts_per_s\", \"unit\": \"1/s\", \"better\": \"higher\", \
                     \"bound\": 0.1, \"value\": {}, \"samples\": [1, 2]}},\
                     {{\"name\": \"some.layer\", \"unit\": \"ns\", \"better\": \"lower\", \
                     \"bound\": 0, \"value\": 1, \"samples\": [1]}}]}}",
                    json::number(*v)
                )
            })
            .collect();
        format!("{{\"runs\": [{}]}}", runs.join(", "))
    }

    #[test]
    fn reports_each_bounded_metric_and_flags_regressions() {
        let a = file(&around(1000.0, 8, 1.0));
        let (report, regressed) = compare(&a, &file(&around(1010.0, 8, 1.0))).unwrap();
        assert!(!regressed);
        assert!(report.contains("pkts_per_s") && report.contains("unchanged"));
        assert!(!report.contains("some.layer"));
        let (report, regressed) = compare(&a, &file(&around(800.0, 8, 1.0))).unwrap();
        assert!(regressed && report.contains("regressed"));
        // One run a side is judged by the bound alone.
        let (report, regressed) = compare(&file(&[1000.0]), &file(&[950.0])).unwrap();
        assert!(!regressed && report.contains("n=1"));
        assert!(compare(&file(&[1000.0]), &file(&[850.0])).unwrap().1);
        assert!(compare(&a, "{\"runs\": []}").is_err());
        assert!(compare("not json", &a).is_err());
    }
}
