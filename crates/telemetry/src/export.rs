//! Hand-rolled exporters: JSON-lines (the one machine serialization of
//! a snapshot), an aligned human table, and the sampler's time series
//! as CSV. No serde — the formats are fixed and tiny, and the
//! repository's result writers are all hand-rolled for the same reason.
//!
//! Output ordering is fully deterministic: shards ascending, then the
//! declaration order of [`Metric`]/[`Gauge`]/[`Stage`]. Zero-valued
//! counters and gauges and empty stages are omitted from JSON-lines;
//! the `meta` line gives the shard count.

use crate::registry::Snapshot;
use crate::sampler::Sampler;
use crate::{Gauge, Metric, Stage};

/// Serialize a snapshot as JSON-lines: one `meta` line, then one line
/// per non-zero counter, gauge and non-empty stage histogram.
pub fn to_jsonl(s: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"type\":\"meta\",\"shards\":{}}}\n",
        s.shards.len()
    ));
    for (i, shard) in s.shards.iter().enumerate() {
        for m in Metric::ALL {
            let v = shard.counters[m.idx()];
            if v != 0 {
                out.push_str(&format!(
                    "{{\"type\":\"counter\",\"shard\":{i},\"name\":\"{}\",\"value\":{v}}}\n",
                    m.name()
                ));
            }
        }
        for g in Gauge::ALL {
            let v = shard.gauges[g.idx()];
            if v != 0 {
                out.push_str(&format!(
                    "{{\"type\":\"gauge\",\"shard\":{i},\"name\":\"{}\",\"value\":{v}}}\n",
                    g.name()
                ));
            }
        }
        for st in Stage::ALL {
            let h = &shard.stages[st.idx()];
            if h.count() == 0 {
                continue;
            }
            let buckets: Vec<String> = h.buckets.iter().map(|b| b.to_string()).collect();
            out.push_str(&format!(
                "{{\"type\":\"stage\",\"shard\":{i},\"name\":\"{}\",\"sum\":{},\"buckets\":[{}]}}\n",
                st.name(),
                h.sum,
                buckets.join(",")
            ));
        }
    }
    out
}

/// Render a snapshot as an aligned human-readable table: aggregate
/// counters, worst-shard gauges, and per-stage latency summaries.
pub fn to_table(s: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<26} {:>16}\ncounters ({} shards)\n",
        "telemetry",
        "",
        s.shards.len()
    ));
    for m in Metric::ALL {
        let v = s.total(m);
        if v != 0 {
            out.push_str(&format!("  {:<24} {:>16}\n", m.name(), v));
        }
    }
    out.push_str("gauges (max across shards)\n");
    for g in Gauge::ALL {
        out.push_str(&format!("  {:<24} {:>16}\n", g.name(), s.gauge_max(g)));
    }
    out.push_str(&format!(
        "stages {:<19} {:>12} {:>12} {:>12} {:>12}\n",
        "", "count", "mean", "p50", "p99"
    ));
    for st in Stage::ALL {
        let h = s.stage(st);
        out.push_str(&format!(
            "  {:<24} {:>12} {:>12.0} {:>12} {:>12}\n",
            st.name(),
            h.count(),
            h.mean(),
            h.quantile(0.50),
            h.quantile(0.99)
        ));
    }
    out
}

/// Serialize a sampler's time series as CSV: one column per gauge, one
/// row per sample.
pub fn series_to_csv(sampler: &Sampler) -> String {
    let mut out = String::from("t_ns");
    for g in Gauge::ALL {
        out.push(',');
        out.push_str(g.name());
    }
    out.push('\n');
    for p in sampler.points() {
        out.push_str(&p.t_ns.to_string());
        for v in p.gauges {
            out.push(',');
            out.push_str(&v.to_string());
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::PlainRegistry;

    fn populated() -> Snapshot {
        let r = PlainRegistry::new(3);
        r.add(0, Metric::WirePackets, 1000);
        r.add(0, Metric::WireBytes, 840_000);
        r.add(1, Metric::KernelHashProbes, 42);
        r.add(2, Metric::WorkerEventsHandled, 7);
        r.gauge_set(0, Gauge::GovernorLevel, 3);
        r.gauge_set(2, Gauge::EventBacklog, 19);
        for v in [0u64, 1, 5, 900, 1 << 40] {
            r.record_stage(1, Stage::Kernel, v);
            r.record_stage(2, Stage::Worker, v + 3);
        }
        r.snapshot()
    }

    /// One line per nonzero counter and gauge, with its exact value,
    /// one per non-empty stage, and nothing for the zeros.
    #[test]
    fn jsonl_has_one_exact_line_per_nonzero_value() {
        let snap = populated();
        let text = to_jsonl(&snap);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "{\"type\":\"meta\",\"shards\":3}");
        for (i, shard) in snap.shards.iter().enumerate() {
            for m in Metric::ALL {
                let v = shard.counters[m.idx()];
                let line = format!(
                    "{{\"type\":\"counter\",\"shard\":{i},\"name\":\"{}\",\"value\":{v}}}",
                    m.name()
                );
                assert_eq!(
                    lines.iter().filter(|l| **l == line).count(),
                    usize::from(v != 0)
                );
            }
            for g in Gauge::ALL {
                let v = shard.gauges[g.idx()];
                let line = format!(
                    "{{\"type\":\"gauge\",\"shard\":{i},\"name\":\"{}\",\"value\":{v}}}",
                    g.name()
                );
                assert_eq!(
                    lines.iter().filter(|l| **l == line).count(),
                    usize::from(v != 0)
                );
            }
            for st in Stage::ALL {
                let h = &shard.stages[st.idx()];
                let buckets: Vec<String> = h.buckets.iter().map(u64::to_string).collect();
                let line = format!(
                    "{{\"type\":\"stage\",\"shard\":{i},\"name\":\"{}\",\"sum\":{},\"buckets\":[{}]}}",
                    st.name(),
                    h.sum,
                    buckets.join(",")
                );
                assert_eq!(
                    lines.iter().filter(|l| **l == line).count(),
                    usize::from(h.count() != 0),
                    "{}",
                    st.name()
                );
            }
        }
        // 4 counters + 2 gauges + 2 stages after the meta line.
        assert_eq!(lines.len(), 1 + 4 + 2 + 2, "{text}");
    }

    #[test]
    fn jsonl_of_an_empty_registry_is_the_meta_line() {
        assert_eq!(
            to_jsonl(&PlainRegistry::new(2).snapshot()),
            "{\"type\":\"meta\",\"shards\":2}\n"
        );
    }

    #[test]
    fn table_is_deterministic_and_lists_every_gauge_and_stage() {
        let t = to_table(&populated());
        assert_eq!(t, to_table(&populated()));
        assert!(t.contains("wire_packets"));
        for name in Gauge::ALL
            .iter()
            .map(|g| g.name())
            .chain(Stage::ALL.iter().map(|s| s.name()))
        {
            assert!(t.contains(name), "table missing {name}");
        }
        assert!(t.contains("p99"));
    }

    #[test]
    fn series_csv_shape() {
        let mut s = Sampler::new(5, 16);
        s.record(0, [1; crate::Gauge::COUNT]);
        s.record(5, [2; crate::Gauge::COUNT]);
        let csv = series_to_csv(&s);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("t_ns,ring_fill_permille,"));
        assert!(lines[1].starts_with("0,1,1,"));
        assert!(lines[2].starts_with("5,2,2,"));
    }
}
