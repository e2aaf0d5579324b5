//! The benchmark's metrics by name: four end-to-end metrics with their
//! regression bounds, and the per-layer table. `BENCHMARK.json` at the
//! repository root lists the same names; a unit test keeps them equal.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// Parse [`Better::as_str`]'s output.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }
}

/// A metric's name, unit and good direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name, as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit of every value reported under the name.
    pub unit: &'static str,
    /// Good direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression (end-to-end only; 0 for
    /// per-layer metrics, which have no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    e2e(name, unit, better, 0.0)
}

/// Wire packets completed per wall second of timed rounds.
pub const PKTS_PER_S: &str = "pkts_per_s";
/// Process CPU time (all threads) per wire packet of timed rounds.
pub const CPU_NS_PER_PKT: &str = "cpu_ns_per_pkt";
/// Peak resident set (`VmHWM`) of a timed round, median over the rounds.
pub const PEAK_RSS_MBYTES: &str = "peak_rss_mbytes";
/// Trace generation, construction and preload before the first round.
pub const SETUP_S: &str = "setup_s";

/// The end-to-end metrics, reported for every workload by the untraced
/// run. The bounds are what this machine can resolve, not what one would
/// wish for: `perf/README.md` gives the measured run-to-run spread next
/// to each.
pub const END_TO_END: [MetricDef; 4] = [
    e2e(PKTS_PER_S, "1/s", Better::Higher, 0.25),
    e2e(CPU_NS_PER_PKT, "ns", Better::Lower, 0.25),
    e2e(PEAK_RSS_MBYTES, "MB", Better::Lower, 0.15),
    e2e(SETUP_S, "s", Better::Lower, 0.25),
];

use Better::{Higher, Lower};

/// The per-layer metrics, reported for every workload by the traced
/// run. A layer that is not on a workload's path, or has no input in
/// its trace, did no work there and reads 0.
pub const PER_LAYER: [MetricDef; 51] = [
    layer("wire.parse_frame.ns_per_pkt", "ns", Lower),
    layer("filter.matches_frame.ns_per_pkt", "ns", Lower),
    layer("nic.rss_queue_for.ns_per_pkt", "ns", Lower),
    layer("nic.receive.ns_per_pkt", "ns", Lower),
    layer("nic.ring_drops", "count", Lower),
    layer("offload.lookup.ns_per_pkt", "ns", Lower),
    layer("fastpath.hash_burst.ns_per_pkt", "ns", Lower),
    layer("fastpath.burst_fill_permille", "permille", Higher),
    layer("flow.lookup_hit.ns_per_op", "ns", Lower),
    layer("flow.table_bytes_per_entry", "B", Lower),
    layer("core.state_bytes_per_flow", "B", Lower),
    layer("flow.insert.ns_per_op", "ns", Lower),
    layer("flow.expire_inactive.ns_per_op", "ns", Lower),
    layer("flow.evict_tiered.ns_per_op", "ns", Lower),
    layer("reassembly.on_segment.ns_per_pkt", "ns", Lower),
    layer("memory.append.ns_per_pkt", "ns", Lower),
    layer("memory.append.mbytes_per_s", "MB/s", Higher),
    layer("memory.arena_failures", "count", Lower),
    layer("core.nic_receive.ns_per_pkt", "ns", Lower),
    layer("core.kernel_poll.ns_per_pkt", "ns", Lower),
    layer("core.poll_burst.ns_per_pkt", "ns", Lower),
    layer("core.kernel_timers.ns_per_call", "ns", Lower),
    layer("core.event_drain.ns_per_event", "ns", Lower),
    layer("core.events_per_kpkt", "count", Lower),
    layer("core.drive.batch_p50_us", "us", Lower),
    layer("core.drive.batch_p99_us", "us", Lower),
    layer("core.live.start_capture.ns_per_pkt", "ns", Lower),
    layer("core.live.callback_busy_share_permille", "permille", Higher),
    layer("core.live.events_delivered", "count", Higher),
    layer("core.fleet.offer.ns_per_pkt", "ns", Lower),
    layer("core.fleet.tick.ns_per_call", "ns", Lower),
    layer("core.fleet.finish.ms", "ms", Lower),
    layer("core.fleet.checkpoints_written", "count", Lower),
    layer("core.checkpoint_bytes.ms", "ms", Lower),
    layer("core.checkpoint_image_bytes", "B", Lower),
    layer("core.from_image.ms", "ms", Lower),
    layer("shard.shard_of.ns_per_pkt", "ns", Lower),
    layer("shard.skew_permille", "permille", Lower),
    layer("store.observe.ns_per_event", "ns", Lower),
    layer("store.write_mbytes_per_s", "MB/s", Higher),
    layer("store.finish.ms", "ms", Lower),
    layer("store.bytes_per_delivered_byte", "ratio", Lower),
    layer("core.tenant.on_event.ns_per_event", "ns", Lower),
    layer("flight.emit.ns_per_event", "ns", Lower),
    layer("telemetry.counter_add.ns_per_op", "ns", Lower),
    layer("telemetry.pulse_record.ns_per_op", "ns", Lower),
    layer("patterns.count.mbytes_per_s", "MB/s", Higher),
    layer("trace.campus_gen.ns_per_pkt", "ns", Lower),
    layer("trace.amplify.ns_per_pkt", "ns", Lower),
    layer("layers_sum_share_permille", "permille", Higher),
    layer("trace_overhead_permille", "permille", Lower),
];

/// Look a metric up by name in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::workloads::WORKLOADS;

    fn listed(doc: &Value, key: &str) -> Vec<Value> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no array `{key}`"))
            .to_vec()
    }

    fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("entry without string `{key}`: {v:?}"))
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what
    /// the command prints. They must name the same things.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");

        let workloads: Vec<String> = listed(&doc, "workloads")
            .iter()
            .map(|w| str_of(w, "name").to_string())
            .collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        assert_eq!(workloads, ours);

        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let entries = listed(&doc, key);
            assert_eq!(entries.len(), table.len(), "{key}");
            for (entry, def) in entries.iter().zip(table) {
                assert_eq!(str_of(entry, "name"), def.name);
                assert_eq!(str_of(entry, "unit"), def.unit, "{}", def.name);
                assert_eq!(str_of(entry, "better"), def.better.as_str(), "{}", def.name);
                let bound = entry.get("bound").and_then(Value::as_f64);
                if key == "end_to_end" {
                    assert_eq!(bound, Some(def.bound), "{}", def.name);
                } else {
                    assert_eq!(bound, None, "{}", def.name);
                }
            }
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.0))
            .collect();
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(WORKLOADS.iter().all(|w| w.1.len() <= 200));
    }
}
