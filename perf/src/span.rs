//! Spans recorded from outside the program, around the calls into each
//! layer (choosing-metrics §4): held in memory during the run, summed
//! per name with self time afterwards, written out at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed interval. `parent` is the span that was open when this one
/// started (0 = none); ids start at 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Identifier, unique within a run.
    pub id: u32,
    /// The enclosing span, 0 at the top level.
    pub parent: u32,
    /// Layer-boundary name (`core.nic_receive`, `store.observe`, …).
    pub name: &'static str,
    /// Timed round the span belongs to.
    pub round: u32,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Σ duration.
    pub total_ns: u64,
    /// Σ (duration − time covered by direct children).
    pub self_ns: u64,
}

/// Records spans when enabled; every call is a cheap no-op when not, so
/// the untraced and the traced run execute the same drive code.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    round: u32,
}

impl Tracer {
    /// A tracer that records (`true`) or ignores (`false`) every span.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            // Reserved up front so that growing the vector is not part
            // of what a traced round measures (untouched pages of the
            // reservation cost nothing).
            spans: Vec::with_capacity(if enabled { 1 << 20 } else { 0 }),
            open: Vec::new(),
            round: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Stamp following spans with this round number.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    /// Open a span under the innermost open one; returns its id (0 when
    /// disabled) for [`Tracer::close`].
    #[inline]
    pub fn open(&mut self, name: &'static str) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(0),
            name,
            round: self.round,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Close the span `id`, which must be the innermost open one.
    #[inline]
    pub fn close(&mut self, id: u32) {
        if id == 0 {
            return;
        }
        let end = self.epoch.elapsed().as_nanos() as u64;
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        self.spans[id as usize - 1].end_ns = end;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as one JSON document.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"round\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}{sep}",
                s.id, s.parent, s.name, s.round, s.start_ns, s.end_ns
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

/// Sum the spans `keep` selects, per name. `spans` is a whole run
/// (ids index into it). A span's self time is its duration minus the
/// part its direct children cover; children of one parent never overlap
/// here (one thread opens and closes them in order), so that part is
/// the sum of their durations.
pub fn totals(spans: &[Span], keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, SpanTotals> {
    let mut child_ns = vec![0u64; spans.len() + 1];
    for s in spans {
        child_ns[s.parent as usize] += s.end_ns - s.start_ns;
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for s in spans.iter().filter(|s| keep(s)) {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns[s.id as usize]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            round: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(1, 0, "offer", 0, 100),
            span(2, 1, "observe", 10, 30),
            span(3, 1, "observe", 40, 70),
            span(4, 3, "seal", 45, 65),
            span(5, 0, "offer", 100, 150),
        ];
        let t = totals(&spans, |_| true);
        assert_eq!(
            t["offer"],
            SpanTotals {
                count: 2,
                total_ns: 150,
                self_ns: 100 - 20 - 30 + 50,
            }
        );
        // The grandchild is charged to `observe`, not to `offer`.
        assert_eq!(
            t["observe"],
            SpanTotals {
                count: 2,
                total_ns: 50,
                self_ns: 20 + (30 - 20),
            }
        );
        assert_eq!(t["seal"].self_ns, 20);
        // Selecting spans does not change what their children cover.
        let first = totals(&spans, |s| s.id == 1);
        assert_eq!(first["offer"].self_ns, 50);
        assert!(!first.contains_key("observe"));
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        t.set_round(3);
        let a = t.open("a");
        let b = t.open("b");
        t.close(b);
        t.close(a);
        let c = t.open("c");
        t.close(c);
        let s = t.spans();
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent, s[1].round),
            (0, a, 0, 3)
        );
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));

        let mut off = Tracer::new(false);
        let id = off.open("a");
        off.close(id);
        assert_eq!(id, 0);
        assert!(off.spans().is_empty());
    }
}
