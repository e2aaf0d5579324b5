//! Process CPU time and memory, read from `/proc/self`.

use std::time::Instant;

/// Kernel clock ticks per second in `/proc/<pid>/stat`. `USER_HZ` is
/// 100 on every Linux ABI this benchmark runs on; without libc there is
/// no `sysconf` to ask.
const USER_HZ: u64 = 100;

/// User + system CPU time of the whole process (all threads, exited
/// ones included) from the text of `/proc/self/stat`, in nanoseconds.
pub fn parse_stat_cpu_ns(stat: &str) -> Option<u64> {
    // The command name (field 2) is parenthesised and may itself hold
    // spaces and parentheses: fields are counted from the last ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * (1_000_000_000 / USER_HZ))
}

/// A `kB` field of `/proc/self/status` (such as `VmHWM` or `VmRSS`),
/// in bytes.
pub fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    let line = status
        .lines()
        .find(|l| l.strip_prefix(field).is_some_and(|r| r.starts_with(':')))?;
    let mut parts = line[field.len() + 1..].split_ascii_whitespace();
    let kb: u64 = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(kb * 1024)
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// Process CPU time so far, in nanoseconds (10 ms granularity).
pub fn cpu_ns() -> u64 {
    parse_stat_cpu_ns(&read("/proc/self/stat")).expect("utime/stime in /proc/self/stat")
}

/// Peak resident set size of the process so far, in bytes.
pub fn peak_rss_bytes() -> u64 {
    parse_status_kb(&read("/proc/self/status"), "VmHWM").expect("VmHWM in /proc/self/status")
}

/// Start the peak resident set size over at the current one, so that
/// the next [`peak_rss_bytes`] is the peak since this call. `false`
/// where the kernel or a sandbox does not allow it (`clear_refs`,
/// Linux 4.0); the peak then stays that of the whole process.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Current resident set size, in bytes.
pub fn rss_bytes() -> u64 {
    parse_status_kb(&read("/proc/self/status"), "VmRSS").expect("VmRSS in /proc/self/status")
}

/// Accumulates wall and process-CPU time over the timed regions of one
/// round; everything between two `time` calls is outside the clock.
#[derive(Debug, Default, Clone, Copy)]
pub struct Stopwatch {
    /// Wall time inside timed regions.
    pub wall_ns: u64,
    /// Process CPU time (all threads) inside timed regions.
    pub cpu_ns: u64,
}

impl Stopwatch {
    /// Run `f` on the clock.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let cpu0 = cpu_ns();
        let t0 = Instant::now();
        let r = f();
        self.wall_ns += t0.elapsed().as_nanos() as u64;
        self.cpu_ns += cpu_ns() - cpu0;
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_time_survives_hostile_command_names() {
        let stat = "4242 (perf) R) x) S 1 4242 4242 0 -1 4194304 1039 0 0 0 \
                    731 19 0 0 20 0 3 0 100 1000 200 18446744073709551615";
        // utime 731 + stime 19 ticks of 10 ms.
        assert_eq!(parse_stat_cpu_ns(stat), Some(750 * 10_000_000));
        assert_eq!(parse_stat_cpu_ns("1 (x) S 1 2"), None);
        assert_eq!(parse_stat_cpu_ns("no parenthesis"), None);
    }

    #[test]
    fn status_fields_are_matched_whole_and_in_kb() {
        let status = "Name:\tperf\nVmPeak:\t  999 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 12000 kB\n\
                      VmHWMX:\t 1 kB\nThreads:\t2\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(12345 * 1024));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(12000 * 1024));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        // A field without the kB unit is not a memory size.
        assert_eq!(parse_status_kb(status, "Threads"), None);
    }

    #[test]
    fn live_proc_files_parse() {
        assert!(peak_rss_bytes() >= rss_bytes() && rss_bytes() > 0);
        if reset_peak_rss() {
            // Only pages touched since the reset can separate the two.
            assert!(peak_rss_bytes() <= rss_bytes() + (64 << 20));
        }
        let _ = cpu_ns();
    }
}
