//! `/proc` readers: process and per-thread CPU time, peak resident set,
//! and host steal time. Parsing is split from file access so the
//! parsers are tested on fixture strings.

use std::collections::BTreeMap;

/// Kernel clock ticks per second for the `utime`/`stime` fields. Linux
/// fixes `USER_HZ` at 100 on every architecture this repo builds for;
/// reading it properly needs `sysconf`, which needs a libc binding the
/// offline container does not have.
const TICKS_PER_SECOND: f64 = 100.0;

/// `(comm, utime + stime in ticks)` from one `/proc/<pid>/stat` line.
/// The command name is bracketed by the first `(` and the *last* `)`,
/// because it may itself contain spaces and parentheses.
pub fn parse_stat(line: &str) -> Option<(&str, u64)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let comm = line.get(open + 1..close)?;
    // After the name: state is field 3, utime field 14, stime field 15.
    let mut fields = line.get(close + 1..)?.split_ascii_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((comm, utime + stime))
}

/// A `kB` field of `/proc/<pid>/status` (for example `VmHWM`), in kB.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// `(steal, total)` ticks from the aggregate `cpu` line of `/proc/stat`.
pub fn parse_host_cpu(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_ascii_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user/nice, so it is left out.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// Which part of the process a thread belongs to, by its name.
pub fn thread_role(comm: &str) -> &'static str {
    // The kernel truncates names to 15 bytes: `drec-serve-worker-0`
    // reads back as `drec-serve-work`.
    if comm.starts_with("drec-serve-work") || comm.starts_with("drec-sched-cpu") {
        "worker"
    } else if comm.starts_with("drec-par-") {
        "par"
    } else if comm.starts_with("drec-serve-pref") {
        "prefetch"
    } else if comm.starts_with(UPDATER_THREAD) {
        "updater"
    } else if comm.starts_with("perf_bench") {
        "loadgen"
    } else {
        "other"
    }
}

/// Name the benchmark gives its updater thread.
pub const UPDATER_THREAD: &str = "perf-updater";

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// User plus system CPU seconds this process has used so far.
pub fn process_cpu_seconds() -> f64 {
    parse_stat(&read("/proc/self/stat")).map_or(0.0, |(_, ticks)| ticks as f64 / TICKS_PER_SECOND)
}

/// CPU seconds used so far by the live threads of each role.
pub fn thread_cpu_seconds() -> BTreeMap<&'static str, f64> {
    let mut by_role = BTreeMap::new();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return by_role;
    };
    for task in tasks.flatten() {
        let stat = read(&format!("{}/stat", task.path().display()));
        if let Some((comm, ticks)) = parse_stat(&stat) {
            *by_role.entry(thread_role(comm)).or_insert(0.0) += ticks as f64 / TICKS_PER_SECOND;
        }
    }
    by_role
}

/// Peak resident set size of this process, MB.
pub fn peak_rss_mb() -> f64 {
    parse_status_kb(&read("/proc/self/status"), "VmHWM").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// `(steal, total)` host CPU ticks so far.
pub fn host_cpu() -> (u64, u64) {
    parse_host_cpu(&read("/proc/stat")).unwrap_or((0, 0))
}

/// Share of host CPU time stolen by the hypervisor between two
/// [`host_cpu`] readings, percent.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 / total as f64 * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (drec-serve-work) S 1 4242 4242 0 -1 4194368 1234 0 0 0 \
                        731 52 0 0 20 0 6 0 123456 987654321 2345 18446744073709551615 \
                        1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";

    #[test]
    fn stat_line_yields_name_and_cpu_ticks() {
        assert_eq!(parse_stat(STAT), Some(("drec-serve-work", 731 + 52)));
    }

    #[test]
    fn stat_name_may_contain_spaces_and_parentheses() {
        let line = STAT.replace("(drec-serve-work)", "(a (b) c)");
        assert_eq!(parse_stat(&line), Some(("a (b) c", 783)));
        assert_eq!(parse_stat("4242 (truncated) S 1 2"), None);
        assert_eq!(parse_stat(""), None);
    }

    #[test]
    fn status_field_is_read_in_kb() {
        let status = "Name:\tperf_bench\nVmPeak:\t  900000 kB\nVmHWM:\t  123456 kB\nThreads:\t6\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(123_456));
        assert_eq!(parse_status_kb(status, "VmRSS"), None);
        // `Vm` alone must not match `VmPeak`.
        assert_eq!(parse_status_kb(status, "Vm"), None);
    }

    #[test]
    fn host_cpu_line_gives_steal_and_total() {
        let stat = "cpu  100 0 50 800 10 0 5 35 7 0\ncpu0 50 0 25 400 5 0 2 17 3 0\nintr 1\n";
        assert_eq!(parse_host_cpu(stat), Some((35, 1000)));
        assert_eq!(steal_pct((35, 1000), (55, 1100)), 20.0);
        assert_eq!(steal_pct((35, 1000), (35, 1000)), 0.0);
        assert_eq!(parse_host_cpu("cpu0 1 2 3\n"), None);
    }

    #[test]
    fn threads_are_grouped_by_truncated_name() {
        assert_eq!(thread_role("drec-serve-work"), "worker");
        assert_eq!(thread_role("drec-sched-cpu-"), "worker");
        assert_eq!(thread_role("drec-par-1"), "par");
        assert_eq!(thread_role("drec-serve-pref"), "prefetch");
        assert_eq!(thread_role("perf-updater"), "updater");
        assert_eq!(thread_role("perf_bench"), "loadgen");
        assert_eq!(thread_role("drec-serve-supe"), "other");
    }
}
