//! Per-thread counters read from `/proc/<pid>/task/*`, from outside the
//! measured process.
//!
//! Every figure here is something the kernel keeps for any thread: CPU
//! time (`schedstat`, nanoseconds) and context switches (`status`):
//! voluntary ones, one per blocking wake-up, and involuntary ones, one per
//! preemption. None needs a PMU or the program's cooperation.
//!
//! The per-thread `io` file is not used: its `syscr`/`syscw` count only
//! VFS reads and writes, and the server's sockets go through
//! `recv`/`send`, so they stay at zero however many requests it serves.

use std::collections::BTreeMap;
use std::path::Path;

/// One thread's counters at one instant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadCounters {
    /// Thread name (`comm`).
    pub name: String,
    /// Nanoseconds spent running on a CPU.
    pub run_ns: u64,
    /// Voluntary context switches (the thread blocked and was woken).
    pub wakeups: u64,
    /// Involuntary context switches (the thread was preempted).
    pub preemptions: u64,
}

/// Thread id → counters, for one process.
pub type Snapshot = BTreeMap<u32, ThreadCounters>;

/// First field of a `schedstat` file: time spent on the CPU in ns.
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// The leading number of a `Key:\tvalue [kB]` line in a `status` file.
pub fn parse_status_field(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Read one thread's counters from its `/proc/<pid>/task/<tid>` directory.
fn read_thread(dir: &Path) -> Option<ThreadCounters> {
    let read = |f: &str| std::fs::read_to_string(dir.join(f)).ok();
    let status = read("status")?;
    Some(ThreadCounters {
        name: read("comm")?.trim_end().to_string(),
        run_ns: parse_schedstat(&read("schedstat")?)?,
        wakeups: parse_status_field(&status, "voluntary_ctxt_switches")?,
        preemptions: parse_status_field(&status, "nonvoluntary_ctxt_switches")?,
    })
}

/// Counters of every live thread of `pid`. A thread that exits while
/// being read is skipped.
pub fn snapshot(pid: u32) -> std::io::Result<Snapshot> {
    let mut out = Snapshot::new();
    for entry in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        let entry = entry?;
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        if let Some(c) = read_thread(&entry.path()) {
            out.insert(tid, c);
        }
    }
    Ok(out)
}

/// Per-thread growth from `before` to `after`, for threads present in
/// both (a thread's counters never shrink).
pub fn delta(before: &Snapshot, after: &Snapshot) -> Vec<ThreadCounters> {
    after
        .iter()
        .filter_map(|(tid, a)| {
            let b = before.get(tid)?;
            Some(ThreadCounters {
                name: a.name.clone(),
                run_ns: a.run_ns.saturating_sub(b.run_ns),
                wakeups: a.wakeups.saturating_sub(b.wakeups),
                preemptions: a.preemptions.saturating_sub(b.preemptions),
            })
        })
        .collect()
}

/// Sum of the deltas whose thread name starts with any of `prefixes`
/// (all threads when `prefixes` is empty).
pub fn sum_named(deltas: &[ThreadCounters], prefixes: &[&str]) -> ThreadCounters {
    let mut total = ThreadCounters { name: prefixes.join("+"), ..ThreadCounters::default() };
    for d in deltas {
        if prefixes.is_empty() || prefixes.iter().any(|p| d.name.starts_with(p)) {
            total.run_ns += d.run_ns;
            total.wakeups += d.wakeups;
            total.preemptions += d.preemptions;
        }
    }
    total
}

/// Peak resident set (`VmHWM`) of `pid` in KiB.
pub fn peak_rss_kib(pid: u32) -> Option<u64> {
    parse_status_field(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?, "VmHWM")
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\taon-worker-0\nVmHWM:\t    3176 kB\nVmRSS:\t 2000 kB\n\
                          voluntary_ctxt_switches:\t812\nnonvoluntary_ctxt_switches:\t9\n";

    #[test]
    fn parses_schedstat_run_time() {
        assert_eq!(parse_schedstat("3318352 1512696 5\n"), Some(3_318_352));
        assert_eq!(parse_schedstat(""), None);
    }

    #[test]
    fn parses_status_fields_by_exact_key() {
        assert_eq!(parse_status_field(STATUS, "VmHWM"), Some(3176));
        assert_eq!(parse_status_field(STATUS, "voluntary_ctxt_switches"), Some(812));
        // The involuntary line must not satisfy the voluntary key.
        assert_eq!(parse_status_field(STATUS, "nonvoluntary_ctxt_switches"), Some(9));
        assert_eq!(parse_status_field(STATUS, "VmPeak"), None);
    }

    #[test]
    fn delta_keeps_threads_seen_twice_and_sums_by_name() {
        let t = |name: &str, run_ns, wakeups, preemptions| ThreadCounters {
            name: name.to_string(),
            run_ns,
            wakeups,
            preemptions,
        };
        let before: Snapshot =
            [(1, t("aon-worker-0", 10, 1, 5)), (2, t("aon-accept", 100, 3, 0))].into();
        let after: Snapshot = [
            (1, t("aon-worker-0", 25, 4, 9)),
            (2, t("aon-accept", 130, 5, 0)),
            (3, t("aon-worker-1", 7, 7, 7)),
        ]
        .into();
        let d = delta(&before, &after);
        assert_eq!(d.len(), 2);
        let w = sum_named(&d, &["aon-worker-"]);
        assert_eq!((w.run_ns, w.wakeups, w.preemptions), (15, 3, 4));
        assert_eq!(sum_named(&d, &[]).run_ns, 45);
    }

    #[test]
    fn reads_own_process() {
        // Burn some CPU first: run time is accounted at scheduler ticks.
        let t = std::time::Instant::now();
        while t.elapsed() < std::time::Duration::from_millis(20) {
            std::hint::black_box(t.elapsed());
        }
        let own = snapshot(std::process::id()).expect("own task dir");
        assert!(!own.is_empty());
        assert!(own.values().any(|t| t.run_ns > 0));
        assert!(peak_rss_kib(std::process::id()).expect("own status") > 0);
    }
}
