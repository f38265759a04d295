//! Order statistics over pooled samples, and the `/proc` readers behind
//! `cpu_ms_per_job`, `peak_rss_mb`, `rt.threads_peak` and the choice of a
//! window's quiet bins.

/// Nearest-rank percentile of an unsorted sample pool (`q` in 0..=1).
/// Repetitions pool their raw samples and take one percentile, never a
/// percentile of percentiles. Empty pool → 0.
pub fn percentile(pool: &[f64], q: f64) -> f64 {
    if pool.is_empty() {
        return 0.0;
    }
    let mut v = pool.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median with the usual mean-of-middle-two for even counts (what rates
/// and set-up times over repetitions report). Empty → 0.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles Python's `statistics.quantiles(v, n=4)` gives (its
/// default "exclusive" method) — the spread the benchmark's acceptance is
/// judged by. Fewer than four samples → 0.
pub fn quartile_spread(samples: &[f64]) -> f64 {
    if samples.len() < 4 {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quantile = |k: usize| {
        // Position k(n+1)/4 in 1-based ranks, interpolated, clamped.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        v[lo - 1] + (v[lo] - v[lo - 1]) * (pos - lo as f64)
    };
    (quantile(3) - quantile(1)) / median(&v)
}

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux has
/// reported 100 through `sysconf(_SC_CLK_TCK)` on every architecture for
/// decades; reading it would need libc, which the offline build lacks.
const CLK_TCK: f64 = 100.0;

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may contain spaces and parentheses, so
/// fields are counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Steal time in clock ticks, summed over CPUs, from the text of
/// `/proc/stat`: field 8 of the aggregate `cpu` line.
pub fn parse_stat_steal_ticks(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_ascii_whitespace().nth(8)?.parse().ok()
}

/// The number on the `key:` line of `/proc/<pid>/status` text
/// (`VmHWM` in kB, `Threads` as a count).
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|l| {
        let rest = l.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_ascii_whitespace().next()?.parse().ok()
    })
}

/// CPU seconds (user + system, all threads) process `pid` has used; 0 for
/// a process that is gone.
pub fn cpu_seconds(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|s| parse_stat_cpu_ticks(&s))
        .map_or(0.0, |t| t as f64 / CLK_TCK)
}

/// Seconds the hypervisor has run something else while a CPU of this
/// machine had work to do, summed over CPUs; 0 where the kernel does not say.
pub fn steal_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_stat_steal_ticks(&s))
        .map_or(0.0, |t| t as f64 / CLK_TCK)
}

fn status_field(pid: u32, key: &str) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| parse_status_field(&s, key))
        .unwrap_or(0)
}

/// Peak resident set of `pid`, MB.
pub fn vm_hwm_mb(pid: u32) -> f64 {
    status_field(pid, "VmHWM") as f64 / 1024.0
}

/// Current thread count of this process.
pub fn threads_now() -> u64 {
    status_field(std::process::id(), "Threads")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_pools_and_uses_nearest_rank() {
        // Two repetitions' samples pooled: 1..=20.
        let mut pool: Vec<f64> = (11..=20).map(f64::from).collect();
        pool.extend((1..=10).map(f64::from));
        assert_eq!(percentile(&pool, 0.5), 10.0);
        assert_eq!(percentile(&pool, 0.95), 19.0);
        assert_eq!(percentile(&pool, 1.0), 20.0);
        assert_eq!(percentile(&pool, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartile_spread_matches_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert!((quartile_spread(&[3.0, 1.0, 4.0, 1.0, 5.0]) - 3.5 / 3.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn stat_parser_survives_hostile_comm() {
        let stat = "4242 (fuxi) bench (x) S 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    151 49 0 0 20 0 37 0 123456 1000000 2000 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(200));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn steal_parser_reads_the_aggregate_line() {
        let stat =
            "cpu0 1 2 3 4 5 6 7 99 0 0\ncpu  1272807 0 310959 4047336 11774 0 21957 21459 0 0\n";
        assert_eq!(parse_stat_steal_ticks(stat), Some(21459));
        assert_eq!(parse_stat_steal_ticks("cpu  1 2 3"), None);
        assert_eq!(parse_stat_steal_ticks("intr 5"), None);
    }

    #[test]
    fn status_parser_reads_kb_and_counts() {
        let status = "Name:\tfuxi\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nThreads:\t37\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(20480));
        assert_eq!(parse_status_field(status, "Threads"), Some(37));
        assert_eq!(parse_status_field(status, "VmRSS"), None);
        // A key that is only a prefix of another must not match it.
        assert_eq!(parse_status_field("VmHWMX:\t5 kB\n", "VmHWM"), None);
    }

    #[test]
    fn reads_own_process() {
        assert!(vm_hwm_mb(std::process::id()) > 0.0);
        assert!(threads_now() >= 1);
    }
}
