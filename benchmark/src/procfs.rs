//! Process CPU time and peak memory from `/proc/self`.

/// Clock ticks per second of the `utime`/`stime` fields. Linux fixes
/// `USER_HZ` at 100 for `/proc` on every architecture it supports.
const USER_HZ: f64 = 100.0;

/// User and system CPU seconds the process has used, all threads
/// (including exited ones) summed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuTimes {
    pub user_s: f64,
    pub sys_s: f64,
}

impl CpuTimes {
    pub fn total(&self) -> f64 {
        self.user_s + self.sys_s
    }

    pub fn since(&self, earlier: &CpuTimes) -> CpuTimes {
        CpuTimes {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

/// Parse the text of `/proc/<pid>/stat`. The command name (field 2) is
/// parenthesized and may itself contain spaces or parentheses, so fields
/// are counted from the last `)`: `utime` and `stime` are fields 14, 15.
pub fn parse_stat(text: &str) -> Option<CpuTimes> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime is field 14.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(CpuTimes {
        user_s: utime / USER_HZ,
        sys_s: stime / USER_HZ,
    })
}

/// Parse the `VmHWM` (peak resident set) line of `/proc/<pid>/status`,
/// in MiB.
pub fn parse_peak_rss_mib(text: &str) -> Option<f64> {
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kib: f64 = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(kib / 1024.0)
}

/// This process's CPU times so far.
pub fn cpu_times() -> CpuTimes {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|t| parse_stat(&t))
        .expect("/proc/self/stat is readable and well formed on Linux")
}

/// This process's peak resident set so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| parse_peak_rss_mib(&t))
        .expect("/proc/self/status is readable and has VmHWM on Linux")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let text = "4242 (hic bench) (x)) S 1 4242 4242 0 -1 4194560 9040 0 0 0 \
                    1234 567 0 0 20 0 19 0 1000 123456789 4000 18446744073709551615";
        let t = parse_stat(text).unwrap();
        assert!((t.user_s - 12.34).abs() < 1e-9, "{t:?}");
        assert!((t.sys_s - 5.67).abs() < 1e-9, "{t:?}");
        assert!((t.total() - 18.01).abs() < 1e-9);
        let d = t.since(&CpuTimes {
            user_s: 2.34,
            sys_s: 0.67,
        });
        assert!((d.user_s - 10.0).abs() < 1e-9 && (d.sys_s - 5.0).abs() < 1e-9);
        assert_eq!(parse_stat("4242 (cut short) S 1 2"), None);
        assert_eq!(parse_stat("no parenthesis at all"), None);
    }

    #[test]
    fn status_peak_rss_is_read_in_mib() {
        let text = "Name:\thic-benchmark\nVmPeak:\t  900000 kB\nVmHWM:\t   51200 kB\n\
                    VmRSS:\t   40960 kB\nThreads:\t3\n";
        assert_eq!(parse_peak_rss_mib(text), Some(50.0));
        assert_eq!(parse_peak_rss_mib("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_peak_rss_mib("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(cpu_times().total() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
