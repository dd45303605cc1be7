//! What the host gives the benchmark: CPU time stolen by the hypervisor
//! (reported, not corrected for), CPU clocks and the process's peak
//! memory.

/// Machine-wide CPU tick counters at one instant (the `cpu` line of
/// `/proc/stat`, in clock ticks summed over every CPU).
#[derive(Debug, Clone, Copy, Default)]
pub struct Ticks {
    steal: u64,
    /// Ticks the guest wanted a CPU: every tick but idle and iowait,
    /// stolen ones included.
    wanted: u64,
}

impl Ticks {
    /// The current counters; zeros where `/proc/stat` is unreadable, so
    /// every interval then reads as free of steal.
    pub fn now() -> Ticks {
        std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| parse_cpu_line(s.lines().next()?))
            .unwrap_or_default()
    }

    /// The ticks counted from `earlier` to `self`.
    pub fn since(self, earlier: Ticks) -> Ticks {
        Ticks {
            steal: self.steal.saturating_sub(earlier.steal),
            wanted: self.wanted.saturating_sub(earlier.wanted),
        }
    }

    /// Of an interval's ticks (see [`Ticks::since`]), the share of the
    /// CPU time the guest wanted that the hypervisor gave to other guests
    /// instead.
    pub fn steal_share(self) -> f64 {
        if self.wanted == 0 {
            return 0.0;
        }
        self.steal as f64 / self.wanted as f64
    }
}

impl std::ops::AddAssign for Ticks {
    fn add_assign(&mut self, other: Ticks) {
        self.steal += other.steal;
        self.wanted += other.wanted;
    }
}

/// `cpu  user nice system idle iowait irq softirq steal guest guest_nice`;
/// guest time is already counted in user and nice.
fn parse_cpu_line(line: &str) -> Option<Ticks> {
    let mut fields = line.split_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    let v: Vec<u64> = fields
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    (v.len() == 8).then(|| Ticks {
        steal: v[7],
        wanted: v[0] + v[1] + v[2] + v[5] + v[6] + v[7],
    })
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec; the call writes only it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// CPU time consumed by the whole process so far, ns.
pub fn process_cpu_ns() -> u64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread so far, ns.
pub fn thread_cpu_ns() -> u64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set (VmHWM) of this process, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_of_an_interval() {
        let a = parse_cpu_line("cpu  100 0 50 800 10 0 5 35 0 0").unwrap();
        let b = parse_cpu_line("cpu  160 0 70 840 30 0 10 55 7 0").unwrap();
        // 20 stolen of 60+20+5+20 = 105 wanted ticks; idle and iowait
        // do not count
        assert!((b.since(a).steal_share() - 20.0 / 105.0).abs() < 1e-12);
        assert_eq!(b.since(b).steal_share(), 0.0);
        let mut sum = b.since(a);
        sum += b.since(a);
        assert_eq!(sum.steal_share(), b.since(a).steal_share());
        assert!(parse_cpu_line("cpu0 1 2 3 4 5 6 7 8").is_none());
        assert!(parse_cpu_line("cpu 1 2 3").is_none());
    }
}
