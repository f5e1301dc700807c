//! Process-level measurements: the CPU clock and `/proc` (64-bit Linux only).

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` in `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// `CLOCK_THREAD_CPUTIME_ID` in `<time.h>` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time this process has consumed, all threads, in ns. It is the
/// scheduler's own accounting, read up to the instant of the call: it has
/// ns resolution where `/proc/self/stat` has 10 ms and
/// `/proc/self/schedstat` lags by a tick, and it leaves out time stolen by
/// the hypervisor. The standard library offers no CPU clock, hence the
/// foreign call (the C library is already linked by `std`).
pub fn cpu_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has consumed, in ns.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

fn clock_ns(clock_id: i32) -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer and nothing else; `Timespec` has that layout on 64-bit Linux
    // (two 64-bit signed fields), and `ts` lives across the call.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Resident set size of this process now (`VmRSS`), in MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// A `kB` field of `/proc/self/status`, in MB.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{field} in /proc/self/status"));
    kb / 1024.0
}

/// Wall and CPU time of consecutive segments of a timed window.
pub struct Laps {
    wall: std::time::Instant,
    cpu: u64,
    pub wall_ns: Vec<u64>,
    pub cpu_ns: Vec<u64>,
}

impl Laps {
    pub fn start() -> Self {
        Laps {
            wall: std::time::Instant::now(),
            cpu: cpu_ns(),
            wall_ns: Vec::new(),
            cpu_ns: Vec::new(),
        }
    }

    /// Close the current segment and open the next.
    pub fn lap(&mut self) {
        let (wall, cpu) = (std::time::Instant::now(), cpu_ns());
        self.wall_ns.push((wall - self.wall).as_nanos() as u64);
        self.cpu_ns.push(cpu - self.cpu);
        (self.wall, self.cpu) = (wall, cpu);
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn proc_readings_are_sane() {
        assert!(super::rss_mb() > 0.5 && super::peak_rss_mb() > 0.5);
        let before = super::cpu_ns();
        let mut x = 0u64;
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(super::cpu_ns() >= before + 30_000_000);
    }
}
