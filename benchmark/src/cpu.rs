//! The calling thread's CPU time.
//!
//! The benchmark runs on one thread, so the time that thread spends on a
//! CPU is the cost of the work it does. Unlike wall time it leaves out the
//! time the thread waits for a CPU while other processes (or, under a
//! hypervisor that reports steal time, other guests) hold it, which on a
//! shared host is most of the run-to-run noise.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// A reading of the calling thread's CPU clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CpuInstant(Duration);

impl CpuInstant {
    /// The thread's CPU time so far.
    pub fn now() -> Self {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec; the clock id is a
        // constant the kernel always accepts for the calling thread.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
        CpuInstant(Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
    }

    /// CPU time spent by this thread since `self`.
    pub fn elapsed(self) -> Duration {
        Self::now().0.saturating_sub(self.0)
    }

    /// CPU time from `earlier` to `self`, in ns.
    pub fn ns_since(self, earlier: CpuInstant) -> u64 {
        self.0.saturating_sub(earlier.0).as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_with_work_and_not_with_sleep() {
        let t = CpuInstant::now();
        std::thread::sleep(Duration::from_millis(50));
        let slept = t.elapsed();
        assert!(slept < Duration::from_millis(25), "sleep cost {slept:?}");
        let t = CpuInstant::now();
        let mut x = 0u64;
        while t.elapsed() < Duration::from_millis(5) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(x > 0);
    }
}
