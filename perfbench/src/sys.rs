//! The few Linux calls the benchmark needs that `std` does not wrap:
//! CPU-time clocks (process and calling thread) and a nanosecond
//! `timerfd` the generator's epoll loop sleeps on between due sends.

use std::fs::File;
use std::io::{self, Read};
use std::os::fd::{AsRawFd, FromRawFd, RawFd};
use std::time::Duration;

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Itimerspec {
    it_interval: Timespec,
    it_value: Timespec,
}

const CLOCK_MONOTONIC: i32 = 1;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const TFD_NONBLOCK: i32 = 0o4000;
const TFD_CLOEXEC: i32 = 0o2000000;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn timerfd_create(clock: i32, flags: i32) -> i32;
    fn timerfd_settime(fd: i32, flags: i32, new: *const Itimerspec, old: *mut Itimerspec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

fn clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec::default();
    // SAFETY: `ts` is a valid, writable timespec for the duration of
    // the call; the clock ids are the fixed Linux constants above.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by every thread of this process so far, in ns
/// (threads that already exited included).
pub fn process_cpu_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread so far, in ns.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// A one-shot monotonic timer readable through epoll.
pub struct Timer {
    file: File,
}

impl Timer {
    pub fn new() -> io::Result<Timer> {
        // SAFETY: plain syscall; no pointers involved.
        let fd = unsafe { timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` is a freshly created descriptor nobody else owns.
        Ok(Timer {
            file: unsafe { File::from_raw_fd(fd) },
        })
    }

    pub fn raw_fd(&self) -> RawFd {
        self.file.as_raw_fd()
    }

    /// Arms the timer to fire once after `after` (clamped to ≥ 1 ns, as
    /// a zero value would disarm it).
    pub fn arm(&self, after: Duration) -> io::Result<()> {
        let ns = after.as_nanos().clamp(1, u64::MAX as u128) as u64;
        let spec = Itimerspec {
            it_interval: Timespec::default(),
            it_value: Timespec {
                tv_sec: (ns / 1_000_000_000) as i64,
                tv_nsec: (ns % 1_000_000_000) as i64,
            },
        };
        // SAFETY: `spec` outlives the call and the old-value pointer may
        // be null per timerfd_settime(2).
        let rc = unsafe { timerfd_settime(self.raw_fd(), 0, &spec, std::ptr::null_mut()) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Consumes a pending expiry so level-triggered epoll stops
    /// reporting the timer.
    pub fn clear(&self) {
        let mut buf = [0u8; 8];
        let _ = (&self.file).read(&mut buf);
    }
}

/// Returns freed heap memory to the kernel, so the next RSS reading
/// starts from what is still in use.
pub fn trim_heap() {
    // SAFETY: glibc's malloc_trim only releases free heap pages; it
    // takes no pointers and is safe to call from any thread.
    unsafe {
        malloc_trim(0);
    }
}

/// Resident set size of this process right now, in bytes.
pub fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}
