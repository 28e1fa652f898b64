//! Outside-in resource accounting through `getrusage(2)` (Linux).
//!
//! CPU time is user + system. `RUSAGE_CHILDREN` covers every child this
//! process has reaped, which is how fabric worker CPU is counted: the
//! coordinator reaps each worker before its collection returns.

use std::os::raw::{c_int, c_long};

const RUSAGE_SELF: c_int = 0;
const RUSAGE_CHILDREN: c_int = -1;

#[repr(C)]
#[derive(Default)]
struct TimeVal {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` as Linux lays it out: two `timeval`s then fourteen
/// `long`s, of which only `ru_maxrss` (kilobytes) is read here.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut RUsage) -> c_int;
}

/// CPU seconds and peak resident set of one `getrusage` target.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    /// User + system CPU, seconds.
    pub cpu_s: f64,
    /// Peak resident set, kilobytes.
    pub maxrss_kb: f64,
}

fn usage(who: c_int) -> Usage {
    let mut ru = RUsage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` with the Linux
    // layout, and `who` is one of the two documented targets.
    let rc = unsafe { getrusage(who, &mut ru) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    let secs = |t: &TimeVal| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        maxrss_kb: ru.maxrss as f64,
    }
}

/// This process.
pub fn own() -> Usage {
    usage(RUSAGE_SELF)
}

/// Every child this process has reaped.
pub fn children() -> Usage {
    usage(RUSAGE_CHILDREN)
}
