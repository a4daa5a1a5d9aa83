//! Process-level measurements: CPU time and peak resident memory.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// CPU seconds consumed by this process so far (user + system, all threads).
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two C longs on
    // Linux) that outlives the call, and the clock id is a constant Linux
    // defines; `clock_gettime` writes only into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// The calibration unit's nominal CPU time: normalized CPU seconds are
/// CPU seconds on a machine that runs one [`calibrate`] unit in this time.
pub const CAL_REF_S: f64 = 0.001;

/// Buffers of the calibration unit, built once per process.
struct CalBuffers {
    map: HashMap<u64, u64>,
    heap: BinaryHeap<Reverse<u64>>,
    /// A random single cycle over 4 MiB of indices (beyond the private
    /// caches, like the simulator's own working set).
    cycle: Vec<u32>,
    small: HashMap<u64, u64>,
}

thread_local! {
    static CAL: RefCell<CalBuffers> = RefCell::new(CalBuffers {
        map: HashMap::with_capacity(8_192),
        heap: BinaryHeap::with_capacity(2_048),
        cycle: random_cycle(1 << 20),
        small: HashMap::with_capacity(1_024),
    });
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// `next[i]` of a random permutation that is one cycle through all of `0..n`.
fn random_cycle(n: usize) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut x = 0x1234_5678_9ABC_DEF1u64;
    for i in (1..n).rev() {
        order.swap(i, (xorshift(&mut x) % (i as u64 + 1)) as usize);
    }
    let mut next = vec![0u32; n];
    for i in 0..n {
        next[order[i] as usize] = order[(i + 1) % n];
    }
    next
}

/// CPU seconds one fixed unit of simulator-shaped work takes right now, in
/// four parts of similar cost: hash-map and binary-heap churn, a pointer
/// chase through 4 MiB, small allocations, and a cache-resident hash map.
/// Timed after every simulated second, it tracks how fast the shared
/// machine runs at that moment, so CPU times can be normalized by it.
pub fn calibrate() -> f64 {
    CAL.with(|cal| {
        let CalBuffers { map, heap, cycle, small } = &mut *cal.borrow_mut();
        map.clear();
        heap.clear();
        small.clear();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let start = process_cpu_s();
        let mut acc = 0u64;
        for _ in 0..1_000 {
            *map.entry(xorshift(&mut x) % 8_192).or_insert(0) += 1;
            acc = acc.wrapping_add(map.get(&(xorshift(&mut x) % 8_192)).copied().unwrap_or(0));
            heap.push(Reverse(xorshift(&mut x)));
            if heap.len() > 1_000 {
                heap.pop();
            }
        }
        let mut p = (acc % cycle.len() as u64) as u32;
        for _ in 0..1_500 {
            p = cycle[p as usize];
        }
        let mut kept: Vec<Vec<u8>> = Vec::with_capacity(64);
        for i in 0..6_000 {
            let v = vec![p as u8; 32 + (xorshift(&mut x) % 480) as usize];
            if kept.len() < 64 {
                kept.push(v);
            } else {
                kept[i % 64] = v;
            }
        }
        for _ in 0..12_000 {
            *small.entry(xorshift(&mut x) % 512).or_insert(0) += 1;
        }
        std::hint::black_box((acc, p, &kept));
        process_cpu_s() - start
    })
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("malformed VmHWM line {line:?}: {e}"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let start = process_cpu_s();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() > start);
    }

    #[test]
    fn calibration_unit_takes_time() {
        let first = calibrate();
        assert!(first > 0.0 && calibrate() > 0.0);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
