//! Host time as the benchmark measures it: the serving thread's CPU time,
//! which leaves out time spent waiting for a CPU (other processes, and the
//! hypervisor's steal time on a kernel with paravirtual time accounting),
//! rescaled by a calibration kernel to the speed of a reference host.

use std::time::Duration;

/// `CLOCK_THREAD_CPUTIME_ID` from `<time.h>` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU time the calling thread has run so far.
///
/// # Panics
///
/// Panics if the clock cannot be read.
#[must_use]
pub fn thread_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &raw mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(
        u64::try_from(ts.tv_sec).expect("CPU time is not negative"),
        u32::try_from(ts.tv_nsec).expect("nanoseconds below 1e9"),
    )
}

/// CPU milliseconds [`calibrate`] took on the reference host: the shared
/// 2-core Xeon host the bounds in `BENCHMARK.json` were set on.
pub const REFERENCE_CALIBRATION_MS: f64 = 0.11;

/// Runs a fixed calibration kernel and returns its CPU time in
/// milliseconds. The kernel is independent of the crates under test:
/// seeded xorshift fills of a 16 KiB buffer, each followed by dot products
/// over it, the same mix of integer and `f32` work as the synthetic-KV,
/// quantization and attention paths. Host time taken next to it is
/// rescaled by `REFERENCE_CALIBRATION_MS / (its CPU time)`, so a host that
/// runs slower for a while (a busy neighbour on the core, a lower clock)
/// slows the kernel alike and the rescaled figure holds still.
#[must_use]
pub fn calibrate() -> f64 {
    const ROUNDS: usize = 10;
    let start = thread_cpu();
    let mut buf = [0f32; 4096];
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut acc = 0f32;
    for _ in 0..ROUNDS {
        for v in &mut buf {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *v = (x >> 40) as f32 * 1e-7;
        }
        for c in std::hint::black_box(&buf).chunks(64) {
            acc += c
                .iter()
                .zip(c.iter().rev())
                .map(|(a, b)| a * b)
                .sum::<f32>();
        }
    }
    std::hint::black_box(acc);
    (thread_cpu() - start).as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_advances_with_work_and_calibration_takes_time() {
        let before = thread_cpu();
        let ms = calibrate();
        assert!(ms > 0.0);
        assert!(thread_cpu() - before >= Duration::from_secs_f64(ms / 1e3));
    }
}
