//! Host speed: a fixed compute kernel timed after every execution.
//!
//! Other tenants of the shared host shift its speed by 10–30% for minutes at
//! a time: longer than a run, so even the fastest execution of a run moves
//! with them. The probe measures the same shift. Its fastest timing in a run
//! tracks the fastest execution's: on the 2-vCPU development host, over eight
//! seeds of `metropolis_churn` and `online_churn` the fastest execution time
//! spread (interquartile range over median) 0.076 and 0.118, and its ratio to
//! the fastest probe timing 0.028 and 0.035. The kernel is this benchmark's
//! own code, so no change to the repository moves it.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Kernel steps per timing: about 50 ms on the development host.
const STEPS: u64 = 8_000_000;

/// The fastest timing of the kernel on the development host (2-vCPU VM,
/// Intel Xeon, `rustc 1.95.0`). A host on which the fastest timing of a run
/// is longer is slower by that ratio, and the end-to-end times are scaled
/// back by it.
pub const QUIET_SECS: f64 = 0.050;

/// The kernel: an xorshift stream updating an 8 KiB table (L1-resident),
/// with a dependent floating-point chain and a data-dependent branch per
/// step, so it exercises the core and not the memory other tenants share.
fn kernel(seed: u64, steps: u64) -> u64 {
    let mut table = [0u64; 1024];
    let mut x = seed | 1;
    let mut acc = 0.0f64;
    let mut sum = 0u64;
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x >> 54) as usize;
        table[i] = table[i].wrapping_add(x);
        sum = sum.wrapping_add(table[(i * 7) & 1023]);
        acc = acc * 0.999_999 + (x >> 44) as f64;
        if sum & 3 == 0 {
            sum ^= acc as u64;
        }
    }
    sum ^ acc.to_bits()
}

fn time_steps(steps: u64) -> Duration {
    let start = Instant::now();
    black_box(kernel(black_box(7), black_box(steps)));
    start.elapsed()
}

/// One timing of the kernel, on the calling thread.
pub fn time() -> Duration {
    time_steps(STEPS)
}

/// How much slower than the development host the host ran, given the
/// fastest probe timing of a run: above 1 on a slower host. Dividing a time
/// by it gives the time on the development host.
pub fn slowdown(fastest: Duration) -> f64 {
    fastest.as_secs_f64() / QUIET_SECS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_not_optimised_away() {
        let fastest = |steps| (0..3).map(|_| time_steps(steps)).min().unwrap();
        let short = fastest(STEPS / 16);
        let long = fastest(STEPS / 4);
        assert!(long > short * 2, "4x the steps took {long:?} vs {short:?}");
    }

    #[test]
    fn slowdown_is_the_ratio_to_the_quiet_timing() {
        assert_eq!(slowdown(Duration::from_secs_f64(QUIET_SECS)), 1.0);
        assert!((slowdown(Duration::from_secs_f64(2.0 * QUIET_SECS)) - 2.0).abs() < 1e-12);
    }
}
