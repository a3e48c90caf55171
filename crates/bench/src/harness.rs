//! A minimal wall-clock benchmarking harness.
//!
//! The build environment has no registry access, so the benches under
//! `benches/` (all `harness = false`) use this in-repo harness instead of
//! an external framework: warm up, run the routine until a time budget or
//! iteration cap is hit, and report mean wall time per iteration.
//!
//! Results go to stdout, one line per benchmark:
//! `bench  <name>  <iters> iters  <mean>/iter  <total>`.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Time budget per benchmark (after warm-up).
const BUDGET: Duration = Duration::from_millis(1000);
/// Iteration caps: at least MIN (for stable means), at most MAX (so a
/// nanosecond-scale routine doesn't spin the budget away on clock reads).
const MIN_ITERS: u64 = 5;
const MAX_ITERS: u64 = 100_000;
/// Warm-up iterations (untimed).
const WARMUP: u64 = 2;

/// One benchmark's measurement.
#[derive(Debug, Clone)]
pub struct Timing {
    pub name: String,
    pub iters: u64,
    pub total: Duration,
}

impl Timing {
    /// Mean wall time per iteration, computed in nanoseconds so large
    /// iteration counts don't truncate to zero (`Duration / u32` rounds
    /// the whole quotient down to its nanosecond grid in one step).
    pub fn mean(&self) -> Duration {
        let nanos = self.total.as_nanos() / u128::from(self.iters.max(1));
        Duration::from_nanos(nanos as u64)
    }

    /// Mean iterations per second.
    pub fn throughput(&self) -> f64 {
        let secs = self.total.as_secs_f64();
        if secs == 0.0 {
            return f64::INFINITY;
        }
        self.iters as f64 / secs
    }

    fn report(&self) {
        println!(
            "bench  {:<44} {:>7} iters  {:>12?}/iter  total {:?}",
            self.name,
            self.iters,
            self.mean(),
            self.total
        );
    }
}

/// Measure `routine` (no per-iteration setup). Prints and returns the
/// timing.
pub fn bench<T>(name: &str, mut routine: impl FnMut() -> T) -> Timing {
    bench_with_setup(name, || (), move |()| routine())
}

/// Measure `routine` with untimed per-iteration `setup` (the equivalent
/// of a batched iteration: construction cost is excluded from the
/// measurement). Prints and returns the timing.
pub fn bench_with_setup<S, T>(
    name: &str,
    mut setup: impl FnMut() -> S,
    mut routine: impl FnMut(S) -> T,
) -> Timing {
    for _ in 0..WARMUP {
        black_box(routine(setup()));
    }
    let mut iters = 0u64;
    let mut total = Duration::ZERO;
    while (total < BUDGET || iters < MIN_ITERS) && iters < MAX_ITERS {
        let input = setup();
        let start = Instant::now();
        black_box(routine(input));
        total += start.elapsed();
        iters += 1;
    }
    let t = Timing {
        name: name.to_string(),
        iters,
        total,
    };
    t.report();
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_math() {
        let t = Timing {
            name: "x".into(),
            iters: 4,
            total: Duration::from_millis(100),
        };
        assert_eq!(t.mean(), Duration::from_millis(25));
        assert!((t.throughput() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn bench_runs_at_least_min_iters() {
        let mut calls = 0u64;
        let t = bench("self_test_noop", || calls += 1);
        assert!(t.iters >= MIN_ITERS);
        assert_eq!(calls, t.iters + WARMUP);
    }
}
