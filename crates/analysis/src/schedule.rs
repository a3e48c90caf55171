//! Static chunked scheduling of parallel loops.
//!
//! The paper assumes "static scheduling of OpenMP loops with chunk
//! distribution. Thus, each thread gets a set of contiguous iterations"
//! (§V-A2). Knowing the mapping of iteration to thread is what lets the
//! compiler name producer and consumer threads.

/// Chunked distribution of `iters` iterations over `threads` threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunks {
    pub iters: u64,
    pub threads: usize,
}

impl Chunks {
    pub fn new(iters: u64, threads: usize) -> Chunks {
        assert!(threads > 0);
        Chunks { iters, threads }
    }

    /// Chunk size (ceiling division; the last thread may get fewer).
    pub fn chunk(&self) -> u64 {
        self.iters.div_ceil(self.threads as u64).max(1)
    }

    /// Iteration range `[lo, hi)` of thread `t`.
    pub fn range(&self, t: usize) -> (u64, u64) {
        let c = self.chunk();
        let lo = (t as u64 * c).min(self.iters);
        let hi = ((t as u64 + 1) * c).min(self.iters);
        (lo, hi)
    }

    /// The thread executing iteration `i`.
    pub fn owner(&self, i: u64) -> usize {
        assert!(i < self.iters, "iteration {i} out of {}", self.iters);
        (i / self.chunk()) as usize
    }

    /// Threads whose chunks intersect the iteration interval `[lo, hi)`.
    pub fn owners_of_range(&self, lo: u64, hi: u64) -> std::ops::RangeInclusive<usize> {
        if lo >= hi || lo >= self.iters {
            #[allow(clippy::reversed_empty_ranges)]
            return 1..=0; // empty
        }
        let hi = hi.min(self.iters);
        self.owner(lo)..=self.owner(hi - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_distribution() {
        let c = Chunks::new(32, 4);
        assert_eq!(c.chunk(), 8);
        assert_eq!(c.range(0), (0, 8));
        assert_eq!(c.range(3), (24, 32));
        assert_eq!(c.owner(0), 0);
        assert_eq!(c.owner(8), 1);
        assert_eq!(c.owner(31), 3);
    }

    #[test]
    fn ragged_distribution() {
        let c = Chunks::new(10, 4);
        assert_eq!(c.chunk(), 3);
        assert_eq!(c.range(0), (0, 3));
        assert_eq!(c.range(3), (9, 10));
        // Every iteration has exactly one owner, owners are monotone.
        let mut prev = 0;
        for i in 0..10 {
            let o = c.owner(i);
            assert!(o >= prev);
            prev = o;
            let (lo, hi) = c.range(o);
            assert!(i >= lo && i < hi);
        }
    }

    #[test]
    fn more_threads_than_iters() {
        let c = Chunks::new(3, 8);
        assert_eq!(c.chunk(), 1);
        assert_eq!(c.range(0), (0, 1));
        assert_eq!(c.range(2), (2, 3));
        assert_eq!(c.range(3), (3, 3)); // empty
        assert_eq!(c.range(7), (3, 3));
    }

    #[test]
    fn owners_of_range_clips() {
        let c = Chunks::new(32, 4);
        assert_eq!(c.owners_of_range(6, 10), 0..=1);
        assert_eq!(c.owners_of_range(0, 32), 0..=3);
        assert!(c.owners_of_range(5, 5).is_empty());
        assert_eq!(c.owners_of_range(30, 100), 3..=3);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn owner_out_of_range_panics() {
        Chunks::new(4, 2).owner(4);
    }
}
