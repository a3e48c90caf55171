//! Bump allocator for simulated data structures.
//!
//! Applications allocate arrays in the single shared address space before
//! spawning threads. Allocations are line-aligned by default so that
//! distinct arrays never share a cache line (apps can opt into packed
//! allocation to *study* false sharing, which the paper calls out as a
//! traffic source in coherent machines, §VII-B).

use crate::addr::{Region, WordAddr, WORDS_PER_LINE};

/// Line-aligned bump allocator over the simulated address space.
#[derive(Debug, Clone)]
pub struct BumpAllocator {
    next_word: u64,
}

impl Default for BumpAllocator {
    fn default() -> Self {
        Self::new()
    }
}

impl BumpAllocator {
    /// Allocation starts at line 1 (line 0 is reserved so that address 0
    /// never aliases application data).
    pub fn new() -> BumpAllocator {
        BumpAllocator {
            next_word: WORDS_PER_LINE as u64,
        }
    }

    /// Allocate `words` words aligned to a line boundary.
    pub fn alloc(&mut self, words: u64) -> Region {
        self.alloc_aligned(words, WORDS_PER_LINE as u64)
    }

    /// Allocate `words` words with the given word alignment (must be a
    /// power of two).
    pub fn alloc_aligned(&mut self, words: u64, align_words: u64) -> Region {
        assert!(
            align_words.is_power_of_two(),
            "alignment must be a power of two"
        );
        let base = (self.next_word + align_words - 1) & !(align_words - 1);
        self.next_word = base + words;
        Region::new(WordAddr(base), words)
    }

    /// Allocate without alignment, directly after the previous allocation.
    /// Arrays allocated this way can share cache lines — useful for false-
    /// sharing experiments.
    pub fn alloc_packed(&mut self, words: u64) -> Region {
        let base = self.next_word;
        self.next_word = base + words;
        Region::new(WordAddr(base), words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_line_aligned_and_disjoint() {
        let mut a = BumpAllocator::new();
        let r1 = a.alloc(10);
        let r2 = a.alloc(20);
        assert_eq!(r1.start.0 % WORDS_PER_LINE as u64, 0);
        assert_eq!(r2.start.0 % WORDS_PER_LINE as u64, 0);
        assert!(r1.end().0 <= r2.start.0, "regions must not overlap");
        // Different lines entirely.
        assert!(r1.lines().all(|l1| r2.lines().all(|l2| l1 != l2)));
    }

    #[test]
    fn packed_allocations_can_share_a_line() {
        let mut a = BumpAllocator::new();
        let r1 = a.alloc_packed(3);
        let r2 = a.alloc_packed(3);
        assert_eq!(r2.start.0, r1.end().0);
        assert_eq!(r1.lines().last(), r2.lines().next());
    }

    #[test]
    fn line_zero_is_reserved() {
        let mut a = BumpAllocator::new();
        let r = a.alloc(1);
        assert!(r.start.0 >= WORDS_PER_LINE as u64);
    }

    #[test]
    fn custom_alignment() {
        let mut a = BumpAllocator::new();
        a.alloc_packed(5);
        let r = a.alloc_aligned(4, 64);
        assert_eq!(r.start.0 % 64, 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_alignment_panics() {
        BumpAllocator::new().alloc_aligned(1, 3);
    }
}
