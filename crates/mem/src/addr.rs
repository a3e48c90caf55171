//! Byte addresses, word addresses, line addresses, and contiguous regions.
//!
//! The whole simulator uses a fixed word/line grain, matching paper
//! Table III ("64B lines") and §VII-A ("16 dirty bits per line"). The
//! canonical constants live in `hic-sim::config` — next to the
//! [`hic_sim::CacheGeometry`] they validate against — and are re-exported
//! here for the address math. Encoding the grain as constants (rather
//! than threading a runtime geometry through every address computation)
//! keeps the hot paths branch-free; `MachineConfig::validate` rejects any
//! cache geometry whose line size disagrees.

pub use hic_sim::config::{WORDS_PER_LINE, WORD_BYTES};

/// Line size in bytes, derived from the word grain (no independent
/// line-size constant exists — `CacheGeometry::line_bytes` is validated
/// against this same product).
const LINE_BYTES: u64 = WORD_BYTES * WORDS_PER_LINE as u64;

/// A byte address in the single shared address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(pub u64);

impl Addr {
    /// The line containing this address.
    #[inline]
    pub fn line(self) -> LineAddr {
        LineAddr(self.0 / LINE_BYTES)
    }

    /// The word containing this address.
    #[inline]
    pub fn word(self) -> WordAddr {
        WordAddr(self.0 / WORD_BYTES)
    }

    /// Byte offset within the line.
    #[inline]
    pub fn line_offset(self) -> u64 {
        self.0 % LINE_BYTES
    }

    /// Add a byte offset.
    #[inline]
    pub fn offset(self, bytes: u64) -> Addr {
        Addr(self.0 + bytes)
    }
}

/// A word-granularity address (byte address divided by the word size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WordAddr(pub u64);

impl WordAddr {
    /// The line containing this word.
    #[inline]
    pub fn line(self) -> LineAddr {
        LineAddr(self.0 / WORDS_PER_LINE as u64)
    }

    /// Index of this word within its line (0..16).
    #[inline]
    pub fn index_in_line(self) -> usize {
        (self.0 % WORDS_PER_LINE as u64) as usize
    }

    /// The byte address of this word.
    #[inline]
    pub fn byte_addr(self) -> Addr {
        Addr(self.0 * WORD_BYTES)
    }
}

/// A line-granularity address (byte address divided by the line size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// Byte address of the first byte of the line.
    #[inline]
    pub fn base(self) -> Addr {
        Addr(self.0 * LINE_BYTES)
    }

    /// The first word of the line.
    #[inline]
    pub fn first_word(self) -> WordAddr {
        WordAddr(self.0 * WORDS_PER_LINE as u64)
    }

    /// The `i`-th word of the line.
    #[inline]
    pub fn word(self, i: usize) -> WordAddr {
        debug_assert!(i < WORDS_PER_LINE);
        WordAddr(self.0 * WORDS_PER_LINE as u64 + i as u64)
    }
}

/// A contiguous word-granularity address range, used by range-flavored WB
/// and INV instructions (`WB(start, len)`, §III-B) and by region
/// allocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Region {
    /// First word of the region.
    pub start: WordAddr,
    /// Number of words.
    pub words: u64,
}

impl Region {
    /// An empty region at address zero.
    pub fn empty() -> Region {
        Region {
            start: WordAddr(0),
            words: 0,
        }
    }

    /// Region covering `words` words starting at `start`.
    pub fn new(start: WordAddr, words: u64) -> Region {
        Region { start, words }
    }

    /// One word past the end.
    #[inline]
    pub fn end(self) -> WordAddr {
        WordAddr(self.start.0 + self.words)
    }

    /// Does the region contain this word?
    #[inline]
    pub fn contains(self, w: WordAddr) -> bool {
        w.0 >= self.start.0 && w.0 < self.end().0
    }

    /// The `i`-th word of the region (word-granularity array indexing:
    /// applications address array element `i` through this).
    #[inline]
    pub fn at(self, i: u64) -> WordAddr {
        debug_assert!(i < self.words, "region index {i} out of {}", self.words);
        WordAddr(self.start.0 + i)
    }

    /// Sub-region `[lo, hi)` in element indices.
    pub fn slice(self, lo: u64, hi: u64) -> Region {
        assert!(
            lo <= hi && hi <= self.words,
            "slice [{lo},{hi}) out of {}",
            self.words
        );
        Region {
            start: WordAddr(self.start.0 + lo),
            words: hi - lo,
        }
    }

    /// All lines that overlap this region, in ascending order. WB and INV
    /// internally operate at line granularity (§III-B), so the hardware
    /// expands a region to the lines it touches.
    pub fn lines(self) -> impl Iterator<Item = LineAddr> {
        let (first, last) = if self.words == 0 {
            (1, 0) // empty iterator
        } else {
            (self.start.line().0, WordAddr(self.end().0 - 1).line().0)
        };
        (first..=last).map(LineAddr)
    }

    /// Number of lines the region overlaps.
    pub fn num_lines(self) -> u64 {
        if self.words == 0 {
            0
        } else {
            WordAddr(self.end().0 - 1).line().0 - self.start.line().0 + 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_decomposition() {
        let a = Addr(0x1234);
        assert_eq!(a.line(), LineAddr(0x1234 / 64));
        assert_eq!(a.word(), WordAddr(0x1234 / 4));
        assert_eq!(a.line_offset(), 0x1234 % 64);
    }

    #[test]
    fn word_index_in_line() {
        let w = WordAddr(16 + 3); // line 1, word 3
        assert_eq!(w.line(), LineAddr(1));
        assert_eq!(w.index_in_line(), 3);
        assert_eq!(w.byte_addr(), Addr(76));
    }

    #[test]
    fn line_words_roundtrip() {
        let l = LineAddr(5);
        for i in 0..WORDS_PER_LINE {
            let w = l.word(i);
            assert_eq!(w.line(), l);
            assert_eq!(w.index_in_line(), i);
        }
    }

    #[test]
    fn region_lines_cover_exactly_overlapping_lines() {
        // Words 14..19 straddle lines 0 and 1.
        let r = Region::new(WordAddr(14), 5);
        let lines: Vec<_> = r.lines().collect();
        assert_eq!(lines, vec![LineAddr(0), LineAddr(1)]);
        assert_eq!(r.num_lines(), 2);
    }

    #[test]
    fn empty_region_has_no_lines() {
        let r = Region::new(WordAddr(100), 0);
        assert_eq!(r.lines().count(), 0);
        assert_eq!(r.num_lines(), 0);
        assert!(!r.contains(WordAddr(100)));
    }

    #[test]
    fn region_slice_and_at() {
        let r = Region::new(WordAddr(32), 16);
        assert_eq!(r.at(0), WordAddr(32));
        assert_eq!(r.at(15), WordAddr(47));
        let s = r.slice(4, 8);
        assert_eq!(s.start, WordAddr(36));
        assert_eq!(s.words, 4);
        assert!(s.contains(WordAddr(39)));
        assert!(!s.contains(WordAddr(40)));
    }

    #[test]
    #[should_panic(expected = "slice")]
    fn region_slice_out_of_bounds_panics() {
        Region::new(WordAddr(0), 4).slice(2, 6);
    }

    #[test]
    fn single_line_region() {
        let r = Region::new(WordAddr(16), 16); // exactly line 1
        assert_eq!(r.lines().collect::<Vec<_>>(), vec![LineAddr(1)]);
    }
}
